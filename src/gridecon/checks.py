"""The number rules for dataclass fields and function arguments, and the one
rejection of a name a table does not hold.

A number rule first asks whether the value is a number at all: a
``numbers.Real`` that is not a ``bool``. So ``True``, ``np.True_``, a string,
``None`` or a ``Decimal`` fails the rule under the field's name, as ``true``
and ``"x"`` fail the scenario-file and project-CSV readers, and never reaches
a comparison. ``require_range`` then tests the value against its interval,
which the caller writes once, in interval notation: ``"[0, 1)"``,
``"(0, inf)"``, or ``"[0, inf]"`` where +inf is accepted. The message's rule
text derives from it: ``"[0, inf)"`` reads "finite and >= 0",
``"[0, inf]"`` ">= 0", ``"(-inf, inf)"`` "finite" and ``"[0, 1)"``
"in [0, 1)". A NaN fails every interval. ``require_whole`` holds the
whole-number rule (``numbers.Integral``, not ``bool``), and ``require`` the
verdict form of the rules that are not about numbers: a string, a length.
"""

from __future__ import annotations

import functools
import numbers
import operator


def require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ``ValueError("<name> must be <rule>, got <value>")`` unless ``ok``."""
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value}")


def _real(kind: type) -> bool:
    """Whether values of ``kind`` are numbers: ``numbers.Real``, not ``bool``."""
    return kind is not bool and issubclass(kind, numbers.Real)


@functools.cache
def _interval(interval: str):
    """``(low, high, above_low, below_high, rule)`` of an interval such as
    ``"[0, 1)"``: its ends, the comparison each end makes, and its rule text.
    An interval with a finite upper end prints as written. One that runs to
    inf prints its lower end, unless that is -inf, as a comparison, after
    "finite" when inf is excluded."""
    low_text, high_text = interval[1:-1].split(", ")
    low, high = float(low_text), float(high_text)
    above = operator.le if interval[0] == "[" else operator.lt
    below = operator.le if interval[-1] == "]" else operator.lt
    finite = ["finite"] if interval[-1] == ")" else []
    bound = [] if low_text == "-inf" else [f"{'>=' if interval[0] == '[' else '>'} {low_text}"]
    rule = " and ".join(finite + bound) if high_text == "inf" else f"in {interval}"
    return low, high, above, below, rule


def require_range(value, name: str, interval: str, each: str | None = None) -> None:
    """Raise ``ValueError("<name> must be <rule>, got <value>")`` unless
    ``value`` is a number in ``interval`` (see the module docstring).

    With ``each``, ``value`` is a tuple whose every item must be such a
    number, and the rule reads "<rule> <each>", e.g. "finite and >= 0 in
    every region".
    """
    low, high, above, below, rule = _interval(interval)
    for item in (value,) if each is None else value:
        real = type(item) in (float, int) or _real(type(item))
        if not (real and above(low, item) and below(item, high)):
            rule = rule if each is None else f"{rule} {each}"
            raise ValueError(f"{name} must be {rule}, got {value}")


def require_whole(value, name: str) -> None:
    """``require`` that ``value`` is a whole number: ``numbers.Integral``, not ``bool``."""
    whole = isinstance(value, numbers.Integral) and type(value) is not bool
    require(whole, name, "a whole number", value)


def lookup(table: dict, name: str, what: str):
    """``table[name]``, or ``ValueError("unknown <what> <name>; expected one of <keys>")``."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; expected one of {', '.join(table)}") from None
