"""The number rules for dataclass fields and function arguments, and the one
rejection of a name a table does not hold.

Every range rule goes through ``require`` and every whole-number rule
through ``require_whole``. A ``bool`` is not a number to either, as it is
not to the scenario-file and project-CSV readers: ``True`` fails every rule,
and so does a tuple holding a ``bool``.
"""

from __future__ import annotations

import numbers


def require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ``ValueError("<name> must be <rule>, got <value>")`` unless ``ok``.

    Callers write ``ok`` as the accepted range (``0 < x < math.inf``), so a
    NaN, which fails every comparison, and an infinity are rejected too.
    Whatever ``ok`` says, a ``bool`` value, or a tuple holding one, is
    rejected: ``True`` passes ``1 <= x`` but is not a number.
    """
    kind = type(value)
    if not ok or kind is bool or (kind is tuple and bool in map(type, value)):
        raise ValueError(f"{name} must be {rule}, got {value}")


def require_whole(value, name: str) -> None:
    """``require`` that ``value`` is a whole number (``numbers.Integral``)."""
    require(isinstance(value, numbers.Integral), name, "a whole number", value)


def lookup(table: dict, name: str, what: str):
    """``table[name]``, or ``ValueError("unknown <what> <name>; expected one of <keys>")``."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; expected one of {', '.join(table)}") from None
