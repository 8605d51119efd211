"""The one range check for dataclass fields and function arguments, and the
one rejection of a name a table does not hold."""

from __future__ import annotations


def require(ok: bool, name: str, rule: str, value) -> None:
    """Raise ``ValueError("<name> must be <rule>, got <value>")`` unless ``ok``.

    Callers write ``ok`` as the accepted range (``0 < x < math.inf``), so a
    NaN, which fails every comparison, and an infinity are rejected too.
    """
    if not ok:
        raise ValueError(f"{name} must be {rule}, got {value}")


def lookup(table: dict, name: str, what: str):
    """``table[name]``, or ``ValueError("unknown <what> <name>; expected one of <keys>")``."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(f"unknown {what} {name!r}; expected one of {', '.join(table)}") from None
