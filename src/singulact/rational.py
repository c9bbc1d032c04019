"""Exact rational scalars and the distinguished infinity.

Rationals are `fractions.Fraction` values: always reduced, positive
denominator, structural equality.  `INF` is a singleton that compares greater
than every rational and equal only to itself; it is the value of invariants at
smooth points.
"""

from __future__ import annotations

import re
from fractions import Fraction

Rat = Fraction


class _Infinity:
    """Singleton sentinel, greater than every rational."""

    _instance = None
    __slots__ = ()

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("singulact-infinity")

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __repr__(self):
        return "inf"


INF = _Infinity()

_RAT_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def format_rat(v) -> str:
    """Render as "p/q" in lowest terms, "p" for integers, "inf" for INF.

    Round-trips through parse_rat.
    """
    if v is INF:
        return "inf"
    return str(Fraction(v))


def parse_rat(text: str):
    """Inverse of format_rat.  Accepts integer and p/q literals and "inf"."""
    text = text.strip()
    if text == "inf":
        return INF
    if not _RAT_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)
