"""Exact rational arithmetic primitives.

All core computations run on ``fractions.Fraction`` (arbitrary precision,
always stored in lowest terms with a positive denominator).  ``INF`` is the
designated extended value used for unbounded happiness caps and for
bang-per-buck ratios at zero prices; it compares greater than every
rational.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError


class _Infinity:
    """Singleton sentinel, strictly above every Fraction."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INF"

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("fisheq.INF")

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self


INF = _Infinity()

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def as_fraction(value):
    """``value`` itself if it is a Fraction, else ``Fraction(value)``."""
    return value if type(value) is Fraction else Fraction(value)


def parse_rational(text):
    """Parse a 'p' or 'p/q' string into a Fraction.

    Floating-point notation is rejected on purpose: exactness is the whole
    point of the string format.
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise FormatError(f"not an exact rational: {text!r}")
    text = text.strip()
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise FormatError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(value):
    """Lowest-terms 'p/q' or plain integer string."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"
