"""Exact rational arithmetic primitives.

All core computations run on ``fractions.Fraction`` (arbitrary precision,
always stored in lowest terms with a positive denominator).  ``INF`` is the
designated extended value used for unbounded happiness caps and for
bang-per-buck ratios at zero prices; it compares greater than every
rational.

``ratio_sign`` is the one comparison of two ratios of integers.  It decides
from float estimates of the ratios where they are far apart, and
cross-multiplies only near a tie, so it stays exact while comparing
thousand-bit ratios at the cost of two float divisions.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction

from .errors import FormatError, InvalidMarketError


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

# Operands below this bound are cross-multiplied at once: the products
# cost no more than the float divisions that would avoid them.  (A negative
# numerator counts as word-sized: that only costs time, and every ratio
# compared in the package is nonnegative.)
_WORD = 1 << 128
# Estimates further apart than this share of their size are ordered as the
# ratios are, even if each is a few units in the last place off.
_MARGIN = 2.0 ** -40
_TINY = sys.float_info.min  # the smallest normal float


def ratio_sign(a, b, c, d):
    """Sign of a/b - c/d, for integers a, c and positive integers b, d.
    Whether it is 0 is right for any nonzero b and d.

    Where a or b is not word-sized, it first reads float estimates of the
    two ratios: CPython rounds an int/int division correctly at any size.
    Two normal estimates further apart than ``_MARGIN`` of their size
    decide the sign.  Otherwise the sign comes from the integer products
    a*d and c*b: near a tie, when a and b are word-sized, and wherever an
    estimate overflows or is zero or subnormal (its relative error is then
    unbounded).
    """
    if a >= _WORD or b >= _WORD:
        try:
            x, y = a / b, c / d
        except OverflowError:
            x = y = 0.0
        if abs(x) >= _TINY and abs(y) >= _TINY:
            gap = _MARGIN * (abs(x) + abs(y))
            if x - y > gap:
                return 1
            if y - x > gap:
                return -1
    ad, cb = a * d, c * b
    return (ad > cb) - (ad < cb)


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def as_fraction(value, what="entry"):
    """``value`` itself if it is a Fraction, else ``Fraction(value)``.  A
    float (already rounded) or a bool is not an exact rational entry:
    InvalidMarketError, naming the entry as ``what``."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (float, bool)):
        raise InvalidMarketError(f"{what} must be an exact rational, not {value!r}")
    return Fraction(value)


def _to_int(digits):
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int <-> str digit limit
        return int(Decimal(digits))


def _to_str(n):
    try:
        return str(n)
    except ValueError:  # past the interpreter's int <-> str digit limit
        return str(Decimal(n))


def parse_rational(text):
    """Parse a 'p' or 'p/q' string, of any length, into a Fraction.

    Floating-point notation is rejected on purpose: exactness is the whole
    point of the string format.  A plain nonnegative integer, the common
    entry, skips the regex: ``str.isdecimal`` accepts exactly the digits
    that ``\\d`` matches.
    """
    stripped = text.strip() if isinstance(text, str) else ""
    if stripped.isdecimal():
        return Fraction(_to_int(stripped))
    match = _RATIONAL_RE.fullmatch(stripped)
    if match is None:
        raise FormatError(f"not an exact rational: {text!r}")
    num, den = match.groups()
    if den is None:
        return Fraction(_to_int(num))
    den = _to_int(den)
    if den == 0:
        raise FormatError(f"zero denominator: {stripped!r}")
    return Fraction(_to_int(num), den)


def format_rational(value):
    """Lowest-terms 'p/q' or plain integer string, at any size."""
    num, den = value.numerator, value.denominator
    if den == 1:
        return _to_str(num)
    return f"{_to_str(num)}/{_to_str(den)}"
