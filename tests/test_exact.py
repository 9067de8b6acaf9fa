import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisheq import (
    INF,
    Equilibrium,
    FormatError,
    InvalidMarketError,
    Market,
    format_rational,
    parse_rational,
    verify_allocation,
)
from fisheq.exact import ratio_sign
from fisheq.flow import FlowNetwork


def test_parse_integer_and_fraction():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("10/13") == F(10, 13)


def test_parse_normalizes_to_lowest_terms():
    q = parse_rational("4/8")
    assert (q.numerator, q.denominator) == (1, 2)


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "inf", "1/0", "a/b", "0.1/2", None, 3])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(FormatError):
        parse_rational(bad)


def test_format_lowest_terms():
    assert format_rational(F(10, 13)) == "10/13"
    assert format_rational(F(4)) == "4"
    assert format_rational(F(-6, 4)) == "-3/2"


@given(st.integers(-10**12, 10**12), st.integers(1, 10**12))
def test_round_trip(num, den):
    q = F(num, den)
    assert parse_rational(format_rational(q)) == q


def test_infinity_orders_above_everything():
    assert INF > F(10**100)
    assert not (INF < F(0))
    assert INF >= INF and INF <= INF
    assert not (INF > INF)
    assert INF == INF and INF != F(1)


def test_round_trip_past_the_int_str_digit_limit():
    # 7**20000 has 16,902 digits, past the default limit of 4,300 that
    # int <-> str conversion enforces since Python 3.10.7 and 3.11.
    for q in (F(7**20000), F(-(7**20000), 3**9000 * 2), F(1, 7**20000)):
        assert parse_rational(format_rational(q)) == q
    assert format_rational(F(10**5000)) == "1" + "0" * 5000


def _sign(a, b, c, d):
    ad, cb = a * d, c * b
    return (ad > cb) - (ad < cb)


def _magnitude(bits):
    """Positive integers of up to ``bits`` bits, spread over the bit lengths."""
    return st.integers(1, bits).flatmap(lambda k: st.integers(1 << (k - 1), (1 << k) - 1))


_SIGNED = st.builds(lambda n, neg: -n if neg else n, _magnitude(3000), st.booleans())
_SCALE = st.integers(0, 200).flatmap(lambda k: st.integers(1 << k, (1 << (k + 1)) - 1))


@st.composite
def _ratio_pairs(draw):
    """(a, b, c, d): random, tied, nearly tied, beyond the float range, or
    with a zero numerator."""
    kind = draw(st.sampled_from(["random", "tie", "near", "huge", "tiny", "zero"]))
    a, b = draw(_SIGNED), draw(_magnitude(3000))
    if kind == "huge":  # a/b around 2**1000 to 2**1200, past the largest float
        e = draw(st.integers(1000, 1200))
        a <<= max(0, e + b.bit_length() - abs(a).bit_length())
    elif kind == "tiny":  # a/b around 2**-1000 to 2**-1200: normal, subnormal or 0
        e = draw(st.integers(1000, 1200))
        b <<= max(0, e + abs(a).bit_length() - b.bit_length())
    if kind == "zero":
        c, d = 0, draw(_magnitude(3000))
        if draw(st.booleans()):
            a, b, c, d = c, d, a, b
    elif kind == "random":
        c, d = draw(_SIGNED), draw(_magnitude(3000))
    elif kind == "tie":  # k*a / (k*b)
        k = draw(_magnitude(1000))
        c, d = k * a, k * b
    else:  # c/d = a/b * (1 +- 1/K), K up to 2**200
        K = draw(_SCALE)
        c, d = a * (K + draw(st.sampled_from([1, -1]))), b * K
    if draw(st.booleans()):
        a, b, c, d = c, d, a, b
    return a, b, c, d


class _Skewed(int):
    """An integer whose true division by an int gives the correctly rounded
    quotient moved ``steps`` units in the last place, as an interpreter
    that rounds less carefully might."""

    def __new__(cls, value, steps):
        self = super().__new__(cls, value)
        self.steps = steps
        return self

    def __truediv__(self, other):
        x = int(self) / other
        direction = math.inf if self.steps > 0 else -math.inf
        for _ in range(abs(self.steps)):
            x = math.nextafter(x, direction)
        return x


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_ratio_pairs(), st.integers(-4, 4), st.integers(-4, 4))
def test_ratio_sign_is_the_sign_of_the_cross_products(pair, dx, dy):
    # Exact with correctly rounded estimates, and with estimates a few units
    # in the last place off: on a near tie only the margin keeps such
    # estimates from deciding, and a subnormal or zero estimate that far off
    # says nothing about the ratio.
    a, b, c, d = pair
    expected = _sign(a, b, c, d)
    assert ratio_sign(a, b, c, d) == expected
    assert ratio_sign(_Skewed(a, dx), b, _Skewed(c, dy), d) == expected
    assert ratio_sign(_Skewed(c, dy), d, _Skewed(a, dx), b) == -expected


_ONE_BY_ONE = Market((1,), (None,), ((1,),))


# One rule for every exact entry: a float is already rounded and a bool is
# not a quantity, wherever a price, a share or a capacity is taken in.
@pytest.mark.parametrize(
    "build",
    [
        lambda: verify_allocation(_ONE_BY_ONE, [1.0], [[1.0]]),
        lambda: verify_allocation(_ONE_BY_ONE, [1], [[True]]),
        lambda: Equilibrium((1,), ((True,),), (1,), (False,), (1,)),
        lambda: FlowNetwork.from_edges((1,), (0.5,), {(0, 0)}),
    ],
    ids=["float-price", "bool-share", "bool-share-record", "float-capacity"],
)
def test_float_or_bool_entry_rejected(build):
    with pytest.raises(InvalidMarketError, match="must be an exact rational, not (1.0|True|0.5)"):
        build()
