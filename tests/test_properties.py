"""Symmetries the paper implies, checked on small random markets.

Both endpoints are unique (pointwise largest and smallest prices), and so
are the buyers' utilities, so relabelling buyers or goods must relabel the
output, scaling all budgets must scale the prices alone, and scaling one
buyer's utilities and cap together must scale that buyer's utility alone.
A linear market has unique equilibrium prices (Eisenberg and Gale, 1959),
so its two endpoints meet.

Every property draws from ``markets`` and from ``tied_markets``, whose
few small values make the events of the descent land on one scale.  Two
seeded sweeps under ``-m slow`` run thousands of markets of the same
shape, drawn by ``random_tied_market``, through both endpoints, ``verify``
and the lattice: one with n and m in 1..6, one with n and m in 5..12.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisheq import Market, join, meet, min_revenue, solve_max_revenue, verify

SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)


@st.composite
def markets(draw, max_buyers=4, max_goods=4, max_value=20):
    n = draw(st.integers(1, max_buyers))
    m = draw(st.integers(1, max_goods))
    values = st.integers(1, max_value)
    budgets = draw(st.lists(values, min_size=n, max_size=n))
    caps = draw(st.lists(st.none() | values, min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, max_value), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        ).filter(lambda rows: any(any(row) for row in rows))
    )
    return Market(tuple(budgets), tuple(caps), tuple(map(tuple, rows)))


TIED_KS = (1, 2, 3, 5)  # utilities from {0..k}
TIED_BUDGETS = (F(1, 2), F(1), F(2), F(3))
TIED_CAPS = (F(1, 2), F(1), F(3, 2), F(2), F(3))


@st.composite
def tied_markets(draw, budget_values=TIED_BUDGETS, cap_values=TIED_CAPS):
    """Markets whose events tie often: utilities from {0..k} for a small
    k, budgets from ``budget_values`` (by default {1/2, 1, 2, 3}), and caps
    that are none (about 40%), one of ``cap_values``, or a whole-number
    share of the row sum."""
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.sampled_from(TIED_KS))
    budget = st.sampled_from(budget_values)
    budgets = draw(st.lists(budget, min_size=n, max_size=n))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, k), min_size=m, max_size=m), min_size=n, max_size=n
        ).filter(lambda rows: any(any(row) for row in rows))
    )
    caps = []
    for row in rows:
        kind = draw(st.integers(0, 4))  # 0, 1: none; 2, 3: a fixed value; 4: a share
        if kind < 2:
            caps.append(None)
        elif kind < 4 or not any(row):
            caps.append(draw(st.sampled_from(cap_values)))
        else:
            caps.append(draw(st.integers(1, sum(row))))
    return Market(tuple(budgets), tuple(caps), tuple(map(tuple, rows)))


def random_tied_market(rng, sizes=(1, 6)):
    """A market of ``tied_markets``' distribution, drawn with ``rng``, with
    n and m drawn from the range ``sizes`` (ends included)."""
    n, m = rng.randint(*sizes), rng.randint(*sizes)
    k = rng.choice(TIED_KS)
    budgets = [rng.choice(TIED_BUDGETS) for _ in range(n)]
    rows = [[0] * m]
    while not any(map(any, rows)):
        rows = [[rng.randint(0, k) for _ in range(m)] for _ in range(n)]
    caps = []
    for row in rows:
        kind = rng.randint(0, 4)  # 0, 1: none; 2, 3: a fixed value; 4: a share
        if kind < 2:
            caps.append(None)
        elif kind < 4 or not any(row):
            caps.append(rng.choice(TIED_CAPS))
        else:
            caps.append(rng.randint(1, sum(row)))
    return Market(tuple(budgets), tuple(caps), tuple(map(tuple, rows)))


ANY_MARKETS = markets() | tied_markets()


def _endpoints(market):
    high = solve_max_revenue(market).equilibrium
    return high, min_revenue(market, high)


@SETTINGS
@given(st.data())
def test_permuting_buyers_and_goods_permutes_the_endpoints(data):
    market = data.draw(ANY_MARKETS)
    sigma = data.draw(st.permutations(range(market.n)))  # new buyer k is old sigma[k]
    tau = data.draw(st.permutations(range(market.m)))  # new good k is old tau[k]
    permuted = Market(
        tuple(market.budgets[i] for i in sigma),
        tuple(market.caps[i] for i in sigma),
        tuple(tuple(market.utilities[i][j] for j in tau) for i in sigma),
    )
    for eq, eq_p in zip(_endpoints(market), _endpoints(permuted)):
        assert eq_p.prices == tuple(eq.prices[j] for j in tau)
        assert eq_p.utilities == tuple(eq.utilities[i] for i in sigma)


@SETTINGS
@given(ANY_MARKETS, st.sampled_from([F(2), F(3), F(1, 2), F(7, 3)]))
def test_scaling_budgets_scales_prices_only(market, k):
    scaled = Market(
        tuple(k * b for b in market.budgets), market.caps, market.utilities
    )
    for eq, eq_k in zip(_endpoints(market), _endpoints(scaled)):
        assert eq_k.prices == tuple(k * p for p in eq.prices)
        assert eq_k.allocation == eq.allocation


@SETTINGS
@given(st.data())
def test_rescaling_one_buyer_scales_its_utility_only(data):
    market = data.draw(ANY_MARKETS)
    b = data.draw(st.integers(0, market.n - 1))
    k = data.draw(st.sampled_from([F(2), F(1, 3), F(7, 2)]))
    factor = [k if i == b else 1 for i in range(market.n)]
    rescaled = Market(
        market.budgets,
        tuple(None if c is None else f * c for f, c in zip(factor, market.caps)),
        tuple(tuple(f * u for u in row) for f, row in zip(factor, market.utilities)),
    )
    for eq, eq_k in zip(_endpoints(market), _endpoints(rescaled)):
        assert eq_k.prices == eq.prices
        assert eq_k.allocation == eq.allocation
        assert eq_k.utilities == tuple(f * u for f, u in zip(factor, eq.utilities))


@SETTINGS
@given(ANY_MARKETS)
def test_meet_and_join_of_the_endpoints_are_the_endpoints(market):
    high, low = _endpoints(market)
    for first, second in ((high, low), (low, high)):
        bottom, top = meet(market, first, second), join(market, first, second)
        assert bottom.prices == low.prices and top.prices == high.prices
        assert bottom.utilities == top.utilities == high.utilities


@SETTINGS
@given(ANY_MARKETS)
def test_linear_min_revenue_returns_the_solve_prices(market):
    linear = Market(market.budgets, (None,) * market.n, market.utilities)
    high = solve_max_revenue(linear).equilibrium
    assert min_revenue(linear, high).prices == high.prices


def _check_endpoints(market):
    """Both endpoints verify, the minimum lies below the maximum, meet and
    join of the two give the two, and a linear market's endpoints meet."""
    high = solve_max_revenue(market).equilibrium
    assert verify(market, high).ok
    low = min_revenue(market, high)
    assert verify(market, low).ok
    assert all(lo <= hi for lo, hi in zip(low.prices, high.prices))
    for first, second in ((high, low), (low, high)):
        assert meet(market, first, second).prices == low.prices
        assert join(market, first, second).prices == high.prices
    if all(cap is None for cap in market.caps):
        assert low.prices == high.prices


def _sweep(seed, count, sizes=(1, 6)):
    """``count`` tie-heavy markets drawn from ``Random(seed)`` through
    ``_check_endpoints``; every failure is counted, each named by its draw
    k (the k-th market drawn)."""
    rng = random.Random(seed)
    failures = []
    for k in range(count):
        market = random_tied_market(rng, sizes)
        try:
            _check_endpoints(market)
        except Exception as bad:  # an assertion or an error of the solver
            failures.append((k, type(bad).__name__, str(bad).partition("\n")[0]))
    assert not failures, f"{len(failures)} of {count} failed: {failures}"


@pytest.mark.slow
def test_tied_market_sweep():
    _sweep(2027, 3000)


@pytest.mark.slow
def test_larger_tied_market_sweep():
    # n and m in 5..12: blocks of many goods, many splits per balanced flow
    # and many new-edge regions, a gate for rewrites of the water filling
    _sweep(2029, 3000, sizes=(5, 12))
