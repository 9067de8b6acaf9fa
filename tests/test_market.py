import math
from fractions import Fraction as F
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisheq import (
    INF,
    InvalidMarketError,
    Market,
    capped_utility,
    normalize,
    strip_trivial,
    verify_allocation,
)
from fisheq.market import active_budget_at, buyer_pass, equality_graph
from oracle import reference_equality_graph


def _alpha(market, prices, buyer):
    """The buyer's bang-per-buck ratio, as ``buyer_pass`` gives it."""
    return buyer_pass(market, prices, buyer)[0]


def _active_budget(market, prices, buyer):
    """The buyer's active budget and capped flag at its ratio under ``prices``."""
    return active_budget_at(market, buyer, _alpha(market, prices, buyer))


def _graph(market, prices):
    """The equality edges at ``prices``."""
    return equality_graph(market, prices)[1]


class TestNormalize:
    def test_integral_market_unchanged(self, capped_market):
        nm = normalize(capped_market)
        assert nm.budgets == capped_market.budgets
        assert nm.caps == capped_market.caps
        assert nm.utilities == capped_market.utilities
        assert nm.budget_scale == 1
        assert nm.U == 5

    def test_budget_common_denominator(self):
        m = Market((F(3, 2), F(1, 2)), (None, None), ((F(1),), (F(1),)))
        nm = normalize(m)
        assert nm.budgets == (F(3), F(1))
        assert nm.budget_scale == 2

    def test_per_buyer_scaling(self):
        # buyer 0's row and cap scale by lcm(2, 2, 3) = 6, buyer 1's by 1
        m = Market(
            (F(3), F(1)),
            (F(1, 3), None),
            ((F(5, 2), F(1, 2)), (F(2), F(1))),
        )
        nm = normalize(m)
        assert nm.utilities == ((15, 3), (2, 1))
        assert nm.caps == (2, None)
        assert nm.budgets == (3, 1)

    @pytest.mark.parametrize(
        "budgets,caps,utils",
        [
            ((F(0),), (None,), ((F(1),),)),
            ((F(1),), (F(0),), ((F(1),),)),
            ((F(1),), (None,), ((F(-1),),)),
        ],
    )
    def test_bad_entries_rejected(self, budgets, caps, utils):
        with pytest.raises(InvalidMarketError):
            Market(budgets, caps, utils)

    # A float is already rounded (0.1 would be the budget
    # 3602879701896397/36028797018963968) and a bool is not a quantity.
    @pytest.mark.parametrize("value", [0.1, True])
    def test_float_or_bool_budget_rejected(self, value):
        with pytest.raises(InvalidMarketError, match="budget"):
            Market((value,), (None,), ((F(1), F(3, 10)),))

    @pytest.mark.parametrize("value", [2.5, True])
    def test_float_or_bool_cap_rejected(self, value):
        with pytest.raises(InvalidMarketError, match="cap"):
            Market((F(1, 10),), (value,), ((F(1), F(3, 10)),))

    @pytest.mark.parametrize("value", [0.3, True])
    def test_float_or_bool_utility_rejected(self, value):
        with pytest.raises(InvalidMarketError, match="utility"):
            Market((F(1, 10),), (None,), ((F(1), value),))


class TestMbbRatio:
    def test_linear_equilibrium_prices(self, capped_market):
        assert _alpha(capped_market, (F(3), F(1)), 0) == F(5, 3)

    def test_zero_row_is_zero(self):
        m = Market((F(1), F(1)), (None, None), ((F(0), F(0)), (F(1), F(1))))
        assert _alpha(m, (F(1), F(1)), 0) == 0

    def test_uniform_prices(self, capped_market):
        assert _alpha(capped_market, (F(4), F(4)), 0) == F(5, 4)

    def test_zero_price_positive_utility_is_infinite(self, capped_market):
        assert _alpha(capped_market, (F(0), F(1)), 0) is INF


class TestBuyerPass:
    def test_ratio_spend_and_value_of_a_bundle(self, capped_market):
        bundle = (F(1, 5), F(0))
        prices = (F(10, 13), F(5, 13))
        expected = (F(13, 2), F(13, 2), F(0), F(2, 13), F(1), [0])
        assert buyer_pass(capped_market, prices, 0, bundle) == expected

    def test_free_good_makes_alpha_infinite_but_not_finite_alpha(self, capped_market):
        alpha, finite_alpha, free, spend, value, goods = buyer_pass(
            capped_market, (F(0), F(1)), 0
        )
        assert (alpha, finite_alpha, free, spend, value) == (INF, F(1), F(5), F(0), F(0))
        assert goods == [0]  # the valued zero-priced goods, not good 1

    def test_negative_price_never_attains_the_ratio(self, capped_market):
        assert buyer_pass(capped_market, (F(-1), F(2)), 0)[:2] == (F(1, 2), F(1, 2))

    def test_a_larger_ratio_restarts_the_goods_and_a_tie_joins_them(self):
        m = Market((F(1),), (None,), ((F(1), F(3), F(0), F(6), F(2)),))
        assert buyer_pass(m, (F(1), F(1), F(1), F(2), F(1)), 0)[5] == [1, 3]
        assert buyer_pass(m, (F(0), F(1), F(0), F(2), F(0)), 0)[5] == [0, 4]
        assert buyer_pass(m, (F(-1),) * 5, 0)[::5] == (F(0), [])


class TestActiveBudget:
    def test_from_a_given_ratio(self, capped_market):
        assert active_budget_at(capped_market, 0, F(5, 4)) == (F(4, 5), True)
        assert active_budget_at(capped_market, 0, F(0)) == (F(0), False)

    def test_capped_at_initial_prices(self, capped_market):
        assert _active_budget(capped_market, (F(4), F(4)), 0) == (F(4, 5), True)

    def test_unbounded_cap_never_binds(self, capped_market):
        assert _active_budget(capped_market, (F(4), F(4)), 1) == (F(1), False)

    def test_boundary_counts_as_capped(self):
        m = Market((F(1),), (F(1),), ((F(1), F(1)),))
        assert _active_budget(m, (F(1), F(1)), 0) == (F(1), True)

    def test_valueless_buyer_gets_nothing(self):
        m = Market((F(1),), (None,), ((F(0),),))
        assert _active_budget(m, (F(1),), 0) == (F(0), False)

    def test_uncapped_buyer_at_free_good_keeps_budget(self, capped_market):
        assert _active_budget(capped_market, (F(0), F(1)), 1) == (F(1), False)

    def test_capped_buyer_at_free_good_spends_nothing(self, capped_market):
        assert _active_budget(capped_market, (F(0), F(1)), 0) == (F(0), True)


class TestCappedUtility:
    def test_bundle_value_is_linear(self, capped_market):
        value = buyer_pass(capped_market, (F(4), F(4)), 0, (F(1, 5), F(1, 2)))[4]
        assert value == F(3, 2)

    def test_cap_binds_above(self, capped_market):
        assert capped_utility(capped_market, 0, F(3, 2)) == F(1)

    def test_below_cap_unchanged(self, capped_market):
        assert capped_utility(capped_market, 0, F(1, 2)) == F(1, 2)

    def test_unbounded_cap_never_binds(self, capped_market):
        assert capped_utility(capped_market, 1, F(10**9)) == F(10**9)


class TestEqualityGraph:
    def test_example_market_initial_prices(self, capped_market):
        assert _graph(capped_market, (F(4), F(4))) == {(0, 0), (1, 0)}

    def test_single_pair(self):
        m = Market((F(1),), (None,), ((F(2),),))
        assert _graph(m, (F(1),)) == {(0, 0)}

    def test_overlap_market_ties(self, overlap_market):
        assert _graph(overlap_market, (F(2), F(2))) == {
            (0, 0),
            (0, 1),
            (1, 1),
        }

    def test_zero_price_goods_take_over(self, overlap_market):
        # Buyer 0 values good 0 at price 0: its only equality edges are
        # the free goods it values.
        assert _graph(overlap_market, (F(0), F(1))) == {(0, 0), (1, 1)}

    def test_invariant_under_per_buyer_scaling(self, capped_market):
        prices = (F(3), F(1))
        scaled = Market(
            capped_market.budgets,
            (capped_market.caps[0] * 7, None),
            (
                tuple(u * 7 for u in capped_market.utilities[0]),
                capped_market.utilities[1],
            ),
        )
        assert _graph(capped_market, prices) == _graph(scaled, prices)

    def test_invariant_under_common_budget_price_scaling(self, capped_market):
        prices = (F(3), F(1))
        scaled_market = Market(
            tuple(b * 11 for b in capped_market.budgets),
            capped_market.caps,
            capped_market.utilities,
        )
        scaled_prices = tuple(p * 11 for p in prices)
        assert _graph(capped_market, prices) == _graph(
            scaled_market, scaled_prices
        )


class TestStripTrivial:
    def test_strips_valueless_buyers_and_unvalued_goods(self):
        m = Market(
            (F(1), F(2)),
            (None, None),
            ((F(0), F(0), F(0)), (F(1), F(0), F(2))),
        )
        reduced, buyers, goods = strip_trivial(normalize(m))
        assert buyers == (1,)
        assert goods == (0, 2)
        assert reduced.utilities == ((1, 2),)

    def test_empty_after_preprocessing(self):
        m = Market((F(1),), (None,), ((F(0),),))
        with pytest.raises(InvalidMarketError):
            strip_trivial(normalize(m))


def _entries(market):
    """Every budget, cap and utility of a market."""
    caps = (c for c in market.caps if c is not None)
    return [*market.budgets, *caps, *chain.from_iterable(market.utilities)]


_positive = st.fractions(min_value=F(1, 12), max_value=20, max_denominator=12)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_normalize_scales_to_ints_by_the_lcm_of_the_denominators(data):
    n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    entries = st.just(F(0)) | _positive
    market = Market(
        tuple(data.draw(st.lists(_positive, min_size=n, max_size=n))),
        tuple(data.draw(st.lists(st.none() | _positive, min_size=n, max_size=n))),
        tuple(
            tuple(data.draw(st.lists(entries, min_size=m, max_size=m))) for _ in range(n)
        ),
    )
    nm = normalize(market)
    assert all(type(v) is int for v in _entries(nm))
    scale = math.lcm(*(b.denominator for b in market.budgets))
    assert type(nm.budget_scale) is int and nm.budget_scale == scale
    assert nm.budgets == tuple(b * scale for b in market.budgets)
    for cap, row, n_cap, n_row in zip(market.caps, market.utilities, nm.caps, nm.utilities):
        dens = [u.denominator for u in row] + ([] if cap is None else [cap.denominator])
        s = math.lcm(*dens)
        assert n_row == tuple(u * s for u in row)
        assert n_cap == (None if cap is None else cap * s)
    assert nm.U == max(_entries(nm))
    if any(map(any, market.utilities)):
        stripped, _, _ = strip_trivial(nm)
        assert all(type(v) is int for v in _entries(stripped))
        assert stripped.budget_scale == scale


@settings(max_examples=60, deadline=None)
@given(
    money=st.integers(1, 20),
    cap=st.integers(1, 20),
    utils=st.lists(st.integers(0, 9), min_size=2, max_size=5).filter(any),
    scale_num=st.integers(1, 40),
)
def test_capped_status_monotone_under_price_decrease(money, cap, utils, scale_num):
    """Scaling all prices down by x < 1 can only turn the cap on, never off."""
    m = Market((F(money),), (F(cap),), (tuple(F(u) for u in utils),))
    base = tuple(F(u + 1) for u in range(len(utils)))
    x = F(scale_num, 40)
    _, capped_full = _active_budget(m, base, 0)
    _, capped_scaled = _active_budget(m, tuple(x * p for p in base), 0)
    if capped_full:
        assert capped_scaled


_BIG = 10**60


@st.composite
def priced_markets(draw):
    """A market of n, m <= 4 with prices and an allocation.  Prices are
    negative, zero or positive, some of them 10**60-sized; a buyer's row is
    zero, or mixes small utilities with exact ties u_ij = c_i |p_j| and near
    ties c_i |p_j| (1 +- 10**-60) against its own 10**60-sized scale c_i."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    price = st.one_of(
        st.integers(-2, 4).map(F),
        st.fractions(min_value=-2, max_value=4, max_denominator=6),
        st.integers(1, 9).map(lambda k: F(_BIG + k, _BIG - k)),
        st.integers(1, 9).map(lambda k: F(k * _BIG + 1, 3)),
    )
    prices = tuple(draw(st.lists(price, min_size=m, max_size=m)))
    kinds = st.sampled_from(["zero", "small", "tie", "tie", "above", "below"])
    rows = []
    for _ in range(n):
        if draw(st.integers(0, 4)) == 0:
            rows.append((F(0),) * m)
            continue
        c = F(draw(st.integers(1, _BIG)), draw(st.integers(1, _BIG)))
        row = []
        for p in prices:
            kind = draw(kinds)
            tie = c * abs(p) if p else c
            if kind == "zero":
                row.append(F(0))
            elif kind == "small":
                row.append(F(draw(st.integers(0, 6))))
            elif kind == "tie":
                row.append(tie)
            else:
                row.append(tie * (1 + F(1 if kind == "above" else -1, _BIG)))
        rows.append(tuple(row))
    market = Market((F(1),) * n, (None,) * n, tuple(rows))
    share = st.sampled_from([F(0), F(1, 3), F(1)])
    alloc = tuple(tuple(draw(st.lists(share, min_size=m, max_size=m))) for _ in range(n))
    return market, prices, alloc


@settings(derandomize=True, max_examples=400, deadline=None)
@given(priced_markets())
def test_equality_graph_matches_the_reference_rule(case):
    # The goods each buyer's pass collects as it finds alpha are exactly the
    # pairs u_ij == alpha_i p_j that the Fraction rule finds, and the
    # verifier's pass gives the same graph.
    market, prices, alloc = case
    graph = equality_graph(market, prices)
    assert graph == reference_equality_graph(market, prices)
    assert verify_allocation(market, prices, alloc)[2] == graph
