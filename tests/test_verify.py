import copy
import pickle
import random
import sys
from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisheq import (
    Equilibrium,
    Market,
    VerificationReport,
    equilibrium_from_allocation,
    join,
    meet,
    min_revenue,
    partition,
    solve_max_revenue,
    verify,
    verify_allocation,
)
from fisheq.cli import generate_market
from fisheq.serialize import equilibrium_from_doc, equilibrium_to_doc
from oracle import reference_equilibrium_from_allocation, reference_verify
from test_acceptance import corpus_markets
from test_properties import SETTINGS, tied_markets
from test_records import replaced


def _flags(report):
    return (report.is_equilibrium, report.is_modest, report.is_mbb, report.kkt_ok)


def test_example_solution_passes(capped_market):
    eq = equilibrium_from_allocation(
        capped_market,
        (F(10, 13), F(5, 13)),
        ((F(1, 5), F(0)), (F(4, 5), F(1))),
    )
    report = verify(capped_market, eq)
    assert report.ok
    assert report.violations == []
    assert eq.capped == (True, False)
    assert eq.utilities == (F(1), F(13, 5))


def test_overallocation_flagged(capped_market):
    eq = equilibrium_from_allocation(
        capped_market,
        (F(10, 13), F(5, 13)),
        ((F(1), F(0)), (F(4, 5), F(1))),
    )
    report = verify(capped_market, eq)
    assert not report.is_equilibrium
    assert any(v[0] == "overallocation" for v in report.violations)


def test_linear_allocation_on_capped_market_is_immodest(capped_market):
    # The linear-market equilibrium is still a market equilibrium here, but
    # buyer 0 overshoots its cap (utility 5 > 1) and spends non-thriftily.
    eq = equilibrium_from_allocation(
        capped_market,
        (F(3), F(1)),
        ((F(1), F(0)), (F(0), F(1))),
    )
    report = verify(capped_market, eq)
    assert not report.is_modest
    assert any(v[0] == "modest" for v in report.violations)
    assert report.is_equilibrium  # demand bundles, Walras, budgets all hold


def test_walras_violation(capped_market):
    eq = equilibrium_from_allocation(
        capped_market,
        (F(3), F(1)),
        ((F(1, 2), F(0)), (F(0), F(1))),
    )
    report = verify(capped_market, eq)
    assert any(v[0] == "walras" for v in report.violations)


def test_flags_true_iff_no_violations(capped_market, linear_market):
    good = equilibrium_from_allocation(
        linear_market, (F(3), F(1)), ((F(1), F(0)), (F(0), F(1)))
    )
    report = verify(linear_market, good)
    assert report.ok and report.violations == []

    bad = equilibrium_from_allocation(
        linear_market, (F(3), F(1)), ((F(1), F(1)), (F(0), F(0)))
    )
    report = verify(linear_market, bad)
    assert not report.ok and report.violations


def test_dimension_mismatch_raises(capped_market):
    with pytest.raises(ValueError):
        equilibrium_from_allocation(capped_market, (F(1),), ((F(0), F(0)),) * 2)


def test_zero_price_equilibrium_with_free_goods(overlap_market):
    # Minimum-revenue shape: buyer 0 takes good 0 for free and is capped.
    eq = equilibrium_from_allocation(
        overlap_market, (F(0), F(1)), ((F(1), F(0)), (F(0), F(1)))
    )
    report = verify(overlap_market, eq)
    assert report.ok
    assert eq.capped == (True, False)
    assert eq.active_budgets[0] == 0


# What ``failing_on_call`` reports; callers match its first violation.
INJECTED = [("walras", 0, "1/2", "0"), ("demand", 1, "2", "3")]
# The module whose ``verify_allocation`` the admission and certificate
# helpers call (the package attribute ``fisheq.verify`` is the function).
VERIFY = sys.modules["fisheq.verify"]


def failing_on_call(real, failing_call):
    """``real``, a ``verify_allocation``, except that its call number
    ``failing_call`` reports the violations ``INJECTED``."""
    calls = []

    def wrapped(*args):
        calls.append(None)
        report, checked, graph = real(*args)
        if len(calls) == failing_call:
            report = VerificationReport(is_equilibrium=False, violations=list(INJECTED))
        return report, checked, graph

    return wrapped


def _assert_matches_reference(market, prices, allocation):
    """The builder and the verifier agree with the rule-at-a-time copies."""
    built = equilibrium_from_allocation(market, prices, allocation)
    assert built == reference_equilibrium_from_allocation(market, prices, allocation)
    report = verify(market, built)
    assert report == reference_verify(market, built)
    return report


_NEGATIVE = (F(-3), F(-1), F(-1, 2), F(-1, 4))
_POSITIVE = (F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1), F(3, 2), F(2), F(3), F(4))
# Pairwise coprime denominators, so the verifier's integer sums take the
# lcm step, and entries around 2^200, past ``ratio_sign``'s word size.
_COPRIME = (F(2, 5), F(3, 7), F(5, 11), F(12, 13), F(-4, 7), F(-1, 11))
_HUGE = (
    F(2**200 - 1, 2**200 + 1),
    F(2**200 + 1, 2**201 - 1),
    F(2**200 + 7, 5 * 2**199),
    F(-(2**200) - 3, 2**200 + 1),
)


@st.composite
def priced_bundles(draw):
    """A market with n, m <= 4, with or without caps, and a price vector
    and allocation whose entries may be negative, zero or positive (for
    the allocation: in (0, 1] or above 1), with denominators 5, 7, 11 and
    13 among small ones and a few entries around 2^200."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    positive = st.sampled_from(_POSITIVE)
    budgets = [draw(positive) for _ in range(n)]
    caps = [draw(st.none() | positive) for _ in range(n)]
    rows = [[draw(st.integers(0, 4)) for _ in range(m)] for _ in range(n)]
    price = positive | st.just(F(0)) | st.sampled_from(_NEGATIVE + _COPRIME + _HUGE)
    share = st.just(F(0)) | st.sampled_from(_NEGATIVE + _POSITIVE + _COPRIME + _HUGE)
    prices = [draw(price) for _ in range(m)]
    allocation = [[draw(share) for _ in range(m)] for _ in range(n)]
    market = Market(tuple(budgets), tuple(caps), tuple(map(tuple, rows)))
    return market, tuple(prices), tuple(map(tuple, allocation))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(priced_bundles())
def test_matches_reference_on_random_inputs(case):
    _assert_matches_reference(*case)


def _mutants(equilibrium, rng):
    """The equilibrium itself, then one good's price scaled, zeroed and
    negated, and one held share raised and moved to another good."""
    prices, alloc = list(equilibrium.prices), [list(row) for row in equilibrium.allocation]
    yield prices, alloc
    j = rng.randrange(len(prices))
    for factor in (F(3, 2), F(0), F(-1)):
        yield prices[:j] + [prices[j] * factor] + prices[j + 1 :], alloc
    held = [(i, j) for i, row in enumerate(alloc) for j, x in enumerate(row) if x]
    if held:
        i, j = rng.choice(held)
        raised = [list(row) for row in alloc]
        raised[i][j] += F(1, 2)
        yield prices, raised
        moved = [list(row) for row in alloc]
        k = (j + 1) % len(prices)
        moved[i][k] += moved[i][j]
        moved[i][j] = F(0)
        yield prices, moved


def test_matches_reference_on_mutated_corpus_endpoints():
    rng = random.Random(8)
    flagged = checked = 0
    for market in islice(corpus_markets(), 100):
        high = solve_max_revenue(market).equilibrium
        for endpoint in (high, min_revenue(market, high)):
            for prices, alloc in _mutants(endpoint, rng):
                report = _assert_matches_reference(market, prices, alloc)
                checked += 1
                flagged += not report.ok
    assert 0 < flagged < checked


def test_matches_reference_on_mutated_bigint_endpoints():
    # Two markets of the benchmark's bigint pool: prices of about 2,000
    # bits, whose shares and spends have unequal, coprime-heavy
    # denominators.
    rng = random.Random(8)
    flagged = checked = 0
    for k in (0, 1):
        market = generate_market(10, 10, 10**60, k)
        high = solve_max_revenue(market).equilibrium
        for endpoint in (high, min_revenue(market, high)):
            for prices, alloc in _mutants(endpoint, rng):
                report = _assert_matches_reference(market, prices, alloc)
                checked += 1
                flagged += not report.ok
    assert 0 < flagged < checked


# A passed walk leaves its verdict on the record it built, for the market
# object it walked; ``min_revenue`` and the lattice take it instead of
# walking again.  Any other use walks.

_CONSUMERS = (
    (min_revenue, 1),
    (meet, 2),
    (join, 2),
    (partition, 2),
)


def _consume(call, arity, market, record):
    return call(market, *(record,) * arity)


def test_an_equal_but_distinct_market_is_walked(capped_market, walks):
    top = solve_max_revenue(capped_market).equilibrium
    twin = replaced(capped_market)
    assert twin == capped_market and twin is not capped_market
    for call, arity in _CONSUMERS:
        walks.clear()
        same = _consume(call, arity, capped_market, top)
        assert walks == []
        assert _consume(call, arity, twin, top) == same
        assert len(walks) == 1 and walks[0] is twin


def test_a_verdict_for_another_market_does_not_pass(capped_market, linear_market, walks):
    # The capped market's top is no equilibrium of the linear one: the
    # stamped record raises what a copy without a verdict raises.
    top = solve_max_revenue(capped_market).equilibrium
    assert not verify(linear_market, top).ok
    for call, arity in _CONSUMERS:
        messages = []
        for record in (top, replaced(top)):
            walks.clear()
            with pytest.raises(ValueError, match="^(input|first equilibrium) is not") as raised:
                _consume(call, arity, linear_market, record)
            assert len(walks) == 1 and walks[0] is linear_market
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


def test_a_failed_walk_leaves_no_verdict(capped_market, walks):
    report, bogus, _ = verify_allocation(
        capped_market, (F(3), F(1)), ((F(1), F(0)), (F(0), F(1)))
    )
    assert not report.ok
    assert set(vars(bogus)) == set(Equilibrium._fields)
    for call, arity in _CONSUMERS:
        walks.clear()
        with pytest.raises(ValueError, match="^(input|first equilibrium) is not"):
            _consume(call, arity, capped_market, bogus)
        assert len(walks) == 1


def test_verify_and_a_parsed_document_always_walk(capped_market, walks):
    top = solve_max_revenue(capped_market).equilibrium
    walks.clear()
    assert verify(capped_market, top).ok
    assert len(walks) == 1
    assert equilibrium_from_doc(equilibrium_to_doc(top), capped_market) == top
    assert len(walks) == 2
    # ``verify`` reads the fields, never the verdict: a forged price on a
    # copy that keeps the verdict is still caught.
    forged = copy.copy(top)
    forged.__dict__["prices"] = (F(3), F(1))
    walks.clear()
    assert not verify(capped_market, forged).ok
    assert len(walks) == 1


def test_the_verdict_leaves_equality_hash_and_repr_alone(capped_market, walks):
    top = solve_max_revenue(capped_market).equilibrium
    bare = replaced(top)
    assert top == bare and hash(top) == hash(bare) and repr(top) == repr(bare)
    assert set(vars(top)) > set(vars(bare)) == set(Equilibrium._fields)

    # a shallow copy keeps the verdict, and its market
    walks.clear()
    assert min_revenue(capped_market, copy.copy(top)) == top
    assert walks == []

    # a pickle round trip keeps it too, for the market pickled with it
    market, back = pickle.loads(pickle.dumps((capped_market, top)))
    assert (market, back) == (capped_market, top) and market is not capped_market
    assert min_revenue(market, back) == top
    assert walks == []
    assert min_revenue(capped_market, back) == top
    assert len(walks) == 1


def _assert_verdicts_change_nothing(market):
    """``min_revenue``, ``meet`` and ``join`` give the same record, field
    for field, on the endpoints (which carry verdicts) and on copies built
    without one."""
    high = solve_max_revenue(market).equilibrium
    low = min_revenue(market, high)
    bare = {id(high): replaced(high), id(low): replaced(low)}
    for record in (high, low):
        result, again = min_revenue(market, record), min_revenue(market, bare[id(record)])
        assert result == again and repr(result) == repr(again)
        for other in (high, low):
            for call in (meet, join):
                result = call(market, record, other)
                again = call(market, bare[id(record)], bare[id(other)])
                assert result == again and repr(result) == repr(again)


@SETTINGS
@given(tied_markets())
def test_verdicts_change_no_result_on_tied_markets(market):
    _assert_verdicts_change_nothing(market)


def test_verdicts_change_no_result_on_the_corpus():
    for market in corpus_markets():
        _assert_verdicts_change_nothing(market)
