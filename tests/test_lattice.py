import re
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

import fisheq.lattice
from fisheq import (
    InvariantError,
    Market,
    VerificationReport,
    equilibrium_from_allocation,
    join,
    meet,
    min_revenue,
    partition,
    solve_max_revenue,
    verify,
)
from oracle import reference_join, reference_meet, reference_min_revenue, reference_partition
from test_properties import SETTINGS, markets
from test_records import replaced
from test_verify import INJECTED, _mutants, failing_on_call


def _twin_eq(market, price):
    half = ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
    return equilibrium_from_allocation(market, (F(price), F(price)), half)


def test_identical_pair_partitions_to_equal(capped_market):
    eq = solve_max_revenue(capped_market).equilibrium
    split = partition(capped_market, eq, eq)
    assert split.equal == (0, 1)
    assert split.below == () and split.above == ()


def test_overlap_market_partition(overlap_market):
    top = solve_max_revenue(overlap_market).equilibrium
    low = min_revenue(overlap_market, top)
    split = partition(overlap_market, top, low)
    assert split.above == (0,)  # p = 1 vs 0
    assert split.equal == (1,)
    assert split.buyers_above == {0}
    assert top.capped[0] and low.capped[0]


def test_twin_market_partition(twin_market):
    split = partition(twin_market, _twin_eq(twin_market, 5), _twin_eq(twin_market, 2))
    assert split.above == (0, 1)
    assert split.buyers_above == {0, 1}


def test_join_meet_idempotent(capped_market):
    eq = solve_max_revenue(capped_market).equilibrium
    assert join(capped_market, eq, eq) == eq
    assert meet(capped_market, eq, eq) == eq


def test_overlap_market_join_meet(overlap_market):
    top = solve_max_revenue(overlap_market).equilibrium
    low = min_revenue(overlap_market, top)
    assert join(overlap_market, low, top).prices == (F(1), F(1))
    assert meet(overlap_market, low, top).prices == (F(0), F(1))


def test_twin_market_meet_is_componentwise_min(twin_market):
    a, b = _twin_eq(twin_market, 5), _twin_eq(twin_market, 2)
    assert meet(twin_market, a, b).prices == (F(2), F(2))
    assert join(twin_market, a, b).prices == (F(5), F(5))


@pytest.fixture
def split_market():
    """Two disjoint capped buyer-good pairs: prices move independently, so
    equilibria are non-comparable in general."""
    return Market(
        (F(5), F(5)),
        (F(1), F(1)),
        ((F(1), F(0)), (F(0), F(1))),
    )


def _split_eq(market, p0, p1):
    alloc = ((F(1), F(0)), (F(0), F(1)))
    return equilibrium_from_allocation(market, (F(p0), F(p1)), alloc)


def test_lattice_laws_on_non_comparable_equilibria(split_market):
    a = _split_eq(split_market, 5, 0)
    b = _split_eq(split_market, 0, 5)
    c = _split_eq(split_market, 2, 2)
    assert join(split_market, a, b).prices == (F(5), F(5))
    assert meet(split_market, a, b).prices == (F(0), F(0))
    # commutativity
    assert join(split_market, a, b) == join(split_market, b, a)
    assert meet(split_market, a, c) == meet(split_market, c, a)
    # associativity on prices
    assert (
        join(split_market, a, join(split_market, b, c)).prices
        == join(split_market, join(split_market, a, b), c).prices
    )
    assert (
        meet(split_market, a, meet(split_market, b, c)).prices
        == meet(split_market, meet(split_market, a, b), c).prices
    )
    # absorption
    assert join(split_market, a, meet(split_market, a, b)).prices == a.prices
    assert meet(split_market, a, join(split_market, a, b)).prices == a.prices


def test_rejects_unverified_inputs(capped_market):
    eq = solve_max_revenue(capped_market).equilibrium
    bogus = equilibrium_from_allocation(
        capped_market, (F(3), F(1)), ((F(1), F(0)), (F(0), F(1)))
    )
    with pytest.raises(ValueError):
        partition(capped_market, eq, bogus)


def test_max_revenue_is_top_element(capped_market, overlap_market, twin_market):
    for market in (capped_market, overlap_market, twin_market):
        top = solve_max_revenue(market).equilibrium
        low = min_revenue(market, top)
        assert meet(market, top, low).prices == low.prices
        assert join(market, top, low).prices == top.prices


def _outcome(call, *args):
    """The call's result, or the type and message of what it raised."""
    try:
        return call(*args)
    except Exception as error:
        return type(error), str(error)


_PAIRWISE = ((partition, reference_partition), (meet, reference_meet), (join, reference_join))


def _assert_matches_reference(market, equilibria):
    for first in equilibria:
        assert _outcome(min_revenue, market, first) == _outcome(
            reference_min_revenue, market, first
        )
        for second in equilibria:
            for call, reference in _PAIRWISE:
                assert _outcome(call, market, first, second) == _outcome(
                    reference, market, first, second
                )


@SETTINGS
@given(markets(), st.randoms(use_true_random=False))
def test_matches_reference_on_endpoints_and_mutants(market, rng):
    high = solve_max_revenue(market).equilibrium
    low = min_revenue(market, high)
    mutants = [
        equilibrium_from_allocation(market, prices, alloc)
        for endpoint in (high, low)
        for prices, alloc in _mutants(endpoint, rng)
    ]
    # every ordered pair, self-pairs included, of the endpoints, the top
    # with one price scaled, zeroed or negated, and the last three mutants
    # of the bottom (a held share raised and moved, when it holds any)
    _assert_matches_reference(market, [high, low, *mutants[1:4], *mutants[-3:]])


# ``split_market`` plus two identical uncapped buyers of two more goods:
# the first two prices move independently, and at the same prices the twins
# may hold their goods either way round.
SPLIT_TWIN_MARKET = Market(
    (F(5), F(5), F(1), F(1)),
    (F(1), F(1), None, None),
    (
        (F(1), F(0), F(0), F(0)),
        (F(0), F(1), F(0), F(0)),
        (F(0), F(0), F(1), F(1)),
        (F(0), F(0), F(1), F(1)),
    ),
)


def _split_twin_eq(p0, p1, swapped):
    twins = ((F(0), F(0), F(0), F(1)), (F(0), F(0), F(1), F(0)))
    capped = ((F(1), F(0), F(0), F(0)), (F(0), F(1), F(0), F(0)))
    alloc = (*capped, *(twins[::-1] if swapped else twins))
    return equilibrium_from_allocation(SPLIT_TWIN_MARKET, (F(p0), F(p1), F(1), F(1)), alloc)


@SETTINGS
@given(
    st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6), st.booleans()), min_size=1, max_size=3
    )
)
def test_matches_reference_on_non_comparable_pairs(points):
    # prices up to 5 are equilibria, 6 is not
    _assert_matches_reference(SPLIT_TWIN_MARKET, [_split_twin_eq(*point) for point in points])


def test_each_distinct_point_is_checked_once(
    buyer_passes, capped_market, overlap_market, split_market
):
    eq = solve_max_revenue(capped_market).equilibrium
    buyer_passes.clear()
    assert meet(capped_market, eq, eq) == eq
    assert len(buyer_passes) == capped_market.n

    # the endpoints differ in price; meet splices to the second, join to
    # the first
    top = solve_max_revenue(overlap_market).equilibrium
    low = min_revenue(overlap_market, top)
    assert top.prices != low.prices
    for call, expected in ((meet, low), (join, top)):
        buyer_passes.clear()
        assert call(overlap_market, top, low) == expected
        assert len(buyer_passes) == 2 * overlap_market.n

    a, b = _split_eq(split_market, 5, 0), _split_eq(split_market, 0, 5)
    buyer_passes.clear()
    assert meet(split_market, a, b).prices == (F(0), F(0))
    assert len(buyer_passes) == 3 * split_market.n

    # a new splice with the second's prices but not its allocation
    a, b = _split_twin_eq(5, 2, False), _split_twin_eq(2, 2, True)
    buyer_passes.clear()
    bottom = meet(SPLIT_TWIN_MARKET, a, b)
    assert bottom.prices == b.prices and bottom.allocation == a.allocation
    assert len(buyer_passes) == 3 * SPLIT_TWIN_MARKET.n


def test_spliced_equilibrium_guard_fires(split_market, monkeypatch):
    # Neither input is the splice, so its check is the third, after the
    # two inputs' (a failure there names the input instead).
    a, b = _split_eq(split_market, 5, 0), _split_eq(split_market, 0, 5)
    failing = failing_on_call(fisheq.lattice.verify_allocation, 3)
    monkeypatch.setattr(fisheq.lattice, "verify_allocation", failing)
    message = f"spliced equilibrium fails to verify: [{INJECTED[0]!r}"
    with pytest.raises(InvariantError, match=re.escape(message)):
        meet(split_market, a, b)


def test_bad_input_is_named_in_every_position(capped_market):
    eq = solve_max_revenue(capped_market).equilibrium
    bogus = equilibrium_from_allocation(
        capped_market, (F(3), F(1)), ((F(1), F(0)), (F(0), F(1)))
    )
    # same prices as ``eq``, another allocation
    moved = equilibrium_from_allocation(
        capped_market, eq.prices, ((F(0), F(1)), (F(1), F(0)))
    )
    assert not verify(capped_market, bogus).ok and not verify(capped_market, moved).ok
    for first, second in ((bogus, eq), (bogus, bogus), (moved, moved), (moved, eq)):
        with pytest.raises(ValueError, match="^first equilibrium"):
            partition(capped_market, first, second)
    for second in (bogus, moved):
        with pytest.raises(ValueError, match="^second equilibrium"):
            partition(capped_market, eq, second)


def _with_wrong_fields(market, eq):
    """Copies of ``eq`` whose stored utilities, capped flags or active
    budgets are wrong; verification reads none of them."""
    flipped = tuple(not c for c in eq.capped)
    return [
        replaced(eq, utilities=tuple(u + 1 for u in eq.utilities)),
        replaced(eq, capped=flipped),
        replaced(eq, capped=(False,) * market.n),
        replaced(eq, active_budgets=tuple(b + 1 for b in eq.active_budgets)),
    ]


def test_results_rebuild_their_fields_from_prices_and_allocation(
    capped_market, overlap_market, twin_market
):
    for market in (capped_market, overlap_market, twin_market):
        top = solve_max_revenue(market).equilibrium
        low = min_revenue(market, top)
        cases = [
            (min_revenue, (wrong,), low) for wrong in _with_wrong_fields(market, top)
        ]
        for wrong_top in _with_wrong_fields(market, top):
            for wrong_low in _with_wrong_fields(market, low):
                for pair in ((wrong_top, wrong_low), (wrong_low, wrong_top)):
                    cases += [(meet, pair, low), (join, pair, top)]
                cases += [(meet, (wrong_top, wrong_top), top), (join, (wrong_low, wrong_low), low)]
        for call, args, expected in cases:
            result = call(market, *args)
            assert result == expected
            assert result == equilibrium_from_allocation(
                market, result.prices, result.allocation
            )


def _passing(market, prices, allocation):
    """A ``verify_allocation`` that passes any input: the record is rebuilt
    from it and the report is empty."""
    return VerificationReport(), equilibrium_from_allocation(market, prices, allocation), None


# At prices (1, 1) and (1, 2) buyer 0 is capped (cap 1, budget 2) and buyer 1
# is uncapped.
PAIR_MARKET = Market((F(2), F(2)), (F(1), None), ((F(1), F(1)), (F(1), F(1))))


@pytest.mark.parametrize(
    "first, second, message",
    [
        # equal prices; the second moves buyer 1's good to buyer 0
        (
            ((1, 1), ((1, 0), (0, 1))),
            ((1, 1), ((1, 1), (0, 0))),
            "buyer sets for equal-priced goods differ: [0, 1] vs [0]",
        ),
        # good 0 equal, good 1 below; buyer 0 holds some of each
        (
            ((1, 1), ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))),
            ((1, 2), ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))),
            "buyer groups of the price partition overlap",
        ),
        # good 1 below, held by the uncapped buyer 1 alone
        (
            ((1, 1), ((1, 0), (0, 1))),
            ((1, 2), ((1, 0), (0, 1))),
            "buyer 1 moves prices while uncapped",
        ),
    ],
    ids=["sets-differ", "groups-overlap", "uncapped-buyer-moves"],
)
def test_partition_guard_fires(first, second, message, monkeypatch):
    # Inputs the check passes whatever they are: each breaks one rule of
    # the partition, and partition, meet and join all stop there.
    monkeypatch.setattr(fisheq.lattice, "verify_allocation", _passing)
    first, second = (equilibrium_from_allocation(PAIR_MARKET, *point) for point in (first, second))
    for call in (partition, meet, join):
        with pytest.raises(InvariantError, match=f"^{re.escape(message)}$"):
            call(PAIR_MARKET, first, second)
