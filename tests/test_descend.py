import hashlib
import itertools
import json
import random
import re
from fractions import Fraction as F

import pytest

import fisheq.descend
import fisheq.flow
from fisheq import (
    EventRecord,
    InvariantError,
    Market,
    min_revenue,
    normalize,
    strip_trivial,
    verify,
)
from fisheq.descend import (
    CAP,
    NEW_EDGE,
    PHASE_ENDS,
    TIGHT_SET,
    ZERO_PRICE,
    commit_event,
    initialize,
    next_event,
    solve_max_revenue,
    start_phase,
)
from fisheq.cli import generate_market, main
from fisheq.flow import FlowNetwork, _closure, balanced_flow, is_balanced, residual_reach
from fisheq.market import buyer_pass, capped_utility, equality_graph
from fisheq.serialize import market_to_doc, trace_to_ndjson
from hypothesis import given, settings
from oracle import (
    _reference_active_budget,
    _reference_mbb_ratio,
    edge_flow,
    edges_of,
    live_sets,
    reference_allocation,
    reference_equality_graph,
    reference_next_event,
)
from test_acceptance import corpus_markets
from test_properties import markets, tied_markets
from test_verify import INJECTED, failing_on_call


def _fresh_state(market):
    stripped, _, _ = strip_trivial(normalize(market))
    return initialize(stripped), stripped


def _network_at(state, budgets, prices):
    """The live network at the given capacities, built from scratch: the
    equality graph at ``prices``, restricted to the buyers and goods that
    no zero-price record deleted (``live_sets``), with capacity 0 for the
    deleted ones."""
    market = state.market
    live_buyers, live_goods = live_sets(state)
    edges = {
        (i, j)
        for i, j in reference_equality_graph(market, prices)[1]
        if i in live_buyers and j in live_goods
    }
    budgets = [budgets[i] if i in live_buyers else F(0) for i in range(market.n)]
    prices = [prices[j] if j in live_goods else F(0) for j in range(market.m)]
    return FlowNetwork.from_edges(tuple(budgets), tuple(prices), frozenset(edges))


def _reference_network(state):
    """The live network rebuilt from scratch at its own capacities."""
    return _network_at(state, state.network.budgets, state.network.prices)


def _assert_live(state):
    """The live network equals the one built from scratch: the same
    capacities and the same adjacency rows, in the same order."""
    assert state.network == _reference_network(state)


def _row_sum_utilities(state):
    """Each buyer's capped utility summed over its whole allocation row."""
    market, alloc = state.market, state.alloc
    return tuple(
        capped_utility(market, i, buyer_pass(market, state.network.prices, i, alloc[i])[4])
        for i in range(market.n)
    )


def _assert_booking_rule(state):
    """A live buyer spends all its money on equality edges, so its row
    utility is its capped alpha_i times its outflow, with alpha_i read off
    one of its edges."""
    market, rows = state.market, _row_sum_utilities(state)
    for i in live_sets(state)[0]:
        j = state.network.buyer_goods[i][0]
        alpha = market.utilities[i][j] / state.network.prices[j]
        assert rows[i] == capped_utility(market, i, alpha * state.flow.buyer_out(i))


def _checking_phase_starts(monkeypatch, check):
    """Make the solver call ``check(state)`` at every phase start."""

    def checked(state):
        started = start_phase(state)
        if started:
            check(state)
        return started

    monkeypatch.setattr(fisheq.descend, "start_phase", checked)


class TestInitialize:
    def test_example_market(self, capped_market):
        state, _ = _fresh_state(capped_market)
        assert state.network.prices == (F(4), F(4))
        assert state.network.budgets == (F(4, 5), F(1))
        assert state.capped == [True, False]

    def test_single_buyer(self):
        state, _ = _fresh_state(Market((F(1),), (None,), ((F(2),),)))
        assert state.network.prices == (F(1),)
        assert state.network.budgets == (F(1),)

    def test_overlap_market(self, overlap_market):
        state, _ = _fresh_state(overlap_market)
        assert state.network.prices == (F(2), F(2))
        assert state.network.budgets == (F(1), F(1))
        assert state.capped == [False, False]

    def test_one_buyer_pass_per_buyer(self, buyer_passes):
        market = generate_market(5, 4, 20, 3)
        stripped, _, _ = strip_trivial(normalize(market))
        buyer_passes.clear()
        initialize(stripped)
        assert buyer_passes == list(range(stripped.n))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(markets(max_buyers=5, max_goods=5))
def test_initialize_matches_the_reference_rules(market):
    # Budgets, capped flags and equality edges from one pass per buyer equal
    # the reference bang-per-buck and active-budget rules at the start prices.
    state, stripped = _fresh_state(market)
    prices = state.network.prices
    expected = [_reference_active_budget(stripped, prices, i) for i in range(stripped.n)]
    assert list(state.network.budgets) == [money for money, _ in expected]
    assert state.capped == [capped for _, capped in expected]
    edges = set()
    for i, row in enumerate(stripped.utilities):
        alpha = _reference_mbb_ratio(stripped, prices, i)
        edges.update((i, j) for j, u in enumerate(row) if u and u == alpha * prices[j])
    assert edges_of(state.network) == edges


class TestStartPhase:
    def test_example_first_phase(self, capped_market):
        state, _ = _fresh_state(capped_market)
        assert start_phase(state)
        assert state.flow.surpluses() == (F(11, 5), F(4))
        assert state.S == {1}

    def test_zero_surplus_terminates(self):
        state, _ = _fresh_state(Market((F(1),), (None,), ((F(2),),)))
        assert not start_phase(state)
        assert state.flow.surpluses() == (F(0),)

    def test_tie_breaks_to_lowest_index(self, overlap_market):
        state, _ = _fresh_state(overlap_market)
        assert start_phase(state)
        assert state.flow.surpluses() == (F(1), F(1))
        assert state.S == {0}


class TestNextEvent:
    def test_example_new_edge(self, capped_market):
        state, _ = _fresh_state(capped_market)
        start_phase(state)
        event = next_event(state)
        assert event.kind == NEW_EDGE
        assert event.x == F(1, 2)
        assert event.buyers == (1,)

    def test_tight_set_wins_tie_with_cap(self, overlap_market):
        state, _ = _fresh_state(overlap_market)
        start_phase(state)
        event = next_event(state)
        assert event.kind == TIGHT_SET
        assert event.x == F(1, 2)

    def test_isolated_capped_component_hits_zero_price(self):
        market = Market((F(5),), (F(1),), ((F(1), F(1)),))
        state, _ = _fresh_state(market)
        start_phase(state)
        event = next_event(state)
        assert event.kind == ZERO_PRICE
        assert event.x == 0
        assert event.goods == (0, 1)

    def test_more_money_than_prices_on_S_is_an_invariant_error(self):
        # the uncapped buyer's budget 1 spends on S = {0}, priced 1/2
        market = Market((F(1),), (None,), ((F(1), F(1)),))
        state, _ = _fresh_state(market)
        state.network = FlowNetwork.from_edges(
            state.network.budgets, (F(1, 2), F(1, 2)), edges_of(state.network)
        )
        state.S = {0}
        with pytest.raises(InvariantError, match="negative surplus"):
            next_event(state)


class TestCommitEvent:
    def test_example_new_edge_commit(self, capped_market):
        state, _ = _fresh_state(capped_market)
        start_phase(state)
        old_flow = edge_flow(state.flow)
        event = next_event(state)
        state.iteration = 1
        commit_event(state, event)
        assert state.network.prices == (F(4), F(2))
        assert edge_flow(state.flow) == old_flow  # balanced flow unchanged
        assert state.S == {0, 1}  # reach closure pulls good 0 in
        assert state.flow.surpluses() == (F(11, 5), F(2))

    def test_zero_price_commit_removes_component(self):
        market = Market((F(5),), (F(1),), ((F(1), F(1)),))
        state, _ = _fresh_state(market)
        start_phase(state)
        event = next_event(state)
        assert commit_event(state, event).kind in PHASE_ENDS
        assert state.network.prices == (F(0), F(0))
        assert state.network.budgets == (F(0),)
        assert state.alloc[0] == [F(1, 2), F(1, 2)]  # frozen allocation

    def test_final_tight_set_from_intermediate_state(self, capped_market):
        # An alternative two-phase route reaches p = (5/4, 5/8) with
        # buyer 0 capped at active budget 1/4; committing the tight set at
        # 8/13 lands on the same final prices.
        state, _ = _fresh_state(capped_market)
        start_phase(state)
        state.network = _network_at(state, (F(1, 4), F(1)), (F(5, 4), F(5, 8)))
        state.capped = [True, False]
        state.S = {0, 1}
        event = next_event(state)
        assert event.kind == TIGHT_SET and event.x == F(8, 13)
        commit_event(state, event)
        assert state.network.prices == (F(10, 13), F(5, 13))
        assert state.network.budgets == (F(2, 13), F(1))


class TestSolveMaxRevenue:
    def test_example_capped(self, capped_market):
        result = solve_max_revenue(capped_market)
        eq = result.equilibrium
        assert eq.prices == (F(10, 13), F(5, 13))
        assert eq.allocation == ((F(1, 5), F(0)), (F(4, 5), F(1)))
        assert eq.utilities == (F(1), F(13, 5))
        assert sum(p * x for p, x in zip(eq.prices, eq.allocation[0])) == F(2, 13)

    def test_example_linear(self, linear_market):
        eq = solve_max_revenue(linear_market).equilibrium
        assert eq.prices == (F(3), F(1))
        assert eq.allocation == ((F(1), F(0)), (F(0), F(1)))

    def test_overlap_market(self, overlap_market):
        eq = solve_max_revenue(overlap_market).equilibrium
        assert eq.prices == (F(1), F(1))
        assert eq.allocation == ((F(1), F(0)), (F(0), F(1)))

    def test_zero_price_deletion_market(self):
        market = Market((F(5),), (F(1),), ((F(1), F(1)),))
        result = solve_max_revenue(market)
        eq = result.equilibrium
        assert eq.prices == (F(0), F(0))
        assert eq.utilities == (F(1),)
        assert eq.capped == (True,)
        assert verify(market, eq).ok

    def test_stripped_entities_reembedded(self):
        market = Market(
            (F(3), F(1), F(2)),
            (F(1), None, None),
            ((F(5), F(1), F(0)), (F(2), F(1), F(0)), (F(0), F(0), F(0))),
        )
        eq = solve_max_revenue(market).equilibrium
        assert eq.prices[2] == 0  # unvalued good
        assert eq.utilities[2] == 0  # valueless buyer gets the empty bundle
        assert eq.prices[:2] == (F(10, 13), F(5, 13))
        assert verify(market, eq).ok

    def test_rational_inputs_descale(self, capped_market):
        scaled = Market(
            tuple(b / 7 for b in capped_market.budgets),
            (F(1, 3), None),
            (
                tuple(u / 3 for u in capped_market.utilities[0]),
                capped_market.utilities[1],
            ),
        )
        eq = solve_max_revenue(scaled).equilibrium
        # Same market up to budget scale 1/7 and a per-buyer utility scale:
        # prices divide by 7, the allocation is untouched.
        assert eq.prices == (F(10, 91), F(5, 91))
        assert eq.allocation == ((F(1, 5), F(0)), (F(4, 5), F(1)))
        assert verify(scaled, eq).ok

    def test_trace_records_committed_state(self, capped_market):
        result = solve_max_revenue(capped_market)
        kinds = [r.kind for r in result.trace]
        assert kinds == [NEW_EDGE, TIGHT_SET]
        assert result.trace[0].prices == (F(4), F(2))
        assert result.trace[1].prices == (F(10, 13), F(5, 13))
        assert result.trace[1].x == F(5, 26)

    def test_final_surplus_exactly_zero(self, capped_market):
        result = solve_max_revenue(capped_market)
        assert all(r == 0 for r in result.final_surpluses)


LIVE_MARKETS = [
    generate_market(3, 3, 20, 14),  # all four event kinds
    generate_market(3, 5, 20, 26),  # all four event kinds
    generate_market(2, 6, 20, 283),  # five zero-price events
    generate_market(6, 6, 20, 179),
    Market((F(5),), (F(1),), ((F(1), F(1)),)),  # one zero-price event
    generate_market(5, 7, 20, 1000189),  # cap at x = 1, B' has edges leaving S
    generate_market(4, 3, 20, 321),  # tight set at the new-edge scale
]


@pytest.mark.parametrize("market", LIVE_MARKETS)
def test_network_is_live_after_every_commit(market):
    state, _ = _fresh_state(market)
    _assert_live(state)
    while start_phase(state):
        _assert_live(state)
        _assert_booking_rule(state)
        kind = None
        while kind not in PHASE_ENDS:
            kind = commit_event(state, next_event(state)).kind
            _assert_live(state)


@pytest.mark.slow
def test_network_is_live_on_large_pools(monkeypatch):
    # The acceptance corpus, then 1,500 markets over every shape n, m <= 8.
    def checked(state, event):
        record = commit_event(state, event)
        _assert_live(state)
        return record

    monkeypatch.setattr(fisheq.descend, "commit_event", checked)
    small = (generate_market(1 + k % 8, 1 + k // 8 % 8, 20, 10**6 + k) for k in range(1500))
    for market in itertools.chain(corpus_markets(), small):
        assert verify(market, solve_max_revenue(market).equilibrium).ok


def test_one_equality_graph_per_solve(monkeypatch):
    calls = []

    def counted(market, prices):
        calls.append(prices)
        return equality_graph(market, prices)

    monkeypatch.setattr(fisheq.descend, "equality_graph", counted)
    result = solve_max_revenue(generate_market(4, 4, 20, 129))
    assert len(result.trace) > 1
    assert len(calls) == 1


@pytest.mark.parametrize(
    "n, m, seed",
    [
        (2, 4, 201013),
        (3, 6, 100305),
        (2, 5, 100027),
        (3, 2, 100134),
        (4, 6, 200703),
        (6, 6, 300082),
    ],
)
def test_new_edge_wins_tie_with_cap(n, m, seed):
    # A cap event and a new-edge event land on the same scale in these
    # markets; letting the cap win left an uncapped buyer of B' spending
    # outside S, and the next event scale came out above 1.
    market = generate_market(n, m, 20, seed)
    eq = solve_max_revenue(market).equilibrium
    assert verify(market, eq).ok
    assert verify(market, min_revenue(market, eq)).ok


def test_invariants_on_random_markets(monkeypatch):
    starts = []  # (row utilities, live buyers) at every phase start
    _checking_phase_starts(
        monkeypatch,
        lambda state: starts.append((_row_sum_utilities(state), live_sets(state)[0])),
    )
    rng = random.Random(42)
    for seed in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        market = generate_market(n, m, 15, 9_000 + seed)
        starts.clear()
        result = solve_max_revenue(market)
        assert verify(market, result.equilibrium).ok
        # prices and active budgets never increase across commits; the
        # capped set never shrinks
        stripped, _, _ = strip_trivial(normalize(market))
        prev_prices = [sum(stripped.budgets, F(0))] * stripped.m
        prev_budgets = None
        for record in result.trace:
            for old, new in zip(prev_prices, record.prices):
                assert new <= old
            if prev_budgets is not None:
                for old, new in zip(prev_budgets, record.active_budgets):
                    assert new <= old
            prev_prices = list(record.prices)
            prev_budgets = list(record.active_budgets)
        # row utilities never fall from one phase start to the next, and a
        # departed buyer's stays as it froze
        for (earlier, live), (later, _) in zip(starts, starts[1:]):
            for i, (a, b) in enumerate(zip(earlier, later)):
                assert b >= a
                if i not in live:
                    assert b == a


# sha256 of the exact (prices, allocation) of solve_max_revenue.  The
# digests predate the integer water-filling kernel, which reproduces them;
# a later change to the flow kernel that moves any allocation fails here.
PINNED_EQUILIBRIA = [
    (8, 8, 100, 0, "6facae55f5b67bfba686c163544f8b80555a072f7f579f9d73a5c4ea3c6a77a1"),
    (8, 8, 100, 1, "5603afb301a4909a1a8f0386b9d028a729da27c809efcecfbffd23b09423c97f"),
    (8, 8, 100, 2, "420dfe51f9410e5b1adbf992b81662671328ef61774e424fc17d92a6028ac140"),
    (8, 8, 100, 3, "dffeb827908a57fd5739654c7a40f463e52cac79e961270060473354697bd3f0"),
    (8, 8, 100, 4, "201fbb0d54212a047c491e3fb5a3537deb0687a0a5cde27e1dc505cd90b6e1ae"),
    (8, 8, 100, 5, "bf9f3de8f8a0b8515eccf858ff6ffb313485c3d71fbc35d20ee01fa0d3cfa3f6"),
    (8, 8, 100, 6, "d65e5800849de366241c9b0f8388c0877423fa10642b5dac2cb5964f52314f26"),
    (8, 8, 100, 7, "3db1c3b3176550295f99621a4586ca6e39f24b32e972861392a344e0cdd8939f"),
    (8, 8, 100, 8, "7760d6f58208d84acc62063690ff1b50b51cfc9cd95685a39b15927960c5582e"),
    (8, 8, 100, 9, "987dce914dc160e9ee3418fb3825b8cc6ce34d84fa5d0ac8796ca5af71f2efb2"),
    (6, 6, 10**60, 0, "f6a716349725c62abe1c56228858c2e8b56dd9426f0056a7cb45a4ec3a3f6d77"),
    (6, 6, 10**60, 1, "df6590d6ddfbd43e6d87c4a8ced947e969d09198e529e7ee29513be90a8351db"),
    (6, 6, 10**60, 2, "31ad1ff6bec40062c62f0bb4f70e6349e94f7fce3f2d4061cfc993b2c2715836"),
    (6, 6, 10**60, 3, "294d8ffc4b44e016d184d6ba34d6499323bc433fadae7ba1d8424b325e1be351"),
]


@pytest.mark.parametrize(
    "n, m, max_value, seed, digest",
    PINNED_EQUILIBRIA,
    ids=[f"{n}x{m}-U1e{len(str(u)) - 1}-{k}" for n, m, u, k, _ in PINNED_EQUILIBRIA],
)
def test_pinned_equilibria(n, m, max_value, seed, digest, monkeypatch):
    _checking_phase_starts(monkeypatch, _assert_booking_rule)
    eq = solve_max_revenue(generate_market(n, m, max_value, seed)).equilibrium
    text = repr(
        (
            tuple(str(p) for p in eq.prices),
            tuple(tuple(str(x) for x in row) for row in eq.allocation),
        )
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


PINNED_MARKETS = [generate_market(n, m, u, k) for n, m, u, k, _ in PINNED_EQUILIBRIA]


@pytest.mark.parametrize("every_commit", [True, False], ids=["every-commit", "solve-reads"])
@pytest.mark.parametrize("market", LIVE_MARKETS + PINNED_MARKETS)
def test_allocation_read_matches_the_eager_rule(market, every_commit, monkeypatch):
    # Built on read, the allocation must equal the eager rule (rewrite it at
    # every balanced flow).  every-commit drives the descent here and reads
    # it after every phase start and every commit; solve-reads lets
    # solve_max_revenue make its one read and embed it back into the
    # market's index space.  The rule sees every balanced flow: one per
    # phase start (the last one finds no surplus), one per zero-price commit
    # and one, kept outside the region around S, per new-edge commit.  The
    # market holds ints, and every trace record still holds Fraction
    # prices, active budgets and surpluses.
    stripped, kept_buyers, kept_goods = strip_trivial(normalize(market))
    reference = [[F(0)] * stripped.m for _ in range(stripped.n)]
    balanced, states, kinds = fisheq.descend.balanced_flow, [], []

    def initialized(*args):
        states.append(initialize(*args))
        return states[-1]

    def replayed(network, *kept):
        flow = balanced(network, *kept)
        reference_allocation(reference, states[-1], flow)
        kinds.append(NEW_EDGE if kept else None)
        return flow

    monkeypatch.setattr(fisheq.descend, "initialize", initialized)
    monkeypatch.setattr(fisheq.descend, "balanced_flow", replayed)
    if every_commit:
        state, trace = initialized(stripped), []
        phases = state.phases
        while start_phase(state):
            assert state.alloc == reference
            kind = None
            while kind not in PHASE_ENDS:
                trace.append(commit_event(state, next_event(state)))
                kind = trace[-1].kind
                assert state.alloc == reference
        assert state.alloc == reference
    else:
        result = solve_max_revenue(market)
        trace, phases = result.trace, result.phases
        expected = [[F(0)] * market.m for _ in range(market.n)]
        for i_s, i in enumerate(kept_buyers):
            for j_s, j in enumerate(kept_goods):
                expected[i][j] = reference[i_s][j_s]
        assert result.equilibrium.allocation == tuple(map(tuple, expected))
    committed = [r.kind for r in trace if r.kind in (NEW_EDGE, ZERO_PRICE)]
    assert len(kinds) == len(phases) + 1 + len(committed)
    assert kinds.count(NEW_EDGE) == committed.count(NEW_EDGE)
    for record in trace:
        values = record.prices + record.active_budgets + record.surpluses
        assert all(type(v) is F for v in values)


def _events_match_the_fraction_search(market):
    """Every event of the market's descent, each checked against the
    Fraction search: the same record, its new-edge pairs included."""
    state, _ = _fresh_state(market)
    events = []
    while start_phase(state):
        kind = None
        while kind not in PHASE_ENDS:
            expected = reference_next_event(state)
            event = next_event(state)
            assert event == expected
            events.append(event)
            kind = commit_event(state, event).kind
    return events


@settings(derandomize=True, max_examples=150, deadline=None)
@given(markets(max_buyers=5, max_goods=5))
def test_next_event_matches_the_fraction_search(market):
    _events_match_the_fraction_search(market)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tied_markets())
def test_tied_market_events_match_the_fraction_search(market):
    # In tie-heavy markets a cap and a new edge land on one scale in about
    # 1 market in 60; the record's kind and new edges must still follow
    # the search's tie order.
    _events_match_the_fraction_search(market)


@pytest.mark.parametrize(
    "market, x, kind",
    [
        # uncapped buyers 0 and 1 of B' cap at the same scale
        (Market((2, 4, 1), (1, 2, None), ((3, 0), (3, 2), (1, 3))), F(6, 7), CAP),
        # outside buyers 0 and 1 gain edges into S = {2} at the same x*
        (Market((1, 4), (None, None), ((3, 0, 1), (3, 2, 1))), F(1, 5), NEW_EDGE),
    ],
)
def test_tied_candidates_match_the_fraction_search(market, x, kind):
    events = _events_match_the_fraction_search(market)
    assert any(e.kind == kind and e.x == x and e.buyers == (0, 1) for e in events)


# The budgets and caps of the stitch sweep, with denominators 2, 3, 4, 6
# and 8: a kept row of a stitched flow can carry a denominator that the
# new network's capacities lack.
STITCH_BUDGETS = (F(1, 8), F(3, 4), F(1, 2), F(1), F(2), F(3), F(7, 2), F(1, 3), F(2, 3), F(5, 6))
STITCH_CAPS = (F(1, 2), F(1), F(3, 2), F(2), F(3), F(7), F(1, 3))


def _new_edge_flows(market):
    """Drive the market's descent by hand.  Returns, for each new-edge
    commit, the last flow, the flow the commit made from it, the S it grew
    from and the balanced flow of the same network from scratch."""
    state, _ = _fresh_state(market)
    flows = []
    while start_phase(state):
        kind = None
        while kind not in PHASE_ENDS:
            S, last = frozenset(state.S), state.flow
            kind = commit_event(state, next_event(state)).kind
            if kind == NEW_EDGE:
                flows.append((last, state.flow, S, balanced_flow(state.network)))
    return flows


def _assert_same_balanced_flow(kept, S, fresh):
    assert is_balanced(kept)
    assert kept.surpluses() == fresh.surpluses()
    assert residual_reach(kept, S) == residual_reach(fresh, S)


def _fraction_row(flow, i):
    return {j: F(v, flow.denom) for j, v in flow.rows[i].items()}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    markets(max_buyers=6, max_goods=6)
    | tied_markets()
    | tied_markets(STITCH_BUDGETS, STITCH_CAPS)
)
def test_new_edge_commit_keeps_a_balanced_flow(market):
    # A new-edge commit water-fills only the region around S and keeps the
    # other rows of the last flow.  The stitch must pass the certificate
    # (balanced_flow raises on one it rejects), give the surpluses and the
    # S of a balanced flow from scratch, and keep each row outside the
    # region as the same rationals, the law its balance proof uses.
    for last, kept, S, fresh in _new_edge_flows(market):
        _assert_same_balanced_flow(kept, S, fresh)
        _, inside = _closure(kept.network, last.rows, S)
        for i in range(kept.network.n):
            if i not in inside:
                assert _fraction_row(kept, i) == _fraction_row(last, i)


# The two markets on which a stitched flow once lost a kept row: its
# denominator came from the capacities the commit had just scaled, so
# `fisheq solve` exited 3.  They are draws 5,753 of Random(4) and 19,282
# of Random(11) of random_stitch_market.  The prices, and the sha256 of
# `fisheq solve`'s output, are those of the solver before it stitched.
STITCH_REPROS = [
    (
        Market(
            (F(1, 3), F(2, 3), F(5, 6)),
            (F(3, 2), F(1, 3), F(1)),
            ((1, 0, 0, 0, 1, 0, 2), (2, 3, 3, 1, 1, 2, 1), (1, 1, 3, 1, 3, 3, 0)),
        ),
        (0,) * 7,  # every buyer caps
        "d9e3323760e49344b5cadff468c3df16dfd5b0eda3bfe5150880fa385e4b55ac",
    ),
    (
        Market(
            (F(3), F(1, 3), F(1, 2), F(1, 2), F(5, 6), F(1), F(3, 4), F(1, 3), F(5, 6)),
            (F(1, 2), F(1, 3), F(2), F(3, 2), F(3), F(3, 2), F(7), None, F(3)),
            tuple(
                tuple(map(int, row))
                for row in "320231000 233312012 300221233 030003302 120210001 "
                "331110111 221223130 113112131 231002103".split()
            ),
        ),
        tuple(F(p, 43) for p in (6, 6, 9, 6, 6, 9, 4, 9, 6)),
        "b2ffe3a5e704da850a36bc94ee926c1570714ac4ee0b5e7bfaebae08bd07a121",
    ),
]


@pytest.mark.parametrize("market, prices, digest", STITCH_REPROS, ids=["repro-1", "repro-2"])
def test_stitch_repro_solves(market, prices, digest, tmp_path, capsys):
    eq = solve_max_revenue(market).equilibrium
    assert eq.prices == prices
    assert verify(market, eq).ok
    path = tmp_path / "market.json"
    path.write_text(json.dumps(market_to_doc(market)))
    assert main(["solve", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def random_stitch_market(rng):
    """A market of the stitch sweep, drawn with ``rng``: n and m in 3..10,
    utilities from {0..k} for k in {1, 2, 3}, not all zero, each buyer's
    cap none with probability 0.4 or one of STITCH_CAPS, and budgets from
    STITCH_BUDGETS."""
    n, m = rng.randint(3, 10), rng.randint(3, 10)
    k = rng.choice((1, 2, 3))
    rows = [[0] * m]
    while not any(map(any, rows)):
        rows = [[rng.randint(0, k) for _ in range(m)] for _ in range(n)]
    caps = [None if rng.random() < 0.4 else rng.choice(STITCH_CAPS) for _ in range(n)]
    budgets = [rng.choice(STITCH_BUDGETS) for _ in range(n)]
    return Market(tuple(budgets), tuple(caps), tuple(map(tuple, rows)))


@pytest.mark.slow
@pytest.mark.parametrize("seed", [4, 31])
def test_stitch_sweep(seed):
    # A kept row with a denominator the new network lacks is rare; seed 4
    # meets one at draw 5,753 (repro 1).
    rng, failures = random.Random(seed), []
    for k in range(6000):
        market = random_stitch_market(rng)
        try:
            assert verify(market, solve_max_revenue(market).equilibrium).ok
        except Exception as bad:  # an assertion or an error of the solver
            failures.append((k, type(bad).__name__, str(bad).partition("\n")[0]))
    assert not failures, f"{len(failures)} of 6000 failed: {failures}"


@settings(derandomize=True, max_examples=300, deadline=None)
@given(markets(max_buyers=6, max_goods=6) | tied_markets())
def test_every_flow_of_a_descent_carries_its_row_sums(market):
    # Each row of a balanced flow is written once, with the sums: no row
    # holds a 0, each buyer's outflow and each good's inflow are the sums
    # of the rows, and the surpluses are those of the rows summed from
    # scratch in Fractions.
    flows, make = [], fisheq.descend.balanced_flow

    def recorded(*args):
        flows.append(make(*args))
        return flows[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fisheq.descend, "balanced_flow", recorded)
        solve_max_revenue(market)
    assert flows
    for flow in flows:
        rows, network = flow.rows, flow.network
        assert len(rows) == network.n
        assert all(0 not in row.values() for row in rows)
        assert flow._out == [sum(row.values()) for row in rows]
        assert flow._into == [sum(row.get(j, 0) for row in rows) for j in range(network.m)]
        paid = [sum(F(row.get(j, 0), flow.denom) for row in rows) for j in range(network.m)]
        assert flow.surpluses() == tuple(p - f for p, f in zip(network.prices, paid))


# sha256 of (kind, x, buyers, goods, scaled_buyers) over the trace of the
# pinned markets and the two tie markets of
# test_network_is_live_after_every_commit.  The digests predate the
# direct-edge sweep of the max-flow kernel and the integer new-edge
# search, which reproduce them: the events, not only the equilibrium, are
# pinned.
PINNED_TRACES = [
    (8, 8, 100, 0, "f63ddacdf7698d0c645adfbad1848c2e4d937d07e29eb222ecf1d789df526bfc"),
    (8, 8, 100, 1, "18f76fae5cbce432495bea756ebca11646dd539e393f7f0f0e029bfafc5bb5ce"),
    (8, 8, 100, 2, "8bbc48bfb965a059aac62d24e34bcdc68b0edd455cfb4e73aadcf0a2962b5f8d"),
    (8, 8, 100, 3, "9f1f04e058e1a350b311c5184b0d0b3dc6311b98c524e944566d1f9a0ea49582"),
    (8, 8, 100, 4, "7b2771adffb983710a11bc58ef7f500bf1a0eca10ac882b16fd9014f9af87e2b"),
    (8, 8, 100, 5, "e5bd4574ffd9d7615efea7012a09e580ff5abd1131bf00804f16ed1012a8a8bf"),
    (8, 8, 100, 6, "5846ad7565f1c1f6e3f6ded794f52c11a1c1e29125ae02d7fde4df8634eff4cc"),
    (8, 8, 100, 7, "20f423b7e6a4db5d6a60e0e420bbad261ddcfafa9507528e9acbf95eabd7917f"),
    (8, 8, 100, 8, "3e748738b25bb5bf981cddb5c94ecd7777459728cbf607173a95fceb4997d460"),
    (8, 8, 100, 9, "40fe5324ceef31528ed8f883ebe4d6887d6f2c8931f018cb2ccade8e7e0f57af"),
    (6, 6, 10**60, 0, "5c274d67406d9548948d3a4600cb5879fd7078095cbb4029d8b0f0746c6fd115"),
    (6, 6, 10**60, 1, "76994d533e599077c12a84b937e57e0421e1388f9b2b3370434bda6abdb750d5"),
    (6, 6, 10**60, 2, "6ad913e8abadf84387639882940d9ce7f7c7744cf54a0b79a827045cf5c86462"),
    (6, 6, 10**60, 3, "77b92e2105c9eadf3efad8c4618bcb0e4c5819c7acb292e5e1bbd0aaa00a7f70"),
    (5, 7, 20, 1000189, "54acb0f366a8b03994f64a0782fd6fbb9259f87966b1df5c1ca716d38180f837"),
    (4, 3, 20, 321, "6931116b23cee1bb4ce3a5562e2d815a11e3ebdeb2c56c4b377aeca9290810d3"),
]


@pytest.mark.parametrize(
    "n, m, max_value, seed, digest",
    PINNED_TRACES,
    ids=[f"{n}x{m}-U{'1e60' if u == 10**60 else u}-{k}" for n, m, u, k, _ in PINNED_TRACES],
)
def test_pinned_traces(n, m, max_value, seed, digest):
    trace = solve_max_revenue(generate_market(n, m, max_value, seed)).trace
    text = repr(
        tuple((r.kind, str(r.x), r.buyers, r.goods, r.scaled_buyers) for r in trace)
    )
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# sha256 of trace_to_ndjson, every field of every record, over the
# 6x6-U1e60 markets and two 8x8-U100 markets of PINNED_TRACES.  The digests
# predate the surpluses built on read.
PINNED_TRACE_RECORDS = [
    (6, 6, 10**60, 0, "e5943bab0579bb2e56dac5619fc920f56d947309e66bf20271e1f5eff5a7210f"),
    (6, 6, 10**60, 1, "5332d18c2075fd5da61c61f029d21f170ef34df590b039092bd078aa9ab6086c"),
    (6, 6, 10**60, 2, "0ac3c333714be63244c9339655a7fab8993d68acefb487cbf17f0d776f241a07"),
    (6, 6, 10**60, 3, "ec05f05d20fdb3dfa53e87d4900c8cbe825ead0bf7956296c41147c50c64b642"),
    (8, 8, 100, 0, "08798dcd4413717683d7d3a6a00610374ffb3073606f72f9b5ef621505695720"),
    (8, 8, 100, 1, "f93a14800bc1939475a358d9b6186fc3b070e3c6c3b53c2578bce5c70316ecb5"),
]


@pytest.mark.parametrize(
    "n, m, max_value, seed, digest",
    PINNED_TRACE_RECORDS,
    ids=[
        f"{n}x{m}-U{'1e60' if u == 10**60 else u}-{k}" for n, m, u, k, _ in PINNED_TRACE_RECORDS
    ],
)
def test_pinned_trace_records(n, m, max_value, seed, digest, monkeypatch):
    # A record built on read holds a snapshot of its flow's surpluses: read
    # at a commit that recomputes the flow, they are a fresh balanced
    # flow's; read only after the solve, they are the flow's at the commit.
    at_commit = []

    def checked(state, event):
        before = state.network  # a zero-price commit computes its flow on it
        record = commit_event(state, event)
        at_commit.append(state.flow.surpluses())
        recomputed_on = {ZERO_PRICE: before, NEW_EDGE: state.network}.get(event.kind)
        if recomputed_on is not None:
            assert record.surpluses == balanced_flow(recomputed_on).surpluses()
        return record

    monkeypatch.setattr(fisheq.descend, "commit_event", checked)
    trace = solve_max_revenue(generate_market(n, m, max_value, seed)).trace
    assert [record.surpluses for record in trace] == at_commit
    text = trace_to_ndjson(trace)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _fail_on_call(real, failing_call):
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) == failing_call:
            raise InvariantError("injected failure")
        return real(*args, **kwargs)

    return wrapped


def test_invariant_error_carries_replay_state(capped_market, monkeypatch):
    # The second event search of phase 1 runs after the new-edge commit grew
    # S from {1} to {0, 1}; no event is pending.  Failing the search itself
    # pins the state whatever searches for tight sets run inside it.
    monkeypatch.setattr(fisheq.descend, "next_event", _fail_on_call(fisheq.descend.next_event, 2))
    with pytest.raises(InvariantError, match="injected failure") as caught:
        solve_max_revenue(capped_market)
    bug = caught.value
    assert (bug.phase, bug.iteration, bug.S, bug.event) == (1, 1, (0, 1), None)


def test_invariant_error_names_the_event_being_committed(capped_market, monkeypatch):
    # The second balanced flow is the one the first commit (a new edge)
    # recomputes; iteration 1 of phase 1 is under way and S is still {1}.
    monkeypatch.setattr(
        fisheq.descend,
        "balanced_flow",
        _fail_on_call(fisheq.descend.balanced_flow, 2),
    )
    with pytest.raises(InvariantError) as caught:
        solve_max_revenue(capped_market)
    bug = caught.value
    assert (bug.phase, bug.iteration, bug.S, bug.event) == (1, 1, (1,), NEW_EDGE)


def _assert_replayed(market, message, replay, tmp_path, capsys):
    """Solving ``market`` stops with ``message`` and the replay state
    ``replay``, raised to a library caller and as exit 3 of ``fisheq
    solve``."""
    with pytest.raises(InvariantError, match=message) as caught:
        solve_max_revenue(market)
    bug = caught.value
    assert (bug.phase, bug.iteration, bug.S, bug.event) == replay

    path = tmp_path / "market.json"
    path.write_text(json.dumps(market_to_doc(market)))
    assert main(["solve", str(path)]) == 3
    out, err = capsys.readouterr()
    phase, iteration, S, event = replay
    assert out == ""
    assert err.startswith(f"internal invariant failure: {message}")
    assert err.endswith(f"(phase {phase}, iteration {iteration}, S {list(S)}, event {event})\n")


def _committing_nothing(state, event):
    # without the iteration guard the descent would call this forever
    assert state.iteration <= 2 * state.market.n
    return event


@pytest.mark.parametrize(
    "limits, commit, message, replay",
    [
        # no phase may start
        ({"max_phases": 0}, None, "phase guard exceeded", (1, 0, (), None)),
        # the first commit, a new edge, leaves a price past the bound 1
        ({"price_bound": 1}, None, "price bit-length bound violated", (1, 1, (0,), NEW_EDGE)),
        # the same new edge comes back until 2n = 8 iterations are spent
        ({}, _committing_nothing, "iteration guard exceeded", (1, 9, (0,), None)),
    ],
    ids=["phase-guard", "bit-length-guard", "iteration-guard"],
)
def test_paper_guard_fires(limits, commit, message, replay, tmp_path, monkeypatch, capsys):
    # The paper's bounds on the phases, the price bit lengths and the
    # iterations of a phase each stop the descent with its replay state,
    # raised to a library caller and as exit 3 of ``fisheq solve``.
    market = generate_market(4, 4, 20, 3)
    initialize = fisheq.descend.initialize

    def limited(stripped):
        state = initialize(stripped)
        for name, value in limits.items():
            setattr(state, name, value)
        return state

    monkeypatch.setattr(fisheq.descend, "initialize", limited)
    if commit is not None:
        monkeypatch.setattr(fisheq.descend, "commit_event", commit)
    _assert_replayed(market, message, replay, tmp_path, capsys)


ZERO_PRICE_GUARDS = [
    # buyer 1 is uncapped and phase 1 starts with S = {1}
    (
        Market((3, 1), (1, None), ((5, 1), (2, 1))),
        (1,),
        (),
        "zero-price deletion of uncapped buyer 1",
        (1, 0, (1,), ZERO_PRICE),
    ),
    # phase 1 caps buyer 0, then deletes it with goods 0 and 1; phase 2,
    # with S = {2}, names it again
    (
        Market((5, 6), (1, None), ((1, 1, 0), (0, 0, 1))),
        (0,),
        (),
        "deleted buyer 0 held no allocation",
        (2, 0, (2,), ZERO_PRICE),
    ),
    # phase 1 starts with S = {0, 1} and buyer 0 capped; deleting buyer 0
    # alone leaves buyer 1 live (budget 3), valuing both deleted goods
    (
        generate_market(2, 2, 5, 8),
        (0,),
        (0,),
        "live buyer still values a deleted good",
        (1, 0, (0, 1), ZERO_PRICE),
    ),
]


@pytest.mark.parametrize(
    "market, buyers, scaled_buyers, message, replay",
    ZERO_PRICE_GUARDS,
    ids=["uncapped-buyer", "buyer-without-allocation", "live-buyer-values-deleted-good"],
)
def test_zero_price_guard_fires(
    market, buyers, scaled_buyers, message, replay, tmp_path, monkeypatch, capsys
):
    # A zero-price event may delete only capped buyers that hold goods, and
    # only with every buyer that values S.  A record breaking that,
    # committed when its phase starts, stops the descent: in commit_event,
    # through solve_max_revenue with the replay state, and as exit 3 of
    # ``fisheq solve``.
    phase = replay[0]

    def crafted(state):
        return EventRecord(
            kind=ZERO_PRICE,
            x=F(0),
            buyers=buyers,
            goods=tuple(sorted(state.S)),
            scaled_buyers=scaled_buyers,
        )

    state, _ = _fresh_state(market)
    while start_phase(state) and len(state.phases) < phase:
        kind = None
        while kind not in PHASE_ENDS:
            kind = commit_event(state, next_event(state)).kind
    assert len(state.phases) == phase
    with pytest.raises(InvariantError, match=message):
        commit_event(state, crafted(state))

    def next_or_crafted(state):
        return crafted(state) if len(state.phases) == phase else next_event(state)

    monkeypatch.setattr(fisheq.descend, "next_event", next_or_crafted)
    _assert_replayed(market, message, replay, tmp_path, capsys)


def _without_buyer_0_edges(state):
    """The live network with buyer 0's equality edges removed."""
    network = state.network
    return network.edited(network.budgets, network.prices, [0], (), ())


def test_outside_buyer_guard_fires(tmp_path, monkeypatch, capsys):
    # Every live buyer has an equality edge.  Phase 1 starts with S = {0},
    # and buyer 0's edge leaves S (to good 2); a network without it stops
    # the event search before any event is pending.
    market = generate_market(3, 3, 20, 0)
    message = "buyer 0 outside B' values nothing outside S"
    state, _ = _fresh_state(market)
    start_phase(state)
    assert state.S == {0} and state.network.buyer_goods[0] == (2,)
    state.network = _without_buyer_0_edges(state)
    with pytest.raises(InvariantError, match=message):
        next_event(state)

    search = fisheq.descend.next_event

    def searched_without_buyer_0_edges(state):
        state.network = _without_buyer_0_edges(state)
        return search(state)

    monkeypatch.setattr(fisheq.descend, "next_event", searched_without_buyer_0_edges)
    _assert_replayed(market, message, (1, 0, (0,), None), tmp_path, capsys)


@pytest.mark.parametrize(
    "from_good, from_buyer",
    [
        # no good on the source side of the block's cut
        ([None, None], [None, None]),
        # both goods on it
        ([-1, -1], [0, 0]),
        # buyer 1 and good 0 on it: a one-good block whose buyer has money
        # and no edge to the good
        ([None, -1], [1, None]),
    ],
    ids=["no-good-on-the-source-side", "every-good-on-it", "one-good-block-without-an-edge"],
)
def test_water_filling_guard_fires(from_good, from_buyer, tmp_path, monkeypatch, capsys):
    # At the first prices buyer 0 ties goods 0 and 1 and buyer 1 values
    # only good 1, so the first balanced flow water-fills one block of both
    # goods.  A max-flow that reports the cut given here, and an unsaturated
    # block, stops the water filling before phase 1 starts.
    market = Market((1, 1), (None, None), ((1, 1), (0, 1)))
    state, _ = _fresh_state(market)
    assert state.network.buyer_goods == ((0, 1), (1,))
    assert sum(state.network.prices) > sum(state.network.budgets)  # a surplus to balance
    saturate = fisheq.flow._saturate

    def reporting_the_cut(network, seeds, budgets, prices):
        flow, _, _ = saturate(network, seeds, budgets, prices)
        return flow, False, (from_good, from_buyer)

    monkeypatch.setattr(fisheq.flow, "_saturate", reporting_the_cut)
    message = "degenerate min-cut split in water filling"
    with pytest.raises(InvariantError, match=message):
        balanced_flow(state.network)
    _assert_replayed(market, message, (0, 0, (), None), tmp_path, capsys)


@pytest.mark.parametrize(
    "side, message",
    [
        # every buyer on the source side of the cut: the seeds do not shrink
        (-1, "tight-set recursion failed to shrink"),
        # no buyer on it: the seeds shrink to none, so no uncapped buyer is left
        (None, "tight-set recursion lost every uncapped buyer"),
    ],
    ids=["cut-keeps-every-seed", "cut-drops-every-uncapped-buyer"],
)
def test_tight_set_recursion_guard_fires(side, message, tmp_path, monkeypatch, capsys):
    # Phase 1 starts with S = {0}, and its first event search runs the
    # tight-set search from the uncapped buyer 0.  A test max-flow there that
    # reports the seeds unsaturated, with the cut given here, stops the
    # search before any event is pending.
    market = Market((1, 1), (None, None), ((1, 1), (0, 1)))
    saturate, search, flows = fisheq.flow._saturate, fisheq.descend.tight_set_scale, []

    def reporting_the_cut(network, seeds, budgets, prices):
        flows.append(seeds)
        assert len(flows) == 1, "the search went on past the cut"  # unguarded, it loops
        flow, _, (_, from_buyer) = saturate(network, seeds, budgets, prices)
        return flow, False, ([side] * network.n, from_buyer)

    def searched_with_the_cut(network, S, uncapped, capped):
        assert uncapped
        flows.clear()
        with monkeypatch.context() as patch:
            patch.setattr(fisheq.flow, "_saturate", reporting_the_cut)
            return search(network, S, uncapped, capped)

    monkeypatch.setattr(fisheq.descend, "tight_set_scale", searched_with_the_cut)
    state, _ = _fresh_state(market)
    start_phase(state)
    assert state.S == {0}
    with pytest.raises(InvariantError, match=message):
        next_event(state)
    _assert_replayed(market, message, (1, 0, (0,), None), tmp_path, capsys)


STITCHES = [  # (seed of generate_market(8, 8, 100, seed), replay state)
    (0, (1, 1, (2,), NEW_EDGE)),
    (1, (1, 2, (2, 6), NEW_EDGE)),
    (2, (1, 1, (1,), NEW_EDGE)),
    (3, (1, 1, (1,), NEW_EDGE)),
]


@pytest.mark.parametrize("seed, replay", STITCHES, ids=[str(seed) for seed, _ in STITCHES])
def test_unbalanced_stitch_guard_fires(seed, replay, tmp_path, monkeypatch, capsys):
    # Cut the region down to S and its buyers before the commit: the buyers
    # that gain an edge into S keep their rows outside it, and the
    # certificate rejects the stitch.  The first new-edge commit that
    # stitches such a flow stops the descent, with nothing recomputed.
    closure, balanced, last = fisheq.flow._closure, fisheq.descend.balanced_flow, []

    def s_only(network, rows, targets):
        if last and rows is last[-1].rows:
            good_buyers = last[-1].network.good_buyers
            return set(targets), {i for j in targets for i in good_buyers[j]}
        return closure(network, rows, targets)

    def stitched(network, *kept):
        last.extend(kept[:1])  # a new-edge commit: the region is read off this flow
        return balanced(network, *kept)

    monkeypatch.setattr(fisheq.flow, "_closure", s_only)
    monkeypatch.setattr(fisheq.descend, "balanced_flow", stitched)
    market = generate_market(8, 8, 100, seed)
    _assert_replayed(market, "water filling produced an unbalanced flow", replay, tmp_path, capsys)


def test_event_scale_guard_fires(tmp_path, monkeypatch, capsys):
    # Phase 1 starts with S = {0}, and its first event search runs the
    # tight-set search.  A tight set at scale 3/2 wins over every other
    # candidate and stops the descent before any event is pending.
    def above_one(network, S, uncapped, capped):
        return 3, 2, frozenset(uncapped) | frozenset(capped)

    monkeypatch.setattr(fisheq.descend, "tight_set_scale", above_one)
    market = Market((1, 1), (None, None), ((1, 1), (0, 1)))
    _assert_replayed(market, "event scale 3/2 above 1", (1, 0, (0,), None), tmp_path, capsys)


def test_nonzero_surplus_guard_fires(tmp_path, monkeypatch, capsys):
    # A start_phase that stops after its first balanced flow, whose
    # surpluses are not all zero, ends the descent before any phase.
    market = Market((1, 1), (None, None), ((1, 1), (0, 1)))

    def stopping(state):
        state.flow = fisheq.descend.balanced_flow(state.network)
        assert any(state.flow._surplus_ints)
        return False

    monkeypatch.setattr(fisheq.descend, "start_phase", stopping)
    _assert_replayed(market, "descent ended with nonzero surplus", (0, 0, (), None), tmp_path, capsys)


@pytest.mark.parametrize("corrupt", ["injected-report", "moved-sliver"])
def test_unverified_solve_guard_fires(corrupt, capped_market, tmp_path, monkeypatch, capsys):
    # The solve's record comes from one verify_allocation pass; a failed
    # report stops it, with the report's first violation in the message,
    # raised to a library caller and as exit 3 of ``fisheq solve``.  Moving
    # a sliver of good 0 to buyer 0 lifts its value 1 to 3/2, above its cap.
    real, real_alloc = fisheq.descend.verify_allocation, fisheq.descend.SolverState.alloc

    def moved(state):
        alloc = real_alloc.fget(state)
        alloc[0][0] += F(1, 10)
        alloc[1][0] -= F(1, 10)
        return alloc

    def corrupt_next_solve():
        if corrupt == "injected-report":
            monkeypatch.setattr(fisheq.descend, "verify_allocation", failing_on_call(real, 1))
        else:
            monkeypatch.setattr(fisheq.descend.SolverState, "alloc", property(moved))

    first = INJECTED[0] if corrupt == "injected-report" else ("modest", 0, "3/2", "1")
    message = f"solver output fails to verify: [{first!r}"
    corrupt_next_solve()
    with pytest.raises(InvariantError, match=re.escape(message)) as caught:
        solve_max_revenue(capped_market)
    # the descent is over, so there is no state to replay
    assert caught.value.phase is None

    path = tmp_path / "market.json"
    path.write_text(json.dumps(market_to_doc(capped_market)))
    corrupt_next_solve()
    assert main(["solve", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"internal invariant failure: {message}")
    assert err.endswith("]\n")


@pytest.mark.parametrize(
    "market",
    [
        generate_market(5, 4, 20, 3),
        # buyer 2 values nothing and nobody values good 2: both are stripped
        Market((1, 1, 2), (None, None, 3), ((1, 1, 0), (0, 1, 0), (0, 0, 0))),
    ],
    ids=["generated", "stripped"],
)
def test_one_verified_walk_per_solve(market, buyer_passes, monkeypatch):
    # After the descent's own passes (one per buyer of the stripped market,
    # in initialize) the solve makes one verify_allocation call, one pass
    # per buyer of the input market, and builds its record from it.
    stripped, _, _ = strip_trivial(normalize(market))
    calls = []
    real = fisheq.descend.verify_allocation

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(fisheq.descend, "verify_allocation", counted)
    buyer_passes.clear()
    result = solve_max_revenue(market)
    assert calls == [market]
    assert buyer_passes == list(range(stripped.n)) + list(range(market.n))
    assert verify(market, result.equilibrium).ok
