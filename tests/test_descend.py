import hashlib
import itertools
import random
from fractions import Fraction as F

import pytest

import fisheq.descend
from fisheq import InvariantError, Market, min_revenue, normalize, strip_trivial, verify
from fisheq.descend import (
    NEW_EDGE,
    TIGHT_SET,
    ZERO_PRICE,
    commit_event,
    initialize,
    next_event,
    solve_max_revenue,
    start_phase,
)
from fisheq.cli import generate_market
from fisheq.flow import FlowNetwork
from fisheq.market import equality_graph
from test_acceptance import corpus_markets


def _fresh_state(market):
    stripped, _, _ = strip_trivial(normalize(market))
    return initialize(stripped), stripped


def _reference_network(state):
    """The live network built from scratch: the equality graph at the
    current prices, restricted to the live buyers and goods."""
    market = state.market
    edges = {
        (i, j)
        for i, j in equality_graph(market, state.prices)
        if i in state.live_buyers and j in state.live_goods
    }
    budgets = [
        state.budgets[i] if i in state.live_buyers else F(0) for i in range(market.n)
    ]
    prices = [state.prices[j] if j in state.live_goods else F(0) for j in range(market.m)]
    return FlowNetwork(tuple(budgets), tuple(prices), frozenset(edges))


class TestInitialize:
    def test_example_market(self, capped_market):
        state, _ = _fresh_state(capped_market)
        assert state.prices == [F(4), F(4)]
        assert state.budgets == [F(4, 5), F(1)]
        assert state.capped == [True, False]

    def test_single_buyer(self):
        state, _ = _fresh_state(Market((F(1),), (None,), ((F(2),),)))
        assert state.prices == [F(1)]
        assert state.budgets == [F(1)]

    def test_overlap_market(self, overlap_market):
        state, _ = _fresh_state(overlap_market)
        assert state.prices == [F(2), F(2)]
        assert state.budgets == [F(1), F(1)]
        assert state.capped == [False, False]


class TestStartPhase:
    def test_example_first_phase(self, capped_market):
        state, _ = _fresh_state(capped_market)
        assert start_phase(state)
        assert state.surpluses == (F(11, 5), F(4))
        assert state.S == {1}

    def test_zero_surplus_terminates(self):
        state, _ = _fresh_state(Market((F(1),), (None,), ((F(2),),)))
        assert not start_phase(state)
        assert state.surpluses == (F(0),)

    def test_tie_breaks_to_lowest_index(self, overlap_market):
        state, _ = _fresh_state(overlap_market)
        assert start_phase(state)
        assert state.surpluses == (F(1), F(1))
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


class TestCommitEvent:
    def test_example_new_edge_commit(self, capped_market):
        state, _ = _fresh_state(capped_market)
        start_phase(state)
        old_flow = dict(state.flow.edge_flow)
        event = next_event(state)
        state.iteration = 1
        commit_event(state, event)
        assert state.prices == [F(4), F(2)]
        assert state.flow.edge_flow == old_flow  # balanced flow unchanged
        assert state.S == {0, 1}  # reach closure pulls good 0 in
        assert state.surpluses == (F(11, 5), F(2))

    def test_zero_price_commit_removes_component(self):
        market = Market((F(5),), (F(1),), ((F(1), F(1)),))
        state, _ = _fresh_state(market)
        start_phase(state)
        event = next_event(state)
        commit_event(state, event)
        assert state.prices == [F(0), F(0)]
        assert state.live_buyers == set() and state.live_goods == set()
        assert state.alloc[0] == [F(1, 2), F(1, 2)]  # frozen allocation
        assert state.phase_over

    def test_final_tight_set_from_intermediate_state(self, capped_market):
        # An alternative two-phase route reaches p = (5/4, 5/8) with
        # buyer 0 capped at active budget 1/4; committing the tight set at
        # 8/13 lands on the same final prices.
        state, _ = _fresh_state(capped_market)
        start_phase(state)
        state.prices = [F(5, 4), F(5, 8)]
        state.budgets = [F(1, 4), F(1)]
        state.capped = [True, False]
        state.S = {0, 1}
        state.network = _reference_network(state)
        event = next_event(state)
        assert event.kind == TIGHT_SET and event.x == F(8, 13)
        commit_event(state, event)
        assert state.prices == [F(10, 13), F(5, 13)]
        assert state.budgets == [F(2, 13), F(1)]


class TestSolveMaxRevenue:
    def test_example_capped(self, capped_market):
        result = solve_max_revenue(capped_market)
        eq = result.equilibrium
        assert eq.prices == (F(10, 13), F(5, 13))
        assert eq.allocation == ((F(1, 5), F(0)), (F(4, 5), F(1)))
        assert eq.utilities == (F(1), F(13, 5))
        assert eq.spending(0) == F(2, 13)

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


@pytest.mark.parametrize(
    "market",
    [
        generate_market(3, 3, 20, 14),  # all four event kinds
        generate_market(3, 5, 20, 26),  # all four event kinds
        generate_market(2, 6, 20, 283),  # five zero-price events
        generate_market(6, 6, 20, 179),
        Market((F(5),), (F(1),), ((F(1), F(1)),)),  # one zero-price event
        generate_market(5, 7, 20, 1000189),  # cap at x = 1, B' has edges leaving S
        generate_market(4, 3, 20, 321),  # tight set at the new-edge scale
    ],
)
def test_network_is_live_after_every_commit(market):
    state, _ = _fresh_state(market)
    assert state.network == _reference_network(state)
    while start_phase(state):
        assert state.network == _reference_network(state)
        while not state.phase_over:
            commit_event(state, next_event(state))
            assert state.network == _reference_network(state)


@pytest.mark.slow
def test_network_is_live_on_large_pools(monkeypatch):
    # The acceptance corpus, then 1,500 markets over every shape n, m <= 8.
    def checked(state, event):
        record = commit_event(state, event)
        assert state.network == _reference_network(state)
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


def test_invariants_on_random_markets():
    rng = random.Random(42)
    for seed in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        market = generate_market(n, m, 15, 9_000 + seed)
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
        # booked utilities never decrease across phase boundaries
        for earlier, later in zip(result.phases, result.phases[1:]):
            for a, b in zip(earlier.utilities, later.utilities):
                assert b >= a


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
def test_pinned_equilibria(n, m, max_value, seed, digest):
    eq = solve_max_revenue(generate_market(n, m, max_value, seed)).equilibrium
    text = repr(
        (
            tuple(str(p) for p in eq.prices),
            tuple(tuple(str(x) for x in row) for row in eq.allocation),
        )
    )
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
    # The second tight-set search runs in phase 1's second next_event, after
    # the new-edge commit grew S from {1} to {0, 1}; no event is pending.
    monkeypatch.setattr(
        fisheq.descend,
        "tight_set_scale",
        _fail_on_call(fisheq.descend.tight_set_scale, 2),
    )
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
