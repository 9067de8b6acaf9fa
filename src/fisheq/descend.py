"""Descending-price computation of the maximum-revenue equilibrium.

Prices start high enough that every buyer's money is absorbed, and are
pushed down in phases.  A phase fixes the residual closure S of a
maximum-surplus good and scales the prices of S (and the active budgets of
the capped buyers attached to S) by a common factor x that decreases from 1
until one of three events: an uncapped buyer caps out, a buyer outside
gains an equality edge into S, or a subset of buyers goes tight (ending the
phase).  When prices of a set hit zero, those goods and the capped buyers
holding them leave the market with their allocations frozen.  Termination
is exact: the final surplus is asserted to be identically zero.

The equality graph is built once and edited by each event: scaling S by
x < 1 raises the ratio of each buyer of B' (those with an edge into S), so
they keep only their edges into S; a buyer outside B' gains an edge into S
where its ratio there reaches its own; x = 0 removes S and B'.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvariantError
from .flow import FlowNetwork, balanced_flow, residual_reach, tight_set_scale
from .market import (
    active_budget,
    bundle_value,
    capped_utility,
    equality_graph,
    normalize,
    strip_trivial,
)
from .verify import equilibrium_from_allocation

CAP = "cap"
NEW_EDGE = "new-edge"
TIGHT_SET = "tight-set"
ZERO_PRICE = "zero-price"


@dataclass(frozen=True)
class EventRecord:
    kind: str
    x: Fraction
    buyers: tuple  # affected buyers (newly capped / new-edge owners / witness)
    goods: tuple  # S at the moment of the event
    scaled_buyers: tuple  # capped members of B' whose budgets scaled
    phase: int = 0
    iteration: int = 0
    prices: tuple = ()  # committed prices (solver index space)
    active_budgets: tuple = ()
    surpluses: tuple = ()  # as of the latest balanced-flow computation


@dataclass
class PhaseStats:
    phase: int
    live_buyers: int
    live_goods: int
    norm2_start: Fraction
    utilities: tuple = ()  # booked buyer utilities at phase start
    norm2_end: Fraction = None
    iterations: int = 0


@dataclass
class SolveResult:
    equilibrium: object
    trace: list
    phases: list
    final_surpluses: tuple


class SolverState:
    """Mutable working state over the stripped, normalized market.

    Invariant: ``network`` is the live network at the current prices,
    budgets and live sets (dead ones are 0: their zero-price event scaled
    them by 0).  ``initialize`` builds it from the equality graph,
    ``commit_event`` edits it by the event's rule, and the rest reads it.
    """

    def __init__(self, market):
        self.market = market
        self.prices = []
        self.budgets = []  # active budgets M^a
        self.capped = []
        self.live_buyers = set(range(market.n))
        self.live_goods = set(range(market.m))
        self.alloc = [[Fraction(0)] * market.m for _ in range(market.n)]
        self.network = None
        self.flow = None
        self.surpluses = (Fraction(0),) * market.m
        self.S = set()
        self.phase = 0
        self.iteration = 0
        self.phase_over = False
        self.trace = []
        self.phases = []
        n, m, U = market.n, market.m, market.U
        self.max_phases = 8 * m * n * ((m + n).bit_length() + (m + n) * U.bit_length() + 1)
        self.price_bound = (m + n) * U ** (3 * (m + n))


def initialize(market):
    """Fresh state: every price at the total money supply."""
    state = SolverState(market)
    total = sum(market.budgets, Fraction(0))
    state.prices = [total] * market.m
    for i in range(market.n):
        money, is_capped = active_budget(market, state.prices, i)
        state.budgets.append(money)
        state.capped.append(is_capped)
    edges = equality_graph(market, state.prices)
    state.network = FlowNetwork(tuple(state.budgets), tuple(state.prices), edges)
    return state


def _alpha(state, i):
    """Bang-per-buck ratio of live buyer i, read off one of its edges."""
    j = state.network.buyer_goods[i][0]
    return state.market.utilities[i][j] / state.prices[j]


def _recompute_flow(state):
    state.flow = balanced_flow(state.network)
    state.surpluses = state.flow.surpluses()
    zero = Fraction(0)
    for j in state.live_goods:
        if state.prices[j] <= 0:
            raise InvariantError(f"live good {j} has nonpositive price")
        for row in state.alloc:
            row[j] = zero
    # the live network only has edges into live goods
    for (i, j), money in state.flow.edge_flow.items():
        state.alloc[i][j] = money / state.prices[j]


def _booked_utilities(state):
    market = state.market
    return tuple(
        capped_utility(market, i, bundle_value(market, i, state.alloc[i]))
        for i in range(market.n)
    )


def start_phase(state):
    """Recompute the balanced flow; pick the next phase's good set.

    Returns False (phase not started) once the total surplus is zero."""
    _recompute_flow(state)
    if state.phases and state.phases[-1].norm2_end is None:
        state.phases[-1].norm2_end = sum(
            (r * r for r in state.surpluses), Fraction(0)
        )
    total = sum(state.surpluses, Fraction(0))
    if total == 0:
        return False
    state.phase += 1
    if state.phase > state.max_phases:
        raise InvariantError("phase guard exceeded; norm decrease law broken")
    delta = max(state.surpluses[j] for j in state.live_goods)
    top = min(j for j in state.live_goods if state.surpluses[j] == delta)
    state.S = set(residual_reach(state.network, state.flow, (top,)))
    state.iteration = 0
    state.phase_over = False
    state.phases.append(
        PhaseStats(
            phase=state.phase,
            live_buyers=len(state.live_buyers),
            live_goods=len(state.live_goods),
            norm2_start=sum((r * r for r in state.surpluses), Fraction(0)),
            utilities=_booked_utilities(state),
        )
    )
    return True


def next_event(state):
    """Largest scale x at which one of the three events fires.

    Ties resolve tight-set over new-edge over cap: a tight set must end the
    phase even when another event lands on the same scale, and a new edge
    must extend S before a capping buyer's money is counted as fixed, or an
    uncapped buyer of B' can be left spending outside S.
    """
    market = state.market
    network = state.network
    bprime = {i for j in state.S for i in network.good_buyers[j]}
    b_c = {i for i in bprime if state.capped[i]}
    b_u = bprime - b_c
    money_u = sum((state.budgets[i] for i in b_u), Fraction(0))
    money_c = sum((state.budgets[i] for i in b_c), Fraction(0))
    price_sum = sum((state.prices[j] for j in state.S), Fraction(0))
    if money_u > 0 and price_sum < money_u + money_c:
        raise InvariantError("surplus of S went negative")

    # (x, priority, kind, buyers); with no event the scale runs out at x = 0
    candidates = [(Fraction(0), -1, ZERO_PRICE, tuple(sorted(bprime)))]

    best_cap, cap_buyers = None, []
    for i in sorted(b_u):
        cap = market.caps[i]
        if cap is None:
            continue
        x = market.budgets[i] * _alpha(state, i) / cap
        if best_cap is None or x > best_cap:
            best_cap, cap_buyers = x, [i]
        elif x == best_cap:
            cap_buyers.append(i)
    if best_cap is not None:
        candidates.append((best_cap, 0, CAP, tuple(cap_buyers)))

    best_eq, eq_buyers = None, []
    for h in sorted(state.live_buyers - bprime):
        if not network.buyer_goods[h]:
            raise InvariantError(f"buyer {h} outside B' values nothing outside S")
        alpha_out = _alpha(state, h)  # its edges all leave S
        for j in state.S:
            u = market.utilities[h][j]
            if u == 0:
                continue
            x = u / (alpha_out * state.prices[j])
            if best_eq is None or x > best_eq:
                best_eq, eq_buyers = x, [h]
            elif x == best_eq and h not in eq_buyers:
                eq_buyers.append(h)
    if best_eq is not None:
        candidates.append((best_eq, 1, NEW_EDGE, tuple(eq_buyers)))

    x_ts, witness = tight_set_scale(network, state.S, b_u, b_c)
    if x_ts > 0:
        candidates.append((x_ts, 2, TIGHT_SET, tuple(sorted(witness))))

    x_star, _, kind, affected = max(candidates, key=lambda c: (c[0], c[1]))
    if x_star > 1:
        raise InvariantError(f"event scale {x_star} above 1")
    return EventRecord(
        kind=kind,
        x=x_star,
        buyers=affected,
        goods=tuple(sorted(state.S)),
        scaled_buyers=tuple(sorted(b_c)),
    )


def commit_event(state, event):
    """Apply an event: scale prices/budgets, run its bookkeeping and edit
    the live network by the event's rule.

    Returns the completed trace record."""
    market = state.market
    x, goods = event.x, set(event.goods)
    bprime = {i for j in goods for i in state.network.good_buyers[j]}
    if event.kind == ZERO_PRICE:
        # Refresh the balanced flow first so the allocations frozen for the
        # departing goods reflect the current prices exactly.
        _recompute_flow(state)
    for j in goods:
        state.prices[j] *= x
    for i in event.scaled_buyers:
        state.budgets[i] *= x

    if event.kind == CAP:
        for i in event.buyers:
            state.capped[i] = True
    elif event.kind == TIGHT_SET:
        state.phase_over = True
    elif event.kind == ZERO_PRICE:
        for i in event.buyers:
            if state.flow.buyer_out(i) == 0:
                raise InvariantError(f"deleted buyer {i} held no allocation")
            if not state.capped[i]:
                raise InvariantError(f"zero-price deletion of uncapped buyer {i}")
        state.live_goods -= goods
        state.live_buyers -= set(event.buyers)
        for i in state.live_buyers:
            if any(market.utilities[i][j] > 0 for j in goods):
                raise InvariantError("live buyer still values a deleted good")
        state.phase_over = True
    # B' keeps edges leaving S at x = 1: a cap that lost a tie to a new edge
    edges = {
        (i, j)
        for i, j in state.network.edges
        if i not in bprime or x == 1 or (x > 0 and j in goods)
    }
    if x > 0:  # any event kind may add edges: a tight set ties with a new edge
        for h in state.live_buyers - bprime:
            alpha = _alpha(state, h)  # unchanged: its edges all leave S
            edges.update((h, j) for j in goods if market.utilities[h][j] == alpha * state.prices[j])
    state.network = FlowNetwork(tuple(state.budgets), tuple(state.prices), frozenset(edges))
    if event.kind == NEW_EDGE:
        _recompute_flow(state)
        state.S |= set(residual_reach(state.network, state.flow, state.S))

    for j in state.live_goods:
        p = state.prices[j]
        if abs(p.numerator) > state.price_bound or p.denominator > state.price_bound:
            raise InvariantError(f"price bit-length bound violated at good {j}")

    record = replace(
        event,
        phase=state.phase,
        iteration=state.iteration,
        prices=tuple(state.prices),
        active_budgets=tuple(state.budgets),
        surpluses=tuple(state.surpluses),
    )
    state.trace.append(record)
    if state.phases:
        state.phases[-1].iterations = state.iteration
    return record


def solve_max_revenue(market):
    """Maximum-revenue modest MBB equilibrium of a market, by descending
    prices.  Returns the equilibrium in the units of the given market,
    together with the committed-event trace and per-phase statistics."""
    normalized = normalize(market)
    stripped, kept_buyers, kept_goods = strip_trivial(normalized)
    state = initialize(stripped)
    pending = None  # kind of the event being committed
    try:
        while start_phase(state):
            while not state.phase_over:
                event = next_event(state)
                if event.kind != ZERO_PRICE:
                    # The zero-price ending is not an evented iteration: the
                    # scale ran out without any of the three events firing.
                    state.iteration += 1
                    if state.iteration > 2 * stripped.n:
                        raise InvariantError("iteration guard exceeded within a phase")
                pending = event.kind
                commit_event(state, event)
                pending = None
        if any(r != 0 for r in state.surpluses):
            raise InvariantError("descent ended with nonzero surplus")
    except InvariantError as bug:
        bug.phase, bug.iteration = state.phase, state.iteration
        bug.S, bug.event = tuple(sorted(state.S)), pending
        raise

    # Embed the stripped solution back into the original index space and
    # de-scale prices to the input's units.
    scale = stripped.budget_scale
    prices = [Fraction(0)] * market.m
    alloc = [[Fraction(0)] * market.m for _ in range(market.n)]
    for j_s, j in enumerate(kept_goods):
        prices[j] = state.prices[j_s] / scale
        for i_s, i in enumerate(kept_buyers):
            alloc[i][j] = state.alloc[i_s][j_s]
    equilibrium = equilibrium_from_allocation(market, tuple(prices), tuple(map(tuple, alloc)))
    return SolveResult(
        equilibrium=equilibrium,
        trace=list(state.trace),
        phases=list(state.phases),
        final_surpluses=tuple(state.surpluses),
    )
