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

from fractions import Fraction
from functools import cached_property

from .errors import InvariantError
from .exact import format_rational, ratio_sign
from .flow import FlowNetwork, balanced_flow, residual_reach, shared_fractions, tight_set_scale
from .market import (
    active_budget_at,
    equality_graph,
    normalize,
    strip_trivial,
)
from .record import FrozenRecord, Record
from .verify import verify_allocation

CAP = "cap"
NEW_EDGE = "new-edge"
TIGHT_SET = "tight-set"
ZERO_PRICE = "zero-price"
PHASE_ENDS = (TIGHT_SET, ZERO_PRICE)  # the kinds whose commit ends a phase


class EventRecord(FrozenRecord):
    """One event, and once committed, the state it left.

    ``surpluses`` are those of the latest balanced flow at the commit.  The
    record keeps that flow's integer surpluses and their denominator, and
    builds the Fractions on first read, one per distinct value.
    """

    def __init__(
        self,
        kind,
        x,
        buyers,  # affected buyers (newly capped / new-edge owners / witness)
        goods,  # S at the moment of the event
        scaled_buyers,  # capped members of B' whose budgets scaled
        phase=0,
        iteration=0,
        prices=(),  # committed prices (solver index space)
        active_budgets=(),
        surplus_ints=(),  # the surpluses, as integers over surplus_denom
        surplus_denom=1,
        new_edges=(),  # (buyer, good) pairs that are equality edges from x on
    ):
        self.__dict__.update(
            kind=kind,
            x=x,
            buyers=buyers,
            goods=goods,
            scaled_buyers=scaled_buyers,
            phase=phase,
            iteration=iteration,
            prices=prices,
            active_budgets=active_budgets,
            surplus_ints=surplus_ints,
            surplus_denom=surplus_denom,
            new_edges=new_edges,
        )

    @cached_property
    def surpluses(self):
        return shared_fractions(self.surplus_ints, self.surplus_denom)


class PhaseStats(Record):
    def __init__(self, phase, live_buyers, live_goods, norm2_start, norm2_end=None, iterations=0):
        self.phase, self.live_buyers, self.live_goods = phase, live_buyers, live_goods
        self.norm2_start, self.norm2_end, self.iterations = norm2_start, norm2_end, iterations


class SolveResult(Record):
    """A solve's equilibrium in the input's units, verified and built by
    one ``verify_allocation`` pass, its committed-event trace and per-phase
    statistics (solver index space), and the surpluses of its final
    balanced flow, all zero."""

    def __init__(self, equilibrium, trace, phases, final_surpluses):
        self.equilibrium, self.trace = equilibrium, trace
        self.phases, self.final_surpluses = phases, final_surpluses


class SolverState:
    """Mutable working state over the stripped, normalized market.

    The market's entries are ints and the descent reads them as they are.
    ``network`` is the live network and the only copy of the current
    prices and active budgets: ``network.prices`` and ``network.budgets``
    are tuples of Fractions.  A good or buyer is live exactly when its
    capacity there is positive: only a zero-price event scales by 0, and
    it scales exactly the departing goods and buyers.  ``initialize``
    builds the network from the equality graph, ``commit_event`` replaces
    it by the network the event leaves (the record carries the new edges
    it adds, and shares the new network's tuples), and the rest reads it.

    The phase under way is ``len(phases)``, and ``iteration`` counts its
    evented iterations; a phase ends when an event of ``PHASE_ENDS``
    commits.

    ``alloc`` is built when read, in practice once, at the end of a
    solve.  A zero-price commit freezes S's columns from the flow it
    computes before S's prices fall to 0; a read copies the frozen grid
    and writes the current flow over the live columns, the goods priced
    above 0.  Both write x_ij = f_ij / p_j at the prices of the flow's own
    network, the prices it was computed at: cap and tight-set commits
    scale prices without a new flow.
    """

    def __init__(self, market):
        self.market = market
        self.capped = []
        self._frozen = [[Fraction(0)] * market.m for _ in range(market.n)]  # departed goods
        self.network = None
        self.flow = None
        self.S = set()
        self.iteration = 0
        self.trace = []
        self.phases = []
        n, m, U = market.n, market.m, market.U
        self.max_phases = 8 * m * n * ((m + n).bit_length() + (m + n) * U.bit_length() + 1)
        self.price_bound = (m + n) * U ** (3 * (m + n))

    @property
    def alloc(self):
        alloc = [row[:] for row in self._frozen]
        _write_shares(alloc, self.flow, {j for j, p in enumerate(self.network.prices) if p})
        return alloc


def _write_shares(alloc, flow, goods):
    """Write x_ij = f_ij / p_j into ``alloc`` for the flow's edges into
    ``goods``, at the prices of the flow's own network."""
    denom, prices = flow.denom, flow.network.prices
    for row, paid in zip(alloc, flow.rows):
        for j, v in paid.items():
            if j in goods:
                p = prices[j]
                row[j] = Fraction(v * p.denominator, denom * p.numerator)


def initialize(market):
    """Fresh state: every price at the total money supply."""
    state = SolverState(market)
    prices = (Fraction(sum(market.budgets)),) * market.m
    alphas, edges = equality_graph(market, prices)
    active = [active_budget_at(market, i, alpha) for i, alpha in enumerate(alphas)]
    state.capped = [is_capped for _, is_capped in active]
    # an uncapped M_i comes back as the market's int; the network makes it a Fraction
    state.network = FlowNetwork.from_edges(tuple(money for money, _ in active), prices, edges)
    return state


def start_phase(state):
    """Recompute the balanced flow; pick the next phase's good set.

    Returns False (phase not started) once the total surplus is zero."""
    state.flow = balanced_flow(state.network)
    # the surpluses as integers over one denominator order as the rationals
    r, denom = state.flow._surplus_ints, state.flow.denom
    norm2 = Fraction(sum(v * v for v in r), denom * denom)
    if state.phases and state.phases[-1].norm2_end is None:
        state.phases[-1].norm2_end = norm2
    if sum(r) == 0:
        return False
    state.phases.append(
        PhaseStats(
            phase=len(state.phases) + 1,
            live_buyers=sum(1 for b in state.network.budgets if b),
            live_goods=sum(1 for p in state.network.prices if p),
            norm2_start=norm2,
        )
    )
    if len(state.phases) > state.max_phases:
        raise InvariantError("phase guard exceeded; norm decrease law broken")
    # a dead good has surplus 0 and some surplus is positive
    state.S = set(residual_reach(state.flow, (r.index(max(r)),)))
    state.iteration = 0
    return True


def next_event(state):
    """Largest scale x at which one of the three events fires.

    Ties resolve tight-set over new-edge over cap: a tight set must end the
    phase even when another event lands on the same scale, and a new edge
    must extend S before a capping buyer's money is counted as fixed, or an
    uncapped buyer of B' can be left spending outside S.

    Every candidate scale is an integer pair (num, den) with den > 0,
    ranked with ``ratio_sign``: the largest cap and new-edge scales and
    their ties against each kind's running best, then the kinds' winners
    against each other.  Only the winning scale becomes a Fraction.

    Whatever kind wins, the record's ``new_edges`` are the (h, j) pairs
    whose new-edge scale equals the event's: at that scale they are the
    new equality edges.
    """
    market = state.market
    network = state.network
    prices = network.prices
    bprime = {i for j in state.S for i in network.good_buyers[j]}
    b_c = {i for i in bprime if state.capped[i]}
    b_u = bprime - b_c

    # (num, den, kind, buyers) in ascending priority; with no event the
    # scale runs out at x = 0
    candidates = [(0, 1, ZERO_PRICE, tuple(sorted(bprime)))]

    # i caps at x = M_i alpha_i / c_i, alpha_i = u_ik / p_k on an edge (i, k)
    best_num, best_den, cap_buyers = 0, 1, []
    for i in sorted(b_u):
        c = market.caps[i]
        if c is None:
            continue
        k = network.buyer_goods[i][0]
        p = prices[k]
        num = market.budgets[i] * market.utilities[i][k] * p.denominator
        den = c * p.numerator
        sign = ratio_sign(num, den, best_num, best_den) if cap_buyers else 1
        if sign > 0:
            best_num, best_den, cap_buyers = num, den, [i]
        elif not sign:
            cap_buyers.append(i)
    if cap_buyers:
        candidates.append((best_num, best_den, CAP, tuple(cap_buyers)))

    # h outside B' gains (h, j) at x = u_hj / (alpha_h p_j).  alpha_h is
    # fixed (its edges all leave S), so h's pairs are the j of S with the
    # largest u_hj / p_j.
    in_s = [(j, prices[j].numerator, prices[j].denominator) for j in state.S]
    best_num, best_den, eq_pairs = 0, 1, []
    for h, money in enumerate(network.budgets):
        if h in bprime or not money:
            continue
        if not network.buyer_goods[h]:
            raise InvariantError(f"buyer {h} outside B' values nothing outside S")
        row = market.utilities[h]
        num, den, goods = 0, 1, []  # h's largest u_hj / p_j is num / den, at goods
        for j, p_num, p_den in in_s:
            u = row[j]
            if not u:
                continue
            n_j = u * p_den
            sign = ratio_sign(n_j, p_num, num, den) if goods else 1
            if sign > 0:
                num, den, goods = n_j, p_num, [j]
            elif not sign:
                goods.append(j)
        if not goods:
            continue
        k = network.buyer_goods[h][0]  # alpha_h = u_hk / p_k
        p = prices[k]
        num, den = num * p.numerator, den * row[k] * p.denominator
        sign = ratio_sign(num, den, best_num, best_den) if eq_pairs else 1
        if sign > 0:
            best_num, best_den, eq_pairs = num, den, []
        if sign >= 0:
            eq_pairs.extend((h, j) for j in goods)
    if eq_pairs:
        eq_buyers = tuple(sorted({h for h, _ in eq_pairs}))
        candidates.append((best_num, best_den, NEW_EDGE, eq_buyers))

    num, den, kind, affected = candidates[0]
    for candidate in candidates[1:]:
        if ratio_sign(candidate[0], candidate[1], num, den) >= 0:
            num, den, kind, affected = candidate

    # On a balanced flow of the live network (after a phase start or a
    # new-edge commit) S is closed, so B' spends all its money in S, and
    # each good of S keeps a surplus of at least r, the least over S.  A
    # buyer set T of B' then has U_T + V_T <= Q_T - r, so its scale
    # U_T / (Q_T - V_T) is at most U / (U + r); the search runs only when
    # that bound reaches the best scale so far (a tight set wins ties).
    # The same flow gives Q >= U + V + r, so a skipped search could not
    # have found S with negative surplus at scale 1.
    flow, u, r = state.flow, 0, 0
    if flow is not None and flow.network is network:
        budgets, surpluses = flow._capacities[0], flow._surplus_ints
        u = sum(budgets[i] for i in b_u)
        r = min(surpluses[j] for j in state.S)
    if not u + r or ratio_sign(u, u + r, num, den) >= 0:  # 0 / 0: no bound
        t_num, t_den, witness = tight_set_scale(network, state.S, b_u, b_c)
        if t_num and ratio_sign(t_num, t_den, num, den) >= 0:
            num, den, kind, affected = t_num, t_den, TIGHT_SET, tuple(sorted(witness))
    x_star = Fraction(num, den)
    if num > den:
        raise InvariantError(f"event scale {format_rational(x_star)} above 1")
    return EventRecord(
        kind=kind,
        x=x_star,
        buyers=affected,
        goods=tuple(sorted(state.S)),
        scaled_buyers=tuple(sorted(b_c)),
        new_edges=() if ratio_sign(best_num, best_den, num, den) else tuple(eq_pairs),
    )


def commit_event(state, event):
    """Apply an event: scale prices/budgets, run its bookkeeping and edit
    the live network by the event's rule.

    Returns the completed trace record; a record of a kind in
    ``PHASE_ENDS`` ends the phase."""
    market, network = state.market, state.network
    x, goods = event.x, set(event.goods)
    bprime = {i for j in goods for i in network.good_buyers[j]}
    if event.kind == ZERO_PRICE:
        # Refresh the balanced flow first so the shares frozen for the
        # departing goods reflect the current prices exactly.
        state.flow = balanced_flow(state.network)
        for i in event.buyers:
            if not state.flow.buyer_out(i):
                raise InvariantError(f"deleted buyer {i} held no allocation")
            if not state.capped[i]:
                raise InvariantError(f"zero-price deletion of uncapped buyer {i}")
        _write_shares(state._frozen, state.flow, goods)
    # x > 0 for all but a zero-price event: a cap or new-edge scale has a
    # positive utility in its numerator, a tight-set scale is U / g with
    # U > 0, and the candidate at 0 wins only when it is alone.  So a good or
    # buyer dies here, at x = 0, and nowhere else.
    prices = tuple(p * x if j in goods else p for j, p in enumerate(network.prices))
    scaled = set(event.scaled_buyers)
    budgets = tuple(b * x if i in scaled else b for i, b in enumerate(network.budgets))

    if event.kind == CAP:
        for i in event.buyers:
            state.capped[i] = True
    elif event.kind == ZERO_PRICE:
        for i, money in enumerate(budgets):
            if money and any(market.utilities[i][j] > 0 for j in goods):
                raise InvariantError("live buyer still values a deleted good")
    # B' keeps its edges into S for 0 < x < 1, loses every edge at x = 0 and
    # keeps edges leaving S at x = 1 (a cap that lost a tie to a new edge);
    # then the record's new edges join: any kind may add them, a tight set
    # ties with a new edge
    state.network = network.edited(
        budgets,
        prices,
        () if x == 1 else bprime,
        goods if x > 0 else (),
        event.new_edges,
    )
    if event.kind == NEW_EDGE:
        # balanced_flow's region precondition: x < 1, as no buyer outside B' had an edge into S
        state.flow = balanced_flow(state.network, state.flow, state.S)
        state.S |= set(residual_reach(state.flow, state.S))

    for j, p in enumerate(prices):  # a dead good's price is 0
        if abs(p.numerator) > state.price_bound or p.denominator > state.price_bound:
            raise InvariantError(f"price bit-length bound violated at good {j}")

    record = EventRecord(
        event.kind,
        event.x,
        event.buyers,
        event.goods,
        event.scaled_buyers,
        phase=len(state.phases),
        iteration=state.iteration,
        prices=prices,
        active_budgets=budgets,
        surplus_ints=state.flow._surplus_ints,
        surplus_denom=state.flow.denom,
        new_edges=event.new_edges,
    )
    state.trace.append(record)
    if event.kind in PHASE_ENDS:
        state.phases[-1].iterations = state.iteration
    return record


def solve_max_revenue(market):
    """Maximum-revenue modest MBB equilibrium of a market, by descending
    prices.  Returns the equilibrium in the units of the given market,
    together with the committed-event trace and per-phase statistics.
    Whatever the descent raises keeps its type and carries the state to
    replay it from: ``phase``, ``iteration``, ``S`` and ``event`` (see
    ``InvariantError``).

    The returned record is built by one ``verify_allocation`` pass over
    the final prices and allocation, so it is certified: a report with any
    violation raises InvariantError naming the violations (``fisheq
    solve`` exits 3), and no unchecked record reaches the caller."""
    normalized = normalize(market)
    stripped, kept_buyers, kept_goods = strip_trivial(normalized)
    state = initialize(stripped)
    pending = None  # kind of the event being committed
    try:
        while start_phase(state):
            kind = None  # of the latest committed record
            while kind not in PHASE_ENDS:
                event = next_event(state)
                if event.kind != ZERO_PRICE:
                    # The zero-price ending is not an evented iteration: the
                    # scale ran out without any of the three events firing.
                    state.iteration += 1
                    if state.iteration > 2 * stripped.n:
                        raise InvariantError("iteration guard exceeded within a phase")
                pending = event.kind
                kind = commit_event(state, event).kind
                pending = None
        # Fires only if start_phase is wrong: it ends the loop when surpluses
        # of a flow certified feasible, each at least 0, sum to 0.
        if any(state.flow._surplus_ints):
            raise InvariantError("descent ended with nonzero surplus")
    except Exception as bug:
        bug.phase, bug.iteration = len(state.phases), state.iteration
        bug.S, bug.event = tuple(sorted(state.S)), pending
        raise

    # Embed the stripped solution back into the original index space and
    # de-scale prices to the input's units.
    scale = stripped.budget_scale
    prices = [Fraction(0)] * market.m
    alloc = [[Fraction(0)] * market.m for _ in range(market.n)]
    solved = state.alloc
    for j_s, j in enumerate(kept_goods):
        prices[j] = state.network.prices[j_s] / scale
        for i_s, i in enumerate(kept_buyers):
            alloc[i][j] = solved[i_s][j_s]
    report, equilibrium, _ = verify_allocation(market, prices, alloc)
    if not report.ok:
        raise InvariantError(f"solver output fails to verify: {report.violations}")
    return SolveResult(
        equilibrium=equilibrium,
        trace=state.trace,
        phases=state.phases,
        final_surpluses=state.flow.surpluses(),
    )
