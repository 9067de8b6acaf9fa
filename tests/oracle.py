"""Independent test oracles for fisheq; nothing in the package uses them.

Two deliberately different routes to the same answers as the production
code: the balanced-flow checker peels the unique surplus levels off by
exhaustive max-mean-surplus enumeration (no min cuts anywhere), and the
equilibrium oracle drives the money-weighted log-utility program to a
KKT point with a damped proportional-response iteration in floating point
(no combinatorial flow machinery anywhere).  Neither is ever called by a
solve path.  ``min_cut`` reads the canonical minimum cut off a maximum
flow, as a strong-duality certificate for the exact max-flow, and
``reference_saturate`` is the plain shortest-augmenting-path max-flow
that the package's kernel must reproduce bit for bit,
``reference_residual_reach`` the residual closure as a plain fixpoint, and
``reference_balanced_flow`` the water filling as it was before it
skipped the probe and the one-good blocks' max-flows.  ``reference_verify``
and ``reference_equilibrium_from_allocation`` are the verifier and the
equilibrium builder as they were before each became one pass per buyer,
with their own copies of the buyer-side rules; the package's reports and
records must equal theirs.  ``reference_partition``, ``reference_meet``,
``reference_join`` and ``reference_min_revenue`` are the lattice and the
minimum-revenue postprocessor as they were before each distinct (prices,
allocation) was checked once per call: they verify every input, every
splice and every boundary equilibrium with ``verify`` and rebuild records
separately.  ``reference_min_revenue`` is also the postprocessor's old
algorithm, which scales sets of goods down one at a time, so it checks
the Bellman-Ford relaxation that replaced it independently.
``reference_allocation`` is the descent's
allocation as it was written at every balanced flow, before it was built
from the flow when read, and ``reference_next_event`` is the event search
on Fractions, before its candidates became integer pairs.  ``live_sets``
reads a descent's live buyers and goods off its trace's zero-price
records, as the descent kept them before a positive capacity in the live
network was the only record of liveness.
``reference_tight_set_scale`` is the tight-set scale by enumerating every
buyer set, with no max-flow.
``reference_equality_graph`` is the equality graph on Fractions, before
the pass that finds each buyer's ratio also collected the goods attaining
it; ``reference_min_revenue`` reads its edges from it.
``edge_flow`` reads a ``Flow``'s rational edge flows back and ``edges_of``
a ``FlowNetwork``'s edge set off its adjacency rows, which only the tests
need, and ``flow_from_edges`` builds a ``Flow`` from rational edge
flows, as the package's flow constructor did before it took integer rows
only.  ``reference_cleared`` clears a network's capacities with one lcm
over all n + m denominators, as ``FlowNetwork._cleared`` did before it
took one per distinct denominator.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from fisheq import (
    INF,
    EventRecord,
    Equilibrium,
    InvariantError,
    PricePartition,
    VerificationReport,
    equilibrium_from_allocation,
    format_rational,
    verify,
)
from fisheq.descend import CAP, NEW_EDGE, TIGHT_SET, ZERO_PRICE
from fisheq.flow import FlowNetwork, _assemble, is_balanced, max_flow, tight_set_scale
from fisheq.market import active_budget_at

_ENUMERATION_LIMIT = 14


class ConvergenceError(RuntimeError):
    """The numeric oracle did not converge within its iteration budget."""


def edge_flow(flow):
    """The rational money on each edge carrying flow: {(i, j): f_ij}."""
    return {
        (i, j): Fraction(v, flow.denom)
        for i, row in enumerate(flow.rows)
        for j, v in row.items()
    }


def edges_of(network):
    """The network's equality edges, {(buyer, good)}, off its buyer rows."""
    return frozenset((i, j) for i, row in enumerate(network.buyer_goods) for j in row)


def flow_from_edges(network, flows):
    """The ``Flow`` carrying the rational money ``flows[(i, j)]`` on each
    edge, cleared to integer rows over one denominator, a multiple of the
    network's D."""
    cleared, edges = {}, edges_of(network)
    for (i, j), v in flows.items():
        if not v:
            continue
        if (i, j) not in edges:
            raise ValueError(f"flow on non-edge ({i}, {j})")
        v = Fraction(v)
        if v < 0:
            raise ValueError("negative flow")
        cleared[(i, j)] = v
    denom = math.lcm(network._cleared[0], *(v.denominator for v in cleared.values()))
    rows = [{} for _ in range(network.n)]
    for (i, j), v in cleared.items():
        rows[i][j] = v.numerator * (denom // v.denominator)
    return _assemble(network, denom, [(1, range(network.n), rows)])


def reference_cleared(network):
    """(D, budgets * D, prices * D) with D the lcm of all n + m capacity
    denominators, and each capacity's quotient D / d taken on its own."""
    scale = math.lcm(*(c.denominator for c in network.budgets + network.prices))
    return (
        scale,
        [b.numerator * (scale // b.denominator) for b in network.budgets],
        [p.numerator * (scale // p.denominator) for p in network.prices],
    )


def _residual_source_side(network, flow):
    """Buyers and goods reachable from the source in the residual network."""
    buyers, goods = set(), set()
    flows = edge_flow(flow)
    queue = deque()
    for i in range(network.n):
        if flow.buyer_out(i) < network.budgets[i]:
            buyers.add(i)
            queue.append(("b", i))
    while queue:
        kind, idx = queue.popleft()
        if kind == "b":
            for j in network.buyer_goods[idx]:
                if j not in goods:
                    goods.add(j)
                    queue.append(("g", j))
        else:
            for i in network.good_buyers[idx]:
                if i not in buyers and flows.get((i, idx), 0) > 0:
                    buyers.add(i)
                    queue.append(("b", i))
    return buyers, goods


def reference_residual_reach(network, flow, targets):
    """Goods with a residual path to some target good, as a plain fixpoint
    over the residual arcs (buyer -> good along every edge, good -> buyer
    along an edge with positive rational flow): add every predecessor of
    what is reached until nothing new is."""
    paid = {edge for edge, v in edge_flow(flow).items() if v > 0}
    edges, goods = edges_of(network), set(targets)
    while True:
        buyers = {i for i, j in edges if j in goods}
        reached = goods | {j for i, j in paid if i in buyers}
        if reached == goods:
            return frozenset(goods)
        goods = reached


def min_cut(network, flow):
    """Canonical minimum cut: the residual-reachable set from the source.

    Node labels: "s", "t", ("buyer", i), ("good", j).
    """
    buyers, goods = _residual_source_side(network, flow)
    surpluses = flow.surpluses()
    for j in goods:
        if surpluses[j] > 0:
            raise ValueError("flow is not maximum")
    source_side = {"s"}
    source_side.update(("buyer", i) for i in buyers)
    source_side.update(("good", j) for j in goods)
    sink_side = {"t"}
    sink_side.update(("buyer", i) for i in range(network.n) if i not in buyers)
    sink_side.update(("good", j) for j in range(network.m) if j not in goods)
    return frozenset(source_side), frozenset(sink_side)


def reference_saturate(network, seeds, budgets, prices):
    """``fisheq.flow._saturate`` without its direct-edge sweep: augment
    from zero flow, one breadth-first search per path.

    Each search starts from the buyers of ``seeds`` (ascending) with
    budget left, follows buyer -> good along any edge and good -> buyer
    against flow, and stops at the first good reached with room.  Returns
    the flow (one {good: amount} dict per buyer), the money each buyer
    sends, and the buyers and goods the last, failed search reached.
    """
    n, m = len(budgets), len(prices)
    flow = [{} for _ in range(n)]
    fsrc, fsink = [0] * n, [0] * m

    def search():
        from_good, from_buyer = [None] * n, [None] * m
        layer = [i for i in seeds if fsrc[i] < budgets[i]]
        for i in layer:
            from_good[i] = -1
        while layer:
            goods = []
            for i in layer:
                for j in network.buyer_goods[i]:
                    if from_buyer[j] is None:
                        from_buyer[j] = i
                        if fsink[j] < prices[j]:
                            return j, from_good, from_buyer
                        goods.append(j)
            layer = []
            for j in goods:
                for i in network.good_buyers[j]:
                    if from_good[i] is None and flow[i].get(j, 0) > 0:
                        from_good[i] = j
                        layer.append(i)
        return None, from_good, from_buyer

    while True:
        end, from_good, from_buyer = search()
        if end is None:
            return flow, fsrc, (
                {i for i, g in enumerate(from_good) if g is not None},
                {j for j, b in enumerate(from_buyer) if b is not None},
            )
        bottleneck = prices[end] - fsink[end]
        i = from_buyer[end]
        while from_good[i] != -1:
            j = from_good[i]
            bottleneck = min(bottleneck, flow[i][j])
            i = from_buyer[j]
        bottleneck = min(bottleneck, budgets[i] - fsrc[i])
        fsrc[i] += bottleneck
        fsink[end] += bottleneck
        j = end
        while j != -1:
            i = from_buyer[j]
            flow[i][j] = flow[i].get(j, 0) + bottleneck
            j = from_good[i]
            if j != -1:
                flow[i][j] -= bottleneck


def reference_balanced_flow(network):
    """``fisheq.flow.balanced_flow`` as it was before it probed only at
    zero surplus and wrote one-good blocks down in closed form: a
    whole-network max-flow probe first, then every block, one-good blocks
    too, refined by a max-flow from zero (``reference_saturate``, whose
    flows and cuts the package's kernel reproduces).
    """
    probe = max_flow(network)
    if not probe.sources_saturated():
        raise InvariantError("source edges not saturable; solver invariant violated")

    scale, B, P = network._cleared
    n, m = network.n, network.m
    leaves = []  # (k, buyers, flow) of each block whose flow is final

    def refine(buyers, goods):
        if not goods:
            if any(B[i] > 0 for i in buyers):
                raise InvariantError("money left with no goods to absorb it")
            return
        k = len(goods)
        level = sum(P[j] for j in goods) - sum(B[i] for i in buyers)  # k * delta
        if level < 0:
            raise InvariantError("negative water level; block not saturable")
        seeds = sorted(buyers)
        budgets = [0] * n
        for i in seeds:
            budgets[i] = B[i] * k
        prices = [0] * m
        for j in goods:
            prices[j] = max(P[j] * k - level, 0)
        flow, fsrc, (reach_buyers, reach_goods) = reference_saturate(
            network, seeds, budgets, prices
        )
        if all(fsrc[i] == budgets[i] for i in seeds):
            clamped = {j for j in goods if P[j] * k < level}
            if not clamped:
                leaves.append((k, seeds, flow))
                return
            # Clamped goods sit below the block level: they end with zero
            # flow at their own surplus p_j; refine the rest.
            refine(buyers, goods - clamped)
            return
        b1, g1 = buyers & reach_buyers, goods & reach_goods
        b2, g2 = buyers - b1, goods - g1
        if not g1 or not g2:
            raise InvariantError("degenerate min-cut split in water filling")
        refine(b1, g1)
        refine(b2, g2)

    refine(set(range(n)), set(range(m)))
    result = _assemble(network, scale, leaves)
    if not is_balanced(result):
        raise InvariantError("water filling produced an unbalanced flow")
    return result


_FLAG_OF = {
    "price": "is_equilibrium",
    "allocation-range": "is_equilibrium",
    "overallocation": "is_equilibrium",
    "walras": "is_equilibrium",
    "budget": "is_equilibrium",
    "demand": "is_equilibrium",
    "modest": "is_modest",
    "mbb": "is_mbb",
    "spending": "is_mbb",
    "kkt-gamma": "kkt_ok",
    "kkt-slack": "kkt_ok",
}


def _fmt(value):
    if isinstance(value, Fraction):
        return format_rational(value)
    return str(value)


def _reference_mbb_ratio(market, prices, buyer, goods=None):
    best = Fraction(0)
    unbounded = False
    for j in range(market.m) if goods is None else goods:
        u = market.utilities[buyer][j]
        if u == 0:
            continue
        if prices[j] == 0:
            unbounded = True
        elif not unbounded:
            ratio = u / prices[j]
            if ratio > best:
                best = ratio
    return INF if unbounded else best


def reference_equality_graph(market, prices):
    """``equality_graph`` as it was before the pass that finds each ratio
    also collected the goods attaining it: the ratios from
    ``_reference_mbb_ratio``, then every valued pair tested against its
    buyer's ratio with a Fraction product."""
    alphas = tuple(_reference_mbb_ratio(market, prices, i) for i in range(market.n))
    edges = set()
    for i, alpha in enumerate(alphas):
        if alpha == 0:
            continue
        row = market.utilities[i]
        if alpha is INF:
            edges.update((i, j) for j, u in enumerate(row) if u and prices[j] == 0)
            continue
        for j, u in enumerate(row):
            if u and prices[j] > 0 and u == alpha * prices[j]:
                edges.add((i, j))
    return alphas, frozenset(edges)


def _reference_active_budget(market, prices, buyer):
    alpha = _reference_mbb_ratio(market, prices, buyer)
    if alpha == 0:
        return Fraction(0), False
    money = market.budgets[buyer]
    cap = market.caps[buyer]
    if cap is None:
        return money, False
    if alpha is INF:
        return Fraction(0), True
    needed = cap / alpha
    if needed <= money:
        return needed, True
    return money, False


def _reference_bundle_value(market, buyer, bundle):
    return sum((u * x for u, x in zip(market.utilities[buyer], bundle)), Fraction(0))


def _reference_capped_utility(market, buyer, value):
    cap = market.caps[buyer]
    return value if cap is None or value <= cap else cap


def _reference_spending(equilibrium, buyer):
    return sum(
        (p * x for p, x in zip(equilibrium.prices, equilibrium.allocation[buyer])),
        Fraction(0),
    )


def reference_equilibrium_from_allocation(market, prices, allocation):
    """Equilibrium record from prices and allocation, one rule at a time."""
    prices = tuple(Fraction(p) for p in prices)
    allocation = tuple(tuple(Fraction(x) for x in row) for row in allocation)
    if len(prices) != market.m or len(allocation) != market.n or any(
        len(row) != market.m for row in allocation
    ):
        raise ValueError("allocation and prices dimensionally inconsistent with market")
    metas = [_reference_active_budget(market, prices, i) for i in range(market.n)]
    return Equilibrium(
        prices=prices,
        allocation=allocation,
        active_budgets=tuple(meta[0] for meta in metas),
        capped=tuple(meta[1] for meta in metas),
        utilities=tuple(
            _reference_capped_utility(
                market, i, _reference_bundle_value(market, i, allocation[i])
            )
            for i in range(market.n)
        ),
    )


def reference_verify(market, equilibrium):
    """Every equilibrium condition, each on its own walk of the row, with
    three bang-per-buck computations per buyer."""
    prices = equilibrium.prices
    alloc = equilibrium.allocation
    if len(prices) != market.m or len(alloc) != market.n or any(
        len(row) != market.m for row in alloc
    ):
        raise ValueError("allocation and prices dimensionally inconsistent with market")

    report = VerificationReport()

    def flag(condition, index, lhs, rhs):
        setattr(report, _FLAG_OF[condition], False)
        report.violations.append((condition, index, _fmt(lhs), _fmt(rhs)))

    for j, p in enumerate(prices):
        if p < 0:
            flag("price", j, p, Fraction(0))
    for i, row in enumerate(alloc):
        for j, x in enumerate(row):
            if x < 0 or x > 1:
                flag("allocation-range", (i, j), x, "[0,1]")
    for j in range(market.m):
        sold = sum((alloc[i][j] for i in range(market.n)), Fraction(0))
        if sold > 1:
            flag("overallocation", j, sold, Fraction(1))
        if prices[j] > 0 and prices[j] * (1 - sold) != 0:
            flag("walras", j, prices[j] * (1 - sold), Fraction(0))

    priced = [j for j in range(market.m) if prices[j] > 0]
    for i in range(market.n):
        money = market.budgets[i]
        cap = market.caps[i]
        alpha = _reference_mbb_ratio(market, prices, i)
        spend = _reference_spending(equilibrium, i)
        raw_utility = _reference_bundle_value(market, i, alloc[i])
        utility = _reference_capped_utility(market, i, raw_utility)

        if spend > money:
            flag("budget", i, spend, money)
        if cap is not None and raw_utility > cap:
            flag("modest", i, raw_utility, cap)

        free = sum(
            (
                market.utilities[i][j]
                for j in range(market.m)
                if prices[j] == 0 and market.utilities[i][j] > 0
            ),
            Fraction(0),
        )
        finite_alpha = _reference_mbb_ratio(market, prices, i, priced)
        optimal = _reference_capped_utility(market, i, free + finite_alpha * money)
        if utility != optimal:
            flag("demand", i, utility, optimal)

        for j in range(market.m):
            if alloc[i][j] == 0:
                continue
            u = market.utilities[i][j]
            if alpha is INF:
                if prices[j] != 0 or u == 0:
                    flag("mbb", (i, j), u, "free-good ratio")
            elif prices[j] == 0 or u != alpha * prices[j]:
                flag("mbb", (i, j), u if prices[j] == 0 else u / prices[j], alpha)

        if alpha == 0:
            if spend != 0:
                flag("spending", i, spend, Fraction(0))
            continue
        required, _ = _reference_active_budget(market, prices, i)
        if spend != required:
            flag("spending", i, spend, required)

        if utility > 0:
            inv_alpha = Fraction(0) if alpha is INF else 1 / alpha
            gamma = money / utility - inv_alpha
            if gamma < 0:
                flag("kkt-gamma", i, gamma, Fraction(0))
            elif gamma > 0 and (cap is None or utility != cap):
                flag("kkt-slack", i, utility, cap if cap is not None else "inf")

    return report


def _reference_touched(alloc, goods):
    return frozenset(
        i for i, row in enumerate(alloc) if any(row[j] > 0 for j in goods)
    )


def _reference_checked(market, equilibrium, name):
    report = verify(market, equilibrium)
    if not report.ok:
        raise ValueError(
            f"{name} is not a modest MBB equilibrium: {report.violations}"
        )


def reference_partition(market, first, second):
    """``partition`` verifying both inputs and reading their stored
    capped flags."""
    _reference_checked(market, first, "first equilibrium")
    _reference_checked(market, second, "second equilibrium")
    equal, below, above = [], [], []
    for j in range(market.m):
        if first.prices[j] == second.prices[j]:
            equal.append(j)
        elif first.prices[j] < second.prices[j]:
            below.append(j)
        else:
            above.append(j)
    groups = {}
    for name, goods in (("equal", equal), ("below", below), ("above", above)):
        mine = _reference_touched(first.allocation, goods)
        theirs = _reference_touched(second.allocation, goods)
        if mine != theirs:
            raise InvariantError(
                f"buyer sets for {name}-priced goods differ: {sorted(mine)} vs {sorted(theirs)}"
            )
        groups[name] = mine
    if (
        groups["equal"] & groups["below"]
        or groups["equal"] & groups["above"]
        or groups["below"] & groups["above"]
    ):
        raise InvariantError("buyer groups of the price partition overlap")
    for i in groups["below"] | groups["above"]:
        if not (first.capped[i] and second.capped[i]):
            raise InvariantError(f"buyer {i} moves prices while uncapped")
    return PricePartition(
        equal=tuple(equal),
        below=tuple(below),
        above=tuple(above),
        buyers_equal=groups["equal"],
        buyers_below=groups["below"],
        buyers_above=groups["above"],
    )


def _reference_splice(market, first, second, take_second):
    prices, columns = [], []
    for j in range(market.m):
        if j in take_second:
            prices.append(second.prices[j])
            columns.append([second.allocation[i][j] for i in range(market.n)])
        else:
            prices.append(first.prices[j])
            columns.append([first.allocation[i][j] for i in range(market.n)])
    alloc = tuple(
        tuple(columns[j][i] for j in range(market.m)) for i in range(market.n)
    )
    result = equilibrium_from_allocation(market, tuple(prices), alloc)
    report = verify(market, result)
    if not report.ok:
        raise InvariantError(f"spliced equilibrium fails to verify: {report.violations}")
    return result


def reference_join(market, first, second):
    """``join`` checking both inputs and the splice, each on its own."""
    split = reference_partition(market, first, second)
    return _reference_splice(market, first, second, set(split.below))


def reference_meet(market, first, second):
    """``meet`` checking both inputs and the splice, each on its own."""
    split = reference_partition(market, first, second)
    return _reference_splice(market, first, second, set(split.above))


def _reference_scalable_set(market, prices, alloc, edges, capped):
    neighbors = [set() for _ in range(market.m)]
    for i, j in edges:
        neighbors[j].add(i)
    S = {
        j
        for j in range(market.m)
        if prices[j] > 0 and all(capped[i] for i in neighbors[j])
    }
    while True:
        bprime = {i for i, j in edges if j in S}
        bad = {
            i
            for i in bprime
            if any(alloc[i][g] > 0 for g in range(market.m) if g not in S)
        }
        if not bad:
            return S, bprime
        S -= {j for j in S if neighbors[j] & bad}


def reference_min_revenue(market, equilibrium):
    """``min_revenue`` with a verify of the input, a ratio pass per loop,
    and a separate build and verify of each boundary equilibrium."""
    report = verify(market, equilibrium)
    if not report.ok:
        raise ValueError(f"input is not a modest MBB equilibrium: {report.violations}")
    prices = list(equilibrium.prices)
    alloc = [list(row) for row in equilibrium.allocation]

    guard = 64 + 4 * market.m * (market.n + 1) ** 2
    loops = 0
    boundary = None
    while True:
        loops += 1
        if loops > guard:
            raise InvariantError("minimum-revenue loop guard exceeded")
        alphas, edges = reference_equality_graph(market, prices)
        capped = [active_budget_at(market, i, alpha)[1] for i, alpha in enumerate(alphas)]
        S, bprime = _reference_scalable_set(market, prices, alloc, edges, capped)
        if not S:
            break
        if any(not capped[i] for i in bprime):
            raise InvariantError("uncapped buyer attached to a scalable set")

        x_star = Fraction(0)
        for h in range(market.n):
            alpha = alphas[h]
            if h in bprime or alpha == 0 or alpha is INF:
                continue
            for j in S:
                u = market.utilities[h][j]
                if u > 0:
                    x_star = max(x_star, u / (alpha * prices[j]))
        if x_star >= 1:
            raise InvariantError("scaling candidate not below 1")
        for j in S:
            prices[j] *= x_star

        boundary = equilibrium_from_allocation(market, prices, alloc)
        boundary_report = verify(market, boundary)
        if not boundary_report.ok:
            raise InvariantError(
                f"postprocessing left the equilibrium set: {boundary_report.violations}"
            )
    if boundary is not None:
        return boundary
    return equilibrium_from_allocation(
        market, tuple(prices), tuple(tuple(row) for row in alloc)
    )


def live_sets(state):
    """The buyers and goods of the descent ``state`` that no zero-price
    record of its trace has deleted."""
    buyers, goods = set(range(state.market.n)), set(range(state.market.m))
    for record in state.trace:
        if record.kind == ZERO_PRICE:
            buyers -= set(record.buyers)
            goods -= set(record.goods)
    return buyers, goods


def reference_allocation(alloc, state, flow):
    """Replay the eager allocation rule for a balanced flow ``flow`` of
    the live network, before the descent stores it: zero the live-good
    entries that ``state.flow`` (the flow before it) wrote, then write
    ``flow`` at the current prices.  ``alloc`` is updated in place and
    returned."""
    if state.flow is not None:
        zero, live = Fraction(0), live_sets(state)[1]
        for row, goods in zip(alloc, state.flow.rows):
            for j in goods:
                if j in live:
                    row[j] = zero
    denom, prices = flow.denom, state.network.prices
    for i, row in enumerate(flow.rows):
        for j, v in row.items():
            p = prices[j]
            alloc[i][j] = Fraction(v * p.denominator, denom * p.numerator)
    return alloc


def set_scale(network, S, uncapped, buyers):
    """U_T / (Q_T - V_T) for the buyer set T = ``buyers``, on the network's
    Fractions: U_T and V_T are the budgets of T's uncapped and capped
    buyers and Q_T the prices of the goods of S with an edge from T.  At
    that price scale T's money first fills those goods.  None when U_T is
    0."""
    U = sum((network.budgets[i] for i in buyers if i in uncapped), Fraction(0))
    if not U:
        return None
    V = sum((network.budgets[i] for i in buyers if i not in uncapped), Fraction(0))
    goods = {j for i in buyers for j in network.buyer_goods[i] if j in S}
    return U / (sum((network.prices[j] for j in goods), Fraction(0)) - V)


def reference_tight_set_scale(network, S, uncapped, capped):
    """The tight-set scale by brute force: the largest ``set_scale`` over
    every set of the buyers ``uncapped`` and ``capped`` with an uncapped
    buyer; 0 when there is none."""
    buyers = sorted(set(uncapped) | set(capped))
    scales = (
        set_scale(network, S, uncapped, T)
        for size in range(1, len(buyers) + 1)
        for T in itertools.combinations(buyers, size)
    )
    return max((x for x in scales if x is not None), default=Fraction(0))


def _reference_alpha(state, i):
    j = state.network.buyer_goods[i][0]
    return state.market.utilities[i][j] / state.network.prices[j]


def reference_next_event(state):
    """The largest event scale, each cap and new-edge candidate a Fraction,
    and the new-edge pairs at that scale on the record, as the solver's
    search puts them there."""
    market = state.market
    network = state.network
    prices = network.prices
    bprime = {i for j in state.S for i in network.good_buyers[j]}
    b_c = {i for i in bprime if state.capped[i]}
    b_u = bprime - b_c

    # (x, priority, kind, buyers); with no event the scale runs out at x = 0
    candidates = [(Fraction(0), -1, ZERO_PRICE, tuple(sorted(bprime)))]

    best_cap, cap_buyers = None, []
    for i in sorted(b_u):
        cap = market.caps[i]
        if cap is None:
            continue
        x = market.budgets[i] * _reference_alpha(state, i) / cap
        if best_cap is None or x > best_cap:
            best_cap, cap_buyers = x, [i]
        elif x == best_cap:
            cap_buyers.append(i)
    if best_cap is not None:
        candidates.append((best_cap, 0, CAP, tuple(cap_buyers)))

    # h outside B' gains (h, j) at x = u_hj / (alpha_h p_j).  alpha_h is
    # fixed (its edges all leave S), so h's pairs are the j of S with the
    # largest u_hj / p_j, found by integer cross-multiplication.
    in_s = [(j, prices[j].numerator, prices[j].denominator) for j in state.S]
    best_eq, eq_pairs = None, []
    for h in sorted(live_sets(state)[0] - bprime):
        if not network.buyer_goods[h]:
            raise InvariantError(f"buyer {h} outside B' values nothing outside S")
        row = market.utilities[h]
        num, den, goods = 0, 1, []  # h's largest u_hj / p_j is num / den, at goods
        for j, p_num, p_den in in_s:
            u = row[j]
            if not u:
                continue
            n_j, d_j = u.numerator * p_den, u.denominator * p_num
            if n_j * den > num * d_j:
                num, den, goods = n_j, d_j, [j]
            elif n_j * den == num * d_j:
                goods.append(j)
        if not goods:
            continue
        k = network.buyer_goods[h][0]  # alpha_h = u_hk / p_k
        u, p = row[k], prices[k]
        x = Fraction(num * u.denominator * p.numerator, den * u.numerator * p.denominator)
        if best_eq is None or x > best_eq:
            best_eq, eq_pairs = x, []
        if x == best_eq:
            eq_pairs.extend((h, j) for j in goods)
    if best_eq is not None:
        eq_buyers = tuple(sorted({h for h, _ in eq_pairs}))
        candidates.append((best_eq, 1, NEW_EDGE, eq_buyers))

    num, den, witness = tight_set_scale(network, state.S, b_u, b_c)
    if num:
        candidates.append((Fraction(num, den), 2, TIGHT_SET, tuple(sorted(witness))))

    x_star, _, kind, affected = max(candidates, key=lambda c: (c[0], c[1]))
    if x_star > 1:
        raise InvariantError(f"event scale {x_star} above 1")
    return EventRecord(
        kind=kind,
        x=x_star,
        buyers=affected,
        goods=tuple(sorted(state.S)),
        scaled_buyers=tuple(sorted(b_c)),
        new_edges=tuple(eq_pairs) if best_eq == x_star else (),
    )


def balanced_surplus_levels(network):
    """The unique surplus vector of a balanced flow, by brute force.

    Peels the good set level by level: the goods of maximal mean
    irreducible surplus (price sum minus the budgets that can reach them,
    per good) all sit at that mean in the balanced flow, and their buyers
    never spend outside them.  Exhaustive over subsets, so desk scale only.
    """
    n, m = network.n, network.m
    if m > _ENUMERATION_LIMIT:
        raise ValueError(f"enumeration oracle limited to {_ENUMERATION_LIMIT} goods")
    adjacent = [
        frozenset(network.good_buyers[j]) for j in range(m)
    ]
    levels = [None] * m
    rest_goods = sorted(range(m))
    rest_buyers = set(range(n))
    while rest_goods:
        best_mean, best_union = None, set()
        k = len(rest_goods)
        for mask in range(1, 1 << k):
            subset = [rest_goods[b] for b in range(k) if mask >> b & 1]
            price_sum = sum((network.prices[j] for j in subset), Fraction(0))
            touching = set().union(*(adjacent[j] for j in subset)) & rest_buyers
            money = sum((network.budgets[i] for i in touching), Fraction(0))
            mean = (price_sum - money) / len(subset)
            if best_mean is None or mean > best_mean:
                best_mean, best_union = mean, set(subset)
            elif mean == best_mean:
                best_union |= set(subset)
        if best_mean < 0:
            raise InvariantError("negative surplus level; sources not saturable")
        for j in best_union:
            levels[j] = best_mean
        rest_buyers -= set().union(*(adjacent[j] for j in best_union))
        rest_goods = [j for j in rest_goods if j not in best_union]
    return tuple(levels)


def equalize_balanced(network):
    """Balanced flow via the enumeration oracle: compute the target surplus
    levels exhaustively, then realize them with one capped max-flow."""
    probe = max_flow(network)
    if not probe.sources_saturated():
        raise InvariantError("source edges not saturable")
    levels = balanced_surplus_levels(network)
    targets = tuple(p - r for p, r in zip(network.prices, levels))
    realization = FlowNetwork.from_edges(network.budgets, targets, edges_of(network))
    f = max_flow(realization)
    if not f.sources_saturated():
        raise InvariantError("enumerated levels are not realizable")
    result = flow_from_edges(network, edge_flow(f))
    if not is_balanced(result):
        raise InvariantError("enumeration oracle produced an unbalanced flow")
    return result


def _trim_to_caps(U, caps, x):
    """Scale overshooting rows back onto the cap: same utility, modest."""
    x = x.copy()
    raw = (U * x).sum(axis=1)
    for i in range(U.shape[0]):
        if np.isfinite(caps[i]) and raw[i] > caps[i] > 0:
            x[i] *= caps[i] / raw[i]
    return x


def _dual_estimate(U, money, caps, x, share_thresh=1e-7):
    """Dual-feasible KKT multipliers from a primal point.

    nu_i estimates 1/alpha_i.  Buyers below their cap pin nu_i = M_i/u_i;
    capped buyers start at zero and are ratcheted up only by competing bids
    on the goods that carry a meaningful share of their utility (a capped
    buyer's own bid must never set its price, or any level would be
    self-consistent).  The least fixed point is the minimum-revenue dual,
    which certifies optimality as well as any other equilibrium prices.
    """
    n, m = U.shape
    utility = np.maximum((U * x).sum(axis=1), 1e-300)
    capped = utility >= caps * (1.0 - 1e-7)
    nu = np.where(capped, 0.0, money / utility)
    for _ in range(4 * n + 8):
        changed = False
        for i in range(n):
            if not capped[i]:
                continue
            pressure = 0.0
            for j in range(m):
                if U[i, j] * x[i, j] <= share_thresh * utility[i]:
                    continue
                competing = max(
                    (U[k, j] * nu[k] for k in range(n) if k != i), default=0.0
                )
                pressure = max(pressure, competing / U[i, j])
            pressure = min(pressure, money[i] / utility[i])
            if pressure > nu[i] * (1.0 + 1e-15):
                nu[i] = pressure
                changed = True
        if not changed:
            break
    prices = (U * nu[:, None]).max(axis=0)
    return nu, prices


def _kkt_gap(U, money, caps, x):
    """Aggregate KKT residual of a feasible primal point, as a duality gap.

    With the duals of _dual_estimate (feasible by construction), the gap
    collapses to sum(p) + sum(gamma*c) - sum(M), which equals the sum of
    the three complementarity residuals: unsold priced supply, money spent
    off the best bang per buck, and positive gamma away from the cap.
    Always nonnegative up to rounding; zero exactly at an optimum.
    """
    nu, prices = _dual_estimate(U, money, caps, x)
    utility = np.maximum(np.minimum((U * x).sum(axis=1), caps), 1e-300)
    gamma = np.maximum(money / utility - nu, 0.0)
    cap_term = float((gamma[np.isfinite(caps)] * caps[np.isfinite(caps)]).sum())
    return float(prices.sum()) + cap_term - float(money.sum()), prices


def solve_eg_numeric(market, tol=1e-9, max_iters=1_000_000):
    """Approximate optimum of the money-weighted log-utility program
    (floating point; permitted here and only here).

    First-order scheme: damped proportional response.  Every round each
    buyer splits its current spending over the goods in proportion to the
    utility they contribute, prices form as the column sums, and spending
    adapts multiplicatively toward the active budget min(M_i, c_i/alpha_i).
    Stops when the aggregate KKT complementarity residual (a duality gap,
    see _kkt_gap) falls below tol * min(M).  The objective is first-order
    flat between co-buyers of a good, so a gap of g only pins utilities to
    about sqrt(2 g / M_i) relative error; the tight threshold buys 1e-4
    utilities at the default tolerance.  Raises on non-convergence instead
    of silently returning.
    """
    if tol < 1e-9:
        raise ValueError("tolerance below 1e-9 is not supported")
    U = np.array([[float(u) for u in row] for row in market.utilities])
    money = np.array([float(b) for b in market.budgets])
    caps = np.array(
        [float(c) if c is not None else np.inf for c in market.caps]
    )
    n, m = U.shape
    if np.any((U > 0).sum(axis=1) == 0) or np.any((U > 0).sum(axis=0) == 0):
        raise ValueError("oracle needs every buyer valued and every good valued")

    finite = np.isfinite(caps)
    budget = tol * float(money.min())
    spent_iters = 0
    # Progressively heavier damping on restart; the certificate makes a
    # wrong answer impossible, damping only buys convergence.
    for spend_damp, bid_damp in ((0.5, 0.7), (0.25, 0.4), (0.125, 0.2)):
        iters = max(1, min(max_iters - spent_iters, max_iters // 3))
        x = np.where(U > 0, 1.0 / n, 0.0)
        spend = money.copy()
        bids = None
        for t in range(1, iters + 1):
            contribution = U * x
            utility = np.maximum(contribution.sum(axis=1), 1e-300)
            target = spend[:, None] * contribution / utility[:, None]
            bids = target if bids is None else (1 - bid_damp) * bids + bid_damp * target
            prices = bids.sum(axis=0)
            x = np.divide(
                bids, prices[None, :], out=np.zeros_like(bids), where=prices[None, :] > 0
            )
            ratio = np.where(finite, caps / utility, 1.0)
            spend = np.minimum(money, spend * ratio**spend_damp)
            if t % 50 == 0:
                candidate = _trim_to_caps(U, caps, x.copy())
                gap, _ = _kkt_gap(U, money, caps, candidate)
                if gap <= budget:
                    utilities = np.minimum((U * candidate).sum(axis=1), caps)
                    return tuple(float(u) for u in utilities), candidate
        spent_iters += iters
    raise ConvergenceError(f"no KKT point within {max_iters} iterations")
