"""Exact flows on the money network.

The network has a source feeding every buyer (capacity = active budget),
uncapacitated buyer-to-good equality edges, and goods feeding a sink
(capacity = price).  Flow is money; the surplus of a good is its unspent
sink capacity.  Everything is exact: capacities are cleared to a common
denominator and all augmentation happens on integers.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvariantError


@dataclass(frozen=True)
class FlowNetwork:
    budgets: tuple
    prices: tuple
    edges: frozenset

    def __post_init__(self):
        object.__setattr__(self, "budgets", tuple(Fraction(b) for b in self.budgets))
        object.__setattr__(self, "prices", tuple(Fraction(p) for p in self.prices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        if any(b < 0 for b in self.budgets) or any(p < 0 for p in self.prices):
            raise ValueError("capacities must be nonnegative")
        buyer_goods = [[] for _ in range(self.n)]
        good_buyers = [[] for _ in range(self.m)]
        for i, j in sorted(self.edges):  # (i, j) order keeps both lists ascending
            if not (0 <= i < self.n and 0 <= j < self.m):
                raise ValueError(f"edge ({i}, {j}) out of range")
            buyer_goods[i].append(j)
            good_buyers[j].append(i)
        object.__setattr__(self, "buyer_goods", tuple(map(tuple, buyer_goods)))
        object.__setattr__(self, "good_buyers", tuple(map(tuple, good_buyers)))

    @property
    def n(self):
        return len(self.budgets)

    @property
    def m(self):
        return len(self.prices)


class Flow:
    """A feasible flow, stored as money per equality edge.  Source and sink
    edge flows are implied by conservation."""

    def __init__(self, network, edge_flow):
        self.network = network
        self.edge_flow = {e: Fraction(v) for e, v in edge_flow.items() if v}
        for (i, j), v in self.edge_flow.items():
            if (i, j) not in network.edges:
                raise ValueError(f"flow on non-edge ({i}, {j})")
            if v < 0:
                raise ValueError("negative flow")

    def buyer_out(self, i):
        return sum(
            (self.edge_flow.get((i, j), Fraction(0)) for j in self.network.buyer_goods[i]),
            Fraction(0),
        )

    def good_in(self, j):
        return sum(
            (self.edge_flow.get((i, j), Fraction(0)) for i in self.network.good_buyers[j]),
            Fraction(0),
        )

    @property
    def value(self):
        return sum(self.edge_flow.values(), Fraction(0))

    def surpluses(self):
        """r_j = p_j - f_jt for every good."""
        return tuple(
            self.network.prices[j] - self.good_in(j) for j in range(self.network.m)
        )

    def sources_saturated(self):
        return all(
            self.buyer_out(i) == self.network.budgets[i] for i in range(self.network.n)
        )

    def is_feasible(self):
        return all(
            self.buyer_out(i) <= self.network.budgets[i] for i in range(self.network.n)
        ) and all(
            self.good_in(j) <= self.network.prices[j] for j in range(self.network.m)
        )


def _clear_denominators(network):
    dens = [b.denominator for b in network.budgets]
    dens += [p.denominator for p in network.prices]
    scale = math.lcm(*dens) if dens else 1
    budgets = [int(b * scale) for b in network.budgets]
    prices = [int(p * scale) for p in network.prices]
    return scale, budgets, prices


def _augment_int(network, budgets, prices, flow, fsrc, fsink):
    """One round of shortest-augmenting-path search on integer capacities.
    Returns False when no augmenting path remains.  Deterministic: BFS
    visits buyers and goods in ascending index order."""
    n, m = network.n, network.m
    SRC, SNK = -1, -2
    parent = {}
    queue = deque()
    for i in range(n):
        if fsrc[i] < budgets[i]:
            parent[("b", i)] = SRC
            queue.append(("b", i))
    reached = False
    while queue and not reached:
        node = queue.popleft()
        kind, idx = node
        if kind == "b":
            for j in network.buyer_goods[idx]:
                if ("g", j) not in parent:
                    parent[("g", j)] = node
                    queue.append(("g", j))
        else:
            if fsink[idx] < prices[idx]:
                parent[("t", 0)] = node
                reached = True
                break
            for i in network.good_buyers[idx]:
                if ("b", i) not in parent and flow.get((i, idx), 0) > 0:
                    parent[("b", i)] = node
                    queue.append(("b", i))
    if not reached:
        return False
    # Walk the path backwards to find the bottleneck, then push.
    path = []
    node = parent[("t", 0)]
    while node != SRC:
        path.append(node)
        node = parent[node]
    path.reverse()  # b, g, b, g, ..., g
    bottleneck = budgets[path[0][1]] - fsrc[path[0][1]]
    for prev, cur in zip(path, path[1:]):
        if prev[0] == "g" and cur[0] == "b":  # backward arc, limited by flow
            bottleneck = min(bottleneck, flow[(cur[1], prev[1])])
    last_good = path[-1][1]
    bottleneck = min(bottleneck, prices[last_good] - fsink[last_good])
    fsrc[path[0][1]] += bottleneck
    fsink[last_good] += bottleneck
    for prev, cur in zip(path, path[1:]):
        if prev[0] == "b":
            key = (prev[1], cur[1])
            flow[key] = flow.get(key, 0) + bottleneck
        else:
            flow[(cur[1], prev[1])] -= bottleneck
    return True


def max_flow(network):
    """Deterministic exact maximum flow (shortest augmenting paths)."""
    scale, budgets, prices = _clear_denominators(network)
    flow, fsrc, fsink = {}, [0] * network.n, [0] * network.m
    while _augment_int(network, budgets, prices, flow, fsrc, fsink):
        pass
    return Flow(network, {e: Fraction(v, scale) for e, v in flow.items() if v})


def _residual_source_side(network, flow):
    """Buyers and goods reachable from the source in the residual network."""
    buyers, goods = set(), set()
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
                if i not in buyers and flow.edge_flow.get((i, idx), 0) > 0:
                    buyers.add(i)
                    queue.append(("b", i))
    return buyers, goods


def residual_reach(network, flow, targets):
    """Goods with a residual path to some target good, avoiding s and t.

    Arcs: buyer -> good always (uncapacitated equality edge), good -> buyer
    only where the edge carries flow.  Targets are included.
    """
    targets = set(targets)
    seen_goods = set(targets)
    seen_buyers = set()
    queue = deque(("g", j) for j in sorted(targets))
    while queue:
        kind, idx = queue.popleft()
        if kind == "g":
            # predecessors of a good: buyers with an equality edge to it
            for i in network.good_buyers[idx]:
                if i not in seen_buyers:
                    seen_buyers.add(i)
                    queue.append(("b", i))
        else:
            # predecessors of a buyer: goods it currently pays money to
            for j in network.buyer_goods[idx]:
                if j not in seen_goods and flow.edge_flow.get((idx, j), 0) > 0:
                    seen_goods.add(j)
                    queue.append(("g", j))
    return frozenset(seen_goods)


def is_balanced(network, flow):
    """Certificate for minimum-norm surplus: the flow is maximum, source
    edges are saturated, and no residual good-to-good path leads from a
    lower-surplus good to a higher-surplus one."""
    if not flow.is_feasible() or not flow.sources_saturated():
        return False
    buyers, goods = _residual_source_side(network, flow)
    for j in goods:
        if flow.good_in(j) < network.prices[j]:
            return False  # augmenting path exists, not maximum
    r = flow.surpluses()
    for k in range(network.m):
        # goods j below are the sources of residual paths j -> k; pushing
        # along such a path raises r_j and lowers r_k, an improvement
        # exactly when r_j < r_k.
        for j in residual_reach(network, flow, (k,)):
            if r[j] < r[k]:
                return False
    return True


def _masked(network, buyers, goods, prices_override=None, budgets_override=None):
    budgets = [Fraction(0)] * network.n
    for i in buyers:
        budgets[i] = (
            budgets_override[i] if budgets_override is not None else network.budgets[i]
        )
    prices = [Fraction(0)] * network.m
    for j in goods:
        prices[j] = (
            prices_override[j] if prices_override is not None else network.prices[j]
        )
    edges = frozenset((i, j) for i, j in network.edges if i in buyers and j in goods)
    return FlowNetwork(tuple(budgets), tuple(prices), edges)


def balanced_flow(network):
    """Maximum flow minimizing the Euclidean norm of the surplus vector.

    Water-filling by min-cut refinement: try to leave every good of the
    current block the same surplus (the block mean); where that level is
    infeasible the min cut of the reduced network splits the block and the
    two sides are refined independently.  The result is certified by
    is_balanced before being returned.
    """
    probe = max_flow(network)
    if not probe.sources_saturated():
        raise InvariantError("source edges not saturable; solver invariant violated")

    out = {}

    def refine(buyers, goods):
        if not goods:
            if any(network.budgets[i] > 0 for i in buyers):
                raise InvariantError("money left with no goods to absorb it")
            return
        total_p = sum((network.prices[j] for j in goods), Fraction(0))
        total_a = sum((network.budgets[i] for i in buyers), Fraction(0))
        delta = (total_p - total_a) / len(goods)
        if delta < 0:
            raise InvariantError("negative water level; block not saturable")
        reduced = [Fraction(0)] * network.m
        for j in goods:
            reduced[j] = max(network.prices[j] - delta, Fraction(0))
        sub = _masked(network, buyers, goods, prices_override=reduced)
        f = max_flow(sub)
        if all(f.buyer_out(i) == network.budgets[i] for i in buyers):
            clamped = {j for j in goods if network.prices[j] < delta}
            if not clamped:
                out.update(f.edge_flow)
                return
            # Clamped goods sit below the block level: they end with zero
            # flow at their own surplus p_j; refine the rest.
            refine(buyers, goods - clamped)
            return
        reach_buyers, reach_goods = _residual_source_side(sub, f)
        b1, g1 = buyers & reach_buyers, goods & reach_goods
        b2, g2 = buyers - b1, goods - g1
        if not g1 or not g2:
            raise InvariantError("degenerate min-cut split in water filling")
        refine(b1, g1)
        refine(b2, g2)

    refine(set(range(network.n)), set(range(network.m)))
    result = Flow(network, out)
    if not is_balanced(network, result):
        raise InvariantError("water filling produced an unbalanced flow")
    return result


def tight_set_scale(network, S, uncapped, capped):
    """Largest price scale x in [0, 1) at which a subset of the given
    buyers becomes tight on the goods S.

    Prices of S and the budgets of capped buyers scale with x while
    uncapped budgets stay fixed, so the candidate scale for a buyer set
    solves U + xV = Px.  Starting from the full set, an unsaturated test
    max-flow localizes the tight set on the source side of the minimum cut
    and the candidate is recomputed there; at most |B'| max-flows.

    Returns (x, witness buyer set); x = 0 with the full set as witness
    marks the all-capped (zero-price) case.
    """
    S = set(S)
    bu, bc = set(uncapped), set(capped)
    U = sum((network.budgets[i] for i in bu), Fraction(0))
    V = sum((network.budgets[i] for i in bc), Fraction(0))
    P = sum((network.prices[j] for j in S), Fraction(0))
    if U > 0 and P < U + V:
        raise InvariantError("goods of S carry negative surplus at scale 1")
    if U == 0:
        return Fraction(0), frozenset(bu | bc)
    while True:
        x = U / (P - V)
        budgets = [Fraction(0)] * network.n
        for i in bu:
            budgets[i] = network.budgets[i]
        for i in bc:
            budgets[i] = x * network.budgets[i]
        prices = [x * network.prices[j] if j in S else Fraction(0) for j in range(network.m)]
        test = _masked(
            network, bu | bc, S, prices_override=prices, budgets_override=budgets
        )
        f = max_flow(test)
        if all(f.buyer_out(i) == budgets[i] for i in bu | bc):
            return x, frozenset(bu | bc)
        reach_buyers, reach_goods = _residual_source_side(test, f)
        new_bu, new_bc = bu & reach_buyers, bc & reach_buyers
        new_S = S & reach_goods
        if len(new_bu | new_bc) >= len(bu | bc):
            raise InvariantError("tight-set recursion failed to shrink")
        bu, bc, S = new_bu, new_bc, new_S
        U = sum((network.budgets[i] for i in bu), Fraction(0))
        V = sum((network.budgets[i] for i in bc), Fraction(0))
        P = sum((network.prices[j] for j in S), Fraction(0))
        if U == 0:
            raise InvariantError("tight-set recursion lost every uncapped buyer")
