"""Exact flows on the money network.

The network has a source feeding every buyer (capacity = active budget),
uncapacitated buyer-to-good equality edges, and goods feeding a sink
(capacity = price).  Flow is money; the surplus of a good is its unspent
sink capacity.  Everything is exact and on integers: a network clears its
capacities to a common denominator D once, all augmentation happens on
those integers, and a flow holds integer money per edge over one
denominator (a multiple of D).  Fractions are made only at the API.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from functools import cached_property

from .errors import InvariantError
from .exact import as_fraction
from .record import FrozenRecord


class FlowNetwork(FrozenRecord):
    """Capacities ``budgets`` (source -> buyer) and ``prices`` (good ->
    sink), tuples of Fractions, and the equality edges as adjacency rows
    only, each an ascending tuple: ``buyer_goods[i]``, ``good_buyers[j]``.
    ``from_edges`` builds and checks one; ``edited`` derives the next."""

    def __init__(self, budgets, prices, buyer_goods, good_buyers):
        self.__dict__.update(
            budgets=budgets, prices=prices, buyer_goods=buyer_goods, good_buyers=good_buyers
        )

    @classmethod
    def from_edges(cls, budgets, prices, edges):
        """The network with the (buyer, good) pairs ``edges``; capacities go
        through ``as_fraction``.  ValueError on a float or bool capacity, a
        negative one or an edge out of range."""
        budgets, prices = tuple(map(as_fraction, budgets)), tuple(map(as_fraction, prices))
        if any(c.numerator < 0 for c in budgets + prices):
            raise ValueError("capacities must be nonnegative")
        n, m = len(budgets), len(prices)
        buyer_goods = [[] for _ in range(n)]
        good_buyers = [[] for _ in range(m)]
        for i, j in sorted(set(edges)):  # (i, j) order keeps both lists ascending
            if not (0 <= i < n and 0 <= j < m):
                raise ValueError(f"edge ({i}, {j}) out of range")
            buyer_goods[i].append(j)
            good_buyers[j].append(i)
        rows = tuple(map(tuple, buyer_goods)), tuple(map(tuple, good_buyers))
        return cls(budgets, prices, *rows)

    def edited(self, budgets, prices, buyers, keep, added):
        """This network at the capacities ``budgets`` and ``prices`` (tuples
        of Fractions), where each buyer of ``buyers`` keeps only its edges
        into the goods ``keep``, and then the new edges ``added`` join.

        Only the rows of the buyers and goods whose edges change are
        rewritten, each still ascending; every other row is shared with
        this network.
        """
        if any(c.numerator < 0 for c in budgets + prices):
            raise ValueError("capacities must be nonnegative")
        goods_of, buyers_of = {}, {}
        for i in buyers:
            row = self.buyer_goods[i]
            kept = [j for j in row if j in keep]
            if len(kept) == len(row):
                continue
            goods_of[i] = kept
            for j in row:
                if j not in keep:
                    buyers_of.setdefault(j, list(self.good_buyers[j])).remove(i)
        for i, j in added:
            insort(goods_of.setdefault(i, list(self.buyer_goods[i])), j)
            insort(buyers_of.setdefault(j, list(self.good_buyers[j])), i)
        buyer_goods, good_buyers = list(self.buyer_goods), list(self.good_buyers)
        for i, row in goods_of.items():
            buyer_goods[i] = tuple(row)
        for j, column in buyers_of.items():
            good_buyers[j] = tuple(column)
        return FlowNetwork(budgets, prices, tuple(buyer_goods), tuple(good_buyers))

    @property
    def n(self):
        return len(self.budgets)

    @property
    def m(self):
        return len(self.prices)

    @cached_property
    def _cleared(self):
        """(D, budgets * D, prices * D): every capacity as an integer over
        D, the lcm of their denominators.  Capacities share denominators
        (an event scales S's prices and B''s capped budgets by one x, and
        many are integers), so the lcm and the quotients D / d are taken
        once per distinct denominator d."""
        denominators = {c.denominator for c in self.budgets + self.prices}
        scale = math.lcm(*denominators)
        factor = {d: scale // d for d in denominators}
        return (
            scale,
            [b.numerator * factor[b.denominator] for b in self.budgets],
            [p.numerator * factor[p.denominator] for p in self.prices],
        )


class Flow:
    """A flow on the equality edges: ``rows[i]`` maps each good j that
    buyer i pays to a positive integer v, the money v / ``denom`` on edge
    (i, j).  ``denom`` is a multiple of the network's D, so the capacities
    rescale to it exactly and every test is an integer comparison.  Source
    and sink edge flows are implied by conservation.

    Built by ``_assemble``, which also sums each buyer's outflow and each
    good's inflow.  ``buyer_out`` and ``surpluses`` give the rationals back.
    """

    def __init__(self, network, rows, denom, out, into):
        self.network, self.rows, self.denom = network, rows, denom
        self._out, self._into = out, into

    @cached_property
    def _capacities(self):
        """The network's cleared budgets and prices, rescaled to denom."""
        scale, budgets, prices = self.network._cleared
        k = self.denom // scale
        return [b * k for b in budgets], [p * k for p in prices]

    def buyer_out(self, i):
        return Fraction(self._out[i], self.denom)

    @cached_property
    def _surplus_ints(self):
        """p_j - f_jt for every good, as integers over denom."""
        return tuple(p - f for p, f in zip(self._capacities[1], self._into))

    def surpluses(self):
        """r_j = p_j - f_jt for every good; goods at one level (the goods
        of a water-filling leaf) share one Fraction."""
        return shared_fractions(self._surplus_ints, self.denom)

    def sources_saturated(self):
        return self._out == self._capacities[0]

    def is_feasible(self):
        budgets, prices = self._capacities
        return all(f <= b for f, b in zip(self._out, budgets)) and all(
            f <= p for f, p in zip(self._into, prices)
        )


def shared_fractions(values, denom):
    """The Fractions v / denom for the integers ``values``, one Fraction
    per distinct value."""
    made = {}
    return tuple(
        made[v] if v in made else made.setdefault(v, Fraction(v, denom)) for v in values
    )


def _search(network, rich, prices, flow, fsink, from_good, from_buyer):
    """Shortest augmenting path search on integer capacities, as a
    generator of the goods with sink capacity left that it reaches.

    Breadth first from the buyers ``rich`` (ascending: the buyers with
    budget left); buyer -> good along any edge, good -> buyer only against
    flow.  The search tree goes into the marker lists it is given, all
    None at the start: for each buyer the good it was reached from (-1
    for the source), for each good the buyer, None where the search did
    not reach.  A buyer or good of zero capacity is a dead end, so zeroing
    capacities masks the network without changing which paths are found.
    A good reached full with no sink flow (a zeroed good) is marked but
    not expanded: no buyer pays it, so it leads to nobody.

    While a path over a single equality edge exists, the first layer
    yields it first: the lowest buyer with budget left and a good with
    room, and that buyer's lowest good with room (a good seen earlier in
    the layer is full).  ``_saturate`` routes all of those paths in one
    sweep before it searches, so every path found here crosses at least
    three equality edges.

    The search goes on from a good it yielded as if that good had been
    full when reached: marked and expanded.  ``_saturate`` resumes it only
    after a push that filled that good and changed nothing else a search
    reads (see there).
    """
    buyer_goods, good_buyers = network.buyer_goods, network.good_buyers
    for i in rich:
        from_good[i] = -1
    layer = rich
    while layer:
        goods = []
        for i in layer:
            for j in buyer_goods[i]:
                if from_buyer[j] is None:
                    from_buyer[j] = i
                    if fsink[j] < prices[j]:
                        yield j
                    if fsink[j]:
                        goods.append(j)
        layer = []
        for j in goods:
            for i in good_buyers[j]:
                if from_good[i] is None and flow[i].get(j, 0) > 0:
                    from_good[i] = j
                    layer.append(i)


_EMPTY_ROW = {}  # the row of every buyer outside a block or paying nothing; never written


def _saturate(network, seeds, budgets, prices):
    """Maximum flow on integer capacities over the network's edges, from
    the buyers ``seeds`` (ascending; every other buyer has budget 0).

    Returns the flow (one {good: amount} dict per buyer, entries may be
    0), whether every seed sends its whole budget, and the last, failed
    search's marker lists ``(from_good, from_buyer)``: the buyers and
    goods whose marker is not None are the source side of a minimum cut.
    Only seeds carry flow, so every other buyer's row is the shared, empty
    ``_EMPTY_ROW``, and nothing here walks the nodes outside the block.

    The result is that of augmenting from zero flow along the paths a
    fresh ``_search`` finds, with fewer searches.  Those searches first
    return every path over a single equality edge: each time the lowest
    buyer with budget left and a good with room, and that buyer's lowest
    good with room, pushed by the smaller of the two.  Such a push cancels
    no flow and only fills goods, so a buyer passed over (out of money, or
    every good full) never gets such a path again.  The sweep below makes
    the same pushes in the same order, so the flow (down to the insertion
    order of each buyer's dict), the money sent and every later search
    come out the same.  The sweep also lists the buyers left with money,
    ``rich``; a push that spends its root's last money takes the root off.

    A push whose root keeps money and which empties no flow it cancels
    fills its end good and changes nothing else a search reads: the
    buyers with money are the same, and the new flow only opens arcs from
    the path's goods back to the path's buyers, which the search reached
    before those goods.  A fresh search would retrace the last one up to
    the end good, then find it full, mark it and expand it, which is where
    the resumed search goes on; so the same search serves the next path.
    Any other push starts a fresh search.  The search that runs dry is one
    a fresh search would repeat, so it leaves the same cut.
    """
    buyer_goods = network.buyer_goods
    n, m = len(budgets), len(prices)
    flow = [_EMPTY_ROW] * n
    fsrc, fsink, rich = [0] * n, [0] * m, []
    for i in seeds:
        flow[i] = row = {}
        left = budgets[i]
        if not left:
            continue
        for j in buyer_goods[i]:
            room = prices[j] - fsink[j]
            if room > 0:
                push = left if left < room else room
                row[j] = push
                fsink[j] += push
                left -= push
                if not left:
                    break
        fsrc[i] = budgets[i] - left
        if left:
            rich.append(i)
    while True:
        from_good, from_buyer = [None] * n, [None] * m
        for end in _search(network, rich, prices, flow, fsink, from_good, from_buyer):
            # Walk the path back to the source for the bottleneck, then push.
            bottleneck = prices[end] - fsink[end]
            i = from_buyer[end]
            while from_good[i] != -1:
                j = from_good[i]
                v = flow[i][j]  # the arc j -> i cancels flow
                if v < bottleneck:
                    bottleneck = v
                i = from_buyer[j]
            unspent = budgets[i] - fsrc[i]
            if unspent < bottleneck:
                bottleneck = unspent
            fsrc[i] += bottleneck
            fsink[end] += bottleneck
            fresh = fsrc[i] == budgets[i]
            if fresh:
                rich.remove(i)
            j = end
            while j != -1:
                i = from_buyer[j]
                flow[i][j] = flow[i].get(j, 0) + bottleneck
                j = from_good[i]
                if j != -1:
                    flow[i][j] -= bottleneck
                    if not flow[i][j]:
                        fresh = True
            if fresh:
                break
        else:
            return flow, not rich, (from_good, from_buyer)


def _cut(nodes, markers, capacities, values):
    """Zero ``capacities`` over ``nodes`` and part them by a cut's
    ``markers``: the source side (marker not None), the sum of its
    ``values``, and the rest, both sides in the order of ``nodes``."""
    inside, outside, total = [], [], 0
    for v in nodes:
        capacities[v] = 0
        if markers[v] is None:
            outside.append(v)
        else:
            inside.append(v)
            total += values[v]
    return inside, total, outside


def _assemble(network, scale, leaves, last=None, inside=None):
    """The Flow of the blocks ``leaves``, each ``(k, buyers, flow)`` with a
    row ``flow[i]`` over ``scale`` * k per buyer, and, given ``last``, of
    its rows of the buyers not in ``inside``, as the same rationals.  It is
    over ``scale`` * L, L the lcm of the sizes k times the least factor
    that holds every kept row: ``lack``, the part of ``last.denom`` that
    ``scale`` * L lacks, over c, its gcd with every kept value.  Each row
    is written once, without zeros, in the pass that sums each buyer's
    outflow and each good's inflow."""
    L, parts = math.lcm(*(k for k, _, _ in leaves)), []  # (up, down, buyers, rows)
    if last is not None:
        kept = [i for i, row in enumerate(last.rows) if row and i not in inside]
        g = math.gcd(scale * L, last.denom)
        lack = last.denom // g
        c = math.gcd(lack, *(v for i in kept for v in last.rows[i].values()))
        parts.append((scale * L // g, c, kept, last.rows))
        L *= lack // c
    parts += [(L // k, 1, buyers, flow) for k, buyers, flow in leaves]
    rows, out, into = [_EMPTY_ROW] * network.n, [0] * network.n, [0] * network.m
    for up, down, buyers, flow in parts:
        for i in buyers:
            row, total = {}, 0
            for j, v in flow[i].items():
                if v:
                    v = v // down * up
                    row[j] = v
                    total += v
                    into[j] += v
            rows[i], out[i] = row, total
    return Flow(network, rows, scale * L, out, into)


def max_flow(network):
    """Deterministic exact maximum flow (shortest augmenting paths)."""
    scale, budgets, prices = network._cleared
    flow, _, _ = _saturate(network, range(network.n), budgets, prices)
    return _assemble(network, scale, [(1, range(network.n), flow)])


def residual_reach(flow, targets):
    """Goods with a residual path to some target good, avoiding s and t.

    Arcs of the flow's network: buyer -> good always (equality edge),
    good -> buyer only where the edge carries flow.  Targets are included.

    The result is the same for every maximum flow with the same source and
    sink flows, for example every balanced flow of the network (the
    balanced surplus vector is unique).  The goods reached and the buyers
    reached form a set X that no residual arc enters: every buyer with an
    edge into X's goods is in X, and X's buyers send no flow out of X.  So
    X's buyers' budgets equal X's goods' sink flows.  Two such flows
    differ by a circulation, and no circulation can cross the boundary of
    X: under the other flow X's buyers still fill X's goods exactly and no
    other buyer reaches them, so X's buyers send it no money outside X
    either.  X is closed under both flows, and the smallest closed set
    around the targets is the same for both.
    """
    return frozenset(_closure(flow.network, flow.rows, targets)[0])


def _closure(network, rows, targets):
    """The goods and the buyers of the smallest set around the goods
    ``targets`` that holds, with each good, every buyer with an edge to it
    in ``network``, and with each buyer, every good its row of ``rows``
    pays."""
    seen_goods, seen_buyers = set(targets), set()
    stack = list(seen_goods)
    while stack:
        # predecessors of a good: buyers with an equality edge to it; of a
        # buyer: the goods it pays, the keys of its (zero-free) flow row
        for i in network.good_buyers[stack.pop()]:
            if i not in seen_buyers:
                seen_buyers.add(i)
                for j in rows[i]:
                    if j not in seen_goods:
                        seen_goods.add(j)
                        stack.append(j)
    return seen_goods, seen_buyers


def is_balanced(flow):
    """Certificate for minimum-norm surplus on the flow's network: source
    edges are saturated (so the flow is maximum), no good is over its
    price, and no residual good-to-good path leads from a lower-surplus
    good to a higher-surplus one.

    The last condition takes one sweep: searches start from the goods in
    ascending surplus and enter only goods no earlier search reached, so
    the search that first reaches a good starts at the lowest-surplus good
    with a residual path to it.
    """
    if not flow.sources_saturated() or not flow.is_feasible():
        return False
    r = flow._surplus_ints  # over one denominator: compares as the surpluses
    rows, network = flow.rows, flow.network
    reached_goods = [False] * network.m
    reached_buyers = [False] * network.n
    for start in sorted(range(network.m), key=r.__getitem__):
        if reached_goods[start]:
            continue
        reached_goods[start] = True
        stack = [start]
        while stack:
            j = stack.pop()
            # pushing along j -> i -> k raises r_j and lowers r_k, an
            # improvement exactly when r_start < r_k
            for i in network.good_buyers[j]:
                if reached_buyers[i] or j not in rows[i]:
                    continue
                reached_buyers[i] = True
                for k in network.buyer_goods[i]:
                    if not reached_goods[k]:
                        if r[start] < r[k]:
                            return False
                        reached_goods[k] = True
                        stack.append(k)
    return True


def balanced_flow(network, last=None, around=None):
    """Maximum flow minimizing the Euclidean norm of the surplus vector.

    Water-filling by min-cut refinement: try to leave every good of the
    current block the same surplus (the block mean); where that level is
    infeasible the min cut of the reduced network splits the block and the
    two sides are refined independently.  The root blocks are the
    connected components of the edges, found by one search (a buyer
    without edges is a block of its own, a good without them keeps its
    price as surplus): a minimum cut at a block's level puts a good on the
    source side exactly when its balanced surplus is below the level, and
    no augmenting path crosses components, so each component's flow is
    the one a block spanning several would give it.  The result is
    certified by is_balanced before being returned.

    A block of k goods is the network with capacities outside it zeroed and
    all capacities times k (times D, see ``FlowNetwork._cleared``), so its
    water level is an integer; scaling every capacity by one constant
    leaves the augmenting paths, and hence the edge flows, unchanged;
    ``_assemble`` joins the leaf blocks' flows.  A one-good block is priced
    at exactly its buyers' money, so its flow, the one-edge sweep's, is
    written down without a max-flow: each buyer with money pays its whole
    budget to the good, and one without an edge to it leaves the min cut
    degenerate.

    With no surplus to balance (the prices sum to the budgets) the root
    block is the whole network at level 0, so its flow is ``max_flow``'s
    times m, and ``max_flow``'s is returned.  Otherwise no whole-network
    max-flow runs first: a network whose sources cannot saturate fails a
    block's level or split check, or the certificate.

    Given ``last``, a balanced flow of an earlier network, only a region R
    is water-filled again: the smallest set of goods around S = ``around``
    whose buyers (each buyer with an edge into R in ``network``) pay
    nothing outside R in ``last``.  Its other rows are kept as the same
    rationals (``_assemble`` widens the denominator to hold them; an R
    holding every live good keeps none).  The precondition: S is
    closed under ``last``; since then, with B' the buyers with an edge
    into S, only S's prices and B''s budgets changed, B' lost every edge
    leaving S, only buyers outside B' gained edges, into S, and B' can
    spend all its money in S.  A new-edge commit meets it: only caps ran
    since ``last``, and its scale is below 1 and at least every tight
    set's.  R's buyers can then spend their money in R (B' in S, the rest
    as in ``last``), and the stitch "new" is balanced (r a surplus):
    - No surplus of R - S falls.  Else, for some v, the goods y of R - S
      with r_new(y) <= v < r_last(y) form a set K; its prices are kept, so
      a buyer i pays K more in new, some z outside K less.  An edge outside
      S puts i outside B', with its budget and edges outside S kept, and z
      in R - S.  y -> i -> z (new, i paying y in K) and z -> i -> y (last)
      give r_new(z) <= v, so r_last(z) <= v < r_last(y) <= r_last(z).
    - No buyer outside R's has an edge into R, so no residual path enters
      R.  Within R the refinement is balanced; outside it the rows, arcs
      and surpluses are last's.  A path leaves R only through a buyer i
      outside B' to a good k outside R.  If i pays g' in new, it paid some
      g of R - S in last, so r_new(g') >= r_new(g) >= r_last(g) >= r(k).
    """
    scale, B, P = network._cleared
    n, m = network.n, network.m
    leaves = []  # (k, buyers, flow) of each block whose flow is final
    budgets, prices = [0] * n, [0] * m  # one block's capacities, zero outside it

    def refine(buyers, goods, money, cost):
        # buyers ascending; money and cost sum the block's budgets and prices
        if not goods:
            if money:
                raise InvariantError("money left with no goods to absorb it")
            return
        k = len(goods)
        level = cost - money  # k * delta
        if level < 0:
            raise InvariantError("negative water level; block not saturable")
        if k == 1:
            (j,) = goods
            if any(B[i] and j not in network.buyer_goods[i] for i in buyers):
                raise InvariantError("degenerate min-cut split in water filling")
            leaves.append((1, buyers, {i: {j: B[i]} for i in buyers}))
            return
        for i in buyers:
            budgets[i] = B[i] * k
        clamped = []
        for j in goods:
            price = P[j] * k - level
            if price > 0:
                prices[j] = price
            elif price < 0:
                clamped.append(j)
        flow, saturated, (from_good, from_buyer) = _saturate(network, buyers, budgets, prices)
        b1, money1, b2 = _cut(buyers, from_good, budgets, B)
        g1, cost1, g2 = _cut(goods, from_buyer, prices, P)
        if saturated and not clamped:
            leaves.append((k, buyers, flow))
        elif saturated:
            # Clamped goods sit below the block level: they end with zero
            # flow at their own surplus p_j; refine the rest.
            rest = [j for j in goods if j not in clamped]
            refine(buyers, rest, money, cost - sum(P[j] for j in clamped))
        elif not g1 or not g2:
            raise InvariantError("degenerate min-cut split in water filling")
        else:
            refine(b1, g1, money1, cost1)
            refine(b2, g2, money - money1, cost - cost1)

    if sum(P) == sum(B):
        result = max_flow(network)
        if not result.sources_saturated():
            raise InvariantError("source edges not saturable; solver invariant violated")
    else:
        seen_buyer, seen_good, inside = [False] * n, [False] * m, None
        if last is not None:  # only the region's components are refined
            region, inside = _closure(network, last.rows, around)
            seen_buyer = [i not in inside for i in range(n)]
            seen_good = [j not in region for j in range(m)]
        # each connected component is a root block
        buyer_goods, good_buyers = network.buyer_goods, network.good_buyers
        for start in range(n):
            if seen_buyer[start]:
                continue
            seen_buyer[start] = True
            buyers, goods, money, cost = [start], [], B[start], 0
            for buyer in buyers:  # breadth first: the list grows as it is read
                for j in buyer_goods[buyer]:
                    if not seen_good[j]:
                        seen_good[j] = True
                        goods.append(j)
                        cost += P[j]
                        for i in good_buyers[j]:
                            if not seen_buyer[i]:
                                seen_buyer[i] = True
                                buyers.append(i)
                                money += B[i]
            buyers.sort()
            refine(buyers, goods, money, cost)
        result = _assemble(network, scale, leaves, last, inside)
    if not is_balanced(result):
        raise InvariantError("water filling produced an unbalanced flow")
    return result


def tight_set_scale(network, S, uncapped, capped):
    """Largest price scale x in [0, 1) at which a subset of the given
    buyers becomes tight on the goods S.

    Prices of S and the budgets of capped buyers scale with x while
    uncapped budgets stay fixed, so the candidate scale for a buyer set
    solves U + xV = Qx.  Starting from the full set, an unsaturated test
    max-flow localizes the tight set on the source side of the minimum cut
    and the candidate is recomputed there; at most |B'| max-flows, each on
    the network's integer capacities with x = a/b in lowest terms: the
    uncapped budgets times b, the capped budgets and the prices times a.

    Returns (num, den, witness buyer set), x = num/den with num and den
    coprime integers and den > 0; (0, 1, the full set) marks the
    all-capped (zero-price) case.
    """
    S, bu, bc = list(S), list(uncapped), list(capped)
    _, B, P = network._cleared
    U = sum(B[i] for i in bu)
    V = sum(B[i] for i in bc)
    Q = sum(P[j] for j in S)
    if U > 0 and Q < U + V:
        raise InvariantError("goods of S carry negative surplus at scale 1")
    if U == 0:
        return 0, 1, frozenset(bu + bc)
    budgets, prices = [0] * network.n, [0] * network.m  # zero outside a test
    while True:
        g = math.gcd(U, Q - V)
        a, b = U // g, (Q - V) // g
        for i in bu:
            budgets[i] = B[i] * b
        for i in bc:
            budgets[i] = B[i] * a
        for j in S:
            prices[j] = P[j] * a
        seeds = sorted(bu + bc)
        _, saturated, (from_good, from_buyer) = _saturate(network, seeds, budgets, prices)
        if saturated:
            return a, b, frozenset(bu + bc)
        # shrink to the source side of the cut, zeroing the capacities
        bu, U, _ = _cut(bu, from_good, budgets, B)
        bc, V, _ = _cut(bc, from_good, budgets, B)
        S, Q, _ = _cut(S, from_buyer, prices, P)
        if len(bu) + len(bc) >= len(seeds):
            raise InvariantError("tight-set recursion failed to shrink")
        if U == 0:
            raise InvariantError("tight-set recursion lost every uncapped buyer")
