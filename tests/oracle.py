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
that the package's kernel must reproduce bit for bit.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from fisheq import Flow, FlowNetwork, InvariantError, is_balanced, max_flow

_ENUMERATION_LIMIT = 14


class ConvergenceError(RuntimeError):
    """The numeric oracle did not converge within its iteration budget."""


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


def min_cut(network, flow):
    """Canonical minimum cut: the residual-reachable set from the source.

    Node labels: "s", "t", ("buyer", i), ("good", j).
    """
    buyers, goods = _residual_source_side(network, flow)
    for j in goods:
        if flow.good_in(j) < network.prices[j]:
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
    realization = FlowNetwork(network.budgets, targets, network.edges)
    f = max_flow(realization)
    if not f.sources_saturated():
        raise InvariantError("enumerated levels are not realizable")
    result = Flow(network, f.edge_flow)
    if not is_balanced(network, result):
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
