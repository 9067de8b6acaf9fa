"""Postprocessing any modest MBB equilibrium down to minimum revenue.

Repeatedly picks the positively-priced goods with no equality edge to any
uncapped buyer and scales their prices (and the active budgets of the
attached, all-capped buyers) down until either the prices hit zero or a new
equality edge appears from outside.  Allocation fractions never change, so
utilities are untouched; the loop stops when no such good set remains, at
which point the prices are pointwise minimal.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError
from .exact import INF
from .market import active_budget_at, equality_graph, mbb_ratio
from .verify import equilibrium_from_allocation, verify


def _scalable_set(market, prices, alloc, edges, capped):
    """Positively priced goods whose equality neighbors are all capped,
    closed under removing goods whose attached buyers hold allocation
    outside the set (scaling such a set would strand those holdings on
    edges that stop being bang-per-buck optimal)."""
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


def min_revenue(market, equilibrium):
    """Transform a verified modest MBB equilibrium into the one with
    pointwise-smallest prices (same utilities, same allocation fractions)."""
    report = verify(market, equilibrium)
    if not report.ok:
        raise ValueError(f"input is not a modest MBB equilibrium: {report.violations}")
    prices = list(equilibrium.prices)
    alloc = [list(row) for row in equilibrium.allocation]

    guard = 64 + 4 * market.m * (market.n + 1) ** 2
    loops = 0
    boundary = None  # the last scaled equilibrium, built and verified
    while True:
        loops += 1
        if loops > guard:
            raise InvariantError("minimum-revenue loop guard exceeded")
        # one buyer pass each gives the ratios the graph, the capped flags
        # and the scaling candidates read
        alphas = [mbb_ratio(market, prices, i) for i in range(market.n)]
        edges = equality_graph(market, prices, alphas)
        capped = [active_budget_at(market, i, alpha)[1] for i, alpha in enumerate(alphas)]
        S, bprime = _scalable_set(market, prices, alloc, edges, capped)
        if not S:
            break
        if any(not capped[i] for i in bprime):
            raise InvariantError("uncapped buyer attached to a scalable set")

        # Scale down until a new equality edge appears, or all the way to 0.
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
    # Nothing scaled.  The input passed verify, but verify does not check
    # its active budgets, capped flags or utilities, so they are rebuilt.
    return equilibrium_from_allocation(
        market, tuple(prices), tuple(tuple(row) for row in alloc)
    )
