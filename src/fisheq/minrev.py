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
from .exact import INF, ratio_sign
from .verify import verify_allocation


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
        if prices[j].numerator > 0 and all(capped[i] for i in neighbors[j])
    }
    while True:
        bprime = {i for i, j in edges if j in S}
        bad = {
            i
            for i in bprime
            if any(alloc[i][g].numerator > 0 for g in range(market.m) if g not in S)
        }
        if not bad:
            return S, bprime
        S -= {j for j in S if neighbors[j] & bad}


def min_revenue(market, equilibrium):
    """Transform a verified modest MBB equilibrium into the one with
    pointwise-smallest prices (same utilities, same allocation fractions).
    Each loop reads the ratios and the equality edges off the pass that
    verified the equilibrium at its prices."""
    report, checked, (alphas, edges) = verify_allocation(
        market, equilibrium.prices, equilibrium.allocation
    )
    if not report.ok:
        raise ValueError(f"input is not a modest MBB equilibrium: {report.violations}")
    prices = list(checked.prices)
    alloc = checked.allocation

    guard = 64 + 4 * market.m * (market.n + 1) ** 2
    loops = 0
    while True:
        loops += 1
        if loops > guard:
            raise InvariantError("minimum-revenue loop guard exceeded")
        # ``checked``, ``alphas`` and ``edges`` are those of the current prices
        S, bprime = _scalable_set(market, prices, alloc, edges, checked.capped)
        if not S:
            break
        if any(not checked.capped[i] for i in bprime):
            raise InvariantError("uncapped buyer attached to a scalable set")

        # Scale down until a new equality edge appears, or all the way to 0:
        # x* is the largest u_hj / (alpha_h p_j), an integer pair found with
        # ``ratio_sign`` against the running best.
        best_num, best_den = 0, 1
        for h in range(market.n):
            alpha = alphas[h]
            if h in bprime or alpha == 0 or alpha is INF:
                continue
            a_num, a_den = alpha.numerator, alpha.denominator
            for j in S:
                u = market.utilities[h][j]
                if not u:
                    continue
                p = prices[j]
                num = u.numerator * a_den * p.denominator
                den = u.denominator * a_num * p.numerator
                if ratio_sign(num, den, best_num, best_den) > 0:
                    best_num, best_den = num, den
        x_star = Fraction(best_num, best_den)
        if x_star >= 1:
            raise InvariantError("scaling candidate not below 1")
        for j in S:
            prices[j] *= x_star

        # One pass checks the boundary equilibrium, rebuilds its record and
        # gives the next loop its ratios and edges.
        report, checked, (alphas, edges) = verify_allocation(market, prices, alloc)
        if not report.ok:
            raise InvariantError(
                f"postprocessing left the equilibrium set: {report.violations}"
            )
    # Nothing is left to scale.  ``checked`` is the equilibrium at the final
    # prices with the input's allocation.  The pass that verified it (the
    # input's check if nothing scaled, else the last loop's) also rebuilt its
    # active budgets, capped flags and utilities, so none of them comes from
    # the input's stored fields, which verification does not read.
    return checked
