"""Postprocessing any modest MBB equilibrium down to minimum revenue.

With the allocation fixed, utilities are too, and every equilibrium price
vector q meets two bounds.  A good held by an uncapped buyer i is fixed:
v_i stays below the cap, so i spends M_i at ratio v_i / M_i and each good k
it holds keeps q_k = u_ik M_i / v_i.  A buyer h holding good k keeps k among
its bang-per-buck goods: q_j >= q_k u_hj / u_hk for every good j it values.
Conversely q <= p meeting them is an equilibrium: each buyer's held goods
share one ratio and attain it, an uncapped buyer's ratio is unchanged, a
capped one's rises so it stays capped and spends its cap over it, and each
priced good was sold out at p.  So the least solution of the bounds is the
pointwise-smallest equilibrium with this allocation.

A verified buyer holds only goods on its equality edges, or zero-priced
goods it does not value, which bound nothing.  A bound from a fixed good
through a holder h to a good j on h's edges is tight at p, so it pins j at
p_j, and pinned goods pin others the same way.  Unless that pins every
priced good, Bellman-Ford rounds (Bellman, "On a routing problem", 1958)
relax the unpinned goods up from 0 along the bounds, difference constraints
on log q.  p meets every bound, so no cycle of bounds has a product above 1,
the least solution is reached along paths through distinct unpinned goods,
and m rounds, the last changing nothing, suffice.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvariantError
from .verify import verify_allocation


def min_revenue(market, equilibrium):
    """Transform a verified modest MBB equilibrium into the one with
    pointwise-smallest prices (same utilities, same allocation fractions).
    One pass verifies the input, and one more the result if prices fall."""
    report, checked, (_, edges) = verify_allocation(
        market, equilibrium.prices, equilibrium.allocation
    )
    if not report.ok:
        raise ValueError(f"input is not a modest MBB equilibrium: {report.violations}")
    prices, alloc, m = checked.prices, checked.allocation, market.m
    tied, holders = [[] for _ in range(market.n)], [[] for _ in range(m)]
    for i, j in edges:
        tied[i].append(j)
        if alloc[i][j].numerator:
            holders[j].append(i)
    # pinned: an uncapped buyer's equality goods, and a pinned good's holders'
    stack, pinned = [i for i, capped in enumerate(checked.capped) if not capped], set()
    while stack:
        for j in tied[stack.pop()]:
            if j not in pinned:
                pinned.add(j)
                stack += holders[j]
    if all(j in pinned or not p.numerator for j, p in enumerate(prices)):
        return checked

    # q_j >= q_k a / b with a / b = u_hj / u_hk, on unreduced integer pairs
    bounds = [
        (k, j, u[j].numerator * u[k].denominator, u[j].denominator * u[k].numerator)
        for k in range(m)
        for u in (market.utilities[h] for h in holders[k])
        for j in range(m)
        if u[j] and j not in pinned
    ]
    low = [(p.numerator, p.denominator) if j in pinned else (0, 1) for j, p in enumerate(prices)]
    for _ in range(m):
        rose = False
        for k, j, a, b in bounds:
            num, den = low[k][0] * a, low[k][1] * b
            if num * low[j][1] > low[j][0] * den:
                low[j], rose = (num, den), True
        if not rose:
            break
    else:
        raise InvariantError(f"price bounds still rising after {m} rounds")
    report, checked, _ = verify_allocation(market, [Fraction(*q) for q in low], alloc)
    if not report.ok:
        raise InvariantError(f"postprocessing left the equilibrium set: {report.violations}")
    return checked
