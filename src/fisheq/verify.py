"""Equilibrium container and the exact KKT-based verifier.

The verifier decides membership in the set of modest MBB (thrifty) market
equilibria, which are exactly the optima of the underlying concave program.
All checks are exact rational comparisons; a bad equilibrium produces a
report full of violations, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import INF, format_rational
from .market import active_budget, bundle_value, capped_utility, mbb_ratio


@dataclass(frozen=True)
class Equilibrium:
    prices: tuple
    allocation: tuple
    active_budgets: tuple
    capped: tuple
    utilities: tuple

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(Fraction(p) for p in self.prices))
        object.__setattr__(
            self, "allocation", tuple(tuple(Fraction(x) for x in row) for row in self.allocation)
        )
        object.__setattr__(
            self, "active_budgets", tuple(Fraction(a) for a in self.active_budgets)
        )
        object.__setattr__(self, "capped", tuple(bool(c) for c in self.capped))
        object.__setattr__(self, "utilities", tuple(Fraction(u) for u in self.utilities))

    @property
    def revenue(self):
        """Money actually paid by the buyers."""
        return sum(
            (p * x for p, row in zip(self.prices, zip(*self.allocation)) for x in row),
            Fraction(0),
        )

    def spending(self, buyer):
        return sum(
            (p * x for p, x in zip(self.prices, self.allocation[buyer])), Fraction(0)
        )


def equilibrium_from_allocation(market, prices, allocation):
    """Build a full Equilibrium record from prices and allocation, deriving
    utilities, active budgets and capped flags from the market."""
    prices = tuple(Fraction(p) for p in prices)
    allocation = tuple(tuple(Fraction(x) for x in row) for row in allocation)
    if len(prices) != market.m or len(allocation) != market.n or any(
        len(row) != market.m for row in allocation
    ):
        raise ValueError("allocation and prices dimensionally inconsistent with market")
    metas = [active_budget(market, prices, i) for i in range(market.n)]
    return Equilibrium(
        prices=prices,
        allocation=allocation,
        active_budgets=tuple(meta[0] for meta in metas),
        capped=tuple(meta[1] for meta in metas),
        utilities=tuple(
            capped_utility(market, i, bundle_value(market, i, allocation[i]))
            for i in range(market.n)
        ),
    )


@dataclass
class VerificationReport:
    is_equilibrium: bool = True
    is_modest: bool = True
    is_mbb: bool = True
    kkt_ok: bool = True
    violations: list = field(default_factory=list)

    @property
    def ok(self):
        return self.is_equilibrium and self.is_modest and self.is_mbb and self.kkt_ok


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


def verify(market, equilibrium):
    """Check a (prices, allocation) pair against every equilibrium condition.

    Exact checks, grouped into four flags:
      is_equilibrium -- nonnegative prices, no overallocation, Walras' law,
                        budget feasibility, every bundle a demand bundle;
      is_modest      -- no buyer's linear utility exceeds its cap;
      is_mbb         -- money flows only along bang-per-buck-optimal edges
                        and buyers spend thriftily (uncapped buyers exactly
                        M_i, capped buyers exactly c_i/alpha_i);
      kkt_ok         -- the multiplier gamma_i = M_i/u_i - 1/alpha_i is
                        nonnegative, and positive only at the cap.
    """
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
        alpha = mbb_ratio(market, prices, i)
        spend = equilibrium.spending(i)
        raw_utility = bundle_value(market, i, alloc[i])
        utility = capped_utility(market, i, raw_utility)

        if spend > money:
            flag("budget", i, spend, money)
        if cap is not None and raw_utility > cap:
            flag("modest", i, raw_utility, cap)

        # Best utility any affordable bundle can reach: take every valued
        # zero-priced good for free, then spend the budget at ratio alpha.
        free = sum(
            (
                market.utilities[i][j]
                for j in range(market.m)
                if prices[j] == 0 and market.utilities[i][j] > 0
            ),
            Fraction(0),
        )
        finite_alpha = mbb_ratio(market, prices, i, priced)
        optimal = capped_utility(market, i, free + finite_alpha * money)
        if utility != optimal:
            flag("demand", i, utility, optimal)

        # MBB support and thrifty spending.
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
        required, _ = active_budget(market, prices, i)
        if spend != required:
            flag("spending", i, spend, required)

        # KKT multiplier.
        if utility > 0:
            inv_alpha = Fraction(0) if alpha is INF else 1 / alpha
            gamma = money / utility - inv_alpha
            if gamma < 0:
                flag("kkt-gamma", i, gamma, Fraction(0))
            elif gamma > 0 and (cap is None or utility != cap):
                flag("kkt-slack", i, utility, cap if cap is not None else "inf")

    return report
