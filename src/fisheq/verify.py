"""Equilibrium container and the exact KKT-based verifier.

The verifier decides membership in the set of modest MBB (thrifty) market
equilibria, which are exactly the optima of the underlying concave program.
All checks are exact rational comparisons; a bad equilibrium produces a
report full of violations, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exact import INF, as_fraction, format_rational
from .market import active_budget_at, buyer_pass, capped_utility


@dataclass(frozen=True)
class Equilibrium:
    prices: tuple
    allocation: tuple
    active_budgets: tuple
    capped: tuple
    utilities: tuple

    def __post_init__(self):
        object.__setattr__(self, "prices", tuple(map(as_fraction, self.prices)))
        object.__setattr__(
            self, "allocation", tuple(tuple(map(as_fraction, row)) for row in self.allocation)
        )
        object.__setattr__(
            self, "active_budgets", tuple(map(as_fraction, self.active_budgets))
        )
        object.__setattr__(self, "capped", tuple(bool(c) for c in self.capped))
        object.__setattr__(self, "utilities", tuple(map(as_fraction, self.utilities)))

    @property
    def revenue(self):
        """Money actually paid by the buyers."""
        return sum(
            (p * x for row in self.allocation for p, x in zip(self.prices, row) if x),
            Fraction(0),
        )


def _check_dimensions(market, prices, allocation):
    if len(prices) != market.m or len(allocation) != market.n or any(
        len(row) != market.m for row in allocation
    ):
        raise ValueError("allocation and prices dimensionally inconsistent with market")


def equilibrium_from_allocation(market, prices, allocation):
    """Build a full Equilibrium record from prices and allocation, deriving
    utilities, active budgets and capped flags from the market, with one
    ``buyer_pass`` per buyer."""
    prices = tuple(map(as_fraction, prices))
    allocation = tuple(tuple(map(as_fraction, row)) for row in allocation)
    _check_dimensions(market, prices, allocation)
    budgets, capped, utilities = [], [], []
    for i, bundle in enumerate(allocation):
        alpha, _, _, _, value, _ = buyer_pass(market, prices, i, bundle)
        money, is_capped = active_budget_at(market, i, alpha)
        budgets.append(money)
        capped.append(is_capped)
        utilities.append(capped_utility(market, i, value))
    return Equilibrium(
        prices=prices,
        allocation=allocation,
        active_budgets=tuple(budgets),
        capped=tuple(capped),
        utilities=tuple(utilities),
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

    The buyer-side checks read one ``buyer_pass`` per buyer: a single walk
    over the buyer's utilities, the prices and its bundle gives alpha, the
    goods that attain it (the MBB support check reads those, comparing no
    ratio again), the free-good value, the spend and the raw value.  The
    same walk gives the finite alpha over the positively priced goods, the
    rate at which money buys value once the free goods are taken, so the
    best affordable utility needs no second walk.  The active budget depends
    on the prices only through alpha, so it follows from that alpha alone.

    Only the prices and the allocation are read; the record's active
    budgets, capped flags and utilities are not checked.
    """
    _check_dimensions(market, equilibrium.prices, equilibrium.allocation)
    return _walk(market, equilibrium.prices, equilibrium.allocation)[0]


def verify_allocation(market, prices, allocation):
    """Verify (prices, allocation) and rebuild its record, in the same one
    ``buyer_pass`` per buyer.

    Returns (report, equilibrium, graph): the report ``verify`` gives for
    any record with these prices and allocation, the record
    ``equilibrium_from_allocation`` builds from them, and the (alphas,
    edges) pair ``equality_graph`` gives at ``prices``, read off the same
    passes.
    """
    prices = tuple(map(as_fraction, prices))
    allocation = tuple(tuple(map(as_fraction, row)) for row in allocation)
    _check_dimensions(market, prices, allocation)
    report, fields = _walk(market, prices, allocation)
    alphas, budgets, capped, utilities, goods = zip(*fields)
    equilibrium = Equilibrium(
        prices=prices,
        allocation=allocation,
        active_budgets=budgets,
        capped=capped,
        utilities=utilities,
    )
    edges = frozenset((i, j) for i, row in enumerate(goods) for j in row)
    return report, equilibrium, (alphas, edges)


def _walk(market, prices, alloc):
    """The report of ``verify`` on Fraction prices and allocation of the
    market's dimensions, and each buyer's (alpha, active budget, capped
    flag, utility, goods attaining alpha) from its pass."""
    report = VerificationReport()
    fields = []

    def flag(condition, index, lhs, rhs):
        setattr(report, _FLAG_OF[condition], False)
        report.violations.append((condition, index, _fmt(lhs), _fmt(rhs)))

    for j, p in enumerate(prices):
        if p.numerator < 0:
            flag("price", j, p, Fraction(0))
    sold = [Fraction(0)] * market.m
    for i, row in enumerate(alloc):
        for j, x in enumerate(row):
            if x:
                if x.numerator < 0 or x.numerator > x.denominator:
                    flag("allocation-range", (i, j), x, "[0,1]")
                sold[j] += x
    for j, (p, total) in enumerate(zip(prices, sold)):
        if total.numerator > total.denominator:
            flag("overallocation", j, total, Fraction(1))
        if p.numerator > 0 and total != 1:
            flag("walras", j, p * (1 - total), Fraction(0))

    for i, bundle in enumerate(alloc):
        money = market.budgets[i]
        cap = market.caps[i]
        alpha, finite_alpha, free, spend, raw, goods = buyer_pass(market, prices, i, bundle)
        utility = capped_utility(market, i, raw)
        required, is_capped = active_budget_at(market, i, alpha)
        fields.append((alpha, required, is_capped, utility, goods))

        if spend > money:
            flag("budget", i, spend, money)
        if cap is not None and raw > cap:
            flag("modest", i, raw, cap)

        # Best utility any affordable bundle can reach: take every valued
        # zero-priced good for free, then spend the budget at ratio alpha.
        optimal = capped_utility(market, i, free + finite_alpha * money)
        if utility != optimal:
            flag("demand", i, utility, optimal)

        # MBB support and thrifty spending: money may sit on the goods that
        # attain alpha.  A buyer that values nothing (alpha = 0) attains it
        # on no good, and may hold only priced goods it does not value.
        row = market.utilities[i]
        for j, x in enumerate(bundle):
            if not x or j in goods:
                continue
            u, p = row[j], prices[j]
            if alpha is INF:
                flag("mbb", (i, j), u, "free-good ratio")
            elif alpha or not p or u:
                flag("mbb", (i, j), u / p if p else u, alpha)

        # A buyer that values nothing (alpha = 0) has required = 0.
        if spend != required:
            flag("spending", i, spend, required)
        if alpha == 0:
            continue

        # KKT multiplier gamma_i = M_i/u_i - 1/alpha_i; with u_i, alpha_i > 0
        # it has the sign of M_i alpha_i - u_i.
        if utility > 0:
            bought = INF if alpha is INF else money * alpha
            if bought < utility:
                flag("kkt-gamma", i, money / utility - 1 / alpha, Fraction(0))
            elif bought > utility and (cap is None or utility != cap):
                flag("kkt-slack", i, utility, cap if cap is not None else "inf")

    return report, fields
