"""Equilibrium container and the exact KKT-based verifier.

The verifier decides membership in the set of modest MBB (thrifty) market
equilibria, which are exactly the optima of the underlying concave program.
All checks are exact rational comparisons; a bad equilibrium produces a
report full of violations, never an exception.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import INF, as_fraction, format_rational, ratio_sign
from .market import active_budget_at, add_pair, buyer_pass, capped_utility, mul_pair, over_cap
from .record import FrozenRecord, Record


class Equilibrium(FrozenRecord):
    def __init__(self, prices, allocation, active_budgets, capped, utilities):
        self.__dict__.update(
            prices=tuple(map(as_fraction, prices)),
            allocation=tuple(tuple(map(as_fraction, row)) for row in allocation),
            active_budgets=tuple(map(as_fraction, active_budgets)),
            capped=tuple(bool(c) for c in capped),
            utilities=tuple(map(as_fraction, utilities)),
        )

    @property
    def revenue(self):
        """Money actually paid by the buyers: sum p_j x_ij as an integer
        pair (``add_pair`` of ``mul_pair`` products), one Fraction at the
        end."""
        num, den = 0, 1
        for row in self.allocation:
            for p, x in zip(self.prices, row):
                x_num = x.numerator
                if x_num:
                    num, den = add_pair(
                        num, den, *mul_pair(p.numerator, p.denominator, x_num, x.denominator)
                    )
        return Fraction(num, den)


def _check_dimensions(market, prices, allocation):
    if len(prices) != market.m or len(allocation) != market.n or any(
        len(row) != market.m for row in allocation
    ):
        raise ValueError("allocation and prices dimensionally inconsistent with market")


def equilibrium_from_allocation(market, prices, allocation):
    """The Equilibrium record ``verify_allocation`` builds from prices and
    allocation (utilities, active budgets and capped flags derived from
    the market), without its report."""
    return verify_allocation(market, prices, allocation)[1]


class VerificationReport(Record):
    def __init__(
        self, is_equilibrium=True, is_modest=True, is_mbb=True, kkt_ok=True, violations=None
    ):
        self.is_equilibrium, self.is_modest = is_equilibrium, is_modest
        self.is_mbb, self.kkt_ok = is_mbb, kkt_ok
        self.violations = [] if violations is None else violations

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

    The checks run on integers: sums (spend, value, free value, each good's
    sold total) are integer pairs over the lcm of their terms'
    denominators, and comparisons are ``ratio_sign`` on those pairs.  A
    Fraction is made only for a value the pass returns or a violation the
    report names, so the report's strings are those of Fraction arithmetic.

    Only the prices and the allocation are read; the record's active
    budgets, capped flags and utilities are not checked.
    """
    _check_dimensions(market, equilibrium.prices, equilibrium.allocation)
    return _walk(market, equilibrium.prices, equilibrium.allocation)[0]


def verify_allocation(market, prices, allocation):
    """Verify (prices, allocation) and build its record, in the same one
    ``buyer_pass`` per buyer.  This is the only code that builds an
    ``Equilibrium`` from prices and an allocation.

    Returns (report, equilibrium, graph): the report ``verify`` gives for
    any record with these prices and allocation, the record with the
    active budgets, capped flags and utilities each pass derives, and the
    (alphas, edges) pair ``equality_graph`` gives at ``prices``, read off
    the same passes.
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
    flag, utility, goods attaining alpha) from its pass.

    Every check is decided on integers: each good's sold total is an
    integer pair over the lcm of its shares' denominators (``add_pair``),
    and every comparison is ``ratio_sign``, or a comparison of numerators
    and denominators where both sides are in lowest terms.  A Fraction is
    built only for a returned value or a reported violation.
    """
    report = VerificationReport()
    fields = []

    def flag(condition, index, lhs, rhs):
        setattr(report, _FLAG_OF[condition], False)
        report.violations.append((condition, index, _fmt(lhs), _fmt(rhs)))

    for j, p in enumerate(prices):
        if p.numerator < 0:
            flag("price", j, p, Fraction(0))
    sold = [(0, 1)] * market.m
    held = []  # per buyer, the goods it holds a nonzero share of
    for i, row in enumerate(alloc):
        goods = []
        for j, x in enumerate(row):
            x_num = x.numerator
            if x_num:
                x_den = x.denominator
                if x_num < 0 or x_num > x_den:
                    flag("allocation-range", (i, j), x, "[0,1]")
                sold[j] = add_pair(*sold[j], x_num, x_den)
                goods.append(j)
        held.append(goods)
    for j, (p, (num, den)) in enumerate(zip(prices, sold)):
        if num > den:
            flag("overallocation", j, Fraction(num, den), Fraction(1))
        if p.numerator > 0 and num != den:
            flag("walras", j, p * (1 - Fraction(num, den)), Fraction(0))

    for i, bundle in enumerate(alloc):
        money = market.budgets[i]
        cap = market.caps[i]
        alpha, finite_alpha, free, spend, raw, goods = buyer_pass(market, prices, i, bundle)
        utility = capped_utility(market, i, raw)
        required, is_capped = active_budget_at(market, i, alpha)
        fields.append((alpha, required, is_capped, utility, goods))
        money_num, money_den = money.numerator, money.denominator
        spend_num, spend_den = spend.numerator, spend.denominator
        utility_num, utility_den = utility.numerator, utility.denominator

        if ratio_sign(spend_num, spend_den, money_num, money_den) > 0:
            flag("budget", i, spend, money)
        if utility is not raw:  # capped_utility returns the cap only above it
            flag("modest", i, raw, cap)

        # Best utility any affordable bundle can reach: take every valued
        # zero-priced good for free, then spend the budget at ratio alpha.
        num, den = add_pair(
            free.numerator,
            free.denominator,
            finite_alpha.numerator * money_num,
            finite_alpha.denominator * money_den,
        )
        if over_cap(cap, num, den):
            if utility_num != cap.numerator or utility_den != cap.denominator:
                flag("demand", i, utility, cap)
        elif ratio_sign(utility_num, utility_den, num, den):
            flag("demand", i, utility, Fraction(num, den))

        # MBB support and thrifty spending: money may sit on the goods that
        # attain alpha.  A buyer that values nothing (alpha = 0) attains it
        # on no good, and may hold only priced goods it does not value.
        row = market.utilities[i]
        for j in held[i]:
            if j in goods:
                continue
            u, p = row[j], prices[j]
            if alpha is INF:
                flag("mbb", (i, j), u, "free-good ratio")
            elif alpha or not p or u:
                flag("mbb", (i, j), u / p if p else u, alpha)

        # A buyer that values nothing (alpha = 0) has required = 0.
        if spend_num != required.numerator or spend_den != required.denominator:
            flag("spending", i, spend, required)
        if alpha == 0:
            continue

        # KKT multiplier gamma_i = M_i/u_i - 1/alpha_i; with u_i, alpha_i > 0
        # it has the sign of M_i alpha_i - u_i.
        if utility_num > 0:
            sign = 1 if alpha is INF else ratio_sign(
                money_num * alpha.numerator, money_den * alpha.denominator, utility_num, utility_den
            )
            if sign < 0:
                flag("kkt-gamma", i, money / utility - 1 / alpha, Fraction(0))
            elif sign > 0 and (
                cap is None or utility_num != cap.numerator or utility_den != cap.denominator
            ):
                flag("kkt-slack", i, utility, cap if cap is not None else "inf")

    return report, fields
