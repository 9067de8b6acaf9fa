"""Market data model and the basic buyer-side computations.

A market has n buyers with money budgets M_i and happiness caps c_i, and m
divisible goods of unit supply.  Buyer i gets utility min(c_i, sum_j u_ij
x_ij) from bundle x_i; a cap of ``None`` means the buyer is an ordinary
linear buyer.  Everything is exact: a raw ``Market`` holds Fractions and
never floats, and ``normalize`` scales it once to a ``NormalizedMarket``
of Python ints, the market the descent runs on.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, repeat

from .errors import InvalidMarketError
from .exact import INF, as_fraction, ratio_sign
from .record import FrozenRecord


_ZERO = Fraction(0)


class Market(FrozenRecord):
    """Immutable market instance (raw rational entries)."""

    def __init__(self, budgets, caps, utilities):
        budgets = tuple(as_fraction(b, "budget") for b in budgets)
        caps = tuple(None if c is None else as_fraction(c, "cap") for c in caps)
        utilities = tuple(tuple(as_fraction(u, "utility") for u in row) for row in utilities)
        self.__dict__.update(budgets=budgets, caps=caps, utilities=utilities)
        n = len(budgets)
        if n == 0:
            raise InvalidMarketError("market needs at least one buyer")
        if len(caps) != n or len(utilities) != n:
            raise InvalidMarketError("budgets, caps and utility rows must align")
        m = len(utilities[0])
        if m == 0:
            raise InvalidMarketError("market needs at least one good")
        if any(len(row) != m for row in utilities):
            raise InvalidMarketError("ragged utility matrix")
        for i, b in enumerate(budgets):
            if b.numerator <= 0:
                raise InvalidMarketError(f"buyer {i}: budget must be positive")
        for i, c in enumerate(caps):
            if c is not None and c.numerator <= 0:
                raise InvalidMarketError(f"buyer {i}: cap must be positive")
        for row in utilities:
            for u in row:
                if u.numerator < 0:
                    raise InvalidMarketError("utilities must be nonnegative")

    @property
    def n(self):
        return len(self.budgets)

    @property
    def m(self):
        return len(self.utilities[0])


class NormalizedMarket(Market):
    """The market the descent runs on: every budget, cap and utility is a
    Python int, and ``budget_scale`` maps prices back to the original units.

    Budgets were multiplied by the common integer ``budget_scale`` (prices
    of any equilibrium scale with it, allocations do not); each buyer's
    utility row and cap were multiplied by their own integer factor (which
    changes no equilibrium at all).
    """

    def __init__(self, budgets, caps, utilities, budget_scale=1):
        """No checks: ``normalize`` builds the entries from a validated
        ``Market``."""
        self.__dict__.update(
            budgets=budgets, caps=caps, utilities=utilities, budget_scale=budget_scale
        )

    @property
    def U(self):
        """Largest normalized budget, cap or utility."""
        caps = (c for c in self.caps if c is not None)
        return max(chain(self.budgets, caps, *self.utilities))


def normalize(market):
    """Scale a raw market to an equivalent all-integer one.

    All budgets share one positive integer factor, the lcm of their
    denominators; each buyer's utilities and cap share the lcm of theirs.
    Each entry is written as numerator times (factor // denominator).
    """
    scale = math.lcm(*(b.denominator for b in market.budgets))
    caps, utilities = [], []
    for cap, row in zip(market.caps, market.utilities):
        s = math.lcm(*(u.denominator for u in row), 1 if cap is None else cap.denominator)
        caps.append(None if cap is None else cap.numerator * (s // cap.denominator))
        utilities.append(tuple(u.numerator * (s // u.denominator) for u in row))
    return NormalizedMarket(
        budgets=tuple(b.numerator * (scale // b.denominator) for b in market.budgets),
        caps=tuple(caps),
        utilities=tuple(utilities),
        budget_scale=scale,
    )


def strip_trivial(market):
    """Drop buyers that value nothing and goods that nobody values from
    ``normalize``'s output.

    Such buyers get the empty bundle (trivially a demand bundle) and such
    goods get price zero in the assembled equilibrium; neither plays any
    role in the price dynamics.  Returns the reduced market together with
    the retained original indices.
    """
    buyers = tuple(i for i in range(market.n) if any(market.utilities[i]))
    goods = tuple(
        j for j in range(market.m) if any(market.utilities[i][j] for i in buyers)
    )
    if not buyers or not goods:
        raise InvalidMarketError("market is empty after preprocessing")
    reduced = NormalizedMarket(
        budgets=tuple(market.budgets[i] for i in buyers),
        caps=tuple(market.caps[i] for i in buyers),
        utilities=tuple(
            tuple(market.utilities[i][j] for j in goods) for i in buyers
        ),
        budget_scale=market.budget_scale,
    )
    return reduced, buyers, goods


def mul_pair(a, b, c, d):
    """(a/b)(c/d) as an integer pair, for a/b and c/d in lowest terms with
    b, d > 0: the cross-reduced product of ``Fraction``'s own multiply, so
    the result is in lowest terms too."""
    g, h = math.gcd(a, d), math.gcd(c, b)
    return (a // g) * (c // h), (b // h) * (d // g)


def add_pair(a, b, c, d):
    """a/b + c/d as an integer pair over lcm(b, d), for b, d > 0.

    Equal denominators add at once; else one gcd gives the lcm.  The sum is
    not reduced, but a running sum's denominator never grows past the lcm
    of its terms' denominators.
    """
    if b == d:
        return a + c, b
    g = math.gcd(b, d)
    return a * (d // g) + c * (b // g), b // g * d


def _fraction(num, den):
    return Fraction(num, den) if num else _ZERO


def buyer_pass(market, prices, buyer, bundle=None):
    """One pass over buyer i's utilities, the prices and a bundle.

    Returns (alpha, finite_alpha, free, spend, value, goods):
      alpha        -- the bang-per-buck ratio max_j u_ij / p_j, with 0/0 = 0
                      and INF if the buyer values a zero-priced good;
      finite_alpha -- the same maximum over the positively priced goods only;
      free         -- the buyer's total utility for the zero-priced goods;
      spend, value -- sum_j p_j x_ij and sum_j u_ij x_ij of the bundle (both
                      0 without one);
      goods        -- the goods attaining alpha, ascending: at INF the valued
                      zero-priced goods, at 0 none.

    The pass reads each entry's numerator and denominator once and works on
    integers.  Each ratio u_ij / p_j is an integer pair compared with
    ``ratio_sign`` against the running best: a larger one restarts the list
    of goods that attain it, an equal one joins it.  free, spend and value
    are integer pairs over the lcm of their terms' denominators
    (``add_pair`` of ``mul_pair`` products).  A Fraction is built only for
    each returned value, once.  A good with a negative price has a negative
    ratio and never attains the maximum; it is skipped.
    """
    num, den = 0, 1  # the largest u_ij / p_j over priced goods so far
    best, zero_priced = [], []  # the goods attaining it; valued free goods
    free_num = spend_num = value_num = 0
    free_den = spend_den = value_den = 1
    shares = repeat(0) if bundle is None else bundle
    for j, (u, p, x) in enumerate(zip(market.utilities[buyer], prices, shares)):
        u_num, u_den = u.numerator, u.denominator
        p_num, p_den = p.numerator, p.denominator
        x_num = x.numerator
        if x_num:
            x_den = x.denominator
            if p_num:
                spend_num, spend_den = add_pair(
                    spend_num, spend_den, *mul_pair(p_num, p_den, x_num, x_den)
                )
            if u_num:
                value_num, value_den = add_pair(
                    value_num, value_den, *mul_pair(u_num, u_den, x_num, x_den)
                )
        if not u_num:
            continue
        if p_num > 0:
            n_j, d_j = u_num * p_den, u_den * p_num
            sign = ratio_sign(n_j, d_j, num, den)
            if sign > 0:
                num, den, best = n_j, d_j, [j]
            elif not sign:
                best.append(j)
        elif not p_num:
            free_num, free_den = add_pair(free_num, free_den, u_num, u_den)
            zero_priced.append(j)
    finite_alpha = Fraction(num, den)
    free = _fraction(free_num, free_den)
    spend = _fraction(spend_num, spend_den)
    value = _fraction(value_num, value_den)
    if free_num:
        return INF, finite_alpha, free, spend, value, zero_priced
    return finite_alpha, finite_alpha, free, spend, value, best


def active_budget_at(market, buyer, alpha):
    """min(M_i, c_i / alpha) and whether the cap binds, at bang-per-buck
    ratio ``alpha``.

    The cap counts as binding on equality (c_i/alpha == M_i), decided by
    ``ratio_sign`` on integers; c_i / alpha is divided out only when it is
    returned.  Total on every input: a buyer that values nothing
    (alpha = 0) gets (0, False), an uncapped buyer gets (M_i, False) even at
    alpha = INF, and a capped buyer at alpha = INF gets (0, True).  M_i is
    returned as the market holds it, an int on a normalized market.
    """
    if alpha == 0:
        return _ZERO, False
    money = market.budgets[buyer]
    cap = market.caps[buyer]
    if cap is None:
        return money, False
    if alpha is INF:
        return _ZERO, True
    num, den = cap.numerator * alpha.denominator, cap.denominator * alpha.numerator
    if ratio_sign(num, den, money.numerator, money.denominator) <= 0:
        return cap / alpha, True
    return money, False


def over_cap(cap, num, den):
    """Whether the linear value num/den (den > 0) exceeds the cap ``cap``;
    never for an unbounded cap (``None``)."""
    return cap is not None and ratio_sign(num, den, cap.numerator, cap.denominator) > 0


def capped_utility(market, buyer, value):
    """min(c_i, value): the utility a buyer gets from linear value ``value``.

    Returns ``value`` itself unless it exceeds the cap (``over_cap``), and
    then the cap as the market holds it.
    """
    cap = market.caps[buyer]
    return cap if over_cap(cap, value.numerator, value.denominator) else value


def equality_graph(market, prices):
    """Every buyer's bang-per-buck ratio at ``prices`` and the equality
    edges (i, j) on which buyer i attains it.

    Returns (alphas, edges): a tuple of the ratios and a frozenset of the
    edges, both read off one ``buyer_pass`` per buyer, which decides every
    u_ij / p_j == alpha_i as it finds the maximum.
    """
    alphas, edges = [], set()
    for i in range(market.n):
        alpha, _, _, _, _, goods = buyer_pass(market, prices, i)
        alphas.append(alpha)
        edges.update((i, j) for j in goods)
    return tuple(alphas), frozenset(edges)
