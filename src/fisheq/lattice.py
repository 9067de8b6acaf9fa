"""Lattice structure of the modest MBB equilibria.

Price vectors of modest MBB equilibria are closed under pointwise max and
min; the constructive join/meet splice together the price and allocation of
the two inputs along the partition of goods into equal-, below- and
above-priced sets.

Each distinct (prices, allocation) is checked once per call, by one
``verify_allocation`` pass over the buyers, which gives its report and
rebuilds its active budgets, capped flags and utilities.  The first input
is always checked.  The second is checked only when its prices or its
allocation differ from the first's: verification reads nothing else, so
equal values get an identical report.  The splice is checked only when it
differs from both inputs; one equal to an input is that input's checked
record.  The result and the capped flags the partition tests are always
the rebuilt ones, never an input's stored fields, which verification does
not read.
"""

from __future__ import annotations

from .errors import InvariantError
from .record import FrozenRecord
from .verify import verify_allocation


class PricePartition(FrozenRecord):
    """The goods priced equal (S0: p == p'), below (S1: p < p') and above
    (S2: p > p'), and the buyers holding goods of each."""

    def __init__(self, equal, below, above, buyers_equal, buyers_below, buyers_above):
        self.__dict__.update(
            equal=equal,
            below=below,
            above=above,
            buyers_equal=buyers_equal,
            buyers_below=buyers_below,
            buyers_above=buyers_above,
        )


def _touched(alloc, goods):
    return frozenset(
        i for i, row in enumerate(alloc) if any(row[j].numerator > 0 for j in goods)
    )


def _checked(market, equilibrium, name):
    """The input's record rebuilt by the pass that verified it."""
    report, checked, _ = verify_allocation(
        market, equilibrium.prices, equilibrium.allocation
    )
    if not report.ok:
        raise ValueError(
            f"{name} is not a modest MBB equilibrium: {report.violations}"
        )
    return checked


def _split(market, first, second):
    """The partition of ``partition`` together with both inputs' checked
    records."""
    first = _checked(market, first, "first equilibrium")
    if second.prices == first.prices and second.allocation == first.allocation:
        second = first
    else:
        second = _checked(market, second, "second equilibrium")
    equal, below, above = [], [], []
    for j in range(market.m):
        if first.prices[j] == second.prices[j]:
            equal.append(j)
        elif first.prices[j] < second.prices[j]:
            below.append(j)
        else:
            above.append(j)
    groups = {}
    for name, goods in (("equal", equal), ("below", below), ("above", above)):
        mine = _touched(first.allocation, goods)
        theirs = _touched(second.allocation, goods)
        if mine != theirs:
            raise InvariantError(
                f"buyer sets for {name}-priced goods differ: {sorted(mine)} vs {sorted(theirs)}"
            )
        groups[name] = mine
    if (
        groups["equal"] & groups["below"]
        or groups["equal"] & groups["above"]
        or groups["below"] & groups["above"]
    ):
        raise InvariantError("buyer groups of the price partition overlap")
    for i in groups["below"] | groups["above"]:
        if not (first.capped[i] and second.capped[i]):
            raise InvariantError(f"buyer {i} moves prices while uncapped")
    split = PricePartition(
        equal=tuple(equal),
        below=tuple(below),
        above=tuple(above),
        buyers_equal=groups["equal"],
        buyers_below=groups["below"],
        buyers_above=groups["above"],
    )
    return split, first, second


def partition(market, first, second):
    """Split goods by price comparison and buyers by where their allocation
    sits.  The three buyer sets must agree between the two equilibria, be
    mutually disjoint, and be capped outside the equal-price part; a
    violation means a bug or a bad input and raises."""
    return _split(market, first, second)[0]


def _splice(market, first, second, take_second):
    """Second's prices and allocation on the goods in ``take_second``,
    first's elsewhere; ``first`` and ``second`` are checked records."""
    sides = [second if j in take_second else first for j in range(market.m)]
    prices = tuple(side.prices[j] for j, side in enumerate(sides))
    alloc = tuple(
        tuple(side.allocation[i][j] for j, side in enumerate(sides))
        for i in range(market.n)
    )
    for checked in (first, second):
        if prices == checked.prices and alloc == checked.allocation:
            return checked
    report, result, _ = verify_allocation(market, prices, alloc)
    if not report.ok:
        raise InvariantError(f"spliced equilibrium fails to verify: {report.violations}")
    return result


def join(market, first, second):
    """Pointwise price maximum: the second's prices and allocation on the
    goods where it is higher, the first's everywhere else."""
    split, first, second = _split(market, first, second)
    return _splice(market, first, second, set(split.below))


def meet(market, first, second):
    """Pointwise price minimum (mirror image of join)."""
    split, first, second = _split(market, first, second)
    return _splice(market, first, second, set(split.above))
