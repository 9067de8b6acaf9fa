"""Lattice structure of the modest MBB equilibria.

Price vectors of modest MBB equilibria are closed under pointwise max and
min; the constructive join/meet splice together the price and allocation of
the two inputs along the partition of goods into equal-, below- and
above-priced sets.

Each distinct (prices, allocation) is checked at most once per call.  The
first input is admitted by ``verify._admitted``.  The second is admitted
only when its prices or its allocation differ from the first's: admission
reads nothing else, so equal values get an identical verdict.  The splice
is certified by one walk only when it differs from both inputs; one equal
to an input is that input's admitted record.
"""

from __future__ import annotations

from .errors import InvariantError
from .record import FrozenRecord
from .verify import _admitted, _certified


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


def _touched(alloc, group):
    """Per group of goods (``group[j]`` is good j's: 0 equal, 1 below, 2
    above), the buyers holding a positive share of one of its goods."""
    held = (set(), set(), set())
    for i, row in enumerate(alloc):
        for j, x in enumerate(row):
            if x.numerator > 0:
                held[group[j]].add(i)
    return tuple(map(frozenset, held))


def _split(market, first, second):
    """The partition of ``partition`` together with both inputs' admitted
    records."""
    first = _admitted(market, first, "first equilibrium")[0]
    if second.prices == first.prices and second.allocation == first.allocation:
        second = first
    else:
        second = _admitted(market, second, "second equilibrium")[0]
    if second is first:
        group = (0,) * market.m
    else:
        group = [
            0 if p == q else 1 if p < q else 2 for p, q in zip(first.prices, second.prices)
        ]
    goods = tuple(tuple(j for j, g in enumerate(group) if g == k) for k in range(3))
    mine = _touched(first.allocation, group)
    theirs = mine if second is first else _touched(second.allocation, group)
    for name, a, b in zip(("equal", "below", "above"), mine, theirs):
        if a != b:
            raise InvariantError(
                f"buyer sets for {name}-priced goods differ: {sorted(a)} vs {sorted(b)}"
            )
    equal, below, above = mine
    if equal & below or equal & above or below & above:
        raise InvariantError("buyer groups of the price partition overlap")
    for i in below | above:
        if not (first.capped[i] and second.capped[i]):
            raise InvariantError(f"buyer {i} moves prices while uncapped")
    split = PricePartition(*goods, *mine)
    return split, first, second


def partition(market, first, second):
    """Split goods by price comparison and buyers by where their allocation
    sits.  The three buyer sets must agree between the two equilibria, be
    mutually disjoint, and be capped outside the equal-price part; a
    violation means a bug or a bad input and raises."""
    return _split(market, first, second)[0]


def _splice(market, first, second, take_second):
    """Second's prices and allocation on the goods in ``take_second``,
    first's elsewhere; ``first`` and ``second`` are admitted records."""
    if not take_second:
        return first
    if len(take_second) == market.m:
        return second
    sides = [second if j in take_second else first for j in range(market.m)]
    prices = tuple(side.prices[j] for j, side in enumerate(sides))
    alloc = tuple(
        tuple(side.allocation[i][j] for j, side in enumerate(sides))
        for i in range(market.n)
    )
    for checked in (first, second):
        if prices == checked.prices and alloc == checked.allocation:
            return checked
    return _certified(market, prices, alloc, "spliced equilibrium fails to verify")


def join(market, first, second):
    """Pointwise price maximum: the second's prices and allocation on the
    goods where it is higher, the first's everywhere else."""
    split, first, second = _split(market, first, second)
    return _splice(market, first, second, set(split.below))


def meet(market, first, second):
    """Pointwise price minimum (mirror image of join)."""
    split, first, second = _split(market, first, second)
    return _splice(market, first, second, set(split.above))
