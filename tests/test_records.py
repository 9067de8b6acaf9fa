"""The value classes' behaviour: field-wise equality that tells classes
apart, hashing of the frozen ones only, their repr text, no assignment to
a frozen one, and the cached reads."""

from fractions import Fraction as F

import pytest

from fisheq import (
    Equilibrium,
    EventRecord,
    Market,
    PricePartition,
    SolveResult,
    VerificationReport,
)
from fisheq.descend import PhaseStats
from fisheq.flow import FlowNetwork
from fisheq.market import NormalizedMarket


def replaced(record, **changes):
    """``record`` rebuilt through its class's constructor, with ``changes``
    in place of some of its fields."""
    fields = {name: getattr(record, name) for name in record._fields}
    return type(record)(**{**fields, **changes})


def market():
    return Market((1, F(1, 2)), (None, 2), ((1, 0), (F(1, 3), 1)))


def normalized():
    return NormalizedMarket(
        budgets=(2, 1), caps=(None, 6), utilities=((1, 0), (1, 3)), budget_scale=2
    )


def equilibrium():
    return Equilibrium(
        prices=(1, F(1, 2)),
        allocation=((1, 0), (0, 1)),
        active_budgets=(1, F(1, 2)),
        capped=(0, 0),
        utilities=(1, 1),
    )


def network():
    return FlowNetwork.from_edges((1,), (2,), [(0, 0)])


def record():
    return EventRecord(
        kind="tight-set",
        x=F(1, 3),
        buyers=(1,),
        goods=(1,),
        scaled_buyers=(),
        phase=1,
        iteration=1,
        prices=(F(3), F(1)),
        active_budgets=(F(2), F(1)),
        surplus_ints=(1, 2),
        surplus_denom=1,
    )


def phase():
    return PhaseStats(phase=1, live_buyers=2, live_goods=2, norm2_start=F(5), norm2_end=F(1))


def result():
    return SolveResult(
        equilibrium=equilibrium(), trace=[record()], phases=[phase()], final_surpluses=(F(0),)
    )


def split():
    return PricePartition(
        equal=(0, 1),
        below=(),
        above=(),
        buyers_equal=frozenset({0, 1}),
        buyers_below=frozenset(),
        buyers_above=frozenset(),
    )


FROZEN = [market, normalized, equilibrium, network, record, split]
MUTABLE = [phase, result, VerificationReport]
ALL = FROZEN + MUTABLE

REPRS = {
    market: "Market(budgets=(Fraction(1, 1), Fraction(1, 2)), caps=(None, Fraction(2, 1)), "
    "utilities=((Fraction(1, 1), Fraction(0, 1)), (Fraction(1, 3), Fraction(1, 1))))",
    normalized: "NormalizedMarket(budgets=(2, 1), caps=(None, 6), utilities=((1, 0), (1, 3)), "
    "budget_scale=2)",
    equilibrium: "Equilibrium(prices=(Fraction(1, 1), Fraction(1, 2)), "
    "allocation=((Fraction(1, 1), Fraction(0, 1)), (Fraction(0, 1), Fraction(1, 1))), "
    "active_budgets=(Fraction(1, 1), Fraction(1, 2)), capped=(False, False), "
    "utilities=(Fraction(1, 1), Fraction(1, 1)))",
    network: "FlowNetwork(budgets=(Fraction(1, 1),), prices=(Fraction(2, 1),), "
    "buyer_goods=((0,),), good_buyers=((0,),))",
    record: "EventRecord(kind='tight-set', x=Fraction(1, 3), buyers=(1,), goods=(1,), "
    "scaled_buyers=(), phase=1, iteration=1, prices=(Fraction(3, 1), Fraction(1, 1)), "
    "active_budgets=(Fraction(2, 1), Fraction(1, 1)), surplus_ints=(1, 2), surplus_denom=1, "
    "new_edges=())",
    phase: "PhaseStats(phase=1, live_buyers=2, live_goods=2, norm2_start=Fraction(5, 1), "
    "norm2_end=Fraction(1, 1), iterations=0)",
    split: "PricePartition(equal=(0, 1), below=(), above=(), buyers_equal=frozenset({0, 1}), "
    "buyers_below=frozenset(), buyers_above=frozenset())",
    VerificationReport: "VerificationReport(is_equilibrium=True, is_modest=True, is_mbb=True, "
    "kkt_ok=True, violations=[])",
}


@pytest.mark.parametrize("make", list(REPRS), ids=lambda make: make.__name__)
def test_repr_text(make):
    assert repr(make()) == REPRS[make]


def test_solve_result_repr_lists_its_fields():
    assert repr(result()) == (
        f"SolveResult(equilibrium={equilibrium()!r}, trace=[{record()!r}], "
        f"phases=[{phase()!r}], final_surpluses=(Fraction(0, 1),))"
    )


@pytest.mark.parametrize("make", ALL, ids=lambda make: make.__name__)
def test_equality_is_field_wise(make):
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != object() and first != ()


@pytest.mark.parametrize(
    "first, second",
    [
        (market(), Market((1, F(1, 2)), (None, 3), ((1, 0), (F(1, 3), 1)))),
        (normalized(), NormalizedMarket((2, 1), (None, 6), ((1, 0), (1, 3)), 1)),
        (equilibrium(), Equilibrium((1, 1), ((1, 0), (0, 1)), (1, F(1, 2)), (0, 0), (1, 1))),
        (network(), FlowNetwork.from_edges((1,), (3,), [(0, 0)])),
        (record(), EventRecord("tight-set", F(1, 3), (1,), (1,), (), phase=2)),
        (phase(), PhaseStats(1, 2, 2, F(5))),
        (VerificationReport(), VerificationReport(kkt_ok=False)),
        (split(), PricePartition((0,), (1,), (), frozenset({0, 1}), frozenset(), frozenset())),
    ],
    ids=lambda value: type(value).__name__,
)
def test_one_differing_field_makes_records_unequal(first, second):
    assert first != second


def test_equality_tells_the_classes_apart():
    raw = Market((2, 1), (None, 6), ((1, 0), (1, 3)))
    plain = NormalizedMarket(raw.budgets, raw.caps, raw.utilities)
    assert (raw.budgets, raw.caps, raw.utilities) == (plain.budgets, plain.caps, plain.utilities)
    assert raw != plain and plain != raw
    assert Market(plain.budgets, plain.caps, plain.utilities) == raw


@pytest.mark.parametrize("make", FROZEN, ids=lambda make: make.__name__)
def test_frozen_records_hash_by_value(make):
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize("make", MUTABLE, ids=lambda make: make.__name__)
def test_mutable_records_are_unhashable(make):
    with pytest.raises(TypeError):
        hash(make())


@pytest.mark.parametrize("make", FROZEN, ids=lambda make: make.__name__)
def test_frozen_fields_refuse_assignment(make):
    value = make()
    name = next(iter(vars(value)))
    with pytest.raises(AttributeError):
        setattr(value, name, ())
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == make()


def test_mutable_records_take_assignment():
    stats = phase()
    stats.iterations = 3
    assert stats.iterations == 3 and stats != phase()


def test_each_report_gets_its_own_violations_list():
    first, second = VerificationReport(), VerificationReport()
    first.violations.append("x")
    assert second.violations == [] and VerificationReport().violations == []
    assert VerificationReport(violations=["y"]).violations == ["y"]


def test_defaults():
    assert (record().new_edges, EventRecord("cap", F(1), (), (), ()).phase) == ((), 0)
    bare = EventRecord("cap", F(1), (), (), ())
    assert (bare.iteration, bare.prices, bare.active_budgets) == (0, (), ())
    assert (bare.surplus_ints, bare.surplus_denom) == ((), 1)
    assert (phase().iterations, PhaseStats(1, 2, 2, F(5)).norm2_end) == (0, None)
    assert Market((1,), (None,), ((1,),)) == Market(budgets=(1,), caps=(None,), utilities=((1,),))
    assert NormalizedMarket((1,), (None,), ((1,),)).budget_scale == 1


def test_cached_reads_are_computed_once():
    event = record()
    assert event.surpluses == (F(1), F(2))
    assert event.surpluses is event.surpluses
    assert "surpluses" in vars(event)
    flow_network = network()
    assert flow_network._cleared is flow_network._cleared
    assert flow_network._cleared == (1, [1], [2])
    assert "_cleared" in vars(flow_network)
    assert event == record() and flow_network == network()  # not a field
