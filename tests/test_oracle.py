from fractions import Fraction as F

import pytest

from fisheq import Market
from fisheq.flow import FlowNetwork, is_balanced
from oracle import (
    ConvergenceError,
    balanced_surplus_levels,
    edge_flow,
    equalize_balanced,
    solve_eg_numeric,
)


class TestEqualizeBalanced:
    def test_overlap_initial_network(self):
        net = FlowNetwork.from_edges((F(1), F(1)), (F(2), F(2)), {(0, 0), (0, 1), (1, 1)})
        f = equalize_balanced(net)
        assert f.surpluses() == (F(1), F(1))
        assert is_balanced(f)

    def test_stable_on_repeat(self):
        net = FlowNetwork.from_edges((F(1), F(1)), (F(2), F(2)), {(0, 0), (0, 1), (1, 1)})
        first = equalize_balanced(net)
        second = equalize_balanced(net)
        assert edge_flow(first) == edge_flow(second)

    def test_example_initial_network(self):
        net = FlowNetwork.from_edges((F(4, 5), F(1)), (F(4), F(4)), {(0, 0), (1, 0)})
        assert equalize_balanced(net).surpluses() == (F(11, 5), F(4))

    def test_levels_match_direct_peel(self):
        net = FlowNetwork.from_edges(
            (F(10), F(8)),
            (F(100), F(2), F(41), F(3)),
            {(0, 0), (1, 2), (1, 3)},
        )
        assert balanced_surplus_levels(net) == (F(90), F(2), F(33), F(3))

    def test_enumeration_guard(self):
        big = FlowNetwork.from_edges(
            (F(1),), tuple(F(1) for _ in range(20)), {(0, j) for j in range(20)}
        )
        with pytest.raises(ValueError):
            balanced_surplus_levels(big)


class TestSolveEgNumeric:
    def test_example_utilities(self, capped_market):
        utilities, _ = solve_eg_numeric(capped_market)
        assert utilities[0] == pytest.approx(1.0, rel=1e-4)
        assert utilities[1] == pytest.approx(2.6, rel=1e-4)

    def test_cap_binds_single_pair(self):
        market = Market((F(2),), (F(1),), ((F(3),),))
        utilities, _ = solve_eg_numeric(market)
        assert utilities[0] == pytest.approx(1.0, rel=1e-6)

    def test_overlap_market(self, overlap_market):
        utilities, _ = solve_eg_numeric(overlap_market)
        assert utilities[0] == pytest.approx(1.0, rel=1e-4)
        assert utilities[1] == pytest.approx(1.0, rel=1e-4)

    def test_tolerance_precondition(self, capped_market):
        with pytest.raises(ValueError):
            solve_eg_numeric(capped_market, tol=1e-12)

    def test_budget_exhaustion_raises(self, capped_market):
        with pytest.raises(ConvergenceError):
            solve_eg_numeric(capped_market, max_iters=3)

    def test_allocation_is_modest_and_feasible(self, capped_market):
        _, allocation = solve_eg_numeric(capped_market)
        sold = allocation.sum(axis=0)
        assert (sold <= 1 + 1e-9).all()
        utility = sum(
            float(u) * allocation[0][j]
            for j, u in enumerate(capped_market.utilities[0])
        )
        assert utility <= float(capped_market.caps[0]) + 1e-9
