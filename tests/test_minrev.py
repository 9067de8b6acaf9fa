import json
import re
import sys
from fractions import Fraction as F

import pytest

import fisheq.market
import fisheq.minrev
from fisheq import (
    InvariantError,
    Market,
    equilibrium_from_allocation,
    min_revenue,
    solve_max_revenue,
    verify,
)
from fisheq.cli import main
from fisheq.serialize import market_to_doc
from test_verify import INJECTED, failing_on_call


def test_overlap_market_drops_to_zero_one(overlap_market):
    top = solve_max_revenue(overlap_market).equilibrium
    assert top.prices == (F(1), F(1))
    low = min_revenue(overlap_market, top)
    assert low.prices == (F(0), F(1))
    assert low.allocation == top.allocation
    assert verify(overlap_market, low).ok


def test_uncapped_neighbors_leave_prices_alone(linear_market):
    top = solve_max_revenue(linear_market).equilibrium
    low = min_revenue(linear_market, top)
    assert low.prices == top.prices
    assert low.allocation == top.allocation


def test_twin_capped_buyers_drop_to_zero(twin_market):
    top = solve_max_revenue(twin_market).equilibrium
    assert top.prices == (F(5), F(5))
    low = min_revenue(twin_market, top)
    assert low.prices == (F(0), F(0))
    assert low.utilities == top.utilities == (F(1), F(1))
    assert verify(twin_market, low).ok


def test_idempotent(overlap_market, twin_market, capped_market):
    for market in (overlap_market, twin_market, capped_market):
        top = solve_max_revenue(market).equilibrium
        low = min_revenue(market, top)
        assert min_revenue(market, low) == low


def test_one_pass_when_nothing_scales(buyer_passes, linear_market):
    top = solve_max_revenue(linear_market).equilibrium
    buyer_passes.clear()
    assert min_revenue(linear_market, top) == top
    assert len(buyer_passes) == linear_market.n


def test_one_pass_per_scaling_loop(buyer_passes, overlap_market):
    # one loop scales good 0 to zero, the next finds nothing to scale
    top = solve_max_revenue(overlap_market).equilibrium
    buyer_passes.clear()
    assert min_revenue(overlap_market, top).prices == (F(0), F(1))
    assert len(buyer_passes) == 2 * overlap_market.n


def test_left_the_equilibrium_set_guard_fires(overlap_market, tmp_path, monkeypatch, capsys):
    # The second check is the boundary equilibrium of the first scaling
    # loop (the first is the input's).
    real = fisheq.minrev.verify_allocation
    message = re.escape(f"postprocessing left the equilibrium set: [{INJECTED[0]!r}")
    top = solve_max_revenue(overlap_market).equilibrium
    monkeypatch.setattr(fisheq.minrev, "verify_allocation", failing_on_call(real, 2))
    with pytest.raises(InvariantError, match=message):
        min_revenue(overlap_market, top)

    path = tmp_path / "market.json"
    path.write_text(json.dumps(market_to_doc(overlap_market)))
    monkeypatch.setattr(fisheq.minrev, "verify_allocation", failing_on_call(real, 2))
    assert main(["solve", str(path), "--objective", "min-revenue"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert re.match(f"internal invariant failure: {message}", err)


def test_no_equality_graph_call(monkeypatch, overlap_market):
    # Each loop reads the edges off the pass that verified its equilibrium.
    calls = []
    original = fisheq.market.equality_graph

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fisheq" and getattr(module, "equality_graph", None) is original:
            monkeypatch.setattr(module, "equality_graph", counted)
    top = solve_max_revenue(overlap_market).equilibrium
    assert calls  # the solve's one call is counted
    calls.clear()
    assert min_revenue(overlap_market, top).prices == (F(0), F(1))
    assert calls == []


def test_rejects_non_equilibrium_input(capped_market):
    bogus = equilibrium_from_allocation(
        capped_market, (F(3), F(1)), ((F(1), F(0)), (F(0), F(1)))
    )
    with pytest.raises(ValueError):
        min_revenue(capped_market, bogus)


def test_straddling_holdings_block_the_scaling():
    # Buyer 0 is capped with equality edges to both goods and allocation on
    # both; good 0's only neighbor is capped, yet its price cannot drop
    # without stranding buyer 0's holding of good 1.  The equilibrium is
    # unique, so postprocessing must return it unchanged.
    market = Market(
        (F(10), F(1)),
        (F(3, 2), None),
        ((F(1), F(1)), (F(0), F(1))),
    )
    eq = equilibrium_from_allocation(
        market, (F(2), F(2)), ((F(1), F(1, 2)), (F(0), F(1, 2)))
    )
    assert verify(market, eq).ok
    low = min_revenue(market, eq)
    assert low.prices == eq.prices
    assert low.allocation == eq.allocation


def test_extremality_against_numeric_oracle_prices():
    # The max-revenue prices dominate any equilibrium price vector and the
    # postprocessed prices are dominated by it; check both against the
    # numeric oracle's dual prices within float tolerance.
    import numpy as np

    from fisheq.cli import generate_market
    from oracle import _dual_estimate, solve_eg_numeric

    for seed in range(12):
        market = generate_market(3, 3, 8, 4_000 + seed)
        result = solve_max_revenue(market)
        top = result.equilibrium
        low = min_revenue(market, top)
        _, allocation = solve_eg_numeric(market)
        U = np.array([[float(u) for u in row] for row in market.utilities])
        money = np.array([float(b) for b in market.budgets])
        caps = np.array([float(c) if c is not None else np.inf for c in market.caps])
        _, oracle_prices = _dual_estimate(U, money, caps, allocation)
        for j in range(market.m):
            assert float(top.prices[j]) >= oracle_prices[j] - 1e-3
        assert float(low.revenue) <= float(oracle_prices.sum()) + 1e-3
