import json
import random
import re
import sys
from fractions import Fraction as F

import pytest

import fisheq.market
import fisheq.minrev
from fisheq import (
    InvariantError,
    Market,
    VerificationReport,
    equilibrium_from_allocation,
    min_revenue,
    solve_max_revenue,
    verify,
)
from fisheq.cli import main
from fisheq.serialize import market_to_doc
from oracle import reference_min_revenue
from test_acceptance import corpus_markets
from test_properties import random_tied_market
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
    # one pass checks the input, one the result: good 0 falls to zero
    top = solve_max_revenue(overlap_market).equilibrium
    buyer_passes.clear()
    assert min_revenue(overlap_market, top).prices == (F(0), F(1))
    assert len(buyer_passes) == 2 * overlap_market.n


def test_left_the_equilibrium_set_guard_fires(overlap_market, tmp_path, monkeypatch, capsys):
    # The second check is the result's (the first is the input's).
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
    # The edges come off the pass that verified the input.
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


def test_two_passes_however_many_sets_fall(buyer_passes):
    # Goods 1 and 2 fall to different prices, in one relaxation: one pass
    # checks the input and one the result.
    market = Market((1, 2, 2), (None, 1, 1), ((1, 1, 0), (0, 1, 1), (0, 1, 0)))
    top = solve_max_revenue(market).equilibrium
    assert top.prices == (F(1), F(2), F(2))
    buyer_passes.clear()
    low = min_revenue(market, top)
    assert low.prices == (F(1), F(1), F(0))
    assert len(buyer_passes) == 2 * market.n
    assert low == reference_min_revenue(market, top)


# The corpus markets (``test_acceptance.corpus_markets``) whose prices fall.
CORPUS_FALLING = (23, 28, 34, 126, 158, 217, 239, 240, 241, 249, 339, 363, 368, 401, 426, 486)


def test_matches_the_loop_reference_where_corpus_prices_fall():
    wanted = set(CORPUS_FALLING)
    for k, market in enumerate(corpus_markets()):
        if k in wanted:
            top = solve_max_revenue(market).equilibrium
            low = min_revenue(market, top)
            assert low.prices != top.prices, k
            assert low == reference_min_revenue(market, top), k


def _reference_sweep(seed, count, sizes):
    """``count`` tie-heavy markets from ``Random(seed)``: ``min_revenue`` of
    each maximum-revenue equilibrium equals the loop reference's."""
    rng = random.Random(seed)
    mismatches = []
    for k in range(count):
        market = random_tied_market(rng, sizes)
        top = solve_max_revenue(market).equilibrium
        if min_revenue(market, top) != reference_min_revenue(market, top):
            mismatches.append(k)
    assert not mismatches, f"{len(mismatches)} of {count} differ: {mismatches}"


@pytest.mark.slow
def test_matches_the_loop_reference_on_tied_markets():
    _reference_sweep(3401, 3000, (1, 6))
    _reference_sweep(3402, 1000, (5, 12))


# An uncapped buyer 0 holds good 0, and its bound on good 1 (1/2 of good
# 0's price) is slack.  Capped buyers 1 and 2 hold goods 1 and 2 and each
# value the other's good twice their own: a cycle of bounds of product 4.
CYCLE_MARKET = Market((1, 1, 1), (None, 1, 1), ((2, 1, 0), (0, 1, 2), (0, 2, 1)))
CYCLE_EDGES = frozenset({(0, 0), (1, 1), (2, 2)})


def _crafted_first(real):
    """``real``, a ``verify_allocation``, except that its first call passes
    ``CYCLE_MARKET`` at prices (1, 1, 1) with ``CYCLE_EDGES``, whatever it
    is given."""
    calls = []

    def wrapped(market, prices, allocation):
        calls.append(None)
        if len(calls) > 1:
            return real(market, prices, allocation)
        alloc = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        checked = equilibrium_from_allocation(CYCLE_MARKET, (1, 1, 1), alloc)
        assert checked.capped == (False, True, True)
        return VerificationReport(), checked, (None, CYCLE_EDGES)

    return wrapped


def test_rounds_guard_fires(tmp_path, monkeypatch, capsys):
    real = fisheq.minrev.verify_allocation
    message = "price bounds still rising after 3 rounds"
    monkeypatch.setattr(fisheq.minrev, "verify_allocation", _crafted_first(real))
    top = solve_max_revenue(CYCLE_MARKET).equilibrium
    with pytest.raises(InvariantError, match=f"^{message}$"):
        min_revenue(CYCLE_MARKET, top)

    path = tmp_path / "market.json"
    path.write_text(json.dumps(market_to_doc(CYCLE_MARKET)))
    monkeypatch.setattr(fisheq.minrev, "verify_allocation", _crafted_first(real))
    assert main(["solve", str(path), "--objective", "min-revenue"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"internal invariant failure: {message}\n"
