"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The random-market corpus
is solved once per session and shared by the criteria that reuse it.
"""

import random
import time
from fractions import Fraction as F

import pytest

from fisheq import (
    join,
    meet,
    min_revenue,
    normalize,
    solve_max_revenue,
    strip_trivial,
    verify,
)
from fisheq.cli import generate_market
from fisheq.flow import FlowNetwork, balanced_flow, is_balanced, max_flow
from oracle import equalize_balanced, solve_eg_numeric

CORPUS_SIZE = 500
ORACLE_SIZE = 100
NETWORKS = 200


def corpus_markets():
    """Criterion 4-6/8 corpus: 500 random instances, n, m <= 6, U <= 20."""
    rng = random.Random(20_26)
    for seed in range(CORPUS_SIZE):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        yield generate_market(n, m, 20, seed)


@pytest.fixture(scope="session")
def corpus():
    return [(market, solve_max_revenue(market)) for market in corpus_markets()]


def test_criterion_1_capped_example_exact(capped_market):
    start = time.monotonic()
    result = solve_max_revenue(capped_market)
    elapsed = time.monotonic() - start
    eq = result.equilibrium
    assert eq.prices == (F(10, 13), F(5, 13))
    assert eq.allocation == ((F(1, 5), F(0)), (F(4, 5), F(1)))
    assert sum(p * x for p, x in zip(eq.prices, eq.allocation[0])) == F(2, 13)
    assert eq.utilities == (F(1), F(13, 5))
    assert elapsed < 1.0
    print(f"\nPASS criterion 1: capped example exact ({elapsed:.3f}s)")


def test_criterion_2_linear_special_case(linear_market):
    start = time.monotonic()
    eq = solve_max_revenue(linear_market).equilibrium
    elapsed = time.monotonic() - start
    assert eq.prices == (F(3), F(1))
    assert eq.allocation == ((F(1), F(0)), (F(0), F(1)))
    assert elapsed < 1.0
    print(f"\nPASS criterion 2: linear special case exact ({elapsed:.3f}s)")


def test_criterion_3_overlap_example_endpoints(overlap_market):
    start = time.monotonic()
    top = solve_max_revenue(overlap_market).equilibrium
    low = min_revenue(overlap_market, top)
    elapsed = time.monotonic() - start
    assert top.prices == (F(1), F(1))
    assert low.prices == (F(0), F(1))
    assert low.allocation == top.allocation
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: max/min revenue endpoints exact ({elapsed:.3f}s)")


def test_criterion_4_exact_clearing_on_corpus(corpus):
    start = time.monotonic()
    for market, result in corpus:
        assert all(r == 0 for r in result.final_surpluses)
        report = verify(market, result.equilibrium)
        assert report.ok, report.violations
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        f"\nPASS criterion 4: exact zero surplus and full verification on "
        f"{len(corpus)} instances ({elapsed:.1f}s)"
    )


def test_criterion_5_norm_decrease_and_iteration_bounds(corpus):
    for market, result in corpus:
        stripped, _, _ = strip_trivial(normalize(market))
        guard = (
            8
            * stripped.m
            * stripped.n
            * (
                (stripped.m + stripped.n).bit_length()
                + (stripped.m + stripped.n) * stripped.U.bit_length()
                + 1
            )
        )
        assert len(result.phases) <= guard
        for phase in result.phases:
            # Geometric norm decrease, exact rational comparison;
            # phases run after every buyer is deleted still shrink the norm
            # (they zero out a whole surplus class), so n floors at 1.
            mn = 4 * max(1, phase.live_buyers) * phase.live_goods
            assert phase.norm2_end * mn <= phase.norm2_start * (mn - 1)
            assert phase.iterations <= 2 * phase.live_buyers
    print(
        f"\nPASS criterion 5: norm-decrease law, <=2n iterations per phase, "
        f"phase guard on {len(corpus)} instances"
    )


def test_criterion_6_price_bit_length_law(corpus):
    for market, result in corpus:
        stripped, _, _ = strip_trivial(normalize(market))
        size = stripped.m + stripped.n
        bound = size * stripped.U ** (3 * size)
        for record in result.trace:
            for price in record.prices:
                assert abs(price.numerator) <= bound
                assert price.denominator <= bound
    print(
        f"\nPASS criterion 6: committed prices within the bit-length bound "
        f"on {len(corpus)} instances"
    )


def test_criterion_7_utilities_match_numeric_oracle():
    start = time.monotonic()
    rng = random.Random(7_026)
    worst = 0.0
    for seed in range(ORACLE_SIZE):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        market = generate_market(n, m, 10, 100_000 + seed)
        exact = solve_max_revenue(market).equilibrium
        numeric, _ = solve_eg_numeric(market)
        for i in range(market.n):
            target = float(exact.utilities[i])
            rel = abs(target - numeric[i]) / max(1.0, abs(target))
            worst = max(worst, rel)
            assert rel <= 1e-4
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"\nPASS criterion 7: solver/oracle utilities within 1e-4 on "
        f"{ORACLE_SIZE} instances (worst {worst:.2e}, {elapsed:.1f}s)"
    )


def test_criterion_8_revenue_extremality(corpus):
    checked = 0
    for market, result in corpus:
        top = result.equilibrium
        low = min_revenue(market, top)
        assert all(a <= b for a, b in zip(low.prices, top.prices))
        assert low.utilities == top.utilities
        # join/meet verify internally and fail loudly if the splice breaks
        assert meet(market, top, low).prices == low.prices
        assert join(market, top, low).prices == top.prices
        checked += 1
    print(f"\nPASS criterion 8: revenue extremality and lattice splices on {checked} instances")


def _random_saturable_network(rng):
    n, m = rng.randint(1, 6), rng.randint(1, 6)
    budgets = [F(rng.randint(0, 12)) for _ in range(n)]
    prices = tuple(F(rng.randint(1, 15)) for _ in range(m))
    edges = {(i, j) for i in range(n) for j in range(m) if rng.random() < 0.5}
    for i in range(n):
        if not any(e[0] == i for e in edges):
            budgets[i] = F(0)
    net = FlowNetwork.from_edges(tuple(budgets), prices, frozenset(edges))
    if not max_flow(net).sources_saturated():
        lift = sum(budgets, F(0))
        net = FlowNetwork.from_edges(
            tuple(budgets), tuple(p + lift for p in prices), frozenset(edges)
        )
    return net if max_flow(net).sources_saturated() else None


def test_criterion_9_balanced_flow_cross_check():
    rng = random.Random(9_026)
    done = 0
    while done < NETWORKS:
        net = _random_saturable_network(rng)
        if net is None:
            continue
        ours = balanced_flow(net)
        oracle = equalize_balanced(net)
        assert ours.surpluses() == oracle.surpluses()
        assert is_balanced(ours) and is_balanced(oracle)
        done += 1
    print(f"\nPASS criterion 9: balanced-flow surplus vectors identical on {NETWORKS} networks")


def test_smoke_benchmark_20x20():
    market = generate_market(20, 20, 100, 7)
    start = time.monotonic()
    result = solve_max_revenue(market)
    elapsed = time.monotonic() - start
    assert verify(market, result.equilibrium).ok
    assert elapsed < 60.0
    print(f"\nPASS smoke benchmark: 20x20, U=100 solved in {elapsed:.2f}s")
