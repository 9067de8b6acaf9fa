"""Fractions built by one step of the pipeline over the benchmark's market pools.

    python3 tools/fraction_counts.py [--workload square|bigint|corpus]
                                     [--step solve|verify|min_revenue|lattice]

Run from the root of a source checkout; the package is imported from
``src/`` and the pools from ``perfbench/run.py`` (``WORKLOADS``), so every
market is the one the benchmark solves.  The markets of a pool, and the
inputs the step reads, are built first.  Then the step runs once on every
market with ``fractions.Fraction.__new__`` wrapped from outside the
package, and the script prints how many ``Fraction`` objects it built in
total.  The steps are those the benchmark times:

    solve        solve_max_revenue(market) (the default);
    verify       verify of the maximum- and the minimum-revenue endpoint;
    min_revenue  min_revenue(market, maximum-revenue endpoint);
    lattice      meet and join of the two endpoints.

Only constructions that go through ``Fraction.__new__`` are counted.  Which
of ``fractions``' own operations do so differs between Python versions,
so the counts compare two versions of the package on one interpreter and
are not pinned across versions.
"""

from __future__ import annotations

import argparse
import fractions
import sys
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fisheq import join, meet, min_revenue, solve_max_revenue, verify  # noqa: E402
from fisheq.cli import generate_market  # noqa: E402
from run import WORKLOADS  # noqa: E402

STEPS = ("solve", "verify", "min_revenue", "lattice")


def _calls(market, step):
    """The calls ``step`` makes on ``market``, with their inputs built."""
    if step == "solve":
        return [partial(solve_max_revenue, market)]
    high = solve_max_revenue(market).equilibrium
    if step == "min_revenue":
        return [partial(min_revenue, market, high)]
    low = min_revenue(market, high)
    if step == "verify":
        return [partial(verify, market, high), partial(verify, market, low)]
    return [partial(meet, market, high, low), partial(join, market, high, low)]


def count(pool, step="solve"):
    """Fractions built by ``step`` on every market of ``pool``."""
    calls = [call for args in pool for call in _calls(generate_market(*args), step)]
    built = 0
    original = fractions.Fraction.__dict__["__new__"]
    construct = original.__func__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return construct(cls, *args, **kwargs)

    fractions.Fraction.__new__ = counted
    try:
        for call in calls:
            call()
    finally:
        fractions.Fraction.__new__ = original
    return built


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--step", choices=STEPS, default="solve")
    args = parser.parse_args(argv)
    for name in args.workload or ("square", "bigint", "corpus"):
        print(f"{name}: Fractions built {count(WORKLOADS[name].pool, args.step):,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
