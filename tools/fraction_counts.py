"""Fractions built while solving the benchmark's market pools.

    python3 tools/fraction_counts.py [--workload square|bigint|corpus]

Run from the root of a source checkout; the package is imported from
``src/`` and the pools from ``perfbench/run.py`` (``WORKLOADS``), so every
market is the one the benchmark solves.  The markets of a pool are built
first; then each is solved for maximum revenue once, with
``fractions.Fraction.__new__`` wrapped from outside the package, and the
script prints how many ``Fraction`` objects the solves built in total.

Only constructions that go through ``Fraction.__new__`` are counted.  Which
of ``fractions``' own operations do so differs between Python versions,
so the counts compare two versions of the package on one interpreter and
are not pinned across versions.
"""

from __future__ import annotations

import argparse
import fractions
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from fisheq import solve_max_revenue  # noqa: E402
from fisheq.cli import generate_market  # noqa: E402
from run import WORKLOADS  # noqa: E402


def count(pool):
    """Fractions built by one solve of every market of ``pool``."""
    markets = [generate_market(*args) for args in pool]
    built = 0
    original = fractions.Fraction.__dict__["__new__"]
    construct = original.__func__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return construct(cls, *args, **kwargs)

    fractions.Fraction.__new__ = counted
    try:
        for market in markets:
            solve_max_revenue(market)
    finally:
        fractions.Fraction.__new__ = original
    return built


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    for name in args.workload or ("square", "bigint", "corpus"):
        print(f"{name}: Fractions built {count(WORKLOADS[name].pool):,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
