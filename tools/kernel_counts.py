"""Max-flow kernel counts over the benchmark's market pools.

    python3 tools/kernel_counts.py [--workload square|bigint|corpus]

Run from the root of a source checkout; the package is imported from
``src/`` and the pools from ``perfbench/run.py`` (``WORKLOADS``), so every
market is the one the benchmark solves.  Each market of a pool is solved
for maximum revenue once, with ``fisheq.flow._saturate``,
``fisheq.flow._search`` and ``fisheq.descend.tight_set_scale`` wrapped from
outside the package.  For each pool it prints:

- ``_saturate`` calls by kind: a water-filling block the cut splits, a
  leaf or clamped block (its sources saturate), a tight-set test, and a
  whole-network ``max_flow``;
- searches started (calls of ``_search``);
- augmenting paths (goods a search returned, each one a push);
- paths found by resumed searches (every path after a search's first);
- tight-set searches run (``next_event`` skips one its balanced flow rules
  out) against the events committed.

The counts are deterministic, so two checkouts compare on the same
markets; the script measures the kernel of the checkout it lives in.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import fisheq.descend  # noqa: E402
import fisheq.flow  # noqa: E402
from fisheq import solve_max_revenue  # noqa: E402
from fisheq.cli import generate_market  # noqa: E402
from run import WORKLOADS  # noqa: E402

KINDS = ("split", "leaf/clamped", "tight-set", "final")
CALLERS = {"tight_set_scale": "tight-set", "max_flow": "final"}


def count(pool):
    """Kernel counts over one solve of every market of ``pool``."""
    counts = Counter()
    saturate, search = fisheq.flow._saturate, fisheq.flow._search
    tight_set_scale = fisheq.descend.tight_set_scale

    def counted_saturate(network, seeds, budgets, prices):
        caller = sys._getframe(1).f_code.co_name
        result = saturate(network, seeds, budgets, prices)
        if caller == "refine":
            _, saturated, _ = result
            counts["leaf/clamped" if saturated else "split"] += 1
        else:
            counts[CALLERS[caller]] += 1
        return result

    def counted_search(*args):
        counts["searches"] += 1
        return resumed(search(*args))

    def counted_tight_set_scale(*args):
        counts["tight-set searches"] += 1
        return tight_set_scale(*args)

    def resumed(ends):
        for k, end in enumerate(ends):
            counts["paths"] += 1
            counts["resumed paths"] += k > 0
            yield end

    fisheq.flow._saturate, fisheq.flow._search = counted_saturate, counted_search
    fisheq.descend.tight_set_scale = counted_tight_set_scale
    try:
        for args in pool:
            counts["events"] += len(solve_max_revenue(generate_market(*args)).trace)
    finally:
        fisheq.flow._saturate, fisheq.flow._search = saturate, search
        fisheq.descend.tight_set_scale = tight_set_scale
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    for name in args.workload or ("square", "bigint", "corpus"):
        counts = count(WORKLOADS[name].pool)
        calls = ", ".join(f"{kind} {counts[kind]:,}" for kind in KINDS)
        print(
            f"{name}: _saturate calls {sum(counts[k] for k in KINDS):,} ({calls}); "
            f"searches {counts['searches']:,}; paths {counts['paths']:,}; "
            f"resumed paths {counts['resumed paths']:,}; "
            f"tight-set searches {counts['tight-set searches']:,} "
            f"for {counts['events']:,} events"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
