"""fisheq benchmark: fixed pools of markets through the full solve pipeline.

    python3 perfbench/run.py --workload square --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a fixed pool of markets from
``fisheq.cli.generate_market``, handed to a fresh workload process as JSON;
--seed sets the order in which each pass visits the pool.  Each market is
serialized, solved for maximum revenue, post-processed to minimum revenue,
verified at both endpoints, met and joined, and its equilibria serialized,
with every result checked.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones from a separate traced run.  Human-readable lines come
first; the last line of stdout is the JSON result.  Inputs and the span
file of the last traced run are left in ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEADLINE_S = 170
# Timed set-up starts before and after the workload process, so that they
# sample the machine at two moments of the run.
SETUP_STARTS = 5

# A fresh interpreter imports fisheq and parses the workload's instances:
# the set-up every CLI call pays.  It prints how many it parsed and the
# work clock's rate against wall time while it did so.
SETUP_CODE = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[3]]
from speed import WorkClock
clock = WorkClock()
clock.start()
began, work = time.perf_counter(), clock()
import json
import fisheq
from fisheq.serialize import market_from_doc
with open(sys.argv[2], encoding="utf-8") as handle:
    markets = [market_from_doc(doc) for doc in json.load(handle)]
rate = (clock() - work) / (time.perf_counter() - began)
clock.stop()
print(len(markets), rate, flush=True)
"""


def acceptance_corpus():
    """The 500 markets of the acceptance suite's corpus: n, m uniform in
    1..6 from ``random.Random(2026)``, ``generate_market(n, m, 20, k)``."""
    shape = random.Random(2026)
    return [(shape.randint(1, 6), shape.randint(1, 6), 20, k) for k in range(500)]


@dataclass(frozen=True)
class Workload:
    """A fixed pool of ``generate_market`` argument tuples.  Every seed runs
    the same pool, so runs with different seeds measure the same work; the
    seed sets the order of each pass."""

    pool: tuple
    default_seed: int


WORKLOADS = {
    "square": Workload(tuple((20, 20, 100, k) for k in range(4)), default_seed=7),
    "corpus": Workload(tuple(acceptance_corpus()), default_seed=2026),
    "bigint": Workload(tuple((10, 10, 10**60, k) for k in range(16)), default_seed=1),
}


def write_pool(workload, path):
    from fisheq.cli import generate_market
    from fisheq.serialize import market_to_doc

    docs = [market_to_doc(generate_market(*args)) for args in workload.pool]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(docs, handle, sort_keys=True)


def time_setup(pool_path, expected, starts, warm=False):
    """Times of ``starts`` fresh starts, on the work clock: the wall time
    until a start reports times the clock's rate in it.  With ``warm``,
    after one untimed start that fills the bytecode cache."""
    times = []
    for start in range(starts + warm):
        began = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(pool_path), str(HERE)],
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - began
            child.stdout.read()
            code = child.wait(timeout=60)
        parsed, _, rate = line.partition(" ")
        if code != 0 or parsed != str(expected):
            raise RuntimeError(f"set-up process failed (exit {code}, output {line!r})")
        if start >= warm:
            times.append(elapsed * float(rate))
    return times


def tail(samples):
    """(percentile, value) for the highest percentile, in tenths, with at
    least ten samples above it; None below 20 samples, where that would
    not be above the median."""
    ordered = sorted(samples)
    if len(ordered) < 20:
        return None
    tenths = 1000 * (len(ordered) - 10) // len(ordered)
    rank = -(-len(ordered) * tenths // 1000)
    return tenths / 10, ordered[rank - 1]


def end_to_end(raw, setup_s):
    """Medians, over the markets that passed every check, of each market's
    median time in the run; ``markets_per_s`` is those markets over the sum
    of their median whole-pipeline times.  Times are on the work clock."""
    samples = raw["samples"]

    def p50(values):
        return statistics.median(values) if values else 0

    return {
        "setup_s": setup_s,
        "markets_per_s": len(samples["market"]) / sum(samples["market"] or [float("inf")]),
        "solve_s_p50": p50(samples["solve"]),
        "min_revenue_s_p50": p50(samples["min_revenue"]),
        "verify_s_p50": p50(samples["verify"]),
        "lattice_s_p50": p50(samples["lattice"]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="fisheq benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, help="default: the workload's own")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    began = time.perf_counter()
    if not (SRC / "fisheq" / "__init__.py").is_file():
        print(f"error: no fisheq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    pool_path = OUT / f"{args.workload}.pool.json"
    write_pool(workload, pool_path)
    size = len(workload.pool)
    setup_times = [] if args.trace else time_setup(pool_path, size, SETUP_STARTS, warm=True)

    command = [
        sys.executable, str(HERE / "worker.py"), "--pool", str(pool_path),
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--spans", str(OUT / f"{args.workload}.spans.tsv"),
    ]
    timeout = DEADLINE_S - (time.perf_counter() - began)
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"error: workload process still running after {timeout:.0f} s", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    raw = json.loads(done.stdout.strip().splitlines()[-1])
    if not args.trace:
        setup_times += time_setup(pool_path, size, SETUP_STARTS)

    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}")
    for error in raw["errors"]:
        print(f"failed market: {error}")
    print(f"digest {args.workload} markets {raw['markets']} sha256 {raw['digest']}")
    if args.trace:
        print(f"traced {raw['traced_markets']} markets; not wrapped: {', '.join(raw['skipped'])}")
        values, declared = raw["per_layer"], spec["per_layer"]
    else:
        print(
            f"{raw['passes']} passes over {size} markets in {raw['wall_s']:.1f} s of wall time, "
            f"{raw['work_s']:.1f} s on the work clock ({raw['speed_samples']} speed samples)"
        )
        values = end_to_end(raw, statistics.median(setup_times))
        declared = spec["end_to_end"]
        worst = tail(raw["samples"]["solve"])
        count = len(raw["samples"]["solve"])
        if worst is None:
            print(f"solve_s_tail omitted: {count} samples, fewer than 20")
        else:
            print(f"solve_s_tail {worst[1]!r} s (p{worst[0]:g} of {count} samples)")
        failed, attempted = raw["failed"], raw["attempted"]
        print(f"failed_ratio {failed / attempted!r} ratio ({failed} of {attempted})")
    metrics = {
        metric["name"]: {"value": values.get(metric["name"], 0), "unit": metric["unit"]}
        for metric in declared
    }
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": raw["failed"] == 0,
                "attempted": raw["attempted"],
                "failed": raw["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
