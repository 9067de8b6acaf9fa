"""Where a fresh start of fisheq spends its time: the set-up the benchmark
reports as ``setup_s``, split into its parts.

    python3 tools/startup.py [--starts N] [--workload square|bigint|corpus]

Run from the root of a source checkout.  The package is imported from
``src/``, and each pool is written as ``perfbench/run.py`` writes it
(``write_pool``), but into a temporary directory.  Every number is the
median, over ``--starts`` fresh interpreters (default 10), of wall-clock
time:

    bare start   ``python -c pass``, from launch to exit;
    imports      the set-up's imports (json, fisheq, fisheq.serialize)
                 under ``-X importtime``: their total, and the 12
                 modules with the largest own times;
    pool         per workload, in one start: the set-up's imports, the
                 ``json.load`` of the pool and ``market_from_doc`` of
                 every document, each timed inside the process.

A set-up start of the benchmark is about the bare start plus the pool
line.  As in the benchmark, one untimed start first fills the bytecode
cache, unless the environment sets PYTHONDONTWRITEBYTECODE, and then every
start compiles every module.  ``-X importtime`` itself adds a little to
each import.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import WORKLOADS, write_pool  # noqa: E402

IMPORTS = "import json, fisheq, fisheq.serialize"
TOP = 12  # modules listed by their own import time
SETUP = f"""\
import sys, time
began = time.perf_counter()
{IMPORTS}
imported = time.perf_counter()
with open(sys.argv[1], encoding="utf-8") as handle:
    docs = json.load(handle)
loaded = time.perf_counter()
markets = [fisheq.serialize.market_from_doc(doc) for doc in docs]
parsed = time.perf_counter()
print(imported - began, loaded - imported, parsed - loaded)
"""


def _run(*args):
    """Run a fresh interpreter with ``args`` on the package's path; its
    wall time, stdout and stderr."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, *args],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    return time.perf_counter() - began, done.stdout, done.stderr


def _own_times(report):
    """{module: own time in s} of the modules imported after ``site``, from
    an ``-X importtime`` report, and their total."""
    own, total, after_site = {}, 0.0, False
    for line in report.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:") :].split("|")
        if after_site:
            own[name.strip()] = int(self_us) / 1e6
            if not name.startswith("  "):  # a top-level import: its tree's total
                total += int(cumulative_us) / 1e6
        after_site = after_site or name.strip() == "site" and not name.startswith("  ")
    return own, total


def _ms(seconds):
    return f"{seconds * 1e3:7.2f} ms"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--starts", type=int, default=10)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args(argv)
    if args.starts < 1:
        parser.error("--starts must be at least 1")
    _run("-c", IMPORTS)  # untimed: fills the bytecode cache where that is allowed

    print(f"Python {sys.version.split()[0]}, medians of {args.starts} starts, wall clock")
    bare = [_run("-c", "pass")[0] for _ in range(args.starts)]
    print(f"bare start         {_ms(statistics.median(bare))}")

    owns, totals = {}, []
    for _ in range(args.starts):
        own, total = _own_times(_run("-X", "importtime", "-c", IMPORTS)[2])
        totals.append(total)
        for name, seconds in own.items():
            owns.setdefault(name, []).append(seconds)
    own = {name: statistics.median(times) for name, times in owns.items()}
    mine = sum(seconds for name, seconds in own.items() if name.split(".")[0] == "fisheq")
    print(f"imports            {_ms(statistics.median(totals))}  ({len(own)} modules, "
          f"fisheq's own {_ms(mine).strip()})")
    for name in sorted(own, key=own.get, reverse=True)[:TOP]:
        print(f"  {name:<28} {_ms(own[name])}")

    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workload or ["square", "corpus", "bigint"]:
            pool = Path(scratch) / f"{name}.pool.json"
            write_pool(WORKLOADS[name], pool)
            parts = [
                [float(t) for t in _run("-c", SETUP, str(pool))[1].split()]
                for _ in range(args.starts)
            ]
            imported, loaded, parsed = (statistics.median(column) for column in zip(*parts))
            print(f"{name:<7} pool: imports {_ms(imported)}, json.load {_ms(loaded)}, "
                  f"market_from_doc {_ms(parsed)} ({len(WORKLOADS[name].pool)} markets)")


if __name__ == "__main__":
    main()
