"""Workload process: one client in one thread, in a closed loop.

Reads a pool of instance documents and takes its markets through the
pipeline in whole passes, each pass in a fresh order drawn from --seed,
until the time is up.  Prints one JSON object of raw results on stdout.
Started by run.py; see that file for the options.

Steps are timed on the work clock of speed.py, which leaves out the
machine's changes of speed.  Per market and step the figure is the median
over the market's runs.

With --trace 1 it first runs the markets untraced for half the time, then
the same markets in the same order under the span tracer, and reports
per-layer figures and the tracer's overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import random
import resource
import statistics
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pipeline  # noqa: E402
from speed import WorkClock  # noqa: E402
from tracer import SKIPPED, Tracer  # noqa: E402

# An untraced run makes at least this many whole passes, so that each
# market's median is over at least this many runs.
MIN_PASSES = 3
STEPS = ("solve", "min_revenue", "lattice")
# Per run of a market: the steps above, the two verify calls, the whole
# pipeline.
COLUMNS = len(STEPS) + 3


class Tally:
    """What a loop keeps of its markets: failures, and per market of the
    pool the digest and exact counts of its first run and the step times of
    every run, as a few floats in an array."""

    def __init__(self, size):
        self.attempted = self.failed = 0
        self.errors = []
        self.digests = [None] * size
        self.counts = [None] * size
        self.times = [array("d") for _ in range(size)]
        self.bad = set()

    def add(self, k, result, total):
        self.attempted += 1
        if result["ok"] and self.digests[k] not in (None, result["digest"]):
            result = {
                **result,
                "ok": False,
                "error": "wrong output: equilibria differ from the market's first run",
            }
        if not result["ok"]:
            self.failed += 1
            self.bad.add(k)
            if len(self.errors) < 5:
                self.errors.append(result["error"])
            return
        if self.digests[k] is None:
            self.digests[k], self.counts[k] = result["digest"], result["counts"]
        times = result["times"]
        self.times[k].extend([*(sum(times[step]) for step in STEPS), *times["verify"], total])

    def samples(self):
        """Per step, each market's median time over its runs, for the
        markets that never failed; per call for ``verify``."""
        out = {step: [] for step in (*STEPS, "verify", "market")}
        for k, times in enumerate(self.times):
            if times and k not in self.bad:
                medians = [statistics.median(times[c::COLUMNS]) for c in range(COLUMNS)]
                for step, value in zip(STEPS, medians):
                    out[step].append(value)
                out["verify"] += medians[len(STEPS):-1]
                out["market"].append(medians[-1])
        return out


def _run_one(tally, docs, k, clock):
    began = clock()
    result = pipeline.run_market(docs[k], clock)
    tally.add(k, result, clock() - began)


def run_passes(docs, seed, seconds, min_passes, clock):
    """Whole passes over the pool, each in a fresh order drawn from
    ``seed``, until ``min_passes`` are done and ``seconds`` of wall time have
    passed; the pass under way then stops.  Returns the tally, the markets
    in the order they ran, the number of passes begun, and the wall and
    work-clock times."""
    tally, visited, rng = Tally(len(docs)), [], random.Random(seed)
    passes, start, work = 0, perf_counter(), clock()
    while passes < min_passes or perf_counter() - start < seconds:
        order = list(range(len(docs)))
        rng.shuffle(order)
        for k in order:
            if passes >= min_passes and perf_counter() - start >= seconds:
                break
            _run_one(tally, docs, k, clock)
            visited.append(k)
        passes += 1
    return tally, visited, passes, perf_counter() - start, clock() - work


def replay(docs, visited, clock, after_market):
    """The markets of ``visited`` again, in that order; returns the tally
    and the work-clock time."""
    tally, work = Tally(len(docs)), clock()
    for k in visited:
        _run_one(tally, docs, k, clock)
        after_market()
    return tally, clock() - work


def _digest(tally):
    """One sha256 over the equilibria of the pool, in pool order."""
    return hashlib.sha256("".join(d or "failed" for d in tally.digests).encode()).hexdigest()


def _summary(tally, docs):
    """Failures, the digest of the pool and its exact counts."""
    counts = Counter()
    max_bits, headroom = 0, None
    for doc, market_counts in zip(docs, tally.counts):
        if market_counts is None:
            continue
        bits = market_counts.get("exact.max_price_bits", 0)
        counts.update({n: v for n, v in market_counts.items() if n.startswith("descend.")})
        max_bits = max(max_bits, bits)
        room = pipeline.price_bound_bits(doc) - bits
        headroom = room if headroom is None else min(headroom, room)
    counts["exact.max_price_bits"] = max_bits
    counts["exact.price_bits_headroom"] = headroom
    return {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "markets": len(docs),
        "digest": _digest(tally),
        "counts": dict(counts),
    }


def untraced(docs, seed, seconds, clock):
    tally, _, passes, wall, work = run_passes(docs, seed, seconds, MIN_PASSES, clock)
    return {
        **_summary(tally, docs),
        "passes": passes,
        "wall_s": wall,
        "work_s": work,
        "samples": tally.samples(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _market_and_prices(function):
    """Key of an ``equality_graph`` call: the identity of its first
    argument, the market, and its second, the prices, as a tuple.  The
    arguments are bound to the function's signature, so they may be passed
    by keyword, and further parameters are ignored."""
    signature = inspect.signature(function)

    def key(*args, **kwargs):
        market, prices = list(signature.bind(*args, **kwargs).arguments.values())[:2]
        return id(market), tuple(prices)

    return key


def traced(docs, seed, seconds, spans_path, clock):
    plain, visited, _, _, plain_work = run_passes(docs, seed, seconds / 2, 1, clock)
    tracer = Tracer(keyed="market.equality_graph", key_of=_market_and_prices, clock=clock)
    ends, key_ends = [], []

    def after_market():
        ends.append(len(tracer.spans))
        key_ends.append(len(tracer.keys))

    tracer.install()
    try:
        tally, work = replay(docs, visited, clock, after_market)
    finally:
        tracer.uninstall()
    tracer.write(spans_path, ends)

    # Calls are counted over the first pass, which runs each market once.
    markets, first_pass = len(visited), len(docs)
    head_end = ends[first_pass - 1]
    self_times = tracer.self_times()
    calls, self_s, total_s = Counter(), Counter(), Counter()
    max_flow_in_balanced = 0
    for index, (name_id, start, end, parent) in enumerate(tracer.spans):
        name = tracer.names[name_id]
        layer = name.split(".", 1)[0]
        self_s[name] += self_times[index]
        self_s[layer] += self_times[index]
        total_s[name] += end - start
        if index < head_end:
            calls[name] += 1
            if (
                name == "flow.max_flow"
                and parent >= 0
                and tracer.names[tracer.spans[parent][0]] == "flow.balanced_flow"
            ):
                max_flow_in_balanced += 1

    keys = tracer.keys
    distinct = sum(
        len(set(keys[lo:hi])) for lo, hi in zip([0] + key_ends, key_ends[:first_pass])
    )
    keyed_calls = key_ends[first_pass - 1]
    per_layer = {f"{name}.calls": n for name, n in calls.items()}
    per_layer.update({f"{name}.self_s": s / markets for name, s in self_s.items()})
    per_layer.update(
        {
            "descend.solve_max_revenue.total_s": total_s["descend.solve_max_revenue"] / markets,
            "trace.pipeline_s": work / markets,
            "trace.overhead_ratio": work / plain_work,
            "market.equality_graph.distinct_ratio": distinct / keyed_calls if keyed_calls else 0,
            "flow.max_flow_per_balanced": (
                max_flow_in_balanced / calls["flow.balanced_flow"]
                if calls["flow.balanced_flow"]
                else 0
            ),
        }
    )
    summary = _summary(tally, docs)
    summary["attempted"] += plain.attempted
    summary["failed"] += plain.failed
    summary["errors"] += plain.errors
    if summary["digest"] != _digest(plain):
        summary["failed"] += 1
        summary["errors"].append("wrong output: tracing changed the equilibria")
    per_layer.update(summary["counts"])
    return {
        **summary,
        "traced_markets": markets,
        "skipped": list(SKIPPED),
        "per_layer": per_layer,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", required=True, help="JSON list of instance documents")
    parser.add_argument("--seed", type=int, required=True, help="seed of the visiting order")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    args = parser.parse_args(argv)
    with open(args.pool, encoding="utf-8") as handle:
        docs = json.load(handle)
    clock = WorkClock()
    clock.start()
    try:
        if args.trace:
            out = traced(docs, args.seed, args.seconds, args.spans, clock)
        else:
            out = untraced(docs, args.seed, args.seconds, clock)
    finally:
        clock.stop()
    out["speed_samples"] = clock.samples
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
