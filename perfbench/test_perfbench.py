"""The benchmark's own test: exact counters and the equilibrium digest must
repeat across two runs of one seed, and the result line must carry exactly
the metrics BENCHMARK.json declares.

    python3 -m pytest perfbench -q

Each run is as short as the benchmark allows (the fewest whole passes over
its pool), so the whole test takes two or three minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT_UNITS = ("count", "bits")


def run(workload, trace, seed=3):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    digest = next(line for line in lines if line.startswith("digest "))
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    return digest, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_exact_counters_and_digest_repeat(workload):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    first_digest, first = run(workload, trace=1)
    second_digest, second = run(workload, trace=1)
    assert first_digest == second_digest
    assert {name: m["unit"] for name, m in first["metrics"].items()} == declared
    exact = [name for name, unit in declared.items() if unit in EXACT_UNITS]
    assert {n: first["metrics"][n]["value"] for n in exact} == {
        n: second["metrics"][n]["value"] for n in exact
    }
    assert first["metrics"]["descend.events"]["value"] > 0
    assert first["metrics"]["flow.max_flow.calls"]["value"] > 0


def test_end_to_end_metrics_are_reported():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    _, result = run("corpus", trace=0)
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
