"""Checks of the benchmark itself, on reduced-scale inputs.

    python3 -m pytest -q bench/test_bench.py

The exact counters must repeat for a given seed, every call must pass its
check at this commit, and BENCHMARK.json must list exactly the metrics and
workloads run.py reports.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

EXACT = (
    "psi.nodes",
    "psi.table_entries",
    "chains.irredundant_calls",
    "verify.instances",
    "verify.checks",
)


def _bench(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace),
         "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_exact_counts_repeat(workload):
    first = _bench(workload, 7, 1)
    second = _bench(workload, 7, 1)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(run.PER_LAYER)
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_reports_end_to_end(workload):
    res = _bench(workload, 11, 0)
    assert res["correct"] and res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_benchmark_json_matches_run():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER


def test_seed_changes_inputs_not_their_mix():
    import random

    pool = workloads.load_expected("triangulated")["pool"]
    a = workloads.stratified_picks(pool, 20, random.Random(1))
    b = workloads.stratified_picks(pool, 20, random.Random(2))
    assert [e["g"] for e in a] != [e["g"] for e in b]
    assert len(a) == len(b)
