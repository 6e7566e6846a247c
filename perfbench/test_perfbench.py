"""Tests of the benchmark itself.

Run from the repository root (the tier-1 suite does not collect them)::

    python -m pytest perfbench -q

* a smoke-sized run of every workload, traced and untraced, emits
  exactly the metrics ``BENCHMARK.json`` names, each with its unit;
* a corrupted copy of a result is counted as a failure, and makes the
  command exit non-zero;
* the open-loop generator reports how late it ran, and the serving
  schedule never deletes before an insert it could target.
"""

from __future__ import annotations

import asyncio
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro import BrePartitionIndex, brute_force_knn
from repro.core.results import SearchResult
from repro.datasets.proxies import load_dataset

import run
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_N = "600"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", "3",
            "--seconds", "2",
            "--trace", str(trace),
            "--n", SMOKE_N,
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    record = json.loads(lines[-2])["record"]
    assert record["host"]["seed"] == 3
    assert {"cpu_count", "python", "numpy", "blas", "threads"} <= set(record["host"])
    if trace:
        events = json.loads((ROOT / record["trace_events"]).read_text())["traceEvents"]
        names = {event["name"] for event in events}
        assert {"setup", "plan", "fetch", "refine", "rerank"} <= names
        assert all("parent" in e["args"] and "request" in e["args"] for e in events)


def test_fonts_batch_stages_account_for_the_batch():
    outcome = workloads.run_workload("fonts-batch", 5, 2.0, True, n=int(SMOKE_N))
    check = outcome.record["checks"]
    assert check["stages_cover_batch"], check


def _corrupt(result: SearchResult) -> SearchResult:
    divergences = result.divergences.copy()
    divergences[-1] = np.nextafter(divergences[-1], np.inf)
    return SearchResult(ids=result.ids.copy(), divergences=divergences, stats=result.stats)


def test_corrupted_copy_counts_as_failure():
    dataset = load_dataset("fonts", n=300)
    oracle = [
        brute_force_knn(dataset.divergence, dataset.points, q, workloads.K)
        for q in dataset.queries[:2]
    ]
    good = [(qi, ids.copy(), divs.copy()) for qi, (ids, divs) in enumerate(oracle)]
    assert workloads.count_mismatches(good, oracle) == 0
    ids, divs = oracle[1]
    one_ulp = divs.copy()
    one_ulp[-1] = np.nextafter(one_ulp[-1], np.inf)
    swapped = ids.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert workloads.count_mismatches(good + [(1, ids, one_ulp), (1, swapped, divs)], oracle) == 2


def test_corrupted_serve_answer_counts_as_failure():
    dataset = load_dataset("sift", n=300)
    query = dataset.queries[0]
    ids, divs = brute_force_knn(dataset.divergence, dataset.points, query, workloads.K)

    def record(divergences):
        return workloads.SearchRecord(0, 0, 0.0, 0.0, 0, 0, ids.copy(), divergences)

    bad = divs.copy()
    bad[0] = np.nextafter(bad[0], -np.inf)
    assert workloads.check_serve(dataset, [record(divs.copy())], []) == 0
    assert workloads.check_serve(dataset, [record(divs.copy()), record(bad)], []) == 1


def test_wrong_answers_fail_the_run(monkeypatch, capsys):
    original = BrePartitionIndex.search_batch

    def corrupting(self, queries, k):
        batch = original(self, queries, k)
        batch.results[0] = _corrupt(batch.results[0])
        return batch

    monkeypatch.setattr(BrePartitionIndex, "search_batch", corrupting)
    code = run.main(
        ["--workload", "fonts-batch", "--seed", "1", "--seconds", "0.5", "--n", SMOKE_N]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1.0


def test_open_loop_reports_generator_lag():
    async def fire(i, due):
        if i == 0:
            time.sleep(0.05)  # blocks the event loop past op 1's due time

    lags = asyncio.run(workloads.open_loop(5, 100.0, fire))
    assert len(lags) == 5
    assert min(lags) >= 0.0
    assert lags[1] >= 0.03


@pytest.mark.parametrize("n_ops", [1, 7, 20, 150, 300])
def test_serve_schedule_always_has_a_live_insert_to_delete(n_ops):
    for seed in range(50):
        ops = workloads.serve_schedule(n_ops, np.random.default_rng(seed))
        assert len(ops) == n_ops
        live = 0
        for op in ops:
            live += op == "insert"
            if op == "delete":
                assert live > 0, ops
                live -= 1
