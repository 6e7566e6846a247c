"""The benchmark's workloads, their oracle gate and their metrics.

``fonts-batch``
    Closed loop, one client: back-to-back ``search_batch`` calls of
    B=64 over the fonts proxy (Itakura-Saito, d=400).  The vectorised
    batch path; Plan dominates it.
``sift-serve-rw``
    Open loop at 10 requests/s into a ``MicroBatcher`` over the sift
    proxy (exponential distance, d=128) with a write-ahead log: 90%
    searches, 8% inserts of fresh points, 2% deletes of points inserted
    earlier in the run, background rebuild merges every 12 mutations.
    The only workload with writes, queueing, delta scans and merges.

Every answer is checked against ``brute_force_knn`` outside the timed
regions.  ``README.md`` beside this file maps each metric to the layer
it measures and the workload that moves it.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import os
import platform
import resource
import statistics
import subprocess
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import BrePartitionConfig, BrePartitionIndex, brute_force_knn
from repro.bbtree.forest import BBForest
from repro.core import index as index_module
from repro.core.transforms import SubspaceTransforms
from repro.datasets.proxies import load_dataset
from repro.partitioning.contiguous import ContiguousPartitioner
from repro.partitioning.pccp import PCCPPartitioner
from repro.pipeline import SearchPipeline, top_k_stable
from repro.serve import MicroBatcher

from tracing import Tracer, self_times, write_trace_events

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "PER_LAYER",
    "Outcome",
    "run_workload",
    "count_mismatches",
    "check_serve",
    "open_loop",
    "serve_schedule",
    "SearchRecord",
]

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

K = 10
N_POINTS = 8000
BATCH = 64
#: index builds per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: offered load and merge trigger of sift-serve-rw: 10 req/s keeps the
#: server well below saturation even while the shared host runs slow and
#: a merge holds the interpreter lock (at 20 req/s such stretches built
#: queues of hundreds of ms); 12 mutations put two merges in a 30 s run.
SERVE_RATE = 10.0
MERGE_THRESHOLD = 12
#: one block of the serving op mix: 90% search, 8% insert, 2% delete.
SERVE_BLOCK = ("search",) * 45 + ("insert",) * 4 + ("delete",)
#: unit of every metric, in BENCHMARK.json order.
END_TO_END = {
    "qps": "1/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER = {
    "latency.p95_ms": "ms",
    "plan.s_per_query": "s",
    "plan.bounds.s_per_query": "s",
    "plan.traverse.s_per_query": "s",
    "plan.candidate_fraction": "frac",
    "plan.leaves_per_query": "count",
    "fetch.s_per_query": "s",
    "fetch.pages_per_query": "count",
    "fetch.page_fraction": "frac",
    "fetch.coalesce_ratio": "frac",
    "refine.s_per_query": "s",
    "refine.pairs_per_query": "count",
    "refine.cells_scored_per_query": "count",
    "refine.useful_cell_ratio": "frac",
    "refine.sparse_batch_share": "frac",
    "rerank.s_per_query": "s",
    "rerank.delta_per_query": "count",
    "serve.queue_wait_ms_p50": "ms",
    "serve.queue_wait_ms_p95": "ms",
    "serve.service_ms_p50": "ms",
    "serve.batch_size_mean": "count",
    "serve.gen_lag_ms_p99": "ms",
    "serve.insert_p50_ms": "ms",
    "mutate.insert_ms_p50": "ms",
    "merge.count": "count",
    "merge.s_mean": "s",
    "merge.stall_search_p95_ms": "ms",
    "setup.calibrate_s": "s",
    "setup.partition_s": "s",
    "setup.forest_s": "s",
    "setup.n_partitions": "count",
    "floor.scan_s_per_query": "s",
    "floor.pages": "count",
    "trace.overhead_frac": "frac",
    "trace.unaccounted_frac": "frac",
}

STAGES = ("plan", "fetch", "refine", "rerank")
#: share of a root call the four stage spans may leave uncovered beyond
#: the tracing overhead: the search methods' own work (input validation,
#: snapshot, I/O scope, per-query result assembly) runs outside any stage.
BOOKKEEPING_SLACK = 0.05
ROOT = "search_batch"


@dataclass
class Outcome:
    """What one run measured: metrics plus the record printed beside them."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    wrong: int
    record: Dict[str, Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation); 0.0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Sample count and the usual percentiles (ms) of a latency sample."""
    summary = {f"p{q}": percentile(seconds, q) * 1e3 for q in (50, 90, 95, 99)}
    return {"n": len(seconds), **summary}


def ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def query_cycle(rng: np.random.Generator, n_pool: int):
    """Endless stream of pool indices: one seeded permutation, repeated."""
    return itertools.cycle(rng.permutation(n_pool).tolist())


def same_answer(ids: np.ndarray, divergences: np.ndarray, want) -> bool:
    """Bitwise equality with an oracle answer ``(ids, divergences)``."""
    return bool(np.array_equal(ids, want[0]) and np.array_equal(divergences, want[1]))


def count_mismatches(
    answers: Sequence[Tuple[int, np.ndarray, np.ndarray]],
    oracle: Sequence[Tuple[np.ndarray, np.ndarray]],
) -> int:
    """Answers ``(pool index, ids, divergences)`` not bitwise equal to
    the oracle's ``(ids, divergences)`` for that pool query."""
    return sum(not same_answer(ids, divs, oracle[qi]) for qi, ids, divs in answers)


def build_indexes(
    dataset, make_config: Callable[[int], BrePartitionConfig], tracer: Optional[Tracer]
) -> Tuple[BrePartitionIndex, List[float]]:
    """Build the index ``SETUP_REPEATS`` times; keep the last one.

    Returns the index and every build's wall seconds.
    """
    seconds = []
    index = None
    for rep in range(SETUP_REPEATS):
        index = None
        gc.collect()
        candidate = BrePartitionIndex(dataset.divergence, make_config(rep))
        start = time.perf_counter()
        if tracer is not None:
            with tracer.span("setup", request=f"setup-{rep}"):
                candidate.build(dataset.points)
        else:
            candidate.build(dataset.points)
        seconds.append(time.perf_counter() - start)
        index = candidate
    return index, seconds


def scan_floor(divergence, points: np.ndarray, blocks: Sequence[np.ndarray]) -> float:
    """Brute-force compute floor: seconds per query of one
    ``cross_divergence`` + top-k scan per block, median over blocks."""
    per_query = []
    for block in blocks:
        start = time.perf_counter()
        cross = divergence.cross_divergence(points, block)
        for col in range(cross.shape[1]):
            top_k_stable(cross[:, col], K)
        per_query.append((time.perf_counter() - start) / block.shape[0])
    return statistics.median(per_query)


def host_record(seed: int) -> Dict[str, Any]:
    """Host, toolchain and source identity for the record."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if git.returncode == 0:
            sha = git.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(REPO_ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


# ----------------------------------------------------------------------
# tracing from outside: wrappers around public entry points
# ----------------------------------------------------------------------


class TracedStage:
    """A pipeline stage spliced in to time ``stage.run`` and read the
    context's counts at the stage boundary."""

    def __init__(self, stage, tracer: Tracer) -> None:
        self.stage = stage
        self.tracer = tracer
        self.name = stage.name

    def run(self, ctx) -> None:
        if self.tracer.current() is None:
            self.stage.run(ctx)
            return
        with self.tracer.span(self.name) as args:
            self.stage.run(ctx)
        args.update(stage_counts(self.name, ctx))

    def __getattr__(self, attr):
        return getattr(self.stage, attr)


def stage_counts(name: str, ctx) -> Dict[str, Any]:
    """Exact work counts a stage leaves in its context."""
    if name == "plan":
        return {
            "n_frozen": int(ctx.snapshot.n_frozen),
            "candidates": int(sum(ids.size for ids in ctx.candidates)),
            "leaves": int(sum(fs.leaves_visited for fs in ctx.forest_stats)),
        }
    if name == "refine":
        pairs = int(sum(ids.size for ids in ctx.candidates))
        if ctx.refine_kernel == "sparse":
            cells = pairs
        elif ctx.refine_kernel == "dense":
            cells = int(ctx.union.size) * ctx.n_queries
        else:
            cells = 0
        return {"pairs": pairs, "cells": cells, "kernel": ctx.refine_kernel}
    if name == "rerank":
        return {"delta": int(sum(ctx.delta_candidates or ()))}
    return {}


def result_counts(index) -> Callable[[Any, tuple], Dict[str, Any]]:
    """Per-call page counts read off a batch search result."""

    def counts(result, args) -> Dict[str, Any]:
        stats = result.stats
        return {
            "queries": int(stats.n_queries),
            "pages": int(stats.pages_read),
            "coalesced": int(stats.pages_coalesced),
            "unshared": int(stats.pages_read_unshared),
            "kernel": stats.refine_kernel,
            "n_pages": int(index.datastore.n_pages),
        }

    return counts


def instrument_build(tracer: Tracer) -> None:
    """Time the build's layers: calibration, partitioning, forest."""
    tracer.patch(
        index_module,
        "calibrate_cost_model",
        tracer.nested(
            "setup.calibrate", index_module.calibrate_cost_model, under=("setup",)
        ),
    )
    for cls in (PCCPPartitioner, ContiguousPartitioner):
        tracer.patch(
            cls,
            "partition",
            tracer.nested("setup.partition", cls.__dict__["partition"], ("setup",)),
        )
    tracer.patch(
        BBForest, "build", tracer.nested("setup.forest", BBForest.build, ("setup",))
    )


def instrument_search(tracer: Tracer, index: BrePartitionIndex, extra=None) -> None:
    """Time the search path: root calls, stages, Plan's sub-layers."""
    tracer.patch(
        index,
        "pipeline",
        SearchPipeline(index, [TracedStage(s, tracer) for s in index.pipeline.stages]),
    )
    for attr in ("query_triples_batch", "upper_bound_tensor"):
        tracer.patch(
            SubspaceTransforms,
            attr,
            tracer.nested(
                "plan.bounds", SubspaceTransforms.__dict__[attr], under=("plan",)
            ),
        )
    for attr in ("range_union", "range_union_batch"):
        tracer.patch(
            BBForest,
            attr,
            tracer.nested("plan.traverse", BBForest.__dict__[attr], under=("plan",)),
        )
    counts = result_counts(index)
    if extra is not None:
        base = counts

        def counts(result, args):
            return {**base(result, args), **extra(result, args)}

    tracer.patch(index, ROOT, tracer.root(ROOT, index.search_batch, counts))


# ----------------------------------------------------------------------
# metrics from the spans
# ----------------------------------------------------------------------


def search_layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Plan/Fetch/Refine/Rerank self times and counts over traced calls."""
    spans = tracer.spans
    selfs = self_times(spans)
    roots = [s for s in spans if s.parent is None and s.name == ROOT]
    n_queries = sum(r.args["queries"] for r in roots)

    def self_total(name: str) -> float:
        return sum(selfs[s.sid] for s in spans if s.name == name)

    def args_total(name: str, key: str) -> float:
        return sum(s.args.get(key, 0) for s in spans if s.name == name)

    root_queries = {r.sid: r.args["queries"] for r in roots}
    frozen_slots = sum(
        s.args["n_frozen"] * root_queries[s.parent] for s in spans if s.name == "plan"
    )
    pairs = args_total("refine", "pairs")
    cells = args_total("refine", "cells")
    metrics = {
        "plan.s_per_query": ratio(self_total("plan"), n_queries),
        "plan.bounds.s_per_query": ratio(self_total("plan.bounds"), n_queries),
        "plan.traverse.s_per_query": ratio(self_total("plan.traverse"), n_queries),
        "plan.candidate_fraction": ratio(args_total("plan", "candidates"), frozen_slots),
        "plan.leaves_per_query": ratio(args_total("plan", "leaves"), n_queries),
        "fetch.s_per_query": ratio(self_total("fetch"), n_queries),
        "fetch.pages_per_query": ratio(sum(r.args["pages"] for r in roots), n_queries),
        "fetch.page_fraction": ratio(
            sum(ratio(r.args["pages"], r.args["n_pages"]) for r in roots), len(roots)
        ),
        "fetch.coalesce_ratio": ratio(
            sum(r.args["coalesced"] for r in roots),
            sum(r.args["unshared"] for r in roots),
        ),
        "refine.s_per_query": ratio(self_total("refine"), n_queries),
        "refine.pairs_per_query": ratio(pairs, n_queries),
        "refine.cells_scored_per_query": ratio(cells, n_queries),
        "refine.useful_cell_ratio": ratio(pairs, cells),
        "refine.sparse_batch_share": ratio(
            sum(1 for r in roots if r.args["kernel"] == "sparse"), len(roots)
        ),
        "rerank.s_per_query": ratio(self_total("rerank"), n_queries),
        "rerank.delta_per_query": ratio(args_total("rerank", "delta"), n_queries),
    }
    # overhead: each traced root call against the untraced call just
    # before it, so host drift over the run cancels out of the ratio
    calls = sorted((c for c in tracer.calls if c.name == ROOT), key=lambda c: c.start)
    ratios = [
        after.seconds / before.seconds
        for before, after in zip(calls, calls[1:])
        if after.traced and not before.traced
    ]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0 if ratios else 0.0
    staged = sum(s.seconds for s in spans if s.name in STAGES)
    metrics["trace.unaccounted_frac"] = 1.0 - ratio(
        staged, sum(r.seconds for r in roots)
    )
    return metrics


def stage_coverage(layers: Dict[str, float]) -> Dict[str, Any]:
    """Do the stage spans account for the root calls' time, within the
    tracing overhead plus the search methods' own share?"""
    unaccounted = layers["trace.unaccounted_frac"]
    overhead = layers["trace.overhead_frac"]
    return {
        "unaccounted_frac": unaccounted,
        "overhead_frac": overhead,
        "bookkeeping_slack": BOOKKEEPING_SLACK,
        "stages_cover_batch": abs(unaccounted) <= max(overhead, 0.0) + BOOKKEEPING_SLACK,
    }


def setup_layer_metrics(tracer: Tracer, n_partitions: int) -> Dict[str, float]:
    """Median per-build seconds of calibration, partitioning and forest."""
    spans = tracer.spans
    selfs = self_times(spans)
    setups = [s for s in spans if s.name == "setup"]
    metrics = {}
    for name, key in (
        ("setup.calibrate", "setup.calibrate_s"),
        ("setup.partition", "setup.partition_s"),
        ("setup.forest", "setup.forest_s"),
    ):
        metrics[key] = statistics.median(
            sum(selfs[c.sid] for c in spans if c.parent == s.sid and c.name == name)
            for s in setups
        )
    metrics["setup.n_partitions"] = float(n_partitions)
    return metrics


def zero_layers(metrics: Dict[str, float]) -> Dict[str, float]:
    """Fill every per-layer metric this workload does not exercise with 0."""
    return {name: float(metrics.get(name, 0.0)) for name in PER_LAYER}


# ----------------------------------------------------------------------
# fonts workloads (closed loop, one client)
# ----------------------------------------------------------------------


def closed_loop(seconds: float, call: Callable[[], Any]) -> List[float]:
    """Call back to back for ``seconds``; per-call latencies."""
    latencies = []
    now = time.perf_counter()
    deadline = now + seconds
    while now < deadline:
        call()
        done = time.perf_counter()
        latencies.append(done - now)
        now = done
    return latencies


def fonts_batch(seed: int, seconds: float, trace: bool, n: int) -> Outcome:
    """One client calling ``search_batch`` with B=64 back to back over
    the fonts proxy, cycling through its queries."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument_build(tracer)
    try:
        dataset = load_dataset("fonts", n=n)
        index, setup = build_indexes(
            dataset,
            lambda rep: BrePartitionConfig(page_size_bytes=dataset.page_size_bytes),
            tracer,
        )
        oracle = [
            brute_force_knn(dataset.divergence, dataset.points, q, K)
            for q in dataset.queries
        ]
        setup_rss = peak_rss_mb()
        pool = dataset.queries
        cycle = query_cycle(np.random.default_rng(seed), pool.shape[0])
        floor = scan_floor(
            dataset.divergence,
            dataset.points,
            [pool[[next(cycle) for _ in range(BATCH)]] for _ in range(3)],
        )
        answers: List[Tuple[int, np.ndarray, np.ndarray]] = []
        failed = attempted = 0

        def one_call():
            nonlocal failed, attempted
            picks = [next(cycle) for _ in range(BATCH)]
            attempted += BATCH
            try:
                results = index.search_batch(pool[picks], K).results
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                failed += BATCH
                return
            answers.extend((qi, r.ids, r.divergences) for qi, r in zip(picks, results))

        one_call()  # warm-up: lazy set-up and caches, not timed
        answers.clear()
        failed = attempted = 0
        if tracer is not None:
            instrument_search(tracer, index)
        gc.collect()
        latencies = closed_loop(seconds, one_call)
    finally:
        if tracer is not None:
            tracer.restore()
    wrong = count_mismatches(answers, oracle)
    record = {
        "loop": f"closed, 1 client, B={BATCH}",
        "latency_ms": latency_summary(latencies),
        "references": {
            "floor.scan_s_per_query": floor,
            "floor.pages": int(index.datastore.n_pages),
        },
        "setup_runs_s": setup,
        "peak_rss_after_setup_mb": setup_rss,
    }
    if tracer is None:
        metrics = {
            # one client: throughput is a call's queries over its median
            # latency, which a stall of the shared host skews less than
            # the loop's wall time does
            "qps": ratio(BATCH, percentile(latencies, 50)),
            "p50_ms": percentile(latencies, 50) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": ratio(attempted - failed - wrong, attempted),
        }
    else:
        layers = {
            "latency.p95_ms": percentile(latencies, 95) * 1e3,
            **search_layer_metrics(tracer),
            **setup_layer_metrics(tracer, index.n_partitions),
            "floor.scan_s_per_query": floor,
            "floor.pages": float(index.datastore.n_pages),
        }
        metrics = zero_layers(layers)
        record["checks"] = stage_coverage(layers)
    return Outcome(metrics, attempted, failed + wrong, wrong, record, tracer)


# ----------------------------------------------------------------------
# sift-serve-rw (open loop into the MicroBatcher, with writes)
# ----------------------------------------------------------------------


async def open_loop(
    n_ops: int, rate: float, fire: Callable[[int, float], Any]
) -> List[float]:
    """Start ``fire(i, due)`` at ``due = t0 + i / rate``, whatever the
    system's state; returns how late (seconds) each op was started.

    ``fire`` returns a coroutine; every op's task is awaited before
    returning.  Lag grows when something blocks the event loop -- the
    generator reports it instead of silently shifting the schedule.
    """
    t0 = time.perf_counter()
    tasks = []
    lags = []
    for i in range(n_ops):
        due = t0 + i / rate
        while (delay := due - time.perf_counter()) > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        tasks.append(asyncio.ensure_future(fire(i, due)))
    await asyncio.gather(*tasks, return_exceptions=True)
    return lags


def serve_schedule(n_ops: int, rng: np.random.Generator) -> List[str]:
    """The op mix, shuffled per 50-op block.  A delete needs an earlier
    insert to target: one ahead of the run's first insert swaps places
    with it, or becomes a search when the (short) run has no insert."""
    ops: List[str] = []
    while len(ops) < n_ops:
        ops.extend(rng.permutation(SERVE_BLOCK).tolist())
    ops = ops[:n_ops]
    first_insert = ops.index("insert") if "insert" in ops else len(ops)
    for i in range(first_insert):
        if ops[i] != "delete":
            continue
        if first_insert == len(ops):
            ops[i] = "search"
        else:
            ops[i], ops[first_insert] = ops[first_insert], ops[i]
            first_insert = i
    return ops


@dataclass
class SearchRecord:
    """One answered search of the serving workload, with its
    ``updates_applied`` bracket ``[lo, hi]`` from send to reply."""

    seq: int
    qi: int
    due: float
    done: float
    lo: int
    hi: int
    ids: np.ndarray
    divergences: np.ndarray


def sift_serve_rw(seed: int, seconds: float, trace: bool, n: int) -> Outcome:
    """Open-loop reads and writes into a ``MicroBatcher`` over the sift
    proxy, with a write-ahead log in a temporary directory."""
    tracer = Tracer() if trace else None
    if tracer is not None:
        instrument_build(tracer)
    OUT_DIR.mkdir(exist_ok=True)
    rng = np.random.default_rng(seed)
    try:
        with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="wal-") as wal_dir:
            dataset = load_dataset("sift", n=n)
            index, setup = build_indexes(
                dataset,
                lambda rep: BrePartitionConfig(
                    page_size_bytes=dataset.page_size_bytes,
                    wal_path=os.path.join(wal_dir, f"wal-{rep}.log"),
                ),
                tracer,
            )
            setup_rss = peak_rss_mb()
            pool = dataset.queries
            cycle = query_cycle(rng, pool.shape[0])
            floor = scan_floor(
                dataset.divergence,
                dataset.points,
                [pool[[next(cycle)]] for _ in range(16)],
            )
            n_ops = max(1, int(round(SERVE_RATE * seconds)))
            ops = serve_schedule(n_ops, rng)
            fresh = load_dataset("sift", n=max(64, n_ops), seed=seed + 1).points
            run = _serve(index, ops, pool, cycle, fresh, rng, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    run["setup_rss"] = setup_rss
    wrong = check_serve(dataset, run["searches"], run["mutations"])
    return _serve_outcome(run, setup, floor, dataset, wrong, tracer)


def _serve(index, ops, pool, cycle, fresh, rng, tracer) -> Dict[str, Any]:
    searches: List[SearchRecord] = []
    inserts: List[Tuple[float, float]] = []
    mutations: List[Tuple[int, str, int, Optional[np.ndarray]]] = []
    live_inserted: List[int] = []
    failures: List[Tuple[int, str]] = []
    seqs = itertools.count()
    fresh_rows = itertools.count()
    dispatched = itertools.count()

    def batch_seq(result, args) -> Dict[str, Any]:
        first = None
        for _ in range(result.stats.n_queries):
            row = next(dispatched)
            first = row if first is None else first
        return {"first_seq": first}

    if tracer is not None:
        instrument_search(tracer, index, extra=batch_seq)
        tracer.patch(index, "insert", tracer.nested("mutate.insert", index.insert, None))
        tracer.patch(index, "merge", tracer.nested("merge", index.merge, None))

    async def main():
        batcher = MicroBatcher(index, k=K, merge_threshold=MERGE_THRESHOLD)

        async def fire(i: int, due: float) -> None:
            op = ops[i]
            try:
                if op == "search":
                    qi = next(cycle)
                    lo = index.updates_applied
                    seq = next(seqs)
                    res = await batcher.search(pool[qi])
                    done = time.perf_counter()
                    searches.append(
                        SearchRecord(
                            seq, qi, due, done, lo, index.updates_applied,
                            res.ids, res.divergences,
                        )
                    )
                elif op == "insert":
                    point = fresh[next(fresh_rows)]
                    pid = await batcher.insert(point)
                    inserts.append((due, time.perf_counter()))
                    mutations.append((index.updates_applied, "insert", pid, point))
                    live_inserted.append(pid)
                else:
                    victim = live_inserted.pop(int(rng.integers(len(live_inserted))))
                    await batcher.delete(victim)
                    mutations.append((index.updates_applied, "delete", victim, None))
            except Exception as error:  # noqa: BLE001 - counted, the run goes on
                failures.append((i, repr(error)))

        gc.collect()
        start = time.perf_counter()
        try:
            lags = await open_loop(len(ops), SERVE_RATE, fire)
        finally:
            await batcher.close()
        return start, lags, batcher.stats

    start, lags, stats = asyncio.run(main())
    return {
        "n_partitions": index.n_partitions,
        "wal_fsync": index.config.wal_fsync,
        "n_pages": int(index.datastore.n_pages),
        "ops": ops,
        "start": start,
        "lags": lags,
        "stats": stats,
        "searches": searches,
        "inserts": inserts,
        "mutations": mutations,
        "failures": failures,
    }


def check_serve(dataset, searches: List[SearchRecord], mutations) -> int:
    """Searches matching no acknowledged mutation prefix in their
    ``updates_applied`` bracket (the linearizability gate)."""
    cache: Dict[Tuple[int, int], Tuple[np.ndarray, np.ndarray]] = {}

    def live_points(version: int) -> Tuple[np.ndarray, np.ndarray]:
        alive: Dict[int, np.ndarray] = {}
        for applied, op, pid, point in mutations:
            if applied > version:
                break
            if op == "insert":
                alive[pid] = point
            else:
                del alive[pid]
        n_base = dataset.points.shape[0]
        ids = np.concatenate([np.arange(n_base), np.array(sorted(alive), dtype=int)])
        extra = [alive[pid] for pid in sorted(alive)]
        points = np.vstack([dataset.points, *extra]) if extra else dataset.points
        return ids, points

    def oracle(qi: int, version: int):
        key = (qi, version)
        if key not in cache:
            ids, points = live_points(version)
            order, dists = brute_force_knn(
                dataset.divergence, points, dataset.queries[qi], K
            )
            cache[key] = (ids[order], dists)
        return cache[key]

    return sum(
        not any(
            same_answer(rec.ids, rec.divergences, oracle(rec.qi, v))
            for v in range(rec.lo, rec.hi + 1)
        )
        for rec in searches
    )


def _serve_outcome(run, setup, floor, dataset, wrong, tracer) -> Outcome:
    searches = run["searches"]
    attempted = len(run["ops"])
    failed = len(run["failures"])
    latencies = [r.done - r.due for r in searches]
    end = max((r.done for r in searches), default=run["start"])
    record = {
        "loop": f"open, {SERVE_RATE:g} req/s, evenly spaced",
        "ops": {op: run["ops"].count(op) for op in ("search", "insert", "delete")},
        "latency_ms": latency_summary(latencies),
        "wal": "fsync per append"
        if run["wal_fsync"]
        else "appends flush to the OS only (wal_fsync=False)",
        "merges": run["stats"].n_merges,
        "failures": run["failures"][:10],
        "references": {
            "floor.scan_s_per_query": floor,
            "floor.pages": run["n_pages"],
        },
        "setup_runs_s": setup,
        "peak_rss_after_setup_mb": run["setup_rss"],
    }
    if tracer is None:
        metrics = {
            "qps": ratio(len(searches), end - run["start"]),
            "p50_ms": percentile(latencies, 50) * 1e3,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb(),
            "ok_frac": ratio(attempted - failed - wrong, attempted),
        }
        return Outcome(metrics, attempted, failed + wrong, wrong, record, tracer)

    batches = sorted(
        (c for c in tracer.calls if c.name == ROOT),
        key=lambda c: c.args["first_seq"],
    )
    starts = [c.args["first_seq"] for c in batches]
    waits = []
    for rec in searches:
        pos = int(np.searchsorted(starts, rec.seq, side="right")) - 1
        waits.append(batches[pos].start - rec.due)
    merges = [s for s in tracer.spans if s.name == "merge"]
    stalled = [
        r.done - r.due
        for r in searches
        if any(r.due < m.end and r.done > m.start for m in merges)
    ]
    layers = {
        "latency.p95_ms": percentile(latencies, 95) * 1e3,
        **search_layer_metrics(tracer),
        **setup_layer_metrics(tracer, run["n_partitions"]),
        "serve.queue_wait_ms_p50": percentile(waits, 50) * 1e3,
        "serve.queue_wait_ms_p95": percentile(waits, 95) * 1e3,
        "serve.service_ms_p50": percentile([c.seconds for c in batches], 50) * 1e3,
        "serve.batch_size_mean": run["stats"].mean_batch_size,
        "serve.gen_lag_ms_p99": percentile(run["lags"], 99) * 1e3,
        "serve.insert_p50_ms": percentile([d - u for u, d in run["inserts"]], 50) * 1e3,
        "mutate.insert_ms_p50": percentile(
            [s.seconds for s in tracer.spans if s.name == "mutate.insert"], 50
        )
        * 1e3,
        "merge.count": float(len(merges)),
        "merge.s_mean": statistics.fmean(m.seconds for m in merges) if merges else 0.0,
        "merge.stall_search_p95_ms": percentile(stalled, 95) * 1e3,
        "floor.scan_s_per_query": floor,
        "floor.pages": float(run["n_pages"]),
    }
    return Outcome(zero_layers(layers), attempted, failed + wrong, wrong, record, tracer)


WORKLOADS: Dict[str, Callable[[int, float, bool, int], Outcome]] = {
    "fonts-batch": fonts_batch,
    "sift-serve-rw": sift_serve_rw,
}


def run_workload(name: str, seed: int, seconds: float, trace: bool, n: int = N_POINTS):
    """Run one workload; write the trace-event JSON of a traced run."""
    outcome = WORKLOADS[name](seed, seconds, trace, n)
    outcome.record = {"workload": name, **outcome.record, "host": host_record(seed)}
    if outcome.tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{name}-seed{seed}.json"
        write_trace_events(outcome.tracer.spans, str(path))
        outcome.record["trace_events"] = str(path.relative_to(REPO_ROOT))
    return outcome
