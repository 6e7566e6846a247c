"""Parallel shard fan-out + sparse refinement benchmark.

Two claims recorded in ``BENCH_parallel.json``:

1. **Fan-out**: with 4 shards and ``shard_workers=4``, end-to-end
   ``search_batch`` at B=64 runs >= 2x faster than the sequential
   fan-out (``shard_workers=1`` through the same engine).  The storage
   stack is simulated, so the benchmark models each shard as an
   independent disk serving ``IOPS`` random page reads per second
   (:class:`~repro.storage.io_stats.IOCostModel`; 400 IOPS/disk ~ cloud
   block storage / fast HDD random reads, paid as a GIL-releasing sleep
   inside each fan-out task).  Sequential fan-out waits the shards out
   one after another; parallel workers overlap the waits, like real
   independent spindles.  A zero-latency row is recorded too for
   transparency: it shows ~1x, because without I/O waits the fan-out
   tasks only charge pages and copy rows -- the scoring runs later, in
   the Refine stage.

2. **Sparse refinement**: at B=256 on a *skewed-candidate* workload
   (per-query candidate sets Pareto-distributed: most tiny, a few huge
   -- the regime where the dense (union x B) kernel wastes nearly every
   cell) the sparse grouped kernel beats the dense blocked kernel.
   Candidate sets are synthesized at controlled density because the
   laptop-scale proxy's Theorem-1 bounds are anchor-dominated and keep
   ~75% of the file as candidates for every query; both kernels are
   measured on identical inputs and must return bitwise-identical
   results.

Running the file directly rewrites ``BENCH_parallel.json`` at the repo
root.  ``--smoke`` runs a seconds-scale end-to-end pass over the whole
{dense, sparse, auto} x {1, 4} shard-workers matrix, then forces the
dense Refine kernel's row-slice fan-out to 2 threads on a multi-block
batch, with parity and accounting assertions but no timing claims --
what CI exercises on every push.
Under pytest, parity checks run by default and the timing assertions
are ``slow``-marked.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.pipeline.refine as refine_module
from repro import BrePartitionConfig, BrePartitionIndex
from repro.datasets import load_dataset
from repro.exec import ShardExecutor
from repro.storage import DiskAccessTracker

DATASET = "fonts"
N_POINTS = 2000  # the fonts proxy caps at 1744 rows
K = 10
REPS = 3

# fan-out arm: B=64, 4 simulated disks at HDD-class random-read latency;
# 16KB pages (leaf capacity pinned so the forest is page-size-agnostic)
# give the batch a few hundred page reads to fan out.
B_FANOUT = 64
N_SHARDS = 4
FANOUT_WORKERS = (1, 2, 4)
IOPS_PER_DISK = 400.0
FANOUT_PAGE_BYTES = 16384
FANOUT_LEAF_CAPACITY = 40
FANOUT_PARTITIONS = 4
TARGET_FANOUT_SPEEDUP = 2.0

# refine-width smoke: a block that splits the smoke's union into many
# uneven blocks, scored on this many forced threads
SMOKE_REFINE_BLOCK = 37
SMOKE_REFINE_WIDTH = 2

# sparse arm: B=256, Pareto-skewed candidate sets (mean ~32 of a
# ~1744-row union, heavy tail up to the full file).
B_SPARSE = 256
SPARSE_PARTITIONS = 8
SPARSE_SIZE_BASE = 8
SPARSE_SIZE_TAIL = 1.3

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _best_of(fn, reps: int = REPS) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


# ----------------------------------------------------------------------
# fan-out arm
# ----------------------------------------------------------------------


def make_fanout_index(n_points: int = N_POINTS, iops: float | None = IOPS_PER_DISK):
    dataset = load_dataset(DATASET, n=n_points, n_queries=B_FANOUT, seed=0)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=FANOUT_PARTITIONS,
            page_size_bytes=FANOUT_PAGE_BYTES,
            leaf_capacity=FANOUT_LEAF_CAPACITY,
            seed=0,
            n_shards=N_SHARDS,
            simulated_io_iops=iops,
        ),
    ).build(dataset.points)
    return dataset, index


def measure_fanout(dataset, index, workers_list=FANOUT_WORKERS):
    queries = dataset.queries[:B_FANOUT]
    rows = []
    reference = None
    for workers in workers_list:
        index.config.shard_workers = workers
        batch = index.search_batch(queries, K)
        if reference is None:
            reference = batch
        else:
            for a, b in zip(reference, batch):
                np.testing.assert_array_equal(a.ids, b.ids)
                np.testing.assert_array_equal(a.divergences, b.divergences)
        seconds = _best_of(lambda: index.search_batch(queries, K))
        rows.append(
            {
                "shard_workers": workers,
                "seconds": seconds,
                "pages_per_shard": list(batch.stats.pages_read_per_shard),
                "shard_seconds": [round(s, 4) for s in batch.stats.shard_seconds],
            }
        )
    base = rows[0]["seconds"]
    for row in rows:
        row["speedup_vs_sequential"] = base / row["seconds"]
    return rows


# ----------------------------------------------------------------------
# sparse arm
# ----------------------------------------------------------------------


def make_sparse_index(n_points: int = N_POINTS):
    dataset = load_dataset(DATASET, n=n_points, n_queries=B_SPARSE, seed=0)
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=SPARSE_PARTITIONS,
            page_size_bytes=dataset.page_size_bytes,
            seed=0,
        ),
    ).build(dataset.points)
    return dataset, index


def make_skewed_candidates(index, n_queries: int, seed: int = 1):
    """Pareto-skewed candidate sets over contiguous id runs.

    Models a selective filter at scale: most queries keep a few dozen
    leaf-local candidates, a heavy tail keeps hundreds-to-everything.
    """
    n = index.n_points
    rng = np.random.default_rng(seed)
    sizes = np.minimum(
        n, (SPARSE_SIZE_BASE * (1.0 + rng.pareto(SPARSE_SIZE_TAIL, size=n_queries))).astype(int)
    )
    starts = rng.integers(0, n, size=n_queries)
    return [
        np.unique((starts[q] + np.arange(max(K, sizes[q]))) % n)
        for q in range(n_queries)
    ]


def measure_sparse(dataset, index, n_queries: int = B_SPARSE):
    queries = dataset.queries[:n_queries]
    candidates = make_skewed_candidates(index, n_queries)
    sizes = np.array([ids.size for ids in candidates])
    union = np.unique(np.concatenate(candidates))
    density = float(sizes.mean() / union.size)
    index.datastore.charge_pages_for(candidates)

    def run_refine():
        return index.pipeline.refine_prefetched(candidates, queries, K).refined

    results = {}
    timings = {}
    for kernel in ("dense", "sparse"):
        index.config.refine_kernel = kernel
        results[kernel] = run_refine()
        timings[kernel] = _best_of(run_refine)
    for (a_ids, a_divs), (b_ids, b_divs) in zip(
        results["dense"], results["sparse"]
    ):
        np.testing.assert_array_equal(a_ids, b_ids)
        np.testing.assert_array_equal(a_divs, b_divs)

    index.config.refine_kernel = "auto"
    auto_choice = index.pipeline.stage("refine").choose_kernel(
        candidates, union.size, n_queries
    )
    return {
        "batch_size": n_queries,
        "mean_candidates": float(sizes.mean()),
        "max_candidates": int(sizes.max()),
        "union_candidates": int(union.size),
        "density": density,
        "auto_kernel": auto_choice,
        "dense_seconds": timings["dense"],
        "sparse_seconds": timings["sparse"],
        "speedup": timings["dense"] / timings["sparse"],
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def fanout_workload():
    return make_fanout_index(n_points=600, iops=None)


def test_fanout_workers_bitwise_identical(fanout_workload):
    dataset, index = fanout_workload
    measure_fanout(dataset, index, workers_list=(1, 4))  # asserts parity


def test_sparse_matches_dense_on_skewed_candidates():
    dataset, index = make_sparse_index(n_points=600)
    measure_sparse(dataset, index, n_queries=64)  # asserts parity


@pytest.mark.slow
def test_parallel_fanout_at_least_2x_at_64():
    dataset, index = make_fanout_index()
    rows = measure_fanout(dataset, index, workers_list=(1, 4))
    speedup = rows[-1]["speedup_vs_sequential"]
    print(
        f"\nparallel fan-out speedup at B={B_FANOUT}, S={N_SHARDS}, "
        f"workers=4: {speedup:.2f}x (target {TARGET_FANOUT_SPEEDUP}x)"
    )
    assert speedup >= TARGET_FANOUT_SPEEDUP


@pytest.mark.slow
def test_sparse_beats_dense_at_256():
    dataset, index = make_sparse_index()
    row = measure_sparse(dataset, index)
    print(
        f"\nsparse refinement at B={B_SPARSE} (density {row['density']:.3f}): "
        f"{row['speedup']:.2f}x over dense"
    )
    assert row["auto_kernel"] == "sparse"
    assert row["speedup"] > 1.0


# ----------------------------------------------------------------------
# smoke / main
# ----------------------------------------------------------------------


def search_at_refine_width(index, queries, width: int):
    """``search_batch`` with Refine's usable-CPU count forced to
    ``width``; returns the batch and the widths of the executors the
    dense kernel ran its row slices on."""
    widths = []

    class RecordingExecutor(ShardExecutor):
        def run(self, tasks):
            widths.append(self.n_workers)
            return super().run(tasks)

    saved = refine_module._usable_cpus, refine_module.ShardExecutor
    refine_module._usable_cpus = lambda: width
    refine_module.ShardExecutor = RecordingExecutor
    try:
        return index.search_batch(queries, K), widths
    finally:
        refine_module._usable_cpus, refine_module.ShardExecutor = saved


def smoke() -> None:
    """Seconds-scale CI pass: the full kernel x worker matrix, no timing.

    Exercises the parallel path end to end -- fan-out charging on worker
    threads, both refinement kernels, the auto dispatcher, modeled I/O
    latency, and the dense kernel's row slices on forced threads -- and
    asserts bitwise parity with per-query search plus exact per-shard
    accounting.  No wall-clock assertions, so it cannot flake on loaded
    CI runners.
    """
    dataset = load_dataset(DATASET, n=400, n_queries=16, seed=0)
    queries = dataset.queries
    tracker = DiskAccessTracker()
    index = BrePartitionIndex(
        dataset.divergence,
        BrePartitionConfig(
            n_partitions=3,
            page_size_bytes=8192,
            leaf_capacity=16,
            seed=0,
            n_shards=N_SHARDS,
            simulated_io_iops=200_000.0,
        ),
        tracker=tracker,
    ).build(dataset.points)
    reference = [index.search(query, K) for query in queries]
    combos = 0
    for kernel in ("dense", "sparse", "auto"):
        for workers in (1, 4):
            index.config.refine_kernel = kernel
            index.config.shard_workers = workers
            batch = index.search_batch(queries, K)
            assert sum(batch.stats.pages_read_per_shard) == batch.stats.pages_coalesced
            assert len(batch.stats.shard_seconds) == N_SHARDS
            for single, batched in zip(reference, batch):
                np.testing.assert_array_equal(single.ids, batched.ids)
                np.testing.assert_array_equal(
                    single.divergences, batched.divergences
                )
            combos += 1
    assert sum(index.datastore.shard_pages_read) == tracker.total_pages_read

    # refine-width axis: the dense kernel's row slices on 2 threads
    index.config.refine_kernel = "dense"
    index.config.shard_workers = 1
    index.config.refinement_block_size = SMOKE_REFINE_BLOCK
    serial, serial_widths = search_at_refine_width(index, queries, 1)
    sliced, sliced_widths = search_at_refine_width(
        index, queries, SMOKE_REFINE_WIDTH
    )
    assert serial_widths == [1]
    assert sliced_widths == [SMOKE_REFINE_WIDTH], sliced_widths
    assert sliced.stats.pages_read == serial.stats.pages_read
    for single, a, b in zip(reference, serial, sliced):
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.divergences, b.divergences)
        np.testing.assert_array_equal(single.ids, b.ids)
        np.testing.assert_array_equal(single.divergences, b.divergences)
    print(
        f"smoke OK: {combos} kernel/worker combos bitwise-identical to "
        f"per-query search, shard accounting exact "
        f"({tracker.total_pages_read} pages across {N_SHARDS} shards); "
        f"dense Refine on {SMOKE_REFINE_WIDTH} forced row-slice threads "
        f"(block {SMOKE_REFINE_BLOCK}) bitwise-identical to 1"
    )


def main() -> None:
    dataset, index = make_fanout_index()
    print(
        f"fan-out: {dataset!r}, M={index.n_partitions}, k={K}, B={B_FANOUT}, "
        f"S={N_SHARDS}, page={FANOUT_PAGE_BYTES}B, "
        f"{IOPS_PER_DISK:.0f} IOPS/disk modeled"
    )
    fanout_rows = measure_fanout(dataset, index)
    for row in fanout_rows:
        print(
            f"  workers={row['shard_workers']}: {row['seconds'] * 1e3:8.1f}ms  "
            f"speedup {row['speedup_vs_sequential']:5.2f}x  "
            f"pages/shard {row['pages_per_shard']}"
        )

    nolat_dataset, nolat_index = make_fanout_index(iops=None)
    nolat_rows = measure_fanout(nolat_dataset, nolat_index, workers_list=(1, 4))
    cpus = refine_module._usable_cpus()  # honesty annotation
    print(
        f"  (zero-latency control: workers=4 speedup "
        f"{nolat_rows[-1]['speedup_vs_sequential']:.2f}x on {cpus} CPU(s) -- "
        f"the win comes from overlapping I/O waits)"
    )

    sparse_dataset, sparse_index = make_sparse_index()
    sparse_row = measure_sparse(sparse_dataset, sparse_index)
    print(
        f"sparse: B={sparse_row['batch_size']}, mean cand "
        f"{sparse_row['mean_candidates']:.0f} of union "
        f"{sparse_row['union_candidates']} (density {sparse_row['density']:.3f}, "
        f"auto -> {sparse_row['auto_kernel']})\n"
        f"  dense {sparse_row['dense_seconds'] * 1e3:7.1f}ms  "
        f"sparse {sparse_row['sparse_seconds'] * 1e3:7.1f}ms  "
        f"speedup {sparse_row['speedup']:5.2f}x"
    )

    payload = {
        "benchmark": "parallel_fanout",
        "dataset": DATASET,
        "n_points": int(sparse_index.n_points),
        "dimensionality": int(sparse_dataset.points.shape[1]),
        "divergence": sparse_dataset.divergence.name,
        "k": K,
        "reps": REPS,
        "host_cpus": cpus,
        "fanout": {
            "batch_size": B_FANOUT,
            "n_shards": N_SHARDS,
            "n_partitions": FANOUT_PARTITIONS,
            "page_size_bytes": FANOUT_PAGE_BYTES,
            "modeled_iops_per_disk": IOPS_PER_DISK,
            "target_speedup_workers4": TARGET_FANOUT_SPEEDUP,
            "results": [
                {
                    "shard_workers": row["shard_workers"],
                    "seconds": round(row["seconds"], 6),
                    "speedup_vs_sequential": round(
                        row["speedup_vs_sequential"], 3
                    ),
                    "pages_per_shard": row["pages_per_shard"],
                }
                for row in fanout_rows
            ],
            "zero_latency_control": {
                "shard_workers": 4,
                "speedup_vs_sequential": round(
                    nolat_rows[-1]["speedup_vs_sequential"], 3
                ),
            },
        },
        "sparse_refinement": {
            key: (round(value, 6) if isinstance(value, float) else value)
            for key, value in sparse_row.items()
        },
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {RESULT_PATH}")


if __name__ == "__main__":
    if "--smoke" in sys.argv[1:]:
        smoke()
    else:
        main()
