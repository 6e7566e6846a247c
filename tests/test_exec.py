"""Parallel shard fan-out tests: executor, parity matrix, accounting.

The contract under test (ISSUE 3's tentpole): fanning ``search_batch``'s
per-shard candidate fetches out across a thread pool must change
*nothing* about the results -- for every decomposable divergence, under
every refinement kernel ({dense, sparse, auto}) and every worker count
({1, 4}), batched top-k ids and divergences stay bitwise equal to
per-query ``search`` -- while per-shard I/O accounting keeps summing
exactly to the aggregate even when charges race on worker threads.
"""

from __future__ import annotations

import asyncio
import sys
import threading

import numpy as np
import pytest

import repro.pipeline.refine as refine_module

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    SquaredEuclidean,
    brute_force_knn,
)
from repro.exceptions import InvalidParameterError
from repro.exec import ShardExecutor
from repro.serve import MicroBatcher
from repro.storage import BufferPool, DiskAccessTracker, ShardedDataStore
from repro.storage.io_stats import IOCostModel

from conftest import all_decomposable_divergences, points_for

N_POINTS = 240
N_QUERIES = 10
DIM = 12
K = 5
# tiny pages (8 points each) so every batch spans several pages per shard
PAGE_BYTES = 8 * DIM * 8
#: Refine row-slice widths forced through the CPU-count helper
REFINE_WIDTHS = (1, 2, 4)
#: a dense block that divides neither the union nor its slices, so
#: slices end mid-block and come out uneven
REFINE_BLOCK = 7


def sharded_index(divergence, points, tracker=None, buffer_pool=None, **kwargs):
    config = BrePartitionConfig(
        n_partitions=3,
        seed=0,
        n_shards=4,
        page_size_bytes=PAGE_BYTES,
        **kwargs,
    )
    return BrePartitionIndex(
        divergence, config, tracker=tracker, buffer_pool=buffer_pool
    ).build(points)


class TestShardExecutor:
    def test_results_keep_submission_order(self):
        tasks = [lambda v=v: v * v for v in range(7)]
        for workers in (1, 4):
            results, seconds = ShardExecutor(workers).run(tasks)
            assert results == [v * v for v in range(7)]
            assert len(seconds) == 7
            assert all(s >= 0.0 for s in seconds)

    def test_tasks_actually_run_concurrently(self):
        # four tasks that each wait on a shared barrier can only all
        # finish when four threads run them at the same time
        barrier = threading.Barrier(4, timeout=5.0)
        results, _ = ShardExecutor(4).run([barrier.wait] * 4)
        assert sorted(results) == [0, 1, 2, 3]

    def test_exceptions_propagate(self):
        def boom():
            raise RuntimeError("shard died")

        for workers in (1, 4):
            with pytest.raises(RuntimeError, match="shard died"):
                ShardExecutor(workers).run([lambda: 1, boom])

    def test_rejects_bad_worker_count(self):
        with pytest.raises(InvalidParameterError, match="n_workers"):
            ShardExecutor(0)

    def test_io_wait_without_model_is_free(self):
        ShardExecutor(1).io_wait(10_000_000)  # returns immediately

    def test_io_wait_models_page_latency(self):
        import time

        executor = ShardExecutor(1, io_model=IOCostModel(iops=1000.0))
        start = time.perf_counter()
        executor.io_wait(20)  # 20 pages at 1ms each
        assert time.perf_counter() - start >= 0.015

    def test_empty_task_list(self):
        assert ShardExecutor(4).run([]) == ([], [])


class TestParallelParityMatrix:
    """Acceptance: bitwise single/batch parity for every divergence under
    all of {1, 4} workers x {dense, sparse, auto} kernels -- with
    per-scope page accounting bitwise equal in every cell."""

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_kernels_and_workers_bitwise_identical(self, name, divergence):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = sharded_index(divergence, points)
        reference = [index.search(query, K) for query in queries]
        reference_pages = None
        for workers in (1, 4):
            for kernel in ("dense", "sparse", "auto"):
                index.config.refine_kernel = kernel
                index.config.shard_workers = workers
                batch = index.search_batch(queries, K)
                assert batch.stats.shard_workers == workers
                assert batch.stats.refine_kernel in ("dense", "sparse")
                if kernel != "auto":
                    assert batch.stats.refine_kernel == kernel
                # exact page accounting: every cell charges the same pages
                if reference_pages is None:
                    reference_pages = batch.stats.pages_read
                assert batch.stats.pages_read == reference_pages
                for single, batched in zip(reference, batch):
                    np.testing.assert_array_equal(single.ids, batched.ids)
                    np.testing.assert_array_equal(
                        single.divergences, batched.divergences
                    )

    def test_sparse_kernel_on_single_disk_store(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        dense_index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(n_partitions=3, seed=0, refine_kernel="dense"),
        ).build(points)
        sparse_index = BrePartitionIndex(
            divergence,
            BrePartitionConfig(n_partitions=3, seed=0, refine_kernel="sparse"),
        ).build(points)
        dense = dense_index.search_batch(queries, K)
        sparse = sparse_index.search_batch(queries, K)
        assert dense.stats.refine_kernel == "dense"
        assert sparse.stats.refine_kernel == "sparse"
        for a, b in zip(dense, sparse):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.divergences, b.divergences)

    def test_auto_dispatch_follows_density_threshold(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = sharded_index(divergence, points)
        # threshold 0 can never be undercut (strict <) -> always dense
        index.config.sparse_density_threshold = 0.0
        assert index.search_batch(queries, K).stats.refine_kernel == "dense"
        # skewed candidate sets: density 30/(2*100) = 0.15
        skewed = [np.arange(10), np.arange(20)]
        index.config.sparse_density_threshold = 0.2
        refine = index.pipeline.stage("refine")
        assert refine.choose_kernel(skewed, 100, 2) == "sparse"
        index.config.sparse_density_threshold = 0.1
        assert refine.choose_kernel(skewed, 100, 2) == "dense"
        # pinned kernels ignore the threshold entirely
        index.config.refine_kernel = "sparse"
        assert refine.choose_kernel(skewed, 100, 2) == "sparse"

    def test_modeled_io_latency_changes_nothing_but_time(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = sharded_index(divergence, points)
        before = index.search_batch(queries, K)
        index.config.simulated_io_iops = 200_000.0
        index.config.shard_workers = 4
        after = index.search_batch(queries, K)
        assert after.stats.pages_coalesced == before.stats.pages_coalesced
        for a, b in zip(before, after):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.divergences, b.divergences)


@pytest.fixture
def refine_pools(monkeypatch):
    """Record ``(n_workers, n_tasks)`` of every executor Refine builds."""
    built = []

    class RecordingExecutor(ShardExecutor):
        def run(self, tasks):
            built.append((self.n_workers, len(tasks)))
            return super().run(tasks)

    monkeypatch.setattr(refine_module, "ShardExecutor", RecordingExecutor)
    return built


def force_refine_width(monkeypatch, width):
    monkeypatch.setattr(refine_module, "_usable_cpus", lambda: width)


def count_scored_rows(monkeypatch, index):
    """Record the row count of every dense-kernel call on ``index``."""
    refine = index.pipeline.stage("refine")
    score_dense = refine.score_dense
    rows = []

    def counting(vectors, queries, **kwargs):
        rows.append(len(vectors))
        return score_dense(vectors, queries, **kwargs)

    monkeypatch.setattr(refine, "score_dense", counting)
    return rows


class TestRefineSliceParity:
    """Refine's dense kernel fans the union's row slices out over
    threads: any width must be bitwise identical to width 1."""

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_forced_widths_bitwise_identical(
        self, name, divergence, monkeypatch, refine_pools
    ):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = sharded_index(
            divergence, points, refinement_block_size=REFINE_BLOCK
        )
        rows = count_scored_rows(monkeypatch, index)
        for kernel in ("dense", "auto"):
            index.config.refine_kernel = kernel
            reference = None
            for width in REFINE_WIDTHS:
                force_refine_width(monkeypatch, width)
                refine_pools.clear()
                rows.clear()
                batch = index.search_batch(queries, K)
                if reference is None:
                    reference = batch
                if batch.stats.refine_kernel == "dense":
                    # more blocks than the widest width: one slice per thread
                    union = sum(rows)
                    assert union % REFINE_BLOCK != 0
                    assert union > max(REFINE_WIDTHS) * REFINE_BLOCK
                    assert refine_pools == [(width, width)]
                else:
                    assert refine_pools == []
                assert batch.stats.refine_kernel == reference.stats.refine_kernel
                assert batch.stats.pages_read == reference.stats.pages_read
                for want, got in zip(reference, batch):
                    np.testing.assert_array_equal(want.ids, got.ids)
                    np.testing.assert_array_equal(want.divergences, got.divergences)

    def test_slice_exception_propagates(self, monkeypatch, refine_pools):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = sharded_index(
            divergence,
            points,
            refinement_block_size=REFINE_BLOCK,
            refine_kernel="dense",
        )
        force_refine_width(monkeypatch, 1)
        want = index.search_batch(queries, K)
        force_refine_width(monkeypatch, 2)
        refine_pools.clear()
        refine = index.pipeline.stage("refine")
        score_dense = refine.score_dense
        calls = []
        lock = threading.Lock()

        def failing(vectors, queries, **kwargs):
            with lock:
                calls.append(len(vectors))
                fail = len(calls) == 3
            if fail:
                raise RuntimeError("slice kernel failed")
            return score_dense(vectors, queries, **kwargs)

        monkeypatch.setattr(refine, "score_dense", failing)
        with pytest.raises(RuntimeError, match="slice kernel failed"):
            index.search_batch(queries, K)
        assert refine_pools == [(2, 2)]
        # the failure left nothing behind: the next batch is exact
        monkeypatch.setattr(refine, "score_dense", score_dense)
        got = index.search_batch(queries, K)
        for a, b in zip(want, got):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.divergences, b.divergences)

    def test_one_block_union_stays_inline(self, monkeypatch, refine_pools):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        # the auto block (~2^20 elements / max(B, d) rows) holds the
        # whole 240-row union
        index = sharded_index(divergence, points, refine_kernel="dense")
        rows = count_scored_rows(monkeypatch, index)
        force_refine_width(monkeypatch, 4)
        index.search_batch(queries, K)
        index.search(queries[0], K)
        assert len(rows) == 2  # one block per batch
        assert refine_pools == [(1, 1), (1, 1)]

    def test_overlapped_serving_at_width_2_matches_direct_search(
        self, monkeypatch, refine_pools
    ):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 32, DIM, seed=2)
        index = sharded_index(
            divergence,
            points,
            refinement_block_size=REFINE_BLOCK,
            refine_kernel="dense",
        )
        force_refine_width(monkeypatch, 1)
        reference = [index.search(query, K) for query in queries]
        force_refine_width(monkeypatch, 2)
        refine_pools.clear()

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=50.0,
                max_concurrent_batches=4,
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )

        # switch threads often so slices and batches interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            served = asyncio.run(asyncio.wait_for(serve(), timeout=60.0))
        finally:
            sys.setswitchinterval(interval)
        for want, got in zip(reference, served):
            np.testing.assert_array_equal(want.ids, got.ids)
            np.testing.assert_array_equal(want.divergences, got.divergences)
        assert refine_pools and all(pool == (2, 2) for pool in refine_pools)


class TestConcurrentAccounting:
    """Satellite: stress the per-shard trackers under a real thread pool."""

    def _run_batches(self, tracker, buffer_pool=None, workers=4, batches=3):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = sharded_index(
            divergence,
            points,
            tracker=tracker,
            buffer_pool=buffer_pool,
            shard_workers=workers,
        )
        per_batch = []
        for b in range(batches):
            queries = points_for(divergence, N_QUERIES, DIM, seed=10 + b)
            stats = index.search_batch(queries, K).stats
            per_batch.append(stats)
        return index, per_batch

    def test_shard_totals_sum_bitwise_to_aggregate(self):
        tracker = DiskAccessTracker()
        index, per_batch = self._run_batches(tracker)
        store = index.datastore
        assert isinstance(store, ShardedDataStore)
        assert sum(store.shard_pages_read) == tracker.total_pages_read
        assert sum(
            shard.total_pages_read for shard in store.shard_trackers
        ) == tracker.total_pages_read
        for stats in per_batch:
            assert sum(stats.pages_read_per_shard) == stats.pages_coalesced
            assert stats.shard_seconds is not None
            assert len(stats.shard_seconds) == store.n_shards

    def test_fanout_deterministic_across_runs(self):
        # same workload, fresh index + pool each run: the per-shard page
        # split and every result must repeat exactly, however threads
        # interleave
        runs = [self._run_batches(DiskAccessTracker())[1] for _ in range(3)]
        for other in runs[1:]:
            for stats_a, stats_b in zip(runs[0], other):
                assert stats_a.pages_read_per_shard == stats_b.pages_read_per_shard
                assert stats_a.pages_coalesced == stats_b.pages_coalesced
                assert stats_a.pages_read == stats_b.pages_read

    def test_parallel_matches_sequential_accounting(self):
        sequential = self._run_batches(DiskAccessTracker(), workers=1)[1]
        parallel = self._run_batches(DiskAccessTracker(), workers=4)[1]
        for stats_s, stats_p in zip(sequential, parallel):
            assert stats_s.pages_read_per_shard == stats_p.pages_read_per_shard
            assert stats_s.pages_read == stats_p.pages_read
            assert stats_s.pages_read_unshared == stats_p.pages_read_unshared

    def test_shared_buffer_pool_stays_consistent_under_threads(self):
        tracker = DiskAccessTracker()
        pool = BufferPool(capacity_pages=10_000)
        index, _ = self._run_batches(tracker, buffer_pool=pool, batches=4)
        store = index.datastore
        # pool hits are charged on neither tracker, so shard totals must
        # still sum exactly to the aggregate
        assert sum(store.shard_pages_read) == tracker.total_pages_read
        assert pool.hits + pool.misses >= pool.hits > 0


class TestAdaptiveRerankBuffer:
    """Satellite: the rerank buffer grows past noise-floor tie sets."""

    def _index(self, points):
        return BrePartitionIndex(
            SquaredEuclidean(), BrePartitionConfig(n_partitions=2, seed=0)
        ).build(points)

    def test_tied_preselection_grows_buffer_to_true_neighbour(self):
        # 40 candidates whose expansion scores all tie at 0.0 (total
        # cancellation); the direct kernel ranks the true nearest last
        # by id.  A fixed buffer of max(2k, k+16) = 19 would rerank only
        # the 19 lowest ids and silently drop it.
        rng = np.random.default_rng(0)
        points = rng.normal(size=(60, DIM))
        query = rng.normal(size=DIM)
        index = self._index(points)
        ids = np.arange(40)
        # craft vectors: candidate 39 is the true nearest, 0..38 farther
        vectors = query + np.linspace(2.0, 3.0, 40)[:, None] * np.ones(DIM)
        vectors[39] = query + 1e-3
        scores = np.zeros(40)  # expansion floor: everything tied
        top_ids, top_divs = index.pipeline.stage("rerank").topk(
            ids, scores, query, 3, lambda sel: vectors[sel]
        )
        assert top_ids[0] == 39
        oracle = SquaredEuclidean().batch_divergence(vectors[top_ids], query)
        np.testing.assert_array_equal(top_divs, oracle)

    def test_accurate_scores_keep_buffer_small(self):
        # when expansion and direct kernels agree to ~ulp, the measured
        # noise floor cannot sweep extra candidates into the buffer and
        # the first-pass rerank stands
        rng = np.random.default_rng(1)
        points = rng.normal(size=(80, DIM))
        query = rng.normal(size=DIM)
        index = self._index(points)
        ids = np.arange(80)
        vectors = points[:80]
        scores = index.pipeline.stage("refine").score_dense(vectors, query[None, :])
        scores = scores[:, 0]
        top_ids, top_divs = index.pipeline.stage("rerank").topk(
            ids, scores, query, K, lambda sel: vectors[sel]
        )
        oracle_ids, oracle_divs = brute_force_knn(
            SquaredEuclidean(), vectors, query, K
        )
        np.testing.assert_array_equal(top_ids, oracle_ids)
        np.testing.assert_array_equal(top_divs, oracle_divs)

    def test_spread_data_with_oversized_tie_set_matches_oracle(self):
        # two clusters at +-1e8: the conditioned expansion's noise floor
        # (~eps * 1e16 * d) dwarfs genuine gaps of O(1), so *every*
        # cluster candidate ties -- far more than the fixed buffer.  The
        # adaptive rerank must still recover the exact oracle answer.
        rng = np.random.default_rng(4)
        near = rng.normal(1e8, 1e-4, size=(40, DIM))  # 40-way noise tie
        far = rng.normal(-1e8, 1.0, size=(40, DIM))
        query = near[0].copy()
        # true top-3 hidden at the highest ids of the tied cluster
        near[37] = near[0]
        near[37, 0] += 1e-6
        near[38] = near[0]
        near[38, 0] += 2e-6
        near[39] = near[0]
        points = np.concatenate([near, far])
        index = self._index(points)
        oracle_ids, oracle_divs = brute_force_knn(
            SquaredEuclidean(), points, query, 3
        )
        result = index.search(query, 3)
        np.testing.assert_array_equal(result.ids, oracle_ids)
        np.testing.assert_array_equal(result.divergences, oracle_divs)
        batch = index.search_batch(query[None, :], 3)
        np.testing.assert_array_equal(batch[0].ids, result.ids)
        np.testing.assert_array_equal(batch[0].divergences, result.divergences)


class TestConfigValidation:
    def test_rejects_bad_shard_workers(self):
        with pytest.raises(InvalidParameterError, match="shard_workers"):
            BrePartitionConfig(shard_workers=0)

    def test_rejects_bad_refine_kernel(self):
        with pytest.raises(InvalidParameterError, match="refine_kernel"):
            BrePartitionConfig(refine_kernel="blocked")

    def test_rejects_bad_density_threshold(self):
        with pytest.raises(InvalidParameterError, match="sparse_density_threshold"):
            BrePartitionConfig(sparse_density_threshold=1.5)

    def test_rejects_bad_iops(self):
        with pytest.raises(InvalidParameterError, match="simulated_io_iops"):
            BrePartitionConfig(simulated_io_iops=0.0)


class TestHarnessPlumbing:
    def test_run_workload_threads_workers_and_kernel(self):
        from repro.datasets import load_dataset
        from repro.eval.harness import run_workload

        dataset = load_dataset("uniform", n=300, n_queries=8, seed=0)
        index = BrePartitionIndex(
            dataset.divergence,
            BrePartitionConfig(
                n_partitions=3, seed=0, page_size_bytes=dataset.page_size_bytes
            ),
        ).build(dataset.points)
        result = run_workload(
            index,
            dataset,
            k=K,
            batch_size=4,
            shards=4,
            shard_workers=4,
            refine_kernel="sparse",
        )
        assert index.config.shard_workers == 4
        assert index.config.refine_kernel == "sparse"
        assert result.extras["refine_kernel"] == "sparse"
        assert result.extras["shard_workers"] == 4
        assert result.mean_recall == 1.0

    def test_run_workload_rejects_bad_kernel(self):
        from repro.datasets import load_dataset
        from repro.eval.harness import run_workload

        dataset = load_dataset("uniform", n=200, n_queries=4, seed=0)
        index = BrePartitionIndex(
            dataset.divergence, BrePartitionConfig(n_partitions=2, seed=0)
        ).build(dataset.points)
        with pytest.raises(InvalidParameterError, match="refine_kernel"):
            run_workload(index, dataset, k=2, refine_kernel="fast")
        with pytest.raises(InvalidParameterError, match="shard_workers"):
            run_workload(index, dataset, k=2, shard_workers=0)
