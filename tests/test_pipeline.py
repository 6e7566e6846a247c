"""Staged-pipeline and serving-layer tests.

The contracts under test (ISSUE 4's tentpole): decomposing
``search_batch`` into Plan -> Fetch -> Refine -> Rerank stages must
change *nothing* about the results -- for every decomposable divergence,
every refinement kernel and the sharded fan-out, batched top-k ids and
divergences stay bitwise equal to a brute-force oracle -- and the
asyncio micro-batching front-end must serve every concurrent client a
response bitwise identical to a direct ``search`` call.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    ItakuraSaito,
    SquaredEuclidean,
    brute_force_knn,
)
from repro.core.config import PLAN_ROUTES
from repro.exceptions import (
    DomainError,
    InvalidParameterError,
    ServerOverloadedError,
)
from repro.pipeline import (
    PipelineStage,
    QueryBatchContext,
    SearchPipeline,
    default_stages,
)
from repro.serve import MicroBatchConfig, MicroBatcher
from repro.storage import BufferPool, DataStore

from conftest import all_decomposable_divergences, points_for

N_POINTS = 240
N_QUERIES = 12
DIM = 12
K = 5
# tiny pages (8 points each) so batches span several pages per shard
PAGE_BYTES = 8 * DIM * 8

STAGE_NAMES = ("plan", "fetch", "refine", "rerank")


def build_index(divergence, points, **config_kwargs):
    config_kwargs.setdefault("n_partitions", 3)
    config_kwargs.setdefault("seed", 0)
    return BrePartitionIndex(
        divergence, BrePartitionConfig(**config_kwargs)
    ).build(points)


class TestPipelineOracleParity:
    """Acceptance: staged-pipeline results are bitwise the oracle's, on
    every Plan route (forest walk, full scan, or the cost-based pick)."""

    @pytest.mark.parametrize("route", PLAN_ROUTES)
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_batch_matches_brute_force_bitwise(self, name, divergence, route):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence,
            points,
            n_shards=4,
            page_size_bytes=PAGE_BYTES,
            plan_route=route,
        )
        index.config.shard_workers = 4
        for kernel in ("dense", "sparse", "auto"):
            index.config.refine_kernel = kernel
            batch = index.search_batch(queries, K)
            for query, result in zip(queries, batch):
                oracle_ids, oracle_divs = brute_force_knn(divergence, points, query, K)
                np.testing.assert_array_equal(result.ids, oracle_ids)
                np.testing.assert_array_equal(result.divergences, oracle_divs)

    @pytest.mark.parametrize("route", PLAN_ROUTES)
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_single_search_matches_brute_force_bitwise(self, name, divergence, route):
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, 4, DIM, seed=2)
        index = build_index(divergence, points, plan_route=route)
        for query in queries:
            result = index.search(query, K)
            oracle_ids, oracle_divs = brute_force_knn(divergence, points, query, K)
            np.testing.assert_array_equal(result.ids, oracle_ids)
            np.testing.assert_array_equal(result.divergences, oracle_divs)


def assert_oracle_parity(divergence, points, queries, batch, k=K):
    for query, result in zip(queries, batch):
        oracle_ids, oracle_divs = brute_force_knn(divergence, points, query, k)
        np.testing.assert_array_equal(result.ids, oracle_ids)
        np.testing.assert_array_equal(result.divergences, oracle_divs)


class TestPlanRouting:
    """Plan routes around the forest walk only when Theorem 1's lower
    bounds admit points on every live page, and never changes results."""

    def test_replicated_shards_scan_route_parity(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence,
            points,
            n_shards=4,
            replication_factor=2,
            shard_workers=4,
            page_size_bytes=PAGE_BYTES,
            plan_route="scan",
        )
        batch = index.search_batch(queries, K)
        assert_oracle_parity(divergence, points, queries, batch)
        assert batch.stats.pages_coalesced == index.datastore.n_pages
        assert sum(batch.stats.pages_read_per_shard) == index.datastore.n_pages
        assert {r.stats.plan_route for r in batch} == {"scan"}

    @pytest.mark.parametrize("route", PLAN_ROUTES)
    def test_approximate_index_never_routes(self, route):
        from repro import ApproximateBrePartitionIndex

        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = ApproximateBrePartitionIndex(
            divergence,
            probability=0.9,
            config=BrePartitionConfig(
                n_partitions=3, seed=0, point_filter=True, plan_route=route
            ),
        ).build(points)
        batch = index.search_batch(queries, K)
        assert {r.stats.plan_route for r in batch} == {"forest"}
        assert all(r.stats.leaves_visited > 0 for r in batch)
        assert batch.stats.n_candidates < N_QUERIES * N_POINTS

    def test_auto_walks_when_admitted_points_miss_a_page(self):
        """A tight cluster at the origin and a far shell: the lower
        bounds of queries inside the cluster admit no shell point, so
        the walk saves the shell's pages and ``auto`` takes it."""
        rng = np.random.default_rng(7)
        divergence = SquaredEuclidean()
        cluster = rng.normal(scale=0.01, size=(120, DIM))
        shell = rng.normal(size=(120, DIM))
        shell *= 50.0 / np.linalg.norm(shell, axis=1, keepdims=True)
        points = np.vstack([cluster, shell])
        queries = rng.normal(scale=0.01, size=(N_QUERIES, DIM))
        index = build_index(divergence, points, page_size_bytes=PAGE_BYTES)
        batch = index.search_batch(queries, K)
        assert_oracle_parity(divergence, points, queries, batch)
        assert {r.stats.plan_route for r in batch} == {"forest"}
        assert all(r.stats.leaves_visited > 0 for r in batch)
        assert batch.stats.pages_read < index.datastore.n_pages

    def test_auto_scans_a_fonts_batch(self):
        """The fonts proxy at B=64: the admitted points span every page,
        so ``auto`` skips the walk and reads the whole file once."""
        from repro.datasets import load_dataset

        dataset = load_dataset("fonts", n=2000, n_queries=64)
        index = BrePartitionIndex(
            dataset.divergence,
            BrePartitionConfig(page_size_bytes=dataset.page_size_bytes, seed=0),
        ).build(dataset.points)
        queries = dataset.queries
        batch = index.search_batch(queries, K)
        assert {r.stats.plan_route for r in batch} == {"scan"}
        assert all(r.stats.leaves_visited == 0 for r in batch)
        assert all(r.stats.n_candidates == dataset.n for r in batch)
        assert batch.stats.pages_read == index.datastore.n_pages
        assert_oracle_parity(dataset.divergence, dataset.points, queries, batch)

    def test_plan_route_validated(self):
        with pytest.raises(InvalidParameterError, match="plan_route must be one of"):
            BrePartitionConfig(plan_route="walk")


def capture_fetch(index):
    """Splice an observer between Fetch and Refine; returns the list of
    ``(vectors, union)`` pairs it sees, one per batch."""
    seen = []

    class FetchProbe(PipelineStage):
        name = "fetch_probe"

        def run(self, ctx: QueryBatchContext) -> None:
            seen.append((ctx.vectors, ctx.union))

    stages = default_stages(index)
    index.pipeline = SearchPipeline(
        index, stages[:2] + [FetchProbe(index)] + stages[2:]
    )
    return seen


class TestZeroCopyFetch:
    """On an unsharded store a union of every frozen row is handed to
    Refine and Rerank as a read-only view of the base's points; any
    other union (sharded store, dead rows, a forest walk) is still a
    ``peek`` copy.  Page charging is the same either way."""

    def _search(self, index, queries):
        seen = capture_fetch(index)
        batch = index.search_batch(queries, K)
        (vectors, union), = seen
        store = index.datastore
        np.testing.assert_array_equal(vectors, store.peek(union))
        assert batch.stats.pages_read == store.count_pages_of(union)
        assert batch.stats.pages_coalesced == store.count_pages_of(union)
        return batch, vectors, union

    def test_full_scan_reads_base_points_in_place(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence, points, page_size_bytes=PAGE_BYTES, plan_route="scan"
        )
        batch, vectors, union = self._search(index, queries)
        assert union.size == N_POINTS
        assert not vectors.flags.writeable
        assert np.shares_memory(vectors, index._base.points)
        with pytest.raises(ValueError, match="read-only"):
            vectors[0, 0] = 1.0
        assert batch.stats.pages_read == index.datastore.n_pages
        assert_oracle_parity(divergence, points, queries, batch)

    def test_sharded_store_still_peeks(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence,
            points,
            n_shards=4,
            page_size_bytes=PAGE_BYTES,
            plan_route="scan",
        )
        batch, vectors, union = self._search(index, queries)
        assert union.size == N_POINTS
        assert vectors.flags.writeable
        assert not np.shares_memory(vectors, index._base.points)
        assert batch.stats.pages_read == index.datastore.n_pages
        assert_oracle_parity(divergence, points, queries, batch)

    def test_dead_rows_still_peek(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        index = build_index(
            divergence, points, page_size_bytes=PAGE_BYTES, plan_route="scan"
        )
        index.delete(5)
        batch, vectors, union = self._search(index, queries)
        assert union.size == N_POINTS - 1
        assert vectors.flags.writeable
        assert not np.shares_memory(vectors, index._base.points)
        live = np.delete(np.arange(N_POINTS), 5)
        for query, result in zip(queries, batch):
            order, divs = brute_force_knn(divergence, points[live], query, K)
            np.testing.assert_array_equal(result.ids, live[order])
            np.testing.assert_array_equal(result.divergences, divs)

    def test_forest_walk_still_peeks(self):
        rng = np.random.default_rng(7)
        divergence = SquaredEuclidean()
        cluster = rng.normal(scale=0.01, size=(120, DIM))
        shell = rng.normal(size=(120, DIM))
        shell *= 50.0 / np.linalg.norm(shell, axis=1, keepdims=True)
        points = np.vstack([cluster, shell])
        queries = rng.normal(scale=0.01, size=(N_QUERIES, DIM))
        index = build_index(divergence, points, page_size_bytes=PAGE_BYTES)
        batch, vectors, union = self._search(index, queries)
        assert union.size < N_POINTS
        assert not np.shares_memory(vectors, index._base.points)
        assert_oracle_parity(divergence, points, queries, batch)


class TestSharedSelection:
    """Rerank's batch-wide first preselection pass (one shared candidate
    array, identity snapshot, dense scores) must select exactly what the
    per-query ``topk`` would; a query whose boundary ties overflow the
    buffer falls back to ``topk`` itself."""

    @staticmethod
    def _duplicated(divergence, seed):
        """200 points plus 30 copies each of 8 of them: a query sitting
        on a copied point ties 31 ways at the top, across both the k=5
        boundary and the first buffer's max(2k, k + 16) = 21."""
        base = points_for(divergence, 200, DIM, seed=seed)
        copies = np.repeat(base[:8], 30, axis=0)
        return np.vstack([base, copies])

    @staticmethod
    def _count_topk(monkeypatch, index):
        rerank = index.pipeline.stage("rerank")
        topk = rerank.topk
        calls = []

        def counting(ids, scores, query, k, gather):
            calls.append(int(ids.size))
            return topk(ids, scores, query, k, gather)

        monkeypatch.setattr(rerank, "topk", counting)
        return calls

    @pytest.mark.parametrize("n_queries", [1, 64])
    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_tied_boundaries_fall_back_bitwise(
        self, name, divergence, n_queries, monkeypatch
    ):
        points = self._duplicated(divergence, seed=3)
        others = points_for(divergence, 64, DIM, seed=4)
        # query 0 (and every even query of the big batch) sits on a
        # copied point; the odd ones are ordinary queries
        queries = np.where(
            (np.arange(64) % 2 == 0)[:, None], points[np.arange(64) % 8], others
        )[:n_queries]
        index = build_index(
            divergence,
            points,
            page_size_bytes=PAGE_BYTES,
            plan_route="scan",
            refine_kernel="dense",
        )
        calls = self._count_topk(monkeypatch, index)
        batch = index.search_batch(queries, K)
        assert {r.stats.plan_route for r in batch} == {"scan"}
        assert_oracle_parity(divergence, points, queries, batch)
        # every tied query went through topk; at B=64 the rest did not
        assert len(calls) >= (n_queries + 1) // 2
        if n_queries > 1:
            assert len(calls) < n_queries

    def test_noise_floor_failure_falls_back(self, monkeypatch):
        """Clusters at +-1e5: the expansion's noise floor is of the order
        of the gaps between neighbours, so some queries whose first
        buffer fits exactly still fail the noise-floor check.  Those,
        like the queries whose boundary ties overflow, must go through
        ``topk``; the others take the shared pass."""
        rng = np.random.default_rng(4)
        near = rng.normal(1e5, 1e-2, size=(40, DIM))
        far = rng.normal(-1e5, 1e-2, size=(40, DIM))
        points = np.concatenate([near, far])
        queries = np.vstack([near[:8], far[:8]]) + 3e-3
        index = build_index(
            SquaredEuclidean(), points, n_partitions=2, plan_route="scan"
        )
        seen = []

        class ScoreProbe(PipelineStage):
            name = "score_probe"

            def run(self, ctx: QueryBatchContext) -> None:
                seen.append(ctx.scores)

        stages = default_stages(index)
        index.pipeline = SearchPipeline(
            index, stages[:3] + [ScoreProbe(index)] + stages[3:]
        )
        calls = self._count_topk(monkeypatch, index)
        batch = index.search_batch(queries, 3)
        assert_oracle_parity(SquaredEuclidean(), points, queries, batch, k=3)
        (scores,) = seen
        buffer = 19  # max(2k, k + 16) at k = 3
        kth = np.partition(scores, buffer - 1, axis=1)[:, buffer - 1]
        overflow = np.count_nonzero(scores <= kth[:, None], axis=1) > buffer
        assert len(calls) > int(overflow.sum())  # some failed the noise floor
        assert len(calls) < len(queries)  # and some took the shared pass

    @pytest.mark.parametrize("name,divergence", all_decomposable_divergences(DIM))
    def test_shared_pass_equals_per_query_topk(self, name, divergence, monkeypatch):
        """Forcing every query through ``topk`` (by failing the shared
        pass's eligibility) changes no bit of any result."""
        points = points_for(divergence, N_POINTS, DIM, seed=5)
        queries = points_for(divergence, 64, DIM, seed=6)
        index = build_index(
            divergence, points, page_size_bytes=PAGE_BYTES, plan_route="scan"
        )
        shared = index.search_batch(queries, K)
        rerank = index.pipeline.stage("rerank")
        monkeypatch.setattr(rerank, "_topk_shared", lambda ctx: {})
        calls = self._count_topk(monkeypatch, index)
        looped = index.search_batch(queries, K)
        assert len(calls) == 64
        for a, b in zip(shared, looped):
            np.testing.assert_array_equal(a.ids, b.ids)
            np.testing.assert_array_equal(a.divergences, b.divergences)


class TestChooseKernelEdges:
    """Satellite: the adaptive dispatcher's degenerate and boundary cases."""

    def _stage(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = build_index(divergence, points, **kwargs)
        return index, index.pipeline.stage("refine")

    def test_empty_candidate_lists_have_zero_density(self):
        # all-empty candidate lists: total_pairs == 0, density 0 is
        # strictly below any positive threshold -> sparse (which then
        # scores zero pairs)
        _, stage = self._stage()
        empty = [np.empty(0, dtype=int) for _ in range(3)]
        assert stage.choose_kernel(empty, 100, 3) == "sparse"

    def test_zero_union_or_zero_queries_is_dense(self):
        # density is undefined at union 0 / B 0; the dispatcher answers
        # "dense" and the stage scores nothing either way
        _, stage = self._stage()
        assert stage.choose_kernel([], 0, 0) == "dense"
        assert stage.choose_kernel([], 100, 0) == "dense"
        assert stage.choose_kernel([np.arange(3)], 0, 1) == "dense"

    def test_density_exactly_at_threshold_is_dense(self):
        # the comparison is strict: density == threshold keeps dense
        index, stage = self._stage()
        candidates = [np.arange(25), np.arange(25)]  # 50 / (100 * 2) = 0.25
        index.config.sparse_density_threshold = 0.25
        assert stage.choose_kernel(candidates, 100, 2) == "dense"
        index.config.sparse_density_threshold = 0.2500001
        assert stage.choose_kernel(candidates, 100, 2) == "sparse"

    def test_forced_kernels_ignore_degenerate_batches(self):
        index, stage = self._stage(refine_kernel="sparse")
        assert stage.choose_kernel([], 0, 0) == "sparse"
        assert stage.choose_kernel([np.empty(0, dtype=int)], 0, 1) == "sparse"
        index.config.refine_kernel = "dense"
        assert stage.choose_kernel([np.empty(0, dtype=int)], 0, 1) == "dense"


class TestStageMechanics:
    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    def test_batch_stats_record_stage_seconds(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        stats = index.search_batch(queries, K).stats
        assert tuple(stats.stage_seconds) == STAGE_NAMES  # insertion order
        assert all(seconds >= 0.0 for seconds in stats.stage_seconds.values())
        # the stages are timed inside the driver's elapsed window
        assert sum(stats.stage_seconds.values()) <= stats.cpu_seconds + 0.05

    def test_single_search_records_stage_seconds(self):
        index, _ = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        stats = index.search(query, K).stats
        assert tuple(stats.stage_seconds) == STAGE_NAMES

    def test_stage_lookup(self):
        index, _ = self._index()
        assert index.pipeline.stage("plan").name == "plan"
        with pytest.raises(KeyError, match="no stage"):
            index.pipeline.stage("shuffle")

    def test_refine_prefetched_matches_looped_reference(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        rng = np.random.default_rng(3)
        candidates = [
            np.unique(rng.integers(0, N_POINTS, size=rng.integers(K, 60)))
            for _ in range(N_QUERIES)
        ]
        index.datastore.charge_pages_for(candidates)
        staged = index.pipeline.refine_prefetched(candidates, queries, K).refined
        looped = index._refine_batch_looped(candidates, queries, K)
        for (a_ids, a_divs), (b_ids, b_divs) in zip(staged, looped):
            np.testing.assert_array_equal(a_ids, b_ids)
            np.testing.assert_array_equal(a_divs, b_divs)

    def test_custom_stage_splices_into_pipeline(self):
        # the stage list is open: appending an observer stage must not
        # disturb results, and the driver must run (and time) it
        index, points = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]
        before = index.search(query, K)

        class ProbeStage(PipelineStage):
            name = "probe"

            def run(self, ctx: QueryBatchContext) -> None:
                ctx.probe_refined = len(ctx.refined)

        index.pipeline = SearchPipeline(
            index, default_stages(index) + [ProbeStage(index)]
        )
        after = index.search(query, K)
        np.testing.assert_array_equal(before.ids, after.ids)
        np.testing.assert_array_equal(before.divergences, after.divergences)
        assert "probe" in after.stats.stage_seconds


class TestCrossBatchPoolReuse:
    """Satellite: the buffer pool measures reuse across batches."""

    def _index(self, pool):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        config = BrePartitionConfig(
            n_partitions=3, seed=0, page_size_bytes=PAGE_BYTES
        )
        return BrePartitionIndex(divergence, config, buffer_pool=pool).build(points)

    def test_second_batch_reuses_first_batch_pages(self):
        pool = BufferPool(capacity_pages=10_000)
        index = self._index(pool)
        queries = points_for(SquaredEuclidean(), N_QUERIES, DIM, seed=2)
        first = index.search_batch(queries, K).stats
        second = index.search_batch(queries, K).stats
        # a cold pool has nothing from earlier batches to hand back
        assert first.cross_batch_hits == 0
        # identical queries: the whole coalesced working set is served
        # from pages the first batch inserted
        assert second.cross_batch_hits == second.pages_coalesced > 0
        assert second.pages_read == 0
        assert pool.cross_batch_hits == second.cross_batch_hits

    def test_disjoint_working_sets_count_no_cross_reuse(self):
        rng = np.random.default_rng(5)
        points = rng.normal(size=(40, 6))
        pool = BufferPool(capacity_pages=10_000)
        store = DataStore(points, page_size_bytes=4 * 6 * 8, buffer_pool=pool)
        pool.begin_batch()
        store.charge_pages_for([np.arange(0, 8)])
        pool.begin_batch()
        store.charge_pages_for([np.arange(20, 28)])  # page-disjoint batch
        assert pool.cross_batch_hits == 0
        pool.begin_batch()
        store.charge_pages_for([np.arange(0, 8)])  # revisits batch 1's pages
        assert pool.cross_batch_hits == store.count_pages_of(np.arange(0, 8))

    def test_no_pool_reports_none(self):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index = build_index(divergence, points)
        queries = points_for(divergence, N_QUERIES, DIM, seed=2)
        assert index.search_batch(queries, K).stats.cross_batch_hits is None

    def test_pool_epoch_separates_intra_from_cross(self):
        pool = BufferPool(capacity_pages=16)
        pool.begin_batch()
        assert pool.access(1, 7) is False  # miss inserts
        assert pool.access(1, 7) is True  # intra-batch re-hit
        assert pool.cross_batch_hits == 0
        pool.begin_batch()
        assert pool.access(1, 7) is True  # cross-batch reuse
        assert pool.cross_batch_hits == 1
        pool.clear()
        assert pool.cross_batch_hits == 0


class TestMicroBatcher:
    """Satellite: async serving parity under concurrent clients."""

    def _index(self, divergence=None, points=None, **kwargs):
        divergence = divergence if divergence is not None else SquaredEuclidean()
        if points is None:
            points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    def test_32_concurrent_clients_bitwise_identical_to_search(self):
        index, _ = self._index(n_shards=4, page_size_bytes=PAGE_BYTES)
        index.config.shard_workers = 4
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=50.0
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        for expected, served in zip(reference, results):
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)
        assert stats.n_requests == 32
        assert sum(stats.batch_sizes) == 32
        assert max(stats.batch_sizes) <= 8
        assert stats.mean_batch_size > 1.0

    def test_deadline_flushes_partial_batch(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 3, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=100, max_wait_ms=1.0
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert stats.n_batches == 1
        assert list(stats.batch_sizes) == [3]
        for query, served in zip(queries, results):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_per_request_mode_dispatches_singleton_batches(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 6, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, config=MicroBatchConfig(max_batch_size=1, max_wait_ms=0.0)
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                ), batcher.stats

        _, stats = asyncio.run(serve())
        assert stats.n_batches == 6
        assert list(stats.batch_sizes) == [1] * 6

    def test_bad_query_fails_alone_not_its_batch(self):
        divergence = ItakuraSaito()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        index, _ = self._index(divergence=divergence, points=points)
        good = points_for(divergence, 4, DIM, seed=2)
        bad = good[0].copy()
        bad[0] = -1.0  # outside the Itakura-Saito domain

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=5.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(bad),
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-1], DomainError)
        for query, served in zip(good, results[:-1]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_wrong_shape_query_fails_alone_not_its_batch(self):
        # shape mismatches must be rejected eagerly: once batched, a
        # misshapen query would make np.stack fail the whole dispatch
        index, _ = self._index()
        good = points_for(SquaredEuclidean(), 4, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=5.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(good[0][: DIM - 2]),
                    batcher.search(good[:2]),  # 2-D input
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-2], InvalidParameterError)
        assert isinstance(results[-1], InvalidParameterError)
        for query, served in zip(good, results[:-2]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_closed_batcher_rejects_requests(self):
        index, _ = self._index()
        query = points_for(SquaredEuclidean(), 1, DIM, seed=2)[0]

        async def serve():
            batcher = MicroBatcher(index, K)
            await batcher.close()
            with pytest.raises(InvalidParameterError, match="closed"):
                await batcher.search(query)

        asyncio.run(serve())

    def test_config_validation(self):
        index, _ = self._index()
        with pytest.raises(InvalidParameterError, match="max_batch_size"):
            MicroBatchConfig(max_batch_size=0)
        with pytest.raises(InvalidParameterError, match="max_wait_ms"):
            MicroBatchConfig(max_wait_ms=-1.0)
        with pytest.raises(InvalidParameterError, match="k must be"):
            MicroBatcher(index, 0)

    def test_serving_accounting_flows_through(self):
        # the engine-side BatchQueryStats ride along per dispatched batch
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 8, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index, K, max_batch_size=8, max_wait_ms=50.0
            ) as batcher:
                await asyncio.gather(*(batcher.search(query) for query in queries))
                return batcher.stats

        stats = asyncio.run(serve())
        assert len(stats.batch_stats) == stats.n_batches
        engine = stats.batch_stats[0]
        assert engine.n_queries == stats.batch_sizes[0]
        assert tuple(engine.stage_seconds) == STAGE_NAMES


class _HeadlessIndex:
    """An index proxy exposing only ``search_batch`` + ``divergence``.

    Models a serving target with no declared dimensionality (the
    MicroBatcher's ``_dimensionality`` probes find nothing), so batch
    shape consistency must come from the first pending request.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.divergence = inner.divergence

    def search_batch(self, queries, k):
        return self._inner.search_batch(queries, k)


class _SlowIndex(_HeadlessIndex):
    """Delays each batch on the worker thread (cancellation windows)."""

    def __init__(self, inner, delay_seconds: float) -> None:
        super().__init__(inner)
        self.delay_seconds = delay_seconds

    def search_batch(self, queries, k):
        time.sleep(self.delay_seconds)
        return self._inner.search_batch(queries, k)


class TestConcurrentServing:
    """ISSUE 5: overlapped in-flight batches, backpressure, accounting."""

    def _index(self, **kwargs):
        divergence = SquaredEuclidean()
        points = points_for(divergence, N_POINTS, DIM, seed=1)
        return build_index(divergence, points, **kwargs), points

    @pytest.mark.parametrize("workers", (1, 4))
    def test_parity_matrix_vs_direct_search(self, workers):
        # acceptance: with max_concurrent_batches in {1, 4}, every served
        # response is bitwise identical to direct search -- under the
        # sharded fan-out, so shard-tracker mirroring is also exercised
        # by overlapping batch scopes
        index, _ = self._index(n_shards=4, page_size_bytes=PAGE_BYTES)
        index.config.shard_workers = 2
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=50.0,
                max_concurrent_batches=workers,
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        for expected, served in zip(reference, results):
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)
        assert stats.n_requests == 32
        assert stats.n_batches == 4
        assert stats.n_cancelled == stats.n_failed == stats.n_rejected == 0
        assert stats.mean_batch_size == 8.0

    def test_per_batch_pages_read_matches_serialized_run(self):
        # acceptance: per-batch pages_read under 4 overlapped batches is
        # exactly what a serialized run of the same batches charges --
        # the scoped-dedup guarantee the tentpole exists for
        index, _ = self._index(page_size_bytes=PAGE_BYTES)
        queries = points_for(SquaredEuclidean(), 32, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=8,
                max_wait_ms=200.0,
                max_concurrent_batches=4,
            ) as batcher:
                await asyncio.gather(*(batcher.search(query) for query in queries))
                return batcher.stats

        stats = asyncio.run(serve())
        # submission order fills batches in 8-request chunks; completion
        # (hence batch_stats) order is scheduler-dependent, so compare
        # the per-batch page bills as multisets
        concurrent_pages = sorted(s.pages_read for s in stats.batch_stats)
        serialized_pages = sorted(
            index.search_batch(queries[lo : lo + 8], K).stats.pages_read
            for lo in range(0, 32, 8)
        )
        assert concurrent_pages == serialized_pages
        assert stats.total_pages_read == sum(serialized_pages)

    def test_mixed_dimension_request_fails_alone_without_index_dim(self):
        # satellite: with no index-declared dimensionality, the first
        # pending request defines the batch's dimension and a mismatched
        # query is rejected eagerly instead of poisoning the whole batch
        index, _ = self._index()
        headless = _HeadlessIndex(index)
        good = points_for(SquaredEuclidean(), 4, DIM, seed=2)
        short = good[0][: DIM - 3]

        async def serve():
            async with MicroBatcher(
                headless, K, max_batch_size=8, max_wait_ms=20.0
            ) as batcher:
                return await asyncio.gather(
                    *(batcher.search(query) for query in good),
                    batcher.search(short),
                    return_exceptions=True,
                )

        results = asyncio.run(serve())
        assert isinstance(results[-1], InvalidParameterError)
        for query, served in zip(good, results[:-1]):
            expected = index.search(query, K)
            np.testing.assert_array_equal(expected.ids, served.ids)
            np.testing.assert_array_equal(expected.divergences, served.divergences)

    def test_cancelled_client_still_counts_as_dispatched(self):
        # satellite: n_requests counts dispatched requests, cancelled
        # clients land in n_cancelled, and mean_batch_size keeps
        # agreeing with the dispatched batch_sizes history
        index, _ = self._index()
        slow = _SlowIndex(index, delay_seconds=0.2)
        queries = points_for(SquaredEuclidean(), 4, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                slow, K, max_batch_size=4, max_wait_ms=5.0
            ) as batcher:
                tasks = [
                    asyncio.ensure_future(batcher.search(query))
                    for query in queries
                ]
                # let all four requests enqueue; the 4th triggers the
                # size-based flush, dispatching the batch to the worker
                await asyncio.sleep(0.05)
                assert batcher.stats.n_batches == 1
                tasks[1].cancel()
                results = await asyncio.gather(*tasks, return_exceptions=True)
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert isinstance(results[1], asyncio.CancelledError)
        assert stats.n_requests == 4
        assert stats.n_cancelled == 1
        assert stats.n_failed == 0
        assert stats.mean_batch_size == 4.0
        assert list(stats.batch_sizes) == [4]
        for slot in (0, 2, 3):
            expected = index.search(queries[slot], K)
            np.testing.assert_array_equal(expected.ids, results[slot].ids)

    def test_queue_depth_reject_sheds_overload(self):
        # a 10-request burst against depth 3 with the batch cap above it
        # (the queue cannot drain mid-burst): 3 admitted, 7 shed
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 10, DIM, seed=2)

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=64,
                max_wait_ms=5.0,
                max_queue_depth=3,
                overflow="reject",
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries),
                    return_exceptions=True,
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        shed = [r for r in results if isinstance(r, ServerOverloadedError)]
        assert len(shed) == 7
        assert stats.n_rejected == 7
        assert stats.n_requests == 3  # only admitted requests dispatched
        for slot in range(3):
            expected = index.search(queries[slot], K)
            np.testing.assert_array_equal(expected.ids, results[slot].ids)

    def test_queue_depth_wait_backpressures_and_serves_all(self):
        index, _ = self._index()
        queries = points_for(SquaredEuclidean(), 10, DIM, seed=2)
        reference = [index.search(query, K) for query in queries]

        async def serve():
            async with MicroBatcher(
                index,
                K,
                max_batch_size=64,
                max_wait_ms=2.0,
                max_queue_depth=3,
                overflow="wait",
            ) as batcher:
                results = await asyncio.gather(
                    *(batcher.search(query) for query in queries)
                )
            return results, batcher.stats

        results, stats = asyncio.run(serve())
        assert stats.n_rejected == 0
        assert stats.n_requests == 10
        assert stats.n_batches >= 3  # depth 3 forces several waves
        for expected, served in zip(reference, results):
            np.testing.assert_array_equal(expected.ids, served.ids)

    def test_concurrency_config_validation(self):
        index, _ = self._index()
        with pytest.raises(InvalidParameterError, match="max_concurrent_batches"):
            MicroBatchConfig(max_concurrent_batches=0)
        with pytest.raises(InvalidParameterError, match="max_queue_depth"):
            MicroBatchConfig(max_queue_depth=0)
        with pytest.raises(InvalidParameterError, match="overflow"):
            MicroBatchConfig(overflow="drop")
        with pytest.raises(InvalidParameterError, match="overflow"):
            MicroBatcher(index, K, overflow="spill")
