"""Tests for the BrePartition index: exactness, stats, configuration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BrePartitionConfig,
    BrePartitionIndex,
    MahalanobisDivergence,
    SimplexKL,
    brute_force_knn,
)
from repro.core.transforms import (
    SubspaceTransforms,
    determine_search_bounds_batch,
)
from repro.divergences import ItakuraSaito, SquaredEuclidean
from repro.exceptions import (
    DomainError,
    InvalidParameterError,
    NotDecomposableError,
    NotFittedError,
)
from repro.partitioning import ContiguousPartitioner

from conftest import all_decomposable_divergences, points_for


class TestExactness:
    """Theorem 3: BrePartition returns the exact kNN, in every setting."""

    @pytest.mark.parametrize("name,div", all_decomposable_divergences(12))
    def test_exact_all_divergences(self, name, div):
        points = points_for(div, 200, 12, seed=41)
        queries = points_for(div, 4, 12, seed=42)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(n_partitions=3, seed=0, page_size_bytes=1024),
        ).build(points)
        for q in queries:
            result = index.search(q, k=8)
            true_ids, true_dists = brute_force_knn(div, points, q, 8)
            np.testing.assert_allclose(
                result.divergences, true_dists, rtol=1e-7, atol=1e-9
            )

    @pytest.mark.parametrize("m", [1, 2, 4, 8, 12])
    def test_exact_across_partition_counts(self, m):
        div = ItakuraSaito()
        points = points_for(div, 150, 12, seed=43)
        q = points_for(div, 1, 12, seed=44)[0]
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=m, seed=0, page_size_bytes=1024)
        ).build(points)
        result = index.search(q, k=5)
        _, true_dists = brute_force_knn(div, points, q, 5)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    @pytest.mark.parametrize("strategy", ["pccp", "contiguous"])
    def test_exact_across_strategies(self, strategy):
        div = SquaredEuclidean()
        points = points_for(div, 150, 10, seed=45)
        q = points_for(div, 1, 10, seed=46)[0]
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=4, strategy=strategy, seed=0, page_size_bytes=1024
            ),
        ).build(points)
        result = index.search(q, k=10)
        _, true_dists = brute_force_knn(div, points, q, 10)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    @pytest.mark.parametrize("k", [1, 2, 5, 20, 50])
    def test_exact_across_k(self, k):
        div = SquaredEuclidean()
        points = points_for(div, 120, 8, seed=47)
        q = points_for(div, 1, 8, seed=48)[0]
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        result = index.search(q, k=k)
        assert result.k == k
        _, true_dists = brute_force_knn(div, points, q, k)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    def test_exact_with_point_filter(self):
        div = ItakuraSaito()
        points = points_for(div, 150, 12, seed=49)
        q = points_for(div, 1, 12, seed=50)[0]
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=3, seed=0, page_size_bytes=1024, point_filter=True
            ),
        ).build(points)
        result = index.search(q, k=7)
        _, true_dists = brute_force_knn(div, points, q, 7)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)

    def test_query_equal_to_data_point(self):
        div = SquaredEuclidean()
        points = points_for(div, 80, 8, seed=51)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        result = index.search(points[13], k=1)
        assert result.ids[0] == 13
        assert result.divergences[0] == pytest.approx(0.0, abs=1e-10)

    def test_auto_partition_count_still_exact(self):
        div = SquaredEuclidean()
        points = points_for(div, 150, 16, seed=52)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(seed=0, page_size_bytes=1024, calibration_samples=10),
        ).build(points)
        assert 1 <= index.n_partitions <= 16
        assert index.cost_params is not None
        q = points_for(div, 1, 16, seed=53)[0]
        result = index.search(q, k=5)
        _, true_dists = brute_force_knn(div, points, q, 5)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-7)


class TestValidation:
    def test_rejects_non_decomposable(self):
        with pytest.raises(NotDecomposableError):
            BrePartitionIndex(SimplexKL())
        with pytest.raises(NotDecomposableError):
            BrePartitionIndex(MahalanobisDivergence(np.eye(4)))

    def test_rejects_out_of_domain_data(self):
        div = ItakuraSaito()
        with pytest.raises(DomainError):
            BrePartitionIndex(
                div, BrePartitionConfig(n_partitions=2, page_size_bytes=1024)
            ).build(np.array([[1.0, -1.0], [2.0, 3.0]]))

    def test_rejects_out_of_domain_query(self):
        div = ItakuraSaito()
        points = points_for(div, 50, 6, seed=54)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        with pytest.raises(DomainError):
            index.search(np.full(6, -1.0), k=3)

    def test_search_before_build(self):
        index = BrePartitionIndex(SquaredEuclidean())
        with pytest.raises(NotFittedError):
            index.search(np.zeros(4), 1)

    def test_invalid_k(self):
        div = SquaredEuclidean()
        points = points_for(div, 30, 6, seed=55)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        with pytest.raises(InvalidParameterError):
            index.search(np.zeros(6), 0)
        with pytest.raises(InvalidParameterError):
            index.search(np.zeros(6), 31)

    @pytest.mark.parametrize(
        "query, k, message",
        [
            (np.zeros(6), 2.5, r"k must be in \[1, 30\] and an integer, got 2\.5"),
            (np.zeros(6), True, r"and an integer, got True \(bool\)"),
            (np.zeros(6), np.float64(3.0), r"and an integer, got .*float64"),
            (np.zeros((2, 6)), 3, r"query must have shape \(6,\), got \(2, 6\)"),
            (np.zeros((1, 6)), 3, r"query must have shape \(6,\), got \(1, 6\)"),
            (np.zeros(5), 3, r"query must have shape \(6,\), got \(5,\)"),
            (np.float64(0.0), 3, r"query must have shape \(6,\), got \(\)"),
        ],
    )
    def test_search_rejects(self, query, k, message):
        div = SquaredEuclidean()
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points_for(div, 30, 6, seed=55))
        with pytest.raises(InvalidParameterError, match=message):
            index.search(query, k)

    def test_numpy_integer_k_accepted(self):
        div = SquaredEuclidean()
        points = points_for(div, 30, 6, seed=55)
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=2, seed=0, page_size_bytes=1024)
        ).build(points)
        assert index.search(points[0], np.int64(3)).k == 3
        assert index.search_batch(points[:2], np.int32(2)).results[1].k == 2

    def test_too_few_points(self):
        with pytest.raises(InvalidParameterError):
            BrePartitionIndex(
                SquaredEuclidean(), BrePartitionConfig(n_partitions=1)
            ).build(np.zeros((1, 4)))

    @pytest.mark.parametrize(
        "field, message",
        [
            ("simulated_io_iops", r"simulated_io_iops must not be NaN"),
            ("io_backoff_ms", r"io_backoff_ms must not be NaN"),
            ("io_backoff_cap_ms", r"io_backoff_cap_ms must not be NaN"),
            ("breaker_reset_s", r"breaker_reset_s must not be NaN"),
            ("hedge_after_ms", r"hedge_after_ms must not be NaN"),
            ("wal_group_commit_ms", r"wal_group_commit_ms must not be NaN"),
        ],
    )
    def test_config_rejects_nan(self, field, message):
        # NaN passes every `<= 0` / `< 0` range check, so each field
        # needs its own rejection (a NaN iops used to reach time.sleep)
        with pytest.raises(InvalidParameterError, match=message):
            BrePartitionConfig(**{field: float("nan")})

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(n_partitions=0)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(page_size_bytes=10)
        with pytest.raises(InvalidParameterError):
            BrePartitionConfig(strategy="nope").make_strategy(np.random.default_rng(0))


class TestStats:
    def _index(self, plan_route="forest"):
        # the walk statistics below exist only on the forest route; the
        # auto route scans this small set (see test_routed_stats)
        div = SquaredEuclidean()
        points = points_for(div, 120, 10, seed=56)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=4, seed=0, page_size_bytes=512, plan_route=plan_route
            ),
        ).build(points)
        return div, points, index

    def test_stats_populated(self):
        div, points, index = self._index()
        result = index.search(points[0], k=5)
        stats = result.stats
        assert stats.pages_read > 0
        assert stats.cpu_seconds > 0.0
        assert stats.n_candidates >= 5
        assert stats.search_bound > 0.0
        assert len(stats.per_subspace_candidates) == 4
        assert stats.leaves_visited > 0
        assert stats.plan_route == "forest"

    def test_routed_stats(self):
        div, points, index = self._index(plan_route="scan")
        index.delete(7)
        result = index.search(points[0], k=5)
        stats = result.stats
        assert stats.plan_route == "scan"
        assert stats.leaves_visited == 0
        assert stats.per_subspace_candidates == []
        assert stats.n_candidates == stats.points_evaluated == 119
        assert stats.pages_read == index.datastore.n_pages
        assert stats.search_bound > 0.0
        live = np.delete(np.arange(120), 7)
        oracle_ids, _ = brute_force_knn(div, points[live], points[0], 5)
        np.testing.assert_array_equal(result.ids, live[oracle_ids])

    def test_io_bounded_by_total_pages(self):
        div, points, index = self._index()
        result = index.search(points[0], k=5)
        assert result.stats.pages_read <= index.datastore.n_pages

    def test_construction_time_recorded(self):
        _, _, index = self._index()
        assert index.construction_seconds > 0.0

    def test_tracker_accumulates_across_queries(self):
        div, points, index = self._index()
        index.search(points[0], k=3)
        index.search(points[1], k=3)
        assert index.tracker.queries == 2
        assert index.tracker.total_pages_read > 0

    def test_results_sorted_ascending(self):
        div, points, index = self._index()
        result = index.search(points[0], k=10)
        assert np.all(np.diff(result.divergences) >= -1e-12)

    def test_result_iteration(self):
        div, points, index = self._index()
        result = index.search(points[0], k=3)
        pairs = list(result)
        assert len(pairs) == 3
        assert pairs[0][0] == result.ids[0]


class TestSearchContract:
    """``search(q)`` is ``search_batch(q[None])[0]`` with scope figures."""

    def test_equals_batch_row(self):
        div = ItakuraSaito()
        points = points_for(div, 150, 10, seed=61)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=3, seed=0, page_size_bytes=512, n_shards=3
            ),
        ).build(points)
        # a merged epoch with a live delta and a tombstone on top
        index.insert(points_for(div, 1, 10, seed=62)[0])
        index.merge(mode="extend")
        index.insert(points_for(div, 1, 10, seed=63)[0])
        index.delete(7)
        for query in points_for(div, 5, 10, seed=64):
            single = index.search(query, 4)
            row = index.search_batch(query[None, :], 4)[0]
            np.testing.assert_array_equal(single.ids, row.ids)
            np.testing.assert_array_equal(single.divergences, row.divergences)
            assert single.stats.pages_read == row.stats.pages_read
            assert single.stats.epoch == row.stats.epoch == 1
            assert set(single.stats.stage_seconds) == {
                "plan",
                "fetch",
                "refine",
                "rerank",
            }

    def test_partial_mode_raises_the_shard_error(self):
        from repro.exceptions import ShardUnavailableError
        from repro.storage import FaultInjector

        div = SquaredEuclidean()
        points = points_for(div, 64, 8, seed=31)
        index = BrePartitionIndex(
            div,
            BrePartitionConfig(
                n_partitions=2,
                seed=0,
                page_size_bytes=512,
                n_shards=4,
                shard_failure="partial",
            ),
        )
        injector = FaultInjector(seed=0)
        index.attach_fault_injector(injector)
        index.build(points)
        query = points_for(div, 1, 8, seed=32)[0]
        injector.set_plan(shard=1, broken=True)
        assert index.search_batch(query[None, :], 3).failures
        with pytest.raises(ShardUnavailableError):
            index.search(query, 3)


class TestAlgorithm4:
    def test_anchor_is_kth_smallest_total(self):
        div = SquaredEuclidean()
        points = points_for(div, 60, 8, seed=57)
        partitioning = ContiguousPartitioner().partition(points, 2)
        transforms = SubspaceTransforms(div, partitioning, points)
        q = points_for(div, 1, 8, seed=58)
        triples = transforms.query_triples_batch(q)
        ub = transforms.upper_bound_tensor(triples)
        totals = ub[0].sum(axis=1)
        for k in (1, 3, 10):
            sb = determine_search_bounds_batch(ub, k)
            assert sb.totals[0] == pytest.approx(np.sort(totals)[k - 1])
            np.testing.assert_allclose(sb.radii[0], ub[0, sb.anchor_ids[0]])

    def test_invalid_k_rejected(self):
        ub = np.ones((1, 5, 2))
        with pytest.raises(InvalidParameterError):
            determine_search_bounds_batch(ub, 0)
        with pytest.raises(InvalidParameterError):
            determine_search_bounds_batch(ub, 6)

    def test_ub_matrix_dominates_subspace_divergences(self):
        """Every entry of a query's (n, M) bound slice dominates the true
        per-subspace divergence -- the keystone of Theorem 3."""
        div = ItakuraSaito()
        points = points_for(div, 50, 9, seed=59)
        partitioning = ContiguousPartitioner().partition(points, 3)
        transforms = SubspaceTransforms(div, partitioning, points)
        q = points_for(div, 1, 9, seed=60)[0]
        ub = transforms.upper_bound_tensor(transforms.query_triples_batch(q[None]))[0]
        for i, dims in enumerate(partitioning.subspaces):
            sub_div = div.restrict(dims)
            true = sub_div.batch_divergence(points[:, dims], q[dims])
            assert np.all(ub[:, i] >= true - 1e-9)

    @pytest.mark.parametrize("name,div", all_decomposable_divergences(9))
    def test_lower_bound_tensor_is_below_subspace_divergences(self, name, div):
        """Theorem 1's other side (``beta_xy >= -sqrt(gamma * delta)``),
        which Plan's routing admits points with; asking for it leaves the
        upper bounds bitwise unchanged."""
        points = points_for(div, 50, 9, seed=59)
        partitioning = ContiguousPartitioner().partition(points, 3)
        transforms = SubspaceTransforms(div, partitioning, points)
        queries = points_for(div, 2, 9, seed=60)
        triples = transforms.query_triples_batch(queries)
        ub, lb = transforms.upper_bound_tensor(triples, with_lower=True)
        np.testing.assert_array_equal(ub, transforms.upper_bound_tensor(triples))
        for b, q in enumerate(queries):
            for i, dims in enumerate(partitioning.subspaces):
                true = div.restrict(dims).batch_divergence(points[:, dims], q[dims])
                assert np.all(lb[b, :, i] <= true + 1e-9 * (1.0 + np.abs(true)))
                assert np.all(lb[b, :, i] <= ub[b, :, i])


def test_exact_engine_imports_and_searches_without_scipy():
    """Only ABP's normal fit needs scipy; the exact engine, the package
    root and the invariant linter must import and run with it blocked.
    Nothing on that path loads ``multiprocessing`` either."""
    import os
    import subprocess
    import sys
    import textwrap

    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    code = textwrap.dedent(
        """
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        import repro
        import repro.analysis
        from repro import BrePartitionConfig, BrePartitionIndex, ItakuraSaito

        points = np.random.default_rng(0).uniform(0.5, 2.0, size=(300, 8))
        index = BrePartitionIndex(ItakuraSaito(), BrePartitionConfig(seed=0))
        index.build(points)
        batch = index.search_batch(points[:3], 4)
        assert [r.ids[0] for r in batch] == [0, 1, 2], batch.ids
        assert index.search(points[5], 4).ids[0] == 5
        assert "scipy.stats" not in sys.modules
        loaded = [m for m in sys.modules if m.split(".")[0] == "multiprocessing"]
        assert not loaded, loaded
        print("ok")
        """
    )
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"
