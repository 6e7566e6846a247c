"""Exact linear scan over the simulated disk (sanity baseline).

Reads every data page sequentially and evaluates the divergence for all
points -- the method every index must beat, and the oracle the test
suite compares everything against.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.results import BatchQueryStats, BatchSearchResult, QueryStats, SearchResult
from ..divergences.base import BregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..storage.datastore import DataStore
from ..storage.io_stats import DiskAccessTracker

__all__ = ["LinearScanIndex", "brute_force_knn"]


def brute_force_knn(
    divergence: BregmanDivergence, points: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """In-memory exact kNN: the ground-truth oracle used by tests/metrics."""
    dists = divergence.batch_divergence(points, query)
    order = np.argsort(dists, kind="stable")[:k]
    return order, dists[order]


class LinearScanIndex:
    """Disk-aware exact scan with the common ``build``/``search`` API."""

    def __init__(
        self,
        divergence: BregmanDivergence,
        page_size_bytes: int = 65536,
        tracker: DiskAccessTracker | None = None,
    ) -> None:
        self.divergence = divergence
        self.page_size_bytes = int(page_size_bytes)
        self.tracker = tracker if tracker is not None else DiskAccessTracker()
        self.datastore: DataStore | None = None
        self.construction_seconds: float = 0.0

    def build(self, points: np.ndarray) -> "LinearScanIndex":
        """Lay the dataset out on the simulated disk (natural order)."""
        start = time.perf_counter()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.divergence.validate_domain(points, "dataset")
        self.datastore = DataStore(
            points, page_size_bytes=self.page_size_bytes, tracker=self.tracker
        )
        self.construction_seconds = time.perf_counter() - start
        return self

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Scan every page and rank all points exactly."""
        if self.datastore is None:
            raise NotFittedError("LinearScanIndex.build() must be called first")
        query = np.asarray(query, dtype=float)
        n = self.datastore.n_points
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k must be in [1, {n}], got {k}")

        start = time.perf_counter()
        with self.tracker.scope() as scope:
            points = self.datastore.scan(scope=scope)
            ids, dists = brute_force_knn(self.divergence, points, query, k)
            elapsed = time.perf_counter() - start
            snapshot = scope.snapshot()
        stats = QueryStats(
            pages_read=snapshot.pages_read,
            cpu_seconds=elapsed,
            n_candidates=n,
            points_evaluated=n,
        )
        return SearchResult(ids=ids, divergences=dists, stats=stats)

    def search_batch(self, queries: np.ndarray, k: int) -> BatchSearchResult:
        """Batched scan: one sequential read serves every query.

        Returns exactly what per-query :meth:`search` would (same oracle),
        but the file is scanned -- and its pages charged -- once for the
        whole batch instead of once per query.
        """
        if self.datastore is None:
            raise NotFittedError("LinearScanIndex.build() must be called first")
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        n = self.datastore.n_points
        if queries.shape[1] != self.datastore.dimensionality:
            raise InvalidParameterError(
                f"queries must have shape (B, {self.datastore.dimensionality}), "
                f"got {queries.shape}"
            )
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k must be in [1, {n}], got {k}")

        start = time.perf_counter()
        with self.tracker.scope() as scope:
            points = self.datastore.scan(scope=scope)
            solo_pages = self.datastore.n_pages
            results = []
            for query in queries:
                ids, dists = brute_force_knn(self.divergence, points, query, k)
                stats = QueryStats(
                    pages_read=solo_pages,
                    n_candidates=n,
                    points_evaluated=n,
                )
                results.append(SearchResult(ids=ids, divergences=dists, stats=stats))
            elapsed = time.perf_counter() - start
            snapshot = scope.snapshot()
        n_queries = queries.shape[0]
        if n_queries:
            for result in results:
                result.stats.cpu_seconds = elapsed / n_queries
        batch_stats = BatchQueryStats(
            pages_read=snapshot.pages_read,
            pages_read_unshared=solo_pages * n_queries,
            pages_coalesced=solo_pages,
            cpu_seconds=elapsed,
            n_queries=n_queries,
            n_candidates=n * n_queries,
        )
        return BatchSearchResult(results=results, stats=batch_stats)
