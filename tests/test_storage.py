"""Tests for the simulated disk substrate."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.exceptions import InvalidParameterError, StorageError
from repro.storage import (
    BufferPool,
    DataStore,
    DiskAccessTracker,
    IOCostModel,
)


class TestDiskAccessTracker:
    def test_dedupe_within_query(self):
        tracker = DiskAccessTracker()
        with tracker.scope() as scope:
            assert tracker.read_page(1, 0, scope=scope)
            assert not tracker.read_page(1, 0, scope=scope)  # same page, free
            assert tracker.read_page(1, 1, scope=scope)
            assert tracker.read_page(2, 0, scope=scope)  # other file, charged
        assert scope.snapshot().pages_read == 3
        assert tracker.total_pages_read == 3

    def test_no_dedupe_outside_query(self):
        tracker = DiskAccessTracker()
        tracker.read_page(1, 0)
        tracker.read_page(1, 0)
        assert tracker.total_pages_read == 2

    def test_query_counters_reset_between_queries(self):
        tracker = DiskAccessTracker()
        with tracker.scope() as first:
            tracker.read_page(1, 0, scope=first)
        with tracker.scope() as second:
            tracker.read_page(1, 0, scope=second)
        assert first.snapshot().pages_read == 1
        assert second.snapshot().pages_read == 1
        assert tracker.queries == 2
        assert tracker.mean_pages_per_query == 1.0

    def test_read_pages_bulk(self):
        tracker = DiskAccessTracker()
        with tracker.scope() as scope:
            charged = tracker.read_pages(1, [0, 1, 1, 2], scope=scope)
        assert charged == 3

    def test_write_counting(self):
        tracker = DiskAccessTracker()
        tracker.write_page(1, 0)
        assert tracker.total_pages_written == 1

    def test_reset(self):
        tracker = DiskAccessTracker()
        tracker.read_page(1, 0)
        tracker.reset()
        assert tracker.total_pages_read == 0
        assert tracker.queries == 0

    def test_mean_before_any_query(self):
        assert DiskAccessTracker().mean_pages_per_query == 0.0


class TestQueryScope:
    """ISSUE 5 tentpole: explicit scopes replace tracker-global state."""

    def test_interleaved_scopes_dedupe_independently(self):
        tracker = DiskAccessTracker()
        a = tracker.scope()
        b = tracker.scope()
        assert tracker.read_page(1, 0, scope=a)
        assert tracker.read_page(1, 0, scope=b)  # b's first touch: charged
        assert not tracker.read_page(1, 0, scope=a)  # a re-touch: free
        assert tracker.read_page(1, 1, scope=b)
        assert tracker.finish_scope(a).pages_read == 1
        assert tracker.finish_scope(b).pages_read == 2
        assert tracker.total_pages_read == 3
        assert tracker.queries == 2

    def test_finish_counts_one_query_idempotently(self):
        tracker = DiskAccessTracker()
        scope = tracker.scope()
        tracker.read_page(1, 0, scope=scope)
        first = scope.finish()
        second = scope.finish()
        assert first == second
        assert tracker.queries == 1

    def test_scope_as_context_manager(self):
        tracker = DiskAccessTracker()
        with tracker.scope() as scope:
            tracker.read_page(1, 0, scope=scope)
            tracker.write_page(1, 0, scope=scope)
        assert tracker.queries == 1
        assert scope.snapshot().pages_written == 1

    def test_concurrent_scopes_stay_exact(self):
        # 8 threads, each its own scope over the same 50 pages: per-scope
        # reads never leak across scopes and the lifetime total is exact
        tracker = DiskAccessTracker()

        def worker(fileno: int) -> int:
            scope = tracker.scope()
            for i in range(200):
                tracker.read_page(fileno, i % 50, scope=scope)
            return tracker.finish_scope(scope).pages_read

        with ThreadPoolExecutor(max_workers=8) as pool:
            reads = list(pool.map(worker, range(8)))
        assert reads == [50] * 8
        assert tracker.total_pages_read == 8 * 50
        assert tracker.queries == 8

    def test_reset_zeroes_under_the_existing_lock(self):
        tracker = DiskAccessTracker()
        lock = tracker._lock
        tracker.read_page(1, 0)
        tracker.write_page(1, 0)
        tracker.reset()
        # the satellite fix: reset must never swap the lock out from
        # under concurrent shard workers mid-charge
        assert tracker._lock is lock
        assert tracker.total_pages_read == 0
        assert tracker.total_pages_written == 0
        assert tracker.queries == 0

    def test_concurrent_reset_stress(self):
        # chargers on several threads race a resetting thread: no
        # exceptions, and a final quiescent reset leaves exact zeros
        tracker = DiskAccessTracker()
        stop = threading.Event()
        errors: list[Exception] = []

        def charge(fileno: int) -> None:
            try:
                page = 0
                while not stop.is_set():
                    tracker.read_page(fileno, page % 17)
                    tracker.write_page(fileno, page % 17)
                    page += 1
            except Exception as error:  # pragma: no cover - the failure path
                errors.append(error)

        threads = [
            threading.Thread(target=charge, args=(fileno,)) for fileno in range(4)
        ]
        for thread in threads:
            thread.start()
        for _ in range(300):
            tracker.reset()
        stop.set()
        for thread in threads:
            thread.join()
        assert errors == []
        tracker.reset()
        assert tracker.total_pages_read == 0
        assert tracker.total_pages_written == 0

    def test_pool_counts_cross_batch_hits_onto_the_scope(self):
        pool = BufferPool(capacity_pages=16)
        tracker = DiskAccessTracker()
        first = tracker.scope()
        first.pool_epoch = pool.begin_batch()
        assert pool.access(1, 7, scope=first) is False  # miss inserts
        assert pool.access(1, 7, scope=first) is True  # intra-scope re-hit
        assert first.cross_batch_hits == 0
        second = tracker.scope()
        second.pool_epoch = pool.begin_batch()
        assert pool.access(1, 7, scope=second) is True
        assert second.cross_batch_hits == 1
        assert first.cross_batch_hits == 0
        assert pool.cross_batch_hits == 1


class TestBufferPool:
    def test_hits_and_misses(self):
        pool = BufferPool(capacity_pages=2)
        assert not pool.access(1, 0)  # miss
        assert pool.access(1, 0)  # hit
        assert not pool.access(1, 1)
        assert not pool.access(1, 2)  # evicts page 0 (LRU)
        assert not pool.access(1, 0)  # miss again
        assert pool.hit_rate == pytest.approx(1 / 5)

    def test_lru_order_updated_on_hit(self):
        pool = BufferPool(capacity_pages=2)
        pool.access(1, 0)
        pool.access(1, 1)
        pool.access(1, 0)  # refresh 0
        pool.access(1, 2)  # should evict 1, not 0
        assert pool.access(1, 0)
        assert not pool.access(1, 1)

    def test_invalid_capacity(self):
        with pytest.raises(InvalidParameterError):
            BufferPool(0)

    def test_clear(self):
        pool = BufferPool(4)
        pool.access(1, 0)
        pool.clear()
        assert pool.hits == 0 and pool.misses == 0
        assert not pool.access(1, 0)


class TestDataStore:
    def _points(self, n=40, d=8, seed=0):
        return np.random.default_rng(seed).normal(size=(n, d))

    def test_fetch_roundtrip_identity_layout(self):
        points = self._points()
        store = DataStore(points, page_size_bytes=256)
        got = store.fetch([3, 7, 1])
        np.testing.assert_array_equal(got, points[[3, 7, 1]])

    def test_fetch_roundtrip_permuted_layout(self):
        points = self._points()
        order = np.random.default_rng(1).permutation(40)
        store = DataStore(points, layout_order=order, page_size_bytes=256)
        got = store.fetch(np.arange(40))
        np.testing.assert_array_equal(got, points)

    def test_page_geometry(self):
        points = self._points(n=40, d=8)
        store = DataStore(points, page_size_bytes=256)  # 4 points per page
        assert store.points_per_page == 4
        assert store.n_pages == 10

    def test_page_too_small_rejected(self):
        with pytest.raises(InvalidParameterError):
            DataStore(self._points(d=8), page_size_bytes=32)

    def test_bad_layout_rejected(self):
        with pytest.raises(InvalidParameterError):
            DataStore(self._points(), layout_order=np.zeros(40, dtype=int))

    def test_fetch_charges_distinct_pages(self):
        tracker = DiskAccessTracker()
        points = self._points()
        store = DataStore(points, page_size_bytes=256, tracker=tracker)
        with tracker.scope() as scope:
            store.fetch([0, 1, 2, 3], scope=scope)  # all on page 0
        assert scope.snapshot().pages_read == 1

    def test_layout_groups_pages(self):
        """Points adjacent in layout order share pages."""
        tracker = DiskAccessTracker()
        points = self._points()
        order = np.arange(40)[::-1]
        store = DataStore(points, layout_order=order, page_size_bytes=256, tracker=tracker)
        # ids 39, 38, 37, 36 are physically first -> one page.
        with tracker.scope() as scope:
            store.fetch([39, 38, 37, 36], scope=scope)
        assert scope.snapshot().pages_read == 1

    def test_scan_charges_all_pages_and_returns_logical_order(self):
        tracker = DiskAccessTracker()
        points = self._points()
        order = np.random.default_rng(2).permutation(40)
        store = DataStore(points, layout_order=order, page_size_bytes=256, tracker=tracker)
        with tracker.scope() as scope:
            got = store.scan(scope=scope)
        assert scope.snapshot().pages_read == store.n_pages
        np.testing.assert_array_equal(got, points)

    def test_peek_charges_nothing(self):
        tracker = DiskAccessTracker()
        store = DataStore(self._points(), page_size_bytes=256, tracker=tracker)
        store.peek([0, 5, 10])
        assert tracker.total_pages_read == 0

    def test_address_lookup(self):
        store = DataStore(self._points(), page_size_bytes=256)
        addr = store.address(5)
        assert addr.page == 1 and addr.slot == 1
        with pytest.raises(StorageError):
            store.address(1000)

    def test_pages_of_empty(self):
        store = DataStore(self._points(), page_size_bytes=256)
        assert store.pages_of([]).size == 0

    def test_buffer_pool_absorbs_repeats(self):
        tracker = DiskAccessTracker()
        pool = BufferPool(capacity_pages=100)
        store = DataStore(
            self._points(), page_size_bytes=256, tracker=tracker, buffer_pool=pool
        )
        store.fetch([0])
        store.fetch([1])  # same page, pool hit -> not charged
        assert tracker.total_pages_read == 1
        assert pool.hits == 1

    def test_distinct_filenos(self):
        a = DataStore(self._points(seed=1), page_size_bytes=256)
        b = DataStore(self._points(seed=2), page_size_bytes=256)
        assert a.fileno != b.fileno


class TestIOCostModel:
    def test_seconds_scale_with_pages(self):
        model = IOCostModel(iops=1000.0)
        assert model.seconds_for(500) == pytest.approx(0.5)

    def test_zero_pages(self):
        assert IOCostModel().seconds_for(0) == 0.0


class TestBufferPoolConcurrency:
    def test_clear_is_safe_under_concurrent_access(self):
        """clear() must hold the pool lock: racing it against access()
        used to let a concurrent insert survive the wipe mid-iteration
        or corrupt the LRU ordering."""
        pool = BufferPool(capacity_pages=8)
        errors: list[BaseException] = []
        stop = threading.Event()

        def hammer(seed: int) -> None:
            rng = np.random.default_rng(seed)
            try:
                while not stop.is_set():
                    pool.access(1, int(rng.integers(32)))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(s,)) for s in range(4)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(200):
                pool.clear()
                with pool._lock:
                    assert len(pool._lru) <= pool.capacity_pages
        finally:
            stop.set()
            for thread in threads:
                thread.join()
        assert not errors, errors
