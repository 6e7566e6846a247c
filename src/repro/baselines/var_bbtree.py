"""The "Var" baseline: distribution-driven approximate BB-tree search.

Coviello et al. (ICML 2013) speed up BB-tree kNN by *variationally*
estimating, from the data's distribution, how likely the unexplored part
of the tree is to improve the current result, and stopping backtracking
once that likelihood is small.  Their code is not public; this module
reimplements the idea faithfully in spirit:

* search proceeds best-first exactly like the exact algorithm;
* for the most promising frontier node we estimate the probability that
  one of its points beats the current k-th distance, modelling member
  divergences as a Gaussian centred at the node-center divergence with a
  spread proportional to the node radius;
* exploration stops when the expected number of improving points in the
  best frontier node drops below ``1 - target_probability``.

Higher ``target_probability`` explores more leaves (more I/O, better
overall ratio), matching the knob the paper's Fig. 15 sweeps.
"""

from __future__ import annotations

import heapq
import itertools
import math
import time

import numpy as np

from ..bbtree.tree import BBTree
from ..core.results import QueryStats, SearchResult
from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError, NotFittedError
from ..storage.datastore import DataStore
from ..storage.io_stats import DiskAccessTracker

__all__ = ["VarBBTreeIndex"]

_counter = itertools.count()


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


class VarBBTreeIndex:
    """Approximate kNN on a disk-resident BB-tree with early termination."""

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        target_probability: float = 0.9,
        leaf_capacity: int | None = None,
        page_size_bytes: int = 65536,
        tracker: DiskAccessTracker | None = None,
        seed: int | None = None,
    ) -> None:
        if not 0.0 < target_probability <= 1.0:
            raise InvalidParameterError("target_probability must be in (0, 1]")
        self.divergence = divergence
        self.target_probability = float(target_probability)
        self.leaf_capacity = leaf_capacity
        self.page_size_bytes = int(page_size_bytes)
        self.tracker = tracker if tracker is not None else DiskAccessTracker()
        self.rng = np.random.default_rng(seed)
        self.tree: BBTree | None = None
        self.datastore: DataStore | None = None
        self.construction_seconds: float = 0.0

    def build(self, points: np.ndarray) -> "VarBBTreeIndex":
        """Identical construction to the exact BBT baseline."""
        start = time.perf_counter()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.divergence.validate_domain(points, "dataset")
        d = points.shape[1]
        capacity = (
            self.leaf_capacity
            if self.leaf_capacity is not None
            else max(8, self.page_size_bytes // (8 * d))
        )
        self.tree = BBTree(
            self.divergence, leaf_capacity=capacity, rng=self.rng
        ).build(points)
        self.datastore = DataStore(
            points,
            layout_order=self.tree.leaf_order(),
            page_size_bytes=self.page_size_bytes,
            tracker=self.tracker,
        )
        self.construction_seconds = time.perf_counter() - start
        return self

    def _improvement_estimate(self, node, query: np.ndarray, kth: float) -> float:
        """Expected number of node members closer than ``kth``."""
        center_div = self.divergence.divergence(node.ball.center, query)
        spread = max(node.ball.radius * 0.5, 1e-12)
        prob = _normal_cdf((kth - center_div) / spread)
        size = (
            len(node.point_ids)
            if node.is_leaf
            else 2 * self.tree.leaf_capacity  # coarse subtree estimate
        )
        return prob * size

    def search(self, query: np.ndarray, k: int) -> SearchResult:
        """Approximate kNN with probability-targeted early stopping."""
        if self.tree is None or self.datastore is None:
            raise NotFittedError("VarBBTreeIndex.build() must be called first")
        query = np.asarray(query, dtype=float)
        n = self.datastore.n_points
        if not 1 <= k <= n:
            raise InvalidParameterError(f"k must be in [1, {n}], got {k}")

        start = time.perf_counter()
        with self.tracker.scope() as scope:
            tolerance = 1.0 - self.target_probability

            best: list[tuple[float, int]] = []  # max-heap of (-div, id)
            root = self.tree.root
            frontier = [(self.tree._lower_bound(root, query), next(_counter), root)]
            leaves_visited = 0
            points_evaluated = 0
            while frontier:
                lb, _, node = heapq.heappop(frontier)
                if len(best) == k:
                    kth = -best[0][0]
                    if lb >= kth:
                        break
                    # Variational early stop: even the most promising node is
                    # unlikely to improve the current result.
                    if self._improvement_estimate(node, query, kth) < tolerance:
                        break
                if node.is_leaf:
                    leaves_visited += 1
                    vectors = self.datastore.fetch(node.point_ids, scope=scope)
                    dists = self.divergence.batch_divergence(vectors, query)
                    points_evaluated += len(node.point_ids)
                    for dist, pid in zip(dists, node.point_ids):
                        entry = (-float(dist), int(pid))
                        if len(best) < k:
                            heapq.heappush(best, entry)
                        elif entry > best[0]:
                            heapq.heapreplace(best, entry)
                else:
                    for child in (node.left, node.right):
                        if child is None:
                            continue
                        child_lb = self.tree._lower_bound(child, query)
                        if len(best) < k or child_lb < -best[0][0]:
                            heapq.heappush(frontier, (child_lb, next(_counter), child))

            ordered = sorted(((-neg, pid) for neg, pid in best))
            elapsed = time.perf_counter() - start
            snapshot = scope.snapshot()
        stats = QueryStats(
            pages_read=snapshot.pages_read,
            cpu_seconds=elapsed,
            n_candidates=points_evaluated,
            leaves_visited=leaves_visited,
            points_evaluated=points_evaluated,
        )
        return SearchResult(
            ids=np.array([pid for _, pid in ordered], dtype=int),
            divergences=np.array([dist for dist, _ in ordered], dtype=float),
            stats=stats,
        )
