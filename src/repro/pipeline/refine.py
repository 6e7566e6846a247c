"""Refine stage: expansion-kernel scoring of every (candidate, query) pair.

Owns the adaptive dense/sparse/auto kernel dispatch, the
serial/process/auto *backend* dispatch, and the conditioner-wrapped
cross-divergence kernels.  The stage scores the union slab either
through the dense blocked kernel (full ``(union, B)`` matrix in
``refinement_block_size`` row blocks) or the sparse grouped kernel
(only real pairs, query-bucketed gathers).  Both produce
bitwise-identical scores -- dense columns are independent of batch
composition and blocking, sparse pair values equal the dense matrix
entries bit for bit -- so both the kernel and the backend choice are
purely performance decisions.

On the ``process`` backend the same kernels run in
:class:`~repro.exec.RefinementProcessPool` workers over shared-memory
slabs: the stage conditions the union vectors and queries once (the
conditioner is elementwise, so this is bitwise identical to per-block
conditioning) and the workers score disjoint row-blocks / pair-ranges
raw, folding the conditioner's output factor in exactly where the
serial path does.

A note on the dense kernel's dead cells: the dense path scores the full
``(union, B)`` matrix even though only ``total_pairs`` cells are real.
Gathering only per-query candidate rows instead cannot help -- the
union is by construction exactly the rows some query touches, and a
per-query gather of real pairs *is* the sparse grouped kernel, which
``auto`` already routes to below ``sparse_density_threshold``.
Measured at mid density (~0.5, ``BENCH_refinement.json``'s
``mid_density`` entry) the sparse kernel's gather traffic loses to
the dense kernel's sequential sweep, confirming the threshold; a
separate gather path would regress, so none exists.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["RefineStage", "build_pairs"]

#: sentinel for "use the index's live conditioner" (``None`` is a valid
#: explicit value meaning "no conditioning").
_UNSET = object()


def build_pairs(
    candidates: List[np.ndarray], row_of: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten candidate sets into (pair_rows, pair_queries, offsets).

    Pairs are query-major: query ``q``'s scores land in
    ``flat[offsets[q]:offsets[q + 1]]``, in candidate order.
    """
    sizes = np.array([ids.size for ids in candidates], dtype=int)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    if offsets[-1] == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int), offsets
    pair_rows = np.concatenate([row_of[ids] for ids in candidates])
    pair_queries = np.repeat(np.arange(len(candidates)), sizes)
    return pair_rows, pair_queries, offsets


class RefineStage(PipelineStage):
    name = "refine"

    def run(self, ctx: QueryBatchContext) -> None:
        # read the conditioner through the pinned snapshot so a merge
        # republishing the index mid-flight can't swap it under us
        snap = ctx.snapshot
        conditioner = (
            snap.refine_conditioner if snap is not None else _UNSET
        )
        n_queries = ctx.n_queries
        if ctx.union is None or ctx.union.size == 0 or n_queries == 0:
            ctx.refine_kernel = None
            return
        kernel = self.choose_kernel(ctx.candidates, ctx.union.size, n_queries)
        ctx.refine_kernel = kernel
        vectors, queries = ctx.vectors, ctx.queries
        if kernel == "sparse":
            pair_rows, pair_queries, offsets = build_pairs(ctx.candidates, ctx.row_of)
            backend, workers = self._backend_for(kernel, int(pair_rows.size), n_queries)
            ctx.refine_backend, ctx.refine_workers = backend, workers
            if backend == "process":
                flat = self._pool_score_sparse(
                    vectors, queries, pair_rows, pair_queries, offsets, conditioner
                )
            else:
                flat = self.score_sparse(
                    vectors, queries, pair_rows, pair_queries, conditioner=conditioner
                )
            ctx.scores_of = lambda q, rows: flat[offsets[q] : offsets[q + 1]]
        else:
            block = self.index.config.refinement_block_for(n_queries, vectors.shape[1])
            backend, workers = self._backend_for(kernel, int(ctx.union.size), n_queries)
            ctx.refine_backend, ctx.refine_workers = backend, workers
            if backend == "process":
                cross = self._pool_score_dense(vectors, queries, block, conditioner)
            else:
                cross = np.empty((ctx.union.size, n_queries), dtype=float)
                for lo in range(0, ctx.union.size, block):
                    hi = min(lo + block, ctx.union.size)
                    cross[lo:hi] = self.score_dense(
                        vectors[lo:hi], queries, conditioner=conditioner
                    )
            ctx.scores_of = lambda q, rows: cross[rows, q]

    # ------------------------------------------------------------------
    # kernel dispatch
    # ------------------------------------------------------------------

    def choose_kernel(
        self, candidates: List[np.ndarray], union_size: int, n_queries: int
    ) -> str:
        """Adaptive dispatch between the dense and sparse kernels.

        The dense (union x batch) kernel scores every cell whether or
        not it is a real (candidate, query) pair; when per-query
        candidate sets are small or skewed relative to the union its
        advantage inverts.  ``auto`` routes to the sparse grouped kernel
        when the mean per-query candidate density over the union drops
        below ``config.sparse_density_threshold``.
        """
        mode = self.index.config.refine_kernel
        if mode != "auto":
            return mode
        if union_size == 0 or n_queries == 0:
            return "dense"
        total_pairs = sum(int(ids.size) for ids in candidates)
        density = total_pairs / (union_size * n_queries)
        threshold = self.index.config.sparse_density_threshold
        return "sparse" if density < threshold else "dense"

    # ------------------------------------------------------------------
    # backend dispatch (serial vs process pool)
    # ------------------------------------------------------------------

    def choose_backend(self, kernel: str, work_items: int) -> Tuple[str, int]:
        """Resolve the compute backend for a batch scoring of ``kernel``.

        Returns ``(backend, workers)`` where ``backend`` is what will
        actually run ("serial" / "process") and ``workers`` the pool
        width it will use (1 for serial).  ``work_items`` is the natural
        unit of the kernel's outer loop -- union rows for dense, total
        pairs for sparse.

        * ``serial`` always runs serially.
        * ``process`` always dispatches to the pool -- even at width 1,
          and constructing it raises
          :class:`~repro.exceptions.RefinementPoolError` where shared
          memory is unavailable -- an explicit request never silently
          degrades.
        * ``auto`` dispatches to the pool only when ``refine_workers > 1``,
          shared memory works, and the batch clears the amortization
          floor (``work_items >= refine_workers *
          min_refine_rows_per_worker``); below it the ~1 ms dispatch
          overhead would dominate.
        """
        config = self.index.config
        if config.refine_backend == "serial":
            return "serial", 1
        if config.refine_backend == "process":
            return "process", config.refine_workers
        if config.refine_workers <= 1:
            return "serial", 1
        from ..exec.procpool import shared_memory_available

        if not shared_memory_available():
            return "serial", 1
        floor = config.refine_workers * config.min_refine_rows_per_worker
        if work_items < floor:
            return "serial", 1
        return "process", config.refine_workers

    def _backend_for(self, kernel: str, work_items: int, n_queries: int):
        """:meth:`choose_backend`, except that a one-query batch (what
        ``search`` runs) always scores serially: one query's candidate
        set never amortizes a process dispatch."""
        if n_queries == 1:
            return "serial", 1
        return self.choose_backend(kernel, work_items)

    def _pool_score_dense(
        self, vectors: np.ndarray, queries: np.ndarray, block: int, conditioner=_UNSET
    ) -> np.ndarray:
        """Dense scoring through the index's refinement process pool.

        Conditions once in the parent (elementwise, so bitwise equal to
        the serial path's per-block conditioning) and ships the output
        factor for the workers to fold in exactly where
        :meth:`score_dense` does.
        """
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        factor = 1.0
        if conditioner is not None:
            vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
            factor = conditioner.factor
        return index.refine_pool().score_dense(vectors, queries, factor, block)

    def _pool_score_sparse(
        self,
        vectors: np.ndarray,
        queries: np.ndarray,
        pair_rows: np.ndarray,
        pair_queries: np.ndarray,
        offsets: np.ndarray,
        conditioner=_UNSET,
    ) -> np.ndarray:
        """Sparse scoring through the process pool; see :meth:`_pool_score_dense`."""
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        factor = 1.0
        if conditioner is not None:
            vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
            factor = conditioner.factor
        pair_block = index.config.refinement_block_for(1, vectors.shape[1])
        return index.refine_pool().score_sparse(
            vectors, queries, pair_rows, pair_queries, offsets, factor, pair_block
        )

    # ------------------------------------------------------------------
    # conditioner-wrapped kernels
    # ------------------------------------------------------------------

    def score_dense(
        self, vectors: np.ndarray, queries: np.ndarray, conditioner=_UNSET
    ) -> np.ndarray:
        """Exact ``(n, B)`` divergences of every (vector, query) pair.

        Routes through the divergence's expansion-form cross kernel,
        first applying its :class:`RefinementConditioner` (centring /
        scaling into the well-conditioned regime) and folding the
        conditioner's output factor back in.  Conditioning is
        elementwise, so scoring a row subset or block is bitwise
        identical to slicing a full scoring -- the parity the blocked
        and per-query paths rely on.
        """
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        if conditioner is not None:
            vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
        values = index.divergence.cross_divergence(vectors, queries)
        if conditioner is not None and conditioner.factor != 1.0:
            values = values * conditioner.factor
        return values

    def score_sparse(
        self,
        vectors: np.ndarray,
        queries: np.ndarray,
        point_index: np.ndarray,
        query_index: np.ndarray,
        conditioner=_UNSET,
    ) -> np.ndarray:
        """Sparse analogue of :meth:`score_dense`: only the listed pairs.

        Applies the same conditioner and output factor, and the grouped
        kernel's pair values are bitwise equal to the dense kernel's
        matrix entries, so routing a query through this path instead of
        the dense one cannot change a single bit of its scores.
        """
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        if conditioner is not None:
            vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
        values = index.divergence.cross_divergence_grouped(
            vectors,
            queries,
            point_index,
            query_index,
            pair_block=index.config.refinement_block_for(1, vectors.shape[1]),
        )
        if conditioner is not None and conditioner.factor != 1.0:
            values = values * conditioner.factor
        return values
