"""Refine stage: expansion-kernel scoring of every (candidate, query) pair.

Owns the adaptive dense/sparse/auto kernel dispatch and the
conditioner-wrapped cross-divergence kernels.  The stage scores the
union either through the dense blocked kernel (every ``(union, B)``
cell, in ``refinement_block_size`` row blocks) or the sparse grouped
kernel (only real pairs, query-bucketed gathers).  Both produce
bitwise-identical scores -- dense columns are independent of batch
composition and blocking, sparse pair values equal the dense matrix
entries bit for bit -- so the kernel choice is purely a performance
decision.

Operands.  Neither kernel conditions or reduces candidate rows per
batch.  Every published :class:`~repro.core.snapshot.BaseState` carries
:class:`~repro.core.snapshot.RefineOperands`: its points after the
refinement conditioner and the divergence's per-point expansion terms
(``sum log x`` for Itakura-Saito, ``sum e^x`` for the exponential,
``(sum x log x, sum x)`` for KL, ...), computed once when the base is
published.  The dense kernel reads them per block -- a plain slice when
the union is every frozen row, a gather by ``ctx.union`` otherwise --
and the sparse kernel addresses the whole arrays by candidate id.  Only
the queries are conditioned here.  Conditioning is elementwise and the
terms are row reductions, so the scores are bitwise what conditioning
and reducing the fetched rows would give; Refine does not read
``ctx.vectors`` at all (Rerank does).

Query-major scores.  The dense kernel leaves a ``(B, union)`` matrix in
``ctx.scores``: each block is scored as ``(rows, B)`` and written
transposed, so query ``q``'s scores are one contiguous row -- what
Rerank's batch-wide selection partitions in one call.

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

Row-slice fan-out.  The dense kernel's cost is its ``np.einsum``
contraction, and NumPy runs that loop with the GIL released, so the
stage scores the union on threads: when the union spans more than one
``refinement_block_for(B, d)`` block it is cut into ``W = min(usable
CPUs, blocks)`` contiguous near-equal row slices, each running the
block loop over its own rows into disjoint columns of the shared
score matrix, through a :class:`~repro.exec.ShardExecutor` of width
``W``.  A union that fits one block (a B=1 search at d=128 has an
8192-row auto block), the sparse kernel and Rerank stay inline in the
calling thread.  Every expansion kernel is row-independent -- scoring
any row slice is bitwise identical to slicing the full scoring, the
same contract the blocking relies on -- so the result does not depend
on the width or on where slices end.
"""

from __future__ import annotations

import os
from functools import partial
from typing import List, Tuple

import numpy as np

from ..exec import ShardExecutor
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["RefineStage", "build_pairs"]

#: sentinel for "use the index's live conditioner" (``None`` is a valid
#: explicit value meaning "no conditioning").
_UNSET = object()


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the host count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS, Windows)
        return os.cpu_count() or 1


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
        n_queries = ctx.n_queries
        if ctx.union is None or ctx.union.size == 0 or n_queries == 0:
            ctx.refine_kernel = None
            return
        # read the conditioner and operands through the pinned snapshot
        # so a merge republishing the index mid-flight can't swap them
        # under us (charge-free partial runs read the published base)
        snap = ctx.snapshot
        base = snap.base if snap is not None else self.index._base
        conditioner, operands = base.refine_conditioner, base.refine_operands
        union, queries = ctx.union, ctx.queries
        kernel = self.choose_kernel(ctx.candidates, union.size, n_queries)
        ctx.refine_kernel = kernel
        if kernel == "sparse":
            # pairs address the base's rows directly: candidate ids are
            # frozen row numbers, so no union-ordered slab is gathered
            pair_rows, pair_queries, offsets = build_pairs(ctx.candidates, ctx.row_of)
            flat = self.score_sparse(
                operands, queries, union[pair_rows], pair_queries, conditioner
            )
            ctx.scores_of = lambda q, rows: flat[offsets[q] : offsets[q + 1]]
            return
        size = union.size
        whole = size == operands.rows.shape[0]
        block = self.index.config.refinement_block_for(n_queries, queries.shape[1])
        scores = np.empty((n_queries, size), dtype=float)

        def score_rows(start: int, stop: int) -> None:
            for lo in range(start, stop, block):
                hi = min(lo + block, stop)
                # the union is sorted, so when it holds every frozen row
                # its block is a plain slice of the operands
                sel = slice(lo, hi) if whole else union[lo:hi]
                scores[:, lo:hi] = self.score_dense(
                    operands.rows[sel],
                    queries,
                    conditioner=conditioner,
                    point_terms=tuple(term[sel] for term in operands.terms),
                ).T

        width = min(_usable_cpus(), -(-size // block))
        edges = [size * i // width for i in range(width + 1)]
        ShardExecutor(width).run(
            [partial(score_rows, lo, hi) for lo, hi in zip(edges, edges[1:])]
        )
        ctx.scores = scores
        ctx.scores_of = lambda q, rows: scores[q, rows]

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
    # conditioner-wrapped kernels
    # ------------------------------------------------------------------

    def score_dense(
        self,
        vectors: np.ndarray,
        queries: np.ndarray,
        conditioner=_UNSET,
        point_terms=None,
    ) -> np.ndarray:
        """Exact ``(n, B)`` divergences of every (vector, query) pair.

        Routes through the divergence's expansion-form cross kernel,
        first applying its :class:`RefinementConditioner` (centring /
        scaling into the well-conditioned regime) and folding the
        conditioner's output factor back in.  Conditioning is
        elementwise, so scoring a row subset or block is bitwise
        identical to slicing a full scoring -- the parity the blocked
        and per-query paths rely on.

        With ``point_terms`` -- a frozen base's cached
        :class:`~repro.core.snapshot.RefineOperands` for exactly these
        rows, as :meth:`run` passes them -- ``vectors`` are taken as
        already conditioned and their point terms are read, not
        recomputed; only the queries are conditioned here.  The scores
        are bitwise the same either way.
        """
        index = self.index
        if conditioner is _UNSET:
            conditioner = index._refine_conditioner
        if conditioner is not None:
            if point_terms is None:
                vectors = conditioner.transform(vectors)
            queries = conditioner.transform(queries)
        values = index.divergence.cross_divergence(
            vectors, queries, point_terms=point_terms
        )
        if conditioner is not None and conditioner.factor != 1.0:
            values = values * conditioner.factor
        return values

    def score_sparse(
        self,
        operands,
        queries: np.ndarray,
        point_index: np.ndarray,
        query_index: np.ndarray,
        conditioner,
    ) -> np.ndarray:
        """Sparse analogue of :meth:`score_dense`: only the listed pairs.

        ``point_index`` addresses rows of a frozen base's cached
        :class:`~repro.core.snapshot.RefineOperands` (conditioned under
        ``conditioner``).  Applies the same query conditioning and
        output factor, and the grouped kernel's pair values are bitwise
        equal to the dense kernel's matrix entries, so routing a query
        through this path instead of the dense one cannot change a
        single bit of its scores.
        """
        index = self.index
        if conditioner is not None:
            queries = conditioner.transform(queries)
        values = index.divergence.cross_divergence_grouped(
            operands.rows,
            queries,
            point_index,
            query_index,
            pair_block=index.config.refinement_block_for(1, queries.shape[1]),
            point_terms=operands.terms,
        )
        if conditioner is not None and conditioner.factor != 1.0:
            values = values * conditioner.factor
        return values
