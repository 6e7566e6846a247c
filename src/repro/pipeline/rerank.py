"""Rerank stage: direct-kernel top-k over the preselected expansion scores.

The expansion kernel can lose precision to cancellation, so final
results are drawn from an adaptively-sized preselection buffer and
re-scored with the divergence's direct (well-conditioned)
``batch_divergence`` -- the same formula the brute-force oracle uses.
Dense and sparse layouts, sequential and fanned-out fetches, and the
per-query reference loop all converge on one :meth:`RerankStage.topk`
implementation, which is what makes their tie-breaking -- and therefore
their bitwise parity -- identical by construction.

Batch-wide first pass.  When every query's candidates are the one
union array (Plan's scan route) on an identity snapshot and the dense
kernel left its query-major ``(B, union)`` matrix, the first
preselection pass runs for the whole batch at once: one
``np.partition(..., axis=1)`` finds each query's ``buffer``-th smallest
score, and where exactly ``buffer`` scores are at most it, that mask is
the set ``top_k_stable`` would pick.  Any query whose boundary ties
overflow the buffer, or whose adaptive noise-floor check fails, falls
back to :meth:`RerankStage.topk` itself, so tie order and the adaptive
buffer are unchanged.

Snapshot-aware reranking: when the context's snapshot carries a
non-identity row -> external-id mapping, candidates are reordered by
ascending *external* id before the top-k, so positional tie-breaking
matches a from-scratch index over the live points sorted by id.  When
the snapshot carries unmerged delta inserts, the frozen top-k is then
merged with a brute-force direct scoring of the (memory-resident, so
zero-page) delta points: both sides use the same row-count-independent
``batch_divergence`` kernel and the same id-sorted ``top_k_stable``
selection, which keeps every merged result bitwise equal to the oracle.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["RerankStage", "top_k_stable"]

#: extra candidates (beyond k) preselected by the fast expansion kernel
#: and re-scored with the direct kernel before the final top-k.
_RERANK_BUFFER = 16


def top_k_stable(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` smallest values, ties broken by lowest index.

    Equivalent to ``np.argsort(values, kind="stable")[:k]`` without
    sorting the full array: ``np.argpartition`` isolates the k smallest,
    and only the entries tied with the k-th smallest value join the
    final stable sort (so boundary ties still resolve by index).  Every
    selection in the pipeline -- per-query and blocked-batch alike --
    goes through this one helper, which is what makes their
    tie-breaking identical.
    """
    k_eff = min(k, values.size)
    if k_eff == 0:
        return np.empty(0, dtype=int)
    if values.size > k_eff:
        part = np.argpartition(values, k_eff - 1)[:k_eff]
        pool = np.flatnonzero(values <= values[part].max())
    else:
        pool = np.arange(values.size)
    return pool[np.argsort(values[pool], kind="stable")][:k_eff]


def _first_buffer(n_candidates: int, k: int) -> int:
    """Preselection buffer of :meth:`RerankStage.topk`'s first pass."""
    return min(n_candidates, max(2 * k, k + _RERANK_BUFFER))


class RerankStage(PipelineStage):
    name = "rerank"

    def run(self, ctx: QueryBatchContext) -> None:
        snap = ctx.snapshot
        delta_n = snap.delta.n_inserts if snap is not None else 0
        ctx.delta_candidates = [delta_n] * ctx.n_queries
        empty = (np.empty(0, dtype=int), np.empty(0, dtype=float))
        if ctx.union is None or ctx.union.size == 0 or ctx.n_queries == 0:
            # no frozen candidates anywhere; results may still come
            # entirely from the delta buffer
            frozen_pairs = [empty] * ctx.n_queries
        else:
            frozen_pairs = []
            vectors, row_of = ctx.vectors, ctx.row_of
            shared = self._topk_shared(ctx)
            for q, ids in enumerate(ctx.candidates):
                if q in ctx.query_errors:
                    # doomed by a dead shard: its union rows hold filler,
                    # never score them
                    frozen_pairs.append(None)
                    continue
                if q in shared:
                    frozen_pairs.append(shared[q])
                    continue
                if ids.size == 0:
                    frozen_pairs.append(empty)
                    continue
                rows = row_of[ids]
                ids, scores, gather = self._id_ordered(
                    ids,
                    ctx.scores_of(q, rows),
                    snap,
                    lambda sel, rows=rows: vectors[rows[sel]],
                )
                frozen_pairs.append(
                    self.topk(ids, scores, ctx.queries[q], ctx.k, gather)
                )
        ctx.refined = [
            None
            if pair is None
            else self._merge_delta(pair, ctx.queries[q], ctx.k, snap)
            for q, pair in enumerate(frozen_pairs)
        ]
        for q in ctx.query_errors:
            ctx.delta_candidates[q] = 0

    def _topk_shared(
        self, ctx: QueryBatchContext
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """:meth:`topk` for a batch whose queries share one candidate array.

        Applies when every query's candidates are the union itself
        (Plan's scan route), the snapshot is an identity one (candidate
        order is id order) and the dense kernel left its query-major
        matrix: query ``q``'s scores are then row ``q`` of
        ``ctx.scores``, whole and contiguous.  One
        ``np.partition(axis=1)`` finds every row's ``buffer``-th
        smallest score; where exactly ``buffer`` scores are at most it,
        that mask is the set ``top_k_stable(scores, buffer)`` selects,
        so the first pass of :meth:`topk` -- direct rescoring and the
        noise-floor check -- runs on it unchanged.  A query whose
        boundary ties overflow the buffer, or whose noise-floor check
        would grow it, is left out of the returned map and goes through
        :meth:`topk` itself, so tie order and the adaptive buffer are
        exactly :meth:`topk`'s.
        """
        scores, candidates, snap = ctx.scores, ctx.candidates, ctx.snapshot
        if scores is None or ctx.query_errors:
            return {}
        if snap is not None and not snap.base.identity:
            return {}
        ids = candidates[0]
        if ids.size != ctx.union.size or any(c is not ids for c in candidates):
            return {}
        size = ids.size
        buffer = _first_buffer(size, ctx.k)
        if buffer < size:
            kth = np.partition(scores, buffer - 1, axis=1)[:, buffer - 1]
            within = scores <= kth[:, None]
            fits = np.count_nonzero(within, axis=1) == buffer
        divergence = self.index.divergence
        shared = {}
        for q in range(ctx.n_queries):
            row = scores[q]
            if buffer < size:
                if not fits[q]:
                    continue
                pre = np.flatnonzero(within[q])
            else:
                pre = np.arange(size)
            exact = divergence.batch_divergence(ctx.vectors[pre], ctx.queries[q])
            if buffer < size:
                noise = float(np.max(np.abs(row[pre] - exact)))
                boundary = float(np.max(row[pre]))
                if int(np.count_nonzero(row <= boundary + noise)) > buffer:
                    continue
            order = top_k_stable(exact, ctx.k)
            shared[q] = (ids[pre][order], exact[order])
        return shared

    def _id_ordered(self, ids: np.ndarray, scores: np.ndarray, snap, gather):
        """Reorder candidates so ``topk`` ties break by ascending external id.

        ``ids`` arrive as frozen row numbers sorted ascending; with an
        identity snapshot (or none) rows *are* external ids and the
        arrays pass through untouched -- the pre-mutation bitwise
        contract.  A merged base maps rows to external ids out of order,
        so here the candidate axis is re-sorted by external id
        (candidate rows are live, hence their ids are unique and the
        order is total) and the gather is composed with the permutation.
        """
        if snap is None or snap.base.identity:
            return ids, scores, gather
        ext = snap.base.global_ids[ids]
        order = np.argsort(ext, kind="stable")
        return ext[order], scores[order], lambda sel: gather(order[sel])

    def _merge_delta(self, frozen, query: np.ndarray, k: int, snap):
        """Merge the frozen top-k with a direct scan of the delta inserts.

        Delta points live in memory, so this charges zero pages -- the
        per-scope accounting stays exact.  Both arrays are concatenated
        and re-sorted by external id before one ``top_k_stable``: with
        disjoint id sets (a reinserted id's frozen predecessor is dead
        and was filtered in Plan) this reproduces, bit for bit, the
        selection a from-scratch index over the live points would make.
        """
        if snap is None or not snap.has_delta:
            return frozen
        delta = snap.delta
        d_div = self.index.divergence.batch_divergence(delta.points, query)
        ids_all = np.concatenate([frozen[0], delta.ids])
        div_all = np.concatenate([frozen[1], d_div])
        order = np.argsort(ids_all, kind="stable")
        sel = top_k_stable(div_all[order], k)
        return ids_all[order][sel], div_all[order][sel]

    def topk(
        self,
        ids: np.ndarray,
        scores: np.ndarray,
        query: np.ndarray,
        k: int,
        gather,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Final top-k: preselect by expansion score, rerank directly.

        ``gather(positions)`` materialises candidate vectors for
        positions into ``ids``; every path passes a fresh contiguous
        gather of the same rows, so looped, blocked and fanned-out
        refinement rerank identical arrays and stay bitwise-equal.  Ties
        resolve by ascending id (``ids`` is sorted, positions are sorted
        back before scoring).

        The buffer is *adaptive*: reranking the preselection also
        measures the expansion kernel's noise floor on this query -- the
        largest |expansion - direct| disagreement over the buffer.  When
        more candidates tie within that floor of the preselection
        boundary than the buffer holds, any of them could be a true
        neighbour the noisy preselection ranked out, so the buffer grows
        to cover the tie set and reranks again instead of silently
        risking a dropped result.  On well-conditioned data the measured
        floor is ~ulp-sized and the loop exits first pass; in the worst
        case the rerank degrades to a direct-kernel scan of all
        candidates, which is exactly the safe fallback.
        """
        if ids.size == 0:
            return (np.empty(0, dtype=int), np.empty(0, dtype=float))
        divergence = self.index.divergence
        buffer = _first_buffer(ids.size, k)
        while True:
            pre = np.sort(top_k_stable(scores, buffer))
            exact = divergence.batch_divergence(gather(pre), query)
            if buffer >= ids.size:
                break
            noise = float(np.max(np.abs(scores[pre] - exact)))
            boundary = float(np.max(scores[pre]))
            tied = int(np.count_nonzero(scores <= boundary + noise))
            if tied <= buffer:
                break
            buffer = min(ids.size, max(tied, 2 * buffer))
        order = top_k_stable(exact, k)
        return ids[pre][order], exact[order]
