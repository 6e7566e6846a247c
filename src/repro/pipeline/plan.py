"""Plan stage: Theorem-1 bounds, Algorithm-4 radii, forest traversal.

Covers Algorithm 6 steps 1-3 for every query of the context at once:
the ``(B, M)`` query triples, one ``(B, n, M)`` bound tensor, the search
radii from a single ``argpartition`` (including the index's
``_adjust_radii_batch`` hook, which the approximate extension
overrides), the level-synchronous BB-forest traversal, and the widening
recovery when adjusted radii return fewer than ``k`` candidates.

Snapshot semantics: all components (transforms, partitioning, forest)
are read through ``ctx.snapshot`` so a concurrent merge can never swap
structures mid-plan.  When the snapshot carries tombstones, Algorithm
4's ``k`` is inflated by the tombstone count (``k_plan``): Theorem 3
then guarantees at least ``k_plan`` frozen candidates, of which at most
``n_dead`` are dead, so at least ``k`` live ones survive the tombstone
filter applied after traversal (or all remaining live frozen points,
when fewer than ``k`` exist -- the delta merge in Rerank supplies the
rest).

Routing (``BrePartitionConfig.plan_route``).  The walk pays off only
when it keeps pages out of the fetch.  Before walking, ``auto`` reads
Theorem 1's other side off the same tensor operands: the Cauchy lower
bound ``LB = alpha_x + alpha_y + beta_yy - sqrt(gamma_x * delta_y)``
(``beta_xy >= -sqrt(gamma * delta)``).  A point is *admitted* when its
``LB`` is within the padded exact radius in at least one subspace for
at least one query of the batch.  When the admitted live points span
every page the live frozen points occupy, the bounds predict that the
walk cannot save a page, so Plan skips the walk and the widening and
hands every query all live frozen ids (``plan_route="scan"`` forces
this; ``"forest"`` forces the walk).  There is no tuned threshold.
The route cannot change results: the scan's candidates are a superset
of any walk's, Theorem 3 only needs the true kNN to be among the
candidates, and Refine and Rerank score and rank every candidate
exactly with ties broken by id.  Only exact searches route -- an index
whose ``_adjust_radii_batch`` hook shrinks the radii (ABP) always walks,
since a full scan would silently turn it exact.
"""

from __future__ import annotations

import numpy as np

from ..bbtree.forest import ForestRangeStats
from ..core.transforms import determine_search_bounds_batch, pad_radii
from .base import PipelineStage
from .context import QueryBatchContext

__all__ = ["PlanStage"]


class PlanStage(PipelineStage):
    name = "plan"

    def _components(self, ctx: QueryBatchContext):
        """(transforms, partitioning, forest, k_plan) for this context."""
        snap = ctx.snapshot
        if snap is None:
            index = self.index
            return index.transforms, index.partitioning, index.forest, ctx.k
        k_plan = min(snap.n_frozen, ctx.k + snap.n_dead)
        return snap.transforms, snap.partitioning, snap.forest, k_plan

    def _filter_live(self, ctx: QueryBatchContext, candidates: np.ndarray):
        snap = ctx.snapshot
        if snap is None:
            return candidates
        return snap.filter_live(candidates)

    def run(self, ctx: QueryBatchContext) -> None:
        index = self.index
        transforms, partitioning, forest, k_plan = self._components(ctx)
        queries = ctx.queries
        route = index.config.plan_route if index.uses_exact_radii else "forest"
        triples = transforms.query_triples_batch(queries)
        if route == "auto":
            ub_tensor, lb_tensor = transforms.upper_bound_tensor(
                triples, with_lower=True
            )
        else:
            ub_tensor = transforms.upper_bound_tensor(triples)
        search_bounds = determine_search_bounds_batch(ub_tensor, k_plan)
        exact_radii = pad_radii(search_bounds.radii)
        ctx.bound_totals = np.asarray(search_bounds.totals, dtype=float)

        if route != "forest":
            live = self._filter_live(ctx, np.arange(transforms.n_points))
            if route == "auto":
                admitted = (lb_tensor <= exact_radii[:, None, :]).any(axis=(0, 2))
                saves = self._walk_saves_pages(ctx, live, live[admitted[live]])
                route = "forest" if saves else "scan"
        ctx.plan_route = route
        if route == "scan":
            ctx.candidates = [live] * ctx.n_queries
            ctx.forest_stats = [
                ForestRangeStats(
                    per_subspace_candidates=[],
                    union_candidates=int(live.size),
                    leaves_visited=0,
                )
                for _ in range(ctx.n_queries)
            ]
            return

        radii = pad_radii(
            index._adjust_radii_batch(search_bounds, triples, transforms)
        )
        sub_matrices = partitioning.split_matrix(queries)
        candidates, forest_stats = forest.range_union_batch(
            sub_matrices, radii, point_filter=index.config.point_filter
        )
        for q in range(ctx.n_queries):
            if candidates[q].size < k_plan:
                sub_queries = [mat[q] for mat in sub_matrices]
                candidates[q], forest_stats[q] = self.widen_if_short(
                    forest,
                    sub_queries,
                    radii[q],
                    exact_radii[q],
                    k_plan,
                    candidates[q],
                    forest_stats[q],
                )
            candidates[q] = self._filter_live(ctx, candidates[q])
        ctx.candidates = candidates
        ctx.forest_stats = forest_stats

    def _walk_saves_pages(self, ctx, live: np.ndarray, admitted: np.ndarray) -> bool:
        """Do the admitted live points miss a page the live points use?

        A point inside some query's subspace range has its lower bound
        within that radius too, so a page without an admitted point
        holds no in-range point and the walk is predicted to skip it.
        When no such page exists the walk is predicted to save no I/O.
        This is a prediction only (leaves are cluster-granular and the
        bounds are loose); results never depend on it.
        """
        store = self._store(ctx)
        return store.count_pages_of(admitted) < store.count_pages_of(live)

    def widen_if_short(
        self, forest, sub_queries, radii, exact_radii, k, candidates, forest_stats
    ):
        """Recover >= k candidates when adjusted radii were too aggressive.

        Bisects the interpolation between the adjusted and the exact
        radii (which Theorem 3 guarantees yield >= k candidates) for the
        smallest widening that returns at least k.  Exact search radii
        equal the exact radii, so this is a no-op there.  Counts are
        pre-tombstone-filter: ``k`` here is the caller's inflated
        ``k_plan``, so the guarantee survives the filter.
        """
        if candidates.size >= k or np.array_equal(radii, exact_radii):
            return candidates, forest_stats
        point_filter = self.index.config.point_filter
        lo, hi = 0.0, 1.0
        best = forest.range_union(sub_queries, exact_radii, point_filter=point_filter)
        for _ in range(8):
            mid = 0.5 * (lo + hi)
            mid_radii = radii + mid * (exact_radii - radii)
            attempt = forest.range_union(
                sub_queries, mid_radii, point_filter=point_filter
            )
            if attempt[0].size >= k:
                best = attempt
                hi = mid
            else:
                lo = mid
        return best
