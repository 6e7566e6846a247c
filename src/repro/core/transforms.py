"""Per-subspace precomputation (paper Algorithms 2-4 at dataset scale).

:class:`SubspaceTransforms` bundles, for every subspace of a
partitioning: the restricted divergence, and the precomputed point
summaries ``(alpha_x, gamma_x)`` for all ``n`` points.  At query time it
produces a batch's ``(B, M)`` query triples and the ``(B, n, M)`` tensor
of Theorem-1 upper bounds, from which
:func:`determine_search_bounds_batch` (Algorithm 4, ``QBDetermine``)
extracts every query's per-subspace range radii.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..divergences.base import DecomposableBregmanDivergence
from ..exceptions import InvalidParameterError
from ..geometry import bounds as bd
from ..partitioning.scheme import Partitioning

__all__ = [
    "RADIUS_EPS",
    "SubspaceTransforms",
    "SearchBoundsBatch",
    "determine_search_bounds_batch",
    "pad_radii",
]

#: relative slack added to range radii to absorb floating-point rounding
#: in the bound computation (never excludes a true candidate).  Applied
#: through :func:`pad_radii` to both the Algorithm-4 radii and the
#: adjusted ones, so Plan's widening compares like with like.
RADIUS_EPS = 1e-9


def pad_radii(radii: np.ndarray) -> np.ndarray:
    """Apply the :data:`RADIUS_EPS` slack to an array of range radii."""
    return radii + RADIUS_EPS * (1.0 + np.abs(radii))


@dataclass
class SearchBoundsBatch:
    """Output of Algorithm 4 for a batch: per-query searching radii.

    ``radii[b, i]`` is query ``b``'s range radius in subspace ``i`` (the
    components of its k-th smallest total upper bound); ``totals[b]`` is
    their sum, and ``anchor_ids[b]`` the point whose bound was selected.
    """

    radii: np.ndarray
    totals: np.ndarray
    anchor_ids: np.ndarray


class SubspaceTransforms:
    """Precomputed tuples ``P(x)`` for every point in every subspace."""

    def __init__(
        self,
        divergence: DecomposableBregmanDivergence,
        partitioning: Partitioning,
        points: np.ndarray,
    ) -> None:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        self.divergence = divergence
        self.partitioning = partitioning
        self.n_points = points.shape[0]
        self.sub_divergences: List[DecomposableBregmanDivergence] = []
        alphas = []
        gammas = []
        for dims in partitioning.subspaces:
            sub_div = divergence.restrict(dims)
            self.sub_divergences.append(sub_div)
            alpha, gamma = bd.transform_points(sub_div, points[:, dims])
            alphas.append(alpha)
            gammas.append(gamma)
        #: per-subspace alpha_x, gamma_x as (n, M) matrices.
        self.alpha = np.stack(alphas, axis=1)
        self.gamma = np.stack(gammas, axis=1)

    def extended(self, new_points: np.ndarray) -> "SubspaceTransforms":
        """A new transforms object with ``new_points`` appended.

        Extend-merge path: only the appended rows' ``(alpha, gamma)``
        summaries are computed; the existing rows (and the per-subspace
        restricted divergences) are shared with the receiver, which is
        never mutated.  Bounds are per-point (Theorem 1 is elementwise in
        the point axis), so the old rows' bounds are bitwise unchanged.
        """
        new_points = np.atleast_2d(np.asarray(new_points, dtype=float))
        clone = object.__new__(SubspaceTransforms)
        clone.divergence = self.divergence
        clone.partitioning = self.partitioning
        clone.sub_divergences = self.sub_divergences
        clone.n_points = self.n_points + new_points.shape[0]
        alphas = []
        gammas = []
        for sub_div, dims in zip(self.sub_divergences, self.partitioning.subspaces):
            alpha, gamma = bd.transform_points(sub_div, new_points[:, dims])
            alphas.append(alpha)
            gammas.append(gamma)
        clone.alpha = np.concatenate([self.alpha, np.stack(alphas, axis=1)])
        clone.gamma = np.concatenate([self.gamma, np.stack(gammas, axis=1)])
        return clone

    def query_triples_batch(self, queries: np.ndarray) -> bd.QueryTripleBatch:
        """Vectorised Algorithm 3 for a query batch: ``(B, M)`` arrays."""
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        sub_matrices = self.partitioning.split_matrix(queries)
        per_sub = [
            bd.transform_queries(sub_div, sub_mat)
            for sub_div, sub_mat in zip(self.sub_divergences, sub_matrices)
        ]
        return bd.QueryTripleBatch(
            alpha=np.stack([t.alpha for t in per_sub], axis=1),
            beta_yy=np.stack([t.beta_yy for t in per_sub], axis=1),
            delta=np.stack([t.delta for t in per_sub], axis=1),
        )

    def upper_bound_tensor(
        self, triples: bd.QueryTripleBatch, with_lower: bool = False
    ):
        """Theorem 1 bounds for every (query, point, subspace): ``(B, n, M)``.

        One broadcasted pass over the batch; the additions follow the
        same left-to-right order as
        :func:`repro.geometry.bounds.batch_upper_bounds`, so each query's
        slice agrees with that function's per-subspace bounds.

        With ``with_lower`` the pair ``(upper, lower)`` is returned,
        where ``lower = alpha_x + alpha_y + beta_yy - sqrt(gamma_x *
        delta_y)`` is the Cauchy inequality's other side
        (``beta_xy >= -sqrt(gamma_x * delta_y)``), built from the same
        operands and square-root term.  ``upper`` is bitwise the same
        either way.
        """
        alpha_q = triples.alpha[:, None, :]
        beta_q = triples.beta_yy[:, None, :]
        delta_q = triples.delta[:, None, :]
        exact_terms = self.alpha[None, :, :] + alpha_q + beta_q
        cauchy = np.sqrt(np.maximum(self.gamma[None, :, :] * delta_q, 0.0))
        upper = exact_terms + cauchy
        if not with_lower:
            return upper
        return upper, exact_terms - cauchy


def determine_search_bounds_batch(ub_tensor: np.ndarray, k: int) -> SearchBoundsBatch:
    """Algorithm 4 (``QBDetermine``): pick each query's k-th smallest
    total bound.

    ``ub_tensor`` has shape ``(B, n, M)``; the k-th smallest total bound
    of every query is located by one ``np.argpartition`` call over the
    ``(B, n)`` totals matrix.  The selected point's per-subspace
    components become that query's subspace range radii; Theorem 3
    guarantees the union of the corresponding range results contains
    the exact kNN.
    """
    if ub_tensor.ndim != 3:
        raise InvalidParameterError("ub_tensor must have shape (B, n, M)")
    b, n, _ = ub_tensor.shape
    if not 1 <= k <= n:
        raise InvalidParameterError(f"k must be in [1, {n}], got {k}")
    totals = ub_tensor.sum(axis=2)
    smallest_k = np.argpartition(totals, k - 1, axis=1)[:, :k]
    rows = np.arange(b)
    anchors = smallest_k[rows, np.argmax(totals[rows[:, None], smallest_k], axis=1)]
    return SearchBoundsBatch(
        radii=ub_tensor[rows, anchors, :].copy(),
        totals=totals[rows, anchors],
        anchor_ids=anchors,
    )
