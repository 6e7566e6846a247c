"""Squared Euclidean distance as a Bregman divergence (``phi(t) = t^2``).

With generator ``f(x) = sum_j x_j^2`` the Bregman divergence is

    D_f(x, y) = sum_j (x_j - y_j)^2 = ||x - y||^2

the squared Euclidean distance, i.e. the diagonal-identity special case of
the squared Mahalanobis distance from Section 3.1 of the paper.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import (
    REALS,
    DecomposableBregmanDivergence,
    RefinementConditioner,
)

__all__ = ["SquaredEuclidean"]


class SquaredEuclidean(DecomposableBregmanDivergence):
    """``D_f(x, y) = ||x - y||^2`` -- the metric sanity-check divergence."""

    name = "squared_euclidean"
    domain = REALS

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        # Translation invariance: centring on the dataset mean removes
        # the expansion kernel's large-magnitude cancellation exactly.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return RefinementConditioner(shift=points.mean(axis=0))

    def phi(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return t * t

    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(t, dtype=float)

    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        return np.asarray(s, dtype=float) / 2.0

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        # Direct formula: cheaper and exactly non-negative.
        diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        return float(np.dot(diff, diff))

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Direct diff form: well-conditioned at any magnitude (the
        # reference kernel; cross_divergence is the fast expansion).
        points = np.atleast_2d(np.asarray(points, dtype=float))
        diff = points - np.asarray(y, dtype=float)
        return np.einsum("ij,ij->i", diff, diff)

    # Expansion ||x||^2 - 2<x,q> + ||q||^2.
    def point_terms(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return (np.einsum("nj,nj->n", points, points),)

    def _query_terms(self, queries: np.ndarray) -> tuple[np.ndarray, ...]:
        return (queries, np.einsum("bj,bj->b", queries, queries))

    def _combine(
        self,
        point: Sequence[np.ndarray],
        query: Sequence[np.ndarray],
        cross: np.ndarray,
        dim: int,
    ) -> np.ndarray:
        (xx,) = point
        (qq,) = query
        return xx - 2.0 * cross + qq
