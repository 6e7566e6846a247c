"""Itakura-Saito distance (Burg-entropy generator ``phi(t) = -log t``).

Section 3.1 of the paper:

    D_f(x, y) = sum_j ( x_j / y_j - log(x_j / y_j) - 1 )

Widely used in speech processing to compare power spectra; the paper runs
it on the Fonts and Uniform datasets.  The domain is the strictly
positive orthant.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .base import (
    POSITIVE_REALS,
    DecomposableBregmanDivergence,
    RefinementConditioner,
)

__all__ = ["ItakuraSaito", "BurgEntropy"]


class ItakuraSaito(DecomposableBregmanDivergence):
    """``D(x, y) = sum(x/y - log(x/y) - 1)`` on positive vectors."""

    name = "itakura_saito"
    domain = POSITIVE_REALS

    def refinement_conditioner(self, points: np.ndarray) -> RefinementConditioner:
        # Exact per-dimension scale invariance (D is 0-homogeneous):
        # normalising by the dataset's per-dimension mean keeps the
        # expansion kernel's log sums near zero on any magnitude mix.
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return RefinementConditioner(scale=points.mean(axis=0))

    def phi(self, t: np.ndarray) -> np.ndarray:
        return -np.log(np.asarray(t, dtype=float))

    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        return -1.0 / np.asarray(t, dtype=float)

    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        # phi' maps (0, inf) onto (-inf, 0); the inverse is s -> -1/s.
        return -1.0 / np.asarray(s, dtype=float)

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        ratio = np.asarray(x, dtype=float) / np.asarray(y, dtype=float)
        value = float(np.sum(ratio - np.log(ratio) - 1.0))
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        # Direct ratio form: well-conditioned (the reference kernel;
        # cross_divergence is the fast expansion).
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ratio = points / np.asarray(y, dtype=float)
        values = np.sum(ratio - np.log(ratio) - 1.0, axis=1)
        return np.maximum(values, 0.0)

    # Expansion sum(x/y - log x + log y - 1): the logs move to per-point
    # / per-query vectors; the only per-pair work is the <x, 1/q>
    # contraction.
    def point_terms(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return (np.sum(np.log(points), axis=1),)

    def _query_terms(self, queries: np.ndarray) -> tuple[np.ndarray, ...]:
        return (1.0 / queries, np.sum(np.log(queries), axis=1))

    def _combine(
        self,
        point: Sequence[np.ndarray],
        query: Sequence[np.ndarray],
        cross: np.ndarray,
        dim: int,
    ) -> np.ndarray:
        (log_x,) = point
        (log_q,) = query
        return cross - log_x + log_q - dim


#: The Burg-entropy divergence *is* the Itakura-Saito distance; the paper
#: lists both names, so we expose the alias.
BurgEntropy = ItakuraSaito
