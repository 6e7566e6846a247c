"""Core abstractions for Bregman divergences.

A Bregman divergence is defined by a strictly convex, differentiable
*generator* function ``f``:

    D_f(x, y) = f(x) - f(y) - <grad f(y), x - y>

The BrePartition framework additionally requires the divergence to be
*decomposable* (the paper calls this "cumulative"): splitting the
dimensions into disjoint subsets must split the divergence into a sum of
per-subset divergences.  This holds exactly when the generator is
*separable*, ``f(x) = sum_j phi(x_j)`` for a scalar convex ``phi``
(possibly with per-dimension weights).  All the divergences the paper
evaluates (squared Euclidean / diagonal Mahalanobis, Itakura-Saito,
exponential distance, generalized KL, Shannon entropy, Burg entropy,
p-norm generators) are of this form.

Two base classes are provided:

* :class:`BregmanDivergence` -- the general contract (generator, gradient,
  divergence, batched divergence, domain validation).
* :class:`DecomposableBregmanDivergence` -- the separable specialisation
  used by BrePartition.  Subclasses implement only the scalar maps
  ``phi``, ``phi_prime`` and ``phi_prime_inverse`` (all vectorised over
  NumPy arrays); everything else (divergences, gradients, dual-space
  geodesics, restriction to a dimension subset) is derived here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..exceptions import DomainError, NotDecomposableError

__all__ = [
    "Domain",
    "REALS",
    "POSITIVE_REALS",
    "OPEN_UNIT_INTERVAL",
    "RefinementConditioner",
    "BregmanDivergence",
    "DecomposableBregmanDivergence",
    "pair_contract",
]


def pair_contract(
    points: np.ndarray,
    query_rows: np.ndarray,
    point_index: np.ndarray,
    query_index: np.ndarray,
) -> np.ndarray:
    """``<points[pi], query_rows[qi]>`` per pair, via bucketed gathers.

    The sparse kernels' per-pair contraction.  Pairs sharing a query are
    contracted together: one ``(run, d)`` gather of the point rows
    against the query's single row -- no ``(P, d)`` gather of query
    vectors, which is what makes the sparse kernel memory-light.  Runs
    are detected on the fly, so the index's query-major pair lists
    contract in one call per query while arbitrary orderings stay
    correct (just slower).

    Bitwise: ``np.einsum("nj,j->n")`` reduces the contiguous ``j`` axis
    with the same accumulation order as the dense
    ``np.einsum("nj,bj->nb")`` entry, so pair values are bit-identical
    to the dense kernel's matrix however pairs are ordered or bucketed.
    """
    out = np.empty(point_index.size, dtype=float)
    if point_index.size == 0:
        return out
    bounds = np.concatenate(
        [[0], np.flatnonzero(np.diff(query_index) != 0) + 1, [point_index.size]]
    )
    for i in range(bounds.size - 1):
        lo, hi = bounds[i], bounds[i + 1]
        out[lo:hi] = np.einsum(
            "nj,j->n", points[point_index[lo:hi]], query_rows[query_index[lo]]
        )
    return out


class RefinementConditioner:
    """Input transform that keeps expansion-form kernels well-conditioned.

    The matrixised :meth:`BregmanDivergence.cross_divergence` kernels
    trade conditioning for speed (the classic ``||x||^2 - 2<x,y> +
    ||y||^2`` cancellation).  When a divergence has an exact invariance
    -- translation, per-dimension scaling, or homogeneity -- evaluating
    the kernel on transformed inputs (and rescaling the output by
    ``factor``) recovers the same mathematical values from
    better-conditioned arithmetic.  Both the single-query and blocked
    refinement paths apply the same conditioner elementwise, so their
    bitwise agreement is unaffected.

    Parameters
    ----------
    shift:
        Subtracted from every input row (translation invariance), or
        ``None``.
    scale:
        Every input row is divided by this (scale invariance /
        homogeneity), or ``None``.
    factor:
        Multiplier applied to the kernel's output values (1.0 for exact
        invariances; the homogeneity degree's scale for homogeneous
        divergences).
    """

    __slots__ = ("shift", "scale", "factor")

    def __init__(
        self,
        shift: np.ndarray | None = None,
        scale: np.ndarray | float | None = None,
        factor: float = 1.0,
    ) -> None:
        self.shift = shift
        self.scale = scale
        self.factor = float(factor)

    def transform(self, rows: np.ndarray) -> np.ndarray:
        """Condition an ``(n, d)`` array of kernel inputs."""
        if self.shift is not None:
            rows = rows - self.shift
        if self.scale is not None:
            rows = rows / self.scale
        return rows


class Domain:
    """An axis-aligned open-box domain for divergence generators.

    Parameters
    ----------
    low, high:
        Open interval bounds applied to every coordinate.  ``-inf`` /
        ``inf`` denote an unbounded side.
    name:
        Human-readable label used in error messages.
    """

    def __init__(self, low: float, high: float, name: str) -> None:
        self.low = float(low)
        self.high = float(high)
        self.name = name

    def contains(self, x: np.ndarray) -> bool:
        """Return ``True`` when every coordinate of ``x`` is inside."""
        x = np.asarray(x, dtype=float)
        if not np.all(np.isfinite(x)):
            return False
        ok_low = self.low == -np.inf or bool(np.all(x > self.low))
        ok_high = self.high == np.inf or bool(np.all(x < self.high))
        return ok_low and ok_high

    def clip(self, x: np.ndarray, margin: float = 1e-9) -> np.ndarray:
        """Project ``x`` into the domain, keeping an open-interval margin."""
        x = np.asarray(x, dtype=float)
        lo = self.low + margin if np.isfinite(self.low) else -np.inf
        hi = self.high - margin if np.isfinite(self.high) else np.inf
        return np.clip(x, lo, hi)

    def validate(self, x: np.ndarray, what: str = "vector") -> None:
        """Raise :class:`DomainError` when ``x`` is outside the domain."""
        if not self.contains(x):
            raise DomainError(
                f"{what} outside domain {self.name}: "
                f"expected coordinates in ({self.low}, {self.high})"
            )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Domain({self.name}, ({self.low}, {self.high}))"


REALS = Domain(-np.inf, np.inf, "reals")
POSITIVE_REALS = Domain(0.0, np.inf, "positive reals")
OPEN_UNIT_INTERVAL = Domain(0.0, 1.0, "open unit interval")


class BregmanDivergence(ABC):
    """Contract for a Bregman divergence ``D_f``.

    Concrete classes expose the generator ``f``, its gradient, and
    point-to-point / batch divergence evaluation.  ``name`` is a stable
    identifier used by :mod:`repro.divergences.registry`.
    """

    #: registry identifier; subclasses override.
    name: str = "bregman"

    #: whether the divergence is cumulative over dimension partitions.
    supports_partitioning: bool = False

    #: the domain of the generator.
    domain: Domain = REALS

    @abstractmethod
    def generator(self, x: np.ndarray) -> float:
        """Evaluate the convex generator ``f`` at ``x``."""

    @abstractmethod
    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Evaluate ``grad f`` at ``x``."""

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        """Compute ``D_f(x, y) = f(x) - f(y) - <grad f(y), x - y>``."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        grad_y = self.gradient(y)
        value = self.generator(x) - self.generator(y) - float(np.dot(grad_y, x - y))
        # Guard against tiny negative values from floating-point cancellation.
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Compute ``D_f(x, y)`` for every row ``x`` of ``points``.

        The default implementation loops; decomposable subclasses provide
        a fully vectorised override.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.array([self.divergence(row, y) for row in points])

    def cross_divergence(self, points: np.ndarray, queries: np.ndarray) -> np.ndarray:
        """Compute ``D_f(x_i, q_b)`` for every (point, query) pair.

        Returns an ``(n, B)`` matrix.  Contract: each column must be
        bitwise independent of which other queries are in the batch
        (``cross(points, queries)[:, b] == cross(points,
        queries[b:b+1])[:, 0]``).  The default implementation stacks
        ``batch_divergence`` columns; decomposable subclasses provide a
        matrixised expansion kernel.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if queries.shape[0] == 0:
            return np.empty((points.shape[0], 0), dtype=float)
        return np.stack(
            [self.batch_divergence(points, query) for query in queries], axis=1
        )

    def cross_divergence_grouped(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        point_index: np.ndarray,
        query_index: np.ndarray,
        pair_block: int | None = None,
    ) -> np.ndarray:
        """Score only the listed (point, query) pairs.

        Returns a ``(P,)`` vector with ``out[p] ==
        cross_divergence(points, queries)[point_index[p], query_index[p]]``
        *bitwise* -- the sparse counterpart of the dense kernel, used by
        the index's masked/grouped refinement when per-query candidate
        sets are small relative to the union.  The default falls back to
        the dense matrix and gathers; decomposable subclasses compute
        per-point/per-query terms once and contract only real pairs.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        point_index = np.asarray(point_index, dtype=int)
        query_index = np.asarray(query_index, dtype=int)
        if point_index.size == 0:
            return np.empty(0, dtype=float)
        return self.cross_divergence(points, queries)[point_index, query_index]

    def validate_domain(self, x: np.ndarray, what: str = "vector") -> None:
        """Raise :class:`DomainError` when ``x`` violates the domain."""
        self.domain.validate(x, what)

    def refinement_conditioner(
        self, points: np.ndarray
    ) -> "RefinementConditioner | None":
        """Conditioner for :meth:`cross_divergence` on this dataset.

        Divergences with an exact invariance override this to map the
        dataset's scale into the expansion kernels' well-conditioned
        regime (see :class:`RefinementConditioner`); the default --
        no known invariance -- returns ``None``, leaving inputs raw.
        """
        return None

    def restrict(self, dims: Sequence[int]) -> "BregmanDivergence":
        """Return the divergence restricted to a dimension subset.

        Only decomposable divergences can be restricted; the restriction
        of a separable generator is the same generator over fewer
        coordinates.
        """
        raise NotDecomposableError(
            f"divergence {self.name!r} is not decomposable and cannot be "
            "restricted to a dimension subset"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class DecomposableBregmanDivergence(BregmanDivergence):
    """Separable Bregman divergence ``f(x) = sum_j phi(x_j)``.

    Subclasses implement the scalar generator ``phi`` and its derivative
    as NumPy ufunc-style methods.  ``phi_prime_inverse`` is the inverse of
    ``phi'`` -- equivalently the (coordinate-wise) gradient of the convex
    conjugate ``f*`` -- and powers the dual-space geodesic used by the
    BB-tree's node bounds (Cayton 2008).
    """

    supports_partitioning = True

    # ------------------------------------------------------------------
    # scalar maps (vectorised over arrays) -- the subclass contract
    # ------------------------------------------------------------------

    @abstractmethod
    def phi(self, t: np.ndarray) -> np.ndarray:
        """Elementwise generator ``phi``."""

    @abstractmethod
    def phi_prime(self, t: np.ndarray) -> np.ndarray:
        """Elementwise derivative ``phi'``."""

    @abstractmethod
    def phi_prime_inverse(self, s: np.ndarray) -> np.ndarray:
        """Elementwise inverse of ``phi'`` (gradient of the conjugate)."""

    # ------------------------------------------------------------------
    # derived vector-level API
    # ------------------------------------------------------------------

    def generator(self, x: np.ndarray) -> float:
        return float(np.sum(self.phi(np.asarray(x, dtype=float))))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.phi_prime(np.asarray(x, dtype=float)), dtype=float)

    def gradient_inverse(self, s: np.ndarray) -> np.ndarray:
        """Map a dual vector back to the primal space (``(grad f)^-1``)."""
        return np.asarray(self.phi_prime_inverse(np.asarray(s, dtype=float)), dtype=float)

    def divergence(self, x: np.ndarray, y: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        grad_y = self.phi_prime(y)
        value = float(
            np.sum(self.phi(x)) - np.sum(self.phi(y)) - np.dot(grad_y, x - y)
        )
        return value if value > 0.0 else 0.0

    def batch_divergence(self, points: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorised ``D_f(x_i, y)`` over the rows of ``points``.

        Kept in the well-conditioned direct form (differences before
        reductions): this is the reference kernel for oracles, baselines
        and geometry.  The refinement hot path uses the faster
        expansion-form :meth:`cross_divergence` instead.  The cross-term
        reduction uses einsum's fixed summation order so each row's
        value is bitwise independent of how many rows are scored
        together (a BLAS matvec may switch accumulation patterns with
        the row count) -- rerank buffers must agree with full-scan
        oracles bit for bit.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        y = np.asarray(y, dtype=float)
        grad_y = self.phi_prime(y)
        fy = float(np.sum(self.phi(y)))
        values = (
            np.sum(self.phi(points), axis=1)
            - fy
            - np.einsum("ij,j->i", points - y, grad_y)
        )
        return np.maximum(values, 0.0)

    # ------------------------------------------------------------------
    # expansion kernels (dense and grouped)
    # ------------------------------------------------------------------
    #
    # Both kernels evaluate one inner-product expansion, split three
    # ways by the subclass contract:
    #
    # * point_terms(points) -- row reductions of the points alone;
    # * _query_terms(queries) -- the contraction operand first (``grad
    #   f(q)`` up to the sign and scale ``_combine`` applies), then row
    #   reductions of the queries alone;
    # * _combine(point, query, cross, dim) -- the expression joining
    #   them with the per-pair contraction ``cross`` of the points with
    #   that operand.
    #
    # The dense kernel broadcasts the terms over an ``(n, B)`` matrix and
    # contracts with ``np.einsum("nj,bj->nb")``; the grouped kernel
    # gathers them per pair and contracts with ``pair_contract``.  Bitwise
    # parity between the two holds because (a) every term is a row
    # reduction, identical whether computed on the full arrays, on
    # gathered rows or once ahead of time (``point_terms=``), (b) the
    # bucketed ``pair_contract`` reduces the same contiguous axis with
    # the same accumulation order as the dense entry, and (c) both feed
    # one ``_combine``, so the operations and their order are shared by
    # construction.

    def point_terms(self, points: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per-point terms of the expansion kernels: ``(sum phi(x),)``.

        Row reductions of ``points`` alone, so a caller scoring one fixed
        point set against many query batches computes them once and
        passes them back through ``point_terms=``.  Row-independent: the
        terms of a row slice or gather are, bit for bit, the same slice
        or gather of the whole set's terms.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return (np.sum(self.phi(points), axis=1),)

    def _query_terms(self, queries: np.ndarray) -> tuple[np.ndarray, ...]:
        """Contraction operand ``grad f(q)``, then ``sum phi(q)`` and
        ``<grad f(q), q>``."""
        grad_q = self.phi_prime(queries)
        return (
            grad_q,
            np.sum(self.phi(queries), axis=1),
            np.einsum("bj,bj->b", grad_q, queries),
        )

    def _combine(
        self,
        point: Sequence[np.ndarray],
        query: Sequence[np.ndarray],
        cross: np.ndarray,
        dim: int,
    ) -> np.ndarray:
        """Raw (unclamped) ``f(x) - f(q) - <x, grad f(q)> + <grad f(q), q>``."""
        (sum_phi_x,) = point
        sum_phi_q, qdot = query
        return sum_phi_x - sum_phi_q - cross + qdot

    def cross_divergence(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        point_terms: tuple[np.ndarray, ...] | None = None,
    ) -> np.ndarray:
        """All-pairs ``D_f(x_i, q_b)`` as one matrixised ``(n, B)`` kernel.

        The inner-product expansion

            D_f(x, q) = f(x) - f(q) - <x, grad f(q)> + <grad f(q), q>

        moves all transcendental work (``phi``/``phi'``) to per-point
        and per-query vectors -- ``O((n + B) d)`` -- leaving a single
        ``O(n B d)`` sum-of-products contraction per pair.
        ``point_terms`` are :meth:`point_terms` of exactly these
        ``points``, computed ahead of time (a frozen base's cache); the
        result is bitwise the same as computing them here.

        Contract: column ``b`` is *bitwise* identical for any query
        subset -- ``cross_divergence(points, queries)[:, b] ==
        cross_divergence(points, queries[b:b+1])[:, 0]`` -- which is
        what lets the index score single queries and blocked batches
        through one kernel with bit-for-bit agreement.  Values agree
        with :meth:`batch_divergence` to rounding (not bitwise): the
        expansion trades a little conditioning for speed, so tiny
        divergences between large-magnitude near-duplicates can cancel.
        For translation-invariant divergences callers should centre
        ``points``/``queries`` on a common shift first (the index's
        refinement paths do).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        if point_terms is None:
            point_terms = self.point_terms(points)
        grad_q, *query_terms = self._query_terms(queries)
        values = self._combine(
            [term[:, None] for term in point_terms],
            [term[None, :] for term in query_terms],
            np.einsum("nj,bj->nb", points, grad_q),
            points.shape[1],
        )
        return np.maximum(values, 0.0)

    def cross_divergence_grouped(
        self,
        points: np.ndarray,
        queries: np.ndarray,
        point_index: np.ndarray,
        query_index: np.ndarray,
        pair_block: int | None = None,
        point_terms: tuple[np.ndarray, ...] | None = None,
    ) -> np.ndarray:
        """Sparse expansion kernel: score only the listed pairs.

        Transcendental work stays ``O((n + B) d)`` exactly as in the
        dense kernel (per-point and per-query terms are computed once,
        or passed in as ``point_terms`` of all of ``points``); the
        per-pair cost is one gathered sum-of-products contraction, so
        total work is ``O(P d)`` for ``P`` pairs instead of the dense
        ``O(n B d)``.  ``pair_block`` bounds the ``(block, d)`` gather
        slabs (default ~2^20 float64 elements); blocking is an output
        partition and cannot change any value.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        queries = np.atleast_2d(np.asarray(queries, dtype=float))
        point_index = np.asarray(point_index, dtype=int)
        query_index = np.asarray(query_index, dtype=int)
        if point_index.shape != query_index.shape or point_index.ndim != 1:
            raise ValueError(
                "point_index and query_index must be 1-D arrays of equal length"
            )
        n_pairs = point_index.size
        if n_pairs == 0:
            return np.empty(0, dtype=float)
        if pair_block is None:
            pair_block = max(1, (1 << 20) // max(1, points.shape[1]))
        if point_terms is None:
            point_terms = self.point_terms(points)
        grad_q, *query_terms = self._query_terms(queries)
        out = np.empty(n_pairs, dtype=float)
        for lo in range(0, n_pairs, pair_block):
            hi = min(lo + pair_block, n_pairs)
            pi, qi = point_index[lo:hi], query_index[lo:hi]
            out[lo:hi] = self._combine(
                [term[pi] for term in point_terms],
                [term[qi] for term in query_terms],
                pair_contract(points, grad_q, pi, qi),
                points.shape[1],
            )
        return np.maximum(out, 0.0)

    def elementwise_divergence(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-coordinate divergence contributions (sums to the total)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        contrib = self.phi(x) - self.phi(y) - self.phi_prime(y) * (x - y)
        return np.maximum(contrib, 0.0)

    def dual_interpolate(self, a: np.ndarray, b: np.ndarray, theta: float) -> np.ndarray:
        """Point on the dual geodesic between ``a`` (theta=1) and ``b``.

        Returns ``(grad f)^-1( theta * grad f(a) + (1 - theta) * grad f(b) )``,
        the curve along which the minimiser of ``D_f(., q)`` over a Bregman
        ball lies (Cayton 2008, Theorem 2).
        """
        ga = self.phi_prime(np.asarray(a, dtype=float))
        gb = self.phi_prime(np.asarray(b, dtype=float))
        return self.gradient_inverse(theta * ga + (1.0 - theta) * gb)

    def restrict(self, dims: Sequence[int]) -> "DecomposableBregmanDivergence":
        """Separable generators restrict to any dimension subset unchanged."""
        return self

    def centroid(self, points: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
        """Bregman centroid of ``points`` (the arithmetic mean).

        Banerjee et al. (2005): the minimiser of ``sum_i w_i D_f(x_i, c)``
        over ``c`` is the weighted arithmetic mean for *every* Bregman
        divergence, which is what makes Bregman k-means well defined.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.asarray(np.average(points, axis=0, weights=weights), dtype=float)
