"""Property-based tests (hypothesis) for the library's core invariants.

The numbered invariants the sections below refer to are: (1) bound
validity -- Theorems 1-2 and the decomposition identity; (2) end-to-end
exactness against brute force; (3) ball / range soundness; (4) the
divergence laws -- non-negativity, zero self-divergence, additivity over
partitions; (5) centroids and covering balls.  Each is exercised over
randomly generated vectors, radii and partitionings rather than fixed
fixtures.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import BrePartitionConfig, BrePartitionIndex, brute_force_knn
from repro.bbtree import BBTree
from repro.divergences import (
    ExponentialDistance,
    GeneralizedKL,
    ItakuraSaito,
    SquaredEuclidean,
)
from repro.geometry import (
    compute_upper_bound,
    cross_term,
    min_divergence_to_ball,
    transform_point,
    transform_query,
)
from repro.geometry.ball import BregmanBall
from repro.partitioning import Partitioning

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------

DIM = 6

real_vectors = arrays(
    dtype=np.float64,
    shape=DIM,
    elements=st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
)

positive_vectors = arrays(
    dtype=np.float64,
    shape=DIM,
    elements=st.floats(0.05, 20.0, allow_nan=False, allow_infinity=False),
)

DIVERGENCE_CASES = [
    (SquaredEuclidean(), real_vectors),
    (ExponentialDistance(), real_vectors),
    (ItakuraSaito(), positive_vectors),
    (GeneralizedKL(), positive_vectors),
]


@st.composite
def random_partitionings(draw):
    """Random disjoint covering partition of range(DIM)."""
    m = draw(st.integers(1, DIM))
    perm = draw(st.permutations(range(DIM)))
    cuts = sorted(draw(st.sets(st.integers(1, DIM - 1), min_size=m - 1, max_size=m - 1)))
    pieces, start = [], 0
    for cut in cuts + [DIM]:
        pieces.append(list(perm[start:cut]))
        start = cut
    return Partitioning.from_lists(pieces, DIM)


# ----------------------------------------------------------------------
# invariant 1: bound validity
# ----------------------------------------------------------------------


class TestBoundValidityProperty:
    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_theorem1_upper_bound(self, div, vectors):
        @given(x=vectors, y=vectors)
        @settings(max_examples=60, deadline=None)
        def check(x, y):
            bound = compute_upper_bound(transform_point(div, x), transform_query(div, y))
            assert bound >= div.divergence(x, y) - 1e-6

        check()

    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_decomposition_identity(self, div, vectors):
        @given(x=vectors, y=vectors)
        @settings(max_examples=60, deadline=None)
        def check(x, y):
            p = transform_point(div, x)
            q = transform_query(div, y)
            value = p.alpha + q.alpha + cross_term(div, x, y) + q.beta_yy
            assert value == pytest.approx(div.divergence(x, y), rel=1e-6, abs=1e-6)

        check()

    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_theorem2_over_random_partitionings(self, div, vectors):
        @given(x=vectors, y=vectors, partitioning=random_partitionings())
        @settings(max_examples=40, deadline=None)
        def check(x, y, partitioning):
            total = 0.0
            for dims in partitioning.subspaces:
                sub = div.restrict(dims)
                total += compute_upper_bound(
                    transform_point(sub, x[dims]), transform_query(sub, y[dims])
                )
            assert total >= div.divergence(x, y) - 1e-6

        check()


# ----------------------------------------------------------------------
# invariant 4: divergence laws
# ----------------------------------------------------------------------


class TestDivergenceLawsProperty:
    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_non_negativity(self, div, vectors):
        @given(x=vectors, y=vectors)
        @settings(max_examples=60, deadline=None)
        def check(x, y):
            assert div.divergence(x, y) >= 0.0

        check()

    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_self_divergence_zero(self, div, vectors):
        @given(x=vectors)
        @settings(max_examples=60, deadline=None)
        def check(x):
            assert div.divergence(x, x) == pytest.approx(0.0, abs=1e-8)

        check()

    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_cumulative_over_partitions(self, div, vectors):
        @given(x=vectors, y=vectors, partitioning=random_partitionings())
        @settings(max_examples=40, deadline=None)
        def check(x, y, partitioning):
            total = sum(
                div.restrict(dims).divergence(x[dims], y[dims])
                for dims in partitioning.subspaces
            )
            assert total == pytest.approx(div.divergence(x, y), rel=1e-6, abs=1e-6)

        check()


# ----------------------------------------------------------------------
# invariant 3: ball / range soundness
# ----------------------------------------------------------------------


class TestBallProperty:
    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_ball_lower_bound_valid_for_members(self, div, vectors):
        @given(
            member=vectors,
            center=vectors,
            query=vectors,
            slack=st.floats(0.0, 5.0),
        )
        @settings(max_examples=40, deadline=None)
        def check(member, center, query, slack):
            radius = div.divergence(member, center) + slack
            lower = min_divergence_to_ball(div, center, radius, query, max_iter=48)
            assert lower <= div.divergence(member, query) + 1e-6

        check()


# ----------------------------------------------------------------------
# invariant 2: end-to-end exactness on random data
# ----------------------------------------------------------------------


class TestExactnessProperty:
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 10),
        m=st.integers(1, 6),
    )
    @settings(max_examples=12, deadline=None)
    def test_brepartition_exact_random(self, seed, k, m):
        rng = np.random.default_rng(seed)
        points = np.exp(rng.normal(0.0, 0.7, size=(80, DIM)))
        query = np.exp(rng.normal(0.0, 0.7, size=DIM))
        div = ItakuraSaito()
        index = BrePartitionIndex(
            div, BrePartitionConfig(n_partitions=m, seed=seed, page_size_bytes=512)
        ).build(points)
        result = index.search(query, k=k)
        _, true_dists = brute_force_knn(div, points, query, k)
        np.testing.assert_allclose(result.divergences, true_dists, rtol=1e-6, atol=1e-9)

    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    @settings(max_examples=10, deadline=None)
    def test_bbtree_exact_random(self, seed, k):
        rng = np.random.default_rng(seed)
        points = rng.normal(0.0, 1.0, size=(70, DIM))
        query = rng.normal(0.0, 1.0, size=DIM)
        div = SquaredEuclidean()
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(seed)).build(points)
        ids, dists, _ = tree.knn(query, k)
        _, true_dists = brute_force_knn(div, points, query, k)
        np.testing.assert_allclose(np.sort(dists), true_dists, rtol=1e-8, atol=1e-10)

    @given(seed=st.integers(0, 10_000), pct=st.integers(5, 95))
    @settings(max_examples=10, deadline=None)
    def test_range_query_soundness_random(self, seed, pct):
        rng = np.random.default_rng(seed)
        points = rng.normal(0.0, 1.0, size=(60, DIM))
        query = rng.normal(0.0, 1.0, size=DIM)
        div = SquaredEuclidean()
        dists = div.batch_divergence(points, query)
        radius = float(np.percentile(dists, pct))
        tree = BBTree(div, leaf_capacity=8, rng=np.random.default_rng(seed)).build(points)
        exact = set(tree.range_query(query, radius, point_filter=True).point_ids.tolist())
        coarse = set(tree.range_query(query, radius).point_ids.tolist())
        expected = set(np.flatnonzero(dists <= radius).tolist())
        assert exact == expected
        assert expected <= coarse


# ----------------------------------------------------------------------
# invariant 5: covering balls really cover
# ----------------------------------------------------------------------


class TestCentroidProperty:
    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_centroid_minimises_total_divergence(self, div, vectors):
        """Banerjee et al.: the mean minimises sum_i D(x_i, c) over c."""

        @given(data=st.lists(vectors, min_size=3, max_size=8), probe=vectors)
        @settings(max_examples=30, deadline=None)
        def check(data, probe):
            points = np.stack(data)
            mean = div.centroid(points)
            at_mean = float(np.sum(div.batch_divergence(points, mean)))
            at_probe = float(np.sum(div.batch_divergence(points, probe)))
            assert at_mean <= at_probe + 1e-6

        check()

    @pytest.mark.parametrize("div,vectors", DIVERGENCE_CASES)
    def test_covering_ball_property(self, div, vectors):
        @given(data=st.lists(vectors, min_size=2, max_size=10))
        @settings(max_examples=30, deadline=None)
        def check(data):
            points = np.stack(data)
            ball = BregmanBall.covering(div, points)
            for row in points:
                assert ball.contains(div, row)

        check()
