"""Fig. 13: impact of dimensionality (fonts, d = 10..400)."""

from __future__ import annotations

import pytest

from conftest import column, rows_by
from repro import BrePartitionConfig, BrePartitionIndex
from repro.datasets import load_dataset
from repro.eval.experiments import experiment_fig13_dimensionality


@pytest.fixture(scope="module")
def report(save_report):
    rep = experiment_fig13_dimensionality(dims=(10, 50, 100, 200, 400), k=20, n=1200)
    save_report("fig13_dimensionality", rep)
    return rep


def test_fig13_grid_complete(report):
    assert len(report.rows) == 5 * 3


def test_fig13_io_grows_with_d(report):
    """Paper shape: every method's I/O increases with dimensionality
    (more bytes per point means more pages even at equal pruning)."""
    for method in ("BP", "VAF", "BBT"):
        ios = column(report, rows_by(report, method=method), "io_pages")
        assert ios[-1] >= ios[0]


def test_fig13_m_adapts_to_d(report):
    bp_rows = rows_by(report, method="BP")
    ms = column(report, bp_rows, "M")
    ds_ = column(report, bp_rows, "d")
    assert all(1 <= m <= d for m, d in zip(ms, ds_))


@pytest.mark.parametrize("d", [50, 400])
def test_benchmark_bp_by_dimensionality(benchmark, d):
    ds = load_dataset("fonts", n=1200, d=d, n_queries=5, seed=0)
    index = BrePartitionIndex(
        ds.divergence,
        BrePartitionConfig(
            n_partitions=4,
            page_size_bytes=ds.page_size_bytes,
            seed=0,
            plan_route="forest",
        ),
    ).build(ds.points)
    benchmark.pedantic(index.search, args=(ds.queries[0], 20), rounds=3, iterations=1)
