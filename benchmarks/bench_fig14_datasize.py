"""Fig. 14: impact of data size (sift proxy, n sweep, fixed M)."""

from __future__ import annotations

import pytest

from conftest import column, rows_by
from repro import BrePartitionConfig, BrePartitionIndex
from repro.datasets import load_dataset
from repro.eval.experiments import experiment_fig14_datasize


@pytest.fixture(scope="module")
def report(save_report):
    rep = experiment_fig14_datasize(sizes=(1000, 2000, 4000), k=20, m=8)
    save_report("fig14_datasize", rep)
    return rep


def test_fig14_grid_complete(report):
    assert len(report.rows) == 3 * 3


def test_fig14_io_grows_with_n(report):
    """Paper shape: near-linear growth of I/O in dataset size."""
    for method in ("BP", "VAF", "BBT"):
        ios = column(report, rows_by(report, method=method), "io_pages")
        assert ios[0] < ios[-1]


def test_fig14_growth_roughly_linear(report):
    """4x the data should cost between 1.5x and 8x the I/O (linear-ish)."""
    for method in ("BP", "BBT"):
        ios = column(report, rows_by(report, method=method), "io_pages")
        ratio = ios[-1] / max(ios[0], 1e-9)
        assert 1.5 <= ratio <= 8.0


@pytest.mark.parametrize("n", [1000, 4000])
def test_benchmark_bp_by_datasize(benchmark, n):
    ds = load_dataset("sift", n=n, n_queries=5, seed=0)
    index = BrePartitionIndex(
        ds.divergence,
        BrePartitionConfig(
            n_partitions=8,
            page_size_bytes=ds.page_size_bytes,
            seed=0,
            plan_route="forest",
        ),
    ).build(ds.points)
    benchmark.pedantic(index.search, args=(ds.queries[0], 20), rounds=3, iterations=1)
