"""Fig. 8: I/O cost as the number of partitions M varies."""

from __future__ import annotations

import pytest

from conftest import column, rows_by
from repro import BrePartitionConfig, BrePartitionIndex
from repro.datasets import load_dataset
from repro.eval.experiments import experiment_fig08_09_m_sweep


@pytest.fixture(scope="module")
def report(save_report):
    rep = experiment_fig08_09_m_sweep(
        dataset_name="fonts", m_values=(2, 4, 8, 16, 32), ks=(20, 60, 100), n=1500
    )
    save_report("fig08_09_m_sweep", rep)
    return rep


def test_fig08_grid_complete(report):
    assert len(report.rows) == 5 * 3


def test_fig08_io_below_full_scan(report):
    """The filter must prune: I/O below the dataset's page count."""
    ds = load_dataset("fonts", n=1500, n_queries=8, seed=0)
    total_pages = -(-ds.n * ds.d * 8 // ds.page_size_bytes)
    ios = column(report, report.rows, "io_pages")
    assert min(ios) < total_pages


def test_fig08_io_grows_with_k(report):
    """Within any M, larger k cannot reduce I/O (radii only grow)."""
    for m in (2, 8, 32):
        rows = rows_by(report, M=m)
        ios = {row[report.headers.index("k")]: row[report.headers.index("io_pages")] for row in rows}
        assert ios[20] <= ios[100] + 1.0


def test_benchmark_bp_search_m8(benchmark):
    ds = load_dataset("fonts", n=1500, n_queries=5, seed=0)
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
