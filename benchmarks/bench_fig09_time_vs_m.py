"""Fig. 9: running time as the number of partitions M varies.

Shares the Fig. 8 sweep (the paper plots both metrics from one run);
this file asserts the time-side shape and benchmarks the two M extremes.
"""

from __future__ import annotations

import pytest

from conftest import column, rows_by
from repro import BrePartitionConfig, BrePartitionIndex
from repro.datasets import load_dataset
from repro.eval.experiments import experiment_fig08_09_m_sweep


@pytest.fixture(scope="module")
def report(save_report):
    rep = experiment_fig08_09_m_sweep(
        dataset_name="audio", m_values=(2, 4, 8, 16, 32), ks=(20, 60, 100), n=1500
    )
    save_report("fig09_time_vs_m", rep)
    return rep


def test_fig09_times_positive(report):
    times = column(report, report.rows, "time_ms")
    assert all(t > 0 for t in times)


def test_fig09_large_m_costs_cpu(report):
    """The ascending branch of the paper's U-shape: far beyond the
    optimum, more partitions mean more per-query work."""
    t_small = min(column(report, rows_by(report, M=2, k=20), "time_ms"))
    t_large = min(column(report, rows_by(report, M=32, k=20), "time_ms"))
    assert t_large >= t_small * 0.8  # traversal work must not vanish


@pytest.mark.parametrize("m", [2, 32])
def test_benchmark_bp_search_by_m(benchmark, m):
    ds = load_dataset("audio", n=1500, n_queries=5, seed=0)
    index = BrePartitionIndex(
        ds.divergence,
        BrePartitionConfig(
            n_partitions=m,
            page_size_bytes=ds.page_size_bytes,
            seed=0,
            plan_route="forest",
        ),
    ).build(ds.points)
    benchmark.pedantic(index.search, args=(ds.queries[0], 20), rounds=3, iterations=1)
