"""Fig. 10: the PCCP ablation (contiguous "None" vs PCCP)."""

from __future__ import annotations

import pytest

from conftest import column
from repro import BrePartitionConfig, BrePartitionIndex
from repro.datasets import load_dataset
from repro.eval.experiments import experiment_fig10_pccp


@pytest.fixture(scope="module")
def report(save_report):
    rep = experiment_fig10_pccp(
        dataset_names=("audio", "fonts", "deep", "sift"), k=20, m=8, n=1500
    )
    save_report("fig10_pccp", rep)
    return rep


def test_fig10_all_datasets(report):
    assert len(report.rows) == 4


def test_fig10_pccp_reduces_candidates(report):
    """Paper shape: PCCP shrinks the candidate union on correlated data
    (20-30% in the paper; we require a majority-direction win)."""
    none_c = column(report, report.rows, "cand_none")
    pccp_c = column(report, report.rows, "cand_pccp")
    wins = sum(1 for a, b in zip(none_c, pccp_c) if b <= a * 1.02)
    assert wins >= 3


def test_fig10_pccp_io_not_worse(report):
    none_io = sum(column(report, report.rows, "io_none"))
    pccp_io = sum(column(report, report.rows, "io_pccp"))
    assert pccp_io <= none_io * 1.05


@pytest.mark.parametrize("strategy", ["contiguous", "pccp"])
def test_benchmark_search_by_strategy(benchmark, strategy):
    ds = load_dataset("fonts", n=1500, n_queries=5, seed=0)
    index = BrePartitionIndex(
        ds.divergence,
        BrePartitionConfig(
            n_partitions=8,
            strategy=strategy,
            page_size_bytes=ds.page_size_bytes,
            seed=0,
            plan_route="forest",
        ),
    ).build(ds.points)
    benchmark.pedantic(index.search, args=(ds.queries[0], 20), rounds=3, iterations=1)
