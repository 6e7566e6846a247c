#!/usr/bin/env python
"""Regenerate every paper table/figure and write EXPERIMENTS.md.

Runs the experiments of :mod:`repro.eval.experiments` at the default
laptop scale, saves each report under ``benchmarks/results/`` and
rewrites ``EXPERIMENTS.md`` with the measured rows next to the paper's
expected shapes.

Usage:  python benchmarks/run_all.py [--quick] [--only fig10,fig15]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from repro.eval.experiments import ALL_EXPERIMENTS

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
EXPERIMENTS_MD = pathlib.Path(__file__).parent.parent / "EXPERIMENTS.md"

PAPER_SHAPES = {
    "table4": (
        "Table 4 lists the optimised M per dataset (22-50 at full scale). "
        "Reproduced mechanism: calibrate (A, alpha, beta), take the argmin of "
        "T(M).  On the prunable proxies (audio/fonts/deep/sift) the selected "
        "M lands in the same range as the paper's; on the i.i.d. synthetics "
        "(normal/uniform) the measured pruning does not improve with M, so "
        "the optimiser correctly degenerates to M = 1."
    ),
    "fig07": (
        "Paper: VAF builds fastest everywhere; Bregman-ball indexes (BP's "
        "BB-forest, BBT) are about an order slower because of the clustering. "
        "Reproduced: same ordering."
    ),
    "fig08_09": (
        "Paper: I/O falls with M and flattens; running time is U-shaped with "
        "minimum at Theorem 4's M.  Measured: per-subspace candidate sets do "
        "shrink with M, but at this scale the union across subspaces offsets "
        "the gain, so I/O is flat-to-slightly-rising and time rises with M "
        "(the Python tree-traversal term dominates).  The crossover the paper "
        "sees requires the strong per-point bound decay its full-scale real "
        "datasets exhibit (see repro.datasets.proxies for the proxy data)."
    ),
    "fig10": (
        "Paper: PCCP cuts I/O and running time by 20-30% over contiguous "
        "partitioning.  Reproduced: PCCP reduces the candidate union and I/O "
        "on the correlated proxies."
    ),
    "fig11_12": (
        "Paper: BP has the lowest I/O and time for every k; BBT is worst in "
        "high dimensions; all grow slowly with k.  Reproduced: all methods "
        "exact, I/O monotone in k; BP beats the linear scan and is "
        "time-competitive.  Deviation: at n~10^3, BBT's best-first search "
        "with per-query page deduplication is I/O-stronger than at the "
        "paper's 10^5-10^7 scale, and the VA-file's approximation scan is "
        "proportionally cheaper, so the absolute ordering between the three "
        "can flip per dataset."
    ),
    "fig13": (
        "Paper: I/O and time grow with d for all methods; BP grows slowest, "
        "BBT only competitive at low d.  Reproduced: growth with d and "
        "Theorem-4 M adapting to d."
    ),
    "fig14": (
        "Paper: near-linear growth in n, BP lowest, M insensitive to n. "
        "Reproduced: near-linear I/O growth with fixed M."
    ),
    "fig15": (
        "Paper: higher p gives overall ratio closer to 1 at more I/O/time; "
        "ABP beats Var at matched accuracy.  Reproduced: ABP's I/O is never "
        "above exact BP and falls as p falls, with overall ratio staying "
        "within the paper's 1.0-1.1 band; Var trades a little recall for "
        "fewer pages.  Deviation: ABP's CPU time exceeds BP's here because "
        "the radius-widening bisection re-probes the forest -- at the "
        "paper's scale the refinement savings dominate that overhead."
    ),
    "fig15_audio": (
        "Supplementary run on the prunable audio proxy: on i.i.d. normal "
        "data at this scale page-granularity I/O saturates, so ABP's I/O "
        "savings only become visible on data with layout locality.  "
        "Measured here: I/O falls monotonically as p falls, accuracy intact."
    ),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        default=None,
        help="comma-separated experiment keys (default: all)",
    )
    parser.add_argument(
        "--quick", action="store_true", help="unused placeholder for CI symmetry"
    )
    args = parser.parse_args(argv)

    keys = list(ALL_EXPERIMENTS)
    if args.only:
        keys = [k.strip() for k in args.only.split(",") if k.strip()]

    RESULTS_DIR.mkdir(exist_ok=True)
    reports = {}
    for key in keys:
        start = time.perf_counter()
        print(f"[run_all] {key} ...", flush=True)
        report = ALL_EXPERIMENTS[key]()
        reports[key] = report
        (RESULTS_DIR / f"{key}.txt").write_text(report.to_text() + "\n")
        print(report.to_text())
        print(f"[run_all] {key} done in {time.perf_counter() - start:.1f}s\n", flush=True)

    if set(keys) == set(ALL_EXPERIMENTS):
        _write_experiments_md(reports)
        print(f"[run_all] wrote {EXPERIMENTS_MD}")
    return 0


def _write_experiments_md(reports) -> None:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python benchmarks/run_all.py` on the laptop-scale",
        "proxies (the experiment index is `repro.eval.experiments`; the data",
        "substitutions are documented in `repro.datasets.proxies`).  Absolute",
        "values are not comparable to the paper (n is 2-4k here vs 50k-11M",
        "there; Python vs Java; simulated",
        "disk vs SSD); the *shapes* are the reproduction target and each",
        "section states what reproduced and what deviates.",
        "",
    ]
    for key, report in reports.items():
        lines.append(f"## {report.experiment}")
        lines.append("")
        lines.append(f"*Reference:* {report.paper_reference}")
        lines.append("")
        lines.append(f"*Paper vs measured:* {PAPER_SHAPES.get(key, '')}")
        lines.append("")
        lines.append("```")
        lines.append(report.to_text())
        lines.append("```")
        lines.append("")
    EXPERIMENTS_MD.write_text("\n".join(lines))


if __name__ == "__main__":
    sys.exit(main())
