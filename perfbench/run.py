"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload fonts-batch --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload with spans recorded at each layer boundary, prints the
per-layer metrics and writes the spans as trace-event JSON under
``perfbench/out/``.  A line ``{"record": ...}`` with the host, seed,
sample counts and the brute-force floors precedes the result line.
The exit code is 1 when any answer differs from the brute-force
oracle, and 2 when the repository's sources are not beside this
directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# One BLAS/OpenMP thread: on a small shared host, BLAS threads contend
# with the benchmark's own threads and with neighbours, which widens
# run-to-run spread.  Set before NumPy is first imported; the record
# reports the values in force.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--n", type=int, default=None, help="points per dataset (default 8000)"
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}"
        )
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    n = args.n if args.n is not None else workloads.N_POINTS
    outcome = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), n=n
    )
    units = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    print(json.dumps({"record": outcome.record}, default=str))
    print(
        json.dumps(
            {
                "correct": outcome.wrong == 0,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": outcome.metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if outcome.wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
