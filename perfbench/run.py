"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {train,infer} --seed N \
        --seconds S --trace {0,1} [--size {full,tiny}]

Run it from the repository root. It imports ``pointlap`` from ``src/`` next
to this directory, caps the BLAS pools before numpy loads, and prints a
provenance line, a details line and, last, the result object
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is repeated
under the tracer and the metrics are the per-layer ones. Scratch data and
the full record (spans included) go to ``.perfbench/`` under the root.
"""
from __future__ import annotations

import argparse
import os
import sys

BLAS_THREADS = min(2, os.cpu_count() or 1)
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("train", "infer")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny shrinks every stage (self-test only)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in _THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    try:
        import pointlap  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import pointlap from {os.path.join(ROOT, 'src')}: {exc}",
              file=sys.stderr)
        return 2
    from harness import run_benchmark

    return run_benchmark(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
