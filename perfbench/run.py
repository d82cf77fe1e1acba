"""vladkit benchmark entry point. Run from the root of a checkout:

    python3 perfbench/run.py --workload small-grid-lsa-a --seed 0 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics; --trace 1 is the separate traced
run that reports the per-layer metrics. The last line of standard output is
the result object; the full report goes to perfbench/_out/. The exit code is
0 when every correctness check passed, 1 when one failed, and 2 when the
benchmark cannot run (no vladkit sources next to it, bad arguments).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DEFAULT_SEED = 0
# One BLAS thread: the workloads' matrices are small, one thread runs them
# faster and steadier here than two, and k-means is bit-reproducible only
# single-threaded (see vladkit.codebook), which the recorded accuracies need.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> None:
    """Cap BLAS threads before NumPy loads and put the checkout's src/ first
    on the import path. Exits with code 2 if there is no vladkit source."""
    if not (SRC / "vladkit" / "__init__.py").is_file():
        print(f"perfbench: no vladkit sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))


def main(argv: list[str] | None = None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import harness
    import vladkit

    if not Path(vladkit.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported vladkit from {vladkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work_dir = BENCH_DIR / "_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        result = harness.run(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace), work_dir, BENCH_DIR / "_out")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    prepare()
    sys.exit(main())
