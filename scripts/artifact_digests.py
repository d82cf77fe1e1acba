"""Print the sha256 of every dataset file, of every cache file that a pipeline
config reads, and every test accuracy, for each perfbench workload config at
seeds 0..N-1. Two checkouts whose outputs are equal write the same bytes, so
diffing the output of a change and of its parent checks a change meant to keep
every artifact byte-identical. Run from anywhere:

    python3 scripts/artifact_digests.py --seeds 3 > digests.txt

One line per file or accuracy:

    <workload> <seed> data <file> <sha256>
    <workload> <seed> <config #> dict/<path inside the stage directory> <sha256>
    <workload> <seed> <config #> cache/<path inside the config directory> <sha256>
    <workload> <seed> <config #> accuracy <accuracy>

Each pass runs in a fresh temporary directory, and the script exits non-zero
if a pass leaves a `.tmp-*` build directory in its work directory: a clean
run publishes every directory it builds. A config reads the transform
and dictionary from its stage directory, which configs with the same stage
inputs share, and its model and test encodings from its own directory. A
directory's name hashes the absolute directory of the manifests, so the
directory's kind (`dict`, `cache`) stands in for it.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(prog="scripts/artifact_digests.py")
    parser.add_argument("--seeds", type=int, default=3, help="run seeds 0..N-1")
    args = parser.parse_args(argv)

    # Cap BLAS at one thread before NumPy loads, to match the benchmark's pin.
    # Artifacts were measured byte-identical with two threads too.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from make_dataset import make_dataset
    from workloads import WORKLOADS

    from vladkit import PipelineConfig, run_pipeline
    from vladkit.pipeline import cache_dirs

    for name, workload in WORKLOADS.items():
        for seed in range(args.seeds):
            with tempfile.TemporaryDirectory() as tmp:
                data, work = Path(tmp) / "data", Path(tmp) / "work"
                train, test = make_dataset(workload.synth, workload.train_per_class, seed, data)
                for path in _files(data):
                    print(name, seed, "data", path.relative_to(data).as_posix(), _sha256(path))
                for i, fields in enumerate(workload.configs):
                    config = PipelineConfig(seed=seed, **fields)
                    report = run_pipeline(config, train, test, work)
                    for directory in cache_dirs(config, train, test, work):
                        kind = directory.name.partition("_")[0]
                        for path in _files(directory):
                            rel = path.relative_to(directory).as_posix()
                            print(name, seed, i, f"{kind}/{rel}", _sha256(path))
                    print(name, seed, i, "accuracy", repr(report.accuracy), flush=True)
                leftovers = sorted(p.name for p in work.glob(".tmp-*"))
                if leftovers:
                    sys.exit(f"{name} seed {seed}: a clean pass left {leftovers} in its work dir")


if __name__ == "__main__":
    main()
