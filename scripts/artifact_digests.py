"""Print the sha256 of every dataset file, of every cache file that a pipeline
config reads, and every test accuracy, for each perfbench workload config at
seeds 0..N-1. Two checkouts whose outputs are equal write the same bytes, so
diffing the output of a change and of its parent checks a change meant to keep
every artifact byte-identical. Run from anywhere:

    python3 scripts/artifact_digests.py --seeds 3 > digests.txt

One line per file or accuracy:

    <workload> <seed> data <file> <sha256>
    <workload> <seed> <config #> <stage>/<file in the stage's directory> <sha256>
    <workload> <seed> <config #> accuracy <accuracy>

where <stage> is each of the config's stages that `cache_dirs` names, in
chain order: `whitening` (`transform.vlw`; none without whitening),
`dictionary` (`dictionary.vld`), `encoder` (one `.vle` per test image) and
`classifier` (`model.vlm`). Configs that agree up to a stage share its
directory, and so its lines. A directory's name hashes the absolute
directory of the manifests, so the stage stands in for it.

With `--dump DIR`, each config's stage directories are also copied to
DIR/<workload>/<seed>/<config #>/<stage>. `scripts/artifact_compare.py`
compares two such dumps numerically.

Each pass runs in a fresh temporary directory, and the script exits non-zero
if a pass leaves a directory in its work directory that no config's
`cache_dirs` names: a `.tmp-*` build directory (a clean run publishes every
directory it builds) or a stage built under a key its config does not give.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
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
    parser.add_argument("--dump", type=Path, help="a new directory to keep the artifacts in")
    args = parser.parse_args(argv)
    if args.dump is not None and args.dump.exists():
        parser.error(f"--dump {args.dump} already exists")

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
                named = set()
                for i, fields in enumerate(workload.configs):
                    config = PipelineConfig(seed=seed, **fields)
                    report = run_pipeline(config, train, test, work)
                    stages = cache_dirs(config, train, test, work)
                    named.update(directory.name for directory in stages.values())
                    for stage, directory in stages.items():
                        for path in _files(directory):
                            rel = path.relative_to(directory).as_posix()
                            print(name, seed, i, f"{stage}/{rel}", _sha256(path))
                    print(name, seed, i, "accuracy", repr(report.accuracy), flush=True)
                    if args.dump is not None:
                        kept = args.dump / name / str(seed) / str(i)
                        for stage, directory in stages.items():
                            shutil.copytree(directory, kept / stage)
                leftovers = sorted(p.name for p in work.iterdir() if p.name not in named)
                if leftovers:
                    sys.exit(f"{name} seed {seed}: a clean pass left {leftovers} in its work dir,"
                             " which no config's cache_dirs names")


if __name__ == "__main__":
    main()
