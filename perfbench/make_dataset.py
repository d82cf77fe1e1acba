"""Write one workload's seeded dataset: feature maps, manifest.tsv, and the
train.tsv / test.tsv split next to them.

The benchmark runs this file as a child process to time set-up (interpreter
start, vladkit import, synth_dataset, split_manifest):

    python3 perfbench/make_dataset.py '<workload synth spec as JSON>' <seed> <out-dir>

with the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from vladkit.fileio import save_manifest
from vladkit.synth import SynthSpec, split_manifest, synth_dataset


def make_dataset(synth: dict, train_per_class: int, seed: int, out_dir) -> tuple[Path, Path]:
    """Returns the (train, test) manifest paths."""
    out_dir = Path(out_dir)
    manifest = synth_dataset(SynthSpec(**synth, seed=seed), out_dir)
    train, test = split_manifest(manifest, train_per_class, seed)
    save_manifest(train, out_dir / "train.tsv")
    save_manifest(test, out_dir / "test.tsv")
    return out_dir / "train.tsv", out_dir / "test.tsv"


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    make_dataset(spec["synth"], spec["train_per_class"], int(sys.argv[2]), sys.argv[3])
