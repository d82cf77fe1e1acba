"""Compare two artifact dumps numerically, for a change that is not meant to
keep every artifact byte-identical. Make each dump with
`scripts/artifact_digests.py --dump DIR` in its own checkout, then run from
anywhere:

    python3 scripts/artifact_compare.py parent-dump change-dump

For each workload and artifact kind (transform, dictionary, encodings, model)
it prints the number of files, the largest absolute difference of a value,
and the largest relative one: a file's largest absolute difference over its
largest magnitude in A. For each workload it then scores each config's dumped
test encodings with its dumped model, using `predict`, and prints how many
test predictions agree between A and B, and the smallest gap between an
image's top two scores in A and in B: how close a prediction came to
flipping. Like `diff`, the script exits 0 only if the dumps are equal: the
same files and shapes, every value equal and every prediction agreeing.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from vladkit import fileio, predict  # noqa: E402
from vladkit.pipeline import load_model  # noqa: E402

# The kind of each dumped file suffix, and its reader.
KINDS = {
    ".vlw": ("transform", fileio.read_whitening),
    ".vld": ("dictionary", fileio.read_dictionary),
    ".vle": ("encodings", fileio.read_encoding),
    ".vlm": ("model", fileio.read_model),
}


def _flat(parts) -> np.ndarray:
    """Every value of what a reader returned (an array or a tuple of them),
    flattened, in float64."""
    parts = parts if isinstance(parts, tuple) else (parts,)
    return np.concatenate([np.ravel(part) for part in parts], dtype=np.float64)


def _scores(config: Path) -> np.ndarray:
    """The (N, C) class scores of a config dump's `classifier/model.vlm` on its
    `encoder/*.vle` test encodings, in file-name order: the zero-padded
    manifest indices."""
    encodings = [fileio.read_encoding(p) for p in sorted((config / "encoder").glob("*.vle"))]
    return predict(load_model(config / "classifier" / "model.vlm"), np.stack(encodings))[1]


def _top_two_gap(scores: np.ndarray) -> float:
    """The smallest difference between a row's largest and second score."""
    top = np.sort(scores, axis=1)[:, -2:]
    return float((top[:, 1] - top[:, 0]).min())


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/artifact_compare.py")
    parser.add_argument("a", type=Path, help="the first dump, e.g. the parent's")
    parser.add_argument("b", type=Path, help="the second dump")
    args = parser.parse_args(argv)

    files_a, files_b = _files(args.a), _files(args.b)
    if files_a != files_b:
        for rel in sorted(files_a ^ files_b):
            print(f"only in {args.a if rel in files_a else args.b}: {rel}")
        return 1
    # (workload, kind) -> [files, largest absolute, largest relative difference]
    diffs = defaultdict(lambda: [0, 0.0, 0.0])
    for rel in sorted(files_a):
        kind, read = KINDS[rel.suffix]
        a, b = _flat(read(args.a / rel)), _flat(read(args.b / rel))
        if a.shape != b.shape:
            print(f"{rel}: {a.size} values != {b.size}")
            return 1
        largest = float(np.abs(a - b).max(initial=0.0))
        scale = float(np.abs(a).max(initial=0.0))
        row = diffs[rel.parts[0], kind]
        row[0] += 1
        row[1] = max(row[1], largest)
        row[2] = max(row[2], largest / scale if scale else np.inf if largest else 0.0)
    # workload -> [agreeing predictions, predictions, smallest gap in A, in B]
    predictions = defaultdict(lambda: [0, 0, np.inf, np.inf])
    for model in sorted(rel for rel in files_a if rel.suffix == ".vlm"):
        a, b = _scores(args.a / model.parent.parent), _scores(args.b / model.parent.parent)
        row = predictions[model.parts[0]]
        row[0] += int((a.argmax(axis=1) == b.argmax(axis=1)).sum())
        row[1] += a.shape[0]
        row[2] = min(row[2], _top_two_gap(a))
        row[3] = min(row[3], _top_two_gap(b))

    print(f"{'workload':<18} {'kind':<11} {'files':>5} {'max abs':>10} {'max rel':>10}")
    for (workload, kind), (count, largest, relative) in sorted(diffs.items()):
        print(f"{workload:<18} {kind:<11} {count:>5} {largest:>10.3g} {relative:>10.3g}")
    print(f"\n{'workload':<18} {'predictions agree':>22} {'min gap A':>10} {'min gap B':>10}")
    for workload, (agree, total, gap_a, gap_b) in sorted(predictions.items()):
        share = f"{agree}/{total} ({agree / max(1, total):.3f})"
        print(f"{workload:<18} {share:>22} {gap_a:>10.3g} {gap_b:>10.3g}")
    differs = any(row[1] for row in diffs.values()) or any(
        agree != total for agree, total, _, _ in predictions.values()
    )
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
