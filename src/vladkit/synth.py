"""Synthetic feature-map datasets for desk-scale verification.

Two constructions:

* descriptor-signal: classes differ in which mixture components their
  descriptors come from (per-class component counts are fixed, so with zero
  noise the per-image mean descriptor identifies the class exactly).
  Spatial placement is a random permutation, so a 1x1 encoding suffices.

* spatial-signal: every class sees the *same* multiset of descriptors per
  image index; classes differ only in how the shared bag is laid out on the
  grid. The bag is grouped by mixture component and each class fills the
  grid cells in a class-specific traversal order, so only encoders that see
  spatial structure (pyramids finer than 1x1) can separate the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import VladkitError
from .fileio import DatasetManifest, FeatureMap, nonempty, save_manifest, write_feature_map

_NUM_COMPONENT_GROUPS = 4  # spatial-signal bag groups; matches 2x2 quadrant count


@dataclass(frozen=True)
class SynthSpec:
    num_classes: int
    images_per_class: int
    grid_h: int
    grid_w: int
    dim: int
    mode: str = "descriptor-signal"  # or "spatial-signal"
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("descriptor-signal", "spatial-signal"):
            raise VladkitError(f"unknown synth mode {self.mode!r}")
        for name in ("num_classes", "images_per_class", "grid_h", "grid_w", "dim"):
            if getattr(self, name) < 1:
                raise VladkitError(f"{name} must be positive")
        if not 0 <= self.noise_sigma < math.inf:
            raise VladkitError(f"noise_sigma must be finite and nonnegative, got {self.noise_sigma}")
        # The largest arrays drawn are (H*W, D), (C, D) and (C, C) float64. One that
        # NumPy cannot index is refused here, as PyramidSpec.encoding_length does; one
        # too large for the host fails when it is allocated (MemoryError).
        cells = self.grid_h * self.grid_w
        largest = max(cells * self.dim, self.num_classes * max(self.dim, self.num_classes))
        if largest * 8 > np.iinfo(np.intp).max:
            raise VladkitError(
                f"{self.num_classes} classes of {self.grid_h}x{self.grid_w}x{self.dim} maps:"
                " arrays too large to index"
            )


def _largest_remainder_counts(total: int, proportions: np.ndarray) -> np.ndarray:
    """Integer allocation of `total` items with the largest-remainder method.
    Remainder ties go to the lowest index, keeping the split deterministic."""
    raw = proportions * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    order = np.argsort(-(raw - counts), kind="stable")
    counts[order[:short]] += 1
    return counts


def class_proportions(num_classes: int) -> np.ndarray:
    """Mixture proportions for descriptor-signal class c: weight 0.6 on
    component c and 0.4 on component c+1 (cyclic). Each class occupies a
    distinct component pair, so the class identity shows up in *which*
    visual words an image touches, not just in residual magnitudes."""
    if num_classes == 1:
        return np.array([[1.0]])
    p = np.zeros((num_classes, num_classes))
    for c in range(num_classes):
        p[c, c] = 0.6
        p[c, (c + 1) % num_classes] = 0.4
    return p


def _cell_order(h: int, w: int, pattern: int) -> np.ndarray:
    """Four grid traversals: row-major, reverse row-major, column-major,
    reverse column-major. Returns flat row-major cell indices in visit order."""
    idx = np.arange(h * w).reshape(h, w)
    if pattern == 0:
        return idx.reshape(-1)
    if pattern == 1:
        return idx[::-1, ::-1].reshape(-1)
    if pattern == 2:
        return idx.T.reshape(-1)
    return idx.T[::-1, ::-1].reshape(-1)


def _descriptor_signal_images(spec: SynthSpec, rng: np.random.Generator):
    n = spec.grid_h * spec.grid_w
    components = rng.normal(size=(spec.num_classes, spec.dim)) * 2.0
    # Small class-specific shift within each component: keeps codebook
    # clusters intact but gives residuals a systematic, class-dependent
    # direction that survives per-word normalization.
    offsets = rng.normal(size=(spec.num_classes, spec.dim))
    offsets *= 0.3 / np.linalg.norm(offsets, axis=1, keepdims=True)
    proportions = class_proportions(spec.num_classes)
    for c in range(spec.num_classes):
        counts = _largest_remainder_counts(n, proportions[c])
        base = np.repeat(np.arange(spec.num_classes), counts)
        for i in range(spec.images_per_class):
            noise = rng.normal(size=(n, spec.dim)) * spec.noise_sigma
            desc = components[base] + offsets[c] + noise
            placement = rng.permutation(n)
            grid = np.empty((n, spec.dim))
            grid[placement] = desc
            yield c, i, grid.reshape(spec.grid_h, spec.grid_w, spec.dim)


def _spatial_signal_images(spec: SynthSpec, rng: np.random.Generator):
    n = spec.grid_h * spec.grid_w
    g = _NUM_COMPONENT_GROUPS
    components = rng.normal(size=(g, spec.dim)) * 2.0
    counts = _largest_remainder_counts(n, np.full(g, 1.0 / g))
    base = np.repeat(np.arange(g), counts)
    # Graded within-group offset along a per-group direction. It is part of
    # the shared bag (identical for every class), but it ties each bag slot
    # to a recognizable descriptor value, so the residuals inside a pyramid
    # region point in a class-dependent direction instead of averaging to
    # noise. Without it, per-region word blocks carry only occupancy counts,
    # which intra-normalization erases.
    drift_dir = rng.normal(size=(g, spec.dim))
    drift_dir /= np.linalg.norm(drift_dir, axis=1, keepdims=True)
    frac = np.concatenate([np.arange(c) / max(1, c - 1) - 0.5 for c in counts])
    slot_means = components[base] + drift_dir[base] * frac[:, None] * 1.4
    # One shared bag per image index; classes only permute its placement.
    shift_unit = max(1, n // (2 * (1 + spec.num_classes // 4)))
    for i in range(spec.images_per_class):
        bag = slot_means + rng.normal(size=(n, spec.dim)) * spec.noise_sigma
        for c in range(spec.num_classes):
            order = _cell_order(spec.grid_h, spec.grid_w, c % 4)
            shift = (c // 4) * shift_unit
            grid = np.empty((n, spec.dim))
            grid[order] = np.roll(bag, -shift, axis=0)
            yield c, i, grid.reshape(spec.grid_h, spec.grid_w, spec.dim)


def synth_dataset(spec: SynthSpec, out_dir) -> DatasetManifest:
    """Write the feature-map files plus a `manifest.tsv` into out_dir and
    return the manifest. Pure function of (spec.seed, spec): identical specs
    produce byte-identical directories."""
    out_dir = Path(nonempty(out_dir))
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(spec.seed)
    spatial = spec.mode == "spatial-signal"
    images = _spatial_signal_images if spatial else _descriptor_signal_images
    entries = []
    # A noise_sigma too large for float32 overflows to inf, which FeatureMap refuses.
    with np.errstate(over="ignore"):
        for c, i, grid in images(spec, rng):
            name = f"c{c:03d}_i{i:04d}.vlf"
            write_feature_map(FeatureMap(grid.astype(np.float32)), out_dir / name)
            entries.append((c, i, name))
    entries = [(name, c) for c, _, name in sorted(entries)]  # by class, then image
    manifest = DatasetManifest(tuple(entries), out_dir)
    save_manifest(manifest, out_dir / "manifest.tsv")
    return manifest


def split_manifest(
    manifest: DatasetManifest, per_class: int, seed: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Seeded n-per-class train/test split. Entries keep manifest order."""
    if per_class < 0:
        raise VladkitError(f"per_class must be at least 0, got {per_class}")
    rng = np.random.default_rng(seed)
    by_label: dict[int, list[int]] = {}
    for i, (_, label) in enumerate(manifest.entries):
        by_label.setdefault(label, []).append(i)
    train_idx: set[int] = set()
    for _, idx in sorted(by_label.items()):  # an absent label would draw nothing
        chosen = rng.permutation(len(idx))[:per_class]
        train_idx.update(idx[j] for j in chosen)
    train = [e for i, e in enumerate(manifest.entries) if i in train_idx]
    test = [e for i, e in enumerate(manifest.entries) if i not in train_idx]
    if not train or not test:  # load_manifest rejects an empty manifest
        raise VladkitError(f"per_class {per_class} empties the {'test' if train else 'train'} split")
    return (
        DatasetManifest(tuple(train), manifest.root),
        DatasetManifest(tuple(test), manifest.root),
    )
