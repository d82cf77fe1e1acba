"""Spatial pyramid pooling over the descriptor grid.

Each pyramid level (r, c) cuts the H x W grid into r*c regions with
floor-proportional boundaries; every region gets its own VLAD encoding and
the segments follow level by level (row-major within a level) in one
preallocated encoding, then it is globally L2-normalized. Empty regions
keep an all-zero segment.
encode_spm takes a batch of maps of one shape. A descriptor's whitened form
and weights do not depend on its region, so each image is whitened and
assigned once, and each region is aggregated and normalized once for the
batch: one (N, P, M)^T (N, P, D) product over the region's P cells.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import vlad
from .codebook import Dictionary
from .errors import VladkitError
from .fileio import FeatureMap
from .vlad import encode_descriptors
from .whitening import WhiteningTransform, apply_whitening_batch, l2_normalize

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

PRESETS = {
    "a": ((1, 1), (2, 2), (3, 1)),
    "b": ((1, 1), (2, 2), (1, 3)),
    "c": ((1, 1), (2, 2), (4, 4)),
}


@dataclass(frozen=True)
class PyramidSpec:
    levels: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if not self.levels:
            raise VladkitError("pyramid needs at least one level")
        for r, c in self.levels:
            if r < 1 or c < 1:
                raise VladkitError(f"bad pyramid level ({r}, {c})")

    @property
    def total_regions(self) -> int:
        return sum(r * c for r, c in self.levels)

    def encoding_length(self, dictionary: Dictionary, images: int = 1) -> int:
        """total_regions * words * dim, refused when `images` float64
        encodings of that length hold more bytes than NumPy can index."""
        length = self.total_regions * dictionary.num_words * dictionary.dim
        if images * length * 8 > np.iinfo(np.intp).max:
            raise VladkitError(f"{self.total_regions}-region pyramid: encoding too long to index")
        return length


def parse_pyramid(text: str) -> PyramidSpec:
    """Accepts a preset name (a, b, c) or a custom "RxC,RxC,..." string."""
    if text in PRESETS:
        return PyramidSpec(PRESETS[text])
    levels = []
    for part in text.split(","):
        try:
            r, c = (int(p) for p in part.lower().split("x"))
        except ValueError:  # not a number, or not two parts
            raise VladkitError(f"bad pyramid level {part!r}; expected RxC") from None
        levels.append((r, c))
    return PyramidSpec(tuple(levels))


def region_bounds(n: int, parts: int) -> list[tuple[int, int]]:
    """Floor-proportional split of [0, n) into `parts` half-open intervals."""
    return [(i * n // parts, (i + 1) * n // parts) for i in range(parts)]


@functools.lru_cache(maxsize=64)
def region_slices(height: int, width: int, spec: PyramidSpec) -> list[tuple[slice, slice]]:
    """(rows, cols) slices of every region of a height x width grid, level
    by level, then row-major within a level: the order of the segments.
    Computed once per grid and pyramid, so callers share the list."""
    return [
        (slice(r0, r1), slice(c0, c1))
        for r, c in spec.levels
        for r0, r1 in region_bounds(height, r)
        for c0, c1 in region_bounds(width, c)
    ]


def encode_spm(
    fmaps: Sequence[FeatureMap],
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
    spec: PyramidSpec,
) -> np.ndarray:
    """The (N, length) pyramid encodings of N maps of one H x W x D shape:
    each region's segment, in region_slices order, in one preallocated array
    (an empty region keeps its zeros), then one global L2 per row."""
    n, height, width = len(fmaps), fmaps[0].height, fmaps[0].width
    encodings = np.zeros((n, spec.encoding_length(dictionary, n)))
    x_grid = np.empty((n, height, width, dictionary.dim))
    w_grid = np.empty((n, height, width, dictionary.num_words))
    for fmap, x, w in zip(fmaps, x_grid, w_grid):
        descriptors = fmap.descriptors().astype(np.float64)
        if transform is not None:
            descriptors = apply_whitening_batch(transform, descriptors)
        w.reshape(-1, dictionary.num_words)[:] = vlad.weight_matrix(dictionary, descriptors, config)
        x.reshape(-1, dictionary.dim)[:] = descriptors
    segments = encodings.reshape(n, spec.total_regions, -1)
    for r, (rows, cols) in enumerate(region_slices(height, width, spec)):
        region = x_grid[:, rows, cols].reshape(n, -1, dictionary.dim)
        if region.shape[1]:
            weights = w_grid[:, rows, cols].reshape(n, -1, dictionary.num_words)
            encode_descriptors(dictionary, region, weights, config.norm_scheme, segments[:, r])
    return l2_normalize(encodings, out=encodings)
