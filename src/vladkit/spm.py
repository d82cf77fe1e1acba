"""Spatial pyramid pooling over the descriptor grid.

Each pyramid level (r, c) cuts the H x W grid into r*c regions with
floor-proportional boundaries; every region gets its own VLAD encoding and
the segments follow level by level (row-major within a level) in one
preallocated encoding, then it is globally L2-normalized. Empty regions
keep an all-zero segment.
A descriptor's whitened form and assignment weights do not depend on the
region it falls in, so the image is whitened and assigned once and each
region aggregates its slice of the two grids.
"""

from __future__ import annotations

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


def region_slices(height: int, width: int, spec: PyramidSpec) -> list[tuple[slice, slice]]:
    """(rows, cols) slices of every region of a height x width grid, level
    by level, then row-major within a level: the order of the segments."""
    return [
        (slice(r0, r1), slice(c0, c1))
        for r, c in spec.levels
        for r0, r1 in region_bounds(height, r)
        for c0, c1 in region_bounds(width, c)
    ]


def encode_spm(
    fmap: FeatureMap,
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
    spec: PyramidSpec,
) -> np.ndarray:
    """The pyramid encoding of one image: every region's segment, in
    region_slices order, then one global L2. The segments are the rows of
    one preallocated array, so an empty region keeps its zeros."""
    encoding = np.zeros(spec.encoding_length(dictionary)).reshape(spec.total_regions, -1)
    descriptors = fmap.descriptors().astype(np.float64)
    if transform is not None:
        descriptors = apply_whitening_batch(transform, descriptors)
    weights = vlad.weight_matrix(dictionary, descriptors, config)
    x_grid = descriptors.reshape(fmap.height, fmap.width, dictionary.dim)
    w_grid = weights.reshape(fmap.height, fmap.width, dictionary.num_words)
    for segment, (rows, cols) in zip(encoding, region_slices(fmap.height, fmap.width, spec)):
        region = x_grid[rows, cols].reshape(-1, dictionary.dim)
        if region.shape[0]:
            region_weights = w_grid[rows, cols].reshape(-1, dictionary.num_words)
            segment[:] = encode_descriptors(dictionary, region, region_weights, config.norm_scheme)
    return l2_normalize(encoding.reshape(-1))
