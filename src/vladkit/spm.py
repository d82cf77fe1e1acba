"""Spatial pyramid pooling over the descriptor grid.

Each pyramid level (r, c) cuts the H x W grid into r*c regions with
floor-proportional boundaries; every region gets its own VLAD encoding and
the segments follow level by level (row-major within a level) in one
preallocated encoding, then it is globally L2-normalized. Empty regions
keep an all-zero segment.
encode_spm takes a batch of maps of one shape. A descriptor's whitened form
and weights do not depend on its region, so each image is whitened and
assigned once. Each run of consecutive non-empty regions of one cell count,
which may cross levels, is then encoded by one encode_descriptors call over
the stacked cells of its regions, each region's in the row-major order that
a call of its own takes, so that every segment is the same bit for bit.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    stop = 0
    for cells, run in itertools.groupby(region_slices(height, width, spec), _cell_count):
        start, stop = stop, stop + len(run := list(run))
        if cells:
            x, w = (_stack(grid, run, cells) for grid in (x_grid, w_grid))
            encode_descriptors(dictionary, x, w, config.norm_scheme, segments[:, start:stop])
    return l2_normalize(encodings, out=encodings)


def _cell_count(region: tuple[slice, slice]) -> int:
    return math.prod(part.stop - part.start for part in region)


def _stack(grid: np.ndarray, run: list[tuple[slice, slice]], cells: int) -> np.ndarray:
    """A run's R regions of an (n, H, W, K) grid as one (n, R, cells, K) array."""
    n, k = grid.shape[0], grid.shape[-1]
    if len(run) == 1:  # a view where a reshape allows it: a 1x1 level copies nothing
        return grid[:, run[0][0], run[0][1]].reshape(n, 1, cells, k)
    stack = np.empty((n, len(run), cells, k))
    for region, (rows, cols) in zip(stack.swapaxes(0, 1), run):
        region.reshape(n, rows.stop - rows.start, -1, k)[:] = grid[:, rows, cols]
    return stack
