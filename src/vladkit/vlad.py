"""VLAD aggregation and normalization.

The raw encoding is one D-dimensional residual block per visual word:
block m accumulates weight_m(x_i) * (x_i - d_m) over all descriptors, where
the weights come from any of the assignment strategies. Blocks are laid out
consecutively, word 0 first.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from .assignment import weight_matrix
from .codebook import Dictionary
from .errors import VladkitError
from .fileio import FeatureMap
from .whitening import WhiteningTransform, apply_whitening_batch, l2_normalize, l2_normalize_rows

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

NORM_SCHEMES = ("intra-then-global", "global-only", "signed-sqrt-then-global")


def vlad_aggregate(
    dictionary: Dictionary, descriptors: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Raw (unnormalized) M*D residual vector of P descriptors, (..., P, D),
    under their (..., P, M) assignment weights; leading axes index images."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    shape = descriptors.shape
    if len(shape) < 2 or shape[-2] == 0:
        raise VladkitError("need at least one descriptor")
    if shape[-1] != dictionary.dim or weights.shape != (*shape[:-1], dictionary.num_words):
        raise VladkitError(f"descriptors {shape} or weights {weights.shape} do not fit the words")
    # block m = sum_i w_im x_i - (sum_i w_im) d_m, one product per image
    blocks = weights.swapaxes(-1, -2) @ descriptors
    blocks -= np.add.reduce(weights, axis=-2)[..., None] * dictionary.centers
    return blocks.reshape(*shape[:-2], -1)


def vlad_normalize(
    raw: np.ndarray, num_words: int, dim: int, scheme: str = "intra-then-global", out=None
) -> np.ndarray:
    """Each raw vector along raw's last axis, normalized (into `out` when given)."""
    raw = np.asarray(raw, dtype=np.float64)
    if raw.ndim == 0 or raw.shape[-1] != num_words * dim:
        raise VladkitError(f"raw shape {raw.shape} does not end in {num_words}*{dim}")
    if scheme == "intra-then-global":
        raw = l2_normalize_rows(raw.reshape(*raw.shape[:-1], num_words, dim)).reshape(raw.shape)
    elif scheme == "signed-sqrt-then-global":
        raw = np.sign(raw) * np.sqrt(np.abs(raw))
    elif scheme != "global-only":
        raise VladkitError(f"unknown normalization scheme {scheme!r}")
    return l2_normalize(raw, out=out)


def encode_descriptors(
    dictionary: Dictionary, descriptors: np.ndarray, weights: np.ndarray, scheme: str, out=None
) -> np.ndarray:
    """Aggregate + normalize descriptor sets, (..., P, D), under their
    assignment weights (see vlad_aggregate), into `out` when given. The
    all-zero raw vector maps to the all-zero encoding."""
    raw = vlad_aggregate(dictionary, descriptors, weights)
    return vlad_normalize(raw, dictionary.num_words, dictionary.dim, scheme, out)


def encode(
    fmaps: Sequence[FeatureMap],
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> np.ndarray:
    """The (N, M*D) encodings of N maps of one H x W x D shape, each whitened and
    assigned on its own, then aggregated and normalized as one batch. A global L2
    per row ends it, so that a row is bit-identical to a single-region pyramid."""
    n, cells = len(fmaps), fmaps[0].height * fmaps[0].width
    x, w = np.empty((n, cells, dictionary.dim)), np.empty((n, cells, dictionary.num_words))
    for fmap, x_i, w_i in zip(fmaps, x, w):
        descriptors = fmap.descriptors().astype(np.float64)
        if transform is not None:
            descriptors = apply_whitening_batch(transform, descriptors)
        w_i[:] = weight_matrix(dictionary, descriptors, config)
        x_i[:] = descriptors
    encodings = encode_descriptors(dictionary, x, w, config.norm_scheme)
    return l2_normalize(encodings, out=encodings)
