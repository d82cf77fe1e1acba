"""VLAD aggregation and normalization.

The raw encoding is one D-dimensional residual block per visual word:
block m accumulates weight_m(x_i) * (x_i - d_m) over all descriptors, where
the weights come from any of the assignment strategies. Blocks are laid out
consecutively, word 0 first.
"""

from __future__ import annotations

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
    """Raw (unnormalized) M*D residual vector of N descriptors, (N, D), under
    their (N, M) assignment weights."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2 or descriptors.shape[0] == 0:
        raise VladkitError("need at least one descriptor")
    n, d = descriptors.shape
    if d != dictionary.dim or weights.shape != (n, dictionary.num_words):
        raise VladkitError(f"descriptors {(n, d)} or weights {weights.shape} do not fit the words")
    centers = np.asarray(dictionary.centers, dtype=np.float64)
    # block m = sum_i w_im x_i - (sum_i w_im) d_m
    blocks = weights.T @ descriptors - weights.sum(axis=0)[:, None] * centers
    return blocks.reshape(-1)


def vlad_normalize(
    raw: np.ndarray, num_words: int, dim: int, scheme: str = "intra-then-global"
) -> np.ndarray:
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size != num_words * dim:
        raise VladkitError(f"raw length {raw.size} != {num_words}*{dim}")
    if scheme == "intra-then-global":
        return l2_normalize(l2_normalize_rows(raw.reshape(num_words, dim)).reshape(-1))
    if scheme == "global-only":
        return l2_normalize(raw)
    if scheme == "signed-sqrt-then-global":
        return l2_normalize(np.sign(raw) * np.sqrt(np.abs(raw)))
    raise ValueError(f"unknown normalization scheme {scheme!r}")


def encode_descriptors(
    dictionary: Dictionary, descriptors: np.ndarray, weights: np.ndarray, scheme: str
) -> np.ndarray:
    """Aggregate + normalize one descriptor set under its assignment weights
    (see vlad_aggregate). The all-zero raw vector maps to the all-zero
    encoding."""
    raw = vlad_aggregate(dictionary, descriptors, weights)
    return vlad_normalize(raw, dictionary.num_words, dictionary.dim, scheme)


def encode(
    dictionary: Dictionary,
    feature_map: FeatureMap,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> np.ndarray:
    """Full single-image path: flatten, optionally whiten, assign, aggregate,
    normalize. Ends with a global L2 so that the result is bit-identical to a
    single-region spatial pyramid."""
    descriptors = feature_map.descriptors().astype(np.float64)
    if transform is not None:
        descriptors = apply_whitening_batch(transform, descriptors)
    weights = weight_matrix(dictionary, descriptors, config)
    return l2_normalize(encode_descriptors(dictionary, descriptors, weights, config.norm_scheme))
