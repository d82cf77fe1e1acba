"""VLAD aggregation and normalization.

The raw encoding is one D-dimensional residual block per visual word:
block m accumulates weight_m(x_i) * (x_i - d_m) over all descriptors, where
the weights come from any of the assignment strategies. Blocks are laid out
consecutively, word 0 first.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assignment import AssignConfig, weight_matrix
from .codebook import Dictionary
from .errors import DimMismatch, EmptyInput
from .fileio import FeatureMap
from .whitening import WhiteningTransform, apply_whitening_batch, l2_normalize

NORM_SCHEMES = ("intra-then-global", "global-only", "signed-sqrt-then-global")


@dataclass(frozen=True)
class EncoderConfig:
    assign: AssignConfig = field(default_factory=AssignConfig)
    norm_scheme: str = "intra-then-global"

    def __post_init__(self):
        if self.norm_scheme not in NORM_SCHEMES:
            raise ValueError(f"unknown normalization scheme {self.norm_scheme!r}")


def vlad_aggregate(
    dictionary: Dictionary,
    descriptors: np.ndarray,
    config: AssignConfig,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Raw (unnormalized) M*D residual vector. `weights` are the descriptors'
    (N, M) assignment rows when the caller already has them; None computes
    them from config."""
    descriptors = np.asarray(descriptors, dtype=np.float64)
    if descriptors.ndim != 2 or descriptors.shape[0] == 0:
        raise EmptyInput("need at least one descriptor")
    centers = np.asarray(dictionary.centers, dtype=np.float64)
    w = weight_matrix(dictionary, descriptors, config) if weights is None else weights
    # block m = sum_i w_im x_i - (sum_i w_im) d_m
    blocks = w.T @ descriptors - w.sum(axis=0)[:, None] * centers
    return blocks.reshape(-1)


def vlad_normalize(
    raw: np.ndarray, num_words: int, dim: int, scheme: str = "intra-then-global"
) -> np.ndarray:
    raw = np.asarray(raw, dtype=np.float64)
    if raw.size != num_words * dim:
        raise DimMismatch(f"raw length {raw.size} != {num_words}*{dim}")
    if scheme == "intra-then-global":
        blocks = raw.reshape(num_words, dim)
        norms = np.linalg.norm(blocks, axis=1, keepdims=True)
        safe = np.where(norms == 0.0, 1.0, norms)
        return l2_normalize((blocks / safe).reshape(-1))
    if scheme == "global-only":
        return l2_normalize(raw)
    if scheme == "signed-sqrt-then-global":
        return l2_normalize(np.sign(raw) * np.sqrt(np.abs(raw)))
    raise ValueError(f"unknown normalization scheme {scheme!r}")


def encode_descriptors(
    dictionary: Dictionary,
    descriptors: np.ndarray,
    config: EncoderConfig,
    weights: np.ndarray | None = None,
) -> np.ndarray:
    """Aggregate + normalize one descriptor set, with the assignment rows in
    `weights` when given (see vlad_aggregate). The all-zero raw vector maps
    to the all-zero encoding."""
    raw = vlad_aggregate(dictionary, descriptors, config.assign, weights)
    return vlad_normalize(raw, dictionary.num_words, dictionary.dim, config.norm_scheme)


def encode(
    dictionary: Dictionary,
    feature_map: FeatureMap,
    transform: WhiteningTransform | None,
    config: EncoderConfig,
) -> np.ndarray:
    """Full single-image path: flatten, optionally whiten, aggregate,
    normalize. Ends with a global L2 so that the result is bit-identical to a
    single-region spatial pyramid."""
    descriptors = feature_map.descriptors().astype(np.float64)
    if transform is not None:
        descriptors = apply_whitening_batch(transform, descriptors)
    return l2_normalize(encode_descriptors(dictionary, descriptors, config))
