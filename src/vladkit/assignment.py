"""Descriptor-to-word assignment weights.

`weight_matrix` is the one implementation: for N descriptors it returns an
(N, M) matrix whose row i weights descriptor i over the M words and sums to
one. Hard assignment is a one-hot at the nearest word; soft assignment is a
softmax of negative squared distances scaled by beta; the localized variant
restricts that softmax to the K nearest words; locality-constrained linear
coding (LLC) solves an affine-constrained least squares with a per-word
locality penalty, and its approximated form solves the unpenalized system
over the K nearest words only. Distance ties resolve to the lowest word index.
A single descriptor is a one-row call.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .codebook import Dictionary, squared_distances
from .errors import VladkitError

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

MODES = ("hard", "sa", "lsa", "llc", "llc-approx")

# Soft weights below this are flushed to exact zero and dropped from support.
_FLUSH = 1e-30


def _softmax_rows(d2: np.ndarray, beta: float) -> np.ndarray:
    """Row softmax of -beta * d2. Each row is shifted by its minimum before
    scaling, so no finite beta overflows to a NaN weight."""
    with np.errstate(over="ignore"):  # -beta * shift may round to -inf: weight 0
        w = np.exp(-beta * (d2 - d2.min(axis=1, keepdims=True)))
    w /= w.sum(axis=1, keepdims=True)
    w[w < _FLUSH] = 0.0
    return w / w.sum(axis=1, keepdims=True)


def _solve_affine_ls(b: np.ndarray, penalty_diag: np.ndarray | None, mode: str) -> np.ndarray:
    """Per row n, minimize ||B_n^T a||^2 (+ a^T diag(p_n) a) s.t. sum(a) = 1,
    where row m of B_n is (d_m - x_n). Solved via C a~ = 1 then normalization,
    with a trace-scaled ridge added for conditioning. `mode` names the caller
    in an error."""
    c = b @ b.transpose(0, 2, 1)
    k = c.shape[-1]
    diag = np.arange(k)
    if penalty_diag is not None:
        c[:, diag, diag] += penalty_diag
    c[:, diag, diag] += (1e-8 * np.trace(c, axis1=1, axis2=2) / k)[:, None]
    try:
        a = np.linalg.solve(c, np.ones((c.shape[0], k, 1)))[..., 0]
    except np.linalg.LinAlgError as exc:
        raise VladkitError(f"{mode}: {exc} in its constrained least squares") from None
    total = a.sum(axis=1, keepdims=True)
    if not np.isfinite(a).all() or (total == 0.0).any():
        raise VladkitError(f"{mode}: constrained least squares produced no usable solution")
    return a / total


def weight_matrix(
    dictionary: Dictionary, descriptors: np.ndarray, config: PipelineConfig
) -> np.ndarray:
    """Assignment weights of N descriptors over M words, (N, M); each row
    sums to one."""
    x = np.asarray(descriptors, dtype=np.float64)
    m = dictionary.num_words
    if x.ndim != 2 or x.shape[1] != dictionary.dim:
        raise VladkitError(f"descriptors shape {x.shape} != (N, {dictionary.dim})")
    if config.mode in ("lsa", "llc-approx") and config.knn > m:  # the config checks the rest
        raise VladkitError(f"knn {config.knn} outside [1, {m}]")
    centers = np.asarray(dictionary.centers, dtype=np.float64)
    d2 = squared_distances(x, centers)
    if config.mode == "sa":
        return _softmax_rows(d2, config.beta)
    if config.mode == "llc":
        if m == 1:
            return np.ones_like(d2)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            s = np.exp(np.sqrt(d2) / config.sigma)
            penalty = config.lam * s * s
            if not np.isfinite(penalty).all():  # sigma if s * s overflows by itself, else lambda
                if not np.isfinite(s * s).all():
                    raise VladkitError(
                        f"llc: exp(distance / sigma) overflows at sigma {config.sigma}"
                    )
                raise VladkitError(
                    f"llc: lambda * exp(distance / sigma)^2 overflows at lambda {config.lam}"
                )
        return _solve_affine_ls(centers[None, :, :] - x[:, None, :], penalty, "llc")
    rows = np.arange(x.shape[0])[:, None]
    if config.mode == "hard":
        near, near_w = np.argmin(d2, axis=1)[:, None], 1.0
    else:
        # Stable sort keeps the lowest index first on distance ties.
        near = np.argsort(d2, axis=1, kind="stable")[:, : config.knn]
        if config.mode == "lsa":
            near_w = _softmax_rows(d2[rows, near], config.beta)
        elif config.knn == 1:
            near_w = 1.0
        else:
            near_w = _solve_affine_ls(
                centers[near] - x[:, None, :], None, f"llc-approx with knn {config.knn}"
            )
    w = np.zeros_like(d2)
    w[rows, near] = near_w
    return w
