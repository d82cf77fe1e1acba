"""PCA whitening of local descriptors, followed by per-descriptor L2
normalization. The projection rows are principal axes scaled by
1/sqrt(eigenvalue + epsilon), sorted by descending eigenvalue."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VladkitError


@dataclass(frozen=True)
class WhiteningTransform:
    mean: np.ndarray        # (D_in,)
    projection: np.ndarray  # (D_out, D_in)

    @property
    def input_dim(self) -> int:
        return self.mean.size

    @property
    def output_dim(self) -> int:
        return self.projection.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        """Center and project without the final L2 step. Accepts a single
        descriptor or an (N, D_in) batch."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise VladkitError(
                f"descriptor dim {x.shape[-1]} != transform input {self.input_dim}"
            )
        return (x - self.mean) @ self.projection.T


def fit_whitening(
    descriptors: np.ndarray,
    output_dim: int | None = None,
    epsilon: float | None = None,
) -> WhiteningTransform:
    if epsilon is not None and not 0 <= epsilon < np.inf:  # NaN fails too
        raise VladkitError(f"epsilon must be finite and at least 0, got {epsilon}")
    x = np.asarray(descriptors, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise VladkitError("need at least 2 descriptors to fit whitening")
    n, d_in = x.shape
    top = min(n - 1, d_in)
    if output_dim is None:
        output_dim = top
    if not 1 <= output_dim <= top:
        raise VladkitError(
            f"output_dim must be between 1 and min(N-1, D_in) = {top}, got {output_dim}"
        )
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / n
    if epsilon is None:
        epsilon = 1e-6 * float(np.trace(cov)) / d_in
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals, kind="stable")[::-1][:output_dim]
    eigvals = np.maximum(eigvals[order], 0.0)
    axes = eigvecs[:, order].T  # rows = principal axes, descending eigenvalue
    # Deterministic sign: largest-magnitude entry of each axis is positive.
    peaks = axes[np.arange(len(axes)), np.argmax(np.abs(axes), axis=1)]
    axes[peaks < 0] *= -1.0
    scale = np.sqrt(eigvals + epsilon)
    # An axis whose projection a float32 `.vlw` cannot hold (scale 0 included:
    # no variance and no epsilon) is refused before the division.
    fits = np.abs(peaks) <= float(np.finfo(np.float32).max) * scale
    if not fits.all():
        kept = int(np.argmin(fits))  # the axes before the first misfit are usable
        if not kept:
            raise VladkitError("descriptors have no variance to whiten")
        raise VladkitError(
            f"{output_dim - kept} of {output_dim} whitening axes have too little variance for a"
            f" float32 projection at epsilon {epsilon}: set epsilon above 0 or pca_dim to at"
            f" most {kept}"
        )
    projection = axes / scale[:, None]
    return WhiteningTransform(mean=mean, projection=projection)


# Below this norm the squares may have underflowed ([1e-170] has norm 0).
_TINY_NORM = 1e-150


def _normalized(x: np.ndarray, norms, out: np.ndarray | None = None) -> np.ndarray:
    """x over norms(x) along its last axis, leaving zero vectors unchanged."""
    scale = norms(x)
    tiny = scale < _TINY_NORM
    if np.count_nonzero(tiny):
        if np.count_nonzero(x[tiny[..., 0]]):  # a nonzero vector whose squares underflowed
            x = np.where(tiny, x * 2.0**600, x)  # a power of two: exact, each square in range
            scale = norms(x)
        scale[scale == 0.0] = 1.0
    return np.divide(x, scale, out=out)


def l2_normalize(v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Each vector along v's last axis over its L2 norm, one dot product as in
    np.linalg.norm(vector); into `out` when given, which may be v itself."""
    v = np.asarray(v, dtype=np.float64)
    return _normalized(v, lambda y: np.sqrt(np.vecdot(y, y))[..., None], out)


def l2_normalize_rows(x: np.ndarray) -> np.ndarray:
    """Each vector along x's last axis over np.linalg.norm(x, axis=-1)."""
    x = np.asarray(x, dtype=np.float64)
    return _normalized(x, lambda y: np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True)))


def apply_whitening_batch(t: WhiteningTransform, x: np.ndarray) -> np.ndarray:
    """Project N descriptors, (N, D_in), and L2-normalize each result row."""
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise VladkitError("descriptor contains NaN/Inf")
    return l2_normalize_rows(t.project(x))
