"""Visual-word dictionary learning: k-means++ seeding plus Lloyd iterations.

Everything here is deterministic given (data, m, max_iters, tol, seed) when
run single-threaded; ties break toward the lowest index throughout. The data
row norms are computed once per call and reused by every distance pass.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import VladkitError


@dataclass(frozen=True)
class Dictionary:
    centers: np.ndarray  # (M, D)

    @property
    def num_words(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]


@dataclass(frozen=True)
class KmeansReport:
    iterations: int
    objective_trace: tuple[float, ...]
    converged: bool


def squared_distances(data: np.ndarray, centers: np.ndarray, data_norms=None) -> np.ndarray:
    """Pairwise squared Euclidean distances, (N, M). Clamped at zero to guard
    against tiny negative values from the expansion formula. data_norms, the
    rows' np.sum(data * data, axis=1), may be passed in to skip that pass.
    The expansion runs in place on the one (N, M) product, so no scaled copy
    of the data is made; scaling by -2 is exact, so the values are those of
    norms - 2 * data @ centers.T + center norms, bit for bit."""
    if data_norms is None:
        data_norms = np.sum(data * data, axis=1)
    d2 = data @ centers.T
    d2 *= -2.0
    d2 += data_norms[:, None]
    d2 += np.sum(centers * centers, axis=1)
    return np.maximum(d2, 0.0, out=d2)


def kmeans_init_plusplus(data: np.ndarray, m: int, seed: int) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    if n < m:
        raise VladkitError(f"{n} points < {m} requested centers")
    rng = np.random.default_rng(seed)
    if n == m:
        return data.copy()
    norms = np.sum(data * data, axis=1)
    chosen = np.empty(m, dtype=int)
    chosen[0] = rng.integers(n)
    closest = squared_distances(data, data[chosen[0]][None, :], norms)[:, 0]
    for j in range(1, m):
        total = closest.sum()
        if total <= 0.0:
            # All remaining points coincide with a chosen center; pick the
            # lowest-index unchosen point.
            chosen[j] = int(np.setdiff1d(np.arange(n), chosen[:j])[0])
        else:
            r = rng.random() * total
            chosen[j] = int(np.searchsorted(np.cumsum(closest), r, side="right"))
        d2 = squared_distances(data, data[chosen[j]][None, :], norms)[:, 0]
        closest = np.minimum(closest, d2)
    return data[chosen].copy()


def kmeans_train(
    data: np.ndarray,
    m: int,
    max_iters: int = 100,
    tol: float = 1e-4,
    seed: int = 0,
) -> tuple[Dictionary, KmeansReport]:
    data = np.asarray(data, dtype=np.float64)
    centers = kmeans_init_plusplus(data, m, seed)
    norms = np.sum(data * data, axis=1)
    trace: list[float] = []
    converged = False
    prev = None
    for _ in range(max_iters):
        d2 = squared_distances(data, centers, norms)
        labels = np.argmin(d2, axis=1)
        point_d2 = d2[np.arange(len(data)), labels]
        obj = float(point_d2.sum())
        trace.append(obj)
        # obj >= prev: no fall at all, which also stops tol = 0 and guards prev = 0.
        if prev is not None and (obj >= prev or (prev - obj) / prev < tol):
            converged = True
            break
        prev = obj
        # A stable sort keeps each word's members in index order, so every
        # mean sums the same rows in the same order as a boolean mask would.
        order = np.argsort(labels, kind="stable")
        bounds = np.searchsorted(labels[order], np.arange(m + 1)).tolist()
        for k in range(m):
            if bounds[k] < bounds[k + 1]:
                centers[k] = data[order[bounds[k]:bounds[k + 1]]].mean(axis=0)
            else:
                # Reseed an empty word at the point farthest from its own
                # center that no earlier empty word took.
                far = int(np.argmax(point_d2))
                centers[k] = data[far]
                point_d2[far] = -np.inf
    return Dictionary(centers=centers), KmeansReport(
        iterations=len(trace), objective_trace=tuple(trace), converged=converged
    )


def subsample(data: np.ndarray, cap: int, seed: int) -> np.ndarray:
    """Uniform seeded subsample used to bound dictionary training cost."""
    if cap < 1:
        raise VladkitError(f"subsample cap must be at least 1, got {cap}")
    if len(data) <= cap:
        return data
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.permutation(len(data))[:cap])
    return data[idx]
