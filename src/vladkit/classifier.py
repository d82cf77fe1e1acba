"""One-vs-rest linear classification with hinge loss.

Each class gets a binary classifier trained by epoch-wise stochastic
subgradient descent (Pegasos-style 1/(reg*t) step size). All classes step
together over one shuffle per epoch, drawn from one generator seeded with
config.seed, so the trained model is reproducible bit for bit. Training runs
in the dual over the Gram matrix X Xᵀ + 1 (the `+ 1` is the constant bias
input). With that step size the coefficients after step t are S / (reg*t),
where S counts each training row's signed violations (Shalev-Shwartz et al.,
ICML 2007), so training keeps S and scales it once, at the end.

Most steps violate in no class, so they change nothing, and training runs only
the steps that may violate. A look-ahead updates the margins y (gram @ S) with
one product over the rows whose counts changed and skips to the epoch's first
step whose smallest margin is below reg*t + slack, the slack bounding their
rounding (see train_ovr). Every other step is decided by the exact test
y_i (gram_i @ S) < reg*t, so S, and every model byte, is that of running each
step. A look-ahead that skips nothing doubles the exact steps run before the
next; one that skips more than those, or the rest of an epoch, halves them.

The Gram matrix, the weights and the scores widen float32 encodings, as a
`.vle` stores them, to float64 one column block of at most _BLOCK values at a
time (the sums add the blocks' products in column order), so no float64 copy
of a split is made. A split of at most _BLOCK values is one block, so it gets
the unblocked products bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import VladkitError

if TYPE_CHECKING:
    from .pipeline import PipelineConfig


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray  # (C, dim)
    biases: np.ndarray   # (C,)

    @property
    def num_classes(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.weights.shape[1]


# The most values of an encoding matrix widened to float64 in one block.
_BLOCK = 1 << 19


def _column_blocks(x: np.ndarray, use) -> None:
    """use(cols, x[:, cols] widened to float64) for each block of at most
    _BLOCK values of x's columns, in column order. The call holds the only
    reference to its block, so one widened block is alive at a time."""
    width = max(1, _BLOCK // max(1, x.shape[0]))
    for start in range(0, x.shape[1], width):
        cols = slice(start, start + width)
        use(cols, x[:, cols].astype(np.float64, copy=False))


def _refuse_labels(labels, num_classes=None) -> None:
    """Labels index the classes, where -1 would stand for the last one."""
    labels = np.asarray(labels)
    if labels.min(initial=0) < 0:
        raise VladkitError(f"label {labels.min()} is negative")
    if num_classes is not None and labels.size and labels.max() >= num_classes:
        raise VladkitError(f"label {labels.max()} is not below num_classes {num_classes}")


def _too_many_classes(count: int) -> VladkitError:
    """Classes run from 0 to the largest label, which may be sparse."""
    return VladkitError(f"largest label {count - 1} makes {count} classes: out of memory")


def train_ovr(encodings: np.ndarray, labels: np.ndarray, config: PipelineConfig) -> LinearModel:
    """One binary classifier per class, under config.reg, epochs and seed.
    encodings is an (N, dim) float32 or float64 array."""
    x = np.asarray(encodings)
    labels = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise VladkitError("encodings and labels disagree in length")
    _refuse_labels(labels)
    num_classes = int(labels.max()) + 1 if labels.size else 0
    if num_classes < 2:
        raise VladkitError("need at least two classes to train")
    # The bias rides along as a constant input so it shares the weight
    # shrinkage; otherwise the early 1/(reg*t) steps let it run away.
    gram = np.zeros((x.shape[0], x.shape[0]))
    _column_blocks(x, lambda cols, block: np.add(gram, block @ block.T, out=gram))
    gram += 1.0
    # Row i of y and of counts holds training row i's target and count in every
    # class, so a step touches one contiguous row of each. y is the first C-wide array.
    try:
        y = np.full((x.shape[0], num_classes), -1.0)
    except MemoryError:
        raise _too_many_classes(num_classes) from None
    y[np.arange(x.shape[0]), labels] = 1.0
    counts = np.zeros_like(y)
    rng = np.random.default_rng(config.seed)
    n = x.shape[0]
    # margins[c, j] = y[j, c] (gram[j] @ synced[:, c]), where synced is counts at
    # the last look-ahead, so the changes since then wait in one (N, C) array.
    margins, synced = np.zeros((num_classes, n)), np.zeros_like(y)
    eps_gram = np.finfo(np.float64).eps * np.abs(gram).max()
    t = 0  # steps taken; coef = counts / (reg * t)
    wait = ran = 0  # exact steps due between look-aheads, and run since the last
    for _ in range(config.epochs):
        order = rng.permutation(n)
        p = 0
        while p < n:
            if t and ran >= wait:
                delta = counts - synced
                rows = np.flatnonzero(delta.any(axis=1))
                margins += (y * (gram[:, rows] @ delta[rows])).T
                np.copyto(synced, counts)
                # Both tests sum terms gram[r, j] * k (k an integer) whose magnitudes add
                # up to at most max|gram| * updates. A term rounds at most n times in the
                # exact product, and at most updates + 1 times in the margins: r + 1 times
                # in the look-ahead that added it, r being the rows then changed, each by
                # an update, and once in each later look-ahead that changed a row. So the
                # two differ by at most (n + updates + 1) * eps/2 * max|gram| * updates, to
                # first order; twice that also covers rounding steps + slack.
                updates = np.vdot(y, counts)  # the sum of |counts|
                slack = (n + 2 * updates) * eps_gram * updates
                steps = config.reg * np.arange(t, t + n - p)
                quiet = margins.min(axis=0)[order[p:]] >= steps + slack
                k = n - p if quiet.all() else int(quiet.argmin())  # the first that may violate
                p, t = p + k, t + k
                if p == n:  # the rest of the epoch is quiet: look ahead again in the next
                    wait //= 2
                    break
                if not k:
                    wait = 2 * wait + 1
                elif k > wait:
                    wait //= 2
                ran = 0
            stop = min(n, p + max(1, wait - ran))
            for i in order[p:stop]:
                # y_i (gram_i @ coef) < 1, read on the counts; at t = 0 every class violates.
                violated = y[i] * (gram[i] @ counts) < (config.reg * t or 1.0)
                counts[i] += y[i] * violated
                t += 1
            ran += stop - p
            p = stop
    coef = counts / (config.reg * t)  # weights = coef.T @ x, biases = coef.sum(0)
    weights = np.empty((num_classes, x.shape[1]))
    _column_blocks(x, lambda cols, block: np.matmul(coef.T, block, out=weights[:, cols]))
    return LinearModel(weights=weights, biases=coef.sum(axis=0))


def predict(model: LinearModel, encodings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (N,) and class scores (N, C) of N encodings, an (N, dim) float32
    or float64 array. Score ties go to the lowest class index."""
    x = np.asarray(encodings)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise VladkitError(f"encodings shape {x.shape} != (N, {model.dim})")
    scores = np.zeros((x.shape[0], model.num_classes))
    _column_blocks(
        x, lambda cols, block: np.add(scores, block @ model.weights[:, cols].T, out=scores)
    )
    scores += model.biases
    return np.argmax(scores, axis=1), scores


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # (C, C) counts, rows = true class


def tabulate(true_labels: np.ndarray, predicted: np.ndarray, num_classes: int) -> EvalReport:
    _refuse_labels(true_labels, num_classes)
    _refuse_labels(predicted, num_classes)
    try:
        confusion = np.zeros((num_classes, num_classes), dtype=int)
    except MemoryError:
        raise _too_many_classes(num_classes) from None
    np.add.at(confusion, (true_labels, predicted), 1)
    row_totals = confusion.sum(axis=1)
    safe = np.where(row_totals == 0, 1, row_totals)
    per_class = np.diag(confusion) / safe
    accuracy = float(np.trace(confusion)) / max(1, confusion.sum())
    return EvalReport(accuracy=accuracy, per_class_accuracy=per_class, confusion=confusion)
