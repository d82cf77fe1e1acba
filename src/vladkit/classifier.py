"""One-vs-rest linear classification with hinge loss.

Each class gets a binary classifier trained by epoch-wise stochastic
subgradient descent (Pegasos-style 1/(reg*t) step size). All classes step
together over one shuffle per epoch, drawn from one generator seeded with
config.seed, so the trained model is reproducible bit for bit. Training runs
in the dual: each class's weights stay a combination of the training rows X,
so a step reads one row of the Gram matrix X Xᵀ + 1 instead of a dim-length
row (the `+ 1` is the constant bias input), and no bias-augmented copy of X
is made.

The pipeline passes encodings as float32, the precision a `.vle` stores.
The products widen them to float64 in blocks of at most _BLOCK values (two blocks for the
Gram matrix), so no float64 copy of a whole split is made, and a float64
caller's blocks are views. A split of at most _BLOCK values gets the
unblocked products. A larger one may differ from them in the last bit of a
Gram entry, as BLAS may order a dot product's sum by the blocks' shape.
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


def _blocks(size: int, per_block: int) -> list[slice]:
    """range(size) cut into the fewest near-equal slices of at most per_block
    (at least 1) indices; near-equal, so no slice is a lone remainder row."""
    count = max(1, -(-size // max(1, per_block)))
    bounds = [size * k // count for k in range(count + 1)]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def _gram(x: np.ndarray) -> np.ndarray:
    """x xᵀ in float64, (N, N), one pair of row blocks at a time; the lower
    triangle mirrors the upper, as one symmetric product does."""
    gram = np.empty((x.shape[0], x.shape[0]))
    rows = _blocks(x.shape[0], _BLOCK // max(1, x.shape[1]))
    for k, a in enumerate(rows):
        xa = x[a].astype(np.float64, copy=False)
        gram[a, a] = xa @ xa.T
        for b in rows[k + 1:]:
            gram[a, b] = xa @ x[b].astype(np.float64, copy=False).T
            gram[b, a] = gram[a, b].T
    return gram


def train_ovr(encodings: np.ndarray, labels: np.ndarray, config: PipelineConfig) -> LinearModel:
    """One binary classifier per class, under config.reg, epochs and seed.
    encodings is an (N, dim) float32 or float64 array."""
    x = np.asarray(encodings)
    labels = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] != labels.shape[0]:
        raise VladkitError("encodings and labels disagree in length")
    num_classes = int(labels.max()) + 1 if labels.size else 0
    if num_classes < 2:
        raise VladkitError("need at least two classes to train")
    # The bias rides along as a constant input so it shares the weight
    # shrinkage; otherwise the early 1/(reg*t) steps let it run away.
    gram = _gram(x)
    gram += 1.0
    # Row i of y and of coef holds training row i's target and coefficient
    # in every class, so a step touches one contiguous row of each. No
    # C-length array is filled before y, so a sparse label's huge C fails here.
    y = np.full((x.shape[0], num_classes), -1.0)
    y[np.arange(x.shape[0]), labels] = 1.0
    coef = np.zeros_like(y)  # weights = coef.T @ x, biases = coef.sum(0)
    rng = np.random.default_rng(config.seed)
    t = 0
    for _ in range(config.epochs):
        for i in rng.permutation(x.shape[0]):
            t += 1
            lr = 1.0 / (config.reg * t)
            violated = y[i] * (gram[i] @ coef) < 1.0
            coef *= 1.0 - lr * config.reg
            coef[i] += lr * y[i] * violated
    weights = np.empty((num_classes, x.shape[1]))
    for cols in _blocks(x.shape[1], _BLOCK // max(1, x.shape[0])):
        weights[:, cols] = coef.T @ x[:, cols].astype(np.float64, copy=False)
    return LinearModel(weights=weights, biases=coef.sum(axis=0))


def predict(model: LinearModel, encodings: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Labels (N,) and class scores (N, C) of N encodings, an (N, dim) float32
    or float64 array. Score ties go to the lowest class index."""
    x = np.asarray(encodings)
    if x.ndim != 2 or x.shape[1] != model.dim:
        raise VladkitError(f"encodings shape {x.shape} != (N, {model.dim})")
    scores = np.empty((x.shape[0], model.num_classes))
    for rows in _blocks(x.shape[0], _BLOCK // max(1, model.dim)):
        scores[rows] = x[rows].astype(np.float64, copy=False) @ model.weights.T + model.biases
    return np.argmax(scores, axis=1), scores


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class_accuracy: np.ndarray
    confusion: np.ndarray  # (C, C) counts, rows = true class


def tabulate(true_labels: np.ndarray, predicted: np.ndarray, num_classes: int) -> EvalReport:
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(confusion, (true_labels, predicted), 1)
    row_totals = confusion.sum(axis=1)
    safe = np.where(row_totals == 0, 1, row_totals)
    per_class = np.diag(confusion) / safe
    accuracy = float(np.trace(confusion)) / max(1, confusion.sum())
    return EvalReport(accuracy=accuracy, per_class_accuracy=per_class, confusion=confusion)
