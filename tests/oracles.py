"""Independent reference implementations used as test oracles.

Everything here is deliberately naive (double loops, plain formulas, random
search) and never shares code with the library paths it checks.
"""

import math

import numpy as np


def naive_sq_dist(a, b):
    return sum((float(x) - float(y)) ** 2 for x, y in zip(a, b))


def naive_nearest(centers, x):
    best, best_d = 0, math.inf
    for m, center in enumerate(centers):
        d = naive_sq_dist(x, center)
        if d < best_d:
            best, best_d = m, d
    return best


def naive_hard_weights(centers, x):
    w = [0.0] * len(centers)
    w[naive_nearest(centers, x)] = 1.0
    return w


def naive_soft_weights(centers, x, beta):
    # Direct formula; test instances are small enough not to overflow.
    e = [math.exp(-beta * naive_sq_dist(x, c)) for c in centers]
    total = sum(e)
    return [v / total for v in e]


def naive_lsa_weights(centers, x, beta, k):
    d = [(naive_sq_dist(x, c), m) for m, c in enumerate(centers)]
    near = {m for _, m in sorted(d)[:k]}
    e = [
        math.exp(-beta * dist) if m in near else 0.0
        for (dist, m) in ((naive_sq_dist(x, c), m) for m, c in enumerate(centers))
    ]
    total = sum(e)
    return [v / total for v in e]


def llc_objective(centers, x, a, lam, sigma, center_dist=False):
    centers = np.asarray(centers, dtype=float)
    x = np.asarray(x, dtype=float)
    a = np.asarray(a, dtype=float)
    residual = x - centers.T @ a
    dist = np.sqrt(((centers - x) ** 2).sum(axis=1))
    if center_dist:
        dist = dist - dist.min()
    s = np.exp(dist / sigma)
    return float(residual @ residual + lam * ((s * a) ** 2).sum())


def random_feasible(rng, m, count):
    """Random vectors on the sum-to-one affine plane."""
    z = rng.normal(size=(count, m))
    return z + (1.0 - z.sum(axis=1, keepdims=True)) / m


def naive_vlad(centers, descriptors, weight_fn):
    """Double-loop aggregation: block m += w_m(x) * (x - d_m)."""
    centers = np.asarray(centers, dtype=float)
    m, d = centers.shape
    out = np.zeros((m, d))
    for x in descriptors:
        w = weight_fn(x)
        for j in range(m):
            if w[j] != 0.0:
                out[j] += w[j] * (np.asarray(x, dtype=float) - centers[j])
    return out.reshape(-1)


def best_kmeans_objective(data, m):
    """Exhaustive minimum over all assignments of points to m clusters."""
    import itertools

    data = np.asarray(data, dtype=float)
    n = len(data)
    best = math.inf
    for labels in itertools.product(range(m), repeat=n):
        obj = 0.0
        for k in range(m):
            members = data[[i for i in range(n) if labels[i] == k]]
            if len(members):
                center = members.mean(axis=0)
                obj += float(((members - center) ** 2).sum())
        best = min(best, obj)
    return best


def naive_pegasos_ovr(x, labels, reg, epochs, seed):
    """Primal Pegasos, one class at a time, with the bias as a constant last
    input column. Returns (weights (C, dim), biases (C,))."""
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=int)
    augmented = np.hstack([x, np.ones((x.shape[0], 1))])
    num_classes = int(labels.max()) + 1
    weights = np.zeros((num_classes, x.shape[1]))
    biases = np.zeros(num_classes)
    for c in range(num_classes):
        y = np.where(labels == c, 1.0, -1.0)
        rng = np.random.default_rng(seed)
        w = np.zeros(augmented.shape[1])
        t = 0
        for _ in range(epochs):
            for i in rng.permutation(augmented.shape[0]):
                t += 1
                lr = 1.0 / (reg * t)
                margin = y[i] * (w @ augmented[i])
                w *= 1.0 - lr * reg
                if margin < 1.0:
                    w += lr * y[i] * augmented[i]
        weights[c], biases[c] = w[:-1], w[-1]
    return weights, biases


def stepwise_dual_ovr(x, labels, reg, epochs, seed):
    """The dual trainer, one exact step at a time: step t updates row i in
    every class where y_i (gram_i @ counts) < reg * t (1 at t = 0), with
    classifier.train_ovr's shuffles and products. For x of at most
    classifier._BLOCK values those products are unblocked, so train_ovr's
    model must match this one bit for bit. Returns (weights, biases, ties),
    ties counting the step-class pairs whose margin equals its threshold."""
    x = np.asarray(x).astype(np.float64)
    labels = np.asarray(labels, dtype=int)
    n, num_classes = x.shape[0], int(labels.max()) + 1
    gram = x @ x.T + 1.0
    y = np.full((n, num_classes), -1.0)
    y[np.arange(n), labels] = 1.0
    counts = np.zeros_like(y)
    rng = np.random.default_rng(seed)
    t = ties = 0
    for _ in range(epochs):
        for i in rng.permutation(n):
            margins, threshold = y[i] * (gram[i] @ counts), reg * t or 1.0
            ties += int((margins == threshold).sum())
            counts[i] += y[i] * (margins < threshold)
            t += 1
    coef = counts / (reg * t)
    return coef.T @ x, coef.sum(axis=0), ties
