import math

import numpy as np
import pytest

from oracles import (
    llc_objective,
    naive_hard_weights,
    naive_lsa_weights,
    naive_soft_weights,
    random_feasible,
)
from vladkit.assignment import weight_matrix
from vladkit.codebook import Dictionary
from vladkit.errors import VladkitError
from vladkit.pipeline import PipelineConfig

HARD = PipelineConfig(mode="hard")


def rand_dict(rng, m=None, d=None):
    m = m or int(rng.integers(2, 6))
    d = d or int(rng.integers(1, 5))
    return Dictionary(centers=rng.standard_normal((m, d)))


def assign(d, x, config):
    """Weights of one descriptor: the one-row weight_matrix call."""
    return weight_matrix(d, np.asarray(x)[None, :], config)[0]


# -- hard --------------------------------------------------------------------

def test_hard_hand():
    d = Dictionary(centers=np.array([[0.0, 0.0], [1.0, 1.0]]))
    w = assign(d, np.array([0.9, 0.9]), HARD)
    assert w.tolist() == [0.0, 1.0]
    assert np.flatnonzero(w).tolist() == [1]


def test_hard_tie_lowest_index():
    d = Dictionary(centers=np.array([[0.0], [1.0]]))
    assert assign(d, np.array([0.5]), HARD).tolist() == [1.0, 0.0]


def test_hard_matches_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        assert assign(d, x, HARD).tolist() == naive_hard_weights(d.centers, x)


# -- soft --------------------------------------------------------------------

def test_soft_equal_distances_symmetric():
    d = Dictionary(centers=np.array([[-1.0], [1.0]]))
    w = assign(d, np.array([0.0]), PipelineConfig(mode="sa", beta=2.0))
    assert np.allclose(w, [0.5, 0.5], atol=1e-12)


def test_soft_hand_values():
    d = Dictionary(centers=np.array([[0.0], [1.0]]))
    w = assign(d, np.array([0.0]), PipelineConfig(mode="sa", beta=1.0))
    e = [math.exp(0.0), math.exp(-1.0)]
    assert np.allclose(w, np.array(e) / sum(e), atol=1e-12)
    assert abs(w[0] - 0.7310585786300049) < 1e-12


def test_soft_matches_oracle():
    rng = np.random.default_rng(1)
    for _ in range(50):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        beta = float(rng.uniform(0.1, 5.0))
        got = assign(d, x, PipelineConfig(mode="sa", beta=beta))
        assert np.allclose(got, naive_soft_weights(d.centers, x, beta), atol=1e-12)


def test_soft_large_beta_approaches_hard():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        hard = assign(d, x, HARD)
        soft = assign(d, x, PipelineConfig(mode="sa", beta=1e6))
        assert soft[int(np.argmax(hard))] >= 1.0 - 1e-6


def test_soft_max_weight_monotone_in_beta():
    rng = np.random.default_rng(3)
    d = rand_dict(rng, m=4, d=3)
    x = rng.standard_normal(3)
    maxima = [
        assign(d, x, PipelineConfig(mode="sa", beta=beta)).max() for beta in (0.1, 1.0, 10.0, 100.0)
    ]
    assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))


def test_soft_rejects_bad_beta():
    d = Dictionary(centers=np.zeros((2, 1)))
    with pytest.raises(VladkitError, match="beta must be finite and positive, got 0.0"):
        assign(d, np.zeros(1), PipelineConfig(mode="sa", beta=0.0))


def test_validate_rejects_nan_and_out_of_range_parameters():
    nan = float("nan")
    cases = [
        (dict(mode="sa", beta=nan), "beta must be finite and positive"),
        (dict(mode="lsa", beta=nan), "beta must be finite and positive"),
        (dict(mode="lsa", knn=0), r"knn 0 outside \[1, 2\]"),
        (dict(mode="llc-approx", knn=3), r"knn 3 outside \[1, 2\]"),
        (dict(mode="llc", sigma=nan), "sigma must be finite and positive"),
        (dict(mode="sa", beta=math.inf), "beta must be finite and positive"),
        (dict(mode="llc", sigma=math.inf), "sigma must be finite and positive"),
        (dict(mode="llc", lam=-1.0), "lambda must be finite and non-negative"),
        (dict(mode="llc", lam=nan), "lambda must be finite and non-negative"),
        (dict(mode="llc", lam=math.inf), "lambda must be finite and non-negative"),
    ]
    for fields, message in cases:  # a config is checked when it is built
        with pytest.raises(VladkitError, match=message):
            PipelineConfig(words=2, **fields)
    # Parameters a mode does not use are not checked.
    PipelineConfig(mode="hard", beta=nan, knn=0, lam=nan, sigma=nan, words=2)


def test_weight_matrix_rejects_knn_above_the_dictionary_words():
    # A config of 64 words is valid; a 2-word dictionary cannot give it 3 neighbors.
    d = Dictionary(centers=np.array([[0.0], [1.0]]))
    for mode in ("lsa", "llc-approx"):
        with pytest.raises(VladkitError, match=r"^knn 3 outside \[1, 2\]$"):
            weight_matrix(d, np.zeros((1, 1)), PipelineConfig(mode=mode, knn=3))
        assert weight_matrix(d, np.zeros((1, 1)), PipelineConfig(mode=mode, knn=2)).shape == (1, 2)


def test_soft_huge_finite_beta_keeps_weights_finite():
    # -beta * d2 alone overflows to -inf for every word, and -inf - -inf is NaN.
    d = Dictionary(centers=np.array([[0.0], [3.0]]))
    for mode in ("sa", "lsa"):
        got = weight_matrix(d, np.array([[5.0]]), PipelineConfig(mode=mode, beta=1e308, knn=2))
        assert np.array_equal(got, [[0.0, 1.0]])


def test_soft_shift_invariance():
    # Adding a constant to every squared distance leaves softmax unchanged;
    # realized geometrically by appending an orthogonal coordinate.
    rng = np.random.default_rng(4)
    d = rand_dict(rng, m=5, d=3)
    x = rng.standard_normal(3)
    lifted = Dictionary(centers=np.hstack([d.centers, np.full((5, 1), 2.0)]))
    x_lift = np.append(x, 0.0)  # adds the same 4.0 to every squared distance
    config = PipelineConfig(mode="sa", beta=1.3)
    assert np.allclose(assign(d, x, config), assign(lifted, x_lift, config), atol=1e-12)


# -- localized soft ----------------------------------------------------------

def test_lsa_full_k_equals_soft():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        sa = assign(d, x, PipelineConfig(mode="sa", beta=1.7))
        lsa = assign(d, x, PipelineConfig(mode="lsa", beta=1.7, knn=d.num_words))
        assert np.allclose(sa, lsa, atol=1e-12)


def test_lsa_k1_equals_hard():
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        assert np.array_equal(
            assign(d, x, PipelineConfig(mode="lsa", beta=2.0, knn=1)), assign(d, x, HARD)
        )


def test_lsa_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = rand_dict(rng, m=5)
        x = rng.standard_normal(d.dim)
        got = assign(d, x, PipelineConfig(mode="lsa", beta=0.8, knn=2))
        assert np.allclose(got, naive_lsa_weights(d.centers, x, 0.8, 2), atol=1e-12)


def test_lsa_support_bounded():
    rng = np.random.default_rng(8)
    d = rand_dict(rng, m=6, d=3)
    w = assign(d, rng.standard_normal(3), PipelineConfig(mode="lsa", beta=1.0, knn=3))
    assert np.count_nonzero(w) <= 3


def test_lsa_bad_k():
    d = Dictionary(centers=np.zeros((2, 1)))
    with pytest.raises(VladkitError, match=r"knn 3 outside \[1, 2\]"):
        assign(d, np.zeros(1), PipelineConfig(mode="lsa", beta=1.0, knn=3))


# -- LLC ---------------------------------------------------------------------

def test_llc_exact_representation_zero_residual():
    d = Dictionary(centers=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    x = np.array([1.0, 0.0])
    a = assign(d, x, PipelineConfig(mode="llc", lam=0.0, sigma=1.0))
    residual = x - d.centers.T @ a
    assert np.linalg.norm(residual) < 1e-6
    assert abs(a.sum() - 1.0) < 1e-8


def test_llc_1d_affine_hand():
    d = Dictionary(centers=np.array([[0.0], [1.0]]))
    a = assign(d, np.array([0.25]), PipelineConfig(mode="llc", lam=0.0, sigma=1.0))
    assert np.allclose(a, [0.75, 0.25], atol=1e-6)


def test_llc_one_word_weights_every_descriptor_one():
    d = Dictionary(centers=np.array([[0.5, -1.0]]))
    x = np.random.default_rng(0).standard_normal((5, 2))
    assert weight_matrix(d, x, PipelineConfig(mode="llc")).tolist() == [[1.0]] * 5


def test_llc_beats_random_feasible_points():
    rng = np.random.default_rng(9)
    for _ in range(20):
        m = int(rng.integers(2, 6))
        dim = int(rng.integers(1, 5))
        d = Dictionary(centers=rng.standard_normal((m, dim)))
        x = rng.standard_normal(dim)
        lam, sigma = 1e-3, 1.0
        a = assign(d, x, PipelineConfig(mode="llc", lam=lam, sigma=sigma))
        ours = llc_objective(d.centers, x, a, lam, sigma)
        candidates = random_feasible(rng, m, 10_000)
        best = min(llc_objective(d.centers, x, c, lam, sigma) for c in candidates)
        assert ours <= best + 1e-6


def test_llc_constraint_satisfied():
    rng = np.random.default_rng(10)
    for _ in range(30):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        a = assign(d, x, PipelineConfig(mode="llc", lam=1e-4, sigma=0.7))
        assert abs(a.sum() - 1.0) < 1e-8


def test_llc_approx_k1_one_hot():
    rng = np.random.default_rng(11)
    d = rand_dict(rng, m=4, d=3)
    x = rng.standard_normal(3)
    w = assign(d, x, PipelineConfig(mode="llc-approx", knn=1))
    assert w.tolist() == assign(d, x, HARD).tolist()


def test_llc_approx_full_k_equals_exact_lambda0():
    rng = np.random.default_rng(12)
    for _ in range(20):
        m = int(rng.integers(2, 5))
        dim = m + 1  # keep the atom set affinely independent
        d = Dictionary(centers=rng.standard_normal((m, dim)))
        x = rng.standard_normal(dim)
        exact = assign(d, x, PipelineConfig(mode="llc", lam=0.0, sigma=1.0))
        approx = assign(d, x, PipelineConfig(mode="llc-approx", knn=m))
        assert np.allclose(exact, approx, atol=1e-6)


def test_llc_approx_two_atom_hand():
    d = Dictionary(centers=np.array([[0.0], [1.0], [5.0]]))
    w = assign(d, np.array([0.25]), PipelineConfig(mode="llc-approx", knn=2))
    assert np.flatnonzero(w).tolist() == [0, 1]
    assert np.allclose(w[:2], [0.75, 0.25], atol=1e-6)


# -- cross-mode laws ---------------------------------------------------------

ALL_CONFIGS = [
    PipelineConfig(mode="hard"),
    PipelineConfig(mode="sa", beta=1.4),
    PipelineConfig(mode="lsa", beta=1.4, knn=2),
    PipelineConfig(mode="llc", lam=1e-4, sigma=1.0),
    PipelineConfig(mode="llc-approx", knn=2),
]


def test_llc_approx_duplicate_words_raise_singular_system():
    # Two copies of the descriptor's own word make its 2-NN system all zero.
    d = Dictionary(centers=np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]))
    with pytest.raises(VladkitError, match="^llc-approx with knn 2: Singular matrix"):
        weight_matrix(d, np.array([[1.0, 2.0]]), PipelineConfig(mode="llc-approx", knn=2))
    # Full llc over the two copies alone, with no locality penalty: the same system.
    with pytest.raises(VladkitError, match="^llc: Singular matrix"):
        weight_matrix(Dictionary(centers=d.centers[:2]), np.array([[1.0, 2.0]]),
                      PipelineConfig(mode="llc", lam=0.0))


def test_weights_sum_to_one_all_modes():
    rng = np.random.default_rng(13)
    for _ in range(30):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        for config in ALL_CONFIGS:
            w = assign(d, x, config)
            assert abs(w.sum() - 1.0) < 1e-6


def test_nonnegativity_hard_soft_lsa():
    rng = np.random.default_rng(14)
    for _ in range(30):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        for config in ALL_CONFIGS[:3]:
            assert (assign(d, x, config) >= 0.0).all()


def test_translation_equivariance_all_modes():
    rng = np.random.default_rng(15)
    for _ in range(20):
        d = rand_dict(rng)
        x = rng.standard_normal(d.dim)
        t = rng.standard_normal(d.dim)
        shifted = Dictionary(centers=d.centers + t)
        for config in ALL_CONFIGS:
            a = assign(d, x, config)
            b = assign(shifted, x + t, config)
            assert np.allclose(a, b, atol=1e-9)


# -- batched kernel ----------------------------------------------------------

def test_weight_matrix_rows_match_single_descriptor_all_modes():
    rng = np.random.default_rng(17)
    for _ in range(20):
        d = rand_dict(rng)
        x = rng.standard_normal((int(rng.integers(2, 12)), d.dim))
        for config in ALL_CONFIGS:
            w = weight_matrix(d, x, config)
            assert w.shape == (len(x), d.num_words)
            for row, xi in zip(w, x):
                single = assign(d, xi, config)
                assert np.array_equal(np.flatnonzero(row), np.flatnonzero(single))
                assert np.allclose(row, single, rtol=0.0, atol=1e-12)


def test_lsa_and_llc_approx_ties_take_lowest_indices():
    # Words 1-4 tie for the first row; words 1 and 3 tie behind word 0 for the
    # second. k = 2 must keep the lowest-indexed words in both.
    d = Dictionary(centers=np.array([[5.0], [0.5], [0.0], [0.5], [0.0]]))
    x = np.array([[0.25], [4.9]])
    lsa = weight_matrix(d, x, PipelineConfig(mode="lsa", beta=1.0, knn=2))
    approx = weight_matrix(d, x, PipelineConfig(mode="llc-approx", knn=2))
    for w in (lsa, approx):
        assert np.flatnonzero(w[0]).tolist() == [1, 2]
        assert np.allclose(w[0, 1:3], [0.5, 0.5], atol=1e-6)
        assert np.flatnonzero(w[1]).tolist() == [0, 1]
