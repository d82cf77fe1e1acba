import numpy as np
import pytest

import vladkit.vlad
from oracles import naive_hard_weights, naive_soft_weights, naive_vlad
from vladkit.assignment import weight_matrix
from vladkit.codebook import Dictionary
from vladkit.errors import VladkitError
from vladkit.fileio import FeatureMap
from vladkit.pipeline import PipelineConfig
from vladkit.vlad import encode, vlad_aggregate, vlad_normalize
from vladkit.whitening import WhiteningTransform, fit_whitening

MODES = [
    PipelineConfig(mode="hard"),
    PipelineConfig(mode="sa", beta=1.2),
    PipelineConfig(mode="lsa", beta=1.2, knn=2),
    PipelineConfig(mode="llc", lam=1e-4, sigma=1.0),
    PipelineConfig(mode="llc-approx", knn=2),
]


def aggregate(d, x, config):
    """The raw vector of x under its assignment weights for config."""
    return vlad_aggregate(d, x, weight_matrix(d, x, config))


def test_descriptor_at_centroid_gives_zero():
    d = Dictionary(centers=np.array([[1.0, 2.0], [5.0, 5.0]]))
    raw = aggregate(d, np.array([[1.0, 2.0]]), PipelineConfig(mode="hard"))
    assert np.allclose(raw, np.zeros(4))


def test_hard_matches_double_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        m, dim, n = rng.integers(2, 5), rng.integers(1, 9), rng.integers(1, 51)
        d = Dictionary(centers=rng.standard_normal((int(m), int(dim))))
        x = rng.standard_normal((int(n), int(dim)))
        got = aggregate(d, x, PipelineConfig(mode="hard"))
        want = naive_vlad(d.centers, x, lambda v: naive_hard_weights(d.centers, v))
        assert np.abs(got - want).max() < 1e-9


def test_soft_matches_double_loop_oracle():
    rng = np.random.default_rng(1)
    for _ in range(20):
        d = Dictionary(centers=rng.standard_normal((3, 4)))
        x = rng.standard_normal((20, 4))
        got = aggregate(d, x, PipelineConfig(mode="sa", beta=0.9))
        want = naive_vlad(d.centers, x, lambda v: naive_soft_weights(d.centers, v, 0.9))
        assert np.abs(got - want).max() < 1e-9


def test_soft_equidistant_hand_case():
    d = Dictionary(centers=np.array([[-1.0], [1.0]]))
    x = np.array([[0.0]])
    raw = aggregate(d, x, PipelineConfig(mode="sa", beta=1.0))
    # Each block gets 0.5 * (x - d_m); their sum is 0.5 * (2x - d1 - d2).
    assert np.allclose(raw, [0.5, -0.5], atol=1e-12)
    assert np.allclose(raw[0] + raw[1], 0.5 * (2 * 0.0 - (-1.0) - 1.0), atol=1e-12)


def test_permutation_invariance_all_modes():
    rng = np.random.default_rng(2)
    d = Dictionary(centers=rng.standard_normal((4, 3)))
    x = rng.standard_normal((25, 3))
    perm = rng.permutation(25)
    for config in MODES:
        a = aggregate(d, x, config)
        b = aggregate(d, x[perm], config)
        assert np.abs(a - b).max() < 1e-9


def test_duplication_doubles_raw_hard():
    rng = np.random.default_rng(3)
    d = Dictionary(centers=rng.standard_normal((3, 2)))
    x = rng.standard_normal((10, 2))
    once = aggregate(d, x, PipelineConfig(mode="hard"))
    twice = aggregate(d, np.vstack([x, x]), PipelineConfig(mode="hard"))
    assert np.allclose(twice, 2.0 * once)


def test_translation_covariance():
    rng = np.random.default_rng(4)
    d = Dictionary(centers=rng.standard_normal((3, 3)))
    x = rng.standard_normal((15, 3))
    t = rng.standard_normal(3)
    shifted = Dictionary(centers=d.centers + t)
    for config in MODES:
        assert np.allclose(
            aggregate(d, x, config),
            aggregate(shifted, x + t, config),
            atol=1e-9,
        )


def test_empty_input_rejected():
    d = Dictionary(centers=np.zeros((2, 2)))
    with pytest.raises(VladkitError, match="need at least one descriptor"):
        vlad_aggregate(d, np.zeros((0, 2)), np.zeros((0, 2)))


def test_dim_mismatch_rejected():
    d = Dictionary(centers=np.zeros((2, 2)))
    with pytest.raises(VladkitError, match=r"descriptors shape \(3, 4\) != \(N, 2\)"):
        aggregate(d, np.zeros((3, 4)), PipelineConfig(mode="hard"))
    # Weights that do not match the descriptors or the words; one column
    # would otherwise broadcast over both words.
    for x, w in ((np.zeros((3, 4)), np.full((3, 2), 0.5)), (np.zeros((3, 2)), np.ones((3, 1))),
                 (np.zeros((3, 2)), np.full((2, 2), 0.5))):
        with pytest.raises(VladkitError, match="do not fit the words"):
            vlad_aggregate(d, x, w)


# -- normalization -----------------------------------------------------------

def test_normalize_single_block_hand():
    raw = np.array([3.0, 4.0, 0.0, 0.0])
    out = vlad_normalize(raw, num_words=2, dim=2, scheme="intra-then-global")
    assert np.allclose(out, [0.6, 0.8, 0.0, 0.0])


def test_normalize_all_zero_stays_zero():
    for scheme in ("intra-then-global", "global-only", "signed-sqrt-then-global"):
        out = vlad_normalize(np.zeros(6), 3, 2, scheme)
        assert out.tolist() == [0.0] * 6
        assert np.isfinite(out).all()


def test_normalize_unit_norm_all_schemes():
    rng = np.random.default_rng(5)
    for scheme in ("intra-then-global", "global-only", "signed-sqrt-then-global"):
        raw = rng.standard_normal(12)
        out = vlad_normalize(raw, 4, 3, scheme)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_normalize_unknown_scheme_is_refused():
    with pytest.raises(VladkitError, match="unknown normalization scheme 'l1'"):
        vlad_normalize(np.ones(4), 2, 2, "l1")


def test_signed_sqrt_values():
    raw = np.array([4.0, -9.0])
    out = vlad_normalize(raw, 1, 2, "signed-sqrt-then-global")
    expected = np.array([2.0, -3.0])
    assert np.allclose(out, expected / np.linalg.norm(expected))


# -- full encode -------------------------------------------------------------

def test_encode_centroid_map_is_zero():
    d = Dictionary(centers=np.array([[1.0, 2.0], [5.0, 5.0]]))
    fmap = FeatureMap(np.array([[[1.0, 2.0]]], dtype=np.float32))
    out = encode([fmap], d, None, PipelineConfig())[0]
    assert np.allclose(out, np.zeros(4))
    assert np.isfinite(out).all()


def test_encode_length_contract():
    rng = np.random.default_rng(6)
    d = Dictionary(centers=rng.standard_normal((5, 3)))
    fmap = FeatureMap(rng.standard_normal((4, 6, 3)).astype(np.float32))
    assert encode([fmap], d, None, PipelineConfig())[0].size == 15


def test_encode_permutation_of_cells():
    rng = np.random.default_rng(7)
    d = Dictionary(centers=rng.standard_normal((3, 2)))
    data = rng.standard_normal((3, 4, 2)).astype(np.float32)
    flat = data.reshape(-1, 2)
    perm = rng.permutation(len(flat))
    permuted = flat[perm].reshape(3, 4, 2)
    a = encode([FeatureMap(data)], d, None, PipelineConfig())[0]
    b = encode([FeatureMap(permuted)], d, None, PipelineConfig())[0]
    assert np.abs(a - b).max() < 1e-9


def test_encode_with_whitening_transform():
    rng = np.random.default_rng(8)
    transform = WhiteningTransform(mean=np.zeros(4), projection=np.eye(3, 4))
    d = Dictionary(centers=rng.standard_normal((4, 3)))
    fmap = FeatureMap(rng.standard_normal((2, 2, 4)).astype(np.float32))
    out = encode([fmap], d, transform, PipelineConfig())[0]
    assert out.size == 12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_encode_whitens_and_assigns_once_per_image(monkeypatch):
    """The flat counterpart of test_encode_spm_whitens_and_assigns_once_per_image:
    per call, one whitening and one weight matrix over each image's H*W
    descriptors, and one encode_descriptors over all the images. Each row
    equals the encoding of its map alone."""
    calls = {"weight_matrix": [], "apply_whitening_batch": [], "encode_descriptors": []}

    def counted(name):
        fn = getattr(vladkit.vlad, name)

        def wrapper(*args, **kwargs):
            calls[name].append(args[1].shape)
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(vladkit.vlad, name, counted(name))
    rng = np.random.default_rng(10)
    transform = fit_whitening(rng.standard_normal((50, 3)))
    d = Dictionary(centers=rng.standard_normal((4, 3)))
    config = PipelineConfig(mode="sa")
    for h, w in ((8, 8), (2, 3)):
        for n in (1, 3):
            fmaps = [FeatureMap(rng.standard_normal((h, w, 3)).astype(np.float32))
                     for _ in range(n)]
            for counts in calls.values():
                counts.clear()
            got = encode(fmaps, d, transform, config)
            assert calls == {
                "weight_matrix": [(h * w, 3)] * n,
                "apply_whitening_batch": [(h * w, 3)] * n,
                "encode_descriptors": [(n, h * w, 3)],
            }
            assert got.shape == (n, 12)
            for row, fmap in zip(got, fmaps):
                assert np.array_equal(row, encode([fmap], d, transform, config)[0])
