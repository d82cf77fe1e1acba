import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vladkit.errors import VladkitError
from vladkit.whitening import (
    WhiteningTransform,
    apply_whitening_batch,
    fit_whitening,
    l2_normalize,
    l2_normalize_rows,
)


def test_l2_normalize_hand():
    assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8])


def test_l2_normalize_zero_vector():
    assert l2_normalize(np.zeros(3)).tolist() == [0.0, 0.0, 0.0]


def test_l2_normalize_tiny_nonzero_vector():
    # The squares underflow: [1e-170] has np.linalg.norm 0.
    expected = np.array([2.0, -1.0]) / np.sqrt(5.0)
    tiny = np.array([1e-170, -5e-171])
    assert np.allclose(l2_normalize(tiny), expected, rtol=1e-12, atol=0)
    rows = l2_normalize_rows(np.stack([tiny, np.zeros(2), [3.0, 4.0]]))
    assert np.allclose(rows, [expected, [0.0, 0.0], [0.6, 0.8]], rtol=1e-12, atol=0)


def test_l2_normalize_rows_of_a_batch_equal_each_vector_alone():
    """Along the last axis, in place or not: each row, tiny and zero rows too,
    is that vector's own 1-D normalization, whose norm is np.linalg.norm's."""
    rng = np.random.default_rng(3)
    batch = np.stack([[1e-170, -5e-171, 0.0], np.zeros(3), *rng.standard_normal((4, 3))])
    batch = batch.reshape(2, 3, 3)
    alone = np.array([l2_normalize(v) for v in batch.reshape(-1, 3)]).reshape(batch.shape)
    assert np.array_equal(l2_normalize(batch), alone)
    v = batch[1, 2]
    assert np.array_equal(l2_normalize(v), v / np.linalg.norm(v))
    assert l2_normalize(batch, out=batch) is batch
    assert np.array_equal(batch, alone)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=16))
@example([2.526717253313682e-161])  # its square is subnormal: the norm came out 1.00085
def test_l2_normalize_norm_and_idempotence(values):
    v = np.array(values)
    out = l2_normalize(v)
    norm = np.linalg.norm(out)
    assert norm == 0.0 or abs(norm - 1.0) < 1e-6
    assert np.allclose(l2_normalize(out), out, atol=1e-6)


def test_fit_diagonal_covariance_analytic():
    # Zero-mean data with empirical (1/N) covariance exactly diag(4, 1).
    a, b = np.sqrt(8.0), np.sqrt(2.0)
    x = np.array([[a, 0.0], [-a, 0.0], [0.0, b], [0.0, -b]])
    t = fit_whitening(x, output_dim=2, epsilon=0.0)
    expected = np.diag([0.5, 1.0])
    assert np.allclose(np.abs(t.projection), expected, atol=1e-12)


def test_whitened_covariance_identity():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2000, 6)) @ rng.standard_normal((6, 6))
    t = fit_whitening(x, epsilon=1e-12)
    y = t.project(x)
    cov = y.T @ y / len(y)
    assert np.abs(cov - np.eye(6)).max() < 1e-3


def test_rotation_invariance_of_fit_quality():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((1500, 5)) * np.array([3.0, 2.0, 1.0, 0.5, 0.25])
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    for data in (x, x @ q):
        t = fit_whitening(data, epsilon=1e-12)
        y = t.project(data)
        cov = y.T @ y / len(y)
        assert np.abs(cov - np.eye(5)).max() < 1e-3


def test_degenerate_input():
    with pytest.raises(VladkitError, match="need at least 2 descriptors to fit whitening"):
        fit_whitening(np.ones((1, 3)))


def test_an_axis_of_no_variance_at_epsilon_0_is_refused_before_dividing():
    # Empirical covariance exactly diag(0.5, 0.5, 0): the third dim never varies.
    x = np.array([[1.0, 0.0, 5.0], [-1.0, 0.0, 5.0], [0.0, 1.0, 5.0], [0.0, -1.0, 5.0]])
    with np.errstate(all="raise"):  # no 1 / 0 is computed on the way to the error
        with pytest.raises(VladkitError, match=r"1 of 3 .* epsilon above 0 or pca_dim .* 2$"):
            fit_whitening(x, epsilon=0.0)
        # The axes that vary, or an epsilon, whiten as before.
        kept = fit_whitening(x, 2, 0.0).projection
        assert np.allclose(np.linalg.norm(kept, axis=1), np.sqrt(2.0)) and not kept[:, 2].any()
        assert np.isfinite(fit_whitening(x).projection).all()


def test_an_axis_too_small_for_a_float32_projection_is_refused():
    # Covariance exactly diag(0.5, 0.5, 2.5e-81): the third dim holds 0 and the
    # float32 subnormal 1e-40, so at epsilon 0 its projection entry would be 2e40.
    x = np.array([[1.0, 0.0, 1e-40], [-1.0, 0.0, 1e-40], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
    with np.errstate(all="raise"):
        with pytest.raises(
            VladkitError, match=r"^1 of 3 .* float32 .* epsilon 0.0: .* pca_dim to at most 2$"
        ):
            fit_whitening(x, epsilon=0.0)
        # What is left is within float32: the projection is written without overflow.
        for kept in (fit_whitening(x, 2, 0.0), fit_whitening(x)):
            assert np.isfinite(kept.projection.astype(np.float32)).all()


@pytest.mark.parametrize("epsilon", [None, 0.0])
def test_descriptors_of_no_variance_are_refused(epsilon):
    # Auto epsilon scales with the variance, so it is 0 here as well.
    with np.errstate(all="raise"):
        with pytest.raises(VladkitError, match="^descriptors have no variance to whiten$"):
            fit_whitening(np.ones((4, 3)), epsilon=epsilon)


def test_dim_too_large():
    with pytest.raises(VladkitError, match=r"output_dim must be between 1 and .* = 4, got 5"):
        fit_whitening(np.random.default_rng(0).standard_normal((10, 4)), output_dim=5)


def test_apply_at_mean_is_zero():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((50, 3))
    t = fit_whitening(x)
    assert np.allclose(apply_whitening_batch(t, x.mean(axis=0)[None, :]), 0.0, atol=1e-9)


def test_apply_identity_transform_hand():
    t = WhiteningTransform(mean=np.zeros(3), projection=np.eye(3))
    assert np.allclose(apply_whitening_batch(t, np.array([[3.0, 4.0, 0.0]])), [[0.6, 0.8, 0.0]])


def test_apply_output_unit_norm():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((100, 4))
    t = fit_whitening(x)
    out = apply_whitening_batch(t, x[:10])
    assert (np.abs(np.linalg.norm(out, axis=1) - 1.0) < 1e-9).all()


def test_apply_dim_mismatch():
    t = WhiteningTransform(mean=np.zeros(3), projection=np.eye(3))
    with pytest.raises(VladkitError, match="descriptor dim 4 != transform input 3"):
        apply_whitening_batch(t, np.zeros((1, 4)))


def test_apply_rejects_non_finite():
    t = WhiteningTransform(mean=np.zeros(3), projection=np.eye(3))
    for bad in (np.nan, np.inf):
        x = np.ones((4, 3))
        x[2, 1] = bad
        with pytest.raises(VladkitError, match="descriptor contains NaN/Inf"):
            apply_whitening_batch(t, x)


def test_fit_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((200, 5))
    t1 = fit_whitening(x)
    t2 = fit_whitening(x)
    assert np.array_equal(t1.projection, t2.projection)
    assert np.array_equal(t1.mean, t2.mean)


@settings(max_examples=20)
@given(st.integers(0, 2**32 - 1))
def test_sign_convention_largest_entry_positive(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((60, 4))
    t = fit_whitening(x)
    for row in t.projection:
        assert row[np.argmax(np.abs(row))] > 0
