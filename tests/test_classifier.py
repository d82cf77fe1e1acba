import tracemalloc

import numpy as np
import pytest

from memtrace import traced_peak
from oracles import naive_pegasos_ovr, stepwise_dual_ovr
from vladkit import classifier, fileio
from vladkit.classifier import LinearModel, predict, tabulate, train_ovr
from vladkit.errors import VladkitError
from vladkit.pipeline import _FIELDS, PipelineConfig

# The dual trainer's largest weight or bias difference from the primal
# oracle, relative to the oracle's largest entry. Never loosened.
ORACLE_ATOL = 1e-12


def separable_clouds(rng, n_per=40):
    a = rng.standard_normal((n_per, 2)) * 0.3 + np.array([3.0, 0.0])
    b = rng.standard_normal((n_per, 2)) * 0.3 + np.array([-3.0, 0.0])
    x = np.vstack([a, b])
    y = np.array([0] * n_per + [1] * n_per)
    return x, y


def test_separable_training_accuracy():
    rng = np.random.default_rng(0)
    x, y = separable_clouds(rng)
    model = train_ovr(x, y, PipelineConfig())
    predicted, _ = predict(model, x)
    assert (predicted == y).all()


def test_deterministic_model_bytes(tmp_path):
    rng = np.random.default_rng(1)
    x, y = separable_clouds(rng)
    for name in ("a.vlm", "b.vlm"):
        model = train_ovr(x, y, PipelineConfig(seed=5))
        fileio.write_model(model.weights, model.biases, tmp_path / name)
    assert (tmp_path / "a.vlm").read_bytes() == (tmp_path / "b.vlm").read_bytes()


def test_too_few_classes():
    with pytest.raises(VladkitError, match="need at least two classes to train"):
        train_ovr(np.zeros((5, 2)), np.zeros(5, dtype=int), PipelineConfig())


def test_encodings_and_labels_of_different_lengths():
    with pytest.raises(VladkitError, match="encodings and labels disagree in length"):
        train_ovr(np.zeros((5, 2)), np.array([0, 1, 0, 1]), PipelineConfig())


def test_train_ovr_refuses_a_negative_label():
    # As an index, -1 would train as the last class: a 2-class model.
    with pytest.raises(VladkitError, match="label -1 is negative"):
        train_ovr(np.eye(3), [-1, 0, 1], PipelineConfig(epochs=2))


def test_tabulate_refuses_a_negative_label():
    # As an index, -1 would count as class 1, a correct prediction.
    with pytest.raises(VladkitError, match="label -1 is negative"):
        tabulate([-1, 0], [1, 0], 2)
    with pytest.raises(VladkitError, match="label -1 is negative"):
        tabulate([1, 0], [-1, 0], 2)


def test_tabulate_refuses_a_label_outside_its_classes():
    # As an index, 2 is past the (2, 2) confusion matrix.
    with pytest.raises(VladkitError, match="label 2 is not below num_classes 2"):
        tabulate([2, 0], [0, 0], 2)
    with pytest.raises(VladkitError, match="label 2 is not below num_classes 2"):
        tabulate([0, 0], [2, 0], 2)
    assert tabulate([1, 0], [1, 1], 2).accuracy == 0.5


def test_predict_hand_scores():
    model = LinearModel(weights=np.eye(2), biases=np.zeros(2))
    labels, scores = predict(model, np.array([[2.0, 1.0], [0.5, 3.0]]))
    assert labels.tolist() == [0, 1]
    assert scores.tolist() == [[2.0, 1.0], [0.5, 3.0]]


def test_predict_tie_breaks_low_index():
    model = LinearModel(weights=np.zeros((3, 2)), biases=np.zeros(3))
    labels, _ = predict(model, np.array([[1.0, 1.0], [-2.0, 0.0]]))
    assert labels.tolist() == [0, 0]


def test_predict_matches_linear_scan():
    rng = np.random.default_rng(2)
    for _ in range(50):
        model = LinearModel(weights=rng.standard_normal((4, 3)), biases=rng.standard_normal(4))
        x = rng.standard_normal((5, 3))
        labels, scores = predict(model, x)
        for label, row, row_scores in zip(labels, x, scores):
            # Each row scores as the one-encoding product would.
            one = model.weights @ row + model.biases
            assert np.allclose(row_scores, one, rtol=0.0, atol=1e-12)
            assert label == max(range(4), key=lambda c: (row_scores[c], -c))


def test_predict_dim_mismatch():
    model = LinearModel(weights=np.zeros((2, 3)), biases=np.zeros(2))
    with pytest.raises(VladkitError, match=r"encodings shape \(1, 4\) != \(N, 3\)"):
        predict(model, np.zeros((1, 4)))
    with pytest.raises(VladkitError, match=r"encodings shape \(3,\) != \(N, 3\)"):
        predict(model, np.zeros(3))


def test_argmax_invariant_to_positive_rescaling():
    rng = np.random.default_rng(3)
    model = LinearModel(weights=rng.standard_normal((3, 4)), biases=np.zeros(3))
    scaled = LinearModel(weights=model.weights / 7.5, biases=np.zeros(3))
    x = rng.standard_normal((20, 4))
    assert np.array_equal(predict(model, x)[0], predict(scaled, 7.5 * x)[0])


def test_a_sparse_label_names_itself_where_classes_are_allocated(monkeypatch):
    message = "largest label 1000000000 makes 1000000001 classes: out of memory"
    # The (C, C) confusion matrix, 8 * 10^18 bytes, fits in no address space.
    with pytest.raises(VladkitError, match=message):
        tabulate(np.array([0, 10**9]), np.array([0, 0]), 10**9 + 1)
    # Training's (N, C) targets take 32 GB, which an overcommitting host may
    # grant, so the allocator's refusal is simulated.
    full = np.full

    def refusing(shape, *args, **kwargs):
        if np.prod(shape) > 10**8:
            raise MemoryError
        return full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", refusing)
    with pytest.raises(VladkitError, match=message):
        train_ovr(np.eye(4), np.array([0, 1, 0, 10**9]), PipelineConfig())


def test_tabulate_identities():
    true = np.array([0, 0, 1, 1, 2])
    pred = np.array([0, 1, 1, 1, 0])
    report = tabulate(true, pred, 3)
    assert report.confusion.sum(axis=1).tolist() == [2, 2, 1]
    assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()
    assert np.allclose(report.per_class_accuracy, [0.5, 1.0, 0.0])


def test_memorized_single_item():
    report = tabulate(np.array([0]), np.array([0]), 1)
    assert report.accuracy == 1.0
    assert report.confusion.shape == (1, 1)


def test_random_predictor_near_chance():
    # Binomial oracle: random guesses on a balanced 4-class set stay within
    # 5 standard errors of 0.25 over 10 seeds.
    n, c = 400, 4
    true = np.repeat(np.arange(c), n // c)
    se = np.sqrt(0.25 * 0.75 / n)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pred = rng.integers(0, c, size=n)
        acc = tabulate(true, pred, c).accuracy
        assert abs(acc - 0.25) < 5 * se


def test_training_memory_does_not_grow_with_epochs():
    # Each epoch's shuffle is drawn when the epoch starts; drawing them all
    # up front held epochs * N indices at once.
    x = np.random.default_rng(2).standard_normal((4, 2))
    y = np.array([0, 1, 0, 1])

    def peak_bytes(epochs):
        tracemalloc.start()
        try:
            train_ovr(x, y, PipelineConfig(epochs=epochs))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(2000) < peak_bytes(20) + 16 * 1024


def test_training_memory_does_not_grow_with_epochs_when_every_step_violates():
    # At reg = 1 every step violates, so the look-ahead's pending count
    # changes pile up for as long as it backs off; they fit one (N, C) array.
    x = np.random.default_rng(2).standard_normal((4, 2))
    y = np.array([0, 1, 0, 1])

    def peak_bytes(epochs):
        return traced_peak(lambda: train_ovr(x, y, PipelineConfig(reg=1.0, epochs=epochs)))

    assert peak_bytes(2000) < peak_bytes(20) + 16 * 1024


REG_FLOOR = _FIELDS["reg"].metadata["low"]


@pytest.mark.parametrize(
    "n, dim, classes, epochs, reg, dtype, layout",
    [
        (40, 16, 4, 50, 1e-4, np.float64, "plain"),  # sparse: few steps violate
        (40, 16, 4, 50, 1e-4, np.float32, "plain"),
        (30, 8, 3, 20, 1e-2, np.float64, "plain"),  # dense: nearly every step violates
        (30, 8, 3, 20, 1e-1, np.float32, "plain"),
        (30, 8, 5, 20, 1.0, np.float64, "plain"),
        (20, 16, 4, 30, REG_FLOOR, np.float64, "plain"),
        (20, 16, 4, 30, REG_FLOOR, np.float32, "plain"),
        (24, 12, 3, 40, 1e-4, np.float64, "duplicates and a zero row"),
        (24, 12, 3, 40, 1e-2, np.float32, "duplicates and a zero row"),
        (2, 3, 2, 40, 1e-4, np.float64, "plain"),  # N = 2
        (2, 3, 2, 40, 1.0, np.float32, "plain"),
        (25, 10, 2, 30, 1e-3, np.float64, "plain"),
        (25, 10, 7, 30, 1e-3, np.float32, "plain"),
        (18, 8, 3, 30, 1e-4, np.float64, "sparse label"),
        (12, 6, 3, 1, 1e-4, np.float64, "plain"),  # one epoch
        (16, 6, 3, 30, 2.0**-4, np.float64, "dyadic"),
        (24, 8, 3, 30, 2.0**-5, np.float32, "dyadic"),
    ],
)
def test_train_ovr_matches_the_stepwise_dual_loop_bit_for_bit(
        n, dim, classes, epochs, reg, dtype, layout):
    rng = np.random.default_rng(n * dim + classes)
    if layout == "dyadic":
        # Entries in {0, ±1/2} and reg = 2^-k: every margin and threshold is
        # exact, and some margins equal their thresholds, where the strict `<`
        # decides.
        x = 0.5 * rng.integers(-1, 2, (n, dim))
    else:
        x = rng.standard_normal((n, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    y = np.arange(n) % classes
    rng.shuffle(y)
    if layout == "duplicates and a zero row":
        x[[5, 9]] = x[2]
        x[3] = 0.0
    if layout == "sparse label":
        y[y == classes - 1] = 6  # classes 2 to 5 have no rows
    x = x.astype(dtype)
    model = train_ovr(x, y, PipelineConfig(reg=reg, epochs=epochs, seed=7))
    weights, biases, ties = stepwise_dual_ovr(x, y, reg, epochs, 7)
    assert np.array_equal(model.weights, weights)
    assert np.array_equal(model.biases, biases)
    assert ties > 0 or layout != "dyadic"


@pytest.mark.parametrize(
    "n, dim, classes, epochs, reg, zero_row",
    [
        (12, 40, 3, 50, 1e-4, False),  # N < dim
        (40, 5, 4, 50, 1e-4, False),  # N > dim
        (15, 8, 2, 20, 1e-2, False),
        (15, 8, 5, 20, 1e-2, False),
        (18, 30, 6, 20, 1e-4, False),
        (10, 20, 3, 1, 1e-4, False),  # one epoch
        (20, 16, 4, 30, 1e-4, True),  # an all-zero row
        (20, 16, 4, 30, _FIELDS["reg"].metadata["low"], False),  # the reg floor
    ],
)
def test_train_ovr_matches_primal_oracle(n, dim, classes, epochs, reg, zero_row):
    # Training rows are unit-norm, as encodings are. A zero row's margin is
    # its bias alone, k / (reg * t) for an integer k. Where that is exactly 1,
    # or exactly 0 at the reg floor, rounding decides the update in either
    # form, so the zero row is tested at reg = 1e-4 and t < 10,000.
    rng = np.random.default_rng(n * dim + classes)
    x = rng.standard_normal((n, dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    if zero_row:
        x[3] = 0.0
    y = np.arange(n) % classes
    rng.shuffle(y)
    model = train_ovr(x, y, PipelineConfig(reg=reg, epochs=epochs, seed=7))
    weights, biases = naive_pegasos_ovr(x, y, reg, epochs, 7)
    scale = max(np.abs(weights).max(), np.abs(biases).max())
    assert np.abs(model.weights - weights).max() <= ORACLE_ATOL * scale
    assert np.abs(model.biases - biases).max() <= ORACLE_ATOL * scale
    oracle_labels = np.argmax(x @ weights.T + biases, axis=1)
    assert np.array_equal(predict(model, x)[0], oracle_labels)


def test_training_makes_no_augmented_copy():
    # An (N, dim + 1) copy with the bias column would alone exceed x.nbytes.
    x = np.random.default_rng(4).standard_normal((20, 40_000))
    y = np.arange(20) % 4
    tracemalloc.start()
    try:
        train_ovr(x, y, PipelineConfig(epochs=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 2


def test_float32_encodings_give_the_model_and_scores_of_their_float64_widening(monkeypatch):
    rng = np.random.default_rng(5)
    x = rng.standard_normal((13, 50)).astype(np.float32)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    wide = x.astype(np.float64)
    y = np.arange(13) % 3
    config = PipelineConfig(epochs=5, seed=3)
    whole = train_ovr(wide, y, config)
    # Blocks this small cut every product's loop into several blocks.
    monkeypatch.setattr(classifier, "_BLOCK", 120)
    counts = []
    column_blocks = classifier._column_blocks

    def counted(x, use):
        counts.append(0)

        def counting(cols, block):
            counts[-1] += 1
            use(cols, block)

        column_blocks(x, counting)

    monkeypatch.setattr(classifier, "_column_blocks", counted)
    model = train_ovr(x, y, config)
    model_wide = train_ovr(wide, y, config)
    assert np.array_equal(model.weights, model_wide.weights)
    assert np.array_equal(model.biases, model_wide.biases)
    labels, scores = predict(model, x)
    labels_wide, scores_wide = predict(model, wide)
    assert np.array_equal(scores, scores_wide) and np.array_equal(labels, labels_wide)
    assert len(counts) == 6 and min(counts) > 1  # gram, weights, predict; twice each
    # Blocking leaves the unblocked model within the oracle tolerance.
    scale = max(np.abs(whole.weights).max(), np.abs(whole.biases).max())
    assert np.abs(model.weights - whole.weights).max() <= ORACLE_ATOL * scale
    assert np.abs(model.biases - whole.biases).max() <= ORACLE_ATOL * scale


def test_float32_training_widens_in_blocks(monkeypatch):
    # A float64 copy of x alone would take 2 * x.nbytes.
    monkeypatch.setattr(classifier, "_BLOCK", 1 << 16)
    x = np.random.default_rng(4).standard_normal((20, 40_000)).astype(np.float32)
    y = np.arange(20) % 4
    tracemalloc.start()
    try:
        train_ovr(x, y, PipelineConfig(epochs=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes


def test_float32_prediction_widens_in_blocks(monkeypatch):
    # A float64 copy of x alone would take 2 * x.nbytes.
    monkeypatch.setattr(classifier, "_BLOCK", 1 << 16)
    x = np.random.default_rng(4).standard_normal((20, 40_000)).astype(np.float32)
    rng = np.random.default_rng(5)
    model = LinearModel(weights=rng.standard_normal((4, 40_000)), biases=rng.standard_normal(4))
    assert traced_peak(lambda: predict(model, x)) < x.nbytes
