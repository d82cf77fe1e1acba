import numpy as np
import pytest

from memtrace import traced_peak
from oracles import best_kmeans_objective, naive_nearest
from vladkit import codebook
from vladkit.assignment import weight_matrix
from vladkit.codebook import Dictionary, kmeans_init_plusplus, kmeans_train, subsample
from vladkit.errors import VladkitError
from vladkit.pipeline import PipelineConfig


def nearest_words(dictionary, x):
    """Nearest word of each row of x: the argmax of its hard assignment row."""
    return weight_matrix(dictionary, x, PipelineConfig(mode="hard")).argmax(axis=1).tolist()


def test_init_exhaustion_returns_all_points():
    data = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]])
    centers = kmeans_init_plusplus(data, 3, seed=0)
    assert sorted(centers.tolist()) == sorted(data.tolist())


def test_init_deterministic():
    rng = np.random.default_rng(0)
    data = rng.standard_normal((40, 3))
    a = kmeans_init_plusplus(data, 5, seed=42)
    b = kmeans_init_plusplus(data, 5, seed=42)
    assert np.array_equal(a, b)


def test_init_too_few_points():
    with pytest.raises(VladkitError, match="2 points < 3 requested centers"):
        kmeans_init_plusplus(np.zeros((2, 2)), 3, seed=0)


def test_init_takes_the_lowest_unchosen_point_once_every_point_coincides():
    # Four coincident points, every distance 0, told apart by the signs of their zeros.
    data = np.array([[0.0, 0.0], [0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0]])
    for seed in range(8):
        centers = kmeans_init_plusplus(data, 3, seed=seed)
        chosen = [int(np.signbit(row) @ [2, 1]) for row in centers]
        assert chosen[1:] == [i for i in range(4) if i != chosen[0]][:2]


def test_init_separated_clusters_monte_carlo():
    # Two tight, far-apart clusters: k-means++ should pick one center from
    # each with overwhelming probability.
    rng = np.random.default_rng(5)
    cluster_a = rng.standard_normal((20, 2)) * 0.1
    cluster_b = rng.standard_normal((20, 2)) * 0.1 + 100.0
    data = np.vstack([cluster_a, cluster_b])
    hits = 0
    for seed in range(1000):
        centers = kmeans_init_plusplus(data, 2, seed=seed)
        sides = {center[0] > 50.0 for center in centers}
        hits += len(sides) == 2
    assert hits / 1000 >= 0.99


def test_train_four_point_exhaustive_oracle():
    data = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    dictionary, report = kmeans_train(data, 2, seed=0)
    centers = sorted(dictionary.centers.tolist())
    assert np.allclose(centers, [[0.0, 0.5], [10.0, 0.5]])
    assert abs(report.objective_trace[-1] - best_kmeans_objective(data, 2)) < 1e-12
    assert abs(report.objective_trace[-1] - 1.0) < 1e-12


def test_train_single_center_is_mean():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((30, 4))
    dictionary, report = kmeans_train(data, 1, seed=0)
    assert np.allclose(dictionary.centers[0], data.mean(axis=0))
    expected = float(((data - data.mean(axis=0)) ** 2).sum())
    assert abs(report.objective_trace[-1] - expected) < 1e-9


def test_objective_trace_non_increasing():
    rng = np.random.default_rng(2)
    for seed in range(50):
        data = rng.standard_normal((rng.integers(10, 60), rng.integers(2, 6)))
        m = int(rng.integers(1, min(6, len(data))))
        _, report = kmeans_train(data, m, seed=seed)
        trace = np.array(report.objective_trace)
        assert (np.diff(trace) <= 1e-9 * np.maximum(trace[:-1], 1.0)).all()


def test_converged_partition_is_nearest_center_consistent():
    rng = np.random.default_rng(3)
    for seed in range(10):
        data = rng.standard_normal((100, 3))
        dictionary, report = kmeans_train(data, 4, seed=seed, max_iters=200)
        assert report.converged
        # Brute-force: every point's cluster center is its nearest center.
        naive = [naive_nearest(dictionary.centers, x) for x in data]
        assert nearest_words(dictionary, data) == naive


def test_train_deterministic():
    rng = np.random.default_rng(4)
    data = rng.standard_normal((80, 3))
    d1, r1 = kmeans_train(data, 5, seed=77)
    d2, r2 = kmeans_train(data, 5, seed=77)
    assert np.array_equal(d1.centers, d2.centers)
    assert r1 == r2


def test_tol_zero_stops_once_the_objective_stops_falling():
    data = np.random.default_rng(0).standard_normal((200, 3))
    _, report = kmeans_train(data, 4, max_iters=100, tol=0.0, seed=0)
    assert report.converged and report.iterations < 100
    assert report.objective_trace[-1] == report.objective_trace[-2]
    # With tol > 0 the same stop is already implied: the run is unchanged.
    _, loose = kmeans_train(data, 4, max_iters=100, tol=1e-4, seed=0)
    assert report.objective_trace[: loose.iterations] == loose.objective_trace


def test_empty_word_is_reseeded_at_the_farthest_point(monkeypatch):
    data = np.array([[0.0], [1.0], [10.0], [11.0]])
    # Word 2 starts out of reach and owns no point after the first assignment.
    monkeypatch.setattr(
        codebook, "kmeans_init_plusplus", lambda data, m, seed: np.array([[0.0], [10.0], [100.0]])
    )
    dictionary, report = kmeans_train(data, 3, seed=0)
    # Points 1 and 3 tie as farthest from their centers; the lower index wins.
    assert dictionary.centers.tolist() == [[0.0], [10.5], [1.0]]
    assert report.objective_trace == (2.0, 0.75, 0.5, 0.5)
    assert report.converged

def test_distinct_centers_after_training():
    rng = np.random.default_rng(6)
    data = rng.standard_normal((50, 2))
    dictionary, _ = kmeans_train(data, 8, seed=0)
    rows = {tuple(row) for row in dictionary.centers.tolist()}
    assert len(rows) == 8


def test_nearest_center_hand_and_ties():
    d = Dictionary(centers=np.array([[0.0, 0.0], [1.0, 1.0]]))
    # The second row ties; the lowest index wins.
    assert nearest_words(d, np.array([[0.1, 0.0], [0.5, 0.5]])) == [0, 0]


def test_nearest_center_brute_force():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = Dictionary(centers=rng.standard_normal((6, 3)))
        x = rng.standard_normal((4, 3))
        assert nearest_words(d, x) == [naive_nearest(d.centers, row) for row in x]


def test_nearest_center_dim_mismatch():
    d = Dictionary(centers=np.zeros((2, 3)))
    with pytest.raises(VladkitError, match=r"descriptors shape \(1, 4\) != \(N, 3\)"):
        nearest_words(d, np.zeros((1, 4)))


def test_subsample_seeded_and_capped():
    rng = np.random.default_rng(8)
    data = rng.standard_normal((100, 2))
    a = subsample(data, 10, seed=3)
    b = subsample(data, 10, seed=3)
    assert len(a) == 10
    assert np.array_equal(a, b)
    assert subsample(data, 200, seed=3) is data


def test_subsample_rejects_cap_below_one():
    data = np.zeros((10, 2))
    for cap in (0, -5):
        with pytest.raises(VladkitError, match=f"subsample cap must be at least 1, got {cap}"):
            subsample(data, cap, seed=0)


def test_distances_make_no_scaled_copy_of_the_data():
    # Distances to one center are N floats. `-2.0 * data @ centers.T` would
    # first scale a copy of all N x D of the data.
    data = np.random.default_rng(9).standard_normal((20_000, 64))
    center = data[:1].copy()
    norms = np.sum(data * data, axis=1)
    peak = traced_peak(lambda: codebook.squared_distances(data, center, norms))
    assert peak < data.nbytes / 4


def test_kmeans_holds_at_most_two_distance_matrices():
    # A Lloyd step computes its (N, M) distances while the last step's are
    # still held; a scaled copy of the data, or a temporary per term of the
    # expansion, would come on top.
    data = np.random.default_rng(10).standard_normal((8192, 32))
    m = 32
    peak = traced_peak(lambda: kmeans_train(data, m, max_iters=5, seed=0))
    assert peak < 2.5 * max(data.nbytes, data.shape[0] * m * 8)
