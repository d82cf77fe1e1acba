"""Acceptance suite.

Each test covers one of the eight acceptance criteria (A1-A8) and prints a
single PASS/FAIL line with its runtime. Run with `pytest tests/test_acceptance.py -s`
to see the lines as they complete; without -s they still appear in captured
output for failures and in the summary when using -rA.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import (
    llc_objective,
    naive_hard_weights,
    naive_lsa_weights,
    naive_nearest,
    naive_soft_weights,
    naive_vlad,
    random_feasible,
)
from vladkit import fileio
from vladkit.assignment import weight_matrix
from vladkit.codebook import Dictionary, kmeans_train, squared_distances
from vladkit.fileio import FeatureMap
from vladkit.pipeline import PipelineConfig, run_pipeline
from vladkit.spm import PyramidSpec, encode_spm, parse_pyramid
from vladkit.synth import SynthSpec, split_manifest, synth_dataset
from vladkit.classifier import predict, train_ovr
from vladkit.vlad import encode, encode_descriptors, vlad_aggregate
from vladkit.whitening import apply_whitening_batch, fit_whitening

_MODE_CONFIGS = [
    PipelineConfig(mode="hard"),
    PipelineConfig(mode="sa", beta=0.7),
    PipelineConfig(mode="lsa", beta=0.7, knn=2),
    PipelineConfig(mode="llc", lam=1e-3, sigma=1.5),
    PipelineConfig(mode="llc-approx", knn=2),
]


def _report(name: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{name}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"{name} failed: {detail}"
    assert elapsed < budget, f"{name} exceeded runtime budget: {elapsed:.1f}s"


def test_a1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 51))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(2, 9))
        dictionary = Dictionary(centers=rng.standard_normal((m, d)))
        descriptors = rng.standard_normal((n, d))
        for config in _MODE_CONFIGS:
            cfg = replace(config, knn=min(config.knn, m))
            weights = weight_matrix(dictionary, descriptors, cfg)
            fast = vlad_aggregate(dictionary, descriptors, weights)
            slow = naive_vlad(
                dictionary.centers, descriptors,
                lambda x: weight_matrix(dictionary, x[None, :], cfg)[0],
            )
            worst = max(worst, float(np.abs(fast - slow).max()))
    ok = worst <= 1e-9
    _report("A1 oracle equivalence", ok, f"max |diff| = {worst:.2e} <= 1e-9",
            time.perf_counter() - start, 10.0)


def test_a2_assignment_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    sum_err = lsa_sa_err = onehot_err = 0.0
    llc_ok = True
    for _ in range(100):
        m = int(rng.integers(2, 9))
        d = int(rng.integers(2, 9))
        dictionary = Dictionary(centers=rng.standard_normal((m, d)))
        x = rng.standard_normal(d)
        row = x[None, :]
        # (i) weights sum to one in every mode
        for config in _MODE_CONFIGS:
            cfg = replace(config, knn=min(config.knn, m))
            w = weight_matrix(dictionary, row, cfg)[0]
            sum_err = max(sum_err, abs(float(w.sum()) - 1.0))
        # (ii) localized softmax over all M words equals plain softmax
        sa = weight_matrix(dictionary, row, PipelineConfig(mode="sa", beta=0.9))[0]
        lsa = weight_matrix(dictionary, row, PipelineConfig(mode="lsa", beta=0.9, knn=m))[0]
        lsa_sa_err = max(lsa_sa_err, float(np.abs(sa - lsa).max()))
        # (iii) huge beta concentrates the softmax at the hard argmin
        hot = weight_matrix(dictionary, row, PipelineConfig(mode="sa", beta=1e6))[0]
        hard = weight_matrix(dictionary, row, PipelineConfig(mode="hard"))[0]
        onehot_err = max(onehot_err, float(np.abs(hot - hard).max()))
        # (iv) solver's constrained objective beats random feasible points
        lam, sigma = 1e-3, 1.5
        a = weight_matrix(dictionary, row, PipelineConfig(mode="llc", lam=lam, sigma=sigma))[0]
        solver_obj = llc_objective(dictionary.centers, x, a, lam, sigma)
        candidates = random_feasible(rng, m, 100_000)
        residual = candidates @ dictionary.centers - x
        dist = np.sqrt(((dictionary.centers - x) ** 2).sum(axis=1))
        s = np.exp(dist / sigma)
        objs = (residual ** 2).sum(axis=1) + lam * ((s * candidates) ** 2).sum(axis=1)
        if objs.min() < solver_obj - 1e-8:
            llc_ok = False
    ok = sum_err <= 1e-6 and lsa_sa_err <= 1e-12 and onehot_err <= 1e-6 and llc_ok
    _report(
        "A2 assignment laws", ok,
        f"sum err {sum_err:.1e}, lsa=sa err {lsa_sa_err:.1e}, "
        f"one-hot err {onehot_err:.1e}, llc beats 1e5 random points: {llc_ok}",
        time.perf_counter() - start, 60.0,
    )


def test_a3_whitening_identity_covariance():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 33))
        scale = rng.uniform(0.5, 3.0, size=d)
        mixing = rng.standard_normal((d, d))
        data = rng.standard_normal((2000, d)) * scale @ mixing
        transform = fit_whitening(data, None, 0.0)
        projected = (data - transform.mean) @ transform.projection.T
        cov = projected.T @ projected / len(projected)
        worst = max(worst, float(np.abs(cov - np.eye(transform.output_dim)).max()))
    ok = worst <= 1e-3
    _report("A3 whitening", ok, f"max |cov - I| entry = {worst:.2e} <= 1e-3",
            time.perf_counter() - start, 10.0)


@pytest.fixture(scope="module")
def spatial_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("a4")
    spec = SynthSpec(
        num_classes=4, images_per_class=100, grid_h=6, grid_w=6, dim=8,
        mode="spatial-signal", noise_sigma=0.1, seed=11,
    )
    manifest = synth_dataset(spec, root)
    train, test = split_manifest(manifest, per_class=50, seed=1)
    fileio.save_manifest(train, root / "train.tsv")
    fileio.save_manifest(test, root / "test.tsv")
    return root


def test_a4_spatial_signal_needs_pyramid(spatial_dataset, tmp_path):
    start = time.perf_counter()
    root = spatial_dataset
    results = {}
    for mode in ("hard", "llc-approx"):
        for pyramid in (None, "a"):
            config = PipelineConfig(words=8, seed=0, mode=mode, pyramid=pyramid)
            report = run_pipeline(
                config, root / "train.tsv", root / "test.tsv",
                tmp_path / f"{mode}_{pyramid or 'none'}",
            )
            results[(mode, pyramid or "none")] = report.accuracy
    ok = all(results[(m, "none")] <= 0.35 for m in ("hard", "llc-approx")) and all(
        results[(m, "a")] >= 0.90 for m in ("hard", "llc-approx")
    )
    detail = ", ".join(f"{m}/{p}={v:.3f}" for (m, p), v in sorted(results.items()))
    _report("A4 spatial-signal pyramid test", ok, detail,
            time.perf_counter() - start, 180.0)


def test_a5_descriptor_signal_all_modes(tmp_path):
    start = time.perf_counter()
    spec = SynthSpec(
        num_classes=5, images_per_class=100, grid_h=4, grid_w=4, dim=8,
        mode="descriptor-signal", noise_sigma=0.1, seed=11,
    )
    root = tmp_path / "data"
    manifest = synth_dataset(spec, root)
    train, test = split_manifest(manifest, per_class=50, seed=1)
    fileio.save_manifest(train, root / "train.tsv")
    fileio.save_manifest(test, root / "test.tsv")

    # Baseline: per-image mean raw descriptor, same trainer and settings.
    def mean_features(split):
        xs, ys = [], []
        for rel, label in split.entries:
            xs.append(fileio.read_feature_map(root / rel).descriptors().mean(axis=0))
            ys.append(label)
        return np.array(xs, dtype=np.float64), np.array(ys)

    train_x, train_y = mean_features(train)
    test_x, test_y = mean_features(test)
    model = train_ovr(train_x, train_y, PipelineConfig())
    predictions, _ = predict(model, test_x)
    baseline = float((predictions == test_y).mean())

    accuracies = {}
    for mode in ("hard", "sa", "lsa", "llc", "llc-approx"):
        config = PipelineConfig(words=8, seed=0, mode=mode)
        report = run_pipeline(
            config, root / "train.tsv", root / "test.tsv", tmp_path / mode
        )
        accuracies[mode] = report.accuracy
    ok = all(v >= 0.95 and v >= baseline for v in accuracies.values())
    detail = ", ".join(f"{m}={v:.3f}" for m, v in accuracies.items())
    _report("A5 descriptor-signal all modes", ok,
            f"{detail} vs baseline={baseline:.3f}",
            time.perf_counter() - start, 180.0)


def test_a6_kmeans_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(6)
    monotone = consistent = True
    for _ in range(50):
        n = int(rng.integers(20, 201))
        d = int(rng.integers(2, 7))
        m = int(rng.integers(2, 6))
        data = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0)
        dictionary, report = kmeans_train(data, m, seed=int(rng.integers(1000)))
        trace = np.array(report.objective_trace)
        if not (np.diff(trace) <= 1e-9).all():
            monotone = False
        # Brute-force nearest-center check of the converged partition.
        fast_labels = np.argmin(squared_distances(data, dictionary.centers), axis=1)
        for i, x in enumerate(data):
            if naive_nearest(dictionary.centers, x) != fast_labels[i]:
                consistent = False
                break
    ok = monotone and consistent
    _report("A6 k-means", ok,
            f"objective monotone: {monotone}, partitions nearest-center-consistent: {consistent}",
            time.perf_counter() - start, 30.0)


def test_a7_determinism_and_roundtrip(tmp_path):
    start = time.perf_counter()
    # Deterministic artifacts: same seed, byte-identical outputs.
    spec = SynthSpec(
        num_classes=2, images_per_class=6, grid_h=3, grid_w=3, dim=4,
        mode="descriptor-signal", noise_sigma=0.1, seed=7,
    )
    runs = []
    for name in ("r1", "r2"):
        root = tmp_path / name
        manifest = synth_dataset(spec, root)
        train, test = split_manifest(manifest, per_class=3, seed=1)
        fileio.save_manifest(train, root / "train.tsv")
        fileio.save_manifest(test, root / "test.tsv")
        run_pipeline(
            PipelineConfig(words=3, epochs=10, seed=0, mode="sa"),
            root / "train.tsv", root / "test.tsv", root / "work",
        )
        # The cache keys cover the manifests' directory, so only the stage
        # directories' names may differ between the two roots.
        names = sorted(p.name for p in (root / "work").iterdir())
        files = {}
        for p in root.rglob("*"):
            if p.is_file():
                rel = p.relative_to(root).as_posix()
                for name in names:
                    rel = rel.replace(name, name.partition("_")[0] + "_<key>")
                files[rel] = p.read_bytes()
        stages = [name.partition("_")[0] for name in names]
        runs.append(files if stages == ["classifier", "dictionary", "encoder", "whitening"] else None)
    deterministic = runs[0] is not None and runs[0] == runs[1]
    # Bit-exact round-trips for every container format, 100 random payloads.
    rng = np.random.default_rng(7)
    roundtrip = True
    for i in range(100):
        h, w, d = (int(rng.integers(1, 6)) for _ in range(3))
        m = int(rng.integers(1, 6))
        c = int(rng.integers(2, 5))
        fmap = FeatureMap(rng.standard_normal((h, w, d)).astype(np.float32))
        path = tmp_path / f"p{i}.vlf"
        fileio.write_feature_map(fmap, path)
        roundtrip &= np.array_equal(fileio.read_feature_map(path).data, fmap.data)

        centers = rng.standard_normal((m, d)).astype(np.float32)
        fileio.write_dictionary(centers, tmp_path / "p.vld")
        roundtrip &= np.array_equal(fileio.read_dictionary(tmp_path / "p.vld"), centers)

        mean = rng.standard_normal(d).astype(np.float32)
        projection = rng.standard_normal((d, d)).astype(np.float32)
        fileio.write_whitening(mean, projection, tmp_path / "p.vlw")
        mean2, projection2 = fileio.read_whitening(tmp_path / "p.vlw")
        roundtrip &= np.array_equal(mean2, mean) and np.array_equal(projection2, projection)

        values = rng.standard_normal(m * d).astype(np.float32)
        fileio.write_encoding(values, tmp_path / "p.vle")
        roundtrip &= np.array_equal(fileio.read_encoding(tmp_path / "p.vle"), values)

        weights = rng.standard_normal((c, m * d)).astype(np.float32)
        biases = rng.standard_normal(c).astype(np.float32)
        fileio.write_model(weights, biases, tmp_path / "p.vlm")
        weights2, biases2 = fileio.read_model(tmp_path / "p.vlm")
        roundtrip &= np.array_equal(weights2, weights) and np.array_equal(biases2, biases)
    ok = deterministic and roundtrip
    _report("A7 determinism & round-trip", ok,
            f"byte-identical reruns: {deterministic}, format round-trips: {roundtrip}",
            time.perf_counter() - start, 10.0)


def test_a8_shape_and_degeneracy():
    start = time.perf_counter()
    rng = np.random.default_rng(8)
    dictionary = Dictionary(centers=rng.standard_normal((4, 3)))
    fmap = FeatureMap(rng.standard_normal((5, 4, 3)).astype(np.float32))
    config = PipelineConfig()
    # Single-region pyramid is bitwise identical to the plain encoder.
    plain = encode([fmap], dictionary, None, config)[0]
    spm = encode_spm([fmap], dictionary, None, config, PyramidSpec(((1, 1),)))[0]
    bitwise = np.array_equal(plain, spm)
    # Output length is words * dim * regions for every preset.
    lengths_ok = True
    for preset, regions in (("a", 8), ("b", 8), ("c", 21), ("3x2,1x1", 7)):
        spec = parse_pyramid(preset)
        out = encode_spm([fmap], dictionary, None, config, spec)[0]
        lengths_ok &= spec.total_regions == regions
        lengths_ok &= out.size == 4 * 3 * regions
    # Degenerate inputs stay finite and NaN-free in every mode and scheme.
    finite_ok = True
    zero_map = FeatureMap(np.zeros((2, 2, 3), dtype=np.float32))
    single = FeatureMap(rng.standard_normal((1, 1, 3)).astype(np.float32))
    for mode in ("hard", "sa", "lsa", "llc", "llc-approx"):
        for scheme in ("intra-then-global", "global-only", "signed-sqrt-then-global"):
            enc_cfg = PipelineConfig(mode=mode, knn=2, norm_scheme=scheme)
            for fm in (zero_map, single):
                out = encode([fm], dictionary, None, enc_cfg)[0]
                finite_ok &= bool(np.isfinite(out).all())
    # Descriptors exactly on a center: residual block is zero, output finite.
    on_center_x = np.repeat(dictionary.centers[:1], 3, axis=0)
    on_center = encode_descriptors(
        dictionary, on_center_x, weight_matrix(dictionary, on_center_x, config), config.norm_scheme
    )
    finite_ok &= bool(np.isfinite(on_center).all())
    ok = bitwise and lengths_ok and finite_ok
    _report("A8 shape/degeneracy", ok,
            f"single-region bitwise: {bitwise}, lengths: {lengths_ok}, finite: {finite_ok}",
            time.perf_counter() - start, 30.0)
