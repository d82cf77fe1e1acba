import dataclasses

import numpy as np
import pytest

import vladkit.spm
import vladkit.vlad
from memtrace import traced_peak
from vladkit import fileio
from vladkit.assignment import weight_matrix
from vladkit.codebook import Dictionary, kmeans_train
from vladkit.errors import VladkitError
from vladkit.fileio import FeatureMap
from vladkit.pipeline import PipelineConfig
from vladkit.spm import PyramidSpec, encode_spm, parse_pyramid, region_bounds, region_slices
from vladkit.synth import SynthSpec, synth_dataset
from vladkit.vlad import encode, encode_descriptors
from vladkit.whitening import apply_whitening_batch, fit_whitening, l2_normalize


def grid_map(rng, h, w, d):
    return FeatureMap(rng.standard_normal((h, w, d)).astype(np.float32))


def test_parse_presets_and_custom():
    assert parse_pyramid("a").levels == ((1, 1), (2, 2), (3, 1))
    assert parse_pyramid("b").levels == ((1, 1), (2, 2), (1, 3))
    assert parse_pyramid("c").levels == ((1, 1), (2, 2), (4, 4))
    assert parse_pyramid("2x3,1x1").levels == ((2, 3), (1, 1))
    with pytest.raises(VladkitError, match="bad pyramid level '2x'; expected RxC"):
        parse_pyramid("2x")
    with pytest.raises(VladkitError, match=r"bad pyramid level \(0, 2\)"):
        parse_pyramid("0x2")


@pytest.mark.parametrize("text", ["2x2x2", "ax1", "", "1x-1", "3", "1x1,"])
def test_parse_pyramid_rejects_bad_levels(text):
    with pytest.raises(VladkitError, match="bad pyramid level"):
        parse_pyramid(text)


def test_pyramid_spec_needs_a_level():
    with pytest.raises(VladkitError, match="pyramid needs at least one level"):
        PyramidSpec(())


def test_region_bounds_floor_formula():
    # floor(i * 4 / 3) boundaries: bands of 1, 1, 2 rows.
    assert region_bounds(4, 3) == [(0, 1), (1, 2), (2, 4)]
    assert region_bounds(4, 2) == [(0, 2), (2, 4)]
    assert region_bounds(3, 5) == [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)]


def test_partition_even_split():
    cells = np.arange(16).reshape(4, 4)
    regions = [cells[s] for s in region_slices(4, 4, PyramidSpec(((2, 2),)))]
    assert [r.shape for r in regions] == [(2, 2)] * 4


def test_partition_single_region_has_all_cells():
    assert region_slices(3, 5, PyramidSpec(((1, 1),))) == [(slice(0, 3), slice(0, 5))]


def test_partition_coverage_and_disjointness():
    cells = np.arange(35).reshape(5, 7)
    for level in ((2, 2), (3, 1), (4, 4), (1, 3)):
        slices = region_slices(5, 7, PyramidSpec((level,)))
        assert len(slices) == level[0] * level[1]
        covered = np.concatenate([cells[s].ravel() for s in slices])
        assert np.sort(covered).tolist() == list(range(35))  # every cell exactly once


def test_partition_allows_empty_regions():
    cells = np.arange(4).reshape(2, 2)
    sizes = [cells[s].size for s in region_slices(2, 2, PyramidSpec(((4, 4),)))]
    assert len(sizes) == 16
    assert sum(sizes) == 4


def test_single_level_pyramid_equals_plain_encode_bitwise():
    rng = np.random.default_rng(4)
    d = Dictionary(centers=rng.standard_normal((4, 3)))
    fmap = grid_map(rng, 5, 4, 3)
    config = PipelineConfig()
    plain = encode([fmap], d, None, config)[0]
    spm = encode_spm([fmap], d, None, config, PyramidSpec(((1, 1),)))[0]
    assert np.array_equal(plain, spm)


def test_output_length_contract():
    rng = np.random.default_rng(5)
    d = Dictionary(centers=rng.standard_normal((4, 3)))
    fmap = grid_map(rng, 6, 6, 3)
    spec = parse_pyramid("a")
    out = encode_spm([fmap], d, None, PipelineConfig(), spec)[0]
    assert spec.total_regions == 8
    assert out.size == 8 * 4 * 3


def test_empty_region_contributes_zero_segment():
    rng = np.random.default_rng(6)
    d = Dictionary(centers=rng.standard_normal((2, 2)))
    fmap = grid_map(rng, 1, 1, 2)
    out = encode_spm([fmap], d, None, PipelineConfig(), PyramidSpec(((2, 2),)))[0]
    segments = out.reshape(4, 4)
    # With a 1x1 grid only the last region (floor boundaries) holds the cell.
    occupied = [i for i in range(4) if np.any(segments[i])]
    assert len(occupied) <= 1
    assert np.isfinite(out).all()


def test_encode_spm_fills_one_encoding():
    # Each segment goes into its row of one preallocated encoding; a list of
    # segments and their concatenation held two encodings before the L2.
    rng = np.random.default_rng(8)
    d = Dictionary(centers=rng.standard_normal((64, 64)))
    fmap = grid_map(rng, 8, 8, 64)
    spec = parse_pyramid("c")
    encoding_bytes = spec.total_regions * 64 * 64 * 8
    peak = traced_peak(lambda: encode_spm([fmap], d, None, PipelineConfig(), spec)[0])
    assert peak < 3 * encoding_bytes


def test_global_norm_is_one():
    rng = np.random.default_rng(7)
    d = Dictionary(centers=rng.standard_normal((3, 2)))
    fmap = grid_map(rng, 4, 4, 2)
    out = encode_spm([fmap], d, None, PipelineConfig(), parse_pyramid("b"))[0]
    assert abs(np.linalg.norm(out) - 1.0) < 1e-6


def test_spatial_signal_pair_distinguished_only_by_fine_levels(tmp_path):
    spec = SynthSpec(
        num_classes=2, images_per_class=1, grid_h=6, grid_w=6, dim=4,
        mode="spatial-signal", noise_sigma=0.1, seed=21,
    )
    manifest = synth_dataset(spec, tmp_path)
    maps = [fileio.read_feature_map(tmp_path / rel) for rel, _ in manifest.entries]
    descriptors = np.vstack([m.descriptors() for m in maps])
    dictionary, _ = kmeans_train(descriptors, 4, seed=0)
    config = PipelineConfig()
    coarse = [
        encode_spm([m], dictionary, None, config, PyramidSpec(((1, 1),)))[0] for m in maps
    ]
    fine = [
        encode_spm([m], dictionary, None, config, PyramidSpec(((2, 2),)))[0] for m in maps
    ]
    assert np.abs(coarse[0] - coarse[1]).max() < 1e-9
    assert np.linalg.norm(fine[0] - fine[1]) > 1e-3


# -- one whitening and one assignment per image ------------------------------

MODE_CONFIGS = {
    "hard": PipelineConfig(mode="hard"),
    "sa": PipelineConfig(mode="sa", beta=0.7),
    "lsa": PipelineConfig(mode="lsa", beta=0.7, knn=2),
    "llc": PipelineConfig(mode="llc", lam=1e-3, sigma=2.0),
    "llc-approx": PipelineConfig(mode="llc-approx", knn=3),
}


def encode_spm_by_region(fmap, dictionary, transform, config, spec):
    """The pyramid encoding by its definition: each region whitened and
    encoded on its own, zeros for an empty region, concatenated, then L2."""
    segments = []
    for rows, cols in region_slices(fmap.height, fmap.width, spec):
        region = fmap.data[rows, cols].reshape(-1, fmap.dim)
        if region.shape[0] == 0:
            segments.append(np.zeros(dictionary.num_words * dictionary.dim))
            continue
        descriptors = region.astype(np.float64)
        if transform is not None:
            descriptors = apply_whitening_batch(transform, descriptors)
        weights = weight_matrix(dictionary, descriptors, config)
        segments.append(encode_descriptors(dictionary, descriptors, weights, config.norm_scheme))
    return l2_normalize(np.concatenate(segments))


@pytest.mark.parametrize("whiten", [False, True], ids=["raw", "whitened"])
@pytest.mark.parametrize("mode", list(MODE_CONFIGS))
def test_encode_spm_matches_region_by_region_encoding(mode, whiten):
    """A call over several maps gives each map the oracle's encoding, and the
    row that map gets from a call of its own, bit for bit."""
    rng = np.random.default_rng(8)
    transform = fit_whitening(rng.standard_normal((50, 3))) if whiten else None
    d = Dictionary(centers=rng.standard_normal((4, 3)) * (0.5 if whiten else 1.0))
    config = MODE_CONFIGS[mode]
    for h, w in ((2, 3), (5, 7), (0, 4)):
        fmaps = [grid_map(rng, h, w, 3) for _ in range(3)]
        for name in ("a", "b", "c", "4x4"):
            spec = parse_pyramid(name)
            got = encode_spm(fmaps, d, transform, config, spec)
            assert got.shape == (3, spec.encoding_length(d))
            for i, (row, fmap) in enumerate(zip(got, fmaps)):
                expected = encode_spm_by_region(fmap, d, transform, config, spec)
                message = f"{h}x{w} {name} map {i}"
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-12, err_msg=message)
                alone = encode_spm([fmap], d, transform, config, spec)
                assert np.array_equal(row, alone[0]), message


def test_encode_spm_whitens_and_assigns_once_per_image(monkeypatch):
    """The per-image work runs through the module attributes a caller can
    wrap: per call, one whitening and one weight matrix over each image's H*W
    descriptors, and one encode_descriptors per run of consecutive non-empty
    regions of one cell count, over (n, R, P) stacks of all the images."""
    rows = {"weight_matrix": [], "apply_whitening_batch": []}
    runs = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            rows[name].append(result.shape[0])
            return result
        return wrapper

    def encode_run(dictionary, x, w, *args, **kwargs):
        assert w.shape == (*x.shape[:3], dictionary.num_words)
        # each region's cells a row-major matrix, as a call of its own gets them
        assert x.strides[2:] == (8 * dictionary.dim, 8) and w.strides[2:] == (8 * w.shape[3], 8)
        runs.append(x.shape[:3])
        return encode_descriptors(dictionary, x, w, *args, **kwargs)

    monkeypatch.setattr(
        "vladkit.vlad.weight_matrix", counted("weight_matrix", vladkit.vlad.weight_matrix)
    )
    monkeypatch.setattr(
        "vladkit.spm.apply_whitening_batch",
        counted("apply_whitening_batch", vladkit.spm.apply_whitening_batch),
    )
    monkeypatch.setattr("vladkit.spm.encode_descriptors", encode_run)

    rng = np.random.default_rng(10)
    transform = fit_whitening(rng.standard_normal((50, 3)))
    d = Dictionary(centers=rng.standard_normal((4, 3)))
    config = PipelineConfig(mode="sa")
    spec = parse_pyramid("c")
    # (regions, cells) of each run. 8x8: the levels' 1 x 64, 4 x 16 and 16 x 4
    # cells. 2x3: 6 cells; the 2x2 level's 1, 2, 1 and 2; then the 4x4 level's
    # non-empty regions, two runs of three single cells between empty ones.
    expected_runs = {
        (8, 8): [(1, 64), (4, 16), (16, 4)],
        (2, 3): [(1, 6), (1, 1), (1, 2), (1, 1), (1, 2), (3, 1), (3, 1)],
    }
    for (h, w), expected in expected_runs.items():
        for n in (1, 3):
            for counts in (*rows.values(), runs):
                counts.clear()
            fmaps = [grid_map(rng, h, w, 3) for _ in range(n)]
            encode_spm(fmaps, d, transform, config, spec)
            assert rows == {"weight_matrix": [h * w] * n, "apply_whitening_batch": [h * w] * n}
            assert runs == [(n, *run) for run in expected], (h, w, n)


def encode_spm_per_region(fmaps, dictionary, transform, config, spec):
    """encode_spm with one encode_descriptors call per non-empty region over
    the batch, each region's cells taken in row-major order."""
    n, h, w = len(fmaps), fmaps[0].height, fmaps[0].width
    descriptors = [fmap.descriptors().astype(np.float64) for fmap in fmaps]
    if transform is not None:
        descriptors = [apply_whitening_batch(transform, x) for x in descriptors]
    weights = [weight_matrix(dictionary, x, config) for x in descriptors]
    x_grid = np.stack(descriptors).reshape(n, h, w, -1)
    w_grid = np.stack(weights).reshape(n, h, w, -1)
    encodings = np.zeros((n, spec.encoding_length(dictionary)))
    segments = encodings.reshape(n, spec.total_regions, -1)
    for r, (rows, cols) in enumerate(region_slices(h, w, spec)):
        region = x_grid[:, rows, cols].reshape(n, -1, dictionary.dim)
        if region.shape[1]:
            region_weights = w_grid[:, rows, cols].reshape(n, -1, dictionary.num_words)
            encode_descriptors(
                dictionary, region, region_weights, config.norm_scheme, segments[:, r])
    return l2_normalize(encodings, out=encodings)


@pytest.mark.parametrize("scheme", vladkit.vlad.NORM_SCHEMES)
@pytest.mark.parametrize("mode", list(MODE_CONFIGS))
def test_encode_spm_equals_one_call_per_region_bit_for_bit(mode, scheme):
    """Encoding a run of regions in one call changes no bit of any segment.
    8x8 with pyramid a: the 2x2 level's regions and the 3x1 level's first
    2x8 region (floor rows 0-2, 2-5, 5-8) all have 16 cells, one run across
    two levels and two region shapes. 5x7 with 3x3: one level's regions of
    several shapes. 2x3 with 4x4: empty regions between runs."""
    rng = np.random.default_rng(12)
    transform = fit_whitening(rng.standard_normal((60, 4)))
    d = Dictionary(centers=rng.standard_normal((5, 4)) * 0.5)
    config = dataclasses.replace(MODE_CONFIGS[mode], norm_scheme=scheme)
    for (h, w), name in (((8, 8), "a"), ((5, 7), "3x3"), ((2, 3), "4x4")):
        spec = parse_pyramid(name)
        for n in (1, 3):
            fmaps = [grid_map(rng, h, w, 4) for _ in range(n)]
            for t in (None, transform):
                got = encode_spm(fmaps, d, t, config, spec)
                expected = encode_spm_per_region(fmaps, d, t, config, spec)
                assert np.array_equal(got, expected), (h, w, name, n, t is None)
