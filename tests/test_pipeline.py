import csv
import json
import re
import shutil
import subprocess
from dataclasses import fields, replace
from pathlib import Path

import childproc
import numpy as np
import pytest
from memtrace import traced_peak

from vladkit import fileio, pipeline
from vladkit.errors import VladkitError
from vladkit.fileio import DatasetManifest, read_feature_map
from vladkit.pipeline import (
    PipelineConfig,
    cache_dirs,
    config_to_text,
    fnv1a64,
    load_config,
    parse_config_text,
    run_bench,
    run_pipeline,
)
from vladkit.synth import SynthSpec, split_manifest, synth_dataset


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    spec = SynthSpec(
        num_classes=3, images_per_class=20, grid_h=4, grid_w=4, dim=6,
        mode="descriptor-signal", noise_sigma=0.1, seed=101,
    )
    manifest = synth_dataset(spec, root)
    train, test = split_manifest(manifest, per_class=10, seed=1)
    train_path = root / "train.tsv"
    test_path = root / "test.tsv"
    fileio.save_manifest(train, train_path)
    fileio.save_manifest(test, test_path)
    return train_path, test_path


STAGES = ("whitening", "dictionary", "encoder", "classifier")


def small_config(**overrides):
    base = dict(words=6, epochs=30, seed=0)
    base.update(overrides)
    return PipelineConfig(**base)


def test_config_text_roundtrip():
    config = small_config(mode="lsa", pyramid="a", pca_dim=4)
    assert parse_config_text(config_to_text(config)) == config


def test_config_text_golden_default():
    assert config_to_text(PipelineConfig()) == (
        "beta = 1.0\n"
        "epochs = 50\n"
        "epsilon = auto\n"
        "knn = 5\n"
        "lambda = 0.0001\n"
        "max_iters = 100\n"
        "mode = hard\n"
        "norm_scheme = intra-then-global\n"
        "pca_dim = auto\n"
        "pyramid = none\n"
        "reg = 0.0001\n"
        "seed = 0\n"
        "sigma = 1.0\n"
        "subsample = auto\n"
        "tol = 0.0001\n"
        "whiten = true\n"
        "words = 64\n"
    )


def test_readme_config_listing_matches_the_schema():
    # The README's listing is the one hand-kept copy of the keys and defaults.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (listing,) = re.findall(r"^```\n(mode = .*?)^```", readme, re.M | re.S)

    def entries(text):
        return dict(line.split("#")[0].strip().split(" = ") for line in text.splitlines())

    assert entries(listing) == entries(config_to_text(PipelineConfig()))


def test_config_text_golden_every_optional_set():
    config = PipelineConfig(
        mode="llc-approx", beta=0.5, knn=3, lam=0.002, sigma=0.7, norm_scheme="global-only",
        pyramid="2x2,1x3", whiten=False, pca_dim=12, epsilon=1e-06, words=16, max_iters=40,
        tol=1e-05, subsample=4096, reg=0.01, epochs=7, seed=9,
    )
    text = (
        "beta = 0.5\n"
        "epochs = 7\n"
        "epsilon = 1e-06\n"
        "knn = 3\n"
        "lambda = 0.002\n"
        "max_iters = 40\n"
        "mode = llc-approx\n"
        "norm_scheme = global-only\n"
        "pca_dim = 12\n"
        "pyramid = 2x2,1x3\n"
        "reg = 0.01\n"
        "seed = 9\n"
        "sigma = 0.7\n"
        "subsample = 4096\n"
        "tol = 1e-05\n"
        "whiten = false\n"
        "words = 16\n"
    )
    assert config_to_text(config) == text
    assert parse_config_text(text) == config


def test_config_whiten_is_a_strict_bool():
    for text, value in [("true", True), ("YES", True), ("1", True),
                        ("false", False), ("No", False), ("0", False)]:
        assert parse_config_text(f"whiten = {text}\n").whiten is value
    with pytest.raises(VladkitError, match="whiten must be true/1/yes or false/0/no, got 'maybe'"):
        parse_config_text("whiten = maybe\n")


def test_config_unknown_key_rejected():
    with pytest.raises(VladkitError, match="^line 1: unknown key 'bogus'$"):
        parse_config_text("bogus = 1\n")


def test_config_key_given_twice_rejected():
    with pytest.raises(VladkitError, match=r"^line 3: key 'mode' already set on line 1$"):
        parse_config_text("mode = hard\n# comment\nmode = sa\n")


def test_config_comments_and_defaults():
    config = parse_config_text("# comment\nmode = sa\n")
    assert config.mode == "sa"
    assert config.words == 64


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg"
    path.write_text("mode = llc-approx\nwords = 8\n")
    config = load_config(path)
    assert config.mode == "llc-approx"
    assert config.words == 8


def test_fnv1a64_known_vectors():
    # Standard FNV-1a 64-bit test vectors.
    assert fnv1a64(b"") == 0xCBF29CE484222325
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"foobar") == 0x85944171F73967E8


def test_pipeline_runs_and_is_accurate(dataset, tmp_path):
    train_path, test_path = dataset
    report = run_pipeline(small_config(mode="sa"), train_path, test_path, tmp_path)
    assert report.accuracy >= 0.9
    assert report.confusion.sum() == 30


def test_pipeline_test_label_unseen_in_training(dataset, tmp_path):
    train_path, test_path = dataset
    train = fileio.load_manifest(train_path)
    without_2 = train_path.parent / "train_without_class_2.tsv"
    fileio.save_manifest(
        DatasetManifest(tuple(e for e in train.entries if e[1] != 2), train.root), without_2
    )
    report = run_pipeline(small_config(mode="sa"), without_2, test_path, tmp_path)
    test_labels = [label for _, label in fileio.load_manifest(test_path).entries]
    assert report.confusion.shape == (3, 3)
    assert report.confusion[2].sum() == test_labels.count(2) > 0
    assert report.confusion[2, 2] == 0
    assert report.confusion.sum() == len(test_labels)


def test_pipeline_cache_reuse_byte_identical(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="sa")
    run_pipeline(config, train_path, test_path, tmp_path)
    assert sorted(p.name.partition("_")[0] for p in tmp_path.iterdir()) == sorted(STAGES)
    snapshot = {
        p.relative_to(tmp_path): p.read_bytes()
        for p in tmp_path.rglob("*") if p.is_file()
    }
    report = run_pipeline(config, train_path, test_path, tmp_path)
    after = {
        p.relative_to(tmp_path): p.read_bytes()
        for p in tmp_path.rglob("*") if p.is_file()
    }
    assert snapshot == after
    assert report.accuracy >= 0.9


def test_pipeline_fresh_rerun_identical_artifacts(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="hard")
    run_pipeline(config, train_path, test_path, tmp_path / "r1")
    run_pipeline(config, train_path, test_path, tmp_path / "r2")
    files1 = sorted(p.relative_to(tmp_path / "r1") for p in (tmp_path / "r1").rglob("*.vl*"))
    files2 = sorted(p.relative_to(tmp_path / "r2") for p in (tmp_path / "r2").rglob("*.vl*"))
    assert files1 == files2
    for rel in files1:
        assert (tmp_path / "r1" / rel).read_bytes() == (tmp_path / "r2" / rel).read_bytes()


def test_pipeline_cache_mismatch_detected(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="hard")
    run_pipeline(config, train_path, test_path, tmp_path)
    (stage,) = tmp_path.glob("dictionary_*")
    # Corrupt the stage's dictionary with a different word count.
    wrong = np.zeros((3, 6), dtype=np.float32)
    fileio.write_dictionary(wrong, stage / "dictionary.vld")
    with pytest.raises(VladkitError, match="cached dictionary has 3 words, config wants 6"):
        run_pipeline(config, train_path, test_path, tmp_path)


def test_pipeline_cached_transform_that_does_not_fit_its_dictionary_detected(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="hard")
    run_pipeline(config, train_path, test_path, tmp_path)
    (whitening,) = tmp_path.glob("whitening_*")
    (stage,) = tmp_path.glob("dictionary_*")
    for later in (*tmp_path.glob("encoder_*"), *tmp_path.glob("classifier_*")):
        shutil.rmtree(later)
    # Whitening to 4 dims in front of the stage's dictionary of dim 6.
    fileio.write_whitening(np.zeros(6), np.eye(4, 6), whitening / "transform.vlw")
    message = (
        f"dictionary {str(stage / 'dictionary.vld')!r} has dim 6, but transform"
        f" {str(whitening / 'transform.vlw')!r} outputs 4"
    )
    with pytest.raises(VladkitError, match=re.escape(message)):
        run_pipeline(config, train_path, test_path, tmp_path)
    # No later stage is built on a bad stage.
    assert not list(tmp_path.glob("encoder_*")) + list(tmp_path.glob("classifier_*"))


def test_pipeline_cached_encoding_of_another_length_detected(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="hard")
    run_pipeline(config, train_path, test_path, tmp_path)
    encoder = next(tmp_path.glob("encoder_*"))
    # A well-formed container, one float short of the model's dim.
    fileio.write_encoding(np.ones(6 * 6 - 1), encoder / "000001.vle")
    with pytest.raises(VladkitError, match="cached model dim 36 != 000001.vle length 35"):
        run_pipeline(config, train_path, test_path, tmp_path)


def test_a_warm_run_reads_each_test_encoding_once(dataset, tmp_path, monkeypatch):
    """One read_encoding call per test image, straight into its row, so a
    tracer that counts the calls counts the reads."""
    train_path, test_path = dataset
    config = small_config(mode="sa")
    cold = run_pipeline(config, train_path, test_path, tmp_path)
    calls = []
    read = fileio.read_encoding
    monkeypatch.setattr(fileio, "read_encoding", lambda *a: calls.append(a) or read(*a))
    warm = run_pipeline(config, train_path, test_path, tmp_path)
    assert warm.accuracy == cold.accuracy and np.array_equal(warm.confusion, cold.confusion)
    names = [Path(path).name for path, _ in calls]
    assert names == [f"{i:06d}.vle" for i in range(len(fileio.load_manifest(test_path).entries))]
    assert all(row.base is calls[0][1].base for _, row in calls)


@pytest.mark.parametrize("pyramid", [None, "a", "c"])
def test_encode_manifest_fills_one_float32_matrix_with_each_rounded_encoding(
    pyramid, dataset, tmp_path
):
    train_path, _ = dataset
    config = small_config(mode="sa", pyramid=pyramid)
    manifest = fileio.load_manifest(train_path)
    _, dictionary, transform = pipeline._run(config, train_path, train_path, tmp_path)
    encodings, labels = pipeline.encode_manifest(manifest, dictionary, transform, config)
    assert encodings.dtype == np.float32 and encodings.flags.c_contiguous
    assert np.array_equal(labels, manifest.labels())
    assert len(encodings) == len(manifest.entries)
    for row, path in zip(encodings, manifest.paths()):
        one = pipeline.encode_entry(read_feature_map(path), dictionary, transform, config)
        assert np.array_equal(row, one.astype(np.float32))


def _maps_manifest(root, shapes, dim, seed=0):
    """A manifest of random maps, one per (height, width) in shapes, in order."""
    rng = np.random.default_rng(seed)
    root.mkdir(exist_ok=True)
    entries = []
    for i, (h, w) in enumerate(shapes):
        data = rng.standard_normal((h, w, dim)).astype(np.float32)
        fileio.write_feature_map(fileio.FeatureMap(data), root / f"{i:03d}.vlf")
        entries.append((f"{i:03d}.vlf", i % 2))
    return DatasetManifest(tuple(entries), root)


@pytest.mark.parametrize("pyramid", ["a", "c", None])
def test_encode_manifest_chunks_runs_of_one_grid_size(pyramid, tmp_path, monkeypatch):
    """Interleaved 4x4 and 5x3 maps, in chunks of at most three images: each
    run of one shape is cut at the chunk size, and every row is the rounded
    encoding of its map alone. A flat config goes through the flat encoder
    and a pyramid config through encode_spm, never the other."""
    a, b = (4, 4), (5, 3)
    manifest = _maps_manifest(tmp_path, [a] * 5 + [b] * 2 + [a] + [b] * 4 + [a], dim=3)
    rng = np.random.default_rng(1)
    transform = pipeline.fit_whitening(rng.standard_normal((50, 3)))
    dictionary = pipeline.Dictionary(centers=rng.standard_normal((4, 3)) * 0.5)
    config = small_config(mode="lsa", knn=2, words=4, pyramid=pyramid)
    length = (config.pyramid_spec() or pipeline.PyramidSpec(((1, 1),))).encoding_length(dictionary)
    # An image's size is the larger of its encoding and its working set, which
    # is 4*4*(3 + 4) values for a 4x4 map and 5*3*(3 + 4) for a 5x3 map.
    monkeypatch.setattr(pipeline, "_CHUNK", 3 * max(length, 4 * 4 * (3 + 4)) + 1)
    calls = {"encode": [], "encode_spm": []}

    def recorded(name):
        original = getattr(pipeline, name)

        def wrapper(fmaps, *args):
            calls[name].append([fmap.data.shape[:2] for fmap in fmaps])
            return original(fmaps, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, recorded(name))
    encodings, _ = pipeline.encode_manifest(manifest, dictionary, transform, config)
    used, unused = ("encode", "encode_spm") if pyramid is None else ("encode_spm", "encode")
    assert calls[used] == [[a] * 3, [a] * 2, [b] * 2, [a], [b] * 3, [b], [a]]
    assert calls[unused] == []
    for row, path in zip(encodings, manifest.paths()):
        one = pipeline.encode_entry(read_feature_map(path), dictionary, transform, config)
        assert np.array_equal(row, one.astype(np.float32))


def test_encode_manifest_peak_does_not_grow_with_the_split(tmp_path):
    """A split is encoded a chunk at a time: beyond its float32 output,
    encoding four times the images takes no more memory. A chunk is bounded
    by the larger of an image's encoding and its working set, so this holds
    for a pyramid whose encoding is long, a flat config of many images per
    chunk, and a large grid whose whitened descriptors and weights outweigh
    its encoding."""
    cases = [  # words, dim, grid, pyramid, the split sizes, images per chunk
        (32, 32, (4, 4), "c", (10, 40), 1),
        (64, 128, (2, 2), None, (10, 40), 4),
        (8, 64, (64, 64), "a", (2, 8), 1),
    ]
    for words, dim, (h, w), pyramid, sizes, per_chunk in cases:
        rng = np.random.default_rng(2)
        dictionary = pipeline.Dictionary(centers=rng.standard_normal((words, dim)))
        config = small_config(mode="sa", words=words, pyramid=pyramid)
        spec = config.pyramid_spec() or pipeline.PyramidSpec(((1, 1),))
        length = spec.encoding_length(dictionary)
        assert max(1, pipeline._CHUNK // max(length, h * w * (dim + words))) == per_chunk
        extra = []
        for n in sizes:
            root = tmp_path / f"{pyramid}-{h}x{w}-{n}"
            manifest = _maps_manifest(root, [(h, w)] * n, dim=dim, seed=n)
            peak = traced_peak(lambda: pipeline.encode_manifest(manifest, dictionary, None, config))
            extra.append(peak - n * length * 4)
        # Holding the whole split at once would add 30 float64 encodings (5 MB)
        # in the first case, 30 encodings and working sets (2 MB) in the second
        # and 6 working sets (14 MB) in the last.
        assert abs(extra[1] - extra[0]) < 16 * 1024, (pyramid, h, w, extra)


def test_bench_cross_product(dataset, tmp_path):
    train_path, test_path = dataset
    out = tmp_path / "bench.csv"
    assert run_bench(
        ["hard", "sa"],
        ["none", "2x2"],
        small_config(),
        train_path,
        test_path,
        tmp_path,
        out,
    ) == 4
    header, *rows = csv.reader(out.read_text().splitlines())
    assert header == ["mode", "pyramid", "accuracy", "encode_us", "encoding_len"]
    assert len(rows) == 4
    assert [row[:2] for row in rows] == [
        ["hard", "none"], ["hard", "2x2"], ["sa", "none"], ["sa", "2x2"],
    ]
    for mode, pyramid, accuracy, encode_us, encoding_len in rows:
        regions = 1 if pyramid == "none" else 4
        assert int(encoding_len) == 6 * 6 * regions
        assert float(encode_us) > 0
        assert re.fullmatch(r"[01]\.\d{6}", accuracy)
    # Mode and pyramid are no whitening or dictionary inputs: one dictionary
    # serves every pair.
    assert len(list(tmp_path.glob("whitening_*"))) == len(list(tmp_path.glob("dictionary_*"))) == 1
    assert len(list(tmp_path.glob("encoder_*"))) == len(list(tmp_path.glob("classifier_*"))) == 4


def _files(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _same_report(a, b) -> bool:
    return a.accuracy == b.accuracy and np.array_equal(a.confusion, b.confusion)


def test_configs_that_differ_in_encoder_or_epochs_share_one_stage(dataset, tmp_path, monkeypatch):
    """Five modes and one changed `epochs`, as the mode-sweep benchmark runs
    them: whitening is fitted and k-means run once for all six, and the
    changed `epochs` reuses the first config's test encodings."""
    calls = {"fit_whitening": 0, "kmeans_train": 0}
    for name in calls:
        def counted(*args, _real=getattr(pipeline, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(pipeline, name, counted)
    train_path, test_path = dataset
    configs = [small_config(mode=mode) for mode in ("hard", "sa", "lsa", "llc", "llc-approx")]
    configs.append(small_config(mode="hard", epochs=10))
    for config in configs:
        run_pipeline(config, train_path, test_path, tmp_path)
    assert calls == {"fit_whitening": 1, "kmeans_train": 1}
    assert len(list(tmp_path.glob("whitening_*"))) == len(list(tmp_path.glob("dictionary_*"))) == 1
    assert len(list(tmp_path.glob("encoder_*"))) == 5
    assert len(list(tmp_path.glob("classifier_*"))) == 6


# A valid value other than small_config's for every PipelineConfig field.
OTHER_VALUE = {
    "mode": "sa", "beta": 2.0, "knn": 2, "lam": 1e-3, "sigma": 2.0,
    "norm_scheme": "global-only", "pyramid": "2x2", "whiten": False, "pca_dim": 4,
    "epsilon": 0.5, "words": 5, "max_iters": 3, "tol": 0.5, "subsample": 500, "reg": 1e-3,
    "epochs": 3, "seed": 1,
}


def test_each_stage_key_covers_exactly_its_declared_fields(dataset, tmp_path):
    """A field renames the directory of the first stage that reads it and of
    every later stage, and of no earlier one. A field left out of a stage
    that builds it changes that stage's bytes under a shared name, so each
    earlier stage's bytes must stay those of the base config."""
    assert set(OTHER_VALUE) == {f.name for f in fields(PipelineConfig)}
    train_path, test_path = dataset
    base = small_config(epochs=5)
    run_pipeline(base, train_path, test_path, tmp_path / "base")
    dirs = cache_dirs(base, train_path, test_path, tmp_path / "base")
    assert tuple(dirs) == STAGES
    declared = {f.name: f.metadata["stages"] for f in fields(PipelineConfig)}
    for name, value in OTHER_VALUE.items():
        config = replace(base, **{name: value})
        assert getattr(config, name) != getattr(base, name)
        work = tmp_path / name
        varied = cache_dirs(config, train_path, test_path, work)
        first = min(STAGES.index(stage) for stage in declared[name])
        for stage in STAGES[first:]:  # whiten = false drops the whitening directory
            assert stage not in varied or varied[stage].name != dirs[stage].name, (name, stage)
        if first == 0:
            continue
        run_pipeline(config, train_path, test_path, work)  # in a fresh work dir
        for stage in STAGES[:first]:
            assert varied[stage].name == dirs[stage].name, (name, stage)
            assert _files(varied[stage]) == _files(dirs[stage]), (name, stage)


def test_stage_keys_hash_golden_text(monkeypatch, tmp_path):
    """The text each stage's key of the default config hashes, and the
    directory names it gives: a change here renames every directory of every
    existing work dir. Each manifest's key is stood in for by its name."""
    hashed = []
    fnv = pipeline.fnv1a64
    monkeypatch.setattr(pipeline, "_manifest_key", lambda path: f"<{Path(path).name}>")
    monkeypatch.setattr(pipeline, "fnv1a64", lambda data: hashed.append(data.decode()) or fnv(data))
    dirs = cache_dirs(PipelineConfig(), "train.tsv", "test.tsv", tmp_path)
    assert hashed == [
        "epsilon = auto\n"
        "pca_dim = auto\n"
        "whiten = true\n"
        "<train.tsv>",
        "38ae0c406812a3db"
        "max_iters = 100\n"
        "seed = 0\n"
        "subsample = auto\n"
        "tol = 0.0001\n"
        "words = 64\n",
        "49bac3309b0de357"
        "beta = 1.0\n"
        "knn = 5\n"
        "lambda = 0.0001\n"
        "mode = hard\n"
        "norm_scheme = intra-then-global\n"
        "pyramid = none\n"
        "sigma = 1.0\n"
        "<test.tsv>",
        "9a723bff4ae34f00"
        "epochs = 50\n"
        "reg = 0.0001\n"
        "seed = 0\n",
    ]
    assert {stage: path.name for stage, path in dirs.items()} == {
        "whitening": "whitening_38ae0c406812a3db",
        "dictionary": "dictionary_49bac3309b0de357",
        "encoder": "encoder_9a723bff4ae34f00",
        "classifier": "classifier_e21b6450d0855c22",
    }
    assert all(path.parent == tmp_path for path in dirs.values())


def test_a_words_sweep_fits_whitening_once(dataset, tmp_path, monkeypatch):
    calls = []
    fit = pipeline.fit_whitening
    monkeypatch.setattr(pipeline, "fit_whitening", lambda *args: calls.append(args) or fit(*args))
    train_path, test_path = dataset
    for words in (3, 4, 6):
        run_pipeline(small_config(words=words), train_path, test_path, tmp_path)
    assert len(calls) == 1
    assert len(list(tmp_path.glob("whitening_*"))) == 1
    assert len(list(tmp_path.glob("dictionary_*"))) == 3


def test_a_reg_and_epochs_sweep_writes_each_test_encoding_once(dataset, tmp_path, monkeypatch):
    written = []
    write = fileio.write_encoding
    monkeypatch.setattr(fileio, "write_encoding",
                        lambda values, path: written.append(Path(path).name) or write(values, path))
    train_path, test_path = dataset
    reports = [run_pipeline(small_config(reg=reg, epochs=epochs), train_path, test_path, tmp_path)
               for reg, epochs in ((1e-4, 30), (1e-2, 30), (1e-4, 3))]
    tests = len(fileio.load_manifest(test_path).entries)
    assert written == [f"{i:06d}.vle" for i in range(tests)]
    assert len(list(tmp_path.glob("encoder_*"))) == 1
    assert len(list(tmp_path.glob("classifier_*"))) == 3
    # Each config's own model scores the shared encodings, as in a fresh work dir.
    for (reg, epochs), report in zip(((1e-2, 30), (1e-4, 3)), reports[1:]):
        fresh = run_pipeline(small_config(reg=reg, epochs=epochs), train_path, test_path,
                             tmp_path / f"fresh-{reg}-{epochs}")
        assert _same_report(report, fresh)


def test_without_whitening_no_whitening_directory_is_made(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(whiten=False)
    run_pipeline(config, train_path, test_path, tmp_path)
    assert tuple(cache_dirs(config, train_path, test_path, tmp_path)) == STAGES[1:]
    assert sorted(p.name.partition("_")[0] for p in tmp_path.iterdir()) == sorted(STAGES[1:])
    (dictionary,) = tmp_path.glob("dictionary_*")
    assert _files(dictionary).keys() == {Path("dictionary.vld")}


def test_every_field_names_a_stage_and_the_stages_cover_every_key():
    """A field without a stage would have no flag and no say in any stage's
    key."""
    for f in fields(PipelineConfig):
        assert f.metadata["stages"], f.name
        assert set(f.metadata["stages"]) <= set(STAGES), f.name
    keys = {key for stage in STAGES for key in pipeline.stage_keys(stage)}
    assert keys == {line.split(" = ")[0] for line in config_to_text(PipelineConfig()).splitlines()}


def test_leftover_tmp_dir_is_ignored_and_a_deleted_stage_rebuilt(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="sa")
    first = run_pipeline(config, train_path, test_path, tmp_path)
    stage = cache_dirs(config, train_path, test_path, tmp_path)["dictionary"]
    # A killed build of the stage: a `.tmp-*` directory, a truncated dictionary.
    shutil.copytree(stage, tmp_path / ".tmp-killed")
    (tmp_path / ".tmp-killed" / "dictionary.vld").write_bytes(b"VLD1")
    snapshot = _files(tmp_path)
    assert _same_report(run_pipeline(config, train_path, test_path, tmp_path), first)
    assert _files(tmp_path) == snapshot
    # The later stages stay; the dictionary comes back byte for byte.
    shutil.rmtree(stage)
    assert _same_report(run_pipeline(config, train_path, test_path, tmp_path), first)
    assert _files(tmp_path) == snapshot


def test_failed_run_keeps_the_stage_it_did_not_create(dataset, tmp_path, monkeypatch):
    train_path, test_path = dataset
    run_pipeline(small_config(mode="hard"), train_path, test_path, tmp_path)
    snapshot = _files(tmp_path)

    def fail(values, path):
        raise OSError("disk full")

    monkeypatch.setattr(fileio, "write_encoding", fail)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(small_config(mode="sa"), train_path, test_path, tmp_path)
    assert _files(tmp_path) == snapshot


# A child process that runs one pipeline and prints its report and its count
# of artifact writes. It exits at once after write number `kill_at` (0:
# never). With a barrier directory, each transform, dictionary, encoding and
# model write waits there until the other child has made the same kind of
# write, so both children build all four stage directories at once.
_CHILD = """
import json, os, sys, time
from pathlib import Path
from vladkit import fileio, pipeline

train, test, work, config_text, kill_at, barrier = sys.argv[1:]
writes = 0

def counted(name, real):
    def write(*args):
        global writes
        real(*args)
        writes += 1
        if writes == int(kill_at):
            os._exit(3)
        if barrier:
            Path(barrier, f"{name}-{os.getpid()}").touch()
            deadline = time.monotonic() + 30
            while len(list(Path(barrier).glob(name + "-*"))) < 2:
                if time.monotonic() > deadline:
                    sys.exit(f"{name}: the other child never arrived")
                time.sleep(0.01)
    return write

for name in ("write_whitening", "write_dictionary", "write_model", "write_encoding"):
    setattr(fileio, name, counted(name, getattr(fileio, name)))
config = pipeline.parse_config_text(config_text)
report = pipeline.run_pipeline(config, train, test, work)
print(json.dumps([report.accuracy, report.confusion.tolist(), writes]))
"""

CHILD_CONFIG = "mode = llc\npyramid = c\nwords = 2\nepochs = 5\n"


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Two test images, so a child makes few writes."""
    root = tmp_path_factory.mktemp("tiny")
    spec = SynthSpec(
        num_classes=2, images_per_class=3, grid_h=4, grid_w=4, dim=4,
        mode="descriptor-signal", noise_sigma=0.1, seed=5,
    )
    train, test = split_manifest(synth_dataset(spec, root), per_class=2, seed=1)
    fileio.save_manifest(train, root / "train.tsv")
    fileio.save_manifest(test, root / "test.tsv")
    return root / "train.tsv", root / "test.tsv"


def _child(dataset, work, kill_at=0, barrier=""):
    args = [*map(str, dataset), str(work), CHILD_CONFIG, str(kill_at), str(barrier)]
    return subprocess.Popen(
        childproc.argv("-c", _CHILD, *args), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=childproc.env(OPENBLAS_NUM_THREADS="1"),
    )


def _published_files(work: Path) -> dict[Path, bytes]:
    return {rel: data for rel, data in _files(work).items() if not rel.parts[0].startswith(".tmp-")}


def test_two_runs_building_one_config_at_once_both_succeed(tiny_dataset, tmp_path):
    (tmp_path / "barrier").mkdir()
    children = [_child(tiny_dataset, tmp_path / "work", barrier=tmp_path / "barrier") for _ in "ab"]
    results = [child.communicate(timeout=120) for child in children]
    assert [child.returncode for child in children] == [0, 0], [err for _, err in results]
    reports = [json.loads(out) for out, _ in results]
    assert reports[0] == reports[1]
    # Both children built every directory; each kept its rename or the winner's.
    assert len(list((tmp_path / "barrier").iterdir())) == 8
    assert sorted(p.name.partition("_")[0] for p in (tmp_path / "work").iterdir()) == sorted(STAGES)
    modes = {p.stat().st_mode for p in (tmp_path / "work").iterdir()}
    assert modes == {(tmp_path / "work").stat().st_mode}
    report = run_pipeline(parse_config_text(CHILD_CONFIG), *tiny_dataset, tmp_path / "clean")
    assert reports[0][:2] == [report.accuracy, report.confusion.tolist()]
    assert _files(tmp_path / "work") == _files(tmp_path / "clean")


def test_a_run_killed_after_any_write_leaves_the_next_run_byte_identical(tiny_dataset, tmp_path):
    clean = _child(tiny_dataset, tmp_path / "clean")
    out, err = clean.communicate(timeout=120)
    assert clean.returncode == 0, err
    writes = json.loads(out)[2]
    assert writes == 3 + 2  # transform, dictionary, two test encodings, model
    for kill_at in range(1, writes + 1):
        work = tmp_path / f"killed{kill_at}"
        killed = _child(tiny_dataset, work, kill_at=kill_at)
        killed.communicate(timeout=120)
        assert killed.returncode == 3, kill_at
        assert len(list(work.glob(".tmp-*"))) == 1, kill_at
        run_pipeline(parse_config_text(CHILD_CONFIG), *tiny_dataset, work)
        assert _published_files(work) == _files(tmp_path / "clean"), kill_at
