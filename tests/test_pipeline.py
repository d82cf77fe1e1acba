import csv
import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vladkit import fileio, pipeline
from vladkit.errors import CacheMismatch, ParseError
from vladkit.fileio import DatasetManifest, read_feature_map
from vladkit.pipeline import (
    STAGE_FIELDS,
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
    with pytest.raises(ParseError):
        parse_config_text("whiten = maybe\n")


def test_config_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_config_text("bogus = 1\n")


def test_config_key_given_twice_rejected():
    with pytest.raises(ParseError, match=r"^line 3: key 'mode' already set on line 1$"):
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
    caches = list(tmp_path.glob("cache_*"))
    assert len(caches) == 1
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
    (stage,) = tmp_path.glob("dict_*")
    # Corrupt the stage's dictionary with a different word count.
    wrong = np.zeros((3, 6), dtype=np.float32)
    fileio.write_dictionary(wrong, stage / "dictionary.vld")
    with pytest.raises(CacheMismatch):
        run_pipeline(config, train_path, test_path, tmp_path)


def test_pipeline_cached_encoding_of_another_length_detected(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="hard")
    run_pipeline(config, train_path, test_path, tmp_path)
    cache = next(tmp_path.glob("cache_*"))
    # A well-formed container, one float short of the model's dim.
    fileio.write_encoding(np.ones(6 * 6 - 1), cache / "enc_test" / "000001.vle")
    with pytest.raises(CacheMismatch):
        run_pipeline(config, train_path, test_path, tmp_path)


@pytest.mark.parametrize("pyramid", [None, "a"])
def test_encode_manifest_fills_one_float32_matrix_with_each_rounded_encoding(
    pyramid, dataset, tmp_path
):
    train_path, _ = dataset
    config = small_config(mode="sa", pyramid=pyramid)
    stage = tmp_path / "stage"
    stage.mkdir()
    manifest = fileio.load_manifest(train_path)
    pipeline._build_stage(stage, config, manifest)
    dictionary, transform = pipeline._load_stage(stage, config)
    encodings, labels = pipeline.encode_manifest(manifest, dictionary, transform, config)
    assert encodings.dtype == np.float32 and encodings.flags.c_contiguous
    assert np.array_equal(labels, manifest.labels())
    assert len(encodings) == len(manifest.entries)
    for row, path in zip(encodings, manifest.paths()):
        one = pipeline.encode_entry(read_feature_map(path), dictionary, transform, config)
        assert np.array_equal(row, one.astype(np.float32))


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
    # Mode and pyramid are no stage inputs: one dictionary serves every pair.
    assert len(list(tmp_path.glob("dict_*"))) == 1
    assert len(list(tmp_path.glob("cache_*"))) == 4


def _files(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _same_report(a, b) -> bool:
    return a.accuracy == b.accuracy and np.array_equal(a.confusion, b.confusion)


def test_configs_that_differ_in_encoder_or_epochs_share_one_stage(dataset, tmp_path, monkeypatch):
    """Five modes and one changed `epochs`, as the mode-sweep benchmark runs
    them: whitening is fitted and k-means run once for all six."""
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
    assert len(list(tmp_path.glob("dict_*"))) == 1
    assert len(list(tmp_path.glob("cache_*"))) == 6


# A valid value other than small_config's for every PipelineConfig field.
OTHER_VALUE = {
    "mode": "sa", "beta": 2.0, "knn": 2, "lam": 1e-3, "sigma": 2.0,
    "norm_scheme": "global-only", "pyramid": "2x2", "whiten": False, "pca_dim": 4,
    "epsilon": 0.5, "words": 5, "max_iters": 3, "tol": 0.5, "subsample": 500, "reg": 1e-3,
    "epochs": 3, "seed": 1,
}


def test_stage_key_covers_exactly_the_declared_stage_fields(dataset, tmp_path):
    """A field left out of STAGE_FIELDS that builds the stage changes its
    bytes under a shared name; a declared field must change the name."""
    assert set(OTHER_VALUE) == {f.name for f in fields(PipelineConfig)}
    assert set(STAGE_FIELDS) < set(OTHER_VALUE)
    train_path, test_path = dataset
    base = small_config(epochs=5)
    run_pipeline(base, train_path, test_path, tmp_path / "base")
    stage, cache = cache_dirs(base, train_path, test_path, tmp_path / "base")
    expected = {name: (stage / name).read_bytes() for name in ("transform.vlw", "dictionary.vld")}
    for name, value in OTHER_VALUE.items():
        config = replace(base, **{name: value})
        assert getattr(config, name) != getattr(base, name)
        work = tmp_path / name
        varied, varied_cache = cache_dirs(config, train_path, test_path, work)
        assert varied_cache.name != cache.name, name
        if name in STAGE_FIELDS:
            assert varied.name != stage.name, name
            continue
        assert varied.name == stage.name, name
        run_pipeline(config, train_path, test_path, work)  # in a fresh work dir
        assert {n: (varied / n).read_bytes() for n in expected} == expected, name


def test_leftover_tmp_dir_is_ignored_and_a_deleted_stage_rebuilt(dataset, tmp_path):
    train_path, test_path = dataset
    config = small_config(mode="sa")
    first = run_pipeline(config, train_path, test_path, tmp_path)
    stage, _ = cache_dirs(config, train_path, test_path, tmp_path)
    # A killed build of the stage: a `.tmp-*` directory, a truncated dictionary.
    shutil.copytree(stage, tmp_path / ".tmp-killed")
    (tmp_path / ".tmp-killed" / "dictionary.vld").write_bytes(b"VLD1")
    snapshot = _files(tmp_path)
    assert _same_report(run_pipeline(config, train_path, test_path, tmp_path), first)
    assert _files(tmp_path) == snapshot
    # The config directory stays; its stage comes back byte for byte.
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
# never). With a barrier directory, each dictionary and model write waits
# there until the other child has made the same write, so both children
# build both directories at once.
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
        if barrier and name in ("write_dictionary", "write_model"):
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
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    args = [*map(str, dataset), str(work), CHILD_CONFIG, str(kill_at), str(barrier)]
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1"),
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
    # Both children built both directories; each kept its rename or the winner's.
    assert len(list((tmp_path / "barrier").iterdir())) == 4
    assert sorted(p.name[:5] for p in (tmp_path / "work").iterdir()) == ["cache", "dict_"]
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
    assert writes == 3 + 2  # transform, dictionary, model, two test encodings
    for kill_at in range(1, writes + 1):
        work = tmp_path / f"killed{kill_at}"
        killed = _child(tiny_dataset, work, kill_at=kill_at)
        killed.communicate(timeout=120)
        assert killed.returncode == 3, kill_at
        assert len(list(work.glob(".tmp-*"))) == 1, kill_at
        run_pipeline(parse_config_text(CHILD_CONFIG), *tiny_dataset, work)
        assert _published_files(work) == _files(tmp_path / "clean"), kill_at
