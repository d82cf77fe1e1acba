import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from vladkit import fileio
from vladkit.cli import build_parser, main
from vladkit.pipeline import PipelineConfig


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A small dataset plus every artifact the subcommands chain together."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main([
        "synth", "--classes", "3", "--per-class", "8", "--height", "4",
        "--width", "4", "--dim", "6", "--noise", "0.1", "--seed", "11",
        "--out-dir", str(data),
    ]) == 0
    assert main([
        "split", "--manifest", str(data / "manifest.tsv"), "--per-class", "4",
        "--seed", "1", "--out-train", str(data / "train.tsv"),
        "--out-test", str(data / "test.tsv"),
    ]) == 0
    return root


def test_synth_writes_manifest_and_maps(workspace):
    manifest = fileio.load_manifest(workspace / "data" / "manifest.tsv")
    assert len(manifest.entries) == 24
    fmap = fileio.read_feature_map(manifest.paths()[0])
    assert fmap.descriptors().shape == (16, 6)


def test_split_counts(workspace):
    train = fileio.load_manifest(workspace / "data" / "train.tsv")
    test = fileio.load_manifest(workspace / "data" / "test.tsv")
    assert len(train.entries) == 12
    assert len(test.entries) == 12


def test_preprocess_fit_and_apply(workspace):
    out = workspace / "transform.vlw"
    assert main([
        "preprocess", "fit", "--manifest", str(workspace / "data" / "train.tsv"),
        "--out", str(out),
    ]) == 0
    mean, projection = fileio.read_whitening(out)
    assert mean.shape == (6,)
    assert projection.shape == (6, 6)
    manifest = fileio.load_manifest(workspace / "data" / "train.tsv")
    src = manifest.paths()[0]
    dst = workspace / "whitened.vlf"
    assert main([
        "preprocess", "apply", "--transform", str(out),
        "--in", str(src), "--out", str(dst),
    ]) == 0
    whitened = fileio.read_feature_map(dst)
    norms = np.linalg.norm(whitened.descriptors(), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-5)


def test_codebook_train(workspace):
    out = workspace / "dictionary.vld"
    assert main([
        "codebook", "train", "--manifest", str(workspace / "data" / "train.tsv"),
        "--transform", str(workspace / "transform.vlw"),
        "--words", "5", "--out", str(out),
    ]) == 0
    centers = fileio.read_dictionary(out)
    assert centers.shape == (5, 6)


def test_encode_single_map(workspace):
    manifest = fileio.load_manifest(workspace / "data" / "train.tsv")
    src = manifest.paths()[0]
    out = workspace / "one.vle"
    assert main([
        "encode", "--dict", str(workspace / "dictionary.vld"),
        "--transform", str(workspace / "transform.vlw"),
        "--in", str(src), "--out", str(out), "--mode", "sa",
    ]) == 0
    values = fileio.read_encoding(out)
    assert values.shape == (5 * 6,)
    assert abs(np.linalg.norm(values) - 1.0) < 1e-5


def test_encode_with_pyramid_length(workspace):
    manifest = fileio.load_manifest(workspace / "data" / "train.tsv")
    src = manifest.paths()[0]
    out = workspace / "pyr.vle"
    assert main([
        "encode", "--dict", str(workspace / "dictionary.vld"),
        "--transform", str(workspace / "transform.vlw"),
        "--in", str(src), "--out", str(out), "--pyramid", "a",
    ]) == 0
    # Preset "a" has 1 + 4 + 3 = 8 regions.
    assert fileio.read_encoding(out).shape == (8 * 5 * 6,)


def test_train_and_evaluate(workspace, capsys):
    model_path = workspace / "model.vlm"
    assert main([
        "train", "--manifest", str(workspace / "data" / "train.tsv"),
        "--dict", str(workspace / "dictionary.vld"),
        "--transform", str(workspace / "transform.vlw"),
        "--out", str(model_path), "--mode", "sa",
    ]) == 0
    weights, biases = fileio.read_model(model_path)
    assert weights.shape == (3, 30)
    assert biases.shape == (3,)
    confusion_path = workspace / "confusion.csv"
    assert main([
        "evaluate", "--manifest", str(workspace / "data" / "test.tsv"),
        "--model", str(model_path),
        "--dict", str(workspace / "dictionary.vld"),
        "--transform", str(workspace / "transform.vlw"),
        "--confusion-out", str(confusion_path), "--mode", "sa",
    ]) == 0
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("accuracy=")][-1]
    accuracy = float(line.split("=", 1)[1])
    assert 0.0 <= accuracy <= 1.0
    rows = [r.split(",") for r in confusion_path.read_text().strip().splitlines()]
    total = sum(int(v) for r in rows for v in r)
    assert total == 12


def test_bench_writes_csv(workspace, tmp_path):
    out = tmp_path / "bench.csv"
    assert main([
        "bench", "--train-manifest", str(workspace / "data" / "train.tsv"),
        "--test-manifest", str(workspace / "data" / "test.tsv"),
        "--modes", "hard,sa", "--pyramids", "none,2x2",
        "--words", "4", "--work-dir", str(tmp_path / "work"),
        "--out", str(out),
    ]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 5  # header + 2x2 cross product
    assert lines[0].split(",")[0] == "mode"


def test_bench_failing_pair_writes_no_csv(workspace, tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main([
        "bench", "--train-manifest", str(workspace / "data" / "train.tsv"),
        "--test-manifest", str(workspace / "data" / "test.tsv"),
        "--modes", "hard,nosuch", "--pyramids", "none",
        "--words", "4", "--work-dir", str(tmp_path / "work"),
        "--out", str(out),
    ]) == 2
    assert "unknown mode 'nosuch'" in capsys.readouterr().err
    assert not out.exists()


def test_pipeline_from_config_file(workspace, tmp_path, capsys):
    config = tmp_path / "config"
    config.write_text("mode = sa\nwords = 5\nepochs = 20\n")
    assert main([
        "pipeline", "--config", str(config),
        "--train-manifest", str(workspace / "data" / "train.tsv"),
        "--test-manifest", str(workspace / "data" / "test.tsv"),
        "--work-dir", str(tmp_path / "work"),
    ]) == 0
    out = capsys.readouterr().out
    assert any(l.startswith("accuracy=") for l in out.splitlines())


def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert main(["synth", "--classes", "3"]) == 1  # missing required flags
    assert main([]) == 1
    capsys.readouterr()


# Each argv with the parser whose usage line it prints.
USAGE_ERRORS = {
    "no_arguments": ([], "vladkit"),
    "unknown_command": (["no-such-command"], "vladkit"),
    "synth_missing_flags": (["synth", "--classes", "3"], "vladkit synth"),
    "preprocess_alone": (["preprocess"], "vladkit preprocess"),
    "preprocess_fit_missing_out": (
        ["preprocess", "fit", "--manifest", "x"], "vladkit preprocess fit",
    ),
    "codebook_train_missing_flags": (["codebook", "train"], "vladkit codebook train"),
    "encode_bad_int": (
        ["encode", "--dict", "d", "--in", "i", "--out", "o", "--knn", "abc"], "vladkit encode",
    ),
}


@pytest.mark.parametrize("argv, prog", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_errors_print_the_usage_and_exit_1(argv, prog, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} ")
    assert f"\n{prog}: error: " in err


@pytest.mark.parametrize("argv, prog", [
    (["-h"], "vladkit"), (["preprocess", "fit", "-h"], "vladkit preprocess fit"),
])
def test_help_prints_the_usage_and_exits_0(argv, prog, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith(f"usage: {prog} ") and err == ""


def test_data_errors_exit_2(workspace, tmp_path, capsys):
    missing = tmp_path / "missing.vld"
    manifest = fileio.load_manifest(workspace / "data" / "train.tsv")
    src = manifest.paths()[0]
    assert main([
        "encode", "--dict", str(missing), "--in", str(src),
        "--out", str(tmp_path / "x.vle"),
    ]) == 2
    # Wrong magic: feed a dictionary reader a feature-map file.
    assert main([
        "encode", "--dict", str(src), "--in", str(src),
        "--out", str(tmp_path / "x.vle"),
    ]) == 2
    err = capsys.readouterr().err
    assert "error" in err


def test_pipeline_bad_config_exits(tmp_path, workspace, capsys):
    config = tmp_path / "config"
    for text in ("unknown_key = 1\n", "whiten = maybe\n", "mode = llc\nsigma = 0\nwords = 4\n"):
        config.write_text(text)
        assert main([
            "pipeline", "--config", str(config),
            "--train-manifest", str(workspace / "data" / "train.tsv"),
            "--test-manifest", str(workspace / "data" / "test.tsv"),
            "--work-dir", str(tmp_path / "work"),
        ]) == 2
    capsys.readouterr()


BAD_CONFIGS = {
    "knn_over_words": "mode = lsa\nknn = 50\nwords = 4\n",
    "beta_nan": "mode = sa\nbeta = nan\nwords = 4\n",
    "sigma_nan": "mode = llc\nsigma = nan\nwords = 4\n",
    "words_0": "words = 0\n",
    "epochs_negative": "epochs = -3\n",
    "max_iters_0": "max_iters = 0\n",
    "reg_0": "reg = 0\nwords = 4\n",
    "reg_negative": "reg = -1\nwords = 4\n",
    "reg_nan": "reg = nan\nwords = 4\n",
    "reg_inf": "reg = inf\nwords = 4\n",
    "reg_tiny": "reg = 1e-320\nwords = 4\n",
    "tol_negative": "tol = -1\nwords = 4\n",
    "tol_nan": "tol = nan\nwords = 4\n",
    "seed_negative": "seed = -1\nwords = 4\n",
    "subsample_0": "subsample = 0\nwords = 4\n",
    "subsample_negative": "subsample = -5\nwords = 4\n",
    "subsample_below_words": "subsample = 4\nwords = 8\n",
    "pca_dim_0": "pca_dim = 0\nwords = 4\n",
    "epsilon_negative": "epsilon = -1e-9\nwords = 4\n",
    "epsilon_nan": "epsilon = nan\nwords = 4\n",
    "beta_inf": "mode = sa\nbeta = inf\nwords = 4\n",
    "sigma_inf": "mode = llc\nsigma = inf\nwords = 4\n",
    "lambda_negative": "mode = llc\nlambda = -1\nwords = 4\n",
    "lambda_nan": "mode = llc\nlambda = nan\nwords = 4\n",
    "lambda_inf": "mode = llc\nlambda = inf\nwords = 4\n",
    "pyramid_0x2": "pyramid = 0x2\nwords = 4\n",
    "duplicate_key": "mode = hard\nwords = 4\nmode = sa\n",
}


@pytest.mark.parametrize("text", BAD_CONFIGS.values(), ids=BAD_CONFIGS.keys())
def test_pipeline_bad_config_exits_before_any_stage(text, tmp_path, workspace, capsys):
    config = tmp_path / "config"
    config.write_text(text)
    work = tmp_path / "work"
    assert main([
        "pipeline", "--config", str(config),
        "--train-manifest", str(workspace / "data" / "train.tsv"),
        "--test-manifest", str(workspace / "data" / "test.tsv"),
        "--work-dir", str(work),
    ]) == 2
    assert "error" in capsys.readouterr().err
    assert not [path for path in work.rglob("*") if path.is_file()]


def _pipeline(text, data, work, tmp_path):
    config = tmp_path / "config"
    config.write_text(text)
    return main([
        "pipeline", "--config", str(config),
        "--train-manifest", str(data / "train.tsv"),
        "--test-manifest", str(data / "test.tsv"),
        "--work-dir", str(work),
    ])


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


SMALL_RUN = "mode = sa\nwords = 4\nepochs = 5\n"


def test_pipeline_failed_write_leaves_no_cache(workspace, tmp_path, monkeypatch, capsys):
    data = workspace / "data"
    assert _pipeline(SMALL_RUN, data, tmp_path / "clean", tmp_path) == 0
    write_encoding = fileio.write_encoding
    written = []

    def write_half_then_fail(values, path):
        """The 5th encoding is cut to half its length, then the write raises."""
        write_encoding(values, path)
        written.append(path)
        if len(written) == 5:
            os.truncate(path, os.path.getsize(path) // 2)
            raise OSError("disk full")

    monkeypatch.setattr(fileio, "write_encoding", write_half_then_fail)
    assert _pipeline(SMALL_RUN, data, tmp_path / "work", tmp_path) == 2
    assert "disk full" in capsys.readouterr().err
    # The stage was published before the write failed: it stays, whole. The
    # config directory was not, and its `.tmp-*` directory is gone.
    (stage,) = (tmp_path / "work").iterdir()
    assert stage.name.startswith("dict_")
    assert _files(stage) == _files(tmp_path / "clean" / stage.name)
    monkeypatch.undo()
    assert _pipeline(SMALL_RUN, data, tmp_path / "work", tmp_path) == 0
    assert _files(tmp_path / "work") == _files(tmp_path / "clean")


def test_pipeline_rebuilds_a_cache_beside_a_killed_runs_tmp_dir(workspace, tmp_path, capsys):
    """A killed run leaves its config directory unpublished, as a `.tmp-*`
    directory that may hold a truncated file. No later run reads it."""
    data = workspace / "data"
    assert _pipeline(SMALL_RUN, data, tmp_path / "clean", tmp_path) == 0
    shutil.copytree(tmp_path / "clean", tmp_path / "killed")
    (cache,) = (tmp_path / "killed").glob("cache_*")
    leftover = cache.rename(tmp_path / "killed" / ".tmp-killed")
    encoding = leftover / "enc_test" / "000001.vle"
    os.truncate(encoding, os.path.getsize(encoding) // 2)
    killed = _files(leftover)
    assert _pipeline(SMALL_RUN, data, tmp_path / "killed", tmp_path) == 0
    assert _files(leftover) == killed
    shutil.rmtree(leftover)
    assert _files(tmp_path / "killed") == _files(tmp_path / "clean")
    capsys.readouterr()


def _relative_files(directory: Path) -> list[str]:
    return sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())


def _accuracy(out: str) -> str:
    return [line for line in out.splitlines() if line.startswith("accuracy=")][-1]


# Encoder settings given both as config lines and as the flags of `vladkit
# train` and `vladkit evaluate`: one flat config, one pyramid.
REPRODUCED = {
    "flat": {"mode": "sa"},
    "pyramid": {"mode": "lsa", "knn": "2", "pyramid": "a"},
}


@pytest.mark.parametrize("settings", REPRODUCED.values(), ids=REPRODUCED.keys())
def test_train_and_evaluate_reproduce_the_pipeline(settings, workspace, tmp_path, capsys):
    data = workspace / "data"
    text = "words = 4\nepochs = 5\n" + "".join(f"{k} = {v}\n" for k, v in settings.items())
    assert _pipeline(text, data, tmp_path / "work", tmp_path) == 0
    accuracy = _accuracy(capsys.readouterr().out)
    (stage,) = (tmp_path / "work").glob("dict_*")
    (cache,) = (tmp_path / "work").glob("cache_*")
    assert len(list((tmp_path / "work").iterdir())) == 2
    tests = len(fileio.load_manifest(data / "test.tsv").entries)
    assert _relative_files(stage) == ["dictionary.vld", "transform.vlw"]
    assert _relative_files(cache) == [f"enc_test/{i:06d}.vle" for i in range(tests)] + ["model.vlm"]

    encoder = ["--dict", str(stage / "dictionary.vld"), "--transform", str(stage / "transform.vlw")]
    for key, value in settings.items():
        encoder += [f"--{key}", value]
    assert main(["train", "--manifest", str(data / "train.tsv"), "--epochs", "5",
                 "--out", str(tmp_path / "model.vlm")] + encoder) == 0
    assert (tmp_path / "model.vlm").read_bytes() == (cache / "model.vlm").read_bytes()
    assert main(["evaluate", "--manifest", str(data / "test.tsv"),
                 "--model", str(cache / "model.vlm")] + encoder) == 0
    assert _accuracy(capsys.readouterr().out) == accuracy


def test_pipeline_cache_key_covers_the_manifests_directory(tmp_path, capsys):
    """Two datasets whose manifests are byte-identical, sharing a work dir.
    The noise makes the two score differently, so a shared cache shows."""
    accuracies = {}
    for seed in ("1", "2"):
        data = tmp_path / f"seed{seed}"
        assert main([
            "synth", "--classes", "3", "--per-class", "8", "--height", "4", "--width", "4",
            "--dim", "6", "--noise", "2", "--seed", seed, "--out-dir", str(data),
        ]) == 0
        assert main([
            "split", "--manifest", str(data / "manifest.tsv"), "--per-class", "4",
            "--out-train", str(data / "train.tsv"), "--out-test", str(data / "test.tsv"),
        ]) == 0
        for work in ("shared", f"fresh{seed}"):
            assert _pipeline("mode = sa\nwords = 4\n", data, tmp_path / work, tmp_path) == 0
            accuracies[seed, work] = _accuracy(capsys.readouterr().out)
    for name in ("train.tsv", "test.tsv"):
        assert (tmp_path / "seed1" / name).read_bytes() == (tmp_path / "seed2" / name).read_bytes()
    assert accuracies["1", "fresh1"] != accuracies["2", "fresh2"]
    assert len(list((tmp_path / "shared").glob("cache_*"))) == 2
    assert len(list((tmp_path / "shared").glob("dict_*"))) == 2
    assert len(list((tmp_path / "shared").iterdir())) == 4
    for seed in ("1", "2"):
        assert accuracies[seed, "shared"] == accuracies[seed, f"fresh{seed}"]


# (config text, line appended to the training manifest, error message)
TEXT_ERRORS = {
    "config_not_utf8": (b"words = 4\n\xff\xfe\n", b"", "not UTF-8 text"),
    "manifest_not_utf8": (b"words = 4\n", b"\xff\xfe\t0\n", "not UTF-8 text"),
    "manifest_nul_in_path": (b"words = 4\n", b"c\x00.vlf\t0\n", "NUL byte in path"),
}


@pytest.mark.parametrize("case", TEXT_ERRORS.values(), ids=TEXT_ERRORS.keys())
def test_pipeline_config_or_manifest_text_errors_exit_2(case, workspace, tmp_path, capsys):
    config_text, train_line, message = case
    data = workspace / "data"
    train = data / "text-error.tsv"  # next to the feature maps its entries name
    train.write_bytes((data / "train.tsv").read_bytes() + train_line)
    (tmp_path / "config").write_bytes(config_text)
    try:
        assert main([
            "pipeline", "--config", str(tmp_path / "config"),
            "--train-manifest", str(train), "--test-manifest", str(data / "test.tsv"),
            "--work-dir", str(tmp_path / "work"),
        ]) == 2
    finally:
        train.unlink()
    assert message in capsys.readouterr().err
    assert not (tmp_path / "work").exists()


def test_pipeline_more_words_than_descriptors_leaves_no_file(tmp_path, capsys):
    data = tmp_path / "data"
    assert main([
        "synth", "--classes", "3", "--per-class", "6", "--height", "3", "--width", "3",
        "--dim", "4", "--out-dir", str(data),
    ]) == 0
    assert main([
        "split", "--manifest", str(data / "manifest.tsv"), "--per-class", "3",
        "--out-train", str(data / "train.tsv"), "--out-test", str(data / "test.tsv"),
    ]) == 0
    # 9 training images of 3x3 descriptors: k-means gets 81 points.
    assert _pipeline("words = 200\n", data, tmp_path / "work", tmp_path) == 2
    assert "81 points < 200" in capsys.readouterr().err
    assert not [path for path in (tmp_path / "work").rglob("*") if path.is_file()]


def test_out_of_range_flags_exit_before_writing(workspace, tmp_path, capsys):
    data = workspace / "data"
    out = tmp_path / "t.vlw"
    fit = ["preprocess", "fit", "--manifest", str(data / "train.tsv"), "--out", str(out)]
    assert main(fit + ["--subsample", "-5"]) == 2
    assert main(fit + ["--subsample", "0"]) == 2
    assert main(fit + ["--subsample", "10", "--seed", "-1"]) == 1
    assert "invalid seed value: '-1'" in capsys.readouterr().err
    assert not out.exists()
    synth = ["synth", "--height", "2", "--width", "2", "--out-dir", str(tmp_path / "synth")]
    assert main(synth + ["--classes", "2", "--per-class", "1", "--dim", "2", "--seed", "-1"]) == 1
    for classes, per_class, dim in (("0", "1", "2"), ("2", "-1", "2"), ("2", "1", "0")):
        assert main(synth + ["--classes", classes, "--per-class", per_class, "--dim", dim]) == 2
    assert main(synth + ["--classes", "2", "--per-class", "1", "--dim", "2", "--noise", "nan"]) == 2
    split = [
        "split", "--manifest", str(data / "manifest.tsv"),
        "--out-train", str(tmp_path / "a.tsv"), "--out-test", str(tmp_path / "b.tsv"),
    ]
    assert main(split + ["--per-class", "4", "--seed", "-1"]) == 1
    assert main(split + ["--per-class", "-1"]) == 2
    # 0 leaves the training side empty, 8 (every image of a class) the test side.
    for per_class, side in (("0", "train"), ("8", "test")):
        capsys.readouterr()
        assert main(split + ["--per-class", per_class]) == 2
        assert f"empties the {side} split" in capsys.readouterr().err
    assert main([
        "codebook", "train", "--manifest", str(data / "train.tsv"), "--words", "4",
        "--seed", "-1", "--out", str(tmp_path / "d.vld"),
    ]) == 2
    capsys.readouterr()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("flag, value", [
    ("--epsilon", "inf"), ("--epsilon", "-1"), ("--epsilon", "nan"), ("--dim", "0"),
])
def test_preprocess_fit_out_of_range_values_exit_2(flag, value, workspace, tmp_path, capsys):
    out = tmp_path / "t.vlw"
    assert main([
        "preprocess", "fit", "--manifest", str(workspace / "data" / "train.tsv"),
        "--out", str(out), flag, value,
    ]) == 2
    assert f"got {value}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.fixture(scope="module")
def stage_files(workspace):
    """A transform, dictionary and model of this test's own, for the
    subcommands that read them."""
    root = workspace / "stages"
    root.mkdir()
    train = str(workspace / "data" / "train.tsv")
    assert main(["preprocess", "fit", "--manifest", train, "--out", str(root / "t.vlw")]) == 0
    assert main([
        "codebook", "train", "--manifest", train, "--transform", str(root / "t.vlw"),
        "--words", "4", "--out", str(root / "d.vld"),
    ]) == 0
    assert main([
        "train", "--manifest", train, "--dict", str(root / "d.vld"),
        "--transform", str(root / "t.vlw"), "--out", str(root / "m.vlm"),
    ]) == 0
    return root


ENCODER_FIELDS = {"mode", "beta", "knn", "lam", "sigma", "norm_scheme", "pyramid"}
CONFIG_FIELDS = {
    "encode": ENCODER_FIELDS,
    "train": ENCODER_FIELDS | {"reg", "epochs", "seed"},
    "evaluate": ENCODER_FIELDS,
    "codebook_train": {"words", "seed", "max_iters", "tol", "subsample"},
    "bench": {"words", "seed"},
}


def _required_args(command, workspace, stages, out):
    """The required arguments of a subcommand, writing its output to out."""
    data = workspace / "data"
    encoder = ["--dict", str(stages / "d.vld"), "--transform", str(stages / "t.vlw")]
    image = fileio.load_manifest(data / "test.tsv").paths()[0]
    return {
        "encode": ["encode", *encoder, "--in", str(image), "--out", str(out)],
        "train": ["train", "--manifest", str(data / "train.tsv"), *encoder, "--out", str(out)],
        "evaluate": [
            "evaluate", "--manifest", str(data / "test.tsv"), "--model", str(stages / "m.vlm"),
            *encoder, "--confusion-out", str(out),
        ],
        "codebook_train": [
            "codebook", "train", "--manifest", str(data / "train.tsv"),
            "--transform", str(stages / "t.vlw"), "--out", str(out),
        ],
        "bench": [
            "bench", "--train-manifest", str(data / "train.tsv"),
            "--test-manifest", str(data / "test.tsv"), "--modes", "hard", "--pyramids", "none",
            "--work-dir", str(out.parent / "work"), "--out", str(out),
        ],
    }[command]


def test_split_that_cannot_write_its_test_side_leaves_no_train_side(
    workspace, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main([
        "split", "--manifest", str(workspace / "data" / "manifest.tsv"), "--per-class", "2",
        "--out-train", "a.tsv", "--out-test", "nodir/b.tsv",
    ]) == 2
    assert "No such file or directory" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("out_test", ["a.tsv", "./a.tsv", "sub/../a.tsv"])
def test_split_to_one_file_for_both_sides_writes_nothing(
    out_test, workspace, tmp_path, monkeypatch, capsys
):
    # Written in turn, the test side would replace the training side.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main([
        "split", "--manifest", str(workspace / "data" / "manifest.tsv"), "--per-class", "2",
        "--out-train", "a.tsv", "--out-test", out_test,
    ]) == 2
    assert "name the same file" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert not list((tmp_path / "sub").iterdir())


@pytest.mark.parametrize("command", list(CONFIG_FIELDS))
def test_config_flags_follow_the_config_schema(command, workspace, stage_files, tmp_path, capsys):
    config_fields = CONFIG_FIELDS[command]
    required = _required_args(command, workspace, stage_files, tmp_path / "out")
    args = vars(build_parser().parse_args(required))
    taken = {f.name for f in fields(PipelineConfig)} & set(args)
    assert taken == config_fields
    for name in taken:
        assert args[name] == getattr(PipelineConfig(), name)

    # The config file's spelling of None is accepted and means the default.
    for key, none_text in (("pyramid", "none"), ("subsample", "auto")):
        if key in config_fields:
            assert main(required) == 0
            spelled = _required_args(command, workspace, stage_files, tmp_path / "spelled")
            assert main(spelled + [f"--{key}", none_text]) == 0
            assert (tmp_path / "spelled").read_bytes() == (tmp_path / "out").read_bytes()

    bad = [("knn", "abc", "invalid int value: 'abc'"), ("words", "abc", "invalid int value: 'abc'"),
           ("mode", "foo", "invalid choice: 'foo'")]
    for key, value, message in bad:
        if key in config_fields:
            capsys.readouterr()
            assert main(required + [f"--{key}", value]) == 1
            assert message in capsys.readouterr().err


def test_main_calls_in_one_process_share_no_state(workspace, stage_files, tmp_path, capsys):
    """A flag given to one main() call does not carry over to the next."""
    def encode(out):
        return _required_args("encode", workspace, stage_files, tmp_path / out)

    assert main(encode("pyramid.vle") + ["--pyramid", "a"]) == 0
    assert main(encode("flat.vle")) == 0
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-m", "vladkit.cli", *encode("fresh.vle")],
        env=dict(os.environ, PYTHONPATH=pythonpath), check=True, timeout=120,
    )
    flat = (tmp_path / "flat.vle").read_bytes()
    assert flat == (tmp_path / "fresh.vle").read_bytes()
    assert len(flat) < len((tmp_path / "pyramid.vle").read_bytes())
    assert main(encode("bad.vle") + ["--no-such-flag"]) == 1
    assert main(encode("again.vle")) == 0
    assert (tmp_path / "again.vle").read_bytes() == flat
    capsys.readouterr()


@pytest.mark.parametrize("command", ["encode", "train", "evaluate", "codebook_train"])
def test_empty_transform_path_exits_2(command, workspace, stage_files, tmp_path, capsys):
    """An empty --transform names no file; it does not mean "no whitening"."""
    args = _required_args(command, workspace, stage_files, tmp_path / "out")
    args[args.index("--transform") + 1] = ""
    assert main(args) == 2
    assert "No such file or directory: ''" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_encode_singular_llc_approx_system_exits_2(tmp_path, capsys):
    fileio.write_dictionary(np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]), tmp_path / "d.vld")
    fileio.write_feature_map(
        fileio.FeatureMap(np.array([[[1.0, 2.0]]], dtype=np.float32)), tmp_path / "x.vlf"
    )
    assert main([
        "encode", "--dict", str(tmp_path / "d.vld"), "--in", str(tmp_path / "x.vlf"),
        "--out", str(tmp_path / "x.vle"), "--mode", "llc-approx", "--knn", "2",
    ]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "x.vle").exists()


def test_an_impossible_allocation_exits_2(tmp_path, capsys):
    # 10^9 components of 10^9 dims: 6.9 EiB, beyond any 64-bit address space.
    assert main([
        "synth", "--classes", "1000000000", "--per-class", "1", "--height", "1",
        "--width", "1", "--dim", "1000000000", "--out-dir", str(tmp_path / "d"),
    ]) == 2
    assert capsys.readouterr().err.startswith("vladkit: error: Unable to allocate")


def test_a_pyramid_too_large_to_allocate_exits_2_at_once(workspace, stage_files, tmp_path):
    """10^16 regions: the encoding's one allocation (1.7 EiB) fails before a
    region is cut. The child process caps its address space, so code that
    walked the regions first fails there instead of filling the host."""
    pytest.importorskip("resource")
    out = tmp_path / "e.vle"
    args = _required_args("encode", workspace, stage_files, out)
    cap = 2**31
    code = (
        f"import resource, sys; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}));"
        " from vladkit.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    pythonpath = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *args, "--pyramid", "100000000x100000000"],
        env=dict(os.environ, PYTHONPATH=pythonpath, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert result.stderr.startswith("vladkit: error: Unable to allocate")
    assert not out.exists()


@pytest.mark.parametrize("command, flag, pyramid", [
    ("encode", "--pyramid", "3037000500x3037000500"),  # more regions than an index
    ("encode", "--pyramid", "1000000000x1000000000"),  # more values than an index
    ("train", "--pyramid", "100000000x100000000"),  # one encoding fits, a split does not
    ("bench", "--pyramids", "1000000000x1000000000"),
])
def test_a_pyramid_too_large_to_index_exits_2(
    command, flag, pyramid, workspace, stage_files, tmp_path, capsys
):
    out = tmp_path / "out"
    args = _required_args(command, workspace, stage_files, out)
    if flag in args:
        args[args.index(flag) + 1] = pyramid
    else:
        args += [flag, pyramid]
    assert main(args) == 2
    assert "encoding too long to index" in capsys.readouterr().err
    assert not out.exists()


def test_encode_llc_with_a_sigma_too_small_blames_sigma(workspace, stage_files, tmp_path, capsys):
    out = tmp_path / "e.vle"
    args = _required_args("encode", workspace, stage_files, out)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no NumPy overflow warning first
        assert main(args + ["--mode", "llc", "--sigma", "1e-300"]) == 2
    assert "overflows at sigma 1e-300" in capsys.readouterr().err
    assert not out.exists()


def test_manifest_of_mixed_descriptor_dims_exits_2(tmp_path, capsys):
    for name, dim in (("a.vlf", 2), ("b.vlf", 3)):
        fmap = fileio.FeatureMap(np.ones((2, 2, dim), dtype=np.float32))
        fileio.write_feature_map(fmap, tmp_path / name)
    manifest = tmp_path / "m.tsv"
    manifest.write_text("a.vlf\t0\nb.vlf\t1\n")
    out = tmp_path / "out"
    assert main(["preprocess", "fit", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert main([
        "codebook", "train", "--manifest", str(manifest), "--words", "2", "--out", str(out),
    ]) == 2
    assert "descriptor dims [2, 3]" in capsys.readouterr().err
    assert not out.exists()


def test_split_written_elsewhere_names_the_same_files(stage_files, tmp_path, monkeypatch, capsys):
    """A split saved into a subdirectory or the parent directory of its
    feature maps still names them: training from it gives the same model."""
    monkeypatch.chdir(tmp_path)
    assert main([
        "synth", "--classes", "3", "--per-class", "4", "--height", "3", "--width", "3",
        "--dim", "6", "--out-dir", "d",
    ]) == 0
    models = []
    for out_dir in ("d", "d/sub", "."):
        Path(out_dir).mkdir(exist_ok=True)
        train, test = f"{out_dir}/tr.tsv", f"{out_dir}/te.tsv"
        assert main([
            "split", "--manifest", "d/manifest.tsv", "--per-class", "2",
            "--out-train", train, "--out-test", test,
        ]) == 0
        for path in (train, test):
            assert all(p.is_file() for p in fileio.load_manifest(path).paths())
        model = f"{out_dir}/m.vlm"
        assert main([
            "train", "--manifest", train, "--dict", str(stage_files / "d.vld"),
            "--transform", str(stage_files / "t.vlw"), "--out", model,
        ]) == 0
        models.append(Path(model).read_bytes())
    assert models[1] == models[0] and models[2] == models[0]
    capsys.readouterr()


# Each command's arguments with one empty path, relative to the test's
# directory; "config" holds a valid config file.
EMPTY_PATHS = {
    "split_manifest": [
        "split", "--manifest", "", "--per-class", "2", "--out-train", "a.tsv",
        "--out-test", "b.tsv",
    ],
    "split_out_train": [
        "split", "--manifest", "{data}/manifest.tsv", "--per-class", "2", "--out-train", "",
        "--out-test", "b.tsv",
    ],
    "split_out_test": [
        "split", "--manifest", "{data}/manifest.tsv", "--per-class", "2", "--out-train", "a.tsv",
        "--out-test", "",
    ],
    # A stage command's --out is checked before the stage runs.
    "preprocess_fit_out": ["preprocess", "fit", "--manifest", "{data}/train.tsv", "--out", ""],
    "preprocess_apply_out": [
        "preprocess", "apply", "--transform", "{data}/t.vlw", "--in", "{data}/x.vlf", "--out", "",
    ],
    "codebook_train_out": [
        "codebook", "train", "--manifest", "{data}/train.tsv", "--words", "2", "--out", "",
    ],
    "encode_out": ["encode", "--dict", "{data}/d.vld", "--in", "{data}/x.vlf", "--out", ""],
    "train_out": ["train", "--manifest", "{data}/train.tsv", "--dict", "{data}/d.vld", "--out", ""],
    "pipeline_manifests": [
        "pipeline", "--config", "config", "--train-manifest", "", "--test-manifest", "",
        "--work-dir", "work",
    ],
    "pipeline_config": [
        "pipeline", "--config", "", "--train-manifest", "{data}/train.tsv",
        "--test-manifest", "{data}/test.tsv", "--work-dir", "work",
    ],
    "synth_out_dir": [
        "synth", "--classes", "2", "--per-class", "1", "--height", "2", "--width", "2",
        "--dim", "2", "--out-dir", "",
    ],
    "pipeline_work_dir": [
        "pipeline", "--config", "config", "--train-manifest", "{data}/train.tsv",
        "--test-manifest", "{data}/test.tsv", "--work-dir", "",
    ],
    "bench_work_dir": [
        "bench", "--train-manifest", "{data}/train.tsv", "--test-manifest", "{data}/test.tsv",
        "--modes", "hard", "--pyramids", "none", "--words", "4", "--work-dir", "",
        "--out", "bench.csv",
    ],
    "bench_out": [
        "bench", "--train-manifest", "{data}/train.tsv", "--test-manifest", "{data}/test.tsv",
        "--modes", "hard", "--pyramids", "none", "--words", "4", "--work-dir", "work",
        "--out", "",
    ],
    "evaluate_confusion_out": [
        "evaluate", "--manifest", "{data}/test.tsv", "--model", "{data}/m.vlm",
        "--dict", "{data}/d.vld", "--confusion-out", "",
    ],
}


@pytest.mark.parametrize("args", EMPTY_PATHS.values(), ids=EMPTY_PATHS.keys())
def test_empty_manifest_or_config_path_exits_2(args, workspace, tmp_path, monkeypatch, capsys):
    """An empty path names no file; it is not read as the directory "."."""
    monkeypatch.chdir(tmp_path)
    Path("config").write_text("words = 4\n")
    assert main([arg.format(data=workspace / "data") for arg in args]) == 2
    err = capsys.readouterr().err
    assert "empty path ''" in err and "Is a directory" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config"]
