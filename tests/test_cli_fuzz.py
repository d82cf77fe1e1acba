"""Fuzz of the command line: out-of-range and junk config values and stage
command flags, corrupted or truncated containers, config files and
manifests, and huge or sparse manifest labels. Whatever the input, `main`
returns 0, 1 or 2; an exception that escapes it fails the test."""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vladkit.cli import main
from vladkit.pipeline import PipelineConfig, config_to_text

# Small enough that a whole pipeline run takes milliseconds.
BASE_CONFIG = "words = 2\nepochs = 3\nmax_iters = 10\n"
KEYS = [line.split(" = ")[0] for line in config_to_text(PipelineConfig()).splitlines()]
HUGE = "99999999999999999999"
VALUES = [
    "0", "-1", "-7", "nan", "-nan", "inf", "-inf", "1e308", "-1e308", "1e-320", HUGE,
    "", "junk", "1.5.2", "0x10", "true", "none", "auto", "3x", "2x2,", "é",
]
FUZZ = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    data = root / "data"
    assert main([
        "synth", "--classes", "2", "--per-class", "6", "--height", "2", "--width", "2",
        "--dim", "3", "--seed", "5", "--out-dir", str(data),
    ]) == 0
    assert main([
        "split", "--manifest", str(data / "manifest.tsv"), "--per-class", "3", "--seed", "0",
        "--out-train", str(data / "train.tsv"), "--out-test", str(data / "test.tsv"),
    ]) == 0
    return root


def _pipeline(dataset, config_path, work_dir) -> int:
    return main([
        "pipeline", "--config", str(config_path),
        "--train-manifest", str(dataset / "data" / "train.tsv"),
        "--test-manifest", str(dataset / "data" / "test.tsv"),
        "--work-dir", str(work_dir),
    ])


# One key per example, so that a failing example names the one value at
# fault. Every value is tried on every key but one: a huge epoch count is a
# valid request whose run time grows with it.
key_values = st.sampled_from(KEYS).flatmap(
    lambda key: st.tuples(
        st.just(key),
        st.one_of(
            st.sampled_from([v for v in VALUES if not (key == "epochs" and v == HUGE)]),
            st.integers(-10, 10).map(str),
            st.floats().map(repr),
        ),
    )
)


@FUZZ
@given(key_value=key_values)
def test_pipeline_config_values_never_escape_main(key_value, dataset, capsys):
    with tempfile.TemporaryDirectory(dir=dataset) as tmp:
        config = Path(tmp) / "config"
        config.write_text(BASE_CONFIG + "{} = {}\n".format(*key_value))
        assert _pipeline(dataset, config, Path(tmp) / "work") in (0, 1, 2)
    capsys.readouterr()


@pytest.fixture(scope="module")
def artifacts(dataset):
    """One container of each kind: a training feature map and the stage
    directories of a finished pipeline run."""
    root = dataset / "artifacts"
    root.mkdir()
    config = root / "config"
    config.write_text(BASE_CONFIG + "mode = lsa\nknn = 2\npyramid = 1x2\n")
    assert _pipeline(dataset, config, root / "work") == 0
    (whitening,) = (root / "work").glob("whitening_*")
    (dictionary,) = (root / "work").glob("dictionary_*")
    (encoder,) = (root / "work").glob("encoder_*")
    (classifier,) = (root / "work").glob("classifier_*")
    data = dataset / "data"
    first = (data / "train.tsv").read_text().split("\t")[0]
    return {
        "config": config,
        "work": root / "work",
        "vlf": data / first,
        "vlw": whitening / "transform.vlw",
        "vld": dictionary / "dictionary.vld",
        "vlm": classifier / "model.vlm",
        "vle": encoder / "000002.vle",
    }


@st.composite
def corruptions(draw, size):
    """A truncation to a shorter length, or one byte changed."""
    position = draw(st.integers(0, size - 1))
    if draw(st.booleans()):
        return position, None
    return position, draw(st.integers(1, 255))


def _corrupt(path: Path, corruption) -> None:
    data = bytearray(path.read_bytes())
    position, xor = corruption
    if xor is None:
        del data[position:]
    else:
        data[position] ^= xor
    path.write_bytes(bytes(data))


@FUZZ
@given(kind=st.sampled_from(["vlf", "vld", "vlw", "vle", "vlm"]), data=st.data())
def test_corrupted_containers_never_escape_main(kind, data, artifacts, dataset, capsys):
    corruption = data.draw(corruptions(artifacts[kind].stat().st_size))
    with tempfile.TemporaryDirectory(dir=dataset) as tmp:
        tmp = Path(tmp)
        shutil.copytree(artifacts["work"], tmp / "work")
        files = {k: tmp / "work" / artifacts[k].relative_to(artifacts["work"])
                 for k in ("vlw", "vld", "vlm", "vle")}
        files["vlf"] = tmp / "map.vlf"
        shutil.copyfile(artifacts["vlf"], files["vlf"])
        _corrupt(files[kind], corruption)
        # The rerun reads every cached container, the .vle included.
        codes = [_pipeline(dataset, artifacts["config"], tmp / "work")]
        if kind != "vle":
            flags = ["--dict", str(files["vld"]), "--transform", str(files["vlw"]),
                     "--mode", "lsa", "--knn", "2", "--pyramid", "1x2"]
            codes.append(main(
                ["encode", "--in", str(files["vlf"]), "--out", str(tmp / "out.vle")] + flags
            ))
            manifest = tmp / "one.tsv"
            manifest.write_text(f"{files['vlf']}\t0\n")
            codes.append(main(
                ["evaluate", "--manifest", str(manifest), "--model", str(files["vlm"])] + flags
            ))
        assert set(codes) <= {0, 1, 2}
    capsys.readouterr()


@FUZZ
@given(kind=st.sampled_from(["config", "train", "test"]), data=st.data())
def test_corrupted_config_and_manifests_never_escape_main(kind, data, artifacts, dataset, capsys):
    originals = {"config": artifacts["config"], "train": dataset / "data" / "train.tsv",
                 "test": dataset / "data" / "test.tsv"}
    corruption = data.draw(corruptions(originals[kind].stat().st_size))
    with tempfile.TemporaryDirectory(dir=dataset) as tmp:
        tmp = Path(tmp)
        # The manifest copies sit next to the originals, so entries resolve alike.
        files = {"config": tmp / "config", "train": dataset / "data" / "fuzzed-train.tsv",
                 "test": dataset / "data" / "fuzzed-test.tsv"}
        for name, path in files.items():
            shutil.copyfile(originals[name], path)
        _corrupt(files[kind], corruption)
        codes = [main([
            "pipeline", "--config", str(files["config"]),
            "--train-manifest", str(files["train"]), "--test-manifest", str(files["test"]),
            "--work-dir", str(tmp / "work"),
        ])]
        if kind != "config":
            codes.append(main([
                "evaluate", "--manifest", str(files[kind]), "--model", str(artifacts["vlm"]),
                "--dict", str(artifacts["vld"]), "--transform", str(artifacts["vlw"]),
                "--mode", "lsa", "--knn", "2", "--pyramid", "1x2",
            ]))
        assert set(codes) <= {0, 1, 2}
    capsys.readouterr()


# The value flags of synth and the stage commands; their path flags name the
# files of the `artifacts` fixture. Each base command exits 0 as it stands.
ENCODER_FLAGS = ["--mode", "--beta", "--knn", "--lambda", "--sigma", "--norm-scheme", "--pyramid"]
STAGE_FLAGS = {
    "synth": ["--classes", "--per-class", "--height", "--width", "--dim", "--noise", "--seed"],
    "preprocess fit": ["--pca-dim", "--epsilon"],
    "codebook train": ["--words", "--seed", "--max-iters", "--tol", "--subsample"],
    "encode": ENCODER_FLAGS,
    "train": ["--reg", "--epochs", "--seed"] + ENCODER_FLAGS,
    "evaluate": ENCODER_FLAGS,
    "bench": ["--modes", "--pyramids", "--words", "--seed"],
}


def _stage_command(command, artifacts, dataset, tmp: Path) -> list[str]:
    data = dataset / "data"
    train = ["--manifest", str(data / "train.tsv")]
    encoder = ["--dict", str(artifacts["vld"]), "--transform", str(artifacts["vlw"]),
               "--mode", "lsa", "--knn", "2", "--pyramid", "1x2"]  # the model's settings
    return command.split() + {
        "synth": ["--classes", "2", "--per-class", "1", "--height", "2", "--width", "2",
                  "--dim", "2", "--out-dir", str(tmp / "synth")],
        "preprocess fit": train + ["--out", str(tmp / "t.vlw")],
        "codebook train": train + ["--words", "2", "--out", str(tmp / "d.vld")],
        "encode": ["--in", str(artifacts["vlf"]), "--out", str(tmp / "e.vle")] + encoder,
        "train": train + ["--out", str(tmp / "m.vlm"), "--epochs", "3"] + encoder,
        "evaluate": ["--manifest", str(data / "test.tsv"), "--model", str(artifacts["vlm"]),
                     "--confusion-out", str(tmp / "c.csv")] + encoder,
        "bench": ["--train-manifest", str(data / "train.tsv"),
                  "--test-manifest", str(data / "test.tsv"), "--modes", "hard",
                  "--pyramids", "none", "--words", "2", "--work-dir", str(tmp / "work"),
                  "--out", str(tmp / "b.csv")],
    }[command]


@pytest.mark.parametrize("command", STAGE_FLAGS)
@FUZZ
@given(data=st.data())
def test_stage_command_flags_never_escape_main(command, data, artifacts, dataset, capsys):
    flag = data.draw(st.sampled_from(STAGE_FLAGS[command]))
    # A huge --epochs or --per-class is a valid request whose run time grows with it.
    huge_ok = flag not in ("--epochs", "--per-class")
    value = data.draw(st.one_of(
        st.sampled_from([v for v in VALUES if huge_ok or v != HUGE]),
        st.integers(-10, 10).map(str),
        st.floats().map(repr),
    ))
    with tempfile.TemporaryDirectory(dir=dataset) as tmp:
        args = _stage_command(command, artifacts, dataset, Path(tmp))
        assert main(args + [flag, value]) in (0, 1, 2)  # a later flag overrides the base's
    capsys.readouterr()


@FUZZ
@given(
    side=st.sampled_from(["train", "test"]),
    line=st.integers(0, 5),
    label=st.sampled_from([10**9, 2**62, 2**63]),
)
def test_huge_and_sparse_labels_never_escape_main(side, line, label, artifacts, dataset, capsys):
    """2^62 and 2^63 are refused as the manifest is read. 10^9 passes; training
    then asks for (N, 10^9 + 1) float64 arrays, and evaluation for a
    (10^9 + 1)^2 confusion matrix, which the allocator refuses."""
    data = dataset / "data"
    entries = (data / f"{side}.tsv").read_text().splitlines()
    entries[line] = entries[line].split("\t")[0] + f"\t{label}"
    # The copy sits next to the original, so its entries resolve alike.
    fuzzed = data / f"fuzzed-{side}.tsv"
    fuzzed.write_text("\n".join(entries) + "\n")
    manifests = {"train": data / "train.tsv", "test": data / "test.tsv", side: fuzzed}
    with tempfile.TemporaryDirectory(dir=dataset) as tmp:
        tmp = Path(tmp)
        codes = [main([
            "pipeline", "--config", str(artifacts["config"]), "--work-dir", str(tmp / "work"),
            "--train-manifest", str(manifests["train"]), "--test-manifest", str(manifests["test"]),
        ]), main([
            "split", "--manifest", str(fuzzed), "--per-class", "1",
            "--out-train", str(tmp / "a.tsv"), "--out-test", str(tmp / "b.tsv"),
        ])]
        for command in ("train", "evaluate"):
            args = _stage_command(command, artifacts, dataset, tmp)
            args[args.index("--manifest") + 1] = str(fuzzed)
            codes.append(main(args))
        assert set(codes) <= {0, 1, 2}
    capsys.readouterr()
