"""End-to-end orchestration: whitening fit, codebook training, encoding of
every manifest entry, classifier training, and evaluation, with on-disk
caching of intermediates keyed by a content hash of the configuration and
the input manifests: the transform and dictionary in a stage directory that
configs with the same stage inputs share, the model and test encodings in a
directory per config. Each directory is published by one rename from a
`.tmp-*` directory, which a killed run leaves behind and which is safe to
delete when no run is active."""

from __future__ import annotations

import csv
import math
import shutil
import tempfile
import time
from dataclasses import Field, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import assignment, fileio, whitening
from .classifier import EvalReport, LinearModel, predict, tabulate, train_ovr
from .codebook import Dictionary, KmeansReport, kmeans_train, subsample
from .errors import CacheMismatch, DimMismatch, ParseError
from .fileio import DatasetManifest, read_feature_map
from .spm import PyramidSpec, encode_spm, parse_pyramid
from .vlad import NORM_SCHEMES, encode
from .whitening import WhiteningTransform, fit_whitening


# Lowest valid value of each numeric field that has one; None (auto) passes.
# Written as `not low <= x < inf` so that NaN and inf fail. Pegasos keeps each
# weight within 1/reg (unit-norm encodings, bias input 1), so reg's floor keeps
# the model inside its float32 file.
_MINIMUM = {
    "words": 1, "epochs": 1, "max_iters": 1, "subsample": 1, "pca_dim": 1,
    "seed": 0, "tol": 0, "epsilon": 0, "reg": 1 / float(np.finfo(np.float32).max),
}


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = "hard"
    beta: float = 1.0
    knn: int = 5
    lam: float = 1e-4
    sigma: float = 1.0
    norm_scheme: str = "intra-then-global"
    pyramid: str | None = None  # preset name or RxC,... ; None = no pyramid
    whiten: bool = True
    pca_dim: int | None = None
    epsilon: float | None = None
    words: int = 64
    max_iters: int = 100
    tol: float = 1e-4
    subsample: int | None = None  # descriptor cap for k-means; None = 256*words
    reg: float = 1e-4
    epochs: int = 50
    seed: int = 0

    def __post_init__(self):
        if self.mode not in assignment.MODES:
            raise ParseError(f"unknown mode {self.mode!r}")
        if self.norm_scheme not in NORM_SCHEMES:
            raise ParseError(f"unknown norm_scheme {self.norm_scheme!r}")
        for name, low in _MINIMUM.items():
            value = getattr(self, name)
            if value is not None and not low <= value < math.inf:
                raise ParseError(f"{name} must be finite and at least {low}, got {value}")
        if self.subsample is not None and self.subsample < self.words:
            raise ParseError(f"subsample {self.subsample} is below words {self.words}")
        self.pyramid_spec()  # a bad pyramid text fails here, before any stage runs

    def pyramid_spec(self) -> PyramidSpec | None:
        if self.pyramid is None:
            return None
        return parse_pyramid(self.pyramid)


# The fields that build the whitening transform and the dictionary: the
# dictionary stage's key covers these and the training manifest, so configs
# that differ only in other fields share one transform and dictionary.
STAGE_FIELDS = ("whiten", "pca_dim", "epsilon", "words", "max_iters", "tol", "subsample", "seed")


# Config-text spelling of a field name, and of None, where they differ from
# the default (the field name itself, and "auto"). Field types are read from
# the annotation strings, e.g. "int | None".
_KEY_TEXT = {"lam": "lambda"}
_NONE_TEXT = {"pyramid": "none"}
_FIELDS = {_KEY_TEXT.get(f.name, f.name): f for f in fields(PipelineConfig)}
_BOOL_TEXT = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _value_text(name: str, value) -> str:
    if value is None:
        return _NONE_TEXT.get(name, "auto")
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_value(f: Field, text: str):
    kind, _, optional = f.type.partition(" | ")
    if optional and text == _NONE_TEXT.get(f.name, "auto"):
        return None
    if kind == "bool":
        if text.lower() not in _BOOL_TEXT:
            raise ValueError(f"{f.name} must be true/1/yes or false/0/no, got {text!r}")
        return _BOOL_TEXT[text.lower()]
    return {"str": str, "int": int, "float": float}[kind](text)


def _fields_text(config: PipelineConfig, names) -> str:
    """The named fields' config-text lines, sorted by key."""
    values = {_KEY_TEXT.get(n, n): _value_text(n, getattr(config, n)) for n in names}
    return "".join(f"{k} = {values[k]}\n" for k in sorted(values))


def config_to_text(config: PipelineConfig) -> str:
    """Canonical flat key=value rendering of every field."""
    return _fields_text(config, [f.name for f in fields(PipelineConfig)])


def parse_config_text(text: str) -> PipelineConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: key {key!r} already set on line {values[key][0]}")
        values[key] = lineno, value
    try:  # absent keys keep their defaults
        return PipelineConfig(
            **{_FIELDS[k].name: _parse_value(_FIELDS[k], v) for k, (_, v) in values.items()}
        )
    except ValueError as exc:
        raise ParseError(f"bad config value: {exc}") from None


def load_config(path) -> PipelineConfig:
    return parse_config_text(fileio.read_text(path))


def fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


# -- loaders and stages, shared by run_pipeline and the cli ------------------

def load_transform(path) -> WhiteningTransform:
    """A stored whitening transform, widened to float64."""
    mean, projection = fileio.read_whitening(path)
    return WhiteningTransform(mean.astype(np.float64), projection.astype(np.float64))


def load_dictionary(path) -> Dictionary:
    """A stored dictionary, widened to float64."""
    return Dictionary(centers=fileio.read_dictionary(path).astype(np.float64))


def load_model(path) -> LinearModel:
    """A stored linear model, widened to float64."""
    weights, biases = fileio.read_model(path)
    return LinearModel(weights.astype(np.float64), biases.astype(np.float64))


def load_descriptor_stack(manifest: DatasetManifest) -> np.ndarray:
    """All descriptors from every manifest entry, stacked row-wise."""
    blocks = [read_feature_map(path).descriptors() for path in manifest.paths()]
    dims = sorted({block.shape[1] for block in blocks})
    if len(dims) > 1:
        raise DimMismatch(f"feature maps of one manifest have descriptor dims {dims}")
    return np.concatenate(blocks, dtype=np.float64)


def encode_entry(
    fmap,
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> np.ndarray:
    spec = config.pyramid_spec()
    if spec is None:
        return encode(dictionary, fmap, transform, config)
    return encode_spm(fmap, dictionary, transform, config, spec)


def encode_manifest(
    manifest: DatasetManifest,
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's encoding, rounded to the float32 that a `.vle` stores,
    as one (N, dim) float32 array filled row by row, and the entries' labels."""
    spec = config.pyramid_spec() or PyramidSpec(((1, 1),))  # flat: one region
    paths = manifest.paths()
    encodings = np.empty((len(paths), spec.encoding_length(dictionary, len(paths))), np.float32)
    for row, path in zip(encodings, paths):
        row[:] = encode_entry(read_feature_map(path), dictionary, transform, config)
    return encodings, manifest.labels()


def train_dictionary(
    descriptors: np.ndarray,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> tuple[Dictionary, KmeansReport]:
    """k-means over the (N, D) descriptors, whitened by transform when
    given and subsampled to config.subsample (None = 256 * words)."""
    if transform is not None:
        descriptors = whitening.apply_whitening_batch(transform, descriptors)
    cap = config.subsample if config.subsample is not None else 256 * config.words
    descriptors = subsample(descriptors, cap, config.seed)
    return kmeans_train(descriptors, config.words, config.max_iters, config.tol, config.seed)


def evaluate(model: LinearModel, encodings: np.ndarray, labels: np.ndarray) -> EvalReport:
    """Predictions tabulated over the model's classes and any label it never saw."""
    predicted, _ = predict(model, encodings)
    return tabulate(labels, predicted, max(model.num_classes, int(labels.max()) + 1))


# -- the pipeline ------------------------------------------------------------

# The fields that only the config directory's key covers, beside the stage key.
_CONFIG_FIELDS = tuple(f.name for f in fields(PipelineConfig) if f.name not in STAGE_FIELDS)


def _manifest_key(path) -> str:
    """16 hex digits over a manifest's bytes and the directory its relative
    entries are read from."""
    path = Path(path)
    payload = path.read_bytes() + b"\0" + bytes(path.parent.resolve()) + b"\0"
    return f"{fnv1a64(payload):016x}"


def cache_dirs(config: PipelineConfig, train_path, test_path, work_dir) -> tuple[Path, Path]:
    """The dictionary stage and the config directory under work_dir for one
    config and manifest pair. The stage key covers the STAGE_FIELDS and the
    training manifest; the config key covers the stage key, every other field
    and the test manifest. Each manifest is hashed once."""
    work_dir = fileio.nonempty_path(work_dir)
    # In every key, so that no half-written directory of the marker layout is read.
    stage_text = "layout = 2\n" + _fields_text(config, STAGE_FIELDS)
    stage_key = f"{fnv1a64((stage_text + _manifest_key(train_path)).encode()):016x}"
    payload = stage_key + _fields_text(config, _CONFIG_FIELDS) + _manifest_key(test_path)
    return work_dir / f"dict_{stage_key}", work_dir / f"cache_{fnv1a64(payload.encode()):016x}"


def _test_encoding_paths(cache: Path, manifest: DatasetManifest) -> list[Path]:
    """One `.vle` per test image, in manifest order."""
    return [cache / "enc_test" / f"{idx:06d}.vle" for idx in range(len(manifest.entries))]


def _published(directory: Path, build, *args) -> None:
    """Unless directory exists, build(tmp, *args) fills a fresh `.tmp-*`
    directory beside it, and one rename publishes that. If another run wins,
    its directory stays: by the determinism contract, its bytes are equal."""
    if directory.is_dir():
        return
    directory.parent.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=".tmp-", dir=directory.parent))
    tmp.chmod(directory.parent.stat().st_mode & 0o7777)  # the work dir's, not mkdtemp's 0700
    try:
        build(tmp, *args)
        tmp.rename(directory)
    except OSError:
        if not directory.is_dir():
            raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _build_stage(stage: Path, config: PipelineConfig, train_manifest) -> None:
    """The whitening transform and the dictionary, from the training set."""
    descriptors = load_descriptor_stack(train_manifest)
    transform = None
    if config.whiten:
        fitted = fit_whitening(descriptors, config.pca_dim, config.epsilon)
        fileio.write_whitening(fitted.mean, fitted.projection, stage / "transform.vlw")
        transform = load_transform(stage / "transform.vlw")
    trained, _ = train_dictionary(descriptors, transform, config)
    fileio.write_dictionary(trained.centers, stage / "dictionary.vld")


def _load_stage(
    stage: Path, config: PipelineConfig
) -> tuple[Dictionary, WhiteningTransform | None]:
    """The stage's dictionary and transform (None without whitening),
    checked against the config and each other."""
    transform = load_transform(stage / "transform.vlw") if config.whiten else None
    dictionary = load_dictionary(stage / "dictionary.vld")
    if dictionary.num_words != config.words:
        raise CacheMismatch(
            f"cached dictionary has {dictionary.num_words} words, config wants {config.words}"
        )
    if transform is not None and dictionary.dim != transform.output_dim:
        raise CacheMismatch(
            f"dictionary dim {dictionary.dim} != whitening output {transform.output_dim}"
        )
    return dictionary, transform


def _build_config(cache: Path, config, dictionary, transform, train_manifest, test_manifest):
    """The model and one encoding per test image. The training encodings,
    read by no later run, stay in memory."""
    model = train_ovr(*encode_manifest(train_manifest, dictionary, transform, config), config)
    fileio.write_model(model.weights, model.biases, cache / "model.vlm")
    test_x, _ = encode_manifest(test_manifest, dictionary, transform, config)
    (cache / "enc_test").mkdir()
    for values, path in zip(test_x, _test_encoding_paths(cache, test_manifest)):
        fileio.write_encoding(values, path)


def run_pipeline(config: PipelineConfig, train_path, test_path, work_dir) -> EvalReport:
    """fit whitening -> train codebook -> encode -> train -> evaluate. The
    transform and dictionary live in a stage directory that every config with
    the same stage inputs shares; the model and test encodings live in the
    config's own directory, each renamed from a `.tmp-*` directory when whole,
    so runs may share a work_dir. A failed run keeps what it renamed; a killed
    one leaves its `.tmp-*`, which is safe to delete when no run is active."""
    # Checked before any stage runs, so a bad config leaves no artifact behind.
    assignment.validate(config, config.words)
    train_manifest = fileio.load_manifest(train_path)
    test_manifest = fileio.load_manifest(test_path)
    stage, cache = cache_dirs(config, train_path, test_path, work_dir)
    _published(stage, _build_stage, config, train_manifest)
    dictionary, transform = _load_stage(stage, config)
    _published(cache, _build_config, config, dictionary, transform, train_manifest, test_manifest)

    model = load_model(cache / "model.vlm")
    paths = _test_encoding_paths(cache, test_manifest)
    test_x = np.empty((len(paths), model.dim), np.float32)
    for row, path in zip(test_x, paths):
        values = fileio.read_encoding(path)
        if values.size != model.dim:
            raise CacheMismatch(f"cached model dim {model.dim} != {path.name} length {values.size}")
        row[:] = values
    return evaluate(model, test_x, test_manifest.labels())


# -- benchmark harness -------------------------------------------------------

def run_bench(
    modes: list[str],
    pyramids: list[str],
    config: PipelineConfig,
    train_path,
    test_path,
    work_dir,
    out_path,
) -> int:
    """One CSV row per mode x pyramid pair: accuracy, the median microseconds
    of 5 encodes of the first test image, and the encoding length. Written
    after every pair has run, so a failing pair leaves no file. Returns the
    row count."""
    out_path = fileio.nonempty_path(out_path)  # checked before the first pair runs
    rows = []
    sample = read_feature_map(fileio.load_manifest(test_path).paths()[0])
    stage, _ = cache_dirs(config, train_path, test_path, work_dir)  # shared by every pair
    for mode in modes:
        for pyramid in pyramids:
            combo = replace(config, mode=mode, pyramid=_parse_value(_FIELDS["pyramid"], pyramid))
            report = run_pipeline(combo, train_path, test_path, work_dir)
            dictionary, transform = _load_stage(stage, combo)
            times = []
            for _ in range(5):
                start = time.perf_counter()
                values = encode_entry(sample, dictionary, transform, combo)
                times.append((time.perf_counter() - start) * 1e6)
            rows.append(
                [mode, pyramid, f"{report.accuracy:.6f}", f"{np.median(times):.1f}", values.size]
            )
    with open(out_path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["mode", "pyramid", "accuracy", "encode_us", "encoding_len"])
        writer.writerows(rows)
    return len(rows)
