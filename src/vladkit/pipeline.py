"""End-to-end orchestration: whitening fit, codebook training, encoding of
every manifest entry, classifier training, and evaluation, each stage cached
in a directory keyed by the key of the stage before it, the fields it reads
and the manifest it reads first, so configs that agree up to a stage share it.
Each directory is published by one rename from a `.tmp-*` directory, which a
killed run leaves behind and which is safe to delete when no run is active."""

from __future__ import annotations

import csv
import functools
import itertools
import math
import os
import shutil
import tempfile
import time
from dataclasses import Field, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import assignment, fileio, whitening
from .classifier import EvalReport, LinearModel, predict, tabulate, train_ovr
from .codebook import Dictionary, KmeansReport, kmeans_train, subsample
from .errors import VladkitError
from .fileio import DatasetManifest, FeatureMap, read_feature_map
from .spm import PyramidSpec, encode_spm, parse_pyramid
from .vlad import NORM_SCHEMES, encode
from .whitening import WhiteningTransform, fit_whitening


def _field(default, *stages, low=None, choices=None, key=None, none="auto"):
    """A field's default and its facts: the stages that read it (whitening,
    dictionary, encoder, classifier), its lowest valid value (None passes; NaN
    and inf fail) or its choices, and its config-text key and spelling of None."""
    return field(default=default, metadata=dict(
        stages=stages, low=low, choices=choices, key=key, none=none))


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = _field("hard", "encoder", choices=assignment.MODES)
    beta: float = _field(1.0, "encoder")
    knn: int = _field(5, "encoder")
    lam: float = _field(1e-4, "encoder", key="lambda")
    sigma: float = _field(1.0, "encoder")
    norm_scheme: str = _field("intra-then-global", "encoder", choices=NORM_SCHEMES)
    pyramid: str | None = _field(None, "encoder", none="none")  # preset or RxC,...; None = flat
    whiten: bool = _field(True, "whitening")
    pca_dim: int | None = _field(None, "whitening", low=1)
    epsilon: float | None = _field(None, "whitening", low=0)
    words: int = _field(64, "dictionary", low=1)
    max_iters: int = _field(100, "dictionary", low=1)
    tol: float = _field(1e-4, "dictionary", low=0)
    subsample: int | None = _field(None, "dictionary", low=1)  # k-means cap; None = 256*words
    # Pegasos keeps each weight within 1/reg (unit-norm encodings, bias input
    # 1), so reg's floor keeps the model inside its float32 file.
    reg: float = _field(1e-4, "classifier", low=1 / float(np.finfo(np.float32).max))
    epochs: int = _field(50, "classifier", low=1)
    seed: int = _field(0, "dictionary", "classifier", low=0)

    def __post_init__(self):
        for name, choices, low in _CHECKS:
            value = getattr(self, name)
            if choices is not None:
                if value not in choices:
                    raise VladkitError(f"unknown {name} {value!r}")
            elif value is not None and not low <= value < math.inf:
                raise VladkitError(f"{name} must be finite and at least {low}, got {value}")
        if self.subsample is not None and self.subsample < self.words:
            raise VladkitError(f"subsample {self.subsample} is below words {self.words}")
        if self.mode in ("sa", "lsa") and not 0 < self.beta < math.inf:
            raise VladkitError(f"beta must be finite and positive, got {self.beta}")
        if self.mode in ("lsa", "llc-approx") and not 1 <= self.knn <= self.words:
            raise VladkitError(f"knn {self.knn} outside [1, {self.words}]")
        if self.mode == "llc" and not 0 < self.sigma < math.inf:
            raise VladkitError(f"sigma must be finite and positive, got {self.sigma}")
        if self.mode == "llc" and not 0 <= self.lam < math.inf:
            raise VladkitError(f"lambda must be finite and non-negative, got {self.lam}")
        self.pyramid_spec()  # a bad pyramid text fails here, before any stage runs

    def pyramid_spec(self) -> PyramidSpec | None:
        if self.pyramid is None:
            return None
        return parse_pyramid(self.pyramid)

    def encoding_length(self, dictionary: Dictionary, images: int = 1) -> int:
        """The length of this config's encodings over dictionary, checked for `images` of them."""
        return (self.pyramid_spec() or PyramidSpec(((1, 1),))).encoding_length(dictionary, images)


# (name, choices, lowest value) of each field that declares either, for __post_init__.
_CHECKS = [(f.name, f.metadata["choices"], f.metadata["low"]) for f in fields(PipelineConfig)
           if f.metadata["choices"] is not None or f.metadata["low"] is not None]
# Each field by its config-text key. Field types are read from the annotation
# strings, e.g. "int | None".
_FIELDS = {f.metadata["key"] or f.name: f for f in fields(PipelineConfig)}
_BOOL_TEXT = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def stage_keys(*stages: str) -> tuple[str, ...]:
    """The config-text keys of the fields that any of the named stages reads,
    in field order."""
    return tuple(k for k, f in _FIELDS.items() if not set(stages).isdisjoint(f.metadata["stages"]))


def _value_text(f: Field, value) -> str:
    if value is None:
        return f.metadata["none"]
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _parse_value(f: Field, text: str):
    kind, _, optional = f.type.partition(" | ")
    if optional and text == f.metadata["none"]:
        return None
    if kind == "bool":
        if text.lower() not in _BOOL_TEXT:
            raise ValueError(f"{f.name} must be true/1/yes or false/0/no, got {text!r}")
        return _BOOL_TEXT[text.lower()]
    return {"str": str, "int": int, "float": float}[kind](text)


def _fields_text(config: PipelineConfig, keyed) -> str:
    """The config-text lines of the (key, field) pairs, in their order."""
    return "".join(f"{k} = {_value_text(f, getattr(config, f.name))}\n" for k, f in keyed)


def config_to_text(config: PipelineConfig) -> str:
    """Canonical flat key=value rendering of every field."""
    return _fields_text(config, sorted(_FIELDS.items()))


def parse_config_text(text: str) -> PipelineConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise VladkitError(f"line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELDS:
            raise VladkitError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise VladkitError(f"line {lineno}: key {key!r} already set on line {values[key][0]}")
        values[key] = lineno, value
    try:  # absent keys keep their defaults
        return PipelineConfig(
            **{_FIELDS[k].name: _parse_value(_FIELDS[k], v) for k, (_, v) in values.items()}
        )
    except ValueError as exc:
        raise VladkitError(f"bad config value: {exc}") from None


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


def load_stage(dictionary_path, transform_path=None) -> tuple[Dictionary, WhiteningTransform | None]:
    """A stored dictionary and the transform it was trained behind (None
    without whitening), widened to float64 and checked against each other."""
    dictionary = Dictionary(centers=fileio.read_dictionary(dictionary_path).astype(np.float64))
    transform = None if transform_path is None else load_transform(transform_path)
    if transform is not None and dictionary.dim != transform.output_dim:
        raise VladkitError(
            f"dictionary {str(dictionary_path)!r} has dim {dictionary.dim}, but transform"
            f" {str(transform_path)!r} outputs {transform.output_dim}"
        )
    return dictionary, transform


def load_model(path) -> LinearModel:
    """A stored linear model, widened to float64."""
    weights, biases = fileio.read_model(path)
    return LinearModel(weights.astype(np.float64), biases.astype(np.float64))


def check_map(
    path, fmap: FeatureMap, dictionary: Dictionary | None, transform: WhiteningTransform | None
) -> FeatureMap:
    """fmap, read from path; refused, naming path, when its descriptor dim is
    not the transform's input dim, or without a transform the dictionary's
    dim. With neither given, every dim passes."""
    if transform is not None:
        if fmap.dim != transform.input_dim:
            raise VladkitError(
                f"{path}: descriptor dim {fmap.dim} != transform input {transform.input_dim}"
            )
    elif dictionary is not None and fmap.dim != dictionary.dim:
        raise VladkitError(f"{path}: descriptor dim {fmap.dim} != dictionary dim {dictionary.dim}")
    return fmap


def load_descriptor_stack(manifest: DatasetManifest, transform=None) -> np.ndarray:
    """All descriptors from every manifest entry, stacked row-wise; each map
    is checked against transform's input dim when one is given."""
    blocks = [check_map(path, read_feature_map(path), None, transform).descriptors()
              for path in manifest.paths()]
    dims = sorted({block.shape[1] for block in blocks})
    if len(dims) > 1:
        raise VladkitError(f"feature maps of one manifest have descriptor dims {dims}")
    return np.concatenate(blocks, dtype=np.float64)


def encode_entry(
    fmap,
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> np.ndarray:
    spec = config.pyramid_spec()
    if spec is None:
        return encode([fmap], dictionary, transform, config)[0]
    return encode_spm([fmap], dictionary, transform, config, spec)[0]


# encode_manifest's float64 values per encode call, where an image counts the
# larger of its encoding and its working set (whitened descriptors and weights).
_CHUNK = 2**15


def encode_manifest(
    manifest: DatasetManifest,
    dictionary: Dictionary,
    transform: WhiteningTransform | None,
    config: PipelineConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's encoding, rounded to the float32 that a `.vle` stores,
    as one (N, dim) float32 array, and the entries' labels. Runs of maps of one
    shape are encoded in chunks, each read when it is encoded, as _CHUNK bounds."""
    spec = config.pyramid_spec()
    paths = manifest.paths()
    length = config.encoding_length(dictionary, len(paths))
    encodings = np.empty((len(paths), length), np.float32)
    maps = (check_map(path, read_feature_map(path), dictionary, transform) for path in paths)
    start = 0
    for (height, width, _), run in itertools.groupby(maps, key=lambda fmap: fmap.data.shape):
        working_set = height * width * (dictionary.dim + dictionary.num_words)
        while chunk := list(itertools.islice(run, max(1, _CHUNK // max(length, working_set)))):
            stop = start + len(chunk)
            args = (chunk, dictionary, transform, config)
            encodings[start:stop] = encode(*args) if spec is None else encode_spm(*args, spec)
            start = stop
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

# The cached stages in chain order, each with its fields' (key, field) pairs in key order.
_CHAIN = tuple((stage, sorted((k, _FIELDS[k]) for k in stage_keys(stage)))
               for stage in ("whitening", "dictionary", "encoder", "classifier"))


def _manifest_key(path) -> str:
    """16 hex digits, a BLAKE2b digest, over a manifest's bytes and the
    directory its relative entries are read from."""
    import hashlib  # not at the top: it loads OpenSSL, about 5 ms on every `import vladkit`
    with open(path, "rb") as f:  # os.path rather than Path: half the cost, the same bytes
        payload = f.read() + b"\0" + os.fsencode(os.path.realpath(os.path.dirname(path))) + b"\0"
    return hashlib.blake2b(payload, digest_size=8).hexdigest()


def cache_dirs(config: PipelineConfig, train_path, test_path, work_dir) -> dict[str, Path]:
    """Each stage's directory `<stage>_<key>` under work_dir for one config and
    manifest pair, in chain order, without whitening when config.whiten is
    false. A key hashes the key before it, the stage's fields and the manifest
    it reads first: the training one for whitening, the test one for the encoder."""
    work_dir = Path(fileio.nonempty(work_dir))
    manifests = {"whitening": _manifest_key(train_path), "encoder": _manifest_key(test_path)}
    dirs, key = {}, ""
    for stage, keyed in _CHAIN:
        text = key + _fields_text(config, keyed) + manifests.get(stage, "")
        key = f"{fnv1a64(text.encode()):016x}"
        if config.whiten or stage != "whitening":
            dirs[stage] = work_dir / f"{stage}_{key}"
    return dirs


def _test_encoding_paths(encoder: Path, manifest: DatasetManifest) -> list[str]:
    """One `.vle` per test image, in manifest order, joined as text: a warm
    run reads each one, and two Path joins cost nearly as much as that read."""
    return [f"{encoder}/{idx:06d}.vle" for idx in range(len(manifest.entries))]


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


def _fit_transform(tmp: Path, descriptors, config: PipelineConfig) -> None:
    if len(descriptors()) < config.words:  # k-means could not follow: publish no transform
        raise VladkitError(f"{len(descriptors())} points < {config.words} requested centers")
    fitted = fit_whitening(descriptors(), config.pca_dim, config.epsilon)
    fileio.write_whitening(fitted.mean, fitted.projection, tmp / "transform.vlw")


def _train_words(tmp: Path, descriptors, transform_path, config: PipelineConfig) -> None:
    transform = None if transform_path is None else load_transform(transform_path)
    trained, _ = train_dictionary(descriptors(), transform, config)
    fileio.write_dictionary(trained.centers, tmp / "dictionary.vld")


def _encode_test(tmp: Path, manifest, dictionary, transform, config: PipelineConfig) -> None:
    encodings, _ = encode_manifest(manifest, dictionary, transform, config)
    for values, path in zip(encodings, _test_encoding_paths(tmp, manifest)):
        fileio.write_encoding(values, path)


def _train_model(tmp: Path, manifest, dictionary, transform, config: PipelineConfig) -> None:
    model = train_ovr(*encode_manifest(manifest, dictionary, transform, config), config)
    fileio.write_model(model.weights, model.biases, tmp / "model.vlm")


def _run(config: PipelineConfig, train_path, test_path, work_dir):
    """run_pipeline's report, and the dictionary and transform it encoded with."""
    train_manifest = fileio.load_manifest(train_path)
    test_manifest = fileio.load_manifest(test_path)
    dirs = cache_dirs(config, train_path, test_path, work_dir)
    descriptors = functools.cache(lambda: load_descriptor_stack(train_manifest))  # read once
    transform_path = dirs["whitening"] / "transform.vlw" if config.whiten else None
    if config.whiten:
        _published(dirs["whitening"], _fit_transform, descriptors, config)
    _published(dirs["dictionary"], _train_words, descriptors, transform_path, config)
    del descriptors  # frees the training descriptors before the encoder stage runs
    dictionary, transform = load_stage(dirs["dictionary"] / "dictionary.vld", transform_path)
    if dictionary.num_words != config.words:
        raise VladkitError(f"cached dictionary has {dictionary.num_words} words,"
                           f" config wants {config.words}")
    _published(dirs["encoder"], _encode_test, test_manifest, dictionary, transform, config)
    _published(dirs["classifier"], _train_model, train_manifest, dictionary, transform, config)

    model = load_model(dirs["classifier"] / "model.vlm")
    paths = _test_encoding_paths(dirs["encoder"], test_manifest)
    test_x = np.empty((len(paths), model.dim), np.float32)
    for row, path in zip(test_x, paths):
        values = fileio.read_encoding(path, row)  # a file of another length is not read into row
        if values.size != model.dim:
            raise VladkitError(
                f"cached model dim {model.dim} != {path.rpartition('/')[2]} length {values.size}")
    return evaluate(model, test_x, test_manifest.labels()), dictionary, transform


def run_pipeline(config: PipelineConfig, train_path, test_path, work_dir) -> EvalReport:
    """fit whitening -> train codebook -> encode -> train -> evaluate, each
    stage cached in its directory of cache_dirs: `transform.vlw`, `dictionary.vld`,
    a `.vle` per test image (the training encodings stay in memory), `model.vlm`.
    Each directory is renamed from a `.tmp-*` directory when whole, so runs may
    share a work_dir. A failed run keeps what it renamed; a killed one leaves
    its `.tmp-*`, which is safe to delete when no run is active."""
    return _run(config, train_path, test_path, work_dir)[0]


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
    out_path = Path(fileio.nonempty(out_path))  # checked before the first pair runs
    if out_path.is_dir() or out_path.resolve() == Path(fileio.nonempty(work_dir)).resolve():
        raise VladkitError(f"bench output {str(out_path)!r} is a directory or the work dir")
    # Each replace() checks its config, so a bad pair fails before any pair runs.
    pairs = [(m, p, replace(config, mode=m, pyramid=_parse_value(_FIELDS["pyramid"], p)))
             for m, p in itertools.product(modes, pyramids)]
    rows = []
    sample = read_feature_map(fileio.load_manifest(test_path).paths()[0])
    for mode, pyramid, combo in pairs:
        report, dictionary, transform = _run(combo, train_path, test_path, work_dir)
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
