"""Command-line entry point.

Exit codes: 0 success, 1 usage error, 2 data error (bad files, dimension
mismatches, a request too large to allocate, and everything else raised as
a VladkitError).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import fileio, pipeline
from .errors import VladkitError
from .fileio import FeatureMap, read_feature_map
from .pipeline import (
    PipelineConfig,
    check_map,
    encode_entry,
    encode_manifest,
    evaluate,
    load_config,
    load_descriptor_stack,
    load_model,
    load_stage,
    load_transform,
    run_bench,
    run_pipeline,
)
from .synth import SynthSpec, split_manifest, synth_dataset
from .whitening import apply_whitening_batch


def _flag_type(f):
    def parse(text):
        return pipeline._parse_value(f, text)
    # argparse names the type in its error message: "invalid int value: 'abc'".
    parse.__name__ = f.type.partition(" | ")[0]
    return parse


def _add_config_flags(p: argparse.ArgumentParser, keys):
    """One flag per config-file key, `_` spelled `-`, with the field's default,
    choices and config-file parsing (so `auto` and `none` work as there)."""
    for key in keys:
        f = pipeline._FIELDS[key]
        p.add_argument(
            f"--{key.replace('_', '-')}", dest=f.name, type=_flag_type(f), default=f.default,
            choices=f.metadata["choices"], help=f"default {pipeline._value_text(f, f.default)}",
        )


def _config(args, **given) -> PipelineConfig:
    """The config of a subcommand's config flags and `given`; other fields default."""
    names = {f.name for f in pipeline._FIELDS.values()}
    return PipelineConfig(**{k: v for k, v in vars(args).items() if k in names}, **given)


def _seed(text):
    """A seed flag's value: NumPy's generators take only seeds >= 0."""
    value = int(text)
    if value < 0:
        raise ValueError(text)
    return value


_seed.__name__ = "seed"  # argparse's message: "invalid seed value: '-1'"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args keeps no state between
    calls, and building all the subcommands costs far more than a parse."""
    parser = argparse.ArgumentParser(prog="vladkit")
    # Each subcommand's parser sets `run`; `dest` names a missing subcommand.
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic feature-map dataset")
    p.set_defaults(run=_cmd_synth)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--synth-mode", default="descriptor-signal",
                   choices=["descriptor-signal", "spatial-signal"])
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("split", help="seeded n-per-class train/test split")
    p.set_defaults(run=_cmd_split)
    p.add_argument("--manifest", required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out-train", type=fileio.nonempty, required=True)
    p.add_argument("--out-test", type=fileio.nonempty, required=True)

    p = sub.add_parser("preprocess", help="fit or apply a whitening transform")
    pp = p.add_subparsers(dest="preprocess_command", required=True)
    fit = pp.add_parser("fit")
    fit.set_defaults(run=_cmd_preprocess_fit)
    fit.add_argument("--manifest", required=True)
    fit.add_argument("--out", type=fileio.nonempty, required=True)
    # The whitening stage's keys but its switch `whiten`: here the switch is
    # running this command, and downstream it is giving --transform.
    _add_config_flags(fit, [k for k in pipeline.stage_keys("whitening") if k != "whiten"])
    apply_p = pp.add_parser("apply")
    apply_p.set_defaults(run=_cmd_preprocess_apply)
    apply_p.add_argument("--transform", required=True)
    apply_p.add_argument("--in", dest="input", required=True)
    apply_p.add_argument("--out", type=fileio.nonempty, required=True)

    p = sub.add_parser("codebook", help="learn a visual-word dictionary")
    cb = p.add_subparsers(dest="codebook_command", required=True)
    train_p = cb.add_parser("train")
    train_p.set_defaults(run=_cmd_codebook)
    train_p.add_argument("--manifest", required=True)
    train_p.add_argument("--transform", default=None)
    train_p.add_argument("--out", type=fileio.nonempty, required=True)
    _add_config_flags(train_p, pipeline.stage_keys("dictionary"))

    p = sub.add_parser("encode", help="encode one feature map")
    p.set_defaults(run=_cmd_encode)
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--transform", default=None)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", type=fileio.nonempty, required=True)
    _add_config_flags(p, pipeline.stage_keys("encoder"))

    p = sub.add_parser("train", help="train a one-vs-rest linear model")
    p.set_defaults(run=_cmd_train)
    p.add_argument("--manifest", required=True)
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--transform", default=None)
    p.add_argument("--out", type=fileio.nonempty, required=True)
    _add_config_flags(p, pipeline.stage_keys("encoder", "classifier"))

    p = sub.add_parser("evaluate", help="evaluate a model on a manifest")
    p.set_defaults(run=_cmd_evaluate)
    p.add_argument("--manifest", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--dict", dest="dictionary", required=True)
    p.add_argument("--transform", default=None)
    p.add_argument("--confusion-out", type=fileio.nonempty, default=None)
    _add_config_flags(p, pipeline.stage_keys("encoder"))

    p = sub.add_parser("bench", help="cross-product benchmark of modes x pyramids")
    p.set_defaults(run=_cmd_bench)
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--test-manifest", required=True)
    p.add_argument("--modes", required=True, help="comma-separated assignment modes")
    p.add_argument("--pyramids", required=True, help="comma-separated, 'none' allowed")
    p.add_argument("--work-dir", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p, ("words", "seed"))

    p = sub.add_parser("pipeline", help="run the full pipeline from a config file")
    p.set_defaults(run=_cmd_pipeline)
    p.add_argument("--config", required=True)
    p.add_argument("--train-manifest", required=True)
    p.add_argument("--test-manifest", required=True)
    p.add_argument("--work-dir", required=True)

    return parser


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        num_classes=args.classes,
        images_per_class=args.per_class,
        grid_h=args.height,
        grid_w=args.width,
        dim=args.dim,
        mode=args.synth_mode,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    manifest = synth_dataset(spec, args.out_dir)
    print(f"wrote {len(manifest.entries)} feature maps to {args.out_dir}")
    return 0


def _cmd_split(args) -> int:
    out_train, out_test = Path(args.out_train), Path(args.out_test)
    if out_train.resolve() == out_test.resolve():  # the test side would overwrite the train side
        raise VladkitError(f"--out-train and --out-test name the same file {str(out_train)!r}")
    manifest = fileio.load_manifest(args.manifest)
    train, test = split_manifest(manifest, args.per_class, args.seed)
    fileio.save_manifest(train, out_train)
    try:
        fileio.save_manifest(test, out_test)
    except OSError:  # both sides or neither
        out_train.unlink(missing_ok=True)
        raise
    print(f"train={len(train.entries)} test={len(test.entries)}")
    return 0


def _cmd_preprocess_fit(args) -> int:
    config = _config(args)  # checked before --manifest is read
    descriptors = load_descriptor_stack(fileio.load_manifest(args.manifest))
    transform = pipeline.fit_transform(args.out, descriptors, config)
    print(f"fit whitening {transform.input_dim}->{transform.output_dim}")
    return 0


def _cmd_preprocess_apply(args) -> int:
    transform = load_transform(args.transform)
    fmap = check_map(args.input, read_feature_map(args.input), None, transform)
    whitened = apply_whitening_batch(transform, fmap.descriptors().astype(np.float64))
    whitened = whitened.reshape(fmap.height, fmap.width, transform.output_dim)
    fileio.write_feature_map(FeatureMap(whitened.astype(np.float32)), args.out)
    return 0


def _cmd_codebook(args) -> int:
    config = _config(args)
    transform = load_transform(args.transform) if args.transform is not None else None
    descriptors = load_descriptor_stack(fileio.load_manifest(args.manifest), transform)
    dictionary, report = pipeline.train_words(args.out, descriptors, transform, config)
    print(f"trained {dictionary.num_words} words in {report.iterations} iterations"
          f" (converged={report.converged})")
    return 0


def _stage(args):
    """`--dict` and `--transform` through load_stage, and the flags' config for
    that many words: all checked before any input is read."""
    dictionary, transform = load_stage(args.dictionary, args.transform)
    return dictionary, transform, _config(args, words=dictionary.num_words)


def _cmd_encode(args) -> int:
    dictionary, transform, config = _stage(args)
    fmap = check_map(args.input, read_feature_map(args.input), dictionary, transform)
    values = encode_entry(fmap, dictionary, transform, config)
    fileio.write_encoding(values, args.out)
    return 0


def _cmd_train(args) -> int:
    stage = _stage(args)  # the dictionary, transform and config, read before --manifest
    model = pipeline.train_model(args.out, fileio.load_manifest(args.manifest), *stage)
    print(f"trained model: {model.num_classes} classes, dim {model.dim}")
    return 0


def _cmd_evaluate(args) -> int:
    model = load_model(args.model)
    dictionary, transform, config = _stage(args)
    length = config.encoding_length(dictionary)
    if model.dim != length:  # checked before --manifest is read
        raise VladkitError(f"model {args.model!r} has dim {model.dim}, but --dict and"
                           f" --pyramid give encodings of length {length}")
    manifest = fileio.load_manifest(args.manifest)
    report = evaluate(model, *encode_manifest(manifest, dictionary, transform, config))
    print(f"accuracy={report.accuracy}")
    lines = "\n".join(",".join(str(v) for v in row) for row in report.confusion)
    if args.confusion_out is None:
        print(lines)
    else:
        Path(args.confusion_out).write_text(lines + "\n")
    return 0


def _cmd_bench(args) -> int:
    count = run_bench(
        args.modes.split(","),
        args.pyramids.split(","),
        _config(args),
        args.train_manifest,
        args.test_manifest,
        args.work_dir,
        args.out,
    )
    print(f"wrote {count} rows to {args.out}")
    return 0


def _cmd_pipeline(args) -> int:
    config = load_config(args.config)
    report = run_pipeline(config, args.train_manifest, args.test_manifest, args.work_dir)
    print(f"accuracy={report.accuracy}")
    return 0


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.run(args)
    except SystemExit as exc:  # argparse exits 2 on a usage error, documented here as 1
        return exc.code if isinstance(exc.code, int) and exc.code != 2 else 1
    except (VladkitError, OSError, MemoryError) as exc:  # MemoryError: more than the host can allocate
        print(f"vladkit: error: {exc or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
