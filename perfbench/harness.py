"""Timed passes, correctness checks and result assembly for one workload.

A run is a closed loop with one caller. It repeats rounds until its time is
up; a round is a timed set-up, one cold pass, then warm passes and
`vladkit encode` calls for fixed shares of that cold pass's time. vladkit is driven only through
its public functions: run_pipeline, cli.main, synth_dataset, split_manifest.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from vladkit import PipelineConfig, cli, load_manifest, run_pipeline

import tracing
from make_dataset import make_dataset
from workloads import Workload

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
SRC = REPO / "src"
EXPECTED_PATH = BENCH_DIR / "expected.json"

MIN_ENCODES = 100  # so that p90 has at least 10 samples beyond it
# Per round, warm passes and encodes run for these multiples of the cold time.
WARM_SHARE = 0.15
ENCODE_SHARE = 0.35

# Per-layer metrics taken from warm passes and from encodes, besides the
# cold-pass ones (unprefixed): the layers that should move warm_s / encode_ms_*.
WARM_LAYERS = (
    "pipeline.self_s", "pipeline.hash_s", "pipeline.cache_hits", "pipeline.cache_misses",
    "fileio.read_s", "fileio.calls", "fileio.bytes_read",
    "classifier.predict_s", "classifier.predict_calls",
)
ENCODE_LAYERS = (
    "fileio.read_s", "fileio.write_s", "fileio.calls", "whitening.apply_s",
    "assignment.s", "spm.encode_s", "vlad.aggregate_s", "vlad.normalize_s",
)


def load_expected(workload: str, seed: int) -> list[float] | None:
    """Recorded test accuracy per config, or None for an unrecorded seed."""
    table = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def _same_report(a, b) -> bool:
    return a.accuracy == b.accuracy and np.array_equal(a.confusion, b.confusion)


def _digest(path: Path) -> bytes:
    return hashlib.sha256(path.read_bytes()).digest()


class Bench:
    """Cold passes, warm passes and encodes over one dataset, with the
    correctness checks. Counts operations: passes, encodes and checks."""

    def __init__(self, workload: Workload, seed: int, train: Path, test: Path, work_dir: Path,
                 tracer: tracing.Tracer, expected: list[float] | None):
        self.train, self.test = train, test
        self.configs = [PipelineConfig(seed=seed, **c) for c in workload.configs]
        self.expected = expected
        self.pipe_dir = work_dir / "pipe"
        self.encode_out = work_dir / "encoded.vle"
        self.tracer = tracer
        self.test_images = [test.parent / rel for rel, _ in load_manifest(test).entries]
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reference = None  # EvalReports of the first cold pass
        self.reports = None  # EvalReports of the latest cold pass
        self.accuracies: list[float] = []
        self.passes = 0
        self.encodes = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
            print(f"check failed: {what}", file=sys.stderr)

    def _run_configs(self, kind: str) -> tuple[list[float], list]:
        """Each config's run_pipeline time and EvalReport."""
        self.passes += 1
        self.attempted += 1  # the pass itself; an exception ends the run in run()
        times, reports = [], []
        with self.tracer.span(f"bench.{kind}_pass", pass_id=f"{kind}-{self.passes}"):
            for i, config in enumerate(self.configs):
                with self.tracer.span("pipeline.run_pipeline"):
                    start = time.perf_counter()
                    reports.append(run_pipeline(config, self.train, self.test, self.pipe_dir))
                    times.append(time.perf_counter() - start)
                if kind == "cold" and i == 0:
                    first_files = [p for p in self.pipe_dir.rglob("*") if p.is_file()]
        if kind == "cold":
            self._index_artifacts(first_files)
        return times, reports

    def _index_artifacts(self, files: list[Path]) -> None:
        """The first config's dictionary and transform, for `vladkit encode`,
        and the digests of its cached encodings, to compare encodes against.
        Found by suffix, so the cache's directory layout does not matter."""
        dicts = [p for p in files if p.suffix == ".vld"]
        transforms = [p for p in files if p.suffix == ".vlw"]
        if len(dicts) != 1 or len(transforms) != 1:
            raise RuntimeError(f"first config cached {len(dicts)} dictionaries and "
                               f"{len(transforms)} transforms, expected one of each")
        self.dictionary, self.transform = dicts[0], transforms[0]
        self.cached_encodings = {_digest(p) for p in files if p.suffix == ".vle"}

    def cold_pass(self) -> list[float]:
        """Returns each config's run_pipeline time."""
        shutil.rmtree(self.pipe_dir, ignore_errors=True)
        times, reports = self._run_configs("cold")
        for i, report in enumerate(reports):
            if self.expected is not None:
                ok = report.accuracy == self.expected[i]
            else:
                ok = self.reference is None or _same_report(report, self.reference[i])
            self.check(ok, f"cold config {i}: accuracy {report.accuracy}")
        if self.reference is None:
            self.reference = reports
            self.accuracies = [float(r.accuracy) for r in reports]
        self.reports = reports
        return times

    def warm_pass(self) -> float:
        times, reports = self._run_configs("warm")
        for i, (warm, cold) in enumerate(zip(reports, self.reports)):
            self.check(_same_report(warm, cold), f"warm config {i}: report differs from cold")
        return sum(times)

    def encode(self) -> float:
        """One `vladkit encode` of the next test image; returns milliseconds."""
        config = self.configs[0]
        image = self.test_images[self.encodes % len(self.test_images)]
        self.encodes += 1
        args = [
            "encode", "--dict", str(self.dictionary), "--transform", str(self.transform),
            "--in", str(image), "--out", str(self.encode_out),
            "--mode", config.mode, "--beta", repr(config.beta), "--knn", str(config.knn),
            "--lambda", repr(config.lam), "--sigma", repr(config.sigma),
            "--norm-scheme", config.norm_scheme,
        ] + (["--pyramid", config.pyramid] if config.pyramid else [])
        self.attempted += 1
        with self.tracer.span("cli.main", pass_id=f"encode-{self.encodes}"):
            start = time.perf_counter()
            code = cli.main(args)
            elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.failures.append(f"vladkit encode {image.name} exited {code}")
        else:
            self.check(_digest(self.encode_out) in self.cached_encodings,
                       f"vladkit encode {image.name} differs from the cached .vle")
        return elapsed * 1e3


def set_up(workload: Workload, seed: int, out_dir: Path) -> float:
    """One timed set-up: a child process starts Python, imports vladkit and
    writes the dataset into out_dir. Returns its wall time."""
    spec = json.dumps({"synth": workload.synth, "train_per_class": workload.train_per_class})
    cmd = [sys.executable, str(BENCH_DIR / "make_dataset.py"), spec, str(seed), str(out_dir)]
    start = time.perf_counter()
    subprocess.run(cmd, env=dict(os.environ, PYTHONPATH=str(SRC)), check=True)
    return time.perf_counter() - start


def _repeat(step, seconds: float, out: list) -> None:
    """Run step at least once, then until `seconds` have passed."""
    stop = time.perf_counter() + seconds
    out.append(step())
    while time.perf_counter() < stop:
        out.append(step())


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    cold_s: list = field(default_factory=list)  # per cold pass, each config's time
    cold_traced_s: list = field(default_factory=list)
    warm_s: list = field(default_factory=list)
    encode_ms: list = field(default_factory=list)
    peak_rss_mb: float | None = None  # after the first round


def _rounds(bench: Bench, seconds: float, tracer: tracing.Tracer | None, set_up_once,
            samples: Samples) -> None:
    """Rounds until `seconds` have passed; a round is started only if one as
    long as the last still fits. With a tracer, each round makes an untraced
    and a traced cold pass, alternating which goes first, and traces the
    rest. Without, each round starts with a timed set-up, so that set-ups
    meet the same machine conditions as the passes."""
    traced = tracer.installed if tracer else contextlib.nullcontext
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    while not samples.warm_s or time.perf_counter() + last_round < deadline:
        start = time.perf_counter()
        if tracer:
            for on in (False, True) if len(samples.cold_s) % 2 == 0 else (True, False):
                with traced() if on else contextlib.nullcontext():
                    (samples.cold_traced_s if on else samples.cold_s).append(bench.cold_pass())
        else:
            samples.setup_s.append(set_up_once())
            samples.cold_s.append(bench.cold_pass())
        cold = sum(samples.cold_s[-1])
        with traced():
            _repeat(bench.warm_pass, WARM_SHARE * cold, samples.warm_s)
            _repeat(bench.encode, ENCODE_SHARE * cold, samples.encode_ms)
        if samples.peak_rss_mb is None:
            samples.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        last_round = time.perf_counter() - start
    with traced():
        while len(samples.encode_ms) < MIN_ENCODES:
            samples.encode_ms.append(bench.encode())


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_text = "unknown"
    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_text,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "machine": platform.machine(),
        "git_rev": None,
        "git_dirty": None,
    }
    if (REPO / ".git").exists():
        git = ["git", "-C", str(REPO)]
        rev = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        if rev.returncode == 0 and status.returncode == 0:
            env["git_rev"] = rev.stdout.strip()
            env["git_dirty"] = bool(status.stdout.strip())
    # A checkout without git history is identified by the digest of src/.
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()
    return env


def run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: Path,
        out_dir: Path) -> dict:
    """One benchmark run. Prints a report and returns the result object
    (correct, attempted, failed, metrics)."""
    work_dir.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    samples = Samples()
    tracer = tracing.Tracer() if trace else None
    data_dir = work_dir / "data"
    if trace:
        start = time.perf_counter()
        make_dataset(workload.synth, workload.train_per_class, seed, data_dir)
        synth_s = time.perf_counter() - start
    else:
        samples.setup_s.append(set_up(workload, seed, data_dir))
    spare = work_dir / "setup"

    def set_up_once() -> float:
        shutil.rmtree(spare, ignore_errors=True)
        return set_up(workload, seed, spare)

    bench = Bench(workload, seed, data_dir / "train.tsv", data_dir / "test.tsv", work_dir,
                  tracer or tracing.Tracer(), load_expected(workload.name, seed))
    try:
        _rounds(bench, seconds, tracer, set_up_once, samples)
    except Exception:  # noqa: BLE001 - a failed operation ends the run, reported below
        traceback.print_exc()
        bench.failed += 1
        bench.failures.append("operation raised; run stopped")
    complete = bench.failed == 0 and samples.warm_s and len(samples.encode_ms) >= MIN_ENCODES
    metrics, typical = {}, {}
    if complete and trace:
        metrics = _per_layer(bench, tracer, synth_s, samples,
                           out_dir / f"{workload.name}-seed{seed}-spans.jsonl.gz")
    elif complete:
        metrics, typical = _end_to_end(samples)
    ok = bench.failed == 0 and bool(metrics)
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": bool(trace),
        "environment": environment(),
        "metrics": metrics,
        "typical": {
            **typical,
            "accuracy": {"value": statistics.fmean(bench.accuracies) if bench.accuracies
                         else float("nan"), "unit": "fraction", "samples": len(bench.accuracies)},
            "error_rate": {"value": bench.failed / max(1, bench.attempted), "unit": "fraction",
                           "samples": bench.attempted},
        },
        "accuracy_per_config": bench.accuracies,
        "accuracy_expected": "recorded" if bench.expected is not None else "unrecorded seed",
        "failures": bench.failures,
        "samples": asdict(samples),
    }
    suffix = "trace" if trace else "timed"
    (out_dir / f"{workload.name}-seed{seed}-{suffix}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    _print_report(report)
    return {
        "correct": ok,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }


def _fastest_pass(passes: list[list[float]]) -> float:
    """The sum over configs of each config's fastest cold run. Shorter than
    a whole pass, a single run more often finds an uncontended spell."""
    return sum(min(times) for times in zip(*passes))


def _metric(value: float, unit: str, samples: int) -> dict:
    return {"value": float(value), "unit": unit, "samples": samples}


def _end_to_end(s: Samples) -> tuple[dict, dict]:
    """The gated metrics (BENCHMARK.json) and the typical ones, printed only.

    Gated timings are the fastest sample of the run: on a shared host,
    contention slows samples by up to 1.6x in spells of seconds to minutes,
    which moves a run's median and p90 with the share of time it was
    contended, much more than its fastest sample."""
    gated = {
        "setup_s": _metric(statistics.median(s.setup_s), "s", len(s.setup_s)),
        "cold_s_min": _metric(_fastest_pass(s.cold_s), "s", len(s.cold_s)),
        "warm_s_min": _metric(min(s.warm_s), "s", len(s.warm_s)),
        "encode_ms_min": _metric(min(s.encode_ms), "ms", len(s.encode_ms)),
        "peak_rss_mb": _metric(s.peak_rss_mb, "MB", 1),
    }
    typical = {
        "cold_s": _metric(statistics.median(map(sum, s.cold_s)), "s", len(s.cold_s)),
        "warm_s": _metric(statistics.median(s.warm_s), "s", len(s.warm_s)),
        "encode_ms_p50": _metric(statistics.median(s.encode_ms), "ms", len(s.encode_ms)),
        "encode_ms_p90": _metric(statistics.quantiles(s.encode_ms, n=10, method="inclusive")[8],
                                 "ms", len(s.encode_ms)),
    }
    return gated, typical


def _median_metrics(passes: dict[str, list]) -> dict[str, float]:
    per_pass = [tracing.layer_metrics(spans) for spans in passes.values()]
    return {name: statistics.median(m[name] for m in per_pass) for name in tracing.LAYER_UNITS}


def _per_layer(bench: Bench, tracer: tracing.Tracer, synth_s: float, s: Samples,
               spans_path: Path) -> dict:
    cold_passes = tracer.passes("cold-")
    for pass_id, spans in cold_passes.items():
        root = next(span for span in spans if span.parent is None)
        total = sum(tracing.self_times(spans).values())
        bench.check(abs(total - root.duration) <= 1e-6,
                    f"{pass_id}: span self times sum to {total}, root lasts {root.duration}")
    warm_passes, encodes = tracer.passes("warm-"), tracer.passes("encode-")
    cold, warm, encode = (_median_metrics(p) for p in (cold_passes, warm_passes, encodes))
    tracer.write(spans_path)
    units = tracing.LAYER_UNITS
    metrics = {name: _metric(cold[name], unit, len(cold_passes)) for name, unit in units.items()}
    metrics["cli.self_s"] = _metric(encode["cli.self_s"], "s", len(encodes))
    for name in WARM_LAYERS:
        metrics[f"warm.{name}"] = _metric(warm[name], units[name], len(warm_passes))
    for name in ENCODE_LAYERS:
        metrics[f"encode.{name}"] = _metric(encode[name], units[name], len(encodes))
    metrics["synth.s"] = _metric(synth_s, "s", 1)
    metrics["trace.overhead"] = _metric(
        _fastest_pass(s.cold_traced_s) / _fastest_pass(s.cold_s), "ratio", len(s.cold_s))
    return metrics


def _print_report(report: dict) -> None:
    print(f"workload {report['workload']} seed {report['seed']} "
          f"({'traced' if report['trace'] else 'timed'}, {report['seconds']} s)")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    for title, metrics in (("result metrics", report["metrics"]),
                           ("printed only, no bound", report["typical"])):
        print(f" {title}:")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']:>16.6g} {m['unit']:<14s} n={m['samples']}")
    print(f"  accuracy per config {report['accuracy_per_config']} "
          f"({report['accuracy_expected']}); failures: {report['failures'] or 'none'}")
