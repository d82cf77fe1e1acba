"""Time two checkouts of vladkit against each other in one process.

    python3 scripts/ab_compare.py PARENT CHANGE --workload small-grid-lsa-a --pairs 10

Each argument is a checkout. Its `src/vladkit` is loaded twice, each time
under its own package name, which works because every import inside the
package is relative. The workload comes from PARENT's
`perfbench/workloads.py`, and its dataset is built once, by PARENT's
`perfbench/make_dataset.py` in a child process, into a temporary directory.
Neither checkout is written to.

After one untimed round per loaded copy, a pair is cold passes of every
config, then warm passes, then `vladkit encode` calls of one test image, the
sides taking turns in the order A, B, B, A, or B, A, A, B in odd pairs, so
that a slow spell of the host weighs on both. A side's time in a pair is its
fastest run there. Running both sides in one process makes their ratio
steadier than that of separate processes' minima, whose spread is the host's
speed. The copies are loaded in the order A, B, B, A too, and pairs use them
two by two: with one copy each, the copy loaded second read up to 3% faster
on large-grid's encode, whichever checkout it was. For each metric it prints
the median over pairs of the B/A ratio of times, with a bootstrap 95%
interval of that median, and then the same for each config's cold time,
`cold_s[j]` for the workload's config j (its fastest run in the pair), so that
a sweep shows which config moved. Both sides share one allocator and one
BLAS, so memory is not compared.

Exit code 0 after a comparison, 2 when a checkout has no vladkit sources.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__ in either checkout
# Each step runs the sides in one of these orders, the first in even pairs:
# each side runs once before the other and once after it, and goes first in
# half of the pairs, so that what a run leaves behind (written files, caches)
# weighs on both sides alike.
ORDERS = ((0, 1, 1, 0), (1, 0, 0, 1))
WARM_REPEATS = 3  # orders per pair; each side's fastest run counts
ENCODE_REPEATS = 3
RESAMPLES = 2000


def _load(checkout: Path, name: str):
    """The checkout's src/vladkit as package `name`, with its cli imported."""
    package = checkout / "src" / "vladkit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    return module


def _workloads(checkout: Path) -> dict:
    path = checkout / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("ab_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks its module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _make_dataset(checkout: Path, workload, seed: int, out: Path) -> None:
    """perfbench's dataset, written as perfbench writes it: by make_dataset.py
    in a child process with the checkout's src/ on its path."""
    spec = json.dumps({"synth": workload.synth, "train_per_class": workload.train_per_class})
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, str(checkout / "perfbench" / "make_dataset.py"), spec,
                    str(seed), str(out)], env=env, check=True)


class Side:
    """One checkout's package, configs and scratch directory."""

    def __init__(self, package, workload, seed: int, train: Path, test: Path, scratch: Path):
        self.package = package
        self.configs = [package.PipelineConfig(seed=seed, **c) for c in workload.configs]
        self.train, self.test, self.scratch = train, test, scratch
        self.passes = 0
        self.accuracies = None
        self.cold_runs = []  # each cold pass's seconds per config

    def cold(self) -> float:
        """One pass of every config in a new work dir; finds the first
        config's dictionary and transform for encode(). Old work dirs stay
        until the run ends: removing one between timed runs slowed the runs
        after it, by up to 1.3x."""
        self.passes += 1
        self.work = self.scratch / f"work-{self.passes}"
        seconds = []
        for i, config in enumerate(self.configs):
            start = time.perf_counter()
            self.package.run_pipeline(config, self.train, self.test, self.work)
            seconds.append(time.perf_counter() - start)
            if i == 0:  # by suffix, so that the cache's layout does not matter
                files = {p.suffix: p for p in self.work.rglob("*.vl[dw]")}
        self.dictionary, self.transform = files[".vld"], files.get(".vlw")
        self.cold_runs.append(seconds)
        return sum(seconds)

    def warm(self) -> float:
        start = time.perf_counter()
        reports = [self.package.run_pipeline(c, self.train, self.test, self.work)
                   for c in self.configs]
        elapsed = time.perf_counter() - start
        self.accuracies = [float(r.accuracy) for r in reports]
        return elapsed

    def encode(self, image: Path) -> float:
        """One `vladkit encode` of image with the first config, in ms."""
        config = self.configs[0]
        args = ["encode", "--dict", str(self.dictionary), "--in", str(image),
                "--out", str(self.scratch / "encoded.vle"), "--mode", config.mode,
                "--beta", repr(config.beta), "--knn", str(config.knn),
                "--lambda", repr(config.lam), "--sigma", repr(config.sigma),
                "--norm-scheme", config.norm_scheme]
        args += ["--transform", str(self.transform)] if self.transform else []
        args += ["--pyramid", config.pyramid] if config.pyramid else []
        start = time.perf_counter()
        code = self.package.cli.main(args)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"vladkit encode {image} exited {code}")
        return elapsed * 1e3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="scripts/ab_compare.py")
    parser.add_argument("parent", type=Path, help="checkout A, the baseline")
    parser.add_argument("change", type=Path, help="checkout B")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checkouts = [args.parent.resolve(), args.change.resolve()]
    for checkout in checkouts:
        if not (checkout / "src" / "vladkit" / "__init__.py").is_file():
            print(f"ab_compare: no vladkit sources in {checkout}", file=sys.stderr)
            return 2
    workloads = _workloads(checkouts[0])
    if args.workload not in workloads or args.pairs < 1:
        parser.error(f"--workload is one of {sorted(workloads)}, and --pairs at least 1")
    workload = workloads[args.workload]

    # One BLAS thread, as perfbench pins it, set before NumPy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="ab-compare-") as tmp:
        tmp = Path(tmp)
        _make_dataset(checkouts[0], workload, args.seed, tmp / "data")
        train, test = tmp / "data" / "train.tsv", tmp / "data" / "test.tsv"
        copies = {}  # loaded in the order A, B, B, A
        for name in ("vladkit_a", "vladkit_b", "vladkit_b2", "vladkit_a2"):
            (tmp / name).mkdir()
            checkout = checkouts[name.startswith("vladkit_b")]
            copies[name] = Side(_load(checkout, name), workload, args.seed, train, test,
                                tmp / name)
        images = copies["vladkit_a"].package.load_manifest(test).paths()
        for side in copies.values():  # untimed: lazy imports and first-call caches settle
            side.cold(), side.warm(), side.encode(images[0])
        times = {m: ([], []) for m in ("cold_s", "warm_s", "encode_ms")}
        configs = {f"cold_s[{j}]": config for j, config in enumerate(workload.configs)}
        times |= {metric: ([], []) for metric in configs}
        for pair in range(args.pairs):
            suffix = "2" if pair // 2 % 2 else ""
            sides = [copies[f"vladkit_a{suffix}"], copies[f"vladkit_b{suffix}"]]
            image = images[pair % len(images)]
            for side in sides:
                side.cold_runs = []
            steps = (("cold_s", Side.cold, 1), ("warm_s", Side.warm, WARM_REPEATS),
                     ("encode_ms", lambda side: side.encode(image), ENCODE_REPEATS))
            for metric, step, repeats in steps:
                fastest = [math.inf, math.inf]
                for _ in range(repeats):
                    for i in ORDERS[pair % 2]:
                        fastest[i] = min(fastest[i], step(sides[i]))
                for i in (0, 1):
                    times[metric][i].append(fastest[i])
            for i in (0, 1):  # each config's fastest cold run in the pair
                for j, seconds in enumerate(np.min(sides[i].cold_runs, axis=0)):
                    times[f"cold_s[{j}]"][i].append(seconds)

    rng = np.random.default_rng(0)  # for the bootstrap: resampled pairs, RESAMPLES times
    print(f"ab_compare: {args.workload} seed {args.seed}, {args.pairs} pairs, A={checkouts[0]} "
          f"B={checkouts[1]}")
    print(f"  {'metric':10s} {'A median':>10s} {'B median':>10s} {'B/A median':>10s}  95% interval")
    for metric, (a, b) in times.items():
        ratios = [y / x for x, y in zip(a, b)]
        medians = np.median(rng.choice(ratios, size=(RESAMPLES, len(ratios))), axis=1)
        low, high = np.percentile(medians, [2.5, 97.5])
        config = configs.get(metric, {})
        print(f"  {metric:10s} {statistics.median(a):10.4g} {statistics.median(b):10.4g} "
              f"{statistics.median(ratios):10.3f}  [{low:.3f}, {high:.3f}]"
              + "".join(f" {key}={value}" for key, value in config.items()))
    accuracies = {name: side.accuracies for name, side in copies.items()}
    if len({tuple(a) for a in accuracies.values()}) > 1:
        print(f"  accuracies differ: {accuracies}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
