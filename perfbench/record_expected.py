"""Record the test accuracy of every workload config, one cold pass per seed,
into perfbench/expected.json. The benchmark's correctness gate then requires
each recorded seed to reproduce these values exactly. Run from the root of a
checkout whose vladkit is the reference:

    python3 perfbench/record_expected.py --seeds 100
"""

from __future__ import annotations

import argparse
import json
import shutil

import run


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench/record_expected.py")
    parser.add_argument("--seeds", type=int, default=100, help="record seeds 0..N-1")
    args = parser.parse_args()

    import harness
    from make_dataset import make_dataset
    from tracing import Tracer
    from workloads import WORKLOADS

    table = {}
    for name, workload in WORKLOADS.items():
        table[name] = {}
        for seed in range(args.seeds):
            work_dir = run.BENCH_DIR / "_work" / f"record-{name}-{seed}"
            try:
                train, test = make_dataset(workload.synth, workload.train_per_class, seed,
                                           work_dir / "data")
                bench = harness.Bench(workload, seed, train, test, work_dir, Tracer(),
                                      expected=None)
                bench.cold_pass()
            finally:
                shutil.rmtree(work_dir, ignore_errors=True)
            table[name][str(seed)] = bench.accuracies
            print(name, seed, bench.accuracies, flush=True)
    lines = ",\n".join(
        f' "{name}": {{\n'
        + ",\n".join(f'  "{s}": {json.dumps(a)}' for s, a in seeds.items())
        + "\n }"
        for name, seeds in table.items()
    )
    harness.EXPECTED_PATH.write_text("{\n" + lines + "\n}\n", encoding="utf-8")


if __name__ == "__main__":
    run.prepare()
    main()
