"""Smoke test of the benchmark, at reduced size. Run from the repo root:

    python3 -m pytest perfbench/smoke.py

(The file is not named test_*.py so that the repo's own test run does not
collect it.)
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run

run.prepare()

import harness  # noqa: E402  (needs the import path set by run.prepare)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def shrunk(name: str):
    """The workload at a size that runs in about a second. Its own name keeps
    it clear of the accuracies recorded for the full size."""
    wl = WORKLOADS[name]
    return replace(
        wl,
        name=f"{name}-smoke",
        synth=dict(wl.synth, images_per_class=4, grid_h=4, grid_w=4, dim=8),
        train_per_class=2,
        configs=tuple(dict(c, words=8) for c in wl.configs),
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_is_reported_with_its_unit(name, trace, kind, tmp_path):
    result = harness.run(shrunk(name), 0, 1, bool(trace), tmp_path / "work", tmp_path / "out")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    if trace:
        assert (tmp_path / "out" / f"{name}-smoke-seed0-spans.jsonl.gz").stat().st_size > 0


def test_gate_fires_when_a_cached_encoding_has_a_flipped_byte(tmp_path, monkeypatch):
    real = harness.run_pipeline
    flipped = set()

    def run_pipeline_then_flip(config, train, test, work_dir):
        report = real(config, train, test, work_dir)
        for path in Path(work_dir).rglob("*.vle"):
            if path not in flipped:
                data = bytearray(path.read_bytes())
                data[-1] ^= 0x01
                path.write_bytes(bytes(data))
                flipped.add(path)
        return report

    monkeypatch.setattr(harness, "run_pipeline", run_pipeline_then_flip)
    result = harness.run(shrunk("small-grid-lsa-a"), 0, 1, False, tmp_path / "work",
                         tmp_path / "out")
    assert not result["correct"] and result["failed"] >= 1
    report = json.loads((tmp_path / "out" / "small-grid-lsa-a-smoke-seed0-timed.json").read_text())
    assert any("differs from the cached .vle" in f for f in report["failures"])


def test_fails_without_printing_when_only_the_benchmark_is_present(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(run.BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mode-sweep", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
