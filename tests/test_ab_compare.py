"""scripts/ab_compare.py, run on this checkout against itself."""

import subprocess
from pathlib import Path

import childproc

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "ab_compare.py"


def _run(*args):
    return subprocess.run(childproc.argv(str(SCRIPT), *args), env=childproc.env(),
                          capture_output=True, text=True, timeout=300)


def _files():
    """The checkout's files, but for the test run's own bytecode caches."""
    return sorted(p for p in ROOT.rglob("*") if not {".git", "__pycache__"} & set(p.parts))


def test_one_pair_prints_a_ratio_and_an_interval_per_metric():
    before = _files()
    done = _run(str(ROOT), str(ROOT), "--workload", "small-grid-lsa-a", "--pairs", "1")
    assert done.returncode == 0, done.stderr
    rows = {line.split()[0]: line.split() for line in done.stdout.splitlines()[2:]}
    assert sorted(rows) == ["cold_s", "encode_ms", "warm_s"]
    for name, row in rows.items():
        # One pair: the interval is the one ratio itself.
        assert row[4] == f"[{row[3]}," and row[5] == f"{row[3]}]", name
    assert "accuracies differ" not in done.stdout
    assert _files() == before


def test_a_checkout_without_sources_exits_2(tmp_path):
    done = _run(str(ROOT), str(tmp_path), "--workload", "small-grid-lsa-a", "--pairs", "1")
    assert done.returncode == 2
    assert f"no vladkit sources in {tmp_path}" in done.stderr
