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
    assert sorted(rows) == ["cold_s", "cold_s[0]", "encode_ms", "warm_s"]
    for name, row in rows.items():
        # One pair: the interval is the one ratio itself.
        assert row[4] == f"[{row[3]}," and row[5] == f"{row[3]}]", name
    # The workload's one config is the whole cold pass, and its row names it.
    assert rows["cold_s[0]"][1:4] == rows["cold_s"][1:4]
    assert rows["cold_s[0]"][6:] == ["words=16", "mode=lsa", "knn=5", "pyramid=a"]
    assert "accuracies differ" not in done.stdout
    assert _files() == before


def test_a_checkout_without_sources_exits_2(tmp_path):
    done = _run(str(ROOT), str(tmp_path), "--workload", "small-grid-lsa-a", "--pairs", "1")
    assert done.returncode == 2
    assert f"no vladkit sources in {tmp_path}" in done.stderr


def test_each_config_of_a_sweep_gets_its_own_cold_row():
    done = _run(str(ROOT), str(ROOT), "--workload", "mode-sweep", "--pairs", "1")
    assert done.returncode == 0, done.stderr
    rows = [line.split() for line in done.stdout.splitlines()[2:]]
    per_config = [row for row in rows if row[0].startswith("cold_s[")]
    assert [row[0] for row in per_config] == [f"cold_s[{j}]" for j in range(6)]
    assert [row[7] for row in per_config] == [
        "mode=hard", "mode=sa", "mode=lsa", "mode=llc", "mode=llc-approx", "mode=hard"]
    assert per_config[5][8:] == ["epochs=20"]
    # A config's time is its fastest run, so the configs add up to at most
    # the fastest whole pass (to the printed 4 digits).
    cold = next(row for row in rows if row[0] == "cold_s")
    for side in (1, 2):
        total = sum(float(row[side]) for row in per_config)
        assert total <= float(cold[side]) * (1 + 1e-3)
