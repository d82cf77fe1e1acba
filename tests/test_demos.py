"""Every script under demos/ runs to completion, in a child interpreter
that fails on the warnings this test run fails on."""

import json
import subprocess
import sys
from pathlib import Path

import childproc
import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the demos' mkdtemp directories inside tmp_path.
    result = subprocess.run(
        childproc.argv(str(demo)), env=childproc.env(TMPDIR=str(tmp_path)),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


def test_a_child_interpreter_gets_this_process_dev_mode_and_warning_options():
    code = "import json, sys; print(json.dumps([sys.flags.dev_mode, sys.warnoptions]))"
    result = subprocess.run(
        childproc.argv("-c", code), env=childproc.env(), capture_output=True, text=True,
        check=True, timeout=60,
    )
    dev_mode, options = json.loads(result.stdout)
    assert dev_mode == sys.flags.dev_mode
    # Its own -W options come last, after any the environment gave, so they win.
    assert options[len(options) - len(sys.warnoptions):] == sys.warnoptions
