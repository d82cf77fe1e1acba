"""Every script under demos/ runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps the demos' mkdtemp directories inside tmp_path.
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONPATH=pythonpath)
    result = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
