"""How a test starts a child Python: with this interpreter's dev mode and
warning options, so that a warning the test run treats as an error (such as
a NumPy RuntimeWarning, a silent NaN) is an error in the child too, and with
this checkout's src/ first on PYTHONPATH."""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def argv(*args: str) -> list[str]:
    """The command line of a child interpreter that runs args."""
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    return [sys.executable, *dev, *(f"-W{option}" for option in sys.warnoptions), *args]


def env(**extra: str) -> dict[str, str]:
    """os.environ with src/ first on PYTHONPATH, and extra."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)
