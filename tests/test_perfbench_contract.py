"""The benchmark tracer wraps vladkit functions by module attribute; each
name it lists must exist, or a traced benchmark run fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_attribute_resolves(monkeypatch):
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.PATCHES and not missing
