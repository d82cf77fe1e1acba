"""The benchmark tracer wraps vladkit functions by module attribute and reads
their arguments and results for its counters; each name it lists must exist,
and its counters must read a real pipeline run, or a traced benchmark run
fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from vladkit.fileio import save_manifest
from vladkit.pipeline import PipelineConfig, run_pipeline
from vladkit.synth import SynthSpec, split_manifest, synth_dataset

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture
def tracing(monkeypatch):
    if not TRACING.exists():
        pytest.skip("no perfbench/tracing.py in this checkout")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # Registered while it runs: its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(tracing):
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracing.PATCHES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert tracing.PATCHES and not missing


def test_tracer_counters_read_a_pyramid_and_a_flat_run(tracing, tmp_path):
    data = tmp_path / "data"
    manifest = synth_dataset(
        SynthSpec(num_classes=2, images_per_class=4, grid_h=4, grid_w=4, dim=3), data
    )
    for side, split in zip(("train", "test"), split_manifest(manifest, 2, 0)):
        save_manifest(split, data / f"{side}.tsv")
    tracer = tracing.Tracer()
    with tracer.installed():
        for pyramid in ("a", None):
            config = PipelineConfig(words=2, epochs=2, max_iters=5, pyramid=pyramid)
            with tracer.span("bench.cold_pass", pass_id=f"run-{pyramid}"):
                with tracer.span("pipeline.run_pipeline"):
                    # A work dir per pass: the flat pass would reuse the pyramid
                    # pass's dictionary stage and run no k-means.
                    work = tmp_path / f"work-{pyramid}"
                    run_pipeline(config, data / "train.tsv", data / "test.tsv", work)
    passes = tracer.passes("run-")
    assert set(passes) == {"run-a", "run-None"}
    for pass_id, spans in passes.items():
        metrics = tracing.layer_metrics(spans)
        for name in ("classifier.updates", "codebook.iterations", "assignment.rows"):
            assert metrics[name] > 0, (pass_id, name)
        assert (metrics["spm.regions"] > 0) == (pass_id == "run-a")
