"""Walkthrough: the end-to-end pipeline, its config file, and artifact caching.

Runs the same pipeline twice against one work directory and shows that the
second run reuses the cached whitening transform, dictionary, model, and
per-image test encodings, producing the identical result. The training
encodings are not cached: they are used once, to train the model.

Run: python3 demos/03_pipeline_and_cache.py
"""

import tempfile
import time
from pathlib import Path

from vladkit import fileio
from vladkit.pipeline import config_to_text, load_config, run_pipeline
from vladkit.synth import SynthSpec, split_manifest, synth_dataset

root = Path(tempfile.mkdtemp(prefix="vladkit_demo_"))
spec = SynthSpec(
    num_classes=3, images_per_class=20, grid_h=4, grid_w=4, dim=8,
    mode="descriptor-signal", noise_sigma=0.1, seed=11,
)
manifest = synth_dataset(spec, root)
train, test = split_manifest(manifest, per_class=10, seed=1)
fileio.save_manifest(train, root / "train.tsv")
fileio.save_manifest(test, root / "test.tsv")

config_path = root / "pipeline.cfg"
config_path.write_text("mode = lsa\nwords = 8\nknn = 3\nepochs = 30\n")
config = load_config(config_path)
print("canonical config text (also the cache-key input):")
print("  " + config_to_text(config).replace("\n", "\n  ").rstrip())

work = root / "work"
t0 = time.perf_counter()
first = run_pipeline(config, root / "train.tsv", root / "test.tsv", work)
t1 = time.perf_counter()
second = run_pipeline(config, root / "train.tsv", root / "test.tsv", work)
t2 = time.perf_counter()

cache = next(work.glob("cache_*"))
artifacts = sorted(p.name for p in cache.iterdir() if p.name != "complete")
print(f"\ncache directory {cache.name} holds {len(artifacts)} artifacts, e.g. "
      f"{artifacts[:3]} ...")
print(f"first run:  accuracy={first.accuracy:.3f}  ({t1 - t0:.2f}s, cold)")
print(f"second run: accuracy={second.accuracy:.3f}  ({t2 - t1:.2f}s, cached)")
assert first.accuracy == second.accuracy
print("identical results; artifacts on disk were reused byte for byte")
