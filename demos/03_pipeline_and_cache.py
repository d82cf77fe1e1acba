"""Walkthrough: the end-to-end pipeline, its config file, and artifact caching.

Runs the same pipeline twice against one work directory and shows that the
second run reuses the cached whitening transform, dictionary, model, and
per-image test encodings, producing the identical result. The training
encodings are not cached: they are used once, to train the model.

The transform and dictionary live in a dictionary stage (`dict_<key>/`) that
every config with the same stage inputs shares; the model and test encodings
live in a directory per config (`cache_<key>/`). A third run with another
`mode` builds its own config directory over the first run's dictionary.

Run: python3 demos/03_pipeline_and_cache.py
"""

import tempfile
import time
from dataclasses import replace
from pathlib import Path

from vladkit import fileio
from vladkit.pipeline import STAGE_FIELDS, config_to_text, load_config, run_pipeline, stage_keys
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
print("canonical config text (with the manifests, the cache-key input):")
print("  " + config_to_text(config).replace("\n", "\n  ").rstrip())
print("config keys by the stage that reads them; `codebook train` takes the dictionary's as flags,")
print("`encode` and `evaluate` the encoder's, `train` the encoder's and the classifier's:")
for stage in ("whitening", "dictionary", "encoder", "classifier"):
    print(f"  {stage + ':':12} {', '.join(stage_keys(stage))}")
print(f"fields that build the dictionary stage (whitening + dictionary): {', '.join(STAGE_FIELDS)}")

work = root / "work"
t0 = time.perf_counter()
first = run_pipeline(config, root / "train.tsv", root / "test.tsv", work)
t1 = time.perf_counter()
second = run_pipeline(config, root / "train.tsv", root / "test.tsv", work)
t2 = time.perf_counter()


def listing(directory: Path) -> str:
    names = sorted(p.relative_to(directory).as_posix() for p in directory.rglob("*") if p.is_file())
    shown = names if len(names) <= 4 else names[:3] + ["...", names[-1]]
    return f"{directory.name}: {len(names)} files {shown}"


print("\nwork directory after the first config:")
for directory in sorted(work.iterdir()):
    print("  " + listing(directory))
print(f"first run:  accuracy={first.accuracy:.3f}  ({t1 - t0:.2f}s, cold)")
print(f"second run: accuracy={second.accuracy:.3f}  ({t2 - t1:.2f}s, cached)")
assert first.accuracy == second.accuracy
print("identical results; artifacts on disk were reused byte for byte")

# Another assignment mode: no stage input changes, so the dictionary is reused.
other = replace(config, mode="sa")
t3 = time.perf_counter()
third = run_pipeline(other, root / "train.tsv", root / "test.tsv", work)
t4 = time.perf_counter()
stages, caches = sorted(work.glob("dict_*")), sorted(work.glob("cache_*"))
print(f"\nmode = sa:  accuracy={third.accuracy:.3f}  ({t4 - t3:.2f}s, dictionary reused)")
print(f"work directory now holds {len(stages)} dictionary stage and {len(caches)} config directories")
assert len(stages) == 1 and len(caches) == 2
