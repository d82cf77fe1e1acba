"""Walkthrough: the end-to-end pipeline, its config file, and artifact caching.

Runs the same pipeline twice against one work directory and shows that the
second run reuses the cached whitening transform, dictionary, per-image test
encodings and model, producing the identical result. The training encodings
are not cached: they are used once, to train the model.

The cache is a chain of four stages, each in its own `<stage>_<key>/`
directory: whitening (`transform.vlw`), dictionary (`dictionary.vld`),
encoder (one `.vle` per test image) and classifier (`model.vlm`). A stage's
key covers the key before it and the fields that stage reads, so configs that
agree up to a stage share it. A run with another `mode` builds its own encoder
and classifier over the first run's dictionary; a run with another `reg`
builds only a classifier, over the first run's test encodings.

Run: python3 demos/03_pipeline_and_cache.py
"""

import tempfile
import time
from dataclasses import replace
from pathlib import Path

from vladkit import fileio
from vladkit.pipeline import config_to_text, load_config, run_pipeline, stage_keys
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
print("config keys by the stage that reads them, and whose key they enter; `codebook train`")
print("takes the dictionary's as flags, `encode` and `evaluate` the encoder's, `train` the")
print("encoder's and the classifier's:")
STAGES = ("whitening", "dictionary", "encoder", "classifier")
for stage in STAGES:
    print(f"  {stage + ':':12} {', '.join(stage_keys(stage))}")

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



def counts() -> dict[str, int]:
    return {stage: len(list(work.glob(f"{stage}_*"))) for stage in STAGES}


# Another assignment mode, an encoder field: whitening and dictionary are reused.
t3 = time.perf_counter()
third = run_pipeline(replace(config, mode="sa"), root / "train.tsv", root / "test.tsv", work)
t4 = time.perf_counter()
print(f"\nmode = sa:  accuracy={third.accuracy:.3f}  ({t4 - t3:.2f}s, dictionary reused)")
print(f"  directories per stage: {counts()}")
assert counts() == {"whitening": 1, "dictionary": 1, "encoder": 2, "classifier": 2}

# A sweep over reg, a classifier field: each value trains a model on the
# first run's test encodings, which are neither encoded nor written again.
for reg in (1e-3, 1e-2):
    t5 = time.perf_counter()
    swept = run_pipeline(replace(config, reg=reg), root / "train.tsv", root / "test.tsv", work)
    t6 = time.perf_counter()
    print(f"reg = {reg}: accuracy={swept.accuracy:.3f}  ({t6 - t5:.2f}s, test encodings reused)")
print(f"  directories per stage: {counts()}")
assert counts() == {"whitening": 1, "dictionary": 1, "encoder": 2, "classifier": 4}
