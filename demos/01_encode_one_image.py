"""Walkthrough: from a synthetic feature-map dataset to a single encoding.

Generates a small descriptor-signal dataset, fits the whitening transform,
learns a dictionary of visual words, and encodes one image under each
assignment mode, printing the shapes and norms along the way.

Run: python3 demos/01_encode_one_image.py
"""

import tempfile
from pathlib import Path

import numpy as np

from vladkit import fileio
from vladkit.codebook import kmeans_train, subsample
from vladkit.pipeline import PipelineConfig, load_descriptor_stack
from vladkit.synth import SynthSpec, synth_dataset
from vladkit.vlad import encode
from vladkit.whitening import fit_whitening, apply_whitening_batch

root = Path(tempfile.mkdtemp(prefix="vladkit_demo_"))
spec = SynthSpec(
    num_classes=3, images_per_class=10, grid_h=4, grid_w=4, dim=8,
    mode="descriptor-signal", noise_sigma=0.1, seed=11,
)
manifest = synth_dataset(spec, root)
print(f"dataset: {len(manifest.entries)} images of "
      f"{spec.grid_h}x{spec.grid_w}x{spec.dim} descriptors in {root}")

descriptors = load_descriptor_stack(manifest)
print(f"stacked descriptors: {descriptors.shape}")

transform = fit_whitening(descriptors, None, None)
whitened = apply_whitening_batch(transform, descriptors)
cov = np.cov(whitened.T, bias=True)
print(f"whitening: {transform.input_dim}->{transform.output_dim}, "
      f"post-whitening descriptors are unit length "
      f"(norm of first = {np.linalg.norm(whitened[0]):.6f})")

dictionary, report = kmeans_train(subsample(whitened, 256 * 8, 0), 8, seed=0)
print(f"dictionary: {dictionary.num_words} words, k-means converged in "
      f"{report.iterations} iterations "
      f"(objective {report.objective_trace[0]:.2f} -> {report.objective_trace[-1]:.2f})")

fmap = fileio.read_feature_map(manifest.paths()[0])
for mode in ("hard", "sa", "lsa", "llc", "llc-approx"):
    vector = encode([fmap], dictionary, transform, PipelineConfig(mode=mode, words=8))[0]
    print(f"  mode={mode:10s} encoding length={vector.size} "
          f"L2 norm={np.linalg.norm(vector):.6f} "
          f"nonzero blocks={int((np.abs(vector.reshape(8, -1)).sum(axis=1) > 0).sum())}/8")
