"""The benchmark's workloads: a seeded synthetic dataset plus the pipeline
configs run on it. Every seed-dependent choice (dataset, split, config seed)
is derived from the one workload seed; vladkit only sees the written files."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: dict  # SynthSpec fields except the seed
    train_per_class: int
    configs: tuple[dict, ...]  # PipelineConfig fields except the seed


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="small-grid-lsa-a",
            why="many small images: per-descriptor assignment calls dominate the cold pass",
            synth=dict(num_classes=4, images_per_class=50, grid_h=8, grid_w=8, dim=16,
                       mode="spatial-signal"),
            train_per_class=25,
            configs=(dict(words=16, mode="lsa", knn=5, pyramid="a"),),
        ),
        Workload(
            name="large-grid-sa-c",
            why=("few large images: k-means, training, the 21-region pyramid and big encodings "
                 "weigh in"),
            synth=dict(num_classes=4, images_per_class=20, grid_h=16, grid_w=16, dim=64,
                       mode="spatial-signal"),
            train_per_class=10,
            configs=(dict(words=64, mode="sa", pyramid="c"),),
        ),
        Workload(
            name="mode-sweep",
            why=("six flat configs sharing whitening and dictionary inputs: all five kernels, "
                 "stage reuse"),
            synth=dict(num_classes=5, images_per_class=20, grid_h=8, grid_w=8, dim=32,
                       mode="descriptor-signal"),
            train_per_class=10,
            configs=(
                dict(words=32, mode="hard"),
                dict(words=32, mode="sa"),
                dict(words=32, mode="lsa"),
                dict(words=32, mode="llc"),
                dict(words=32, mode="llc-approx"),
                dict(words=32, mode="hard", epochs=20),
            ),
        ),
    )
}
