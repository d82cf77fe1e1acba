import numpy as np

from vladkit import fileio
from vladkit.fileio import DatasetManifest
from vladkit.synth import SynthSpec, split_manifest, synth_dataset


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_determinism_byte_identical(tmp_path):
    spec = SynthSpec(num_classes=2, images_per_class=5, grid_h=4, grid_w=4, dim=8, seed=7)
    synth_dataset(spec, tmp_path / "a")
    synth_dataset(spec, tmp_path / "b")
    assert dir_bytes(tmp_path / "a") == dir_bytes(tmp_path / "b")


def test_spatial_mode_shares_descriptor_multiset(tmp_path):
    spec = SynthSpec(
        num_classes=3, images_per_class=4, grid_h=5, grid_w=6, dim=4,
        mode="spatial-signal", noise_sigma=0.2, seed=11,
    )
    manifest = synth_dataset(spec, tmp_path)
    by_class = {}
    for rel, label in manifest.entries:
        fmap = fileio.read_feature_map(tmp_path / rel)
        desc = fmap.descriptors()
        key = rel.split("_")[1]  # image index part of the name
        order = np.lexsort(desc.T)
        by_class.setdefault(key, []).append(desc[order])
    for variants in by_class.values():
        assert len(variants) == 3
        for other in variants[1:]:
            assert np.allclose(variants[0], other, atol=1e-6)


def test_spatial_mode_classes_differ_in_placement(tmp_path):
    spec = SynthSpec(
        num_classes=2, images_per_class=1, grid_h=4, grid_w=4, dim=4,
        mode="spatial-signal", noise_sigma=0.1, seed=3,
    )
    manifest = synth_dataset(spec, tmp_path)
    maps = [fileio.read_feature_map(tmp_path / rel).data for rel, _ in manifest.entries]
    assert not np.allclose(maps[0], maps[1])


def test_descriptor_mode_zero_noise_nearest_centroid_oracle(tmp_path):
    spec = SynthSpec(
        num_classes=3, images_per_class=6, grid_h=4, grid_w=4, dim=8,
        mode="descriptor-signal", noise_sigma=0.0, seed=5,
    )
    manifest = synth_dataset(spec, tmp_path)
    means, labels = [], []
    for rel, label in manifest.entries:
        fmap = fileio.read_feature_map(tmp_path / rel)
        means.append(fmap.descriptors().mean(axis=0))
        labels.append(label)
    means = np.array(means)
    labels = np.array(labels)
    centroids = np.array([means[labels == c].mean(axis=0) for c in range(3)])
    predicted = np.argmin(
        ((means[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    assert (predicted == labels).all()


def test_split_counts_and_disjoint(tmp_path):
    spec = SynthSpec(num_classes=2, images_per_class=10, grid_h=2, grid_w=2, dim=3, seed=1)
    manifest = synth_dataset(spec, tmp_path)
    train, test = split_manifest(manifest, per_class=4, seed=9)
    assert len(train.entries) == 8
    assert len(test.entries) == 12
    assert set(train.entries).isdisjoint(test.entries)
    for c in range(2):
        assert sum(1 for _, label in train.entries if label == c) == 4


def test_synth_and_split_manifests_point_at_the_written_maps(tmp_path):
    spec = SynthSpec(num_classes=2, images_per_class=3, grid_h=2, grid_w=2, dim=2)
    manifest = synth_dataset(spec, tmp_path / "data")
    assert manifest.paths() == fileio.load_manifest(tmp_path / "data" / "manifest.tsv").paths()
    for part in (manifest, *split_manifest(manifest, per_class=1, seed=0)):
        assert all(path.is_file() for path in part.paths())


def test_split_sides_equal_their_saved_copies(tmp_path):
    """A class that falls wholly into training is absent from the test side."""
    path = tmp_path / "manifest.tsv"
    path.write_text("a\t0\nb\t0\nc\t1\nd\t1\ne\t2\n")
    train, test = split_manifest(fileio.load_manifest(path), per_class=1, seed=0)
    assert (set(train.labels()), set(test.labels())) == ({0, 1, 2}, {0, 1})
    for side, name in ((train, "train.tsv"), (test, "test.tsv")):
        fileio.save_manifest(side, tmp_path / name)
        assert fileio.load_manifest(tmp_path / name) == side


def test_split_of_a_sparse_label_draws_as_its_dense_twin():
    """Labels are visited in ascending order and an absent one draws nothing,
    so {0, 10^9} splits as {0, 1} does, without a pass per absent label."""
    names = [f"m{i:02d}.vlf" for i in range(16)]
    for seed in range(5):
        sides = []
        for high in (1, 10**9):
            manifest = DatasetManifest(tuple((n, high * (i % 3 == 0)) for i, n in enumerate(names)))
            sides.append([[rel for rel, _ in side.entries]
                          for side in split_manifest(manifest, per_class=2, seed=seed)])
        assert sides[0] == sides[1]
