import os
import re
import struct
import threading

import numpy as np
import pytest

from memtrace import traced_peak
from vladkit import fileio
from vladkit.errors import VladkitError
from vladkit.fileio import DatasetManifest, FeatureMap


def random_map(rng):
    h, w, d = rng.integers(1, 6, size=3)
    data = rng.standard_normal((h, w, d)).astype(np.float32)
    return FeatureMap(data)


def test_smallest_valid_map(tmp_path):
    path = tmp_path / "m.vlf"
    payload = b"VLF1" + struct.pack("<III", 1, 1, 2) + struct.pack("<2f", 1.0, 0.0)
    path.write_bytes(payload)
    fmap = fileio.read_feature_map(path)
    assert (fmap.height, fmap.width, fmap.dim) == (1, 1, 2)
    assert fmap.data.reshape(-1).tolist() == [1.0, 0.0]


def test_write_size_arithmetic(tmp_path):
    fmap = FeatureMap(np.array([1, 2, 3, 4], dtype=np.float32).reshape(2, 2, 1))
    path = tmp_path / "m.vlf"
    fileio.write_feature_map(fmap, path)
    assert path.stat().st_size == 4 + 3 * 4 + 16


def test_bad_magic(tmp_path):
    path = tmp_path / "m.vlf"
    path.write_bytes(b"XXXX" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", 0.0))
    with pytest.raises(VladkitError, match="expected magic b'VLF1', got b'XXXX'"):
        fileio.read_feature_map(path)


def test_truncated(tmp_path):
    path = tmp_path / "m.vlf"
    path.write_bytes(b"VLF1" + struct.pack("<III", 2, 2, 3) + struct.pack("<11f", *range(11)))
    with pytest.raises(VladkitError, match="expected 12 floats, found 11"):
        fileio.read_feature_map(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "m.vlf"
    path.write_bytes(b"VLF1" + struct.pack("<II", 2, 2))
    with pytest.raises(VladkitError, match="header needs 16 bytes, file has 12"):
        fileio.read_feature_map(path)

def test_nan_refused_on_write(tmp_path):
    with pytest.raises(VladkitError, match="feature map contains NaN/Inf"):
        FeatureMap(np.array([[[np.nan]]], dtype=np.float32))
    # A whitening container is written in two parts; each is checked.
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    for mean, projection in ((np.array([np.nan, 0.0]), np.eye(2)), (np.zeros(2), bad)):
        path = tmp_path / "t.vlw"
        with pytest.raises(VladkitError, match="refusing to write non-finite payload"):
            fileio.write_whitening(mean, projection, path)
        assert not path.exists()


def test_nan_refused_on_read(tmp_path):
    path = tmp_path / "m.vlf"
    path.write_bytes(b"VLF1" + struct.pack("<III", 1, 1, 1) + struct.pack("<f", float("nan")))
    with pytest.raises(VladkitError, match="m.vlf: payload contains NaN/Inf"):
        fileio.read_feature_map(path)


def test_a_map_read_from_disk_is_scanned_for_nan_once(tmp_path, monkeypatch):
    path = tmp_path / "m.vlf"
    fileio.write_feature_map(FeatureMap(np.ones((16, 16, 64), dtype=np.float32)), path)
    scans = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: scans.append(a.size) or isfinite(a))
    fmap = fileio.read_feature_map(path)
    assert scans == [16 * 16 * 64]
    assert isinstance(fmap, FeatureMap) and fmap.data.shape == (16, 16, 64)
    assert (fmap.data == 1.0).all()


# Each container kind: its magic, a valid header, its float count given a header, and its reader.
KINDS = {
    "vlf": (b"VLF1", (2, 1, 3), lambda h, w, d: h * w * d, fileio.read_feature_map),
    "vld": (b"VLD1", (2, 3), lambda m, d: m * d, fileio.read_dictionary),
    "vlw": (b"VLW1", (3, 2), lambda d_in, d_out: d_in + d_out * d_in, fileio.read_whitening),
    "vle": (b"VLE1", (6,), lambda n: n, fileio.read_encoding),
    "vlm": (b"VLM1", (2, 2), lambda c, dim: c * (dim + 1), fileio.read_model),
}


def container(magic, header, floats):
    return magic + struct.pack(f"<{len(header)}I", *header) + np.array(floats, "<f4").tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_every_reader_refuses_a_zero_header_a_short_payload_and_a_nan(kind, tmp_path):
    magic, header, size, read = KINDS[kind]
    path = tmp_path / f"c.{kind}"
    n = size(*header)
    path.write_bytes(container(magic, header, [0.5] * n))
    read(path)
    bad = [(container(magic, header, [0.5] * (n - 1)), f"expected {n} floats, found {n - 1}"),
           (container(magic, header, [0.5] * (n - 1) + [float("nan")]), "payload contains NaN/Inf")]
    # A zero in each field in turn, with as many floats as that header counts:
    # for the encoding, a zero-length .vle.
    for i in range(len(header)):
        zero = header[:i] + (0,) + header[i + 1:]
        bad.append((container(magic, zero, [0.5] * size(*zero)), "non-positive header"))
    for data, message in bad:
        path.write_bytes(data)
        with pytest.raises(VladkitError, match=re.escape(f"{path}: {message}")):
            read(path)


def test_whitening_with_more_outputs_than_inputs_is_refused(tmp_path):
    path = tmp_path / "t.vlw"
    path.write_bytes(container(b"VLW1", (2, 3), [0.5] * 8))
    with pytest.raises(VladkitError, match="t.vlw: bad whitening dims 2->3"):
        fileio.read_whitening(path)


def test_feature_map_of_other_than_three_axes_is_refused():
    with pytest.raises(VladkitError, match="feature map data must be H x W x D"):
        FeatureMap(np.zeros((2, 2), dtype=np.float32))


def test_write_whitening_refuses_a_mean_of_another_length(tmp_path):
    path = tmp_path / "t.vlw"
    with pytest.raises(VladkitError, match="mean length 3 does not match projection D_in 4"):
        fileio.write_whitening(np.zeros(3), np.eye(2, 4), path)
    assert not path.exists()


def test_feature_map_roundtrip_bytes(tmp_path):
    rng = np.random.default_rng(7)
    for i in range(100):
        fmap = random_map(rng)
        p1 = tmp_path / f"a{i}.vlf"
        p2 = tmp_path / f"b{i}.vlf"
        fileio.write_feature_map(fmap, p1)
        fileio.write_feature_map(fileio.read_feature_map(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


def test_dictionary_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    centers = rng.standard_normal((5, 3)).astype(np.float32)
    path = tmp_path / "d.vld"
    fileio.write_dictionary(centers, path)
    assert np.array_equal(fileio.read_dictionary(path), centers)


def test_whitening_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    mean = rng.standard_normal(4).astype(np.float32)
    projection = rng.standard_normal((3, 4)).astype(np.float32)
    path = tmp_path / "t.vlw"
    fileio.write_whitening(mean, projection, path)
    mean2, projection2 = fileio.read_whitening(path)
    assert np.array_equal(mean, mean2)
    assert np.array_equal(projection, projection2)


def test_encoding_roundtrip(tmp_path):
    values = np.arange(10, dtype=np.float32)
    path = tmp_path / "e.vle"
    fileio.write_encoding(values, path)
    assert np.array_equal(fileio.read_encoding(path), values)


def test_model_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    weights = rng.standard_normal((4, 6)).astype(np.float32)
    biases = rng.standard_normal(4).astype(np.float32)
    path = tmp_path / "m.vlm"
    fileio.write_model(weights, biases, path)
    w2, b2 = fileio.read_model(path)
    assert np.array_equal(weights, w2)
    assert np.array_equal(biases, b2)


def test_read_encoding_returns_a_view_of_the_bytes_read(tmp_path):
    # The bytes read are the one buffer: a float32 copy of them doubled the peak.
    values = np.arange(100_000, dtype=np.float32)
    path = tmp_path / "e.vle"
    fileio.write_encoding(values, path)
    assert traced_peak(lambda: fileio.read_encoding(path)) < 1.5 * values.nbytes
    read = fileio.read_encoding(path)
    assert read.dtype == np.float32 and not read.flags.writeable


def test_read_encoding_fills_a_buffer_that_fits_and_only_that(tmp_path):
    path = tmp_path / "e.vle"
    fileio.write_encoding(np.arange(6, dtype=np.float32), path)
    rows = np.zeros((2, 6), np.float32)
    assert fileio.read_encoding(path, rows[1]) is not None
    assert rows.tolist() == [[0.0] * 6, list(range(6))]
    # A buffer of another length, or of another dtype, is left alone: the
    # floats come back in a new read-only array.
    for out in (np.zeros(5, np.float32), np.zeros(6, np.float64)):
        values = fileio.read_encoding(path, out)
        assert values is not out and not out.any()
        assert values.tolist() == list(range(6)) and not values.flags.writeable


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_container_is_read_from_a_pipe_to_its_end(tmp_path):
    """A pipe has no size to read the payload by, unlike a regular file."""
    values = np.arange(3000, dtype=np.float32)  # more bytes than one pipe buffer holds
    fileio.write_encoding(values, tmp_path / "e.vle")
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    data = (tmp_path / "e.vle").read_bytes()
    # A daemon: a writer whose pipe no reader opens must not hold the test run open.
    writer = threading.Thread(target=lambda: pipe.write_bytes(data), daemon=True)
    writer.start()
    try:
        read = fileio.read_encoding(pipe)
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert np.array_equal(read, values) and not read.flags.writeable


# Each writer given a zero-sized array, whose container a reader refuses.
ZERO_SIZED = {
    "feature_map": lambda p: fileio.write_feature_map(FeatureMap(np.zeros((0, 2, 3), "f4")), p),
    "dictionary": lambda p: fileio.write_dictionary(np.zeros((0, 3)), p),
    "whitening": lambda p: fileio.write_whitening(np.zeros(0), np.zeros((0, 0)), p),
    "encoding": lambda p: fileio.write_encoding(np.array([]), p),
    "model": lambda p: fileio.write_model(np.zeros((0, 3)), np.zeros(0), p),
}


@pytest.mark.parametrize("write", ZERO_SIZED.values(), ids=ZERO_SIZED.keys())
def test_writers_refuse_a_zero_sized_array_and_leave_no_file(write, tmp_path):
    path = tmp_path / "c"
    with pytest.raises(VladkitError, match="refusing to write non-positive header"):
        write(path)
    assert not path.exists()


# Each writer given an array of the wrong number of axes, or a model's biases
# of another length than its weights' rows: a header that no reader accepts,
# or no header at all.
WRONG_AXES = {
    "dictionary-1d": lambda p: fileio.write_dictionary(np.ones(3), p),
    "dictionary-3d": lambda p: fileio.write_dictionary(np.ones((2, 2, 2)), p),
    "dictionary-0d": lambda p: fileio.write_dictionary(np.array(1.0), p),
    "model-1d-weights": lambda p: fileio.write_model(np.ones(3), np.ones(1), p),
    "model-3d-weights": lambda p: fileio.write_model(np.ones((2, 2, 2)), np.ones(2), p),
    "model-short-biases": lambda p: fileio.write_model(np.ones((3, 2)), np.ones(2), p),
    "model-2d-biases": lambda p: fileio.write_model(np.ones((3, 2)), np.ones((3, 3)), p),
    "whitening-1d-projection": lambda p: fileio.write_whitening(np.ones(3), np.ones(3), p),
    "whitening-3d-projection":
        lambda p: fileio.write_whitening(np.ones(2), np.ones((1, 2, 2)), p),
}


@pytest.mark.parametrize("write", WRONG_AXES.values(), ids=WRONG_AXES.keys())
def test_writers_refuse_arrays_of_the_wrong_axes_and_leave_no_file(write, tmp_path):
    path = tmp_path / "c"
    with pytest.raises(VladkitError, match=f"refusing to write .*{re.escape(str(path))}"):
        write(path)
    assert not path.exists()


def test_writers_write_from_the_callers_array(tmp_path):
    # tobytes() copied every payload once more, and write_whitening first
    # concatenated its two parts.
    values = np.arange(100_000, dtype=np.float32)
    assert traced_peak(lambda: fileio.write_encoding(values, tmp_path / "e.vle")) < 0.5 * values.nbytes
    rng = np.random.default_rng(4)
    mean, projection = rng.standard_normal(256), rng.standard_normal((200, 256))
    path = tmp_path / "t.vlw"
    payload = 4 * (mean.size + projection.size)
    assert traced_peak(lambda: fileio.write_whitening(mean, projection, path)) < 2.5 * payload
    header = b"VLW1" + struct.pack("<II", 256, 200)
    floats = mean.astype("<f4").tobytes() + projection.astype("<f4").tobytes()
    assert path.read_bytes() == header + floats


def test_manifest_basic(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a.vlf\t0\nb.vlf\t1\n")
    manifest = fileio.load_manifest(path)
    assert manifest.entries == (("a.vlf", 0), ("b.vlf", 1))
    assert manifest.labels().tolist() == [0, 1]


def test_manifest_empty(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("")
    with pytest.raises(VladkitError, match="m.tsv: empty manifest"):
        fileio.load_manifest(path)


def test_manifest_negative_label(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a.vlf\t-1\n")
    with pytest.raises(VladkitError, match="m.tsv:1: label -1 < 0"):
        fileio.load_manifest(path)


def test_manifest_malformed(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a.vlf 0\n")
    with pytest.raises(VladkitError, match="m.tsv:1: expected 'path<TAB>label'"):
        fileio.load_manifest(path)


def test_manifest_save_roundtrip(tmp_path):
    manifest = DatasetManifest((("x.vlf", 0), ("y.vlf", 2)), tmp_path)
    path = tmp_path / "m.tsv"
    fileio.save_manifest(manifest, path)
    assert fileio.load_manifest(path) == manifest


def test_manifest_paths_start_at_its_directory(tmp_path):
    elsewhere = tmp_path / "elsewhere" / "b.vlf"
    path = tmp_path / "sub" / "m.tsv"
    path.parent.mkdir()
    path.write_text(f"a.vlf\t0\n{elsewhere}\t1\n")
    assert fileio.load_manifest(path).paths() == [tmp_path / "sub" / "a.vlf", elsewhere]


def test_manifest_saved_elsewhere_names_the_same_files(tmp_path):
    data = tmp_path / "data"
    manifest = DatasetManifest((("a.vlf", 0), ("sub/b.vlf", 1), (str(tmp_path / "c.vlf"), 1)), data)
    for path in (data / "m.tsv", data / "sub" / "m.tsv", tmp_path / "m.tsv"):
        path.parent.mkdir(parents=True, exist_ok=True)
        fileio.save_manifest(manifest, path)
        saved = fileio.load_manifest(path)
        assert [p.resolve() for p in saved.paths()] == [p.resolve() for p in manifest.paths()]
        assert saved.entries[2][0] == str(tmp_path / "c.vlf")  # an absolute entry stays
    assert fileio.load_manifest(data / "m.tsv") == manifest  # next to its root: unchanged
