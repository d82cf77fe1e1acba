"""Binary containers and dataset manifests.

All containers share the same layout idea: 4-byte ASCII magic, little-endian
u32 header fields, then a little-endian float32 payload. One container per
file. The five magics are

    VLF1  feature map      (H, W, D, then H*W*D floats, row-major)
    VLD1  dictionary       (M, D, then M*D floats)
    VLW1  whitening        (D_in, D_out, D_in mean floats, D_out*D_in floats)
    VLE1  encoding         (length, then floats)
    VLM1  linear model     (C, dim, then C*(dim+1) floats, weights then bias)

A reader reads the header, then the payload straight into a float32 array,
with no file object or bytes buffer in between: a new array, made read-only,
or the caller's own (`read_encoding(path, out)`). A writer writes from the
caller's arrays. Readers and writers apply one rule set, so no writer writes
a container that a reader refuses. `pipeline`'s `load_*` helpers widen to
float64.

Manifests are UTF-8 text, one "path<TAB>label" per line, LF endings. A
relative path is read from the directory of the manifest file.
"""

from __future__ import annotations

import errno
import math
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import VladkitError

# The largest label L whose (C, C) int64 confusion matrix, C = L + 1, NumPy can
# index: (L + 1)^2 * 8 <= intp max. It also keeps C within a `.vlm` header's u32.
_MAX_LABEL = math.isqrt(np.iinfo(np.intp).max // 8) - 1


@dataclass(frozen=True)
class FeatureMap:
    """An H x W grid of D-dimensional local descriptors."""

    data: np.ndarray  # (H, W, D) float32

    def __post_init__(self):
        if self.data.ndim != 3:
            raise VladkitError("feature map data must be H x W x D")
        if not np.isfinite(self.data).all():
            raise VladkitError("feature map contains NaN/Inf")

    @property
    def height(self) -> int:
        return self.data.shape[0]

    @property
    def width(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]

    def descriptors(self) -> np.ndarray:
        """Row-major flattening to an (H*W, D) matrix."""
        return self.data.reshape(-1, self.dim)


@dataclass(frozen=True)
class DatasetManifest:
    entries: tuple[tuple[str, int], ...]
    root: Path = field(default=Path("."), compare=False)  # relative entries start here

    def paths(self) -> list[Path]:
        """Each entry's feature-map file; an absolute entry stays as it is."""
        return [self.root / rel for rel, _ in self.entries]

    def labels(self) -> np.ndarray:
        """Each entry's label, in manifest order."""
        return np.array([label for _, label in self.entries], dtype=int)


def _read_container(path, magic: bytes, n_header: int, size, out=None):
    """Return (header ints, float32 payload) once every container rule holds:
    the magic, a whole header, whole floats, every header field at least 1,
    and a payload of exactly size(*header) floats, each finite. The payload
    is read straight into out when out is a float32 array of that many
    floats, and into a new read-only array otherwise."""
    start = 4 + 4 * n_header
    fd = os.open(path, os.O_RDONLY)  # not Path(path): Path("") is "." and hides the name given
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):  # which open() refuses by name, and os.open opens
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        # A pipe or device has no size, and one read stops at 2 GiB: such a file is read whole.
        whole = not stat.S_ISREG(info.st_mode) or info.st_size > 1 << 30
        data = b"".join(iter(lambda: os.read(fd, 1 << 20), b"")) if whole else os.read(fd, start)
        length = len(data) if whole else info.st_size
        if data[:4] != magic:
            raise VladkitError(f"{path}: expected magic {magic!r}, got {data[:4]!r}")
        if len(data) < start:
            raise VladkitError(f"{path}: header needs {start} bytes, file has {length}")
        if (length - start) % 4 != 0:
            raise VladkitError(f"{path}: payload not a whole number of floats")
        header = struct.unpack_from(f"<{n_header}I", data, 4)
        if min(header) < 1:
            raise VladkitError(f"{path}: non-positive header {'x'.join(map(str, header))}")
        n = size(*header)
        if (length - start) // 4 != n:
            raise VladkitError(f"{path}: expected {n} floats, found {(length - start) // 4}")
        fits = out is not None and out.dtype == "<f4" and out.size == n
        floats = out if fits else np.empty(n, "<f4")
        if whole:
            floats[:] = np.frombuffer(data, "<f4", offset=start)
        elif os.readv(fd, [floats]) != floats.nbytes:
            raise VladkitError(f"{path}: file shrank while read")
    finally:
        os.close(fd)
    if not np.isfinite(floats).all():
        raise VladkitError(f"{path}: payload contains NaN/Inf")
    if not fits:
        floats.flags.writeable = False
    return header, floats


def _write_container(path, magic: bytes, header: list[int], *parts: np.ndarray):
    """Write the magic and u32 header, then each part's floats in order. A
    part is written from its own buffer: a little-endian float32 array
    without a copy, anything else after one conversion. Nothing is written
    if a header field is below 1 or any part holds a NaN or Inf, the
    containers that _read_container refuses."""
    if min(header) < 1:
        raise VladkitError(
            f"refusing to write non-positive header {'x'.join(map(str, header))} to {path}")
    parts = [np.ascontiguousarray(part, dtype="<f4") for part in parts]
    if not all(np.isfinite(part).all() for part in parts):
        raise VladkitError(f"refusing to write non-finite payload to {path}")
    with open(path, "wb") as f:
        f.write(struct.pack(f"<4s{len(header)}I", magic, *header))
        for part in parts:
            f.write(part)


def _axes(path, name: str, array, ndim: int) -> np.ndarray:
    """array as an ndarray, refused unless it has ndim axes: the writers'
    headers are their arrays' shapes."""
    array = np.asarray(array)
    if array.ndim != ndim:
        raise VladkitError(
            f"refusing to write {name} of shape {array.shape} to {path}: expected {ndim} axes")
    return array


# -- feature maps ------------------------------------------------------------

def read_feature_map(path) -> FeatureMap:
    (h, w, d), floats = _read_container(path, b"VLF1", 3, lambda h, w, d: h * w * d)
    return FeatureMap(floats.reshape(h, w, d))


def write_feature_map(fmap: FeatureMap, path) -> None:
    _write_container(path, b"VLF1", [fmap.height, fmap.width, fmap.dim], fmap.data)


# -- dictionaries ------------------------------------------------------------

def read_dictionary(path) -> np.ndarray:
    """Returns the (M, D) centers matrix."""
    (m, d), floats = _read_container(path, b"VLD1", 2, lambda m, d: m * d)
    return floats.reshape(m, d)


def write_dictionary(centers: np.ndarray, path) -> None:
    centers = _axes(path, "centers", centers, 2)
    _write_container(path, b"VLD1", list(centers.shape), centers)


# -- whitening transforms ----------------------------------------------------

def read_whitening(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (mean, projection) with projection shaped (D_out, D_in)."""
    (d_in, d_out), floats = _read_container(path, b"VLW1", 2, lambda i, o: i + o * i)
    if d_out > d_in:
        raise VladkitError(f"{path}: bad whitening dims {d_in}->{d_out}")
    return floats[:d_in], floats[d_in:].reshape(d_out, d_in)


def write_whitening(mean: np.ndarray, projection: np.ndarray, path) -> None:
    mean = _axes(path, "mean", mean, 1)
    projection = _axes(path, "projection", projection, 2)
    d_out, d_in = projection.shape
    if len(mean) != d_in:
        raise VladkitError(f"refusing to write {path}: mean length {len(mean)} "
                           f"does not match projection D_in {d_in}")
    _write_container(path, b"VLW1", [d_in, d_out], mean, projection)


# -- encodings ---------------------------------------------------------------

def read_encoding(path, out=None) -> np.ndarray:
    """The encoding's floats: in out when out fits them, else in a new array."""
    return _read_container(path, b"VLE1", 1, lambda n: n, out)[1]


def write_encoding(values: np.ndarray, path) -> None:
    values = np.asarray(values)
    _write_container(path, b"VLE1", [values.size], values)


# -- linear models -----------------------------------------------------------

def read_model(path) -> tuple[np.ndarray, np.ndarray]:
    """Returns (weights, biases) with weights shaped (C, dim)."""
    (c, dim), floats = _read_container(path, b"VLM1", 2, lambda c, dim: c * (dim + 1))
    rows = floats.reshape(c, dim + 1)
    return rows[:, :dim], rows[:, dim]


def write_model(weights: np.ndarray, biases: np.ndarray, path) -> None:
    weights = _axes(path, "weights", weights, 2)
    biases = _axes(path, "biases", biases, 1)
    if len(biases) != len(weights):
        raise VladkitError(
            f"refusing to write {path}: {len(biases)} biases for {len(weights)} rows of weights")
    rows = np.hstack([weights, biases[:, None]])
    _write_container(path, b"VLM1", list(weights.shape), rows)


# -- manifests ---------------------------------------------------------------

def nonempty(path):
    """path itself, refusing "": Path("") is ".", a directory the user never
    named. It builds no Path, so a hot caller such as `vladkit encode` pays
    for the check alone."""
    if not str(path):
        raise VladkitError("empty path '' names no file")
    return path


def read_text(path) -> str:
    """A UTF-8 text file's contents, with universal newlines."""
    try:
        return Path(nonempty(path)).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise VladkitError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def load_manifest(path) -> DatasetManifest:
    text = read_text(path)
    path = Path(path)
    entries = []
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise VladkitError(f"{path}:{lineno}: expected 'path<TAB>label'")
        rel, label_text = parts
        if "\0" in rel:
            raise VladkitError(f"{path}:{lineno}: NUL byte in path {rel!r}")
        try:
            label = int(label_text)
        except ValueError:
            raise VladkitError(f"{path}:{lineno}: bad label {label_text!r}")
        if label < 0:
            raise VladkitError(f"{path}:{lineno}: label {label} < 0")
        if label > _MAX_LABEL:
            raise VladkitError(f"{path}:{lineno}: label {label} too large to index")
        entries.append((rel, label))
    if not entries:
        raise VladkitError(f"{path}: empty manifest")
    return DatasetManifest(tuple(entries), path.parent)


def save_manifest(manifest: DatasetManifest, path) -> None:
    """Writes each relative entry relative to path's own directory, so the
    saved manifest names the same files as manifest.paths()."""
    root = manifest.root.resolve()
    try:
        prefix = os.path.relpath(root, Path(path).parent.resolve())
    except ValueError:  # another drive: no relative path exists
        prefix = str(root)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for rel, label in manifest.entries:
            if prefix != ".":  # an absolute entry stays as it is
                rel = os.path.join(prefix, rel)
            f.write(f"{rel}\t{label}\n")
