"""Span tracer for the traced benchmark run.

While installed, it replaces the module attributes through which vladkit
looks up its layer functions with timing wrappers, and puts the originals
back afterwards. Every call becomes a span (id, parent, name, start, end,
pass id, counters) kept in memory. Spans are named `<layer>.<function>`;
`layer_metrics` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


def _nbytes(value) -> int:
    """Bytes of the arrays in a fileio argument or result, computed from
    their sizes: an array, a FeatureMap (via .data), or a tuple of arrays."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    data = getattr(value, "data", None)
    return data.nbytes if isinstance(data, np.ndarray) else 0


def _read(args, kwargs, result):
    return {"bytes": _nbytes(result), "path": str(args[0])}


def _write(args, kwargs, result):
    return {"bytes": sum(_nbytes(a) for a in args[:-1]), "path": str(args[-1])}


def _descriptors(args, kwargs, result):
    fmap = args[0]
    return {"descriptors": fmap.height * fmap.width}


def _weights(args, kwargs, result):
    return {"rows": result.shape[0], "nonzeros": int(np.count_nonzero(result))}


def _rows(args, kwargs, result):
    return {"rows": result.shape[0]}


def _regions(args, kwargs, result):
    return {"regions": args[4].total_regions}


def _kmeans(args, kwargs, result):
    n, d = args[0].shape
    iterations = result[1].iterations
    return {"iterations": iterations, "distance_ops": 3 * n * args[1] * d * iterations}


def _updates(args, kwargs, result):
    return {"updates": args[0].shape[0] * args[2].epochs * result.num_classes}


def _hash_bytes(args, kwargs, result):
    return {"bytes": len(args[0])}


# (module, attribute, span name, counter). Span names are `<layer>.<function>`.
PATCHES = [
    ("vladkit.pipeline", "fit_whitening", "whitening.fit_whitening", None),
    ("vladkit.pipeline", "kmeans_train", "codebook.kmeans_train", _kmeans),
    ("vladkit.pipeline", "encode_entry", "pipeline.encode_entry", _descriptors),
    ("vladkit.pipeline", "encode", "vlad.encode", None),
    ("vladkit.pipeline", "encode_spm", "spm.encode_spm", _regions),
    ("vladkit.pipeline", "train_ovr", "classifier.train_ovr", _updates),
    ("vladkit.pipeline", "predict", "classifier.predict", None),
    ("vladkit.pipeline", "read_feature_map", "fileio.read_feature_map", _read),
    ("vladkit.pipeline", "fnv1a64", "pipeline.fnv1a64", _hash_bytes),
    ("vladkit.vlad", "weight_matrix", "assignment.weight_matrix", _weights),
    ("vladkit.vlad", "vlad_aggregate", "vlad.vlad_aggregate", None),
    ("vladkit.vlad", "vlad_normalize", "vlad.vlad_normalize", None),
    ("vladkit.vlad", "apply_whitening_batch", "whitening.apply_whitening_batch", _rows),
    ("vladkit.spm", "encode_descriptors", "spm.encode_descriptors", None),
    ("vladkit.spm", "apply_whitening_batch", "whitening.apply_whitening_batch", _rows),
    # run_pipeline imports this one at call time to whiten the k-means sample;
    # no counter, so its rows stay out of whitening.rows_per_descriptor.
    ("vladkit.whitening", "apply_whitening_batch", "whitening.apply_whitening_batch", None),
    # The `vladkit encode` command reaches the same layers through cli's own names.
    ("vladkit.cli", "encode_entry", "pipeline.encode_entry", _descriptors),
    ("vladkit.cli", "read_feature_map", "fileio.read_feature_map", _read),
] + [
    ("vladkit.fileio", attr, f"fileio.{attr}", _read if attr.startswith("read_") else _write)
    for attr in (
        f"{verb}_{kind}"
        for kind in ("feature_map", "dictionary", "whitening", "encoding", "model")
        for verb in ("read", "write")
    )
]

# Self time of each span name goes to one per-layer time metric. The harness
# opens the pass roots and the run_pipeline / cli.main spans itself.
SELF_TIME = {
    "assignment.weight_matrix": "assignment.s",
    "spm.encode_spm": "spm.encode_s",
    "spm.encode_descriptors": "spm.encode_s",
    "whitening.fit_whitening": "whitening.fit_s",
    "whitening.apply_whitening_batch": "whitening.apply_s",
    "vlad.vlad_aggregate": "vlad.aggregate_s",
    "vlad.encode": "vlad.aggregate_s",
    "vlad.vlad_normalize": "vlad.normalize_s",
    "codebook.kmeans_train": "codebook.kmeans_s",
    "classifier.train_ovr": "classifier.train_s",
    "classifier.predict": "classifier.predict_s",
    "pipeline.run_pipeline": "pipeline.self_s",
    "pipeline.encode_entry": "pipeline.self_s",
    "pipeline.fnv1a64": "pipeline.hash_s",
    "cli.main": "cli.self_s",
}

_ARTIFACT_KINDS = ("whitening", "dictionary", "encoding", "model")

# name -> unit for every metric layer_metrics returns.
LAYER_UNITS = {
    "assignment.s": "s",
    "assignment.rows": "count",
    "assignment.rows_per_descriptor": "row/descriptor",
    "assignment.support_mean": "nonzero/row",
    "spm.encode_s": "s",
    "spm.regions": "count",
    "spm.empty_regions": "count",
    "whitening.fit_s": "s",
    "whitening.apply_s": "s",
    "whitening.rows_per_descriptor": "row/descriptor",
    "vlad.aggregate_s": "s",
    "vlad.normalize_s": "s",
    "codebook.kmeans_s": "s",
    "codebook.kmeans_runs": "count",
    "codebook.iterations": "count",
    "codebook.distance_ops": "ops-computed",
    "classifier.train_s": "s",
    "classifier.updates": "count",
    "classifier.predict_s": "s",
    "classifier.predict_calls": "count",
    "fileio.read_s": "s",
    "fileio.write_s": "s",
    "fileio.calls": "count",
    "fileio.bytes_read": "B-computed",
    "fileio.bytes_written": "B-computed",
    "pipeline.self_s": "s",
    "pipeline.hash_s": "s",
    "pipeline.hash_bytes": "B",
    "pipeline.cache_hits": "count",
    "pipeline.cache_misses": "count",
    "cli.self_s": "s",
}


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    pass_id: str | None
    counters: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._pass_id: str | None = None
        self.active = False

    def _open(self) -> tuple[int, int | None]:
        parent = self._stack[-1] if self._stack else None
        span_id = len(self.spans)
        self.spans.append(None)
        self._stack.append(span_id)
        return span_id, parent

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            span_id, parent = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
            # Counted after the span ends; a call that raised leaves no span.
            counters = counter(args, kwargs, result) if counter else None
            self.spans[span_id] = Span(span_id, parent, name, start, end, self._pass_id, counters)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every PATCHES attribute for a timing wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name, counter in PATCHES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            self.active = True
            yield self
        finally:
            self.active = False
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    @contextmanager
    def span(self, name: str, pass_id: str | None = None):
        """A span opened by the harness; with pass_id it is a pass root.
        Does nothing unless the tracer is installed."""
        if not self.active:
            yield
            return
        if pass_id is not None:
            self._pass_id = pass_id
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[span_id] = Span(span_id, parent, name, start, end, self._pass_id, None)
            if pass_id is not None:
                self._pass_id = None

    def passes(self, prefix: str) -> dict[str, list[Span]]:
        """Finished spans grouped by pass id, for pass ids starting with prefix."""
        grouped = defaultdict(list)
        for span in self.spans:
            if span is not None and span.pass_id and span.pass_id.startswith(prefix):
                grouped[span.pass_id].append(span)
        return dict(grouped)

    def write(self, path) -> None:
        """Spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps({
                        "id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                        "end": s.end, "pass": s.pass_id, "counters": s.counters,
                    }, separators=(",", ":")) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def _counter_sum(spans, name, key) -> float:
    return sum(s.counters[key] for s in spans if s.name == name and s.counters)


def _cache_counts(spans: list[Span]) -> tuple[int, int]:
    """A hit is a read of a transform, dictionary, encoding or model inside
    run_pipeline; a miss is the write of one. Reading back a file written in
    the same run_pipeline call is neither."""
    by_id = {s.id: s for s in spans}
    hits = misses = 0
    written: dict[int, set[str]] = defaultdict(set)
    for s in spans:  # in start order
        verb, _, kind = s.name.removeprefix("fileio.").partition("_")
        if not s.name.startswith("fileio.") or kind not in _ARTIFACT_KINDS or not s.counters:
            continue
        ancestor = by_id.get(s.parent)
        while ancestor is not None and ancestor.name != "pipeline.run_pipeline":
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            continue
        if verb == "write":
            misses += 1
            written[ancestor.id].add(s.counters["path"])
        elif s.counters["path"] not in written[ancestor.id]:
            hits += 1
    return hits, misses


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every LAYER_UNITS metric over the spans of one pass."""
    out = dict.fromkeys(LAYER_UNITS, 0.0)
    self_s = self_times(spans)
    for s in spans:
        metric = SELF_TIME.get(s.name)
        if metric is None and s.name.startswith("fileio."):
            metric = "fileio.read_s" if s.name.startswith("fileio.read_") else "fileio.write_s"
        if metric is not None:
            out[metric] += self_s[s.id]

    def count(name):
        return sum(1 for s in spans if s.name == name)

    descriptors = _counter_sum(spans, "pipeline.encode_entry", "descriptors")
    rows = _counter_sum(spans, "assignment.weight_matrix", "rows")
    regions = _counter_sum(spans, "spm.encode_spm", "regions")
    fileio = [s for s in spans if s.name.startswith("fileio.")]
    out.update({
        "assignment.rows": rows,
        "assignment.rows_per_descriptor": rows / descriptors if descriptors else 0.0,
        "assignment.support_mean":
            _counter_sum(spans, "assignment.weight_matrix", "nonzeros") / rows if rows else 0.0,
        "spm.regions": regions,
        "spm.empty_regions": regions - count("spm.encode_descriptors"),
        "whitening.rows_per_descriptor":
            _counter_sum(spans, "whitening.apply_whitening_batch", "rows") / descriptors
            if descriptors else 0.0,
        "codebook.kmeans_runs": count("codebook.kmeans_train"),
        "codebook.iterations": _counter_sum(spans, "codebook.kmeans_train", "iterations"),
        "codebook.distance_ops": _counter_sum(spans, "codebook.kmeans_train", "distance_ops"),
        "classifier.updates": _counter_sum(spans, "classifier.train_ovr", "updates"),
        "classifier.predict_calls": count("classifier.predict"),
        "fileio.calls": len(fileio),
        "fileio.bytes_read": sum(s.counters["bytes"] for s in fileio
                                 if s.counters and ".read_" in s.name),
        "fileio.bytes_written": sum(s.counters["bytes"] for s in fileio
                                    if s.counters and ".write_" in s.name),
        "pipeline.hash_bytes": _counter_sum(spans, "pipeline.fnv1a64", "bytes"),
    })
    out["pipeline.cache_hits"], out["pipeline.cache_misses"] = _cache_counts(spans)
    return out
