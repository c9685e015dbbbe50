"""Spans around calls into holecount, recorded from the benchmark's side.

The program carries no instrumentation of its own. Instead the benchmark
replaces each probed public function, wherever a holecount module binds it,
with a wrapper that records one span per call: name, start, end, parent and
the rise in ``ru_maxrss`` across the call. Spans stay in memory and are
written out once the run ends. A probed name that the package no longer has
marks its layer absent; nothing else changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass

# (layer, module, attribute path). Only names the roadmap keeps public are
# probed, so a refactor behind them does not break the benchmark.
PROBES = (
    ("cli.load_csv", "holecount.cli", "load_cloud_csv"),
    ("cli.compute_report", "holecount.cli", "compute_report"),
    ("cli.to_json", "holecount.cli", "RunReport.to_json"),
    ("delaunay.ingest", "holecount.delaunay", "Cloud.from_points"),
    ("delaunay.triangulate", "holecount.delaunay", "triangulate"),
    ("delaunay.sort", "holecount.delaunay", "edges_sorted_desc"),
    ("forest.births", "holecount.forest", "triangle_births"),
    ("forest.sweep_pairs", "holecount.forest", "sweep_pairs"),
    ("forest.hole_persistence_stats", "holecount.forest", "hole_persistence_stats"),
    ("forest.hole_persistence", "holecount.forest", "hole_persistence"),
    ("diagrams.from_pairs", "holecount.diagrams", "Diagram.from_pairs"),
    ("diagrams.staircase", "holecount.diagrams", "staircase"),
    ("diagrams.probabilities", "holecount.diagrams", "hole_probabilities"),
    ("diagrams.infer", "holecount.diagrams", "infer_hole_count"),
    ("diagrams.bottleneck", "holecount.diagrams", "bottleneck_distance"),
)
ALL_LAYERS = tuple(layer for layer, _, _ in PROBES)

# The checks need the triangulation behind each answer, which no pipeline
# entry point returns, so this probe stays installed in untraced runs too.
# It records nothing and costs one extra Python call per triangulation.
CAPTURED = ("delaunay.triangulate",)


def maxrss_mb() -> float:
    """Peak resident set of this process so far (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    parent: int  # index of the enclosing span, -1 at the top of an operation
    op: int
    start: float
    rss_start_mb: float
    end: float = 0.0
    rss_end_mb: float = 0.0


class Tracer:
    """Installs the probes and keeps the spans of one benchmark run."""

    def __init__(self):
        self.spans: list = []
        self.recording = False
        self.op = -1
        self.captured: dict = {}
        self.absent: list = []
        self._stack: list = []
        self._patches: dict = {}  # layer -> [(owner, attribute, original, probe)]
        for layer, module_name, path in PROBES:
            patches = self._plan(layer, module_name, path)
            if patches:
                self._patches[layer] = patches
            else:
                self.absent.append(layer)

    def _plan(self, layer, module_name, path) -> list:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return []
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                return []
            if isinstance(raw, classmethod):
                probe = classmethod(self._wrap(layer, raw.__func__))
            else:
                probe = self._wrap(layer, raw)
            return [(cls, attr, raw, probe)]
        original = getattr(module, path, None)
        if not callable(original):
            return []
        probe = self._wrap(layer, original)
        # Rebind the name in every holecount module that imported it, so
        # calls between modules pass through the probe as well.
        return [
            (mod, name, original, probe)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == "holecount" or mod_name.startswith("holecount."))
            for name, value in list(vars(mod).items())
            if value is original
        ]

    def _wrap(self, layer, fn):
        @functools.wraps(fn)
        def probe(*args, **kwargs):
            if self.recording:
                result = self._record(layer, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if layer in CAPTURED:
                self.captured[layer] = result
            return result

        return probe

    def _record(self, layer, fn, args, kwargs):
        span = Span(layer, self._stack[-1] if self._stack else -1, self.op,
                    time.perf_counter(), maxrss_mb())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            span.rss_end_mb = maxrss_mb()
            self._stack.pop()

    def install(self, layers) -> None:
        """Put the probes of exactly these layers in place."""
        self.uninstall()
        for layer in layers:
            for owner, attr, _, probe in self._patches.get(layer, ()):
                setattr(owner, attr, probe)

    def uninstall(self) -> None:
        for patches in self._patches.values():
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    def self_times(self) -> dict:
        """layer -> list of per-operation self seconds, over traced operations.

        A span's self time is its duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        per_op: dict = {}
        for span, inner in zip(self.spans, child):
            ops = per_op.setdefault(span.name, {})
            ops[span.op] = ops.get(span.op, 0.0) + (span.end - span.start - inner)
        traced_ops = sorted({span.op for span in self.spans})
        return {
            layer: [per_op.get(layer, {}).get(op, 0.0) for op in traced_ops]
            for layer in ALL_LAYERS
        }

    def rss_rise_mb(self, layer) -> float:
        """Largest rise of the process's peak RSS across one call of a layer."""
        return max((s.rss_end_mb - s.rss_start_mb for s in self.spans if s.name == layer),
                   default=0.0)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans]}, fh)
