"""Seeded generators of noisy samples of known 1-complex shapes.

Shapes are unions of segments: wheels (regular polygon boundary plus all
radii), square lattices, and arbitrary polylines.  Samples place points
uniformly by arc length and perturb each one inside a disk of the given
noise radius, deterministically per seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .delaunay import Cloud
from .diagrams import infer_hole_count
from .forest import hole_persistence


@dataclass(frozen=True)
class SampleQuality:
    """Estimated two-sided Hausdorff bound between a cloud and its shape."""

    epsilon: float


@dataclass(frozen=True)
class ShapeSpec:
    """A planar shape given as a finite union of segments."""

    kind: str
    params: tuple  # kind-specific, hashable

    # -- constructors ------------------------------------------------------

    @classmethod
    def wheel(cls, spokes: int, radius: float = 1.0) -> "ShapeSpec":
        if spokes < 3:
            raise ValueError("a wheel needs at least 3 spokes")
        return cls(kind="wheel", params=(int(spokes), float(radius)))

    @classmethod
    def lattice(cls, rows: int, cols: int, cell: float = 1.0) -> "ShapeSpec":
        if rows < 1 or cols < 1:
            raise ValueError("lattice needs at least one cell")
        return cls(kind="lattice", params=(int(rows), int(cols), float(cell)))

    @classmethod
    def polygon(cls, points, closed: bool = True) -> "ShapeSpec":
        pts = tuple(tuple(float(c) for c in p) for p in points)
        if len(pts) < 2:
            raise ValueError("polygon needs at least 2 points")
        return cls(kind="polygon", params=(pts, bool(closed)))

    # -- geometry ----------------------------------------------------------

    def segments(self) -> np.ndarray:
        """All segments as an (m, 2, 2) array."""
        if self.kind == "wheel":
            spokes, radius = self.params
            angles = 2.0 * np.pi * np.arange(spokes) / spokes
            verts = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
            rim = np.stack([verts, np.roll(verts, -1, axis=0)], axis=1)
            hub = np.stack([np.zeros_like(verts), verts], axis=1)
            return np.concatenate([rim, hub])
        if self.kind == "lattice":
            rows, cols, cell = self.params
            segs = []
            for i in range(rows + 1):
                segs.append([[0.0, i * cell], [cols * cell, i * cell]])
            for j in range(cols + 1):
                segs.append([[j * cell, 0.0], [j * cell, rows * cell]])
            return np.asarray(segs)
        if self.kind == "polygon":
            pts, closed = self.params
            arr = np.asarray(pts)
            if closed:
                return np.stack([arr, np.roll(arr, -1, axis=0)], axis=1)
            return np.stack([arr[:-1], arr[1:]], axis=1)
        raise ValueError(f"unknown shape kind {self.kind!r}")

    def total_length(self) -> float:
        segs = self.segments()
        return float(np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1).sum())

    def true_hole_count(self) -> int:
        if self.kind == "wheel":
            return self.params[0]
        if self.kind == "lattice":
            return self.params[0] * self.params[1]
        # a closed polyline bounds one hole
        return 1 if self.params[1] else 0

    # -- serialization -----------------------------------------------------

    def to_json(self) -> str:
        if self.kind == "wheel":
            payload = {"kind": "wheel", "spokes": self.params[0], "radius": self.params[1]}
        elif self.kind == "lattice":
            payload = {
                "kind": "lattice",
                "rows": self.params[0],
                "cols": self.params[1],
                "cell": self.params[2],
            }
        else:
            payload = {
                "kind": "polygon",
                "points": [list(p) for p in self.params[0]],
                "closed": self.params[1],
            }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "ShapeSpec":
        data = json.loads(text)
        kind = data["kind"]
        if kind == "wheel":
            return cls.wheel(data["spokes"], data.get("radius", 1.0))
        if kind == "lattice":
            return cls.lattice(data["rows"], data["cols"], data.get("cell", 1.0))
        if kind == "polygon":
            return cls.polygon(data["points"], data.get("closed", True))
        raise ValueError(f"unknown shape kind {kind!r}")


def _points_at_arclength(spec: ShapeSpec, positions: np.ndarray) -> np.ndarray:
    segs = spec.segments()
    lengths = np.linalg.norm(segs[:, 1] - segs[:, 0], axis=1)
    cum = np.concatenate(([0.0], np.cumsum(lengths)))
    idx = np.clip(np.searchsorted(cum, positions, side="right") - 1, 0, len(segs) - 1)
    local = (positions - cum[idx]) / lengths[idx]
    return segs[idx, 0] + local[:, None] * (segs[idx, 1] - segs[idx, 0])


def sample_shape(spec: ShapeSpec, n: int, noise: float = 0.0,
                 seed: int = 0) -> Cloud:
    """n points uniform by arc length, each jittered in a disk of the noise
    radius; bit-identical for identical arguments."""
    if n < 3:
        raise ValueError("need at least 3 sample points")
    if noise < 0:
        raise ValueError("noise must be nonnegative")
    with np.errstate(over="ignore"):  # an infinite length is refused below
        length = spec.total_length()
    if not 0.0 < length < np.inf:
        raise ValueError(f"shape length must be finite and positive, got {length}")
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, length, size=n)
    pts = _points_at_arclength(spec, positions)
    if noise > 0:
        radius = noise * np.sqrt(rng.uniform(size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        pts = pts + np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return Cloud.from_points(pts)


def _point_segment_distances(points: np.ndarray, segs: np.ndarray) -> np.ndarray:
    """Min distance from each point to the union of segments."""
    a = segs[:, 0]
    d = segs[:, 1] - segs[:, 0]
    len_sq = (d ** 2).sum(axis=1)
    rel = points[:, None, :] - a[None, :, :]
    t = np.clip((rel * d[None, :, :]).sum(axis=2) / len_sq[None, :], 0.0, 1.0)
    foot = a[None, :, :] + t[:, :, None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - foot, axis=2).min(axis=1)


def epsilon_of_sample(cloud: Cloud, spec: ShapeSpec) -> SampleQuality:
    """Two-sided Hausdorff estimate between the cloud and the shape.

    The shape side is discretized about 10x denser than the mean cloud
    spacing along the shape.
    """
    total = spec.total_length()
    step = total / (10.0 * max(cloud.n, 1))
    dense = _points_at_arclength(
        spec, np.arange(0.0, total, step) + 0.5 * step
    )
    shape_to_cloud = cKDTree(cloud.points).query(dense, k=1)[0].max()
    cloud_to_shape = _point_segment_distances(cloud.points, spec.segments()).max()
    return SampleQuality(epsilon=float(max(shape_to_cloud, cloud_to_shape)))


def shape_feature_sizes(spec: ShapeSpec, dense_n: int = 4000) -> tuple:
    """(minhfs, maxhfs) estimated from a dense noise-free sample.

    For these shapes no new holes appear as the offset grows, so the feature
    sizes are the smallest and largest deaths of the prominent pairs.
    """
    total = spec.total_length()
    positions = (np.arange(dense_n) + 0.5) * (total / dense_n)
    cloud = Cloud.from_points(_points_at_arclength(spec, positions))
    diagram = hole_persistence(cloud)
    k, _ = infer_hole_count(diagram)
    if k == 0:
        return 0.0, 0.0
    pairs = diagram.off_diagonal()
    pers = pairs[:, 1] - pairs[:, 0]
    top = pairs[np.argsort(pers)[::-1][:k]]
    return float(top[:, 1].min()), float(top[:, 1].max())
