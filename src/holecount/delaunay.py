"""Delaunay triangulation of a planar cloud with edge/face adjacency.

The compiled incremental builder in ``_fastdel`` triangulates when it can
certify every predicate; otherwise, and when the kernels are not loaded,
Qhull (scipy.spatial.Delaunay) does.  On top of it we build a flat edge
table in which every edge knows its two incident faces; hull edges carry
the EXTERNAL sentinel as their second face, so the unbounded region behaves
like one more triangle everywhere downstream.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from . import _fastdel

#: Face id of the unbounded external region.
EXTERNAL = -1


class TooFewPointsError(ValueError):
    """Fewer than 3 distinct points: no triangulation exists."""


class AllCollinearError(ValueError):
    """All points lie on one line: no triangulation exists."""


class DuplicatePointsWarning(UserWarning):
    """Duplicate input points were removed before triangulating."""


class DroppedPointsWarning(UserWarning):
    """Qhull left some input points out of the triangulation."""


@dataclass(frozen=True)
class Cloud:
    """An ordered sequence of distinct 2D points."""

    points: np.ndarray  # (n, 2) float64

    @classmethod
    def from_points(cls, points) -> "Cloud":
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("cloud contains non-finite coordinates")
        # view rows as complex so the duplicate scan sorts scalars, not a
        # structured array; ordering is lexicographic either way
        _, first = np.unique(pts.view(np.complex128).ravel(), return_index=True)
        if len(first) < len(pts):
            warnings.warn(
                f"removed {len(pts) - len(first)} duplicate point(s)",
                DuplicatePointsWarning,
                stacklevel=2,
            )
            pts = pts[np.sort(first)]
        return cls(points=pts)

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Triangulation:
    """Delaunay triangulation: the triangles plus a flat edge table."""

    points: np.ndarray       # (n, 2)
    edge_vertices: np.ndarray  # (E, 2) canonical (min, max) endpoint indices
    edge_faces: np.ndarray     # (E, 2) triangle ids; EXTERNAL for hull edges
    edge_length_sq: np.ndarray  # (E,) float64
    triangles: np.ndarray    # (k, 3) vertex indices, CCW, least (x, y) first

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def num_edges(self) -> int:
        return len(self.edge_vertices)

    @property
    def hull_edge_count(self) -> int:
        return int(np.count_nonzero(self.edge_faces[:, 1] == EXTERNAL))

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


def _qhull_triangles(pts: np.ndarray):
    """Qhull triangulation, CCW-normalized; exact fallback path."""
    try:
        dt = _SciPyDelaunay(pts)
    except QhullError as exc:
        raise AllCollinearError("points are collinear or otherwise degenerate") from exc
    if dt.simplices.shape[0] == 0:
        raise AllCollinearError("points are collinear: empty triangulation")
    if len(dt.coplanar):
        warnings.warn(f"Qhull left {len(dt.coplanar)} of {len(pts)} points out "
                      "of the triangulation", DroppedPointsWarning, stacklevel=3)

    tris = dt.simplices.astype(np.int32, copy=True)
    neigh = dt.neighbors.astype(np.int32, copy=True)

    # Normalize triangles to CCW; swap the last two vertices (and the
    # corresponding neighbor slots) where the signed area is negative.
    a, b, c = pts[tris[:, 0]], pts[tris[:, 1]], pts[tris[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    flip = cross < 0
    tris[flip, 1], tris[flip, 2] = tris[flip, 2], tris[flip, 1].copy()
    neigh[flip, 1], neigh[flip, 2] = neigh[flip, 2], neigh[flip, 1].copy()

    # Rotate each triangle (and its neighbor slots) to put its
    # lexicographically smallest point first, as the incremental builder
    # does: births then round identically whichever path built the triangle
    # and in whatever order the points came.
    rank = np.empty(len(pts), dtype=np.int64)
    rank[np.lexsort((pts[:, 1], pts[:, 0]))] = np.arange(len(pts))
    turn = (np.argmin(rank[tris], axis=1)[:, None] + np.arange(3)) % 3
    return np.take_along_axis(tris, turn, axis=1), np.take_along_axis(neigh, turn, axis=1)


def triangulate(cloud: Cloud) -> Triangulation:
    """Build the Delaunay triangulation of the cloud.

    The incremental builder handles the common case; inputs with degenerate
    or near-degenerate predicates (exactly cocircular points, points on a
    shared line) fall back to Qhull.  Qhull may leave points out, and then
    warns with DroppedPointsWarning.  Raises TooFewPointsError /
    AllCollinearError on degenerate input.
    """
    pts = cloud.points
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 distinct points, got {len(pts)}")
    tris, neigh = _fastdel.build_triangulation(pts) or _qhull_triangles(pts)

    if _fastdel.KERNELS is not None:
        edge_vertices, edge_faces = _fastdel.edge_table(tris, neigh)
        # Free the neighbors before the lengths: the triangles, neighbors
        # and full edge table together are the pipeline's memory peak.
        del neigh
        edge_length_sq = _fastdel.edge_lengths(pts, edge_vertices)
    else:
        # Each triangle contributes the edge opposite each of its vertices;
        # keep one copy per edge (the one seen from the lower face id).
        k = len(tris)
        face_ids = np.repeat(np.arange(k, dtype=np.int32), 3)
        opp = neigh.reshape(-1)  # neighbor across the edge opposite vertex j
        e0 = tris[:, [1, 2, 0]].reshape(-1)
        e1 = tris[:, [2, 0, 1]].reshape(-1)
        keep = (opp == -1) | (opp > face_ids)

        v0, v1 = e0[keep], e1[keep]
        lo = np.minimum(v0, v1)
        hi = np.maximum(v0, v1)
        edge_vertices = np.stack([lo, hi], axis=1)
        edge_faces = np.stack([face_ids[keep], opp[keep]], axis=1)

        d = pts[hi] - pts[lo]
        edge_length_sq = d[:, 0] ** 2 + d[:, 1] ** 2

    return Triangulation(
        points=pts,
        triangles=tris,
        edge_vertices=edge_vertices,
        edge_faces=edge_faces,
        edge_length_sq=edge_length_sq,
    )


def edges_sorted_desc(edge_length_sq: np.ndarray) -> np.ndarray:
    """Edge ids by squared length descending, as a C-contiguous int32 array
    that the compiled sweep takes without a copy; ties come out in an
    unspecified but deterministic order.

    Tie order cannot move a pair with death > birth: a gray (non-acute)
    triangle meets at most one edge of a tied run, as two equal longest
    edges make a triangle acute, so the run's other events are white merges,
    and the elder rule kills the same births in any order.  Only
    zero-persistence pairs can differ, and the sweep drops those.
    """
    m = len(edge_length_sq)
    if m >= 2 ** 31:
        raise ValueError(f"{m} edges do not fit int32 edge ids")
    # a reversed ascending sort needs no negated copy of the lengths
    return np.argsort(edge_length_sq)[::-1].astype(np.int32)
