"""Delaunay triangulation of a planar cloud with edge/face adjacency.

The compiled incremental builder in ``_fastdel`` triangulates every cloud
with exact predicates, cutting cocircular cells by a symbolic perturbation
keyed on the points' (x, y) order; Qhull (scipy.spatial.Delaunay)
triangulates only where the kernels are not loaded.  On top of it we build
a flat edge table in which every edge knows its two incident faces; hull
edges carry the EXTERNAL sentinel as their second face, so the unbounded
region behaves like one more triangle everywhere downstream.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.spatial import Delaunay as _SciPyDelaunay
from scipy.spatial import QhullError

from . import _fastdel

#: Face id of the unbounded external region.
EXTERNAL = -1

_PACKAGE_PREFIX = os.path.dirname(__file__) + os.sep


def _caller_stacklevel() -> int:
    """The `warnings.warn` stacklevel, for a warning raised in the function
    that calls this one, of the first frame outside this package: the
    user's line, also when the package called that function itself."""
    frame, level = sys._getframe(2), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_PREFIX):
        frame, level = frame.f_back, level + 1
    return level


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
    """An ordered sequence of distinct 2D points.

    `from_points` also keeps, when the compiled kernels ran its duplicate
    scan, the Morton insertion order that scan sorted the points into; the
    builder inserts the points in that order.  With the kernels loaded,
    `triangulate` passes a cloud without one (built as ``Cloud(points=...)``)
    through `from_points` first, with its checks and its duplicate warning.
    The order only affects how fast the builder runs, never the triangles.
    """

    points: np.ndarray  # (n, 2) float64
    # int32 permutation of range(n), read-only; None when not known
    order: Optional[np.ndarray] = field(default=None, init=False, repr=False,
                                        compare=False)

    @classmethod
    def from_points(cls, points) -> "Cloud":
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"expected an (n, 2) array, got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("cloud contains non-finite coordinates")
        found = _fastdel.morton_dedup(pts)
        if found is not None:
            kept, order = found
        else:
            # view rows as complex so the duplicate scan sorts scalars, not
            # a structured array; ordering is lexicographic either way
            _, first = np.unique(pts.view(np.complex128).ravel(), return_index=True)
            kept = np.sort(first) if len(first) < len(pts) else None
            order = None
        if kept is not None:
            n_in, pts = len(pts), pts[kept]
            warnings.warn(f"removed {n_in - len(pts)} duplicate point(s)",
                          DuplicatePointsWarning, stacklevel=_caller_stacklevel())
        cloud = cls(points=pts)
        if order is not None:
            order.flags.writeable = False
            object.__setattr__(cloud, "order", order)
        return cloud

    @property
    def n(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class Triangulation:
    """Delaunay triangulation: the triangles plus a flat edge table, which
    keeps each edge's two faces and squared length but not its endpoints
    (the sweep never reads them)."""

    points: np.ndarray       # (n, 2)
    edge_faces: np.ndarray     # (E, 2) triangle ids; EXTERNAL for hull edges
    edge_length_sq: np.ndarray  # (E,) float64
    triangles: np.ndarray    # (k, 3) vertex indices, CCW, from any vertex

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def num_edges(self) -> int:
        return len(self.edge_faces)

    @property
    def hull_edge_count(self) -> int:
        return int(np.count_nonzero(self.edge_faces[:, 1] == EXTERNAL))

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)


def _qhull_triangles(pts: np.ndarray):
    """Qhull triangulation, CCW-normalized; the path without the kernels."""
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

    return tris, neigh


# An edge longer than about 2**512 squares to inf, one shorter than about
# 2**-537 to 0.  An inf is never a scale: on a grid at 2**1000 every edge ties
# at inf and the diagram would be empty.  A 0 moves its edge's scale by less
# than 2**-538, under an ulp of every scale above 2**-486, so a cloud of
# normal size keeps its diagram when two of its points lie a few subnormals
# apart; only when the longest edge is that short too, as on a grid at
# 2**-1060, is the loss more than rounding.
_LONGEST_SQ_FOR_UNDERFLOW = 2.0 ** -970


def _check_length_range(edge_length_sq: np.ndarray) -> None:
    """Raise ValueError when squared edge lengths left the range of doubles
    in a way that moves the diagram beyond rounding.  A vectorised reduction
    or two cost less than counting in ``hc_edge_table``'s loop."""
    longest = edge_length_sq.max()
    if longest == np.inf or (longest < _LONGEST_SQ_FOR_UNDERFLOW
                             and edge_length_sq.min() == 0.0):
        raise ValueError(
            f"squared edge lengths up to {float(longest)!r} overflow to inf or "
            "underflow to 0: the range of doubles holds the squares of lengths "
            "between about 2**-537 and 2**512 only; scale the cloud by a power "
            "of two")


def triangulate(cloud: Cloud) -> Triangulation:
    """Build the Delaunay triangulation of the cloud.

    With the kernels loaded, the compiled builder triangulates every cloud,
    cocircular and collinear points included, with every point a vertex and
    the same triangles whatever the input order; a cloud without its Morton
    order goes through `Cloud.from_points` first.  Without them Qhull does;
    it may cut cocircular cells by the input order or leave points out, and
    then warns with DroppedPointsWarning.  Raises TooFewPointsError /
    AllCollinearError on degenerate input, and ValueError when a squared
    edge length leaves the range of doubles.
    """
    compiled = _fastdel.KERNELS is not None
    if compiled and cloud.order is None:
        cloud = Cloud.from_points(cloud.points)
    pts = cloud.points
    if len(pts) < 3:
        raise TooFewPointsError(f"need at least 3 distinct points, got {len(pts)}")

    if compiled:
        tris, neigh = _fastdel.build_triangulation(pts, cloud.order)
        if not len(tris):
            raise AllCollinearError("points are collinear: empty triangulation")
        edge_faces, edge_length_sq = _fastdel.edge_table(pts, tris, neigh)
    else:
        tris, neigh = _qhull_triangles(pts)
        # Each triangle contributes the edge opposite each of its vertices;
        # keep one copy per edge (the one seen from the lower face id).
        k = len(tris)
        face_ids = np.repeat(np.arange(k, dtype=np.int32), 3)
        opp = neigh.reshape(-1)  # neighbor across the edge opposite vertex j
        keep = (opp == -1) | (opp > face_ids)
        edge_faces = np.stack([face_ids[keep], opp[keep]], axis=1)

        e0 = tris[:, [1, 2, 0]].reshape(-1)[keep]
        e1 = tris[:, [2, 0, 1]].reshape(-1)[keep]
        with np.errstate(over="ignore", under="ignore"):
            d = pts[e1] - pts[e0]
            edge_length_sq = d[:, 0] ** 2 + d[:, 1] ** 2
    _check_length_range(edge_length_sq)

    return Triangulation(
        points=pts,
        triangles=tris,
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
