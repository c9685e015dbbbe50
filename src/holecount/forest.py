"""Descending-scale sweep over sorted Delaunay edges.

One union-find node per triangle plus one for the external region.  Edges are
processed from longest to shortest; at each edge the two dual nodes are
classified as gray (still covered, birth time 0) or white (already part of a
hole region), and one of four cases applies.  Case 4 — two white regions
merging — emits a (birth, death) pair for the younger region, with birth and
death swapped into the ascending-offset convention, unless the younger region
was born at this very scale.  Such zero-persistence pairs are dropped: they are
the only pairs that the order of equally long edges can change (see
`edges_sorted_desc`), so no tie order can change the diagram.

Union is strictly by weight and find_root does no path compression, which
keeps every parent chain logarithmic in the tree size.

The sweep exists twice: ``hc_sweep`` in the compiled kernels, which
`sweep_pairs` runs when they are loaded, and the `DualForest` reference
driven by `iter_events`, which runs otherwise and backs the event traces.
Both give identical pairs and root walks.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _fastdel
from .delaunay import Cloud, Triangulation, edges_sorted_desc, triangulate
from .diagrams import Diagram

log = logging.getLogger(__name__)

CASE_SAME_REGION = 1
CASE_GRAY_JOINS_WHITE = 2
CASE_TWO_GRAY = 3
CASE_WHITE_MERGE = 4

# Tolerance band inside which acuteness is re-decided exactly.
_ACUTE_BAND = 1e-12


@dataclass(frozen=True)
class SweepEvent:
    """Outcome of processing one edge."""

    case: int
    alpha: float
    pair: Optional[tuple] = None  # (birth, death), Case 4 with death > birth


class DualForest:
    """Union-find over triangle-dual nodes, plus the external node.

    Nodes 0..k-1 are the triangles; node k is the unbounded region with
    birth +inf.  Each node stores a parent id (self if root), the number of
    nodes below it in its tree, and its birth scale (0 while gray).
    """

    __slots__ = ("parent", "weight", "birth", "links", "num_triangles", "max_find_steps")

    def __init__(self, births: np.ndarray):
        k = len(births)
        self.num_triangles = k
        self.parent = list(range(k + 1))
        self.weight = [0] * (k + 1)
        self.birth = births.tolist() + [math.inf]
        self.links = 0
        self.max_find_steps = 0

    @property
    def external(self) -> int:
        return self.num_triangles

    def find_root(self, node: int) -> int:
        """Walk parent links to the root; no path compression."""
        steps = 0
        parent = self.parent
        while parent[node] != node:
            node = parent[node]
            steps += 1
        if steps > self.max_find_steps:
            self.max_find_steps = steps
        return node

    def link_gray_to_white(self, u: int, rootv: int) -> None:
        """Case 2: attach the gray singleton u below the white root."""
        assert self.parent[u] == u and self.birth[u] == 0.0
        assert self.parent[rootv] == rootv and self.birth[rootv] > 0.0
        self.parent[u] = rootv
        self.birth[u] = self.birth[rootv]
        self.weight[rootv] += 1
        self.links += 1

    def link_two_gray(self, u: int, v: int, alpha: float) -> None:
        """Case 3: two gray singletons form a new white component born now."""
        assert self.parent[u] == u and self.birth[u] == 0.0
        assert self.parent[v] == v and self.birth[v] == 0.0
        self.parent[v] = u
        self.birth[u] = alpha
        self.birth[v] = alpha
        self.weight[u] = 1
        self.links += 1

    def merge_white(self, rootu: int, rootv: int, alpha: float) -> Optional[tuple]:
        """Case 4: merge two white regions; the younger one dies.

        Returns the emitted (birth, death) pair in ascending-offset
        convention: the hole is born when the current edge enters the offset
        and dies at the younger region's birth scale.  Returns None instead
        when the younger region was born at alpha itself.
        """
        assert rootu != rootv
        bu, bv = self.birth[rootu], self.birth[rootv]
        assert bu > 0.0 and bv > 0.0
        younger = min(bu, bv)
        pair = (alpha, younger) if younger > alpha else None
        if self.weight[rootu] > self.weight[rootv]:
            parent, child = rootu, rootv
        else:
            parent, child = rootv, rootu
        self.parent[child] = parent
        self.weight[parent] += self.weight[child] + 1
        self.birth[parent] = max(bu, bv)  # elder rule: older birth survives
        self.links += 1
        return pair


def triangle_births(tri: Triangulation) -> np.ndarray:
    """Birth scale per triangle: circumradius if acute, else 0.

    Right triangles count as non-acute; their circumcenter lies on the
    hypotenuse, so they enter a hole region exactly when that edge leaves
    the complex and need no value of their own.

    A floating-point pass decides every triangle outside a relative band
    around a right angle; `_decide_borderline` decides the rest.  With the
    kernels loaded, ``hc_births`` already decides the band rows that
    `acute_exact` would decide in int64, and only the others reach
    `_decide_borderline`.  The DEBUG line counts the band rows decided in
    int64 and in Python ints, the same pair on both backends.
    """
    pts = tri.points
    decided = 0
    compiled = _fastdel.triangle_births(pts, tri.triangles, _ACUTE_BAND)
    if compiled is not None:
        births, decided = compiled
        borderline = np.flatnonzero(np.isnan(births))
    else:
        a, b, c = (pts[tri.triangles[:, j]] for j in range(3))
        ab, bc, ca = _side_lengths_sq(a, b, c)
        total = ab + bc + ca
        gap = total - 2.0 * np.maximum(ab, np.maximum(bc, ca))
        acute = gap > _ACUTE_BAND * total
        borderline = np.flatnonzero(np.abs(gap) <= _ACUTE_BAND * total)
        births = np.zeros(len(tri.triangles))
        births[acute] = _clamped_circumradius(a[acute], b[acute], c[acute],
                                              ab[acute], bc[acute], ca[acute])

    wide = _decide_borderline(pts, tri.triangles, borderline, births)
    log.debug("births: %d borderline triangles decided in int64, "
              "%d in Python ints", decided + len(borderline) - wide, wide)
    return births


def _decide_borderline(pts: np.ndarray, triangles: np.ndarray,
                       borderline: np.ndarray, births: np.ndarray) -> int:
    """Write the births of the borderline triangles, decided by
    `acute_exact` and computed in one vectorised pass; returns how many of
    them were decided in Python ints."""
    if not len(borderline):
        return 0
    a, b, c = (pts[triangles[borderline, j]] for j in range(3))
    acute, wide = acute_exact(a, b, c)
    births[borderline] = 0.0
    a, b, c = a[acute], b[acute], c[acute]
    births[borderline[acute]] = _clamped_circumradius(a, b, c,
                                                      *_side_lengths_sq(a, b, c))
    return wide


def acute_exact(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """(acute, wide) for the rows of the (n, 2) vertex arrays a, b and c:
    True where a row forms a strictly acute triangle, decided exactly, and
    the number of rows decided in Python ints.

    Each row is written as integers times one power of two.  Where its six
    doubles scaled by 2**(30 - E), E the `np.frexp` exponent of its largest
    magnitude, are integers that scale back exactly, they lie below 2**30
    and the dot products fit int64.  Any other row takes each 53-bit
    mantissa as a Python int, shifted left by its exponent above the
    smallest one of its row.  A row is acute iff its three vertex dot
    products are positive, so a right or collinear row is not.
    """
    rows = np.concatenate((a, b, c), axis=1)
    # E from the largest magnitude, not the largest exponent: frexp(0) has
    # exponent 0, above that of any value below 1/2
    _, top = np.frexp(np.abs(rows).max(axis=1, keepdims=True))
    scaled = np.ldexp(rows, 30 - top)
    narrow = ((scaled == np.floor(scaled))
              & (np.ldexp(scaled, top - 30) == rows)).all(axis=1)
    acute = np.empty(len(rows), dtype=bool)
    acute[narrow] = _dots_positive(scaled[narrow].astype(np.int64))
    mant, exp = np.frexp(rows[~narrow])
    exp = exp - exp.min(axis=1, keepdims=True)
    ints = np.ldexp(mant, 53).astype(np.int64).astype(object) << exp.astype(object)
    acute[~narrow] = _dots_positive(ints)
    return acute, len(ints)


def _dots_positive(ints: np.ndarray) -> np.ndarray:
    """True for the rows (ax, ay, bx, by, cx, cy) of int64 or Python-int
    coordinates whose three vertex dot products are all positive."""
    ax, ay, bx, by, cx, cy = ints.T
    ux, uy, vx, vy, wx, wy = bx - ax, by - ay, cx - bx, cy - by, ax - cx, ay - cy
    # the dot products at a, b and c are -(u·w), -(v·u) and -(w·v)
    return ((ux * wx + uy * wy < 0) & (vx * ux + vy * uy < 0)
            & (wx * vx + wy * vy < 0)).astype(bool)


def _side_lengths_sq(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """Squared lengths |ab|², |bc|², |ca|² of the triangles whose vertices
    are the rows of a, b and c."""
    return (((b - a) ** 2).sum(axis=1), ((c - b) ** 2).sum(axis=1),
            ((a - c) ** 2).sum(axis=1))


def _clamped_circumradius(a, b, c, ab, bc, ca) -> np.ndarray:
    """max(circumradius, half the longest edge) of each triangle from its
    point set alone, rounded as ``clamped_circumradius`` in ``_kernels.c``
    rounds it; its comment gives the formula and the error bound."""
    longest = np.maximum(ab, np.maximum(bc, ca))
    with np.errstate(all="ignore"):  # unused products may overflow
        cross = np.nan  # fmax skips it, and the vertices not opposite a longest side
        for p, q, r, opposite in ((a, b, c, bc), (b, c, a, ca), (c, a, b, ab)):
            at_p = np.abs((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
                          - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))
            cross = np.fmax(cross, np.where(opposite == longest, at_p, np.nan))
        beside = np.where(bc == longest, ab * ca, np.where(ca == longest, ab * bc, bc * ca))
        radius = np.sqrt(beside * longest) / (2.0 * cross)
    # fmax, like the kernel's comparison, takes the half edge where the
    # quotient falls below it or is NaN
    return np.fmax(radius, 0.5 * np.sqrt(longest))


def init_forest(tri: Triangulation) -> DualForest:
    """One node per triangle (birth = circumradius if acute, else 0) plus the
    external node with birth +inf."""
    return DualForest(triangle_births(tri))


def process_edge(forest: DualForest, u: int, v: int, alpha: float) -> SweepEvent:
    """Dispatch one edge of the descending sweep to its case.

    u and v are the dual nodes on either side of the edge (the external
    node for the unbounded region) and alpha is the edge's scale, half its
    length.
    """
    rootu = forest.find_root(u)
    rootv = forest.find_root(v)
    if rootu == rootv:
        return SweepEvent(CASE_SAME_REGION, alpha)
    bu, bv = forest.birth[rootu], forest.birth[rootv]
    if bu == 0.0 and bv == 0.0:
        forest.link_two_gray(u, v, alpha)
        return SweepEvent(CASE_TWO_GRAY, alpha)
    if bu == 0.0:
        forest.link_gray_to_white(u, rootv)
        return SweepEvent(CASE_GRAY_JOINS_WHITE, alpha)
    if bv == 0.0:
        forest.link_gray_to_white(v, rootu)
        return SweepEvent(CASE_GRAY_JOINS_WHITE, alpha)
    pair = forest.merge_white(rootu, rootv, alpha)
    return SweepEvent(CASE_WHITE_MERGE, alpha, pair)


def iter_events(forest: DualForest, edge_faces: np.ndarray,
                edge_length_sq: np.ndarray, order: np.ndarray) -> Iterator[SweepEvent]:
    """The reference sweep: one event per edge of order, until every node
    is linked.

    The faces and scales of the ordered edges are read into lists once, so
    the loop itself indexes no numpy arrays.
    """
    k = forest.num_triangles
    faces = edge_faces[order]
    faces[faces < 0] = k
    alphas = (0.5 * np.sqrt(edge_length_sq[order])).tolist()
    for u, v, alpha in zip(faces[:, 0].tolist(), faces[:, 1].tolist(), alphas):
        if forest.links >= k:
            return
        yield process_edge(forest, u, v, alpha)


def sweep_events(cloud: Cloud) -> list:
    """Every event of the reference sweep over the cloud; used for traces
    and tests."""
    tri = triangulate(cloud)
    forest = init_forest(tri)
    return list(iter_events(forest, tri.edge_faces, tri.edge_length_sq,
                            edges_sorted_desc(tri.edge_length_sq)))


def sweep_pairs(births: np.ndarray, edge_faces: np.ndarray,
                edge_length_sq: np.ndarray, order: np.ndarray) -> tuple:
    """(pairs, deepest root walk) of one sweep over pre-sorted edges.

    Runs the compiled array sweep when the kernels are loaded and the
    reference sweep otherwise; both give identical pairs and walks.  The
    births may be overwritten.
    """
    compiled = _fastdel.sweep(births, edge_faces, edge_length_sq, order)
    if compiled is not None:
        return compiled
    forest = DualForest(births)
    pairs = [event.pair for event in
             iter_events(forest, edge_faces, edge_length_sq, order)
             if event.pair is not None]
    return pairs, forest.max_find_steps


def hole_persistence(cloud: Cloud) -> Diagram:
    """Persistence pairs of all holes of the cloud's offset filtration."""
    diagram, _, _ = hole_persistence_stats(cloud)
    return diagram


def hole_persistence_stats(cloud: Cloud, track_depth: bool = False,
                           timings: Optional[dict] = None) -> tuple:
    """(diagram, deepest root walk, triangle count) of one pipeline run.

    The walk, the longest parent chain any find followed, backs the
    logarithmic bound on parent chains under union by weight; the sweep
    always counts it, and it is reported as 0 unless track_depth.  A dict
    passed as timings receives the wall seconds of the "triangulate",
    "sort" and "sweep" (births included) stages.

    Each array is released as soon as no later stage reads it: the
    triangles once the births are known, and the edge table before the
    diagram is built.  That keeps the peak at the triangulation plus the
    births, about 130 bytes per point with the compiled kernels.
    """
    t0 = time.perf_counter()
    tri = triangulate(cloud)
    t1 = time.perf_counter()
    births = triangle_births(tri)
    k = len(births)
    faces, length_sq = tri.edge_faces, tri.edge_length_sq
    del tri
    t2 = time.perf_counter()
    order = edges_sorted_desc(length_sq)
    t3 = time.perf_counter()
    pairs, max_steps = sweep_pairs(births, faces, length_sq, order)
    del births, faces, length_sq, order
    t4 = time.perf_counter()
    if timings is not None:
        timings.update(triangulate=t1 - t0, sort=t3 - t2,
                       sweep=(t2 - t1) + (t4 - t3))
    return Diagram.from_pairs(pairs), max_steps if track_depth else 0, k
