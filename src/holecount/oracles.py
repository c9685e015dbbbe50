"""Independent ground-truth computations used to verify the fast sweep.

Two routes:
  * explicit filtration of the Delaunay complex reduced over Z/2 with the
    textbook column algorithm (columns as integer bitsets), which reads the
    pipeline's triangles and their `triangle_births` but derives its own
    edges and edge values, so it checks the edge table, the sort and the
    sweep; and
  * rasterization of the union of disks with a flood fill of the complement.

Plus the dense bottleneck distance, the reference for the sparse one in
`diagrams`, and exact orientation and in-circle tests in plain `Fraction`
arithmetic, which share no code with the pipeline's exact acuteness pass.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching
from scipy.spatial import cKDTree

from .delaunay import Cloud, triangulate
from .diagrams import Diagram, staircase
from .forest import hole_persistence, triangle_births


def orient_exact(a, b, c) -> int:
    """Sign of the cross product (b - a) x (c - a) of three (x, y) points:
    +1 counter-clockwise, -1 clockwise, 0 collinear."""
    (ax, ay), (bx, by), (cx, cy) = ([Fraction(float(v)) for v in p] for p in (a, b, c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def incircle_exact(a, b, c, d) -> int:
    """+1 if d lies strictly inside the circle through a, b and c, 0 on it,
    -1 outside; a, b and c may come in either orientation.  Raises
    ValueError when they are collinear."""
    orient = orient_exact(a, b, c)
    if orient == 0:
        raise ValueError("collinear points define no circumcircle")
    dx, dy = (Fraction(float(v)) for v in d)
    rows = [(Fraction(float(x)) - dx, Fraction(float(y)) - dy) for x, y in (a, b, c)]
    (ax, ay, al), (bx, by, bl), (cx, cy, cl) = ((x, y, x * x + y * y) for x, y in rows)
    det = al * (bx * cy - by * cx) - bl * (ax * cy - ay * cx) + cl * (ax * by - ay * bx)
    return orient * ((det > 0) - (det < 0))


class ResolutionWarning(UserWarning):
    """Raster grid too coarse relative to the disk radius."""


@dataclass(frozen=True)
class AlphaFiltration:
    """Simplices (dim, vertices, value) sorted by (value, dim, vertices).

    Vertices enter at 0, edges at half their length, triangles at their
    circumradius when acute and at half their longest edge otherwise — the
    same scales at which the descending sweep removes them.
    """

    simplices: list  # of (dim, tuple, float)


def alpha_filtration(cloud: Cloud) -> AlphaFiltration:
    tri = triangulate(cloud)
    pts = tri.points
    simplices = [(0, (int(i),), 0.0) for i in range(tri.n)]

    # each side of each triangle as a sorted vertex pair, once
    sides = np.sort(tri.triangles[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    edges = np.unique(sides, axis=0)
    d = pts[edges[:, 1]] - pts[edges[:, 0]]
    edge_values = 0.5 * np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2)
    for (v0, v1), value in zip(edges, edge_values):
        simplices.append((1, (int(v0), int(v1)), float(value)))

    births = triangle_births(tri)  # circumradius for acute, 0 otherwise
    for t, verts in enumerate(tri.triangles):
        i, j, k = (int(v) for v in verts)
        d2 = max(
            ((pts[j] - pts[i]) ** 2).sum(),
            ((pts[k] - pts[j]) ** 2).sum(),
            ((pts[i] - pts[k]) ** 2).sum(),
        )
        value = births[t] if births[t] > 0.0 else 0.5 * float(np.sqrt(d2))
        simplices.append((2, tuple(sorted((i, j, k))), float(value)))

    simplices.sort(key=lambda s: (s[2], s[0], s[1]))
    return AlphaFiltration(simplices=simplices)


def reduce_boundary_matrix(filtration: AlphaFiltration) -> Diagram:
    """Standard column reduction over Z/2; returns the H1 pairs.

    Columns are arbitrary-size integers with bit i standing for the i-th
    simplex in filtration order; reduction XORs columns until every lowest
    set bit is unique.
    """
    simplices = filtration.simplices
    index = {s[1]: i for i, s in enumerate(simplices)}
    low_to_col: dict = {}
    pairs = []

    for j, (dim, verts, value) in enumerate(simplices):
        if dim == 0:
            continue
        if dim == 1:
            column = (1 << index[(verts[0],)]) | (1 << index[(verts[1],)])
        else:
            a, b, c = verts
            column = (
                (1 << index[tuple(sorted((a, b)))])
                ^ (1 << index[tuple(sorted((b, c)))])
                ^ (1 << index[tuple(sorted((a, c)))])
            )
        while column:
            low = column.bit_length() - 1
            other = low_to_col.get(low)
            if other is None:
                low_to_col[low] = column
                if dim == 2:
                    pairs.append((simplices[low][2], value))
                break
            column ^= other

    n_vertices = sum(1 for s in simplices if s[0] == 0)
    n_edges = sum(1 for s in simplices if s[0] == 1)
    # Euler bookkeeping: the full complex is simply connected, so every
    # independent cycle must be killed by some triangle.
    assert len(pairs) == n_edges - n_vertices + 1, "unpaired 1-cycle in reduction"
    return Diagram.from_pairs(pairs)


def filtration_persistence(cloud: Cloud) -> Diagram:
    """Convenience: the oracle diagram of a cloud."""
    return reduce_boundary_matrix(alpha_filtration(cloud))


def raster_hole_count(cloud: Cloud, alpha: float, resolution: float = None,
                      min_depth: float = None) -> int:
    """Count bounded components of the complement of the union of disks.

    The union of radius-alpha disks around the cloud is rasterized on a grid
    padded by 2*alpha; the complement is labeled and components touching the
    border (the unbounded region) are discarded.

    Uncovered strips narrower than a cell (the tips of wedges where two disk
    boundaries cross) alias into isolated specks at any resolution, so
    bounded components whose deepest point clears the disks by less than
    min_depth (default: two cells) are discarded as well.  A real hole at
    this scale is as deep as the gap to its death value, which dwarfs a cell
    on any reasonable grid.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if resolution is None:
        resolution = 20.0 / alpha
    cell = 1.0 / resolution
    if min_depth is None:
        min_depth = 2.0 * cell
    if cell >= alpha / 10.0:
        warnings.warn(
            f"cell size {cell:.3g} is coarse for radius {alpha:.3g}",
            ResolutionWarning,
            stacklevel=2,
        )
    pts = cloud.points
    lo = pts.min(axis=0) - 2.0 * alpha
    hi = pts.max(axis=0) + 2.0 * alpha
    xs = np.arange(lo[0], hi[0] + cell, cell)
    ys = np.arange(lo[1], hi[1] + cell, cell)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    grid = np.stack([gx.reshape(-1), gy.reshape(-1)], axis=1)

    dist = cKDTree(pts).query(grid, k=1)[0].reshape(len(xs), len(ys))
    covered = dist <= alpha

    # 8-connectivity keeps thin complement channels between near-tangent
    # disks connected; the covered set is then implicitly 4-connected.
    labels, n_labels = ndimage.label(~covered, structure=np.ones((3, 3), dtype=bool))
    border = np.unique(
        np.concatenate([labels[0], labels[-1], labels[:, 0], labels[:, -1]])
    )
    bounded = sorted(set(range(1, n_labels + 1)) - set(border.tolist()))
    if not bounded:
        return 0
    depths = ndimage.labeled_comprehension(
        dist, labels, bounded, np.max, float, 0.0
    ) - alpha
    return int((depths >= min_depth).sum())


def _separated_scales(cloud: Cloud, stair) -> list:
    """Scales inside each staircase interval that keep a safe margin from
    every pairwise half-distance and triangle coverage value.

    Near-tangent disks of ANY point pair (Delaunay or not) leave a complement
    channel whose width shrinks linearly as the scale approaches half their
    distance, so a raster check needs distance from all of these values, not
    just the staircase breakpoints.  Returns (alpha, margin, expected count)
    triples, best margin first.
    """
    pts = cloud.points
    diff = pts[:, None, :] - pts[None, :, :]
    half = 0.5 * np.sqrt((diff ** 2).sum(axis=2))
    iu = np.triu_indices(len(pts), k=1)
    values = half[iu]
    tri = triangulate(cloud)
    a = pts[tri.triangles[:, 0]]
    b = pts[tri.triangles[:, 1]]
    c = pts[tri.triangles[:, 2]]
    ab = ((b - a) ** 2).sum(axis=1)
    bc = ((c - b) ** 2).sum(axis=1)
    ca = ((a - c) ** 2).sum(axis=1)
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
        b[:, 1] - a[:, 1]
    ) * (c[:, 0] - a[:, 0])
    # circumradii of all triangles, obtuse included: every one is the scale
    # of some junction of three disk boundaries, where the distance field
    # has a value the raster must keep clear of
    radii = np.sqrt(ab * bc * ca) / (2.0 * np.abs(cross))
    values = np.unique(np.concatenate([values, radii]))

    out = []
    for i in range(len(stair.counts)):
        lo, hi = stair.breakpoints[i], stair.breakpoints[i + 1]
        inner = values[(values > lo) & (values < hi)]
        grid = np.concatenate(([lo], inner, [hi]))
        gaps = np.diff(grid)
        j = int(np.argmax(gaps))
        alpha = 0.5 * (grid[j] + grid[j + 1])
        out.append((float(alpha), float(0.5 * gaps[j]), int(stair.counts[i])))
    out.sort(key=lambda t: -t[1])
    return out


@dataclass(frozen=True)
class EquivalenceReport:
    equal: bool
    max_deviation: float
    pair_count: int
    raster_checks: list = field(default_factory=list)  # (alpha, expected, got)

    @property
    def raster_ok(self) -> bool:
        return all(exp == got for _, exp, got in self.raster_checks)


def verify_equivalence(cloud: Cloud, raster_alphas: int = 0) -> EquivalenceReport:
    """Compare the sweep output against the boundary-matrix oracle.

    Pairs are compared as multisets after dropping zero-persistence pairs.
    With raster_alphas > 0 the staircase is additionally spot-checked against
    the raster hole count at that many interior scale values, preferring the
    scales farthest from any critical value (their rasters are the cheapest
    and the least prone to aliasing).
    """
    fast = hole_persistence(cloud)
    slow = filtration_persistence(cloud)
    a = fast.off_diagonal()
    b = slow.off_diagonal()
    if len(a) != len(b):
        return EquivalenceReport(equal=False, max_deviation=float("inf"),
                                 pair_count=max(len(a), len(b)))
    deviation = float(np.abs(a - b).max()) if len(a) else 0.0

    checks = []
    if raster_alphas > 0 and len(a):
        stair = staircase(fast)
        span = float((cloud.points.max(axis=0) - cloud.points.min(axis=0)).max())
        eligible = []
        for mid, margin, expected in _separated_scales(cloud, stair):
            # any open channel at scale `mid` clears the disks by at least
            # `margin` somewhere, so a cell of margin / 2 resolves it; real
            # holes are at least `margin` deep, aliasing specks shallower
            # than half that, and nothing can fall in between
            resolution = max(2.0 / margin, 20.0 / mid)
            if ((span + 4.0 * mid) * resolution) ** 2 <= 1.2e7:  # grid budget
                eligible.append((mid, margin, resolution, expected))
        for mid, margin, resolution, expected in eligible[:raster_alphas]:
            got = raster_hole_count(cloud, mid, resolution=resolution,
                                    min_depth=0.5 * margin)
            checks.append((mid, expected, got))

    return EquivalenceReport(
        equal=bool(deviation <= 1e-9),
        max_deviation=deviation,
        pair_count=len(a),
        raster_checks=checks,
    )


def _matching_feasible(real_cost: np.ndarray, diag1: np.ndarray,
                       diag2: np.ndarray, delta: float) -> bool:
    """Perfect matching test for the augmented bipartite diagram graph.

    Rows are d1's points followed by diagonal slots for d2's points, columns
    are d2's points followed by diagonal slots for d1's points.
    """
    m1, m2 = len(diag1), len(diag2)
    n = m1 + m2
    adj = np.zeros((n, n), dtype=bool)
    adj[:m1, :m2] = real_cost <= delta
    adj[np.arange(m1), m2 + np.arange(m1)] = diag1 <= delta
    adj[m1 + np.arange(m2), np.arange(m2)] = diag2 <= delta
    adj[m1:, m2:] = True  # diagonal-to-diagonal is free
    match = maximum_bipartite_matching(csr_matrix(adj), perm_type="column")
    return int((match >= 0).sum()) == n


def bottleneck_distance_dense(d1: Diagram, d2: Diagram) -> float:
    """Exact bottleneck distance by the dense augmented graph.

    L-infinity ground metric; a point may match the diagonal at cost
    (death - birth) / 2.  Binary search over every candidate cost with a
    perfect matching test on the full (m1+m2)^2 graph: the reference for
    `diagrams.bottleneck_distance`.
    """
    p1 = d1.off_diagonal()
    p2 = d2.off_diagonal()
    m1, m2 = len(p1), len(p2)
    if m1 == 0 and m2 == 0:
        return 0.0
    diag1 = (p1[:, 1] - p1[:, 0]) / 2.0 if m1 else np.empty(0)
    diag2 = (p2[:, 1] - p2[:, 0]) / 2.0 if m2 else np.empty(0)
    if m1 and m2:
        real_cost = np.abs(p1[:, None, :] - p2[None, :, :]).max(axis=2)
    else:
        real_cost = np.empty((m1, m2))

    candidates = np.unique(np.concatenate([
        np.array([0.0]), diag1, diag2, real_cost.reshape(-1)
    ]))
    lo, hi = 0, len(candidates) - 1
    # The largest candidate (everything to the diagonal) is always feasible.
    while lo < hi:
        mid = (lo + hi) // 2
        if _matching_feasible(real_cost, diag1, diag2, candidates[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(candidates[lo])
