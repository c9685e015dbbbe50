"""Shared fixtures: the two backends, small analytic clouds with known
persistence, the edge table's endpoints, the per-triangle references that
births are checked against, and the eight axis maps."""

import math
from fractions import Fraction

import numpy as np
import pytest

from holecount import Cloud, _fastdel


@pytest.fixture(params=["kernels", "fallback"])
def backend(request, monkeypatch):
    """Runs a test with the compiled kernels, then on the reference path
    that a platform without them takes."""
    if request.param == "kernels":
        if _fastdel.KERNELS is None:
            pytest.skip("compiled kernels unavailable (no C compiler)")
    else:
        monkeypatch.setattr(_fastdel, "KERNELS", None)
    return request.param


# Two touching "rooms" separated by a central wall: the union of disks is one
# hole at scale 1.5, splits into two at 2.0, and both vanish at 5*sqrt(17)/8.
FIGURE_EIGHT_POINTS = np.array([
    (0.0, 2.0), (0.0, -2.0),
    (4.0, 1.0), (4.0, -1.0), (-4.0, 1.0), (-4.0, -1.0),
    (2.88, 2.84), (-2.88, 2.84), (2.88, -2.84), (-2.88, -2.84),
])

FIGURE_EIGHT_DEATH = 5.0 * np.sqrt(17.0) / 8.0


@pytest.fixture
def square2():
    """Corners of a side-2 square; one hole on [1, sqrt(2))."""
    return Cloud.from_points([(0, 0), (2, 0), (2, 2), (0, 2)])


@pytest.fixture
def equilateral2():
    """Equilateral triangle with side 2; one hole on [1, 2/sqrt(3))."""
    return Cloud.from_points([(0, 0), (2, 0), (1, np.sqrt(3.0))])


@pytest.fixture
def figure_eight():
    return Cloud.from_points(FIGURE_EIGHT_POINTS)


def random_cloud(seed, n, span=1.0):
    rng = np.random.default_rng(seed)
    return Cloud.from_points(span * rng.random((n, 2)))


def parabola_cloud(seed, n):
    """Points on y = x^2, |x| < 10: in convex position, so each one an
    incremental builder inserts lands outside the hull built so far, and
    the arms lie close enough for acute triangles and holes."""
    x = np.random.default_rng(seed).uniform(-10.0, 10.0, n)
    return Cloud.from_points(np.stack([x, x * x], axis=1))


def edge_vertices(tri):
    """(E, 2) sorted endpoints of the edge table's rows.  The table keeps
    each edge where it first occurs among the 3k triangle sides (side j of
    triangle t joins its vertices j + 1 and j + 2), so the first occurrence
    of each sorted pair, in side order, gives the row order."""
    sides = np.sort(tri.triangles[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2), axis=1)
    keys = sides[:, 0].astype(np.int64) * tri.n + sides[:, 1]
    _, first = np.unique(keys, return_index=True)
    return sides[np.sort(first)]


def fraction_acute(p, q, r):
    """Strict acuteness of one triangle, decided in Fraction: the longest
    squared side is less than the sum of the other two."""
    def sq(u, v):
        return (Fraction(v[0]) - Fraction(u[0])) ** 2 + (Fraction(v[1]) - Fraction(u[1])) ** 2

    sides = sq(p, q), sq(q, r), sq(r, p)
    return 2 * max(sides) < sum(sides)


def float_circumradius(p, q, r):
    """max(circumradius, half the longest side) of one triangle in floats,
    rounded as the pipeline rounds it and from its point set alone: twice
    the area at the vertex opposite a longest side (the largest of these
    where longest sides tie), over the squared sides multiplied in
    ascending order."""
    def sq(u, v):
        dx, dy = v[0] - u[0], v[1] - u[1]
        return dx * dx + dy * dy

    def cross(o, u, v):
        return abs((u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0]))

    # each side's squared length with the vertex opposite it first
    sides = sorted([(sq(q, r), p, q, r), (sq(r, p), q, r, p), (sq(p, q), r, p, q)],
                   key=lambda side: side[0])
    lo, mid, hi = (side[0] for side in sides)
    area2 = max(cross(*side[1:]) for side in sides if side[0] == hi)
    radius = math.sqrt(lo * mid * hi) / (2.0 * area2)
    half = 0.5 * math.sqrt(hi)
    return radius if radius > half else half


#: The eight maps of the plane that take the axes to the axes: rotations by
#: quarter turns and reflections in the axes and the diagonals.  Each one
#: only negates and swaps coordinates, so it is exact.
AXIS_MAPS = {
    "identity": lambda p: p,
    "rotate90": lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),
    "rotate180": lambda p: -p,
    "rotate270": lambda p: np.stack([p[:, 1], -p[:, 0]], axis=1),
    "reflect": lambda p: np.stack([-p[:, 0], p[:, 1]], axis=1),
    "reflect_y": lambda p: np.stack([p[:, 0], -p[:, 1]], axis=1),
    "transpose": lambda p: p[:, ::-1].copy(),
    "antitranspose": lambda p: -p[:, ::-1],
}
