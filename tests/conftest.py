"""Shared fixtures: small analytic clouds with known persistence, and the
per-triangle references that births are checked against."""

import math
from fractions import Fraction

import numpy as np
import pytest

from holecount import Cloud

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


def fraction_acute(p, q, r):
    """Strict acuteness of one triangle, decided in Fraction: the longest
    squared side is less than the sum of the other two."""
    def sq(u, v):
        return (Fraction(v[0]) - Fraction(u[0])) ** 2 + (Fraction(v[1]) - Fraction(u[1])) ** 2

    sides = sq(p, q), sq(q, r), sq(r, p)
    return 2 * max(sides) < sum(sides)


def float_circumradius(p, q, r):
    """|pq|*|qr|*|rp| / (4*area) in floats, rounded as the pipeline rounds it."""
    ab = (q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
    bc = (r[0] - q[0]) ** 2 + (r[1] - q[1]) ** 2
    ca = (p[0] - r[0]) ** 2 + (p[1] - r[1]) ** 2
    area2 = abs((q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0]))
    return math.sqrt(ab * bc * ca) / (2.0 * area2)
