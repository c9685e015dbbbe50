"""Exact-decision geometric primitives for planar triangulations.

All sign decisions (orientation, in-circle, acuteness) use a floating-point
fast path guarded by a conservative error bound.  When the computed value is
too close to zero to trust, we re-evaluate with exact rational arithmetic
(`fractions.Fraction` over the binary values of the input doubles), so the
returned sign is never wrong due to rounding.

For the many near-degenerate cases of lattice-like clouds, `dot_certified`
sits between the two: error-free transforms (Knuth two-sum, Dekker
two-product; Shewchuk 1997) show in a few numpy passes over a whole batch
which floating-point dot products are already exact, so only the rest pay
for rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

# Unit roundoff for IEEE double.
_EPS = 2.0 ** -53
# Conservative relative error bounds: a handful of additions/multiplications
# can each contribute at most a few ulps, so a generous constant is safe.
_ORIENT_BOUND = 8.0 * _EPS
_INCIRCLE_BOUND = 32.0 * _EPS
_ACUTE_BOUND = 16.0 * _EPS

# Dekker's splitter 2**27 + 1, and the range of nonzero coordinate
# differences inside which neither the split overflows nor a product's
# rounding error drops below the subnormal range.
_SPLITTER = 134217729.0
_CERTIFY_MIN = 2.0 ** -480
_CERTIFY_MAX = 2.0 ** 480


class DegenerateTriangleError(ValueError):
    """Raised when three collinear points are passed where a genuine triangle
    is required."""


class Orientation(Enum):
    CCW = 1
    COLLINEAR = 0
    CW = -1


class CircleSide(Enum):
    INSIDE = 1
    ON = 0
    OUTSIDE = -1


@dataclass(frozen=True)
class Point2:
    """A point in the plane; both coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinate: ({self.x}, {self.y})")


def _orient_exact(ax, ay, bx, by, cx, cy) -> int:
    det = (Fraction(bx) - Fraction(ax)) * (Fraction(cy) - Fraction(ay)) - (
        Fraction(by) - Fraction(ay)
    ) * (Fraction(cx) - Fraction(ax))
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def orient2d_sign(ax, ay, bx, by, cx, cy) -> int:
    """Sign of twice the signed area of triangle abc (+1 CCW, -1 CW, 0)."""
    detleft = (bx - ax) * (cy - ay)
    detright = (by - ay) * (cx - ax)
    det = detleft - detright
    bound = _ORIENT_BOUND * (abs(detleft) + abs(detright))
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _orient_exact(ax, ay, bx, by, cx, cy)


def orient2d(a: Point2, b: Point2, c: Point2) -> Orientation:
    return Orientation(orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y))


def _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    ax_, ay_ = Fraction(ax) - Fraction(dx), Fraction(ay) - Fraction(dy)
    bx_, by_ = Fraction(bx) - Fraction(dx), Fraction(by) - Fraction(dy)
    cx_, cy_ = Fraction(cx) - Fraction(dx), Fraction(cy) - Fraction(dy)
    det = (
        (ax_ * ax_ + ay_ * ay_) * (bx_ * cy_ - by_ * cx_)
        - (bx_ * bx_ + by_ * by_) * (ax_ * cy_ - ay_ * cx_)
        + (cx_ * cx_ + cy_ * cy_) * (ax_ * by_ - ay_ * bx_)
    )
    if det > 0:
        return 1
    if det < 0:
        return -1
    return 0


def incircle_sign(ax, ay, bx, by, cx, cy, dx, dy) -> int:
    """Sign of the in-circle determinant for CCW triangle abc and query d.

    Positive means d lies strictly inside the circumcircle of abc.
    """
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy

    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy

    bxcy, bycx = bdx * cdy, bdy * cdx
    axcy, aycx = adx * cdy, ady * cdx
    axby, aybx = adx * bdy, ady * bdx

    det = alift * (bxcy - bycx) - blift * (axcy - aycx) + clift * (axby - aybx)
    permanent = (
        alift * (abs(bxcy) + abs(bycx))
        + blift * (abs(axcy) + abs(aycx))
        + clift * (abs(axby) + abs(aybx))
    )
    bound = _INCIRCLE_BOUND * permanent
    if det > bound:
        return 1
    if det < -bound:
        return -1
    return _incircle_exact(ax, ay, bx, by, cx, cy, dx, dy)


def in_circumcircle(a: Point2, b: Point2, c: Point2, d: Point2) -> CircleSide:
    """Classify d against the circle through a, b, c (orientation-normalized)."""
    orient = orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y)
    if orient == 0:
        raise DegenerateTriangleError("collinear points define no circumcircle")
    if orient < 0:
        b, c = c, b
    return CircleSide(incircle_sign(a.x, a.y, b.x, b.y, c.x, c.y, d.x, d.y))


def _side_lengths_sq(a: Point2, b: Point2, c: Point2):
    ab = (b.x - a.x) ** 2 + (b.y - a.y) ** 2
    bc = (c.x - b.x) ** 2 + (c.y - b.y) ** 2
    ca = (a.x - c.x) ** 2 + (a.y - c.y) ** 2
    return ab, bc, ca


def circumradius(a: Point2, b: Point2, c: Point2) -> float:
    """Radius of the circle through a, b, c: |ab|*|bc|*|ca| / (4*area)."""
    if orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y) == 0:
        raise DegenerateTriangleError("collinear points have no circumradius")
    ab, bc, ca = _side_lengths_sq(a, b, c)
    area2 = abs(
        (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    )  # twice the area
    return math.sqrt(ab * bc * ca) / (2.0 * area2)


def _acute_exact(a: Point2, b: Point2, c: Point2) -> bool:
    def sq(p, q):
        return (Fraction(q.x) - Fraction(p.x)) ** 2 + (Fraction(q.y) - Fraction(p.y)) ** 2

    ab, bc, ca = sq(a, b), sq(b, c), sq(c, a)
    longest = max(ab, bc, ca)
    return 2 * longest < ab + bc + ca


def is_acute(a: Point2, b: Point2, c: Point2) -> bool:
    """True iff the triangle is strictly acute.

    Right triangles return False: their circumcenter lies on the hypotenuse,
    so they carry no independent critical value of their own.
    """
    if orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y) == 0:
        raise DegenerateTriangleError("collinear points form no triangle")
    ab, bc, ca = _side_lengths_sq(a, b, c)
    longest = max(ab, bc, ca)
    # acute iff longest^2 < sum of the other two squared sides
    gap = (ab + bc + ca) - 2.0 * longest
    bound = _ACUTE_BOUND * (ab + bc + ca)
    if abs(gap) <= bound:
        return _acute_exact(a, b, c)
    return gap > 0.0


def _two_diff(a, b):
    """(a - b rounded, its rounding error), both exact."""
    x = a - b
    b_virtual = a - x
    a_virtual = x + b_virtual
    return x, (a - a_virtual) + (b_virtual - b)


def _two_sum(a, b):
    """(a + b rounded, its rounding error), both exact."""
    x = a + b
    b_virtual = x - a
    a_virtual = x - b_virtual
    return x, (a - a_virtual) + (b - b_virtual)


def _split(a):
    """Dekker split of a into two halves of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_product_tail(a, b, x):
    """Rounding error of the product x = a * b, exact."""
    a_hi, a_lo = _split(a)
    b_hi, b_lo = _split(b)
    err = ((x - a_hi * b_hi) - a_lo * b_hi) - a_hi * b_lo
    return a_lo * b_lo - err


def dot_certified(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> tuple:
    """(values, exact) for the dot products (b - a)·(c - a) of the rows of
    the (n, 2) arrays a, b and c.

    values are evaluated in floating point as (ux*vx) + (uy*vy).  exact is
    True where that value is provably the exact real dot product: every
    coordinate difference, both products and their sum have a zero
    rounding error, and every nonzero difference lies in [2**-480, 2**480],
    so the error-free transforms can neither overflow nor underflow.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u, u_err = _two_diff(b, a)
        v, v_err = _two_diff(c, a)
        prod = u * v
        prod_err = _two_product_tail(u, v, prod)
        values, sum_err = _two_sum(prod[:, 0], prod[:, 1])
        mag = np.abs(np.concatenate((u, v), axis=1))
    exact = (
        (sum_err == 0.0)
        & (u_err == 0.0).all(axis=1)
        & (v_err == 0.0).all(axis=1)
        & (prod_err == 0.0).all(axis=1)
        & ((mag == 0.0) | ((mag >= _CERTIFY_MIN) & (mag <= _CERTIFY_MAX))).all(axis=1)
    )
    return values, exact
