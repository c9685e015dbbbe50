"""Exactness and analytic values of the geometric sign predicates."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holecount.predicates import (
    CircleSide,
    DegenerateTriangleError,
    Orientation,
    Point2,
    circumradius,
    dot_certified,
    in_circumcircle,
    is_acute,
    orient2d,
    orient2d_sign,
)


def P(x, y):
    return Point2(float(x), float(y))


class TestOrient2d:
    def test_ccw(self):
        assert orient2d(P(0, 0), P(1, 0), P(0, 1)) is Orientation.CCW

    def test_collinear(self):
        assert orient2d(P(0, 0), P(1, 1), P(2, 2)) is Orientation.COLLINEAR

    def test_cw(self):
        assert orient2d(P(0, 0), P(0, 1), P(1, 0)) is Orientation.CW

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Point2(math.nan, 0.0)
        with pytest.raises(ValueError):
            Point2(0.0, math.inf)

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_antisymmetric_under_swaps(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        s = orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y)
        assert orient2d_sign(b.x, b.y, a.x, a.y, c.x, c.y) == -s
        assert orient2d_sign(a.x, a.y, c.x, c.y, b.x, b.y) == -s


class TestInCircumcircle:
    # Circle through the unit right triangle: center (0.5, 0.5), radius
    # sqrt(2)/2, so (1, 1) lies exactly on it.
    A, B, C = P(0, 0), P(1, 0), P(0, 1)

    def test_inside(self):
        assert in_circumcircle(self.A, self.B, self.C, P(0.25, 0.25)) is CircleSide.INSIDE

    def test_on(self):
        assert in_circumcircle(self.A, self.B, self.C, P(1, 1)) is CircleSide.ON

    def test_outside(self):
        assert in_circumcircle(self.A, self.B, self.C, P(2, 2)) is CircleSide.OUTSIDE

    def test_cyclic_invariance(self):
        d = P(0.3, 0.7)
        r = in_circumcircle(self.A, self.B, self.C, d)
        assert in_circumcircle(self.B, self.C, self.A, d) is r
        assert in_circumcircle(self.C, self.A, self.B, d) is r

    def test_cw_input_normalized(self):
        assert in_circumcircle(self.A, self.C, self.B, P(0.25, 0.25)) is CircleSide.INSIDE

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangleError):
            in_circumcircle(P(0, 0), P(1, 1), P(2, 2), P(0, 1))


def _exact_incircle_side(a, b, c, d):
    """Rational-arithmetic classification used as the exactness oracle."""

    def row(p):
        x, y = Fraction(p.x) - Fraction(d.x), Fraction(p.y) - Fraction(d.y)
        return x, y, x * x + y * y

    ax, ay, al = row(a)
    bx, by, bl = row(b)
    cx, cy, cl = row(c)
    det = al * (bx * cy - by * cx) - bl * (ax * cy - ay * cx) + cl * (ax * by - ay * bx)
    orient = (Fraction(b.x) - Fraction(a.x)) * (Fraction(c.y) - Fraction(a.y)) - (
        Fraction(b.y) - Fraction(a.y)
    ) * (Fraction(c.x) - Fraction(a.x))
    if orient < 0:
        det = -det
    return (det > 0) - (det < 0)


class TestNearDegenerateExactness:
    def test_perturbed_cocircular_signs_match_rational(self):
        # Quadruples nudged off a common circle by ~1e-15: the float
        # determinant is far below its error bound, so every answer goes
        # through the exact branch and must agree with plain rationals.
        rng = np.random.default_rng(42)
        trials = 2000
        for _ in range(trials):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=4)
            radius = rng.uniform(0.5, 2.0)
            base = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            base += 1e-15 * rng.standard_normal((4, 2))
            a, b, c, d = (P(x, y) for x, y in base)
            if orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y) == 0:
                continue
            got = in_circumcircle(a, b, c, d)
            assert got.value == _exact_incircle_side(a, b, c, d)

    def test_tiny_offsets_from_a_line(self):
        for k in range(-40, 41):
            cy = 2.0 + k * 1e-16  # may round back to exactly 2.0
            expected = (cy > 2.0) - (cy < 2.0)
            assert orient2d_sign(0.0, 0.0, 1.0, 1.0, 2.0, cy) == expected


class TestCircumradius:
    def test_equilateral_side_2(self):
        r = circumradius(P(0, 0), P(2, 0), P(1, math.sqrt(3.0)))
        assert r == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_right_triangle_3_4_5(self):
        assert circumradius(P(0, 0), P(3, 0), P(0, 4)) == pytest.approx(2.5, abs=1e-12)

    def test_tall_isoceles_against_circumcenter_solve(self):
        a, b, c = P(0, 0), P(2, 0), P(1, 10)
        # independent oracle: intersect the perpendicular bisectors
        mat = np.array([
            [2.0 * (b.x - a.x), 2.0 * (b.y - a.y)],
            [2.0 * (c.x - a.x), 2.0 * (c.y - a.y)],
        ])
        rhs = np.array([
            b.x ** 2 + b.y ** 2 - a.x ** 2 - a.y ** 2,
            c.x ** 2 + c.y ** 2 - a.x ** 2 - a.y ** 2,
        ])
        center = np.linalg.solve(mat, rhs)
        expected = math.hypot(center[0] - a.x, center[1] - a.y)
        assert circumradius(a, b, c) == pytest.approx(expected, rel=1e-12)

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangleError):
            circumradius(P(0, 0), P(1, 1), P(2, 2))

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20),
           st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    @settings(max_examples=200)
    def test_at_least_half_longest_side(self, ax, ay, bx, by, cx, cy):
        a, b, c = P(ax, ay), P(bx, by), P(cx, cy)
        if orient2d_sign(a.x, a.y, b.x, b.y, c.x, c.y) == 0:
            return
        longest = math.sqrt(max(
            (b.x - a.x) ** 2 + (b.y - a.y) ** 2,
            (c.x - b.x) ** 2 + (c.y - b.y) ** 2,
            (a.x - c.x) ** 2 + (a.y - c.y) ** 2,
        ))
        assert circumradius(a, b, c) >= 0.5 * longest * (1.0 - 1e-12)


class TestIsAcute:
    def test_equilateral(self):
        assert is_acute(P(0, 0), P(2, 0), P(1, math.sqrt(3.0)))

    def test_right_triangle_is_not_acute(self):
        assert not is_acute(P(0, 0), P(3, 0), P(0, 4))

    def test_obtuse(self):
        assert not is_acute(P(0, 0), P(4, 0), P(1, 0.5))

    def test_exact_on_nearly_right(self):
        # legs 1, 1 and a hypotenuse vertex displaced by one ulp
        assert not is_acute(P(0, 0), P(1, 0), P(0, 1))
        assert is_acute(P(0, 0), P(1, 0), P(0.5, 0.5000000000000002))

    def test_collinear_raises(self):
        with pytest.raises(DegenerateTriangleError):
            is_acute(P(0, 0), P(1, 0), P(2, 0))


def _exact_dot(a, b, c):
    return sum((Fraction(q) - Fraction(p)) * (Fraction(r) - Fraction(p))
               for p, q, r in zip(a, b, c))


dyadic = st.builds(math.ldexp, st.integers(-2 ** 30, 2 ** 30), st.integers(-40, 40))
coordinate = st.one_of(dyadic, st.floats(-1e6, 1e6, allow_nan=False))


class TestDotCertified:
    @given(st.lists(st.tuples(*[coordinate] * 6), min_size=1, max_size=20))
    @settings(max_examples=200)
    def test_certified_values_are_exact(self, rows):
        arr = np.array(rows, dtype=np.float64)
        a, b, c = arr[:, 0:2], arr[:, 2:4], arr[:, 4:6]
        values, exact = dot_certified(a, b, c)
        for i in np.flatnonzero(exact):
            assert Fraction(values[i]) == _exact_dot(a[i], b[i], c[i])

    def test_integer_lattice_certified(self):
        a = np.array([[0.0, 0.0], [3.0, -7.0]])
        b = np.array([[3.0, 0.0], [1e6, 2.0]])
        c = np.array([[0.0, 4.0], [5.0, 9e6]])
        values, exact = dot_certified(a, b, c)
        assert exact.all()
        assert values.tolist() == [0.0, (1e6 - 3) * 2 + 9 * (9e6 + 7)]

    def test_rounded_products_not_certified(self):
        # 0.1 * 0.1 rounds; the dot product at (0.1, 0) is exactly 0
        a = np.array([[0.0, 0.0], [0.1, 0.0]])
        b = np.array([[0.1, 0.0], [0.1, 0.3]])
        c = np.array([[0.1, 0.3], [0.0, 0.0]])
        assert dot_certified(a, b, c)[1].tolist() == [False, True]

    def test_rounded_sum_not_certified(self):
        # 2^60 + 1 rounds although both products are exact
        a = np.zeros((1, 2))
        b = np.array([[2.0 ** 30, 1.0]])
        values, exact = dot_certified(a, b, b)
        assert values[0] == 2.0 ** 60 and not exact[0]

    def test_differences_outside_range_not_certified(self):
        # exact products, but the error-free transforms are only trusted
        # for nonzero differences within [2**-480, 2**480]
        a = np.zeros((4, 2))
        b = np.array([[2.0 ** -481, 0.0], [2.0 ** 481, 0.0],
                      [2.0 ** -480, 0.0], [2.0 ** 480, 0.0]])
        assert dot_certified(a, b, b)[1].tolist() == [False, False, True, True]
