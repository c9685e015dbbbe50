"""Exactness of the geometric sign decisions: the pipeline's exact
acuteness pass (`forest.acute_exact`, in int64 or Python ints) and the
oracle's own `Fraction` orientation and in-circle tests, plus the float
circumradius that the birth tests compare against and the error bound of
the births' formula."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from holecount import _fastdel
from holecount import forest as forest_mod
from holecount.forest import acute_exact
from holecount.oracles import incircle_exact, orient_exact

from conftest import AXIS_MAPS, float_circumradius, fraction_acute


class TestOrient2d:
    def test_ccw(self):
        assert orient_exact((0, 0), (1, 0), (0, 1)) == 1

    def test_collinear(self):
        assert orient_exact((0, 0), (1, 1), (2, 2)) == 0

    def test_cw(self):
        assert orient_exact((0, 0), (0, 1), (1, 0)) == -1

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50),
           st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
    def test_antisymmetric_under_swaps(self, ax, ay, bx, by, cx, cy):
        a, b, c = (ax, ay), (bx, by), (cx, cy)
        s = orient_exact(a, b, c)
        assert orient_exact(b, a, c) == -s
        assert orient_exact(a, c, b) == -s


class TestInCircumcircle:
    # Circle through the unit right triangle: center (0.5, 0.5), radius
    # sqrt(2)/2, so (1, 1) lies exactly on it.
    A, B, C = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)

    def test_inside(self):
        assert incircle_exact(self.A, self.B, self.C, (0.25, 0.25)) == 1

    def test_on(self):
        assert incircle_exact(self.A, self.B, self.C, (1, 1)) == 0

    def test_outside(self):
        assert incircle_exact(self.A, self.B, self.C, (2, 2)) == -1

    def test_cyclic_invariance(self):
        d = (0.3, 0.7)
        r = incircle_exact(self.A, self.B, self.C, d)
        assert incircle_exact(self.B, self.C, self.A, d) == r
        assert incircle_exact(self.C, self.A, self.B, d) == r

    def test_cw_input_normalized(self):
        assert incircle_exact(self.A, self.C, self.B, (0.25, 0.25)) == 1

    def test_collinear_raises(self):
        with pytest.raises(ValueError):
            incircle_exact((0, 0), (1, 1), (2, 2), (0, 1))


def _exact_incircle_side(a, b, c, d):
    """Rational in-circle sign written out here, independent of the oracle."""

    def row(p):
        x, y = Fraction(p[0]) - Fraction(d[0]), Fraction(p[1]) - Fraction(d[1])
        return x, y, x * x + y * y

    ax, ay, al = row(a)
    bx, by, bl = row(b)
    cx, cy, cl = row(c)
    det = al * (bx * cy - by * cx) - bl * (ax * cy - ay * cx) + cl * (ax * by - ay * bx)
    orient = (Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1])) - (
        Fraction(b[1]) - Fraction(a[1])
    ) * (Fraction(c[0]) - Fraction(a[0]))
    if orient < 0:
        det = -det
    return (det > 0) - (det < 0)


class TestNearDegenerateExactness:
    def test_perturbed_cocircular_signs_match_rational(self):
        # Quadruples nudged off a common circle by ~1e-15, far inside the
        # rounding error of a float determinant.
        rng = np.random.default_rng(42)
        trials = 2000
        for _ in range(trials):
            theta = rng.uniform(0.0, 2.0 * np.pi, size=4)
            radius = rng.uniform(0.5, 2.0)
            base = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
            base += 1e-15 * rng.standard_normal((4, 2))
            a, b, c, d = (tuple(map(float, p)) for p in base)
            if orient_exact(a, b, c) == 0:
                continue
            assert incircle_exact(a, b, c, d) == _exact_incircle_side(a, b, c, d)

    def test_tiny_offsets_from_a_line(self):
        for k in range(-40, 41):
            cy = 2.0 + k * 1e-16  # may round back to exactly 2.0
            expected = (cy > 2.0) - (cy < 2.0)
            assert orient_exact((0.0, 0.0), (1.0, 1.0), (2.0, cy)) == expected


def acute(*vertices):
    """`acute_exact` on one triangle."""
    a, b, c = (np.array([p], dtype=np.float64) for p in vertices)
    return bool(acute_exact(a, b, c)[0][0])


class TestIsAcute:
    def test_equilateral(self):
        assert acute((0, 0), (2, 0), (1, math.sqrt(3.0)))

    def test_right_triangle_is_not_acute(self):
        assert not acute((0, 0), (3, 0), (0, 4))

    def test_obtuse(self):
        assert not acute((0, 0), (4, 0), (1, 0.5))

    def test_exact_on_nearly_right(self):
        # legs 1, 1 and a hypotenuse vertex displaced by one ulp
        assert not acute((0, 0), (1, 0), (0, 1))
        assert acute((0, 0), (1, 0), (0.5, 0.5000000000000002))

    def test_collinear_is_not_acute(self):
        assert not acute((0, 0), (1, 0), (2, 0))
        assert not acute((0, 0), (1, 1), (0, 0))


@st.composite
def acute_triangles(draw):
    """The three vertices of a strictly acute triangle: "free" ones on a
    circle, whose centre they surround; "isosceles" ones with integer
    coordinates, whose two legs or whose base are the longest sides, tied
    exactly; "equilateral" ones from a circle, maybe a few ulps off, whose
    squared sides often round to two or three equal doubles; and
    "near-right" ones, a right angle of integers moved by one ulp or
    rounded to a decimal grid.  Each is scaled by a power of two."""
    kind = draw(st.sampled_from(["free", "isosceles", "equilateral", "near-right"]))
    if kind == "free":
        turns = sorted(draw(st.floats(0.0, 1.0)) for _ in range(3))
        assume(max(turns[1] - turns[0], turns[2] - turns[1], 1.0 + turns[0] - turns[2]) < 0.5)
        centre = draw(st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
        radius = draw(st.floats(0.01, 10.0))
        pts = [(centre[0] + radius * math.cos(2.0 * math.pi * t),
                centre[1] + radius * math.sin(2.0 * math.pi * t)) for t in turns]
    elif kind == "isosceles":
        w = draw(st.integers(1, 2 ** 20))
        h = draw(st.integers(w + 1, 2 ** 21))
        x, y = draw(st.integers(-2 ** 20, 2 ** 20)), draw(st.integers(-2 ** 20, 2 ** 20))
        pts = [(x - w, y), (x + w, y), (x, y + h)]
    elif kind == "equilateral":
        phi = draw(st.floats(0.0, 2.0 * math.pi))
        pts = [[math.cos(phi + 2.0 * math.pi * k / 3.0),
                math.sin(phi + 2.0 * math.pi * k / 3.0)] for k in range(3)]
        i, j = draw(st.integers(0, 2)), draw(st.integers(0, 1))
        pts[i][j] += draw(st.integers(-3, 3)) * math.ulp(pts[i][j])
    else:
        small = st.integers(-2 ** 20, 2 ** 20)
        ax, ay, px, py = (draw(small) for _ in range(4))
        t = draw(st.sampled_from([1, 2, 3]))
        row = np.array([ax, ay, ax + px, ay + py, ax - t * py, ay + t * px], dtype=np.float64)
        if draw(st.booleans()):
            row = row * draw(st.sampled_from([0.1, 0.05, 0.001]))
        else:
            i = draw(st.integers(0, 5))
            row[i] = np.nextafter(row[i], draw(st.sampled_from([-np.inf, np.inf])))
        pts = row.reshape(3, 2).tolist()
    pts = np.ldexp(np.array(pts, dtype=np.float64), draw(st.integers(-60, 60)))
    assume(fraction_acute(*pts.tolist()))
    return pts.tolist()


class TestCircumradius:
    def test_equilateral_side_2(self):
        # the reference that triangle births are checked against: one
        # value, bit for bit, in every vertex order
        tri = [(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))]
        radii = {float_circumradius(*(tri[i] for i in order))
                 for order in itertools.permutations(range(3))}
        assert len(radii) == 1
        assert radii.pop() == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    @given(acute_triangles())
    @settings(max_examples=400, deadline=None)
    def test_birth_within_ulp_bound(self, vertices):
        _assert_birth_bounded(vertices)

    def test_three_tied_longest_sides(self):
        # a near-equilateral triangle whose three squared sides round to one
        # double: |cross| is the largest of the three vertices' values
        phi = 0.107
        vertices = [(math.cos(phi + 2.0 * math.pi * k / 3.0),
                     math.sin(phi + 2.0 * math.pi * k / 3.0)) for k in range(3)]
        a, b, c = (np.array([v]) for v in vertices)
        assert len(set(np.concatenate(forest_mod._side_lengths_sq(a, b, c)).tolist())) == 1
        _assert_birth_bounded(vertices)


# the bound derived at clamped_circumradius in _kernels.c: |birth - R| <= 14u R
BIRTH_ERROR = Fraction(14, 2 ** 53)


def _assert_birth_bounded(vertices):
    """The births of one acute triangle, listed in each of its six vertex
    orders and moved by each of the eight axis maps, are one double, from
    the numpy formula and from the kernel's, and that double lies within
    BIRTH_ERROR of the exact circumradius, compared in squares."""
    tri = np.array(vertices, dtype=np.float64)
    flat = np.vstack([axis_map(tri[list(order)])
                      for order in itertools.permutations(range(3))
                      for axis_map in AXIS_MAPS.values()])
    rows = np.arange(len(flat), dtype=np.int32).reshape(-1, 3)
    a, b, c = (flat[rows[:, j]] for j in range(3))
    births = forest_mod._clamped_circumradius(a, b, c, *forest_mod._side_lengths_sq(a, b, c))
    assert births.tobytes() == np.full(len(rows), births[0]).tobytes()
    if _fastdel.KERNELS is not None:
        # with band -inf, hc_births takes every row to the formula
        compiled, _ = _fastdel.triangle_births(flat, rows, -np.inf)
        assert compiled.tobytes() == births.tobytes()
    p, q, r = ([Fraction(x) for x in v] for v in tri.tolist())

    def sq(u, v):
        return (v[0] - u[0]) ** 2 + (v[1] - u[1]) ** 2

    cross = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    radius_sq = sq(p, q) * sq(q, r) * sq(r, p) / (4 * cross * cross)
    birth_sq = Fraction(float(births[0])) ** 2
    assert (1 - BIRTH_ERROR) ** 2 * radius_sq <= birth_sq <= (1 + BIRTH_ERROR) ** 2 * radius_sq


dyadic = st.builds(math.ldexp, st.integers(-2 ** 30, 2 ** 30), st.integers(-40, 40))
decimal = st.builds(lambda i, d: i / 10 ** d, st.integers(-10 ** 6, 10 ** 6), st.integers(0, 3))


@st.composite
def triangles(draw):
    """(kind, row): a row a, b, c of decimal or dyadic coordinates, scaled
    by 2**k.  "right" rows have a right angle at a, exact on the dyadic
    grid and then maybe one coordinate moved by one ulp, or rounded on a
    decimal grid; "collinear" rows are exactly collinear.  "extreme" rows
    probe the int64 form's limits: a right angle whose scaled integers reach
    ±(2**30 - 1), maybe with one coordinate redrawn; a right angle at the
    origin scaled by 2**-300, maybe moved by one ulp; and a right angle
    spanning 2**1000 with one vertex moved by a subnormal, which decides."""
    kind = draw(st.sampled_from(["free", "right", "collinear", "extreme"]))
    small = st.integers(-2 ** 20, 2 ** 20)
    if kind == "extreme":
        form = draw(st.sampled_from(["top", "zero", "subnormal"]))
        if form == "subnormal":
            big = math.ldexp(draw(st.integers(1, 2 ** 20)), 1000)
            return kind, np.array([0.0, draw(small) * 5e-324, big, 0.0, 0.0, big])
        if form == "top":
            m = 2 ** 30 - 1
            sx, sy = (draw(st.sampled_from([-m, m])) for _ in range(2))
            row = np.array([-sx, -sy, sx, -sy, -sx, sy], dtype=np.float64)
            if draw(st.booleans()):
                row[draw(st.integers(0, 5))] = draw(st.integers(-m, m))
            return kind, np.ldexp(row, draw(st.integers(-300, 300)))
        px, py = draw(small), draw(small)
        row = np.ldexp(np.array([0, 0, px, py, -py, px], dtype=np.float64), -300)
        if draw(st.booleans()):
            i = draw(st.integers(0, 5))
            row[i] = np.nextafter(row[i], draw(st.sampled_from([-np.inf, np.inf])))
        return kind, row
    if kind == "free":
        row = np.array([draw(st.one_of(dyadic, decimal)) for _ in range(6)])
    else:
        ax, ay, px, py = (draw(small) for _ in range(4))
        t = draw(st.sampled_from([-1, 2, 3]))
        if kind == "right":
            ints = [ax, ay, ax + px, ay + py, ax - t * py, ay + t * px]
        else:
            ints = [ax, ay, ax + px, ay + py, ax + t * px, ay + t * py]
        row = np.ldexp(np.array(ints, dtype=np.float64), draw(st.integers(-40, 40)))
        if kind == "right" and draw(st.booleans()):
            row = np.array(ints) * draw(st.sampled_from([0.1, 0.05, 0.001]))
        elif kind == "right":
            i = draw(st.integers(0, 5))
            row[i] = np.nextafter(row[i], draw(st.sampled_from([-np.inf, np.inf, row[i]])))
    return kind, np.ldexp(row, draw(st.integers(-300, 300)))


def fits_int64(row):
    """Whether every value of the row is an integer once scaled by
    2**(30 - E), E the frexp exponent of its largest magnitude."""
    scale = Fraction(2) ** (30 - math.frexp(max(abs(x) for x in row))[1])
    return all((Fraction(x) * scale).denominator == 1 for x in row)


class TestAcuteExact:
    @given(st.lists(triangles(), min_size=1, max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_reference(self, rows):
        arr = np.array([row for _, row in rows])
        a, b, c = arr[:, 0:2], arr[:, 2:4], arr[:, 4:6]
        got, wide = acute_exact(a, b, c)
        assert got.dtype == bool and got.shape == (len(rows),)
        assert wide == sum(not fits_int64(row) for _, row in rows)
        for i, (kind, _) in enumerate(rows):
            assert got[i] == fraction_acute(a[i], b[i], c[i])
            if kind == "collinear":
                assert not got[i]
