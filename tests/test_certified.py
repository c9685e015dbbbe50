"""Exact decision of borderline births, and edge ties in any order.

A per-triangle births loop is kept here as a reference: the births must
reproduce it bit for bit, with the compiled kernels loaded and without
them, and must leave to Python ints only the rows that int64 cannot hold.  The edge sort compares float lengths alone and
leaves the order inside a tie unspecified; the Fraction-keyed tie sort it
replaced is kept as a reference order, and any order of equally long edges,
that one included, must give the same pairs.
"""

import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holecount import Diagram, _fastdel, hole_persistence
from holecount.delaunay import (Cloud, DroppedPointsWarning, Triangulation,
                                edges_sorted_desc, triangulate)
from holecount.forest import sweep_pairs, triangle_births

from conftest import AXIS_MAPS, edge_vertices, float_circumradius, fraction_acute

ACUTE_BAND = 1e-12


def borderline(tri):
    """Triangles within the relative band around a right angle that the
    float pass leaves to the exact pass."""
    pts = tri.points
    a, b, c = (pts[tri.triangles[:, j]] for j in range(3))
    ab = ((b - a) ** 2).sum(axis=1)
    bc = ((c - b) ** 2).sum(axis=1)
    ca = ((a - c) ** 2).sum(axis=1)
    total = ab + bc + ca
    gap = total - 2.0 * np.maximum(ab, np.maximum(bc, ca))
    return np.flatnonzero(np.abs(gap) <= ACUTE_BAND * total)


def reference_births(tri):
    """A float acuteness test outside the band around a right angle, an
    exact one inside it, and `float_circumradius`, one triangle at a time,
    for every acute triangle."""
    pts = tri.points
    a, b, c = (pts[tri.triangles[:, j]] for j in range(3))
    ab = ((b - a) ** 2).sum(axis=1)
    bc = ((c - b) ** 2).sum(axis=1)
    ca = ((a - c) ** 2).sum(axis=1)
    total = ab + bc + ca
    acute = total - 2.0 * np.maximum(ab, np.maximum(bc, ca)) > ACUTE_BAND * total
    for t in borderline(tri):
        acute[t] = fraction_acute(*(pts[v].tolist() for v in tri.triangles[t]))
    births = np.zeros(len(tri.triangles))
    for t in np.flatnonzero(acute):
        births[t] = float_circumradius(*(pts[v].tolist() for v in tri.triangles[t]))
    return births


def reference_order(tri):
    """Stable float sort, each tied run re-sorted with Fraction keys."""
    len_sq = tri.edge_length_sq
    order = np.argsort(-len_sq, kind="stable")
    sorted_len = len_sq[order]
    breaks = np.flatnonzero(sorted_len[:-1] != sorted_len[1:]) + 1
    bounds = np.concatenate(([0], breaks, [len(order)]))
    ends = edge_vertices(tri)

    def key(i):
        v0, v1 = (int(v) for v in ends[i])
        dx = Fraction(float(tri.points[v1, 0])) - Fraction(float(tri.points[v0, 0]))
        dy = Fraction(float(tri.points[v1, 1])) - Fraction(float(tri.points[v0, 1]))
        return (-(dx * dx + dy * dy), v0, v1)

    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s >= 2:
            order[s:e] = sorted(order[s:e], key=key)
    return order


def fallback_counts(caplog):
    """Borderline triangles decided in Python ints, summed over the DEBUG
    counter lines logged so far."""
    return sum(r.args[1] for r in caplog.records if r.name == "holecount.forest")


def swept(tri, births, order):
    """The sorted pair array of one sweep over the edges in this order."""
    pairs, _ = sweep_pairs(births.copy(), tri.edge_faces, tri.edge_length_sq, order)
    return Diagram.from_pairs(pairs).pairs


def lattice(m, seed=0):
    g = np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2)
    return g[np.random.default_rng(seed).permutation(len(g))].astype(np.float64)


def scaled(tri, k):
    """The triangulation with its points scaled by 2**k, exact for the
    exponents used here; the triangles stay Delaunay."""
    pts = np.ldexp(tri.points, k)
    ends = edge_vertices(tri)
    d = pts[ends[:, 1]] - pts[ends[:, 0]]
    return Triangulation(points=pts, edge_faces=tri.edge_faces,
                         edge_length_sq=d[:, 0] ** 2 + d[:, 1] ** 2,
                         triangles=tri.triangles)


def assert_matches_reference(tri):
    births = triangle_births(tri)
    assert births.tobytes() == reference_births(tri).tobytes()
    pairs = swept(tri, births, edges_sorted_desc(tri.edge_length_sq))
    assert pairs.tobytes() == swept(tri, births, reference_order(tri)).tobytes()


@pytest.mark.parametrize("transform", sorted(AXIS_MAPS))
@pytest.mark.parametrize("k", [-300, -151, -1, 0, 1, 52, 151, 300])
def test_scaled_lattices_certified(backend, transform, k, caplog):
    caplog.set_level(logging.DEBUG)
    tri = scaled(triangulate(Cloud.from_points(AXIS_MAPS[transform](lattice(6, seed=k + 300)))), k)
    assert_matches_reference(tri)
    assert fallback_counts(caplog) == 0


def test_lattice_with_ulp_moves(backend, caplog):
    caplog.set_level(logging.DEBUG)
    pts = lattice(8, seed=3)
    for i in (5, 17, 40):
        pts[i, i % 2] = np.nextafter(pts[i, i % 2], np.inf)
    assert_matches_reference(triangulate(Cloud.from_points(pts)))
    assert fallback_counts(caplog) > 0


# borderline triangles (within 1e-12 of a right angle, relatively) whose
# integer coordinates stay below 2**30, so int64 decides them: one acute,
# one obtuse
NEAR_RIGHT_ACUTE = [(-271, 264), (950921, 937495), (-800395543, 812318231)]
NEAR_RIGHT_OBTUSE = [(732, 1019), (-376729, -10340), (6327695, -210244756)]


@pytest.mark.parametrize("a,b", [(3, 4), (5, 12), (8, 15), (20, 21)])
def test_pythagorean_right_triangles(backend, a, b, caplog):
    # a square with integer sides of length sqrt(a^2 + b^2), turned off
    # the axes, alone and next to the near-right triangles
    square = [(0, 0), (a, b), (a - b, a + b), (-b, a)]
    caplog.set_level(logging.DEBUG)
    for pts in (square, square + [(x + 5000, y) for x, y in NEAR_RIGHT_OBTUSE]):
        assert_matches_reference(triangulate(Cloud.from_points(pts)))
    assert fallback_counts(caplog) == 0


@pytest.mark.parametrize("pts,acute", [(NEAR_RIGHT_ACUTE, True), (NEAR_RIGHT_OBTUSE, False)])
def test_near_right_triangles_certified(backend, pts, acute, caplog):
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points(pts))
    assert_matches_reference(tri)
    assert (triangle_births(tri)[0] > 0) == acute
    assert [r.args for r in caplog.records if r.name == "holecount.forest"][0] == (1, 0)


def test_tenth_lattice_falls_back(backend, caplog):
    # coordinates 0.1 * i need more than 30 bits at their row's top
    # exponent, so the right triangles go to Python ints
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points(0.1 * lattice(7, seed=4)))
    assert_matches_reference(tri)
    assert fallback_counts(caplog) > 0


def test_decimal_lattice_decided_exactly(backend, caplog):
    # spacing 0.05: no row fits the int64 form, so every borderline
    # triangle goes to Python ints
    caplog.set_level(logging.DEBUG)
    pts = np.stack(np.meshgrid(np.arange(30), np.arange(30)), axis=-1).reshape(-1, 2) * 0.05
    tri = triangulate(Cloud.from_points(pts))
    assert triangle_births(tri).tobytes() == reference_births(tri).tobytes()
    assert fallback_counts(caplog) == len(borderline(tri)) > 0


def test_lattice_20_needs_no_fraction(caplog):
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points(lattice(20)))
    triangle_births(tri)
    assert fallback_counts(caplog) == 0
    certified = [r.args[0] for r in caplog.records if r.name == "holecount.forest"]
    assert len(certified) == 1 and certified[0] > 0


def test_inexact_right_triangle_goes_to_fraction(caplog):
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points([(0, 0), (0.1, 0), (0.1, 0.3)]))
    assert triangle_births(tri).tolist() == [0.0]
    assert fallback_counts(caplog) >= 1


def test_lattice_100_closed_form(caplog):
    caplog.set_level(logging.DEBUG)
    m = 100
    pairs = hole_persistence(Cloud.from_points(lattice(m, seed=9))).pairs
    assert len(pairs) == (m - 1) ** 2
    assert np.abs(pairs - [0.5, math.sqrt(2.0) / 2.0]).max() <= 1e-12
    assert fallback_counts(caplog) == 0


def test_rounded_length_sum_not_certified(backend, caplog):
    # |(0,0)-(0,2^30)|^2 = 2^60 and |(0,0)-(2^30,1)|^2 = 2^60 + 1 tie in
    # floating point although both products are exact: the sum rounds, and
    # the sort does not tell them apart
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points([(0, 0), (0, 2.0 ** 30), (2.0 ** 30, 1)]))
    first, second = edges_sorted_desc(tri.edge_length_sq)[1:]
    assert tri.edge_length_sq[first] == tri.edge_length_sq[second]
    assert_matches_reference(tri)
    assert fallback_counts(caplog) == 0


@st.composite
def tied_clouds(draw):
    """Integer, 0.1-spaced and hex lattices, random subsets of them, and
    uniform clouds, each with a few points moved by one ulp or by 1e-9 next
    to their originals."""
    kind = draw(st.sampled_from(["integer", "tenth", "hex", "uniform"]))
    m = draw(st.integers(3, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    i, j = (g.ravel() for g in np.meshgrid(np.arange(m), np.arange(m)))
    if kind == "hex":
        pts = np.stack([i + 0.5 * (j % 2), j * (math.sqrt(3.0) / 2.0)], axis=1)
    elif kind == "uniform":
        pts = rng.random((m * m, 2))
    else:
        pts = np.stack([i, j], axis=1) * (0.1 if kind == "tenth" else 1.0)
    # rows 0, 1 and m of a lattice are (0,0), (1,0) and (0,1): keeping
    # those three corners keeps the subset from being collinear
    keep = rng.random(len(pts)) < draw(st.floats(0.4, 1.0))
    keep[[0, 1, m]] = True
    pts = pts[keep]
    count = min(draw(st.integers(0, 6)), len(pts))
    near = pts[rng.choice(len(pts), count, replace=False)]
    rows, axis = np.arange(len(near)), rng.integers(0, 2, len(near))
    if draw(st.booleans()):
        near[rows, axis] = np.nextafter(near[rows, axis], np.inf)
    else:
        near[rows, axis] += 1e-9
    return rng.permutation(np.vstack([pts, near]))


@given(tied_clouds(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_tie_order_cannot_move_a_pair(backend, pts, seed):
    with warnings.catch_warnings():
        if backend == "kernels":  # the builder keeps every point
            warnings.simplefilter("error", DroppedPointsWarning)
        tri = triangulate(Cloud.from_points(pts))
    births = triangle_births(tri)
    expected = swept(tri, births, edges_sorted_desc(tri.edge_length_sq))
    assert (expected[:, 1] > expected[:, 0]).all()
    rng = np.random.default_rng(seed)
    for _ in range(5):
        ties = rng.permutation(tri.num_edges)
        order = np.lexsort((ties, -tri.edge_length_sq))
        assert swept(tri, births, order).tobytes() == expected.tobytes()


def _pair_bytes(pts):
    return hole_persistence(Cloud.from_points(pts)).pairs.tobytes()


@st.composite
def uniform_clouds(draw):
    """A uniform cloud, in general position almost surely, scaled by a power
    of two.  No offset: one large against the cloud's span leaves Qhull,
    which is not exact, free to cut a nearly cocircular cell either way."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return np.ldexp(rng.random((draw(st.integers(3, 200)), 2)), draw(st.integers(-20, 20)))


@st.composite
def integer_lattices(draw):
    """An m x l integer lattice in random order, spaced by a power of two
    and moved by an integer offset: every cell is cocircular."""
    m, l = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    grid = np.stack(np.meshgrid(np.arange(m), np.arange(l)), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    pts = np.ldexp(grid[rng.permutation(len(grid))].astype(np.float64),
                   draw(st.integers(-3, 3)))
    return pts + draw(st.tuples(st.integers(-50, 50), st.integers(-50, 50)))


def _assert_symmetric(pts, seed):
    # births read each triangle's point set alone, so every axis map and a
    # permutation leave the pairs bit for bit
    expected = _pair_bytes(pts)
    for name, axis_map in AXIS_MAPS.items():
        assert _pair_bytes(axis_map(pts)) == expected, name
    perm = np.random.default_rng(seed).permutation(len(pts))
    assert _pair_bytes(pts[perm]) == expected


@given(uniform_clouds(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_axis_maps_keep_pairs(backend, pts, seed):
    _assert_symmetric(pts, seed)


@pytest.mark.skipif(_fastdel.KERNELS is None,
                    reason="compiled kernels unavailable (no C compiler)")
@given(integer_lattices(), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_axis_maps_keep_lattice_pairs(pts, seed):
    # the builder cuts each cocircular cell by its perturbation, which the
    # maps do not commute with, but every cell still holds one hole
    _assert_symmetric(pts, seed)
