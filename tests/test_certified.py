"""Bulk certification of borderline births and tied edge runs.

The per-triangle births loop and the Fraction-keyed tie sort that the bulk
paths replaced are kept here as references: the pipeline must reproduce
them bit for bit, with the compiled kernels loaded and without them, and
must leave to rational arithmetic only what it cannot certify.
"""

import logging
import math
from fractions import Fraction

import numpy as np
import pytest

from holecount import _fastdel, hole_persistence
from holecount.delaunay import (
    Cloud,
    EdgeTable,
    Triangulation,
    edges_sorted_desc,
    triangulate,
)
from holecount.forest import triangle_births
from holecount.predicates import Point2, circumradius, is_acute

ACUTE_BAND = 1e-12


@pytest.fixture(params=["kernels", "fallback"])
def backend(request, monkeypatch):
    if request.param == "kernels":
        if _fastdel.KERNELS is None:
            pytest.skip("compiled kernels unavailable (no C compiler)")
    else:
        monkeypatch.setattr(_fastdel, "KERNELS", None)
    return request.param


def reference_births(tri):
    """Float pass plus an exact per-triangle loop over every borderline
    triangle."""
    pts = tri.points
    a, b, c = (pts[tri.triangles[:, j]] for j in range(3))
    ab = ((b - a) ** 2).sum(axis=1)
    bc = ((c - b) ** 2).sum(axis=1)
    ca = ((a - c) ** 2).sum(axis=1)
    total = ab + bc + ca
    longest = np.maximum(ab, np.maximum(bc, ca))
    gap = total - 2.0 * longest
    acute = gap > ACUTE_BAND * total
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
        b[:, 1] - a[:, 1]
    ) * (c[:, 0] - a[:, 0])
    births = np.zeros(len(tri.triangles))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        radius = np.maximum(np.sqrt(ab * bc * ca) / (2.0 * np.abs(cross)),
                            0.5 * np.sqrt(longest))
    births[acute] = radius[acute]
    for t in np.flatnonzero(np.abs(gap) <= ACUTE_BAND * total):
        i, j, k = (Point2(*pts[v]) for v in tri.triangles[t])
        if is_acute(i, j, k):
            d2 = max(
                (j.x - i.x) ** 2 + (j.y - i.y) ** 2,
                (k.x - j.x) ** 2 + (k.y - j.y) ** 2,
                (i.x - k.x) ** 2 + (i.y - k.y) ** 2,
            )
            births[t] = max(circumradius(i, j, k), 0.5 * math.sqrt(d2))
        else:
            births[t] = 0.0
    return births


def reference_order(tri):
    """Stable float sort, each tied run re-sorted with Fraction keys."""
    len_sq = tri.edge_length_sq
    order = np.argsort(-len_sq, kind="stable")
    sorted_len = len_sq[order]
    breaks = np.flatnonzero(sorted_len[:-1] != sorted_len[1:]) + 1
    bounds = np.concatenate(([0], breaks, [len(order)]))

    def key(i):
        v0, v1 = (int(v) for v in tri.edge_vertices[i])
        dx = Fraction(float(tri.points[v1, 0])) - Fraction(float(tri.points[v0, 0]))
        dy = Fraction(float(tri.points[v1, 1])) - Fraction(float(tri.points[v0, 1]))
        return (-(dx * dx + dy * dy), v0, v1)

    for s, e in zip(bounds[:-1], bounds[1:]):
        if e - s >= 2:
            order[s:e] = sorted(order[s:e], key=key)
    return order


def fallback_counts(caplog):
    """(triangles re-decided one by one, runs sorted with Fraction keys)
    summed over the DEBUG counter lines logged so far."""
    births = sum(r.args[1] for r in caplog.records if r.name == "holecount.forest")
    runs = sum(r.args[1] for r in caplog.records if r.name == "holecount.delaunay")
    return births, runs


def lattice(m, seed=0):
    g = np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2)
    return g[np.random.default_rng(seed).permutation(len(g))].astype(np.float64)


def scaled(tri, k):
    """The triangulation with its points scaled by 2**k, exact for the
    exponents used here; the triangles stay Delaunay."""
    pts = np.ldexp(tri.points, k)
    d = pts[tri.edge_vertices[:, 1]] - pts[tri.edge_vertices[:, 0]]
    return Triangulation(points=pts, edge_vertices=tri.edge_vertices,
                         edge_faces=tri.edge_faces,
                         edge_length_sq=d[:, 0] ** 2 + d[:, 1] ** 2,
                         triangles=tri.triangles)


def assert_matches_reference(tri):
    births = triangle_births(tri)
    assert births.tobytes() == reference_births(tri).tobytes()
    assert edges_sorted_desc(tri).tolist() == reference_order(tri).tolist()


TRANSFORMS = {
    "identity": lambda p: p,
    "rotate90": lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),
    "reflect": lambda p: np.stack([-p[:, 0], p[:, 1]], axis=1),
}


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
@pytest.mark.parametrize("k", [-300, -151, -1, 0, 1, 52, 151, 300])
def test_scaled_lattices_certified(backend, transform, k, caplog):
    caplog.set_level(logging.DEBUG)
    tri = scaled(triangulate(Cloud.from_points(TRANSFORMS[transform](lattice(6, seed=k + 300)))), k)
    assert_matches_reference(tri)
    assert fallback_counts(caplog) == (0, 0)


def test_lattice_with_ulp_moves(backend, caplog):
    caplog.set_level(logging.DEBUG)
    pts = lattice(8, seed=3)
    for i in (5, 17, 40):
        pts[i, i % 2] = np.nextafter(pts[i, i % 2], np.inf)
    assert_matches_reference(triangulate(Cloud.from_points(pts)))
    births_loop, runs_fraction = fallback_counts(caplog)
    assert births_loop + runs_fraction > 0


# borderline triangles (within 1e-12 of a right angle, relatively) whose
# three vertex dot products are exact: one acute, one obtuse
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
    assert fallback_counts(caplog) == (0, 0)


@pytest.mark.parametrize("pts,acute", [(NEAR_RIGHT_ACUTE, True), (NEAR_RIGHT_OBTUSE, False)])
def test_near_right_triangles_certified(backend, pts, acute, caplog):
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points(pts))
    assert_matches_reference(tri)
    assert (triangle_births(tri)[0] > 0) == acute
    assert [r.args for r in caplog.records if r.name == "holecount.forest"][0] == (1, 0)


def test_tenth_lattice_falls_back(backend, caplog):
    # coordinates 0.1 * i: squared lengths round, so nothing is certified
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points(0.1 * lattice(7, seed=4)))
    assert_matches_reference(tri)
    births_loop, runs_fraction = fallback_counts(caplog)
    assert births_loop > 0 and runs_fraction > 0


def test_lattice_20_needs_no_fraction(caplog):
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points(lattice(20)))
    triangle_births(tri)
    edges_sorted_desc(tri)
    assert fallback_counts(caplog) == (0, 0)
    certified = [r.args[0] for r in caplog.records
                 if r.name in ("holecount.forest", "holecount.delaunay")]
    assert len(certified) == 2 and min(certified) > 0


def test_inexact_right_triangle_goes_to_fraction(caplog):
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points([(0, 0), (0.1, 0), (0.1, 0.3)]))
    assert triangle_births(tri).tolist() == [0.0]
    assert fallback_counts(caplog)[0] >= 1


def test_lattice_100_closed_form(caplog):
    caplog.set_level(logging.DEBUG)
    m = 100
    pairs = hole_persistence(Cloud.from_points(lattice(m, seed=9))).pairs
    assert len(pairs) == (m - 1) ** 2
    assert np.abs(pairs - [0.5, math.sqrt(2.0) / 2.0]).max() <= 1e-12
    assert fallback_counts(caplog) == (0, 0)


def test_stored_lengths_must_match_points(caplog):
    # a tied run whose stored squared lengths disagree with the points is
    # not certified: the Fraction keys order it by the points' lengths
    tri = triangulate(Cloud.from_points([(0, 0), (1, 0), (1, 2), (0, 1)]))
    tied = EdgeTable(tri.points, tri.edge_vertices, tri.edge_faces,
                     np.ones(tri.num_edges))
    caplog.set_level(logging.DEBUG)
    assert edges_sorted_desc(tied).tolist() == reference_order(tied).tolist()
    assert fallback_counts(caplog) == (0, 1)


def test_rounded_length_sum_not_certified(backend, caplog):
    # |(0,0)-(0,2^30)|^2 = 2^60 and |(0,0)-(2^30,1)|^2 = 2^60 + 1 tie in
    # floating point although both products are exact: the sum rounds
    caplog.set_level(logging.DEBUG)
    tri = triangulate(Cloud.from_points([(0, 0), (0, 2.0 ** 30), (2.0 ** 30, 1)]))
    order = edges_sorted_desc(tri)
    assert order.tolist() == reference_order(tri).tolist()
    assert tri.edge_vertices[order[1]].tolist() == [0, 2]
    assert fallback_counts(caplog) == (0, 1)
