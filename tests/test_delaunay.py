"""Triangulation structure, combinatorial counts, and the edge sort order."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull

from holecount.delaunay import (
    EXTERNAL,
    AllCollinearError,
    Cloud,
    DroppedPointsWarning,
    DuplicatePointsWarning,
    TooFewPointsError,
    _qhull_triangles,
    edges_sorted_desc,
    triangulate,
)
from holecount import _fastdel
from holecount._fastdel import build_triangulation
from holecount.forest import hole_persistence
from holecount.oracles import incircle_exact, orient_exact
from holecount.samplers import ShapeSpec, sample_shape

from conftest import edge_vertices, parabola_cloud, random_cloud


def adjacency(tris, neigh):
    """Each edge's two sides, as the vertex sets of its triangles and -1
    for the outside.  Every link is read from both of its triangles, so a
    link that is not mutual fails here."""
    faces = [frozenset(row) for row in tris.tolist()]
    sides_of = {}
    for face, row, links in zip(faces, tris.tolist(), neigh.tolist()):
        for j, nb in enumerate(links):
            edge = frozenset((row[(j + 1) % 3], row[(j + 2) % 3]))
            sides = frozenset((face, faces[nb] if nb >= 0 else -1))
            assert sides_of.setdefault(edge, sides) == sides, edge
    return sides_of


class TestCloud:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Cloud.from_points(np.zeros((4, 3)))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Cloud.from_points([(0, 0), (1, np.nan), (2, 2)])
        with pytest.raises(ValueError):
            Cloud.from_points([(0, 0), (np.inf, 1), (2, 2)])

    def test_duplicates_removed_with_warning(self):
        with pytest.warns(DuplicatePointsWarning):
            cloud = Cloud.from_points([(0, 0), (1, 0), (0, 1), (1, 0)])
        assert cloud.n == 3

    def test_order_preserved_after_dedup(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cloud = Cloud.from_points([(5, 5), (1, 0), (5, 5), (0, 1)])
        assert cloud.points.tolist() == [[5, 5], [1, 0], [0, 1]]


def _lattice(m):
    return np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2) * 1.0


def _hex_lattice(m):
    i, j = (g.ravel() for g in np.meshgrid(np.arange(m), np.arange(m)))
    return np.stack([i + 0.5 * (j % 2), j * (np.sqrt(3.0) / 2.0)], axis=1)


def _pythagorean_circles():
    # every integer point on the circles of radius 5, 13 and 25, and the centre
    r = np.arange(-25, 26)
    x, y = (g.ravel() for g in np.meshgrid(r, r))
    on = np.isin(x * x + y * y, [0, 25, 169, 625])
    return np.stack([x[on], y[on]], axis=1) * 1.0


def _regular_gon(m):
    angle = 2.0 * np.pi * np.arange(m) / m
    return np.vstack([np.stack([np.cos(angle), np.sin(angle)], axis=1), [(0.0, 0.0)]])


def _mixed_sign_lattice():
    # an uneven grid, all of whose rectangles are cocircular cells, with its
    # corners at +-(2^28 - 1)
    top = 2.0 ** 28 - 1.0
    ticks = np.array([-top, -2.0 ** 27, -1.0, 0.0, 1.0, 2.0 ** 27, top])
    return np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2)


def _lattice_with_ulp_moves():
    pts = _lattice(20)
    for i in (45, 217, 390):
        pts[i, i % 2] = np.nextafter(pts[i, i % 2], np.inf)
    return pts


def _collinear_runs():
    # runs on all three sides of a right triangle, and two inside it
    i = np.arange(13.0)
    return np.vstack([np.stack([i, np.zeros(13)], axis=1),
                      np.stack([np.zeros(12), i[1:]], axis=1),
                      np.stack([i[1:-1], 12.0 - i[1:-1]], axis=1),
                      np.stack([i[1:9], np.full(8, 3.0)], axis=1),
                      np.stack([i[1:5], i[1:5] + 3.0], axis=1)])


def perturbed_incircle(p, a, b, c, d):
    """incircle_exact of point d against CCW triangle (a, b, c) of the
    points p, with a tie broken by lifting the points by infinitesimals that
    grow with their (x, y) order: +1 inside, -1 outside."""
    sign = incircle_exact(p[a], p[b], p[c], p[d])
    if sign:
        return sign
    top = max((a, b, c, d), key=lambda v: tuple(p[v]))
    if top == d:
        return -1
    return orient_exact(*(p[d] if v == top else p[v] for v in (a, b, c)))


DEGENERATE_CLOUDS = {
    "lattice-20": lambda: _lattice(20),
    "lattice-50-permuted": lambda: np.random.default_rng(1).permutation(_lattice(50)),
    "hex": lambda: _hex_lattice(12),
    "12-gon-centre": lambda: _regular_gon(12),
    "pythagorean": _pythagorean_circles,
    "rounded-1/20": lambda: np.random.default_rng(2).permutation(
        np.unique(np.round(20.0 * np.random.default_rng(2).random((200, 2))) / 20.0, axis=0)),
    "lattice-offset-1e8": lambda: _lattice(6) + 1e8,
    "line-and-one-point": lambda: np.vstack([np.stack([np.arange(30.0), 0.5 * np.arange(30.0)],
                                                      axis=1), [(3.0, 7.0)]]),
    "collinear-runs": _collinear_runs,
    # both sides of the builder's once-per-cloud underflow check, which
    # arms when a nonzero coordinate is below 2^-200: armed on the uniform
    # clouds (at 2^-250 and 2^-260 the filters then hand thousands of
    # predicates to the exact stage), not armed on [1, 2) * 2^-200
    **{f"uniform-2^{e}": (lambda e=e: np.random.default_rng(6).random((200, 2)) * 2.0 ** e)
       for e in (-199, -200, -201, -250, -260)},
    "uniform-[1,2)*2^-200": lambda: (1.0 + np.random.default_rng(6).random((200, 2)))
                                    * 2.0 ** -200,
    # the edge cases of the integer stage, which decides predicates whose
    # coordinates are integers below 2^28 times one power of two: that power
    # near the top of the double range, subnormal coordinates, and integers
    # at the bound on both sides of 0
    "lattice-6*2^1000": lambda: _lattice(6) * 2.0 ** 1000,
    "lattice-6*2^-1060": lambda: _lattice(6) * 2.0 ** -1060,
    "lattice-(2^28-1)-mixed-sign": _mixed_sign_lattice,
    # three coordinates one ulp off the grid: the predicates at those points
    # reach the long double stage, the rest stay in integers
    "lattice-20-ulp-moves": _lattice_with_ulp_moves,
}


class TestTriangulate:
    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            triangulate(Cloud.from_points([(0, 0), (1, 1)]))

    def test_collinear(self, monkeypatch):
        # on both backends: the builder's collinear exit, and Qhull's error;
        # the repeats leave the cloud collinear after dedup
        diagonal = np.array([(0, 0), (1, 1), (2, 2), (3, 3)], dtype=np.float64)
        x = np.random.default_rng(0).integers(0, 40, 300) / 8.0
        with_repeats = np.stack([x, 0.75 * x - 2.0], axis=1)
        for kernels in {_fastdel.KERNELS, None}:
            monkeypatch.setattr(_fastdel, "KERNELS", kernels)
            for pts in (diagonal, with_repeats):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DuplicatePointsWarning)
                    cloud = Cloud.from_points(pts)
                with pytest.raises(AllCollinearError):
                    triangulate(cloud)

    def test_unit_square_counts(self):
        tri = triangulate(Cloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)]))
        assert tri.num_triangles == 2
        assert tri.num_edges == 5
        assert tri.hull_edge_count == 4

    def test_single_triangle(self):
        tri = triangulate(Cloud.from_points([(0, 0), (2, 0), (1, 1.7)]))
        assert tri.num_triangles == 1
        assert tri.num_edges == 3
        assert all(f1 == EXTERNAL for f1 in tri.edge_faces[:, 1])

    @pytest.mark.parametrize("seed,n", [(7, 1000), (0, 50), (3, 200)])
    def test_euler_counts_vs_hull_oracle(self, seed, n):
        cloud = random_cloud(seed, n)
        tri = triangulate(cloud)
        b = len(ConvexHull(cloud.points).vertices)
        assert tri.num_triangles == 2 * n - b - 2
        assert tri.num_edges == 3 * n - b - 3
        assert tri.hull_edge_count == b

    def test_triangles_are_ccw(self):
        tri = triangulate(random_cloud(11, 80))
        pts = tri.points
        a = pts[tri.triangles[:, 0]]
        b = pts[tri.triangles[:, 1]]
        c = pts[tri.triangles[:, 2]]
        cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (
            b[:, 1] - a[:, 1]
        ) * (c[:, 0] - a[:, 0])
        assert (cross > 0).all()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_empty_circumcircle_exact(self, seed):
        cloud = random_cloud(seed, 40)
        tri = triangulate(cloud)
        pts = cloud.points.tolist()
        for verts in tri.triangles:
            a, b, c = (pts[v] for v in verts)
            for i, d in enumerate(pts):
                if i in verts:
                    continue
                assert incircle_exact(a, b, c, d) < 1

    def test_each_internal_edge_has_two_real_faces(self):
        tri = triangulate(random_cloud(5, 60))
        internal = tri.edge_faces[tri.edge_faces[:, 1] != EXTERNAL]
        assert (internal[:, 0] != internal[:, 1]).all()
        assert (internal >= 0).all()

    @pytest.mark.parametrize("backend", ["kernels", "fallback"])
    @pytest.mark.parametrize("shape", ["random", "parabola", "lattice"])
    def test_edge_table_matches_triangles(self, backend, shape, monkeypatch):
        # the lattice is cocircular everywhere: the builder cuts its cells by
        # the perturbation, Qhull by its own rule, and each table reads the
        # triangles of its path
        if backend == "fallback":
            monkeypatch.setattr(_fastdel, "KERNELS", None)
        elif _fastdel.KERNELS is None:
            pytest.skip("compiled kernels unavailable (no C compiler)")
        grid = np.stack(np.meshgrid(np.arange(20), np.arange(20)), axis=-1).reshape(-1, 2)
        cloud = {"random": lambda: random_cloud(9, 60),
                 "parabola": lambda: parabola_cloud(3, 300),
                 "lattice": lambda: Cloud.from_points(grid)}[shape]()
        tri = triangulate(cloud)
        pts, k = tri.points, tri.num_triangles
        # Euler: k triangles on all n points leave h = 2n - 2 - k hull edges
        h = 2 * tri.n - 2 - k
        assert tri.num_edges == (3 * k + h) // 2
        ends = edge_vertices(tri)
        assert len(ends) == tri.num_edges and (ends[:, 0] < ends[:, 1]).all()
        keys = ends[:, 0].astype(np.int64) * tri.n + ends[:, 1]
        assert len(np.unique(keys)) == len(keys)  # no edge repeats

        faces_of = [set() for _ in range(tri.n)]
        for t, verts in enumerate(tri.triangles.tolist()):
            for v in verts:
                faces_of[v].add(t)
        for (u, v), faces in zip(ends.tolist(), tri.edge_faces.tolist()):
            both = sorted(faces_of[u] & faces_of[v])
            assert faces == (both if len(both) == 2 else both + [EXTERNAL])
        d = pts[ends[:, 1]] - pts[ends[:, 0]]
        assert tri.edge_length_sq.tobytes() == (d ** 2).sum(axis=1).tobytes()

    @pytest.mark.parametrize("seed", [1, 4, 12])
    def test_shuffle_preserves_edge_length_multiset(self, seed):
        cloud = random_cloud(seed, 120)
        rng = np.random.default_rng(seed + 1000)
        shuffled = Cloud.from_points(rng.permutation(cloud.points, axis=0))
        l1 = np.sort(triangulate(cloud).edge_length_sq)
        l2 = np.sort(triangulate(shuffled).edge_length_sq)
        assert np.array_equal(l1, l2)

    @pytest.mark.skipif(_fastdel.KERNELS is None,
                        reason="compiled kernels unavailable (no C compiler)")
    @pytest.mark.parametrize("seed", range(10))
    def test_incremental_matches_qhull(self, seed):
        # besides a uniform cloud, clouds whose insertions flip across ghost
        # edges: convex position, a thin strip, extreme magnitudes
        rng = np.random.default_rng(seed)
        clouds = {
            "uniform": random_cloud(seed, 250).points,
            "parabola": parabola_cloud(seed, 250).points,
            "strip": rng.random((250, 2)) * [1.0, 1e-3],
            "scaled": rng.random((250, 2)) * 2.0 ** (200 if seed % 2 else -200),
        }
        for kind, pts in clouds.items():
            fast = build_triangulation(pts, Cloud.from_points(pts).order)
            assert fast is not None, kind
            assert adjacency(*fast) == adjacency(*_qhull_triangles(pts)), kind

    def test_collinear_start_keeps_every_vertex(self):
        # the first points in insertion order lie on one line; none of them
        # may be dropped while the builder looks for a first triangle
        rng = np.random.default_rng(3)
        pts = np.vstack([[(0.0, 0.0), (1e-3, 0.0), (2e-3, 0.0)],
                         0.5 + 0.5 * rng.random((50, 2))])
        tri = triangulate(Cloud.from_points(pts))
        assert set(tri.triangles.ravel().tolist()) == set(range(len(pts)))

    @pytest.mark.parametrize("exponent", [-300, -260, -200, 250])
    def test_power_of_two_scaling_keeps_triangles(self, exponent):
        # scaling by a power of two is exact, so the Delaunay triangles must
        # not change; underflow must not slip past the float filters
        cloud = random_cloud(1, 300)
        scaled = Cloud.from_points(cloud.points * 2.0 ** exponent)
        canon = lambda t: {tuple(sorted(row)) for row in t.tolist()}
        assert canon(triangulate(scaled).triangles) == canon(triangulate(cloud).triangles)

    def test_qhull_dropping_points_warns(self, monkeypatch):
        # offset by 10**8, Qhull keeps 4 of a 6x6 lattice's 36 points
        monkeypatch.setattr(_fastdel, "KERNELS", None)
        grid = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2)
        with pytest.warns(DroppedPointsWarning, match="32 of 36"):
            triangulate(Cloud.from_points(grid + 1e8))

    @pytest.mark.skipif(_fastdel.KERNELS is None,
                        reason="compiled kernels unavailable (no C compiler)")
    def test_builder_keeps_offset_lattice(self):
        # the lattice Qhull cuts down to 4 points keeps all 36 in the
        # builder, and each of its 25 cells holds one hole
        grid = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2)
        cloud = Cloud.from_points(grid + 1e8)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DroppedPointsWarning)
            tri = triangulate(cloud)
            pairs = hole_persistence(cloud).pairs
        assert len(np.unique(tri.triangles)) == 36
        assert len(pairs) == 25
        assert np.abs(pairs - [0.5, np.sqrt(2.0) / 2.0]).max() <= 1e-12

    @pytest.mark.parametrize("shape", ["lattice", "wheel"])
    def test_qhull_keeping_every_point_is_silent(self, shape):
        if shape == "lattice":
            pts = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2) + 1e6
        else:
            pts = sample_shape(ShapeSpec.wheel(6), 3000, noise=0.01, seed=0).points
        with warnings.catch_warnings():
            warnings.simplefilter("error", DroppedPointsWarning)
            tris, _ = _qhull_triangles(pts)
        assert len(np.unique(tris)) == len(pts)

    @pytest.mark.skipif(_fastdel.KERNELS is None,
                        reason="compiled kernels unavailable (no C compiler)")
    @pytest.mark.parametrize("kind", list(DEGENERATE_CLOUDS))
    def test_builder_certified_exactly(self, kind):
        # an exact oracle, not the kernel's predicates, certifies the
        # builder's triangles on cocircular and collinear input: all points
        # are vertices, the triangles are CCW, the boundary is a convex
        # cycle, Euler's formula holds with its length, and every interior
        # edge is locally Delaunay once in-circle ties are broken by the
        # perturbation, so the whole is the perturbed Delaunay triangulation
        pts = DEGENERATE_CLOUDS[kind]()
        fast = build_triangulation(pts, Cloud.from_points(pts).order)
        assert fast is not None
        tris, neigh = fast
        n, k, p = len(pts), len(tris), pts.tolist()
        assert np.array_equal(np.unique(tris), np.arange(n))
        assert all(orient_exact(p[a], p[b], p[c]) > 0 for a, b, c in tris.tolist())
        # hull edges (u, w) in CCW order, from the triangle on their left
        succ = {}
        for row, links in zip(tris.tolist(), neigh.tolist()):
            for j, nb in enumerate(links):
                if nb < 0:
                    succ[row[(j + 1) % 3]] = row[(j + 2) % 3]
        h = int(np.count_nonzero(neigh < 0))
        assert len(succ) == h
        start = u = next(iter(succ))
        for _ in range(h):
            w = succ[u]
            assert orient_exact(p[u], p[w], p[succ[w]]) >= 0
            u = w
        assert u == start
        assert k == 2 * n - 2 - h
        assert len(adjacency(tris, neigh)) == 3 * n - 3 - h
        for t, (row, links) in enumerate(zip(tris.tolist(), neigh.tolist())):
            for nb in links:
                if nb > t:
                    far = int(tris[nb][neigh[nb].tolist().index(t)])
                    assert not perturbed_incircle(p, *row, far) > 0
        # the same triangles whatever the insertion order
        canon = lambda t: sorted(map(tuple, np.sort(t, axis=1).tolist()))
        for seed in range(2):
            order = np.random.default_rng(seed).permutation(n)
            assert canon(build_triangulation(pts, order)[0]) == canon(tris)

    def test_cocircular_grid_handled(self):
        # a 3x3 integer grid is full of cocircular 4-tuples; whichever
        # triangulator resolves them, the counts must still close
        pts = [(x, y) for x in range(3) for y in range(3)]
        tri = triangulate(Cloud.from_points(pts))
        b = tri.hull_edge_count
        assert tri.num_triangles == 2 * 9 - b - 2
        assert tri.num_edges == 3 * 9 - b - 3


class TestEdgeSort:
    def test_square_diagonal_first(self):
        tri = triangulate(Cloud.from_points([(0, 0), (1, 0), (1, 1), (0, 1)]))
        order = edges_sorted_desc(tri.edge_length_sq)
        lengths = np.sqrt(tri.edge_length_sq[order])
        assert lengths[0] == pytest.approx(np.sqrt(2.0))
        assert np.allclose(lengths[1:], 1.0)

    def test_equal_lengths_deterministic(self):
        tri = triangulate(Cloud.from_points([(0, 0), (2, 0), (1, np.sqrt(3.0))]))
        orders = [edges_sorted_desc(tri.edge_length_sq).tolist() for _ in range(3)]
        assert orders[0] == orders[1] == orders[2]

    @pytest.mark.parametrize("backend", ["kernels", "fallback"])
    def test_ties_give_int32_descending_permutation(self, backend, monkeypatch):
        if backend == "fallback":
            monkeypatch.setattr(_fastdel, "KERNELS", None)
        elif _fastdel.KERNELS is None:
            pytest.skip("compiled kernels unavailable (no C compiler)")
        few = np.array([1.0, 2.0, 1.0, 0.5, 2.0, 1.0, 0.0, 1.0])
        many = 0.1 * np.random.default_rng(3).integers(0, 50, 5000)
        for length_sq in (few, many):
            order = edges_sorted_desc(length_sq)
            assert order.dtype == np.int32 and order.flags.c_contiguous
            assert np.array_equal(np.sort(order), np.arange(len(length_sq)))
            assert np.all(np.diff(length_sq[order]) <= 0)

    @pytest.mark.parametrize("seed", [2, 8])
    def test_matches_naive_exact_sort(self, seed):
        cloud = random_cloud(seed, 100)
        tri = triangulate(cloud)
        order = edges_sorted_desc(tri.edge_length_sq)
        ends = edge_vertices(tri)

        def exact_sq(i):
            v0, v1 = ends[i]
            dx = Fraction(float(tri.points[v1, 0])) - Fraction(float(tri.points[v0, 0]))
            dy = Fraction(float(tri.points[v1, 1])) - Fraction(float(tri.points[v0, 1]))
            return dx * dx + dy * dy

        naive = sorted(
            range(tri.num_edges),
            key=lambda i: (
                exact_sq(i) * -1,
                int(ends[i, 0]),
                int(ends[i, 1]),
            ),
        )
        assert order.tolist() == naive

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_order_is_permutation(self, seed):
        tri = triangulate(random_cloud(seed, 30))
        order = edges_sorted_desc(tri.edge_length_sq)
        assert sorted(order.tolist()) == list(range(tri.num_edges))
