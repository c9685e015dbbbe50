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
from holecount.oracles import incircle_exact
from holecount.samplers import ShapeSpec, sample_shape

from conftest import parabola_cloud, random_cloud


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


class TestTriangulate:
    def test_too_few_points(self):
        with pytest.raises(TooFewPointsError):
            triangulate(Cloud.from_points([(0, 0), (1, 1)]))

    def test_collinear(self):
        with pytest.raises(AllCollinearError):
            triangulate(Cloud.from_points([(0, 0), (1, 1), (2, 2), (3, 3)]))

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

    def test_edge_endpoints_canonical(self):
        tri = triangulate(random_cloud(9, 60))
        assert (tri.edge_vertices[:, 0] < tri.edge_vertices[:, 1]).all()
        # no duplicate edges
        keys = tri.edge_vertices[:, 0].astype(np.int64) * tri.n + tri.edge_vertices[:, 1]
        assert len(np.unique(keys)) == len(keys)

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
            fast = build_triangulation(pts)
            assert fast is not None, f"incremental builder fell back on {kind}"
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

    def test_qhull_dropping_points_warns(self):
        # offset by 10**8, Qhull keeps 4 of a 6x6 lattice's 36 points
        grid = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2)
        with pytest.warns(DroppedPointsWarning, match="32 of 36"):
            triangulate(Cloud.from_points(grid + 1e8))

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

    def test_cocircular_grid_handled(self):
        # a 3x3 integer grid is full of cocircular 4-tuples; the builder must
        # either resolve them or fall back, and the counts must still close
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

        def exact_sq(i):
            v0, v1 = tri.edge_vertices[i]
            dx = Fraction(float(tri.points[v1, 0])) - Fraction(float(tri.points[v0, 0]))
            dy = Fraction(float(tri.points[v1, 1])) - Fraction(float(tri.points[v0, 1]))
            return dx * dx + dy * dy

        naive = sorted(
            range(tri.num_edges),
            key=lambda i: (
                exact_sq(i) * -1,
                int(tri.edge_vertices[i, 0]),
                int(tri.edge_vertices[i, 1]),
            ),
        )
        assert order.tolist() == naive

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_order_is_permutation(self, seed):
        tri = triangulate(random_cloud(seed, 30))
        order = edges_sorted_desc(tri.edge_length_sq)
        assert sorted(order.tolist()) == list(range(tri.num_edges))
