"""Union-find sweep: case dispatch, elder rule, depth bound, equivalence of
the reference sweep and sweep_pairs."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from holecount import _fastdel
from holecount import forest as forest_mod
from holecount.cli import compute_report
from holecount.delaunay import Cloud, Triangulation, edges_sorted_desc, triangulate
from holecount.forest import (
    CASE_GRAY_JOINS_WHITE,
    CASE_SAME_REGION,
    CASE_TWO_GRAY,
    CASE_WHITE_MERGE,
    DualForest,
    hole_persistence,
    hole_persistence_stats,
    init_forest,
    iter_events,
    sweep_events,
    sweep_pairs,
    triangle_births,
)

from conftest import float_circumradius, fraction_acute, random_cloud


class TestTriangleBirths:
    def test_square_right_triangles_born_gray(self, square2):
        tri = triangulate(square2)
        births = triangle_births(tri)
        assert births.tolist() == [0.0, 0.0]

    def test_equilateral_birth_is_circumradius(self, equilateral2):
        tri = triangulate(equilateral2)
        births = triangle_births(tri)
        assert len(births) == 1
        assert births[0] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-12)

    def test_obtuse_triangle_born_gray(self):
        tri = triangulate(Cloud.from_points([(0, 0), (4, 0), (1, 0.5)]))
        assert triangle_births(tri).tolist() == [0.0]

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_per_triangle_predicates(self, seed):
        cloud = random_cloud(seed, 100)
        tri = triangulate(cloud)
        births = triangle_births(tri)
        for t, verts in enumerate(tri.triangles):
            a, b, c = (tri.points[v].tolist() for v in verts)
            if fraction_acute(a, b, c):
                assert births[t] == float_circumradius(a, b, c)
            else:
                assert births[t] == 0.0

    def test_near_right_birth_is_circumradius(self):
        # 3-4-5 with the right-angle corner pulled outward: acute, and its
        # circumradius lies just above 2.5
        births = triangle_births(triangulate(Cloud.from_points([(-1e-6, -1e-6), (3, 0), (0, 4)])))
        assert births.tolist() == [pytest.approx(2.5, abs=1e-5)]
        assert births[0] > 2.5

    def test_tall_isoceles_against_circumcenter_solve(self):
        a, b, c = (0.0, 0.0), (2.0, 0.0), (1.0, 10.0)
        # independent oracle: intersect the perpendicular bisectors
        mat = 2.0 * np.array([[b[0] - a[0], b[1] - a[1]], [c[0] - a[0], c[1] - a[1]]])
        rhs = np.array([b[0] ** 2 + b[1] ** 2 - a[0] ** 2 - a[1] ** 2,
                        c[0] ** 2 + c[1] ** 2 - a[0] ** 2 - a[1] ** 2])
        center = np.linalg.solve(mat, rhs)
        expected = math.hypot(center[0] - a[0], center[1] - a[1])
        births = triangle_births(triangulate(Cloud.from_points([a, b, c])))
        assert births[0] == pytest.approx(expected, rel=1e-12)

    @given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
                    min_size=3, max_size=3, unique=True))
    @settings(max_examples=200, deadline=None)
    def test_acute_birth_at_least_half_longest_side(self, pts):
        a, b, c = pts
        if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
            return
        births = triangle_births(triangulate(Cloud.from_points(pts)))
        longest = max((q[0] - p[0]) ** 2 + (q[1] - p[1]) ** 2
                      for p, q in ((a, b), (b, c), (c, a)))
        assert (births[0] > 0) == fraction_acute(a, b, c)
        assert births[0] == 0 or births[0] >= 0.5 * math.sqrt(longest)

    @pytest.mark.parametrize("seed", [5, 6])
    def test_birth_at_least_half_longest_edge(self, seed):
        # float-safety invariant: an acute triangle must never be born
        # before its own longest edge enters the offset
        cloud = random_cloud(seed, 300)
        tri = triangulate(cloud)
        births = triangle_births(tri)
        pts = tri.points
        a = pts[tri.triangles[:, 0]]
        b = pts[tri.triangles[:, 1]]
        c = pts[tri.triangles[:, 2]]
        longest = np.maximum(
            ((b - a) ** 2).sum(axis=1),
            np.maximum(((c - b) ** 2).sum(axis=1), ((a - c) ** 2).sum(axis=1)),
        )
        white = births > 0
        assert (births[white] >= 0.5 * np.sqrt(longest[white])).all()


class TestForestPrimitives:
    def _forest(self, births):
        return DualForest(np.asarray(births, dtype=np.float64))

    def test_init_square(self, square2):
        forest = init_forest(triangulate(square2))
        assert forest.num_triangles == 2
        assert forest.birth == [0.0, 0.0, math.inf]
        assert forest.parent == [0, 1, 2]
        assert forest.weight == [0, 0, 0]
        assert forest.links == 0

    def test_find_root_singleton(self):
        forest = self._forest([0.0, 0.0])
        assert forest.find_root(1) == 1

    def test_find_root_chain(self):
        forest = self._forest([1.0, 1.0, 1.0])
        forest.parent[2] = 1
        forest.parent[1] = 0
        assert forest.find_root(2) == 0
        assert forest.max_find_steps == 2

    def test_find_root_does_not_compress(self):
        forest = self._forest([1.0, 1.0, 1.0])
        forest.parent[2] = 1
        forest.parent[1] = 0
        forest.find_root(2)
        assert forest.parent[2] == 1  # chain left intact

    def test_link_gray_to_white(self):
        forest = self._forest([0.0, math.sqrt(2.0)])
        forest.link_gray_to_white(0, 1)
        assert forest.parent[0] == 1
        assert forest.birth[0] == math.sqrt(2.0)
        assert forest.weight[1] == 1
        assert forest.links == 1

    def test_gray_joins_external_inherits_infinity(self):
        forest = self._forest([0.0])
        forest.link_gray_to_white(0, forest.external)
        assert forest.birth[0] == math.inf

    def test_link_two_gray(self):
        forest = self._forest([0.0, 0.0])
        forest.link_two_gray(0, 1, 2.0)
        assert forest.parent[1] == 0
        assert forest.birth[0] == 2.0 and forest.birth[1] == 2.0
        assert forest.weight[0] == 1 and forest.weight[1] == 0

    def test_merge_white_younger_dies(self):
        forest = self._forest([2.577, 2.0])
        pair = forest.merge_white(0, 1, 1.5)
        assert pair == (1.5, 2.0)
        assert forest.birth[forest.find_root(1)] == 2.577

    def test_merge_white_equal_weights_second_root_wins(self):
        forest = self._forest([3.0, 4.0])
        forest.merge_white(0, 1, 1.0)
        assert forest.parent[0] == 1  # strict comparison: tie goes to rootv

    def test_merge_white_heavier_root_becomes_parent(self):
        forest = self._forest([3.0, 4.0, 0.0])
        forest.link_gray_to_white(2, 0)
        forest.merge_white(0, 1, 1.0)
        assert forest.parent[1] == 0
        assert forest.weight[0] == 2


class TestSquareTrace:
    def test_event_sequence(self, square2):
        events = sweep_events(square2)
        cases = [e.case for e in events]
        # diagonal first (two gray right triangles), then one side edge kills
        # the hole against the external region
        assert cases[0] == CASE_TWO_GRAY
        assert cases[1] == CASE_WHITE_MERGE
        assert all(c == CASE_SAME_REGION for c in cases[2:])
        assert events[0].alpha == pytest.approx(math.sqrt(2.0))
        birth, death = events[1].pair
        assert (birth, death) == pytest.approx((1.0, math.sqrt(2.0)))

    def test_gray_join_appears_on_blunt_quad(self):
        # acute triangle above the shared base, obtuse sliver below it; when
        # the base is processed the acute node is already white and the
        # sliver is still gray
        cloud = Cloud.from_points([(0, 0), (2, 0), (1, 1.6), (1, -0.7)])
        events = sweep_events(cloud)
        assert events[0].case == CASE_GRAY_JOINS_WHITE
        assert events[0].alpha == pytest.approx(1.0)

    def test_termination_links_equal_triangles(self, square2):
        tri = triangulate(square2)
        forest = init_forest(tri)
        for _ in iter_events(forest, tri.edge_faces, tri.edge_length_sq,
                             edges_sorted_desc(tri.edge_length_sq)):
            pass
        assert forest.links == forest.num_triangles
        roots = {forest.find_root(i) for i in range(forest.num_triangles + 1)}
        assert len(roots) == 1


class TestSweepEquivalence:
    @pytest.mark.parametrize("seed,n", [(0, 30), (1, 100), (2, 200), (3, 57)])
    def test_two_paths_agree(self, seed, n):
        cloud = random_cloud(seed, n)
        tri = triangulate(cloud)
        order = edges_sorted_desc(tri.edge_length_sq)

        forest = init_forest(tri)
        from_events = [
            e.pair for e in iter_events(forest, tri.edge_faces,
                                        tri.edge_length_sq, order)
            if e.pair is not None
        ]
        fast, walk = sweep_pairs(triangle_births(tri), tri.edge_faces,
                                 tri.edge_length_sq, order)

        assert list(map(tuple, np.asarray(fast).reshape(-1, 2))) == from_events
        assert walk == forest.max_find_steps

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_permutation_invariance(self, seed, monkeypatch):
        # in general position the triangles are unique, and their births
        # and the pairs must not depend on the order of the points either;
        # the builder's perturbation makes the triangles of cocircular
        # cells unique too, as on a cloud rounded to multiples of 1/20
        base = random_cloud(seed, 150).points
        rng = np.random.default_rng(seed + 99)
        rounded = np.unique(np.round(20.0 * base) / 20.0, axis=0)
        for pts in (base, np.ldexp(base, -30), base + [1000.5, -250.25], rounded):
            perm = rng.permutation(len(pts))
            backends = {_fastdel.KERNELS, None}
            if pts is rounded:  # Qhull cuts cocircular cells by the input order
                backends.discard(None)
            for kernels in backends:
                monkeypatch.setattr(_fastdel, "KERNELS", kernels)
                d1 = hole_persistence(Cloud.from_points(pts)).pairs
                d2 = hole_persistence(Cloud.from_points(pts[perm])).pairs
                assert np.array_equal(d1, d2)


class TestHolePersistence:
    def test_square(self, square2):
        pairs = hole_persistence(square2).pairs
        assert pairs.shape == (1, 2)
        assert pairs[0] == pytest.approx([1.0, math.sqrt(2.0)], abs=1e-12)

    def test_equilateral(self, equilateral2):
        pairs = hole_persistence(equilateral2).pairs
        assert pairs.shape == (1, 2)
        assert pairs[0] == pytest.approx([1.0, 2.0 / math.sqrt(3.0)], abs=1e-12)

    def test_figure_eight(self, figure_eight):
        from conftest import FIGURE_EIGHT_DEATH

        pairs = hole_persistence(figure_eight).pairs
        assert pairs[:, 0] == pytest.approx([1.5, 2.0], abs=1e-9)
        assert pairs[:, 1] == pytest.approx([FIGURE_EIGHT_DEATH] * 2, abs=1e-9)

    def test_depth_bound_n_1000(self):
        cloud = random_cloud(21, 1000)
        _, max_steps, k = hole_persistence_stats(cloud, track_depth=True)
        assert max_steps <= math.ceil(math.log2(k + 1)) + 1

    def test_pairs_well_formed(self):
        # only white-white merges emit pairs, so the count is bounded by the
        # cycle count of the full triangulation; every pair is ordered
        cloud = random_cloud(13, 200)
        tri = triangulate(cloud)
        diagram = hole_persistence(cloud)
        assert 0 < len(diagram) <= tri.num_edges - tri.n + 1
        assert (diagram.pairs[:, 0] <= diagram.pairs[:, 1]).all()
        assert (diagram.pairs[:, 0] > 0).all()


@pytest.mark.parametrize("kernels", [True, False], ids=["kernels", "numpy"])
@pytest.mark.parametrize("run", [hole_persistence, compute_report],
                         ids=["hole_persistence", "compute_report"])
def test_one_triangulation_per_cloud_through_forest(run, kernels, monkeypatch):
    # perfbench checks each answer against the triangulation behind it,
    # which it captures by wrapping the name `triangulate` that forest binds:
    # one call per cloud, returning a Triangulation whose triangles use every
    # point.  Were either to break, every uniform and shapes operation would
    # fail its check.
    if kernels and _fastdel.KERNELS is None:
        pytest.skip("compiled kernels unavailable (no C compiler)")
    if not kernels:
        monkeypatch.setattr(_fastdel, "KERNELS", None)
    calls = []

    def spy(cloud):
        tri = triangulate(cloud)
        calls.append((cloud, tri))
        return tri

    monkeypatch.setattr(forest_mod, "triangulate", spy)
    cloud = random_cloud(11, 500)
    run(cloud)
    assert len(calls) == 1
    seen, tri = calls[0]
    assert seen is cloud and isinstance(tri, Triangulation)
    assert np.array_equal(np.unique(tri.triangles), np.arange(cloud.n))
