"""The two independent verification routes: filtration reduction and the
disk-union raster, plus the cross-checking report."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from holecount import Cloud, oracles
from holecount.diagrams import staircase
from holecount.forest import hole_persistence
from holecount.oracles import (
    ResolutionWarning,
    alpha_filtration,
    filtration_persistence,
    raster_hole_count,
    reduce_boundary_matrix,
    verify_equivalence,
)

from conftest import random_cloud

SQRT2 = math.sqrt(2.0)


class TestAlphaFiltration:
    def test_square_values(self, square2):
        filt = alpha_filtration(square2)
        by_dim = {0: [], 1: [], 2: []}
        for dim, _, value in filt.simplices:
            by_dim[dim].append(value)
        assert by_dim[0] == [0.0] * 4
        assert sorted(by_dim[1]) == pytest.approx([1.0] * 4 + [SQRT2])
        assert by_dim[2] == pytest.approx([SQRT2, SQRT2])

    def test_equilateral_values(self, equilateral2):
        filt = alpha_filtration(equilateral2)
        edges = [v for d, _, v in filt.simplices if d == 1]
        tris = [v for d, _, v in filt.simplices if d == 2]
        assert edges == pytest.approx([1.0] * 3)
        assert tris == pytest.approx([2.0 / math.sqrt(3.0)])

    def test_obtuse_triangle_enters_with_longest_edge(self):
        filt = alpha_filtration(Cloud.from_points([(0, 0), (4, 0), (1, 0.5)]))
        tris = [v for d, _, v in filt.simplices if d == 2]
        assert tris == pytest.approx([2.0])  # half the length-4 side

    def test_faces_never_after_cofaces(self):
        filt = alpha_filtration(random_cloud(4, 40))
        position = {verts: i for i, (_, verts, _) in enumerate(filt.simplices)}
        for dim, verts, _ in filt.simplices:
            if dim == 2:
                a, b, c = verts
                for face in ((a, b), (b, c), (a, c)):
                    assert position[tuple(sorted(face))] < position[verts]
            elif dim == 1:
                for v in verts:
                    assert position[(v,)] < position[verts]


class TestReduction:
    def test_square(self, square2):
        d = reduce_boundary_matrix(alpha_filtration(square2))
        off = d.off_diagonal()
        assert np.allclose(off, [[1.0, SQRT2]], atol=1e-12)

    def test_equilateral(self, equilateral2):
        off = filtration_persistence(equilateral2).off_diagonal()
        assert np.allclose(off, [[1.0, 2.0 / math.sqrt(3.0)]], atol=1e-12)

    def test_matches_sweep_seed_11(self):
        cloud = random_cloud(11, 30)
        a = hole_persistence(cloud).off_diagonal()
        b = filtration_persistence(cloud).off_diagonal()
        assert len(a) == len(b)
        assert np.abs(a - b).max() < 1e-12


class TestRaster:
    def test_square_inside_interval(self, square2):
        assert raster_hole_count(square2, 1.2) == 1

    def test_square_past_death(self, square2):
        assert raster_hole_count(square2, 1.5) == 0

    def test_figure_eight_split(self, figure_eight):
        assert raster_hole_count(figure_eight, 2.2) == 2

    def test_alpha_must_be_positive(self, square2):
        with pytest.raises(ValueError):
            raster_hole_count(square2, 0.0)

    def test_coarse_grid_warns(self, square2):
        with pytest.warns(ResolutionWarning):
            raster_hole_count(square2, 1.2, resolution=5.0)

    def test_interval_sweep_matches_staircase(self, figure_eight):
        stair = staircase(hole_persistence(figure_eight))
        for lo, hi, count in zip(
            stair.breakpoints[:-1], stair.breakpoints[1:], stair.counts
        ):
            alpha = 0.5 * (lo + hi)
            assert raster_hole_count(figure_eight, alpha) == count


class TestVerifyEquivalence:
    def test_square(self, square2):
        report = verify_equivalence(square2)
        assert report.equal
        assert report.max_deviation <= 1e-12
        assert report.pair_count == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_uniform_100_points(self, seed):
        assert verify_equivalence(random_cloud(seed, 100)).equal

    def test_cocircular_degenerate(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cloud = Cloud.from_points([(1, 0), (0, 1), (-1, 0), (0, -1)])
        assert verify_equivalence(cloud).equal

    def test_raster_spot_checks(self):
        report = verify_equivalence(random_cloud(2, 25), raster_alphas=3)
        assert report.raster_checks  # at least one scale was checkable
        assert report.raster_ok


def test_oracles_import_nothing_from_predicates():
    # the oracle's exact orientation and in-circle tests must stay
    # independent of the pipeline's exact acuteness pass
    tree = ast.parse(Path(oracles.__file__).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
            names.add(getattr(node, "module", None) or "")
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    assert not {n for n in names if "acute_exact" in n.split(".")}
