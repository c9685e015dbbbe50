"""Shape generators: determinism, sampling quality, feature sizes."""

import numpy as np
import pytest

from holecount import Cloud
from holecount.diagrams import infer_hole_count
from holecount.forest import hole_persistence
from holecount.samplers import (
    ShapeSpec,
    epsilon_of_sample,
    sample_shape,
    shape_feature_sizes,
)


class TestShapeSpec:
    def test_wheel_segments(self):
        spec = ShapeSpec.wheel(5, radius=2.0)
        segs = spec.segments()
        assert segs.shape == (10, 2, 2)  # 5 rim + 5 spokes
        assert spec.true_hole_count() == 5

    def test_wheel_needs_three_spokes(self):
        with pytest.raises(ValueError):
            ShapeSpec.wheel(2)

    def test_lattice_segments_and_length(self):
        spec = ShapeSpec.lattice(2, 3, cell=1.0)
        assert spec.segments().shape == (7, 2, 2)  # 3 horizontals + 4 verticals
        assert spec.total_length() == pytest.approx(3 * 3 + 4 * 2)
        assert spec.true_hole_count() == 6

    def test_polygon_closed_vs_open(self):
        square = [(0, 0), (1, 0), (1, 1), (0, 1)]
        assert ShapeSpec.polygon(square).segments().shape == (4, 2, 2)
        assert ShapeSpec.polygon(square, closed=False).segments().shape == (3, 2, 2)
        assert ShapeSpec.polygon(square).true_hole_count() == 1
        assert ShapeSpec.polygon(square, closed=False).true_hole_count() == 0

    @pytest.mark.parametrize("spec", [
        ShapeSpec.wheel(6, 1.5),
        ShapeSpec.lattice(3, 4, 0.5),
        ShapeSpec.polygon([(0, 0), (2, 0), (1, 1)]),
    ])
    def test_json_round_trip(self, spec):
        assert ShapeSpec.from_json(spec.to_json()) == spec


class TestSampleShape:
    def test_deterministic(self):
        spec = ShapeSpec.wheel(5)
        a = sample_shape(spec, 500, noise=0.02, seed=9)
        b = sample_shape(spec, 500, noise=0.02, seed=9)
        assert np.array_equal(a.points, b.points)

    def test_seeds_differ(self):
        spec = ShapeSpec.wheel(5)
        a = sample_shape(spec, 100, seed=0)
        b = sample_shape(spec, 100, seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_noise_zero_lies_on_shape(self):
        square = ShapeSpec.polygon([(0, 0), (2, 0), (2, 2), (0, 2)])
        cloud = sample_shape(square, 200, noise=0.0, seed=3)
        on_boundary = (
            np.isclose(cloud.points, 0.0) | np.isclose(cloud.points, 2.0)
        ).any(axis=1)
        assert on_boundary.all()

    def test_noise_bounded(self):
        spec = ShapeSpec.wheel(4, radius=1.0)
        noisy = sample_shape(spec, 400, noise=0.05, seed=7)
        # cloud-to-shape part of the bound cannot exceed the noise radius
        from holecount.samplers import _point_segment_distances

        d = _point_segment_distances(noisy.points, spec.segments())
        assert d.max() <= 0.05 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_shape(ShapeSpec.wheel(3), 2)
        with pytest.raises(ValueError):
            sample_shape(ShapeSpec.wheel(3), 10, noise=-0.1)
        # a zero length, and one that overflows to inf
        for points in ([(0, 0), (0, 0)], [(1e308, 0), (-1e308, 0), (0, 1)]):
            with pytest.raises(ValueError, match="finite and positive"):
                sample_shape(ShapeSpec.polygon(points), 10)


class TestEpsilonOfSample:
    def test_shrinks_with_density(self):
        spec = ShapeSpec.wheel(5)
        eps = [
            epsilon_of_sample(sample_shape(spec, n, seed=1), spec).epsilon
            for n in (200, 400, 800, 1600)
        ]
        assert eps[-1] < eps[0]
        # doubling n never increases the estimate noticeably
        for a, b in zip(eps, eps[1:]):
            assert b <= a * 1.01

    def test_coarse_sample_large_epsilon(self):
        # only the 5 rim vertices: gaps of a whole rim segment remain
        spec = ShapeSpec.wheel(5, radius=1.0)
        rim = spec.segments()[:5, 0]
        eps = epsilon_of_sample(Cloud.from_points(rim), spec).epsilon
        assert eps > 0.4


class TestShapeFeatureSizes:
    def test_wheel_sectors_equal(self):
        minhfs, maxhfs = shape_feature_sizes(ShapeSpec.wheel(7))
        assert 0 < minhfs <= maxhfs
        assert maxhfs - minhfs < 0.02 * maxhfs  # 7 congruent sectors

    def test_polygon_circle_limit(self):
        # a fine regular polygon approximates a circle of radius 1: the one
        # hole dies near the inradius
        angles = 2.0 * np.pi * np.arange(64) / 64
        spec = ShapeSpec.polygon(np.stack([np.cos(angles), np.sin(angles)], axis=1))
        minhfs, maxhfs = shape_feature_sizes(spec)
        assert minhfs == pytest.approx(1.0, abs=0.01)
        assert maxhfs == pytest.approx(1.0, abs=0.01)

    def test_lattice_cell_inradius(self):
        # a densely sampled square cell's hole dies when disks grown from the
        # whole boundary reach the center: half the cell side
        minhfs, maxhfs = shape_feature_sizes(ShapeSpec.lattice(3, 3, cell=1.0))
        assert minhfs == pytest.approx(0.5, rel=0.01)
        assert maxhfs == pytest.approx(0.5, rel=0.01)


class TestGuarantee:
    def test_wheel_count_recovered_under_condition(self):
        spec = ShapeSpec.wheel(6)
        cloud = sample_shape(spec, 4000, noise=0.005, seed=0)
        minhfs, maxhfs = shape_feature_sizes(spec)
        eps = epsilon_of_sample(cloud, spec).epsilon
        assert minhfs > 0.5 * maxhfs + 4.0 * eps
        k, _ = infer_hole_count(hole_persistence(cloud))
        assert k == 6
