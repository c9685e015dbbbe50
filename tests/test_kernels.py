"""The compiled kernels against the Python fallback, and the fallback alone."""

import ctypes
import logging
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import holecount
from holecount import Cloud, _fastdel, cli
from holecount import delaunay as delaunay_mod
from holecount import forest as forest_mod
from holecount.cli import RunReport, compute_report, load_cloud_csv
from holecount.delaunay import edges_sorted_desc, triangulate
from holecount.diagrams import Diagram, infer_hole_count
from holecount.forest import (hole_persistence, hole_persistence_stats,
                              init_forest, iter_events)
from holecount.samplers import ShapeSpec, sample_shape

from conftest import parabola_cloud, random_cloud
from test_certified import NEAR_RIGHT_ACUTE, NEAR_RIGHT_OBTUSE
from test_delaunay import DEGENERATE_CLOUDS

needs_kernels = pytest.mark.skipif(
    _fastdel.KERNELS is None, reason="compiled kernels unavailable (no C compiler)"
)
needs_text = pytest.mark.skipif(
    cli.TEXT is None, reason="compiled number text unavailable (no C++ compiler)"
)


def _assert_backends_agree(monkeypatch, cloud, same_walk=True):
    """Same pairs, bit for bit, and the same triangle count with the kernels
    loaded and unloaded, and the same deepest root walk from the compiled
    sweep as from the DualForest reference over the same triangles; returns
    the pairs and the walk.  With same_walk the fallback's walk over Qhull's
    triangles must match too; pass False where the builder and Qhull may cut
    a cocircular cell along different diagonals."""
    compiled, walk, k = hole_persistence_stats(cloud, track_depth=True)
    tri = triangulate(cloud)
    forest = init_forest(tri)
    for _ in iter_events(forest, tri.edge_faces, tri.edge_length_sq,
                         edges_sorted_desc(tri.edge_length_sq)):
        pass
    assert walk == forest.max_find_steps
    with monkeypatch.context() as patch:
        patch.setattr(_fastdel, "KERNELS", None)
        fallback, fallback_walk, fallback_k = hole_persistence_stats(
            cloud, track_depth=True)
    assert np.array_equal(compiled.pairs, fallback.pairs)
    assert k == fallback_k
    if same_walk:
        assert walk == fallback_walk
    return compiled.pairs, walk


@needs_kernels
@pytest.mark.parametrize("fixture,same_walk", [
    pytest.param("square2", True, id="square2"),
    pytest.param("equilateral2", True, id="equilateral2"),
    # its cocircular trapezoids are cut along the other diagonal by Qhull:
    # the same births, but a walk of 2 there against 1 here
    pytest.param("figure_eight", False, id="figure_eight"),
])
def test_fallback_identical_on_fixtures(fixture, same_walk, request, monkeypatch):
    _assert_backends_agree(monkeypatch, request.getfixturevalue(fixture), same_walk)


@needs_kernels
@pytest.mark.parametrize("make,seed,n", [
    pytest.param(random_cloud, 0, 40, id="0-40"),
    pytest.param(random_cloud, 1, 300, id="1-300"),
    pytest.param(random_cloud, 2, 3000, id="2-3000"),
    pytest.param(parabola_cloud, 3, 300, id="parabola-3-300"),
])
def test_fallback_identical_on_random_clouds(make, seed, n, monkeypatch):
    cloud = make(seed, n)
    assert _fastdel.build_triangulation(cloud.points, cloud.order) is not None
    pairs, walk = _assert_backends_agree(monkeypatch, cloud)
    assert len(pairs) > 0 and walk > 0


@needs_kernels
def test_fallback_identical_on_lattice(monkeypatch):
    # every cell is a cocircular square, cut by the builder's perturbation
    # on one path and by Qhull on the other; either way each cell's two
    # right triangles meet in Case 3
    m = 20
    grid = np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2)
    cloud = Cloud.from_points(np.random.default_rng(5).permutation(grid))
    assert _fastdel.build_triangulation(cloud.points, cloud.order) is not None
    pairs, walk = _assert_backends_agree(monkeypatch, cloud, same_walk=False)
    assert len(pairs) == (m - 1) ** 2 and walk > 0


@needs_kernels
def test_backends_agree_above_rounding_on_rounded_clouds(monkeypatch):
    # clouds rounded to 1/20 are full of cocircular cells, which the builder
    # cuts by its perturbation and Qhull by its own rule.  The two diagrams
    # then differ only in the last bits and in pairs of persistence near
    # 1e-17 (seeds 11 and 17 have more of those on the Qhull path); every
    # pair above 1e-9 and the inferred hole count are the same
    for seed in range(20):
        pts = np.round(20.0 * np.random.default_rng(seed).random((200, 2))) / 20.0
        cloud = Cloud.from_points(np.unique(pts, axis=0))
        compiled = hole_persistence(cloud)
        with monkeypatch.context() as patch:
            patch.setattr(_fastdel, "KERNELS", None)
            fallback = hole_persistence(cloud)
        kept = [d.pairs[d.pairs[:, 1] - d.pairs[:, 0] > 1e-9]
                for d in (compiled, fallback)]
        assert len(kept[0]) == len(kept[1]) > 0, seed
        assert np.allclose(kept[0], kept[1], rtol=0.0, atol=1e-12), seed
        count, gap = infer_hole_count(compiled)
        assert count == infer_hole_count(fallback)[0], seed
        assert gap == pytest.approx(infer_hole_count(fallback)[1], abs=1e-12)


def _benchmark_clouds():
    """One cloud of each benchmark workload, at the benchmark's sizes: a
    uniform cloud, a permuted lattice, a noisy wheel translated by 10^6, and
    a wheel with a copy whose points move by at most 0.002."""
    rng = np.random.default_rng(7919)
    wheel = sample_shape(ShapeSpec.wheel(6), 1000, noise=0.005, seed=1).points
    theta = rng.uniform(0.0, 2.0 * np.pi, len(wheel))
    radius = 0.002 * np.sqrt(rng.uniform(size=len(wheel)))
    return {
        "uniform": rng.uniform(0.0, 1.0, (5000, 2)),
        "lattice": rng.permutation(_lattice_points(20)),
        "shapes": sample_shape(ShapeSpec.wheel(5), 3000, noise=0.005, seed=2).points + 1e6,
        "compare": wheel,
        "compare-moved": wheel + np.stack([radius * np.cos(theta),
                                           radius * np.sin(theta)], axis=1),
    }


@needs_kernels
def test_no_pipeline_call_reaches_qhull(request, monkeypatch):
    # with the kernels loaded, the builder triangulates every cloud: the
    # fixtures, the degenerate clouds, the benchmark's, a collinear cloud
    # (which raises) and direct Clouds, which go through from_points first
    calls = []
    qhull = delaunay_mod._qhull_triangles
    monkeypatch.setattr(delaunay_mod, "_qhull_triangles",
                        lambda pts: calls.append(len(pts)) or qhull(pts))
    clouds = [request.getfixturevalue(name)
              for name in ("square2", "equilateral2", "figure_eight")]
    clouds += [Cloud.from_points(make()) for make in DEGENERATE_CLOUDS.values()]
    clouds += [Cloud.from_points(pts) for pts in _benchmark_clouds().values()]
    for cloud in clouds:
        try:
            hole_persistence(cloud)
        except ValueError as exc:  # the grids at 2^1000 and 2^-1060
            assert "range of doubles" in str(exc), exc
    with pytest.raises(holecount.AllCollinearError):
        hole_persistence(Cloud.from_points(np.stack([np.arange(50.0)] * 2, axis=1)))
    with pytest.warns(holecount.DuplicatePointsWarning):
        hole_persistence(Cloud(points=np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0),
                                                (1.0, 0.0)])))
    with pytest.raises(ValueError, match="non-finite"):
        hole_persistence(Cloud(points=np.array([(0.0, 0.0), (1.0, np.nan), (2.0, 2.0)])))
    assert calls == []
    # without the kernels the spy does see Qhull
    monkeypatch.setattr(_fastdel, "KERNELS", None)
    triangulate(clouds[0])
    assert calls == [4]


@needs_kernels
@pytest.mark.parametrize("seed", range(10))
def test_direct_cloud_matches_from_points(seed):
    # a cloud rounded to 1/20 is full of cocircular cells, which the
    # builder cuts by its perturbation and Qhull by the input order; a Cloud
    # built without from_points, and so without its Morton order, must
    # still reach the builder and give the same pairs and root walk
    pts = np.random.default_rng(seed).permutation(_rounded(seed))
    direct, walk, k = hole_persistence_stats(Cloud(points=pts), track_depth=True)
    built, built_walk, built_k = hole_persistence_stats(Cloud.from_points(pts),
                                                       track_depth=True)
    assert direct.pairs.tobytes() == built.pairs.tobytes()
    assert (walk, k) == (built_walk, built_k)


@needs_kernels
def test_builder_counts_exact_stage_and_ties(caplog):
    # a uniform cloud never leaves the float filter; a lattice needs the
    # exact stages on every cocircular cell and breaks each such tie, and
    # its integer coordinates keep every one of them out of long double,
    # which spacing 0.05 and a grid point moved by one ulp do not.  The
    # underflow check is armed only by a nonzero coordinate below 2^-200
    caplog.set_level(logging.DEBUG, logger=_fastdel.__name__)

    def counts(pts):
        caplog.clear()
        assert _fastdel.build_triangulation(pts, Cloud.from_points(pts).order) is not None
        (record,) = [r for r in caplog.records if r.name == _fastdel.__name__]
        return record.args

    assert counts(random_cloud(0, 3000).points) == (0, 0, 0, 0)
    grid = _lattice_points(20)
    exact, ties, armed, long_double = counts(grid)
    assert exact > 0 and ties > 0 and armed == 0 and long_double == 0
    assert counts(_lattice_points(30) * 0.05)[3] > 0
    exact, _, _, long_double = counts(DEGENERATE_CLOUDS["lattice-20-ulp-moves"]())
    assert exact > long_double > 0
    rng = np.random.default_rng(0)
    assert counts(rng.random((300, 2)) * 2.0 ** -300)[2] == 1
    assert counts(np.vstack([rng.random((20, 2)), [(5e-324, 0.5)]]))[2] == 1


def _assert_births_parity(pts, triangles):
    """hc_births leaves NaN on exactly the band rows that
    forest.acute_exact sends to Python ints, counts the other band rows as
    decided, and gives the numpy path's births on every row it decides."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    triangles = np.ascontiguousarray(triangles, dtype=np.int32)
    births, decided = _fastdel.triangle_births(pts, triangles, forest_mod._ACUTE_BAND)
    a, b, c = (pts[triangles[:, j]] for j in range(3))
    with np.errstate(over="ignore", invalid="ignore"):
        ab, bc, ca = forest_mod._side_lengths_sq(a, b, c)
        total = ab + bc + ca
        gap = total - 2.0 * np.maximum(ab, np.maximum(bc, ca))
        band = np.flatnonzero(np.abs(gap) <= forest_mod._ACUTE_BAND * total)
    wide = [i for i in band.tolist()
            if forest_mod.acute_exact(a[i:i + 1], b[i:i + 1], c[i:i + 1])[1]]
    assert np.flatnonzero(np.isnan(births)).tolist() == wide
    assert decided == len(band) - len(wide)
    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(_fastdel, "KERNELS", None)
        expected = forest_mod.triangle_births(
            forest_mod.Triangulation(points=pts, triangles=triangles,
                                     edge_faces=np.empty((0, 2), dtype=np.int32),
                                     edge_length_sq=np.empty(0)))
    done = ~np.isnan(births)
    assert births[done].tobytes() == expected[done].tobytes()
    return decided, len(wide)


# each cloud with the band rows it sends to Python ints: none, all or some
_BIRTHS_CLOUDS = {
    "lattice-20": (lambda: _lattice_points(20), "none"),
    "lattice-30*0.1": (lambda: _lattice_points(30) * 0.1, "all"),
    "lattice-30*0.05": (lambda: _lattice_points(30) * 0.05, "all"),
    "near-right-acute": (lambda: np.array(NEAR_RIGHT_ACUTE, dtype=np.float64), "none"),
    "near-right-obtuse": (lambda: np.array(NEAR_RIGHT_OBTUSE, dtype=np.float64), "none"),
    "lattice-20*2^300": (lambda: _lattice_points(20) * 2.0 ** 300, "none"),
    "lattice-20*2^-300": (lambda: _lattice_points(20) * 2.0 ** -300, "none"),
    "lattice-20+1e8": (lambda: _lattice_points(20) + 1e8, "none"),
    "lattice-20-ulp-moves": (DEGENERATE_CLOUDS["lattice-20-ulp-moves"], "some"),
}


@needs_kernels
@pytest.mark.parametrize("kind", list(_BIRTHS_CLOUDS))
def test_births_kernel_leaves_python_int_rows(kind):
    make, sent = _BIRTHS_CLOUDS[kind]
    pts = make()
    decided, wide = _assert_births_parity(
        pts, _fastdel.build_triangulation(pts, Cloud.from_points(pts).order)[0])
    assert (decided > 0, wide > 0) == {"none": (True, False), "all": (False, True),
                                       "some": (True, True)}[sent]


@st.composite
def _integer_rows(draw):
    """A triangle of integers below 2**20 times 2**k, right-angled at its
    first vertex or not, and maybe with one coordinate moved by one ulp."""
    small = st.integers(-2 ** 20, 2 ** 20)
    ax, ay, px, py = (draw(small) for _ in range(4))
    t = draw(st.sampled_from([-1, 2, 3]))
    ints = ([ax, ay, ax + px, ay + py, ax - t * py, ay + t * px] if draw(st.booleans())
            else [draw(small) for _ in range(6)])
    row = np.ldexp(np.array(ints, dtype=np.float64), draw(st.integers(-1090, 990)))
    if draw(st.booleans()):
        i = draw(st.integers(0, 5))
        row[i] = np.nextafter(row[i], draw(st.sampled_from([-np.inf, np.inf])))
    return row


@needs_kernels
@given(st.lists(_integer_rows(), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_births_kernel_parity_on_integer_rows(rows):
    pts = np.array(rows).reshape(-1, 2)
    _assert_births_parity(pts, np.arange(len(pts)).reshape(-1, 3))


def _numpy_morton_order(points):
    """The numpy key build and stable argsort that the compiled Morton sort
    replaced: the reference its order must match."""
    # a span that overflows leaves scale 0 and NaN keys, whose cast bits
    # the masks below clear, as the kernel clamps them to 0
    with np.errstate(over="ignore", invalid="ignore"):
        span = float(np.ptp(points, axis=0).max()) if len(points) else 0.0
        if span <= 0.0:
            return np.arange(len(points))
        scale = (2 ** 16 - 1) / span
        q = ((points - points.min(axis=0)) * scale).astype(np.uint64)
    key = np.zeros(len(points), dtype=np.uint64)
    for axis, shift0 in ((0, 0), (1, 1)):
        v = q[:, axis]
        v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
        v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
        v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
        v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
        v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
        key |= v << np.uint64(shift0)
    return np.argsort(key, kind="stable")


def _uniform(n, seed=0):
    return np.random.default_rng(seed).random((n, 2))


_MORTON_CLOUDS = {
    "uniform-3": lambda: _uniform(3),
    "uniform-400": lambda: _uniform(400),
    "uniform-1e5": lambda: _uniform(10 ** 5),
    # equal keys: their order must stay the input order
    "lattice-permuted": lambda: np.random.default_rng(1).permutation(
        np.stack(np.meshgrid(np.arange(60), np.arange(60)), axis=-1).reshape(-1, 2) * 1.0),
    # one long run of equal keys, and key bytes that never vary
    "cluster-1e-9": lambda: np.vstack([1e-9 * _uniform(10 ** 4), [(1.0, 1.0)]]),
    "zero-span-y": lambda: np.stack([_uniform(500)[:, 0], np.full(500, 0.25)], axis=1),
    "offset-1e8": lambda: _uniform(2000) + 1e8,
    "scale-2^300": lambda: _uniform(2000) * 2.0 ** 300,
    "scale-2^-300": lambda: _uniform(2000) * 2.0 ** -300,
    "all-equal": lambda: np.full((5, 2), 3.0),
}


@needs_kernels
@pytest.mark.parametrize("kind", list(_MORTON_CLOUDS))
def test_morton_order_matches_numpy_keys(kind):
    # the reference orders the cloud without its repeats, as "all-equal" has
    pts = _MORTON_CLOUDS[kind]()
    kept, order = _fastdel.morton_dedup(pts)
    assert order.dtype == np.int32
    assert np.array_equal(order, _numpy_morton_order(pts if kept is None else pts[kept]))


@needs_kernels
def test_morton_order_of_overflowing_span_is_a_permutation():
    # the span overflows to inf, so the keys are NaN or out of range before
    # they are clamped; numpy warned three times here, the kernel is silent
    pts = 1.5e308 * np.random.default_rng(0).uniform(-1.0, 1.0, (3000, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        kept, order = _fastdel.morton_dedup(pts)
    assert kept is None
    assert np.array_equal(np.sort(order), np.arange(len(pts)))


def _with_repeats(pts, seed=0):
    """pts with about a tenth of its rows overwritten by copies of others,
    scattered through the cloud."""
    rng = np.random.default_rng(seed)
    pts = pts.copy()
    k = max(1, len(pts) // 10)
    pts[rng.integers(0, len(pts), k)] = pts[rng.integers(0, len(pts), k)]
    return pts


def _cluster_with_repeats():
    # one long run of equal keys in which repeats lie far from their
    # originals, some of them before the far point
    pts = _MORTON_CLOUDS["cluster-1e-9"]()
    pts = np.vstack([pts, pts[np.random.default_rng(3).integers(0, len(pts), 800)]])
    return pts[np.random.default_rng(4).permutation(len(pts))]


_INGEST_CLOUDS = {
    **_MORTON_CLOUDS,
    "uniform-repeats": lambda: _with_repeats(_uniform(3000)),
    "lattice-repeats": lambda: _with_repeats(_MORTON_CLOUDS["lattice-permuted"](), 1),
    "signed-zeros": lambda: np.array([(0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0),
                                      (-0.0, -0.0), (0.5, 0.5), (0.0, 0.0), (0.0, -0.0)]),
    # a short run of equal keys whose repeat is not next to its original
    "short-run-repeat": lambda: np.array([(0.0, 0.0), (1e-9, 0.0), (0.0, 0.0), (1.0, 1.0)]),
    "cluster-1e-9-repeats": _cluster_with_repeats,
    # one run of equal keys whose points share x or y with many others
    "tiny-lattice-repeats": lambda: _with_repeats(np.vstack(
        [1e-12 * _MORTON_CLOUDS["lattice-permuted"](), [(1.0, 1.0)]]), 3),
    "overflowing-span-repeats": lambda: _with_repeats(
        1.5e308 * np.random.default_rng(0).uniform(-1.0, 1.0, (3000, 2)), 2),
    "n=0": lambda: np.empty((0, 2)),
    "n=1": lambda: _uniform(1),
    "n=2": lambda: _uniform(2),
    "n=2-equal": lambda: np.array([(1.0, 2.0), (1.0, 2.0)]),
    "n=3": lambda: _uniform(3),
}


def _numpy_dedup(pts):
    """(kept points, repeats removed) by the np.unique scan that the Morton
    pass replaced on the compiled path: the reference it must match."""
    _, first = np.unique(pts.view(np.complex128).ravel(), return_index=True)
    return pts[np.sort(first)], len(pts) - len(first)


def _ingest(pts):
    """(cloud, [(message, category, file, line)] of its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cloud = Cloud.from_points(pts)
    return cloud, [(str(w.message), w.category, w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("kernels", [
    pytest.param(True, id="kernels", marks=needs_kernels),
    pytest.param(False, id="numpy"),
])
@pytest.mark.parametrize("kind", list(_INGEST_CLOUDS))
def test_ingest_matches_numpy_unique(kind, kernels, monkeypatch):
    pts = _INGEST_CLOUDS[kind]()
    kept, removed = _numpy_dedup(pts)
    with monkeypatch.context() as patch:
        if not kernels:
            patch.setattr(_fastdel, "KERNELS", None)
        cloud, caught = _ingest(pts)
    # the same points, sign of zero included, in input order
    assert cloud.points.tobytes() == kept.tobytes()
    line = _ingest.__code__.co_firstlineno + 4  # the from_points call
    assert caught == ([(f"removed {removed} duplicate point(s)",
                        holecount.DuplicatePointsWarning, __file__, line)]
                      if removed else [])
    if kernels:
        assert cloud.order.dtype == np.int32 and not cloud.order.flags.writeable
        assert np.array_equal(cloud.order, _numpy_morton_order(cloud.points))
    else:
        assert cloud.order is None


@needs_kernels
def test_duplicate_warning_names_the_callers_line():
    # triangulate passes a Cloud built without from_points through it; the
    # warning still names the caller's line, not the package's
    pts = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0), (2.0, 2.0)])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        first = sys._getframe().f_lineno + 1
        hole_persistence(Cloud(points=pts))
        Cloud.from_points(pts)
    assert [(w.category, w.filename, w.lineno) for w in caught] == [
        (holecount.DuplicatePointsWarning, __file__, first),
        (holecount.DuplicatePointsWarning, __file__, first + 1)]


def _sweep_output(cloud):
    """The pairs of one sweep over the cloud, in the order it emits them."""
    tri = triangulate(cloud)
    births = forest_mod.triangle_births(tri)
    return forest_mod.sweep_pairs(births, tri.edge_faces, tri.edge_length_sq,
                                  edges_sorted_desc(tri.edge_length_sq))[0]


def _rounded(seed):
    pts = np.round(20.0 * np.random.default_rng(seed).random((200, 2))) / 20.0
    return np.unique(pts, axis=0)


_SWEEP_CLOUDS = {
    "square2": lambda request: request.getfixturevalue("square2"),
    "equilateral2": lambda request: request.getfixturevalue("equilateral2"),
    "figure_eight": lambda request: request.getfixturevalue("figure_eight"),
    "parabola-300": lambda request: parabola_cloud(3, 300),
    # tied births: the lexsort fallback
    "lattice-20": lambda request: Cloud.from_points(
        np.random.default_rng(5).permutation(_lattice_points(20))),
    **{f"rounded-{seed}": (lambda request, seed=seed: Cloud.from_points(_rounded(seed)))
       for seed in range(3)},
    "uniform-5000": lambda request: random_cloud(2, 5000),
}


def _lattice_points(m):
    return np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2) * 1.0


@pytest.mark.parametrize("kernels", [
    pytest.param(True, id="kernels", marks=needs_kernels),
    pytest.param(False, id="numpy"),
])
@pytest.mark.parametrize("kind", list(_SWEEP_CLOUDS))
def test_diagram_of_sweep_order_matches_lexsort(kind, kernels, request,
                                                monkeypatch):
    cloud = _SWEEP_CLOUDS[kind](request)
    with monkeypatch.context() as patch:
        if not kernels:
            patch.setattr(_fastdel, "KERNELS", None)
        pairs = _sweep_output(cloud)
    arr = np.asarray(pairs, dtype=np.float64).reshape(-1, 2)
    births = arr[:, 0]
    # the order from_pairs reverses: births non-increasing
    assert (births[1:] <= births[:-1]).all()
    if kind == "lattice-20":
        assert len(np.unique(births)) < len(births)
    if kind == "uniform-5000":
        assert len(np.unique(births)) == len(births) > 100
    expected = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
    got = Diagram.from_pairs(pairs).pairs
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert got.flags.c_contiguous


@pytest.mark.parametrize("kernels", [
    pytest.param(True, id="kernels", marks=needs_kernels),
    pytest.param(False, id="numpy"),
])
def test_diagram_of_overflowing_sweep_raises(kernels, monkeypatch):
    # births of a cloud scaled by 2^180 overflow to inf
    if not kernels:
        monkeypatch.setattr(_fastdel, "KERNELS", None)
    cloud = Cloud.from_points(_rounded(0) * 2.0 ** 180)
    message = re.escape("pairs must satisfy 0 <= birth <= death < inf")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        pairs = _sweep_output(cloud)
        with pytest.raises(ValueError, match=message):
            Diagram.from_pairs(pairs)
        with pytest.raises(ValueError, match=message):
            hole_persistence(cloud)


_OUT_OF_RANGE = "squared edge lengths .* the range of doubles .* 2\\*\\*-537 and 2\\*\\*512"


@pytest.mark.parametrize("kernels", [
    pytest.param(True, id="kernels", marks=needs_kernels),
    pytest.param(False, id="numpy"),
])
def test_squared_lengths_out_of_range_raise(kernels, monkeypatch):
    # at 2^-530 two near neighbours of this cloud are closer than 2^-537,
    # and the square of their distance underflows to 0 in both edge tables
    if not kernels:
        monkeypatch.setattr(_fastdel, "KERNELS", None)
    cloud = Cloud.from_points(np.random.default_rng(0).random((200, 2)) * 2.0 ** -530)
    with pytest.raises(ValueError, match=_OUT_OF_RANGE):
        hole_persistence(cloud)


@pytest.mark.parametrize("kernels", [
    pytest.param(True, id="kernels", marks=needs_kernels),
    pytest.param(False, id="numpy"),
])
def test_subnormal_gap_in_a_unit_cloud_is_no_error(kernels, monkeypatch):
    # two points 5e-324 apart square to 0, but in a unit-spaced cloud that
    # moves one edge's scale by less than an ulp of the others (Qhull leaves
    # one of the two out; the builder keeps both)
    if not kernels:
        monkeypatch.setattr(_fastdel, "KERNELS", None)
    pts = np.vstack([_lattice_points(6), [(2.0, 5e-324)]])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", holecount.DroppedPointsWarning)
        tri = triangulate(Cloud.from_points(pts))
        assert (tri.edge_length_sq.min() == 0.0) == kernels
        assert len(hole_persistence(Cloud.from_points(pts))) > 0


@needs_kernels
@pytest.mark.parametrize("scale,raises", [
    pytest.param(2.0 ** 1000, True, id="2^1000"),
    pytest.param(2.0 ** -1060, True, id="2^-1060"),
    pytest.param(2.0 ** 300, False, id="2^300"),
    pytest.param(2.0 ** -300, False, id="2^-300"),
])
def test_scaled_grid_raises_or_keeps_its_pairs(scale, raises):
    # the builder triangulates the 6x6 grid exactly at any scale, but the
    # squares of its edges overflow to inf at 2^1000 and underflow to 0 at
    # 2^-1060: an error there instead of a silently empty diagram
    cloud = Cloud.from_points(_lattice_points(6) * scale)
    if raises:
        with pytest.raises(ValueError, match=_OUT_OF_RANGE):
            hole_persistence(cloud)
    else:
        assert len(hole_persistence(cloud)) == 25


@pytest.mark.parametrize("kind", ["uniform-2^-250", "uniform-2^-260"])
def test_tiny_uniform_clouds_keep_their_pairs(kind, monkeypatch):
    cloud = Cloud.from_points(DEGENERATE_CLOUDS[kind]())
    pairs = hole_persistence(cloud).pairs
    monkeypatch.setattr(_fastdel, "KERNELS", None)
    assert len(pairs) > 0 and hole_persistence(cloud).pairs.tobytes() == pairs.tobytes()


@needs_kernels
@pytest.mark.parametrize("pairs", [
    pytest.param([(2.0, 3.0), (1.0, 4.0)], id="births-descending"),
    pytest.param([(np.nan, 3.0), (1.0, 4.0)], id="birth-nan"),
    pytest.param([(-1.0, 3.0), (1.0, 4.0)], id="birth-negative"),
    pytest.param([(-0.0, 3.0), (1.0, 4.0)], id="birth-minus-zero"),
    pytest.param([(0.0, 3.0), (-0.0, 4.0)], id="birth-minus-zero-after-zero"),
    pytest.param([(0.0, np.nan)], id="death-nan"),
    pytest.param([(1.0, 2.0), (3.0, 3.0)], id="largest-death-not-above"),
    pytest.param([(2.0, 1.0), (3.0, 4.0)], id="death-below-its-birth"),
])
def test_merge_kernel_declines_broken_contracts(pairs):
    # what Diagram.from_pairs and off_diagonal rule out, a hand-built call
    # may pass: the kernel declines it instead of reading past its runs
    assert _fastdel.staircase(np.array(pairs)) is None


@needs_kernels
@pytest.mark.parametrize("pairs", [
    pytest.param([(1.0, 2.0), (0.5, 3.0)], id="births-out-of-order"),
    pytest.param([(0.0, np.nan)], id="death-nan"),
    pytest.param([(0.0, np.inf)], id="death-inf"),
    pytest.param([(2.0, 1.0)], id="death-below-its-birth"),
])
def test_bottleneck_kernel_declines_broken_contracts(pairs):
    # what Diagram rules out, a hand-built call may pass: the kernel
    # declines it, and the wrapper leaves the distance to the reference
    good = np.array([(0.0, 1.0), (0.5, 2.0)])
    assert _fastdel.bottleneck(good, good) == 0.0
    assert _fastdel.bottleneck(np.array(pairs), good) is None
    assert _fastdel.bottleneck(good, np.array(pairs)) is None


@needs_kernels
def test_merge_kernel_outputs():
    pairs = np.array([(0.0, 2.0), (1.0, 2.0), (1.0, 3.0), (2.0, 5.0), (4.0, 5.0)])
    points, counts, present, shares = _fastdel.staircase(pairs)
    assert points.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert counts.tolist() == [1, 3, 2, 1, 2]
    assert present.tolist() == [1, 3, 2]
    assert shares.tolist() == [0.2 + 0.2, 0.2, 0.2 + 0.2]


def test_kernel_flags_keep_rounding():
    # births and edge lengths must round exactly as the numpy fallback does
    flags = _fastdel.KERNEL_LIBRARY.flags
    assert "-ffp-contract=off" in flags
    assert not {"-ffast-math", "-Ofast", "-march=native", "-ffp-contract=fast"} & set(flags)


@needs_kernels
def test_edge_table_rejects_one_sided_neighbour_links():
    # a square cut along (0, 2); the second triangle forgets the first, so
    # there is one edge more than (3k + h) / 2 rows: refused, not overrun
    tris = np.array([[0, 1, 2], [0, 2, 3]], dtype=np.int32)
    neigh = np.array([[-1, 1, -1], [-1, -1, 0]], dtype=np.int32)
    pts = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)])
    assert len(_fastdel.edge_table(pts, tris, neigh)[0]) == 5
    neigh[1, 2] = -1
    with pytest.raises(ValueError, match="not mutual"):
        _fastdel.edge_table(pts, tris, neigh)


# The borrow call of one array parameter, and the pointer it is assigned to.
_BORROW = re.compile(r"(const )?(\w+) \*(\w+) = borrow\(&b, (\w+), '(\w)', "
                     r"sizeof \*(\w+),[^;]*?\b(READ|WRITE)\);")


def _assert_exports_match(library, tmp_path):
    """The source builds without warnings, every exported hc_* function has
    a ctypes signature and vice versa, and each signature declares the C
    prototype's return type and parameters, one for one and kind for kind.
    Each array parameter (a PyObject *) is borrowed once, with the element
    kind of the pointer it is assigned to, and writable exactly when that
    pointer is not const."""
    out = subprocess.run(
        [library.compiler, *library.flags, "-Wall", "-Wextra", "-Werror",
         "-o", str(tmp_path / "k.so"), str(library.source), "-lm"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    source = library.source.read_text()
    exported = list(re.finditer(r"^(?!static\b)(\w+ ?\*?)(hc_\w+)\(([^)]*)\)", source,
                                re.M))
    assert sorted(m[2] for m in exported) == sorted(library.signatures)
    kinds = {"void": None, "PyObject *": ctypes.py_object, "int32_t": ctypes.c_int32,
             "int64_t": ctypes.c_int64, "double": ctypes.c_double,
             "char *": ctypes.c_char_p}
    element_kinds = {"double": "f", "int32_t": "i", "int64_t": "i", "uint8_t": "u",
                     "char": "u"}
    ends = [m.start() for m in exported[1:]] + [len(source)]
    for m, end in zip(exported, ends):
        restype, name, params = m.groups()
        declared = [re.fullmatch(r"(?:const )?(\w+) (\*?)(\w+)", p.strip()).groups()
                    for p in params.split(",") if params != "void"]
        assert library.signatures[name] == (
            kinds[restype.strip()],
            [kinds[f"{kind} {star}".strip()] for kind, star, _ in declared]), name
        body = source[m.end():end]
        borrowed = {}
        for const, ctype, var, obj, kind, sized, mode in _BORROW.findall(body):
            assert obj not in borrowed and sized == var, (name, obj)
            assert element_kinds[ctype] == kind, (name, obj)
            assert (mode == "READ") == bool(const), (name, obj)
            borrowed[obj] = kind
        assert sorted(borrowed) == sorted(
            param for kind, star, param in declared if kind == "PyObject"), name


@pytest.mark.skipif(shutil.which("gcc") is None, reason="no C compiler")
def test_exports_match_signatures(tmp_path):
    _assert_exports_match(_fastdel.KERNEL_LIBRARY, tmp_path)


@pytest.mark.skipif(shutil.which("g++") is None, reason="no C++ compiler")
def test_text_exports_match_signatures(tmp_path):
    _assert_exports_match(_fastdel.TEXT_LIBRARY, tmp_path)


def _square_tables():
    """A unit square's points, compact triangles, neighbours and edge table
    from the builder."""
    pts = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    tris, neigh = _fastdel.build_triangulation(pts, np.arange(4, dtype=np.int32))
    faces, length_sq = _fastdel.edge_table(pts, tris, neigh)
    return pts, tris, neigh, faces, length_sq


def _valid_calls():
    """For every exported function that takes arrays, by name: (library,
    arguments of a call it accepts, positions of the arrays it writes).
    Every array has at least two rows, so a strided view of it is not
    contiguous."""
    pts, tris, neigh, faces, length_sq = _square_tables()
    k, m = len(tris), len(faces)
    pairs = np.array([(0.0, 2.0), (1.0, 3.0)])
    text = np.frombuffer(b"1,2\n3,4\n", dtype=np.uint8).copy()
    i32, i64, u8 = np.int32, np.int64, np.uint8
    kernels = _fastdel.KERNELS
    return {
        "hc_morton_dedup": (kernels, [pts, np.empty(4, i32), np.empty(4, u8)], [1, 2]),
        "hc_build": (kernels, [pts, np.arange(4, dtype=i32), np.empty((6, 3), i32),
                               np.empty((6, 3), i32)], [2, 3]),
        "hc_edge_table": (kernels, [pts, tris, neigh, np.empty((m, 2), i32), np.empty(m)],
                          [3, 4]),
        "hc_births": (kernels, [pts, tris, 1e-12, np.empty(k)], [3]),
        "hc_sweep": (kernels, [edges_sorted_desc(length_sq), faces, length_sq,
                               np.full(k, 0.5), np.empty((k + 1, 2))], [3, 4]),
        "hc_staircase": (kernels, [pairs, np.sort(pairs[:, 1]), np.empty(4),
                                   np.empty(4, i64), np.full(3, -1.0), np.empty(3, i64)],
                         [2, 3, 4, 5]),
        "hc_bottleneck": (kernels, [pairs, pairs[::-1].copy()], []),
        "hc_write_rows": (cli.TEXT, [pairs, 0, 2, b",", b"\n", np.empty(200, u8)], [5]),
        "hc_write_entries": (cli.TEXT, [np.array([1, 2], i64), pairs[:, 1].copy(), 0, 2,
                                        b", ", np.empty(200, u8)], [5]),
        "hc_parse_rows": (cli.TEXT, [text, np.empty((3, 2))], [1]),
    }


_ARRAY_FUNCTIONS = sorted(
    name for library in (_fastdel.KERNEL_LIBRARY, _fastdel.TEXT_LIBRARY)
    for name, (_, argtypes) in library.signatures.items() if ctypes.py_object in argtypes)


def _array_variants(args, written):
    """(position, variant) pairs that every function must refuse: each
    array as float32 (a kind or item size it does not take) and as a
    strided view, and each array it writes as a read-only copy."""
    for i, arg in enumerate(args):
        if not isinstance(arg, np.ndarray):
            continue
        yield i, arg.astype(np.float32)
        yield i, np.stack([arg, arg], axis=-1)[..., 0]
        if i in written:
            frozen = arg.copy()
            frozen.flags.writeable = False
            yield i, frozen


@needs_kernels
@needs_text
@pytest.mark.parametrize("name", _ARRAY_FUNCTIONS)
def test_kernels_refuse_arrays_they_cannot_take(name):
    # 1000 calls it takes leave the arrays' reference counts as they were;
    # what ndpointer refused, the buffer borrow refuses before the kernel
    # writes anything, and it releases every buffer it already holds
    library, args, written = _valid_calls()[name]
    fn = getattr(library, name)
    refs = [sys.getrefcount(a) for a in args if isinstance(a, np.ndarray)]
    for _ in range(1000):
        fn(*args)
    assert [sys.getrefcount(a) for a in args if isinstance(a, np.ndarray)] == refs
    variants = list(_array_variants(args, written))
    assert variants
    for i, variant in variants:
        call = list(args)
        call[i] = variant
        before = [a.copy() if isinstance(a, np.ndarray) else a for a in call]
        arrays = [a for a in call if isinstance(a, np.ndarray)]
        refs = [sys.getrefcount(a) for a in arrays]
        with pytest.raises((TypeError, ValueError, BufferError)):
            fn(*call)
        assert [sys.getrefcount(a) for a in arrays] == refs, (name, i)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(call, before)
                   if isinstance(a, np.ndarray)), (name, i)


@needs_kernels
@needs_text
def test_valid_calls_cover_every_array_function():
    assert sorted(_valid_calls()) == _ARRAY_FUNCTIONS


@needs_kernels
def test_kernels_raise_on_ids_out_of_range():
    pts, tris, neigh, faces, length_sq = _square_tables()
    order = edges_sorted_desc(length_sq)
    births = np.full(len(tris), 0.5)
    bad_tris = tris.copy()
    bad_tris[1, 2] = len(pts)
    with pytest.raises(ValueError, match="triangle vertex out of range"):
        _fastdel.triangle_births(pts, bad_tris, 1e-12)
    with pytest.raises(ValueError, match="triangle vertex out of range"):
        _fastdel.edge_table(pts, bad_tris, neigh)
    with pytest.raises(ValueError, match="insertion order out of range"):
        _fastdel.build_triangulation(pts, np.array([0, 1, 2, 4], dtype=np.int32))
    for bad_order in (order + 1, order - 1):
        with pytest.raises(ValueError, match="edge order out of range"):
            _fastdel.sweep(births.copy(), faces, length_sq, bad_order)
    for bad_face in (-2, len(tris)):
        bad_faces = faces.copy()
        bad_faces[-1, 1] = bad_face
        with pytest.raises(ValueError, match="face id out of range"):
            _fastdel.sweep(births.copy(), bad_faces, length_sq, order)
    # a buffer shorter than the call needs
    k = len(tris)
    with pytest.raises(ValueError, match=f"array 5: holds {2 * k} items, the call "
                                         f"needs {2 * k + 2}"):
        _fastdel.KERNELS.hc_sweep(order, faces, length_sq, births, np.empty((k, 2)))
    assert _fastdel.sweep(births.copy(), faces, length_sq, order)[1] >= 0


def _leak_calls():
    """(function, arguments) of each kernel wrapper and of the CLI's text
    reader and writers, on small inputs."""
    pts, tris, neigh, faces, length_sq = _square_tables()
    cloud = Cloud.from_points(random_cloud(0, 50).points)
    off = hole_persistence(cloud).off_diagonal()
    data = b"# x\n1,2\n3,4\n"

    class Source:  # a file whose read() returns the same bytes every time
        def read(self):
            return data

    source = Source()
    return [
        (_fastdel.morton_dedup, (cloud.points,)),
        (_fastdel.build_triangulation, (cloud.points, cloud.order)),
        (_fastdel.edge_table, (pts, tris, neigh)),
        (_fastdel.triangle_births, (pts, tris, 1e-12)),
        (_fastdel.sweep, (np.full(len(tris), 0.5), faces, length_sq,
                          edges_sorted_desc(length_sq))),
        (_fastdel.staircase, (off,)),
        (_fastdel.bottleneck, (off, off[::-1].copy())),
        (cli._read_rows, ("cloud.csv", source, 1, "x,y")),
        (cli._rows_text, (off, 0, len(off), ",", "\n")),
        (cli._entries_text, ({1: 0.25, 3: 0.75}, ", ")),
    ], data


@needs_kernels
@needs_text
def test_kernel_calls_leave_reference_counts():
    # a buffer borrowed and not released keeps a reference to its array,
    # which the sanitizers do not see
    calls, data = _leak_calls()
    for fn, args in calls:
        # the arrays and the text; small ints and interned strings are
        # shared with the rest of the interpreter
        held = [a for a in args if isinstance(a, np.ndarray)] + [data]
        refs = [sys.getrefcount(a) for a in held]
        for _ in range(1000):
            fn(*args)
        assert [sys.getrefcount(a) for a in held] == refs, fn.__name__


def _sanitizer_runtimes():
    """The gcc ASan and UBSan runtime libraries, or None without them."""
    if shutil.which("gcc") is None:
        return None
    paths = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                            text=True).stdout.strip()
             for name in ("libasan.so", "libubsan.so")]
    return paths if all(os.path.isabs(p) and os.path.exists(p) for p in paths) else None


_SANITIZED_RUN = """
import ctypes, sys, warnings
import numpy as np
from holecount import AllCollinearError, Cloud, _fastdel, hole_persistence
from holecount.diagrams import Diagram, hole_probabilities

lib = ctypes.PyDLL(sys.argv[1])
for name, (restype, argtypes) in _fastdel.KERNEL_LIBRARY.signatures.items():
    getattr(lib, name).restype = restype
    getattr(lib, name).argtypes = argtypes
_fastdel.KERNELS = lib

rng = np.random.default_rng(0)
x = rng.uniform(-10.0, 10.0, 300)
grid = np.stack(np.meshgrid(np.arange(20), np.arange(20)), axis=-1).reshape(-1, 2)
small = np.stack(np.meshgrid(np.arange(6), np.arange(6)), axis=-1).reshape(-1, 2)
rounded = np.round(20.0 * np.random.default_rng(1).random((200, 2))) / 20.0
line = np.stack([np.arange(30.0), 0.5 * np.arange(30.0)], axis=1)
top = 2.0 ** 28 - 1.0
ticks = np.array([-top, -2.0 ** 27, -1.0, 0.0, 1.0, 2.0 ** 27, top])
moved = grid * 1.0
for i in (45, 217, 390):
    moved[i, i % 2] = np.nextafter(moved[i, i % 2], np.inf)
clouds = [
    [(0, 0), (2, 0), (1, 2)],
    [(0, 0), (2, 0), (2, 2), (0, 2)],
    [(0, 0), (4, 0), (5, 3), (2, 5), (-1, 3)],
    rng.random((100, 2)),
    rng.random((3000, 2)),
    np.stack([x, x * x], axis=1),
    np.vstack([[(0.0, 0.0), (1e-3, 0.0), (2e-3, 0.0)], 0.5 + 0.5 * rng.random((50, 2))]),
    rng.random((300, 2)) * 2.0 ** -300,
    # cocircular cells and points on edges: the exact stage, the
    # perturbation and the edge splits
    grid,
    np.unique(rounded, axis=0),
    small + 1e8,
    np.vstack([line, [(3.0, 7.0)]]),
    # the integer stage at its bounds: int64 and __int128 arithmetic on
    # integers up to 2^28 - 1 of either sign, scales of 2^1000 and of
    # subnormals, and builds that also reach long double
    np.stack(np.meshgrid(ticks, ticks), axis=-1).reshape(-1, 2),
    small * 2.0 ** 1000,
    small * 2.0 ** -1060,
    moved,
    0.05 * grid,
]
# the squares of the grid's edges overflow at 2^1000 and underflow at
# 2^-1060, and triangulate raises
out_of_range = [clouds[-4], clouds[-3]]
for pts in clouds:
    try:
        hole_probabilities(hole_persistence(Cloud.from_points(pts)))
    except ValueError as exc:
        assert any(pts is p for p in out_of_range), exc
        assert "range of doubles" in str(exc), exc
    else:
        assert not any(pts is p for p in out_of_range)
# the merge: empty, one pair, all tied (a lattice), ties everywhere, and
# pairs it declines; 300 pairs and more put every buffer in the sanitized
# malloc rather than numpy's small-block cache
tied = np.round(8.0 * rng.random((400, 2))) / 8.0
merge_inputs = [np.empty((0, 2)), np.array([(1.0, 2.0)]), np.tile([0.5, 0.75], (300, 1)),
                np.sort(tied, axis=1), rng.random((3000, 2)).cumsum(axis=1)]
for pairs in merge_inputs:
    diagram = Diagram.from_pairs(pairs)
    hole_probabilities(diagram)
    off = diagram.off_diagonal()
    if len(off):
        assert _fastdel.staircase(off) is not None
for pairs in [np.array([(2.0, 3.0), (1.0, 4.0)] * 200), np.array([(0.0, np.nan)] * 300),
              np.array([(2.0, 1.0), (3.0, 4.0)] * 200)]:
    assert _fastdel.staircase(pairs) is None
# the bottleneck distance: one side empty and both, a single pair, 300
# pairs and more rounded to 1/8 and 1/16 so that costs tie, uniform pairs
# whose search gallops and bisects through 19 tests, and a wheel against
# its moved copy
def on_grid(k, step):
    return Diagram.from_pairs(np.sort(np.round(rng.random((k, 2)) / step) * step, axis=1))
wheel = np.vstack([np.stack([np.cos(a), np.sin(a)], axis=1) for a in [np.linspace(0, 6.2, 600)]]
                  + [rng.uniform(-0.7, 0.7, (1500, 2))])
shaken = wheel + rng.uniform(-1e-3, 1e-3, wheel.shape)
many = Diagram.from_pairs(merge_inputs[4])
bottleneck_inputs = [
    (Diagram.from_pairs([]), many), (many, Diagram.from_pairs([])),
    (Diagram.from_pairs([]), Diagram.from_pairs([])),
    (Diagram.from_pairs([(1.0, 2.0)]), Diagram.from_pairs([(1.25, 2.5)])),
    (on_grid(300, 0.125), on_grid(300, 0.0625)),
    (on_grid(400, 0.125), on_grid(400, 0.125)),
    (Diagram.from_pairs(np.sort(rng.random((300, 2)), axis=1)),
     Diagram.from_pairs(np.sort(rng.random((350, 2)), axis=1))),
    (hole_persistence(Cloud.from_points(wheel)), hole_persistence(Cloud.from_points(shaken))),
]
for d1, d2 in bottleneck_inputs:
    distance = _fastdel.bottleneck(d1.off_diagonal(), d2.off_diagonal())
    assert distance is not None and distance == _fastdel.bottleneck(d2.off_diagonal(),
                                                                     d1.off_diagonal())
assert _fastdel.bottleneck(np.array([(1.0, 2.0), (0.0, 3.0)] * 200), many.pairs) is None
for pts in [clouds[4]] + clouds[-9:]:
    cloud = Cloud.from_points(pts)
    assert _fastdel.build_triangulation(cloud.points, cloud.order) is not None
# the Morton order on one long run of equal keys, and on a span that
# overflows, whose keys are NaN or out of range until clamped
for pts in [np.vstack([1e-9 * rng.random((10000, 2)), [(1.0, 1.0)]]),
            1.5e308 * rng.uniform(-1.0, 1.0, (3000, 2))]:
    kept, order = _fastdel.morton_dedup(pts)
    assert kept is None and np.array_equal(np.sort(order), np.arange(len(pts)))
    assert _fastdel.build_triangulation(pts, order) is not None
# ingest's Morton pass: repeats in short runs and in one long run of equal
# keys, an all-equal cloud, n = 0 and 1, and a span that overflows
spread = rng.random((2000, 2))
spread[rng.integers(0, 2000, 200)] = spread[rng.integers(0, 2000, 200)]
cluster = np.vstack([1e-9 * rng.random((3000, 2)), [(1.0, 1.0)]])
cluster = np.vstack([cluster, cluster[rng.integers(0, 3001, 500)]])
for pts in [spread, cluster[rng.permutation(len(cluster))], np.full((50, 2), 3.0),
            np.empty((0, 2)), np.ones((1, 2)),
            1.5e308 * rng.uniform(-1.0, 1.0, (3000, 2))]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cloud = Cloud.from_points(pts)
    assert np.array_equal(np.sort(cloud.order), np.arange(cloud.n))
    assert cloud.n == len(np.unique(pts, axis=0))
# the builder's collinear exit, after a long walk for a third point, and a
# Cloud built without from_points, which triangulate passes through it
try:
    hole_persistence(Cloud.from_points(np.stack([np.arange(3000.0)] * 2, axis=1)))
except AllCollinearError:
    pass
else:
    raise AssertionError("a collinear cloud was triangulated")
direct = np.unique(rounded, axis=0)[::-1].copy()
assert (hole_persistence(Cloud(points=direct)).pairs.tobytes()
        == hole_persistence(Cloud.from_points(direct)).pairs.tobytes())
print("clean")
"""


# Inputs and outputs live in numpy buffers of exactly their size, which
# PYTHONMALLOC=malloc leaves to the sanitized malloc, so a read or write one
# byte past either end is caught.
_SANITIZED_TEXT_RUN = """
import ctypes, json, sys
import numpy as np
from holecount import Cloud, _fastdel, cli

lib = ctypes.PyDLL(sys.argv[1])
for name, (restype, argtypes) in _fastdel.TEXT_LIBRARY.signatures.items():
    getattr(lib, name).restype = restype
    getattr(lib, name).argtypes = argtypes
cli.TEXT = lib

def parse(text):
    data = np.frombuffer(text.encode(), dtype=np.uint8).copy()
    rows = np.empty((text.count("\\n") + 1, 2))
    n = lib.hc_parse_rows(data, rows)
    return n, rows[:max(n, 0)].tolist()

assert parse("1,2\\n3,-4.5e-3") == (2, [[1.0, 2.0], [3.0, -4.5e-3]])
assert parse("# x\\n\\n 1 ,\\t2") == (1, [[1.0, 2.0]])
assert parse("") == (0, [])
assert parse("-") == (-1, [])
assert parse("1,-") == (-1, [])
assert parse("1,") == (-1, [])
assert parse("# comment without newline") == (0, [])
assert parse("1,2\\n3,4") == (2, [[1.0, 2.0], [3.0, 4.0]])
assert parse("# c\\r\\n1,2\\r\\n\\r\\n3,4\\r\\n") == (2, [[1.0, 2.0], [3.0, 4.0]])
assert parse("# c\\r1,2") == (-1, [])
assert parse("1,2\\r") == (-1, [])
assert parse("# caf\\u00e9\\n1,2") == (-1, [])

longest = np.full((2, 2), -2.2250738585072014e-308)
out = np.empty(50, dtype=np.uint8)  # the bound of one row, its separator included
assert lib.hc_write_rows(longest, 1, 2, b",", b"\\n", out) == 50
assert lib.hc_write_rows(longest, 0, 0, b",", b"\\n", out[:0]) == 0

rng = np.random.default_rng(0)
bits = rng.integers(0, 2 ** 64, 20000, dtype=np.uint64).view(np.float64)

# the keyed writer: its bound is 2 * 24 + 4 bytes per entry plus the
# separator; the longest key and value fill 48 of them
def entries(keys, values, i0, i1, cap):
    keys = np.array(keys, dtype=np.int64)
    values = np.array(values, dtype=np.float64)
    out = np.empty(cap, dtype=np.uint8)
    n = lib.hc_write_entries(keys, values, i0, i1, b",\\n    ", out)
    return str(out[:n], "ascii") if n >= 0 else n

key, value = -2 ** 63, -2.2250738585072014e-308
assert entries([key, key], [value, value], 1, 2, 58) == ',\\n    "%d": %r' % (key, value)
assert entries([key, key], [value, value], 1, 2, 57) == -1
assert entries([], [], 0, 0, 0) == ""
assert entries([3], [0.5], 0, 1, 58) == '"3": 0.5'
assert entries([1, 1, 1], [0.25, 0.25, np.inf], 0, 3, 3 * 58) == -1
keys = rng.integers(-2 ** 63, 2 ** 63 - 1, 3000, dtype=np.int64, endpoint=True)
values = bits[np.isfinite(bits)][:3000]
table = dict(zip(keys.tolist(), values.tolist()))
text = cli._entries_text(table, ",\\n    ")
assert text == json.dumps({str(k): v for k, v in table.items()}, separators=(",\\n    ", ": "))[1:-1]
tied = dict.fromkeys(range(300), 0.5)
assert cli._entries_text(tied, ", ") == ", ".join('"%d": 0.5' % k for k in range(300))

points = np.unique(bits[np.isfinite(bits)][:10000].reshape(-1, 2), axis=0)
cloud = Cloud.from_points(points)
cli.save_cloud_csv(sys.argv[2], cloud, comment="bit patterns")
assert cli.load_cloud_csv(sys.argv[2]).points.tobytes() == cloud.points.tobytes()
report = cli.compute_report(Cloud.from_points(rng.random((3000, 2))))
back = cli.RunReport.from_json(report.to_json()).diagram.pairs
assert back.tobytes() == report.diagram.pairs.tobytes()
print("clean")
"""


def _run_sanitized(library, script, tmp_path, **extra_env):
    """Run `script` in a child with `library` built under ASan and UBSan and
    its runtimes preloaded; the script binds the library itself and prints
    'clean' at its end.  UBSan also checks float-to-integer casts, which
    -fsanitize=undefined leaves out."""
    lib = tmp_path / f"{library.source.stem}.so"
    checks = "undefined,float-cast-overflow"
    subprocess.run([library.compiler, *library.flags, "-g",
                    f"-fsanitize=address,{checks}",
                    f"-fno-sanitize-recover={checks}", "-o", str(lib),
                    str(library.source), "-lm"], check=True)
    env = dict(os.environ, LD_PRELOAD=" ".join(_sanitizer_runtimes()),
               ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=str(Path(holecount.__file__).parents[1]), **extra_env)
    out = subprocess.run([sys.executable, "-c", script, str(lib),
                          str(tmp_path / "cloud.csv")], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr[-3000:]
    assert out.stdout.strip() == "clean"


@pytest.mark.skipif(_sanitizer_runtimes() is None,
                    reason="no gcc with AddressSanitizer and UBSan runtimes")
def test_kernels_clean_under_sanitizers(tmp_path):
    # every kernel, the builder on its edge cases included, runs without an
    # out-of-bounds access, use after free or undefined behaviour
    _run_sanitized(_fastdel.KERNEL_LIBRARY, _SANITIZED_RUN, tmp_path)


@pytest.mark.skipif(_sanitizer_runtimes() is None or shutil.which("g++") is None,
                    reason="no g++ with AddressSanitizer and UBSan runtimes")
def test_text_clean_under_sanitizers(tmp_path):
    # both text functions, on their edge cases and on a save/load and report
    # round trip, run without an out-of-bounds access or undefined behaviour
    _run_sanitized(_fastdel.TEXT_LIBRARY, _SANITIZED_TEXT_RUN, tmp_path,
                   PYTHONMALLOC="malloc")


def test_import_leaves_out_cli_and_oracles():
    code = (
        "import sys\n"
        "import holecount\n"
        "print(sorted(m for m in ('holecount.cli', 'holecount.oracles',\n"
        "                         'holecount.plots', 'holecount.samplers')\n"
        "             if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(holecount.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_import_without_compiler(tmp_path):
    # a copy of the package with no cached build and no compiler on PATH
    shutil.copytree(Path(holecount.__file__).parent, tmp_path / "holecount",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code = (
        "import logging\n"
        "logging.basicConfig(level=logging.DEBUG)\n"
        "from holecount import Cloud, _fastdel, hole_persistence\n"
        "assert _fastdel.KERNELS is None\n"
        "print(len(hole_persistence(Cloud.from_points("
        "[(0, 0), (2, 0), (2, 2), (0, 2)]))))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path), PATH=str(tmp_path))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"
    assert "compiled kernels unavailable" in out.stderr

    # compute --json reads and writes through the Python reference paths,
    # and its text is the compiled writer's for the same report
    cloud = tmp_path / "cloud.csv"
    points = np.random.default_rng(4).uniform(0.0, 1.0, (500, 2))
    cloud.write_text("# uniform\n" + "".join(f"{x!r}, {y!r}\n" for x, y in points.tolist()))
    code = (
        "import logging, sys\n"
        "logging.basicConfig(level=logging.DEBUG)\n"
        "from holecount import cli\n"
        "assert cli.TEXT is None\n"
        "sys.exit(cli.cli_main(['compute', sys.argv[1], '--json']))\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(cloud)], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert "compiled kernels unavailable (_text.cpp)" in out.stderr
    report = RunReport.from_json(out.stdout)
    assert out.stdout == report.to_json() + "\n"
    assert np.array_equal(report.diagram.pairs,
                          compute_report(load_cloud_csv(cloud)).diagram.pairs)
