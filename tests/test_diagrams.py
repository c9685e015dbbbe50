"""Diagram views: staircase, probabilities, barcode, bottleneck distance,
widest-gap inference."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from holecount import Cloud, _fastdel, hole_persistence
from holecount import diagrams as diagrams_mod
from holecount.diagrams import (
    Diagram,
    barcode,
    bottleneck_distance,
    hole_probabilities,
    infer_hole_count,
    staircase,
)
from holecount.oracles import bottleneck_distance_dense
from holecount.samplers import ShapeSpec, sample_shape

from conftest import random_cloud

SQRT2 = math.sqrt(2.0)
FIG8_DEATH = 5.0 * math.sqrt(17.0) / 8.0

pair_lists = st.lists(
    st.tuples(st.floats(0.0, 50.0), st.floats(0.0, 50.0)).map(
        lambda p: (min(p), max(p))
    ),
    max_size=8,
)


def grid_pair_lists(step):
    """Pairs on a coarse grid: heavy ties in every cost, repeated pairs."""
    return st.lists(
        st.tuples(st.integers(0, 6), st.integers(0, 6)).map(
            lambda p: (min(p) * step, max(p) * step)
        ),
        max_size=12,
    )


diagonal_lists = st.lists(st.floats(0.0, 50.0).map(lambda b: (b, b)), max_size=4)
any_pair_lists = st.one_of(
    pair_lists, grid_pair_lists(1.0), grid_pair_lists(0.125), diagonal_lists
)


# Diagrams for the merge: a lattice's diagram is one pair repeated (cell
# size s: born at s/2, dead at s/sqrt(2)), here for up to three cell sizes,
# and grids tie births with births, deaths with deaths and births with
# deaths; diagonal pairs ride along, as on any diagram.
lattice_pair_lists = st.lists(
    st.tuples(st.integers(1, 40), st.sampled_from([0.125, 1.0, 3.0])), max_size=3
).map(lambda cells: [(0.5 * s, s * SQRT2 / 2.0) for count, s in cells for _ in range(count)])
merge_pair_lists = st.tuples(
    st.one_of(pair_lists, grid_pair_lists(1.0), grid_pair_lists(0.125), lattice_pair_lists),
    diagonal_lists,
).map(lambda parts: parts[0] + parts[1])

needs_kernels = pytest.mark.skipif(
    _fastdel.KERNELS is None, reason="compiled kernels unavailable (no C compiler)"
)


def D(*pairs):
    return Diagram.from_pairs(list(pairs))


def wheel_and_moved_copy(seed, spokes, eps, n=300):
    """The diagrams of a noisy wheel and of a copy with every point moved
    by at most eps."""
    points = sample_shape(ShapeSpec.wheel(spokes), n, noise=0.005, seed=seed).points
    rng = np.random.default_rng(seed)
    radius = eps * np.sqrt(rng.uniform(size=len(points)))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=len(points))
    moved = points + np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    return (hole_persistence(Cloud.from_points(points)),
            hole_persistence(Cloud.from_points(moved)))


def _cloud(name, request):
    """A conftest fixture, a seeded uniform cloud or a square lattice."""
    kind, _, size = name.partition("-")
    if kind == "uniform":
        return random_cloud(int(size), int(size))
    if kind == "lattice":
        m = int(size)
        return Cloud.from_points(
            np.stack(np.meshgrid(np.arange(m), np.arange(m)), axis=-1).reshape(-1, 2))
    return request.getfixturevalue(name)


def reference_views(diagram):
    """(staircase, probabilities) from the np.unique reference path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_fastdel, "KERNELS", None)
        return staircase(diagram), hole_probabilities(diagram).probabilities


def assert_same_views(diagram):
    """The views of the merge kernel equal the reference's bit for bit: the
    staircase arrays with their dtypes, and the probabilities with their
    key order."""
    stair, table = staircase(diagram), hole_probabilities(diagram).probabilities
    ref_stair, ref_table = reference_views(diagram)
    for got, want in ((stair.breakpoints, ref_stair.breakpoints),
                      (stair.counts, ref_stair.counts)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert repr(list(table.items())) == repr(list(ref_table.items()))
    return stair


class TestDiagram:
    def test_sorted_canonically(self):
        d = D((3, 4), (1, 2), (1, 1.5))
        assert d.pairs.tolist() == [[1, 1.5], [1, 2], [3, 4]]

    def test_rejects_inverted_pair(self):
        with pytest.raises(ValueError):
            D((2, 1))

    def test_rejects_infinite_death(self):
        with pytest.raises(ValueError):
            D((1, math.inf))

    def test_off_diagonal_drops_zero_persistence(self):
        d = D((1, 1), (1, 2))
        assert d.off_diagonal().tolist() == [[1, 2]]

    def test_empty(self):
        assert len(D()) == 0
        assert D().persistences().tolist() == []

    @given(pair_lists)
    @settings(max_examples=100)
    def test_any_order_gives_the_lexsort(self, pairs):
        # births descending take the reversal; ties and other orders the sort
        arr = np.array(pairs, dtype=np.float64).reshape(-1, 2)
        ranked = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        for given_order in (arr, arr[::-1], ranked, ranked[::-1]):
            expected = given_order[np.lexsort((given_order[:, 1], given_order[:, 0]))]
            got = Diagram.from_pairs(given_order).pairs
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("pairs", [[(2.0, 3.0), (1.0, 2.0)], [(1.0, 2.0)], []])
    def test_pairs_read_only_and_own(self, pairs):
        src = np.array(pairs, dtype=np.float64).reshape(-1, 2)
        d = Diagram.from_pairs(src)
        assert not d.pairs.flags.writeable and src.flags.writeable
        assert not np.shares_memory(d.pairs, src)
        assert d.off_diagonal() is d.pairs
        if len(d):
            with pytest.raises(ValueError):
                d.off_diagonal()[0, 0] = 0.0


class TestStaircase:
    def test_single_pair(self):
        s = staircase(D((1, SQRT2)))
        assert s.breakpoints.tolist() == [1.0, SQRT2]
        assert s.counts.tolist() == [1]
        assert s.count_at(1.0) == 1
        assert s.count_at(1.2) == 1
        assert s.count_at(SQRT2) == 0  # half-open [birth, death)
        assert s.count_at(0.5) == 0

    def test_overlapping_pairs(self):
        s = staircase(D((1, 2), (1.5, 3)))
        assert s.breakpoints.tolist() == [1.0, 1.5, 2.0, 3.0]
        assert s.counts.tolist() == [1, 2, 1]

    def test_figure_eight_steps(self):
        s = staircase(D((1.5, FIG8_DEATH), (2.0, FIG8_DEATH)))
        assert s.counts.tolist() == [1, 2]
        assert s.breakpoints.tolist() == [1.5, 2.0, FIG8_DEATH]

    def test_empty_diagram(self):
        s = staircase(D())
        assert s.empty
        assert s.count_at(1.0) == 0

    @pytest.mark.parametrize("pairs", [[(1, SQRT2)], []])
    def test_nan_scale_rejected(self, pairs):
        with pytest.raises(ValueError):
            staircase(Diagram.from_pairs(pairs)).count_at(math.nan)

    @given(merge_pair_lists)
    @settings(max_examples=100)
    def test_counts_match_direct_membership(self, pairs):
        d = Diagram.from_pairs(pairs)
        s = staircase(d)
        off = d.off_diagonal()
        probes = np.unique(off) if len(off) else []
        for alpha in probes:
            direct = int(((off[:, 0] <= alpha) & (alpha < off[:, 1])).sum())
            assert s.count_at(float(alpha)) == direct


@needs_kernels
class TestMergeMatchesReference:
    @given(merge_pair_lists)
    @settings(max_examples=300, deadline=None)
    @example([])
    @example([(1.0, 2.0)])
    @example([(1.0, 1.0), (2.0, 2.0)])
    @example([(1.0, 2.0), (2.0, 3.0), (2.0, 3.0), (0.0, 2.0)])
    @example([(0.5, SQRT2 / 2.0)] * 361)
    def test_staircase_and_probabilities_bit_identical(self, pairs):
        # tied births and deaths, births equal to other pairs' deaths,
        # zero-persistence pairs, m = 0 and 1, lattices
        diagram = Diagram.from_pairs(pairs)
        stair = assert_same_views(diagram)
        assert (stair.shares is not None) == (len(diagram.off_diagonal()) > 0)

    @pytest.mark.parametrize("fixture", ["square2", "equilateral2", "figure_eight",
                                         "uniform-3000", "uniform-20000", "lattice-20"])
    def test_pipeline_diagrams_bit_identical(self, fixture, request):
        assert_same_views(hole_persistence(_cloud(fixture, request)))

    @pytest.mark.parametrize("pairs", [
        pytest.param([(2.0, 3.0), (1.0, 4.0)], id="births-descending"),
        pytest.param([(-0.0, 1.0), (0.0, 2.0), (0.0, 3.0)], id="birth-minus-zero"),
    ])
    def test_declined_pairs_take_the_reference(self, pairs):
        # a hand-built Diagram skips from_pairs' sort, and np.unique may
        # order -0.0 either side of 0.0: the kernel declines both
        diagram = Diagram(pairs=np.array(pairs))
        stair = assert_same_views(diagram)
        assert stair.shares is None
        assert stair.counts.tolist() == reference_views(Diagram.from_pairs(pairs))[0].counts.tolist()


class TestHoleProbabilities:
    def test_single_pair_certain(self):
        assert hole_probabilities(D((1, SQRT2))).probabilities == {1: 1.0}

    def test_gap_counts_toward_zero(self):
        table = hole_probabilities(D((1, 2), (3, 4))).probabilities
        assert table[1] == pytest.approx(2.0 / 3.0)
        assert table[0] == pytest.approx(1.0 / 3.0)

    def test_figure_eight_split(self):
        table = hole_probabilities(
            D((1.5, FIG8_DEATH), (2.0, FIG8_DEATH))
        ).probabilities
        assert table[1] == pytest.approx(0.5 / (FIG8_DEATH - 1.5), abs=1e-12)
        assert table[1] == pytest.approx(0.4643, abs=5e-4)
        assert table[2] == pytest.approx(0.5357, abs=5e-4)

    def test_empty_diagram_flagged(self):
        table = hole_probabilities(D())
        assert table.probabilities == {0: 1.0}
        assert table.empty_range

    def test_most_likely_and_ordering(self):
        table = hole_probabilities(D((1, 2), (3, 4)))
        assert table.most_likely() == 1
        entries = table.sorted_entries()
        assert [k for k, _ in entries] == [1, 0]

    @pytest.mark.parametrize("fixture", ["square2", "equilateral2", "figure_eight", None,
                                         "lattice-20"])
    def test_matches_running_sum_loop(self, fixture, request):
        # None: a 2000-point uniform cloud
        cloud = _cloud(fixture, request) if fixture else random_cloud(11, 2000)
        diagram = hole_persistence(cloud)
        stair = staircase(diagram)
        lengths = np.diff(stair.breakpoints)
        total = stair.breakpoints[-1] - stair.breakpoints[0]
        expected: dict = {}
        for count, length in zip(stair.counts, lengths):
            expected[int(count)] = expected.get(int(count), 0.0) + float(length) / float(total)
        got = hole_probabilities(diagram).probabilities
        assert list(got.items()) == list(expected.items())
        assert all(type(k) is int and type(v) is float for k, v in got.items())

    @given(merge_pair_lists)
    @settings(max_examples=100)
    def test_probabilities_sum_to_one(self, pairs):
        table = hole_probabilities(Diagram.from_pairs(pairs))
        assert sum(table.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


class TestBarcode:
    def test_descending_lengths(self):
        assert barcode(D((1, 3), (2, 2.5))).lengths.tolist() == [2.0, 0.5]

    def test_empty(self):
        assert barcode(D()).lengths.tolist() == []

    def test_figure_eight(self):
        lengths = barcode(D((1.5, FIG8_DEATH), (2.0, FIG8_DEATH))).lengths
        assert lengths == pytest.approx([FIG8_DEATH - 1.5, FIG8_DEATH - 2.0])
        assert lengths[0] == pytest.approx(1.07694, abs=1e-5)


class TestInferHoleCount:
    def test_two_prominent_pairs(self):
        d = D((0, 0.05), (0, 0.08), (0, 1.0), (0, 1.1))
        k, gap = infer_hole_count(d)
        assert k == 2
        assert gap == pytest.approx(0.92)

    def test_single_pair(self):
        k, gap = infer_hole_count(D((1, SQRT2)))
        assert k == 1
        assert gap == pytest.approx(SQRT2 - 1.0)

    def test_figure_eight(self):
        k, _ = infer_hole_count(D((1.5, FIG8_DEATH), (2.0, FIG8_DEATH)))
        assert k == 2

    def test_empty(self):
        assert infer_hole_count(D()) == (0, 0.0)

    def test_zero_persistence_ignored(self):
        k, _ = infer_hole_count(D((1, 1), (2, 2), (0, 1)))
        assert k == 1


class TestBottleneck:
    def test_identical_zero(self):
        d = D((0, 2), (1, 3))
        assert bottleneck_distance(d, d) == 0.0

    def test_point_to_point(self):
        assert bottleneck_distance(D((0, 2)), D((0, 2.5))) == pytest.approx(0.5)

    def test_point_to_diagonal(self):
        assert bottleneck_distance(D((0, 2)), D()) == pytest.approx(1.0)

    def test_both_empty(self):
        assert bottleneck_distance(D(), D()) == 0.0

    def test_diagonal_beats_far_match(self):
        # matching the two real points would cost 10; sending both to the
        # diagonal costs max(1, 0.5)
        assert bottleneck_distance(D((0, 2)), D((10, 11))) == pytest.approx(1.0)

    def test_multiplicity(self):
        d1 = D((0, 2), (0, 2))
        d2 = D((0, 2), (0.3, 2))
        assert bottleneck_distance(d1, d2) == pytest.approx(0.3)

    @given(pair_lists, pair_lists)
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_symmetry(self, backend, p1, p2):
        d1, d2 = Diagram.from_pairs(p1), Diagram.from_pairs(p2)
        assert bottleneck_distance(d1, d2) == bottleneck_distance(d2, d1)

    @given(any_pair_lists, any_pair_lists)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @example([], [])
    @example([(0.0, 2.0)], [])
    @example([], [(1.0, 1.0), (0.0, 3.0)])
    @example([(0.1, 0.7)], [(0.3, 0.7)])
    # tied costs: every cross pair costs 0.25 or 0.75, every diagonal 0.5
    @example([(0.0, 1.0), (0.5, 1.5)], [(0.25, 1.25), (0.75, 1.75)])
    # repeated pairs, one of them moved by 1/8
    @example([(1.0, 2.0)] * 3, [(1.0, 2.0)] * 2 + [(1.125, 2.0)])
    # every pair of one diagram on the diagonal
    @example([(0.5, 0.5), (3.0, 3.0)], [(0.0, 0.25), (0.125, 0.375)])
    # subnormal costs, where doubling a threshold of 0 does not move it
    @example([(0.0, 1e-323)], [(0.0, 1e-323), (0.0, 1e-323)])
    # the greedy start leaves two rows whose augmenting paths share a column
    @example([(0.125, 0.625), (0.125, 0.75), (0.25, 0.625)],
             [(0.0, 0.5), (0.25, 0.75), (0.625, 0.875)])
    def test_equals_dense_reference(self, backend, p1, p2):
        d1, d2 = Diagram.from_pairs(p1), Diagram.from_pairs(p2)
        assert bottleneck_distance(d1, d2) == bottleneck_distance_dense(d1, d2)
        assert bottleneck_distance(d1, d1) == bottleneck_distance_dense(d1, d1) == 0.0

    @given(st.integers(0, 2 ** 32 - 1), st.integers(3, 7), st.floats(1e-4, 0.01))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_wheel_and_moved_copy_equal_dense_reference(self, backend, seed, spokes, eps):
        d1, d2 = wheel_and_moved_copy(seed, spokes, eps)
        distance = bottleneck_distance(d1, d2)
        assert distance == bottleneck_distance_dense(d1, d2)
        assert distance <= eps + 1e-9  # stability, up to rounding in the radii

    @needs_kernels
    def test_kernel_runs_instead_of_the_reference(self, monkeypatch):
        # with the kernels loaded no kd-tree and no scipy matching runs;
        # without them the wrapper returns None and the reference runs
        calls = []

        def spy(name):
            original = getattr(diagrams_mod, name)

            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(diagrams_mod, name, wrapped)

        spy("_covers")
        spy("cKDTree")
        # seed 1 runs one feasibility test on the reference path
        d1, d2 = wheel_and_moved_copy(seed=1, spokes=5, eps=0.002, n=1000)
        distance = bottleneck_distance(d1, d2)
        assert calls == []
        monkeypatch.setattr(_fastdel, "KERNELS", None)
        assert _fastdel.bottleneck(d1.off_diagonal(), d2.off_diagonal()) is None
        assert bottleneck_distance(d1, d2) == distance
        assert calls.count("cKDTree") == 2 and "_covers" in calls

    @given(pair_lists, pair_lists, pair_lists)
    @settings(max_examples=40, deadline=None)
    def test_triangle_inequality(self, p1, p2, p3):
        d1 = Diagram.from_pairs(p1)
        d2 = Diagram.from_pairs(p2)
        d3 = Diagram.from_pairs(p3)
        ab = bottleneck_distance(d1, d2)
        bc = bottleneck_distance(d2, d3)
        ac = bottleneck_distance(d1, d3)
        assert ac <= ab + bc + 1e-9
