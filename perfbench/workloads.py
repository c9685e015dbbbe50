"""The four workloads: seeded inputs, the timed call, and the check.

Inputs are generated during set-up, so the program only ever receives
finished arrays or CSV files. Every answer is checked against a reference
that does not go through the pipeline: a closed form (lattice), a known
shape (shapes), the stability theorem (compare), or scipy's ConvexHull and
Euler's formula (uniform). A failed check counts as a failed operation; it
never stops the run.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from holecount import cli, delaunay, diagrams, forest
from holecount.samplers import ShapeSpec, sample_shape

# Sizes per profile. "full" is what the benchmark measures; "tiny" is the
# smoke test's and the warm-up's. Full-size operations stay short (0.02-0.07 s)
# and each input comes round ten or more times in a run, so that its fastest
# pass meets the machine at full speed; acceptance criterion 6 keeps 10^6
# points.
SIZES = {
    "full": {"uniform": 5000, "lattice": 20, "shapes": (64, 3000), "compare": (40, 1000)},
    "tiny": {"uniform": 400, "lattice": 8, "shapes": (8, 600), "compare": (2, 300)},
}
WORKLOAD_IDS = {"uniform": 1, "lattice": 2, "shapes": 3, "compare": 4}
NOISE = 0.005
COMPARE_EPS = 0.002
LATTICE_PAIR = (0.5, math.sqrt(2.0) / 2.0)


# -- checks: each returns None or a one-line reason ---------------------------

def coverage_failure(triangles, n_distinct: int):
    used = np.unique(np.asarray(triangles)).size
    if used != n_distinct:
        return f"{n_distinct - used} of {n_distinct} points are not triangulation vertices"
    return None


def triangle_count_failure(count: int, expected: int):
    if count != expected:
        return f"{count} triangles, Euler's formula with the hull gives {expected}"
    return None


def roundtrip_failure(pairs, reread_pairs):
    if not np.array_equal(pairs, reread_pairs):
        return "JSON report does not round-trip to the same diagram"
    return None


def lattice_failure(pairs, m: int):
    pairs = np.asarray(pairs).reshape(-1, 2)
    if len(pairs) != (m - 1) ** 2:
        return f"{len(pairs)} pairs, a {m}x{m} lattice has {(m - 1) ** 2}"
    if len(pairs) and np.abs(pairs - LATTICE_PAIR).max() > 1e-12:
        return "a lattice pair differs from (1/2, sqrt(2)/2)"
    return None


def count_failure(inferred: int, most_likely: int, spokes: int):
    if inferred != spokes or most_likely != spokes:
        return f"inferred {inferred}, most likely {most_likely}, wheel has {spokes} holes"
    return None


def bottleneck_failure(distance: float, eps: float):
    if not distance <= eps + 1e-9:
        return f"bottleneck {distance!r} exceeds the displacement bound {eps}"
    return None


def n_distinct(points) -> int:
    return len(np.unique(np.asarray(points), axis=0))


def digest(*arrays) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.digest()


# -- workloads ------------------------------------------------------------------

class Workload:
    """One set of inputs, ``inputs``, and what is done with each of them.

    - ``run(inp)`` is the timed operation.
    - ``check(inp, out, tri)`` returns None or a failure reason; ``tri`` is the
      triangulation the operation built, or None if none was observed.
    - ``answer(out)`` is a digest that must repeat whenever the same input
      comes round again.
    - ``points(inp)`` counts the distinct points the operation receives.
    - ``clouds(inp)`` lists the point arrays it triangulates, for the traced
      counters.
    """

    inputs: list
    compares = False  # True when each input is a pair of clouds to compare


class Uniform(Workload):
    """The `holecount compute --json` path on one uniform cloud."""

    def __init__(self, rng, n: int, workdir: Path):
        self.cloud = rng.uniform(0.0, 1.0, size=(n, 2))
        self.n = n_distinct(self.cloud)
        self.expected_triangles = 2 * self.n - 2 - len(ConvexHull(self.cloud).vertices)
        path = workdir / f"uniform-{n}.csv"
        with open(path, "w") as fh:
            fh.writelines(f"{x!r},{y!r}\n" for x, y in self.cloud.tolist())
        self.inputs = [path]

    def run(self, path):
        report = cli.compute_report(cli.load_cloud_csv(path), source=str(path))
        return report, report.to_json()

    def check(self, path, out, tri):
        report, text = out
        if tri is None:
            return "no triangulation observed"
        return (coverage_failure(tri.triangles, self.n)
                or triangle_count_failure(len(tri.triangles), self.expected_triangles)
                or roundtrip_failure(report.diagram.pairs,
                                     cli.RunReport.from_json(text).diagram.pairs))

    def answer(self, out):
        return digest(out[0].diagram.pairs)

    def points(self, path):
        return self.n

    def clouds(self, path):
        return [self.cloud]


class Lattice(Workload):
    """An m x m integer lattice in seeded order: every edge length is tied."""

    def __init__(self, rng, m: int):
        grid = np.stack(np.meshgrid(np.arange(m, dtype=float), np.arange(m, dtype=float)),
                        axis=-1).reshape(-1, 2)
        self.m = m
        self.inputs = [grid[rng.permutation(len(grid))]]

    def run(self, pts):
        return forest.hole_persistence(delaunay.Cloud.from_points(pts))

    def check(self, pts, diagram, tri):
        return lattice_failure(diagram.pairs, self.m)

    def answer(self, diagram):
        return digest(diagram.pairs)

    def points(self, pts):
        return len(pts)

    def clouds(self, pts):
        return [pts]


class Shapes(Workload):
    """Noisy wheels; every 4th is translated by 10^3, 10^4, 10^5, 10^6 in turn."""

    def __init__(self, rng, count: int, n: int):
        self.inputs = []
        for i in range(count):
            spokes = int(rng.integers(5, 8))
            pts = sample_shape(ShapeSpec.wheel(spokes), n, noise=NOISE,
                               seed=int(rng.integers(2 ** 32))).points
            offset = 10.0 ** (3 + (i // 4) % 4) if i % 4 == 3 else 0.0
            pts = pts + offset
            self.inputs.append((pts, spokes, n_distinct(pts), offset))

    def run(self, inp):
        diagram = forest.hole_persistence(delaunay.Cloud.from_points(inp[0]))
        inferred, _ = diagrams.infer_hole_count(diagram)
        return diagram, inferred, diagrams.hole_probabilities(diagram).most_likely()

    def check(self, inp, out, tri):
        _, spokes, distinct, offset = inp
        failure = ("no triangulation observed" if tri is None
                   else coverage_failure(tri.triangles, distinct)
                   or count_failure(out[1], out[2], spokes))
        if failure and offset:
            return f"translated by {offset:g}: {failure}"
        return failure

    def answer(self, out):
        return digest(out[0].pairs, [out[1], out[2]])

    def points(self, inp):
        return inp[2]

    def clouds(self, inp):
        return [inp[0]]


class Compare(Workload):
    """Pairs of a noisy wheel and a copy with every point moved by at most eps."""

    compares = True

    def __init__(self, rng, count: int, n: int):
        self.inputs = []
        for _ in range(count):
            spec = ShapeSpec.wheel(int(rng.integers(5, 8)))
            pts = sample_shape(spec, n, noise=NOISE, seed=int(rng.integers(2 ** 32))).points
            radius = COMPARE_EPS * np.sqrt(rng.uniform(size=n))
            theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
            moved = pts + np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
            self.inputs.append((pts, moved, n_distinct(pts) + n_distinct(moved)))

    def run(self, inp):
        d1 = forest.hole_persistence(delaunay.Cloud.from_points(inp[0]))
        d2 = forest.hole_persistence(delaunay.Cloud.from_points(inp[1]))
        return diagrams.bottleneck_distance(d1, d2)

    def check(self, inp, distance, tri):
        return bottleneck_failure(distance, COMPARE_EPS)

    def answer(self, distance):
        return digest([distance])

    def points(self, inp):
        return inp[2]

    def clouds(self, inp):
        return [inp[0], inp[1]]


def build(name: str, seed: int, size: str, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, WORKLOAD_IDS[name]])
    sizes = SIZES[size]
    if name == "uniform":
        return Uniform(rng, sizes["uniform"], workdir)
    if name == "lattice":
        return Lattice(rng, sizes["lattice"])
    if name == "shapes":
        return Shapes(rng, *sizes["shapes"])
    return Compare(rng, *sizes["compare"])


# -- per-layer counters of the traced run ----------------------------------------

def layer_counts(wl: Workload) -> tuple:
    """(counters, absent layers) over one pass of the workload's inputs.

    Counts and ratios repeat exactly for a given seed. They are taken outside
    the timed operations, through public names only; a name the package no
    longer has leaves its counters at 0 and is reported absent.
    """
    absent = [name for module, name in
              ((delaunay, "triangulate"), (forest, "triangle_births"),
               (forest, "sweep_events"), (forest, "hole_persistence_stats"),
               (diagrams, "staircase"))
              if not hasattr(module, name)]
    c = dict.fromkeys(("n_distinct", "used", "triangles", "edges", "tied_edges", "acute",
                       "case1", "case2", "case3", "case4", "max_root_walk", "pairs",
                       "stair_intervals", "bottleneck_cells"), 0)
    for inp in wl.inputs:
        sizes = []
        for pts in wl.clouds(inp):
            c["n_distinct"] += n_distinct(pts)
            cloud = delaunay.Cloud.from_points(pts)
            if "triangulate" not in absent:
                tri = delaunay.triangulate(cloud)
                c["used"] += np.unique(tri.triangles).size
                c["triangles"] += len(tri.triangles)
                c["edges"] += len(tri.edge_length_sq)
                _, run = np.unique(tri.edge_length_sq, return_counts=True)
                c["tied_edges"] += int(run[run > 1].sum())
                if "triangle_births" not in absent:
                    c["acute"] += int(np.count_nonzero(forest.triangle_births(tri) > 0))
            if "sweep_events" not in absent:
                for event in forest.sweep_events(cloud):
                    c[f"case{event.case}"] += 1
            if "hole_persistence_stats" not in absent:
                diagram, walk, _ = forest.hole_persistence_stats(cloud, track_depth=True)
                c["max_root_walk"] = max(c["max_root_walk"], int(walk))
                c["pairs"] += len(diagram)
                if "staircase" not in absent:
                    c["stair_intervals"] += len(diagrams.staircase(diagram).counts)
                sizes.append(len(diagram.off_diagonal()))
        if wl.compares and len(sizes) == 2:
            # Computed, not counted inside the program: bottleneck_distance
            # builds an (m1+m2)^2 matrix per feasibility test and binary-searches
            # at most 1 + m1 + m2 + m1*m2 candidate values.
            m1, m2 = sizes
            tests = math.ceil(math.log2(1 + m1 + m2 + m1 * m2))
            c["bottleneck_cells"] += (m1 + m2) ** 2 * tests
    counters = {
        "delaunay.n_distinct": c["n_distinct"],
        "delaunay.vertex_coverage": c["used"] / c["n_distinct"] if c["n_distinct"] else 0.0,
        "delaunay.triangles": c["triangles"],
        "delaunay.edges": c["edges"],
        "delaunay.tied_edges": c["tied_edges"],
        "forest.acute_fraction": c["acute"] / c["triangles"] if c["triangles"] else 0.0,
        "forest.case1": c["case1"],
        "forest.case2": c["case2"],
        "forest.case3": c["case3"],
        "forest.case4": c["case4"],
        "forest.max_root_walk": c["max_root_walk"],
        "diagrams.pairs": c["pairs"],
        "diagrams.stair_intervals": c["stair_intervals"],
        "diagrams.bottleneck_cells": c["bottleneck_cells"],
    }
    return counters, absent
