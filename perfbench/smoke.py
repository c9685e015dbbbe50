"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that every metric BENCHMARK.json names is printed with its unit,
in both the untraced and the traced run of every workload; that each check
fires on a corrupted answer; and that the benchmark refuses to run, without
printing a result, where the program's sources are missing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

ERRORS = []


def expect(condition, message) -> None:
    if not condition:
        ERRORS.append(message)


def check_metric_lines(spec) -> None:
    for workload in run.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            details, result = run.bench(workload, seed=7, seconds=0.01, trace=trace, size="tiny")
            label = f"{workload} trace={int(trace)}"
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}")
            expect(result["attempted"] >= 1, f"{label}: nothing attempted")
            expect(result["correct"], f"{label}: answers differ between passes")
            if workload != "shapes":
                expect(result["failed"] == 0, f"{label}: failures {details['failures']}")
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            got = result["metrics"]
            expect(set(got) == set(wanted),
                   f"{label}: missing {sorted(set(wanted) - set(got))},"
                   f" unexpected {sorted(set(got) - set(wanted))}")
            for name, unit in wanted.items():
                entry = got.get(name, {})
                expect(entry.get("unit") == unit, f"{label}: {name} unit {entry.get('unit')}")
                value = entry.get("value")
                expect(isinstance(value, (int, float)) and math.isfinite(value),
                       f"{label}: {name} value {value!r}")
            json.dumps(result)  # must serialise as it is printed


def check_checks_fire() -> None:
    import numpy as np
    import workloads
    from holecount import delaunay, diagrams

    tmp = Path(tempfile.mkdtemp(dir=run.OUT))
    try:
        lattice = workloads.build("lattice", 3, "tiny", tmp)
        pts = lattice.inputs[0]
        diagram = lattice.run(pts)
        expect(lattice.check(pts, diagram, None) is None, "lattice: correct answer rejected")
        dropped = diagrams.Diagram.from_pairs(diagram.pairs[1:])
        expect(lattice.check(pts, dropped, None) is not None, "lattice: dropped pair passed")
        nudged = diagram.pairs.copy()
        nudged[0, 1] += 1e-9
        expect(lattice.check(pts, diagrams.Diagram.from_pairs(nudged), None) is not None,
               "lattice: wrong pair passed")

        compare = workloads.build("compare", 3, "tiny", tmp)
        pair = compare.inputs[0]
        distance = compare.run(pair)
        expect(compare.check(pair, distance, None) is None, "compare: correct answer rejected")
        shifted = distance + 2 * workloads.COMPARE_EPS
        expect(compare.check(pair, shifted, None) is not None, "compare: shifted bound passed")

        shapes = workloads.build("shapes", 3, "tiny", tmp)
        inp = shapes.inputs[0]
        out = shapes.run(inp)
        tri = delaunay.triangulate(delaunay.Cloud.from_points(inp[0]))
        expect(shapes.check(inp, out, tri) is None, "shapes: correct answer rejected")
        expect(shapes.check(inp, (out[0], out[1] + 1, out[2]), tri) is not None,
               "shapes: wrong count passed")
        missing = tri.triangles[~(tri.triangles == 0).any(axis=1)]
        expect(workloads.coverage_failure(missing, inp[2]) is not None,
               "coverage: cloud missing a vertex passed")

        uniform = workloads.build("uniform", 3, "tiny", tmp)
        path = uniform.inputs[0]
        report, text = uniform.run(path)
        tri = delaunay.triangulate(delaunay.Cloud.from_points(uniform.cloud))
        expect(uniform.check(path, (report, text), tri) is None, "uniform: correct answer rejected")
        expect(uniform.check(path, (report, text), None) is not None,
               "uniform: missing triangulation passed")
        expect(workloads.triangle_count_failure(len(tri.triangles) - 1,
                                                uniform.expected_triangles) is not None,
               "uniform: wrong triangle count passed")
        edited = json.loads(text)
        edited["pairs"] = edited["pairs"][1:]
        expect(uniform.check(path, (report, json.dumps(edited)), tri) is not None,
               "uniform: JSON that loses a pair passed")
        expect(workloads.lattice_failure(np.empty((0, 2)), 2) is not None,
               "lattice: empty diagram passed")
    finally:
        shutil.rmtree(tmp)


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "shapes", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0, "ran without the program's sources")
        expect('"metrics"' not in proc.stdout, "printed a result without the program")


def main() -> int:
    run.pin_threads()
    run.import_package()
    run.OUT.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_metric_lines(spec)
    check_checks_fire()
    check_refuses_without_program()
    for error in ERRORS:
        print(f"FAIL {error}")
    print("smoke: ok" if not ERRORS else f"smoke: {len(ERRORS)} failure(s)")
    return 1 if ERRORS else 0


if __name__ == "__main__":
    sys.exit(main())
