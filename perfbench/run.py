"""holecount benchmark: one workload, one closed-loop client, one result line.

Run from the root of a checkout:

    python3 perfbench/run.py --workload uniform --seed 0 --seconds 24 --trace 0

It measures the package under ``src/`` of that checkout, in this process, on
one thread: each operation starts when the previous one has returned. The
last line of standard output is the result object; the line before it holds
the run's details (provenance, the tail percentile and its input count, the
set-up samples, failures, tracing overhead, the span file). See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.util import find_spec
from pathlib import Path

import tracing  # standard library only, so safe before pin_threads()

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
WORKLOADS = ("uniform", "lattice", "shapes", "compare")
SETUP_REPEATS = {"full": 3, "tiny": 1}  # before and again after the timed loop
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
MAX_LISTED_FAILURES = 100

SETUP_CODE = (
    "import sys\n"
    "import numpy as np\n"
    "from holecount.delaunay import Cloud\n"
    "from holecount.forest import hole_persistence\n"
    "hole_persistence(Cloud.from_points(np.load(sys.argv[1])))\n"
)


class MissingProgram(RuntimeError):
    """The checkout has no holecount sources to measure."""


def pin_threads() -> None:
    """One thread per library: must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_package() -> None:
    """Import holecount from this checkout's src/, never from elsewhere."""
    if not (SRC / "holecount" / "__init__.py").is_file():
        raise MissingProgram(f"no holecount package under {SRC}")
    sys.path.insert(0, str(SRC))
    import holecount

    if Path(holecount.__file__).resolve().parent != SRC / "holecount":
        raise MissingProgram(f"holecount imported from {holecount.__file__}, not {SRC}")


def provenance() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            commit = out.stdout.strip() or None
        except OSError:  # no git binary
            pass
    # Read-only probe: the flag that selects the incremental builder.
    have_numba = getattr(sys.modules.get("holecount._fastdel"), "HAVE_NUMBA", None)
    backend = {True: "incremental builder (numba), Qhull when uncertain",
               False: "qhull (scipy.spatial.Delaunay)"}.get(have_numba, "unknown")
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": find_spec("numba") is not None,
        "triangulation_backend": backend,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup(workdir: Path, seed: int, repeats: int) -> list:
    """Wall seconds for fresh interpreters to import holecount and run a
    first hole_persistence on a 100-point cloud."""
    import numpy as np

    points = workdir / "setup-cloud.npy"
    np.save(points, np.random.default_rng([seed, 0]).uniform(0.0, 1.0, size=(100, 2)))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(points)], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def tail(times: list) -> tuple:
    """(seconds, percentile) at the highest percentile of the ladder with at
    least ten samples beyond it; the maximum when there are too few samples."""
    for p in TAIL_LADDER:
        if len(times) * (100 - p) >= 1000 - 1e-6:
            return statistics.quantiles(times, n=1000, method="inclusive")[round(p * 10) - 1], p
    return max(times), 100


def run_once(wl, inp, tracer):
    """Time one operation and check it.

    Returns (seconds, answer digest or None, failure reason or None); the
    output itself is dropped here so it does not stay alive into the next
    operation.
    """
    tracer.captured.clear()
    seconds = None
    t0 = time.perf_counter()
    try:
        out = wl.run(inp)
        seconds = time.perf_counter() - t0
        tri = tracer.captured.pop("delaunay.triangulate", None)
        return seconds, wl.answer(out), wl.check(inp, out, tri)
    except Exception as exc:  # a failed operation or check is counted, not fatal
        if seconds is None:
            seconds = time.perf_counter() - t0
        return seconds, None, f"{type(exc).__name__}: {exc}"


def bench(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple:
    """Run one workload; returns (details, result) as JSON-ready dicts."""
    import workloads  # imports numpy, so only after pin_threads()

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        setup = [] if trace else measure_setup(Path(tmp), seed, SETUP_REPEATS[size])
        wl = workloads.build(workload, seed, size, Path(tmp))
        tracer = tracing.Tracer()
        tracer.install(tracing.CAPTURED)
        warm = workloads.build(workload, seed, "tiny", Path(tmp))
        for inp in warm.inputs:
            run_once(warm, inp, tracer)

        records = []  # (seconds, passed, points, traced, input index)
        failures = {}
        answers = {}
        inconsistent = 0
        per_pass = len(wl.inputs) * (2 if trace else 1)
        start = time.perf_counter()
        while True:
            for index, inp in enumerate(wl.inputs):
                # Traced first, so the run's first traced call of each layer
                # sees the rise in peak RSS.
                for traced in (True, False) if trace else (False,):
                    if traced:
                        tracer.install(tracing.ALL_LAYERS)
                        tracer.op = len(records)
                        tracer.recording = True
                    op_seconds, answer, failure = run_once(wl, inp, tracer)
                    if traced:
                        tracer.recording = False
                        tracer.install(tracing.CAPTURED)
                    if answer is not None:
                        inconsistent += answers.setdefault(index, answer) != answer
                    if failure is not None and len(failures) < MAX_LISTED_FAILURES:
                        failures.setdefault(index, failure)
                    records.append((op_seconds, failure is None, wl.points(inp), traced, index))
            # Stop at the pass boundary nearest to the requested duration, so
            # every input is measured equally often.
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 0.5 / (len(records) // per_pass)) >= seconds:
                break
        wall = time.perf_counter() - start
        tracer.uninstall()
        if not trace:
            # A second batch, half a minute later, meets another speed phase.
            setup += measure_setup(Path(tmp), seed, SETUP_REPEATS[size])

        attempted = len(records)
        failed = sum(not r[1] for r in records)
        details = {
            "workload": workload, "seed": seed, "size": size, "trace": trace,
            "passes": attempted // per_pass,
            "wall_s": wall, "provenance": provenance(),
            "inconsistent_answers": inconsistent,
            "failures": {str(k): v for k, v in sorted(failures.items())},
        }
        if trace:
            metrics = traced_metrics(wl, tracer, records, details)
            span_file = OUT / f"trace-{workload}-seed{seed}.json"
            tracer.write(span_file)
            details["span_file"] = str(span_file.relative_to(ROOT))
        else:
            metrics = end_to_end_metrics(records, setup, details)
    result = {
        # Wrong answers are counted in "failed"; "correct" is false when an
        # input gave different answers on different passes.
        "correct": inconsistent == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return details, result


def best_times(records, traced=False) -> dict:
    """Each input's fastest passing operation: {index: (seconds, points)}.

    The machine's speed swings by up to 2x within a second, so the median of
    all operations follows the phases a run happens to meet. An input's
    fastest pass is the least disturbed measurement of it.
    """
    ops = [r for r in records if r[3] == traced]
    # Failed operations are timed only when none passed; they count no points.
    rows = ([(t, pts, i) for t, ok, pts, _, i in ops if ok]
            or [(t, 0, i) for t, _, _, _, i in ops])
    best = {}
    for seconds, points, index in rows:
        if index not in best or seconds < best[index][0]:
            best[index] = (seconds, points)
    return best


def end_to_end_metrics(records, setup, details) -> dict:
    best = best_times(records)
    times = [t for t, _ in best.values()]
    tail_s, percentile = tail(times)
    details["cloud_tail"] = {"percentile": percentile, "inputs": len(times)}
    details["setup_samples_s"] = setup
    return {
        "cloud_s": {"value": statistics.median(times), "unit": "s"},
        "cloud_tail_s": {"value": tail_s, "unit": "s"},
        "points_per_s": {"value": sum(p for _, p in best.values()) / sum(times),
                         "unit": "1/s"},
        "peak_rss_mb": {"value": tracing.maxrss_mb(), "unit": "MB"},
        "pass_frac": {"value": sum(r[1] for r in records) / len(records), "unit": "ratio"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
    }


# Layers reported as per-operation self time (median over traced operations).
LAYER_TIMES = (
    "cli.load_csv", "cli.to_json", "delaunay.ingest", "delaunay.triangulate",
    "delaunay.sort", "forest.births", "forest.sweep_pairs", "diagrams.from_pairs",
    "diagrams.staircase", "diagrams.probabilities", "diagrams.infer", "diagrams.bottleneck",
)
COUNTER_UNITS = {"delaunay.vertex_coverage": "ratio", "forest.acute_fraction": "ratio"}


def traced_metrics(wl, tracer, records, details) -> dict:
    import workloads  # already loaded by bench()

    traced, untraced = (statistics.median(t for t, _ in best_times(records, flag).values())
                        for flag in (True, False))
    self_times = tracer.self_times()
    metrics = {
        f"{layer}_s": {"value": statistics.median(self_times[layer] or [0.0]), "unit": "s"}
        for layer in LAYER_TIMES
    }
    for layer in ("delaunay.triangulate", "forest.sweep_pairs"):
        metrics[f"{layer}_rss_mb"] = {"value": tracer.rss_rise_mb(layer), "unit": "MB"}
    counters, absent = workloads.layer_counts(wl)
    for name, value in counters.items():
        metrics[name] = {"value": value, "unit": COUNTER_UNITS.get(name, "count")}
    metrics["trace.cloud_s"] = {"value": traced, "unit": "s"}
    metrics["trace.untraced_cloud_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    details["absent_layers"] = sorted(set(tracer.absent) | set(absent))
    details["bottleneck_cells"] = ("computed from diagram sizes as (m1+m2)^2 x "
                                   "ceil(log2(1+m1+m2+m1*m2)), not counted by the program")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    pin_threads()
    try:
        import_package()
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    details, result = bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
