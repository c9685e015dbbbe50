"""Command-line surface: cloud I/O, pipeline runs, tables, SVG plots,
oracle verification, and a scaling benchmark.

Exit status: 0 on success, 1 on input errors, 2 on internal assertion
failures.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import _fastdel
from .delaunay import Cloud
from .diagrams import (
    Diagram,
    bottleneck_distance,
    hole_probabilities,
    infer_hole_count,
)
from .forest import hole_persistence, hole_persistence_stats
from .oracles import verify_equivalence
from .plots import render_plots
from .samplers import ShapeSpec, sample_shape


class CloudFormatError(ValueError):
    """Malformed cloud or pair CSV; message carries the line number."""


#: The compiled number text (``_text.cpp``), or None when it cannot be built;
#: the readers and writers below then take their Python reference paths.
TEXT = _fastdel.load_library(_fastdel.TEXT_LIBRARY)

# Rows per chunk of streamed report text.
_CHUNK_ROWS = 2 ** 16


def _parse_rows(path, lines, first_lineno: int, columns: str) -> np.ndarray:
    """Reference parser: one row of two finite numbers per line, split on
    ','; blank lines and lines starting with '#' (after whitespace) are
    skipped. Every format error is worded here."""
    rows = []
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise CloudFormatError(
                f"{path}:{lineno}: expected '{columns}', got {line!r}"
            )
        try:
            a, b = float(fields[0]), float(fields[1])
        except ValueError:
            raise CloudFormatError(
                f"{path}:{lineno}: non-numeric coordinate in {line!r}"
            ) from None
        if not (math.isfinite(a) and math.isfinite(b)):
            raise CloudFormatError(
                f"{path}:{lineno}: non-finite coordinate in {line!r}"
            )
        rows.append((a, b))
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def _read_rows(path, fh, first_lineno: int, columns: str) -> np.ndarray:
    """The (m, 2) float64 rows of the rest of `fh`, as `_parse_rows` reads
    them. One `hc_parse_rows` call reads a file whose lines are blank, '#'
    comments or rows of two decimal numbers with spaces or tabs around them,
    each number correctly rounded as `float()` rounds it. It declines any
    other file, every file with an error included, and so does a missing
    library: `_parse_rows` then reads the text, or words the error."""
    pos = fh.tell() if fh.seekable() else None  # a pipe cannot seek
    try:
        text = fh.read()
    except UnicodeDecodeError:
        if pos is None:
            raise
        # line by line, an earlier format error is still reported first,
        # and the decoder names the byte by its offset in the same chunk
        fh.seek(pos)
        return _parse_rows(path, fh, first_lineno, columns)
    if TEXT is not None:
        data = text.encode()
        rows = np.empty((data.count(b"\n") + 1, 2))
        n = TEXT.hc_parse_rows(data, len(data), rows, len(rows))
        if n >= 0:
            return rows[:n]
    return _parse_rows(path, io.StringIO(text), first_lineno, columns)


def _rows_text(rows: np.ndarray, i0: int, i1: int, mid: str, sep: str) -> str:
    """Rows [i0, i1) of a C-contiguous (m, 2) float64 array as text: each
    row is the repr of its two numbers with `mid` between them, and `sep`
    goes before every row but row 0, so consecutive chunks join into the
    text of the whole array."""
    if rows.shape[1:] != (2,) or not 0 <= i0 <= i1 <= len(rows):
        raise ValueError(f"no rows [{i0}, {i1}) in an array of shape {rows.shape}")
    if TEXT is not None:
        # hc_write_rows declines a buffer sized below its own bound
        cap = (i1 - i0) * (2 * TEXT.hc_max_number_chars() + len(mid) + len(sep))
        out = np.empty(cap, dtype=np.uint8)
        n = TEXT.hc_write_rows(rows, i0, i1, mid.encode(), sep.encode(), out, cap)
        if n >= 0:
            return str(out[:n], "ascii")
    text = sep.join(f"{x!r}{mid}{y!r}" for x, y in rows[i0:i1].tolist())
    return sep + text if i0 and i1 > i0 else text


def _row_chunks(rows: np.ndarray, mid: str, sep: str):
    """The `_rows_text` of all rows, in chunks of `_CHUNK_ROWS` rows."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    for i0 in range(0, len(rows), _CHUNK_ROWS):
        yield _rows_text(rows, i0, min(i0 + _CHUNK_ROWS, len(rows)), mid, sep)


def _csv_chunks(head: str, rows: np.ndarray):
    """`head`, then one 'a,b' line per row, in chunks."""
    yield head
    yield from _row_chunks(rows, ",", "\n")
    if len(rows):
        yield "\n"


def load_cloud_csv(path) -> Cloud:
    """Read one 'x,y' pair of finite numbers per line; blank lines and
    whole-line '#' comments are skipped."""
    with open(path) as fh:
        points = _read_rows(path, fh, 1, "x,y")
    if len(points) < 3:
        raise CloudFormatError(
            f"{path}: need at least 3 points, found {len(points)}"
        )
    return Cloud.from_points(points)


def load_polyline_csv(path) -> ShapeSpec:
    """Read the vertices of a closed polygon shape, in the cloud CSV
    grammar."""
    with open(path) as fh:
        vertices = _read_rows(path, fh, 1, "x,y")
    if len(vertices) < 2:
        raise CloudFormatError(
            f"{path}: need at least 2 vertices, found {len(vertices)}"
        )
    return ShapeSpec.polygon(vertices)


def save_cloud_csv(path, cloud: Cloud, comment: str = "") -> None:
    with open(path, "w") as fh:
        # repr is the shortest text that reads back as the same double
        fh.writelines(_csv_chunks(f"# {comment}\n" if comment else "", cloud.points))


def load_pairs_csv(path) -> Diagram:
    """Read a 'birth,death' table (header required); the rows follow the
    cloud CSV grammar."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header.replace(" ", "") != "birth,death":
            raise CloudFormatError(f"{path}:1: expected header 'birth,death'")
        pairs = _read_rows(path, fh, 2, "birth,death")
    return Diagram.from_pairs(pairs)


def pairs_csv_chunks(diagram: Diagram):
    """The 'birth,death' table of `diagram`, in chunks."""
    return _csv_chunks("birth,death\n", diagram.pairs)


def pairs_to_csv(diagram: Diagram) -> str:
    return "".join(pairs_csv_chunks(diagram))


@dataclass(frozen=True)
class RunReport:
    """Full result of one pipeline run, with per-stage wall times."""

    diagram: Diagram
    probabilities: dict
    inferred_count: int
    inferred_gap: float
    timings: dict  # stage -> seconds
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> str:
        """The text of `json.dumps(<the six keys, "pairs" first>, indent=2)`:
        the chunks of `json_chunks`, joined."""
        return "".join(self.json_chunks())

    def json_chunks(self):
        """The text of `to_json` in pieces: the head, the pairs block in
        chunks of `_CHUNK_ROWS` rows, and the tail.

        With an indent, `json.dumps` runs its pure-Python encoder, so the
        blocks are laid out here. The pairs are written by `_rows_text`,
        whose repr text is the text `json` writes for a finite float; the
        probabilities block is one C-encoder call that takes the indented
        line break as its item separator.
        """
        if len(self.diagram.pairs):
            yield '{\n  "pairs": [\n    [\n      '
            yield from _row_chunks(self.diagram.pairs, ",\n      ",
                                   "\n    ],\n    [\n      ")
            yield "\n    ]\n  ]"
        else:
            yield '{\n  "pairs": []'
        if self.probabilities:
            entries = json.dumps({str(k): v for k, v in self.probabilities.items()},
                                 separators=(",\n    ", ": "))
            yield f',\n  "probabilities": {{\n    {entries[1:-1]}\n  }}'
        else:
            yield ',\n  "probabilities": {}'
        rest = json.dumps(
            {
                "inferred_count": self.inferred_count,
                "inferred_gap": self.inferred_gap,
                "timings": self.timings,
                "metadata": self.metadata,
            },
            indent=2,
        )
        yield ",\n" + rest[2:]

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        data = json.loads(text)
        return cls(
            diagram=Diagram.from_pairs(data["pairs"]),
            probabilities={int(k): v for k, v in data["probabilities"].items()},
            inferred_count=data["inferred_count"],
            inferred_gap=data["inferred_gap"],
            timings=data["timings"],
            metadata=data["metadata"],
        )


def compute_report(cloud: Cloud, source: str = "") -> RunReport:
    """Run the pipeline, with the wall time of each stage."""
    timings: dict = {}
    diagram, _, _ = hole_persistence_stats(cloud, timings=timings)
    count, gap = infer_hole_count(diagram)
    return RunReport(
        diagram=diagram,
        probabilities=hole_probabilities(diagram).probabilities,
        inferred_count=count,
        inferred_gap=gap,
        timings=timings,
        metadata={"n": cloud.n, "source": source},
    )


def _print_report(report: RunReport) -> None:
    pairs = report.diagram.off_diagonal()
    print(f"{len(pairs)} persistent hole(s)")
    for birth, death in pairs:
        print(f"  birth {birth:.15g}  death {death:.15g}")
    # every k with positive probability, most likely first
    entries = sorted(report.probabilities.items(), key=lambda kv: (-kv[1], kv[0]))
    for k, p in entries:
        print(f"  P({k} holes) = {p:.4f}")
    print(f"inferred hole count: {report.inferred_count}"
          f" (gap {report.inferred_gap:.15g})")


def _cmd_compute(args) -> int:
    cloud = load_cloud_csv(args.cloud)
    report = compute_report(cloud, source=str(args.cloud))
    if args.json:
        sys.stdout.writelines(report.json_chunks())
        sys.stdout.write("\n")
    elif args.csv:
        sys.stdout.writelines(pairs_csv_chunks(report.diagram))
    else:
        _print_report(report)
    if args.svg_dir is not None:
        out = Path(args.svg_dir)
        out.mkdir(parents=True, exist_ok=True)
        for kind, svg in render_plots(report.diagram).items():
            (out / f"{kind}.svg").write_text(svg)
    return 0


def _cmd_synth(args) -> int:
    if args.shape == "wheel":
        if args.spokes is None:
            raise CloudFormatError("wheel needs --spokes")
        spec = ShapeSpec.wheel(args.spokes, args.radius)
    elif args.shape == "lattice":
        if args.rows is None or args.cols is None:
            raise CloudFormatError("lattice needs --rows and --cols")
        spec = ShapeSpec.lattice(args.rows, args.cols, args.cell)
    else:
        if args.poly is None:
            raise CloudFormatError("polygon needs --poly FILE")
        spec = load_polyline_csv(args.poly)
    cloud = sample_shape(spec, args.points, noise=args.noise, seed=args.seed)
    save_cloud_csv(
        args.out, cloud,
        comment=f"{args.shape} n={args.points} noise={args.noise} seed={args.seed}",
    )
    print(f"wrote {cloud.n} points to {args.out}")
    return 0


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise CloudFormatError("--trials must be at least 1")
    if args.n < 3:
        raise CloudFormatError("--n must be at least 3")
    rng = np.random.default_rng(args.seed)
    passed = 0
    for _ in range(args.trials):
        pts = rng.uniform(0.0, 1.0, size=(args.n, 2))
        report = verify_equivalence(Cloud.from_points(pts))
        passed += report.equal
    print(f"{passed}/{args.trials} oracle-equal")
    return 0 if passed == args.trials else 2


def _cmd_infer(args) -> int:
    count, gap = infer_hole_count(hole_persistence(load_cloud_csv(args.cloud)))
    print(f"inferred hole count: {count} (gap {gap:.15g})")
    return 0


def _measure_child_memory(n: int, seed: int) -> int:
    """Peak RSS in bytes of a fresh interpreter running one pipeline pass.

    The child imports this holecount, whatever the caller's PYTHONPATH, and
    reads its own VmHWM, which starts afresh at exec; Linux carries the
    parent's peak into the child's ru_maxrss."""
    code = (
        "import numpy as np\n"
        "from holecount import Cloud, hole_persistence\n"
        f"pts = np.random.default_rng({seed}).uniform(0, 1, ({n}, 2))\n"
        "hole_persistence(Cloud.from_points(pts))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmHWM:')))\n"
    )
    path = [str(Path(__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return int(out.stdout.strip()) * 1024  # VmHWM is in kB


def _cmd_bench(args) -> int:
    sizes = [10 ** e for e in range(3, 8) if 10 ** e <= args.max_n]
    if not sizes:
        raise CloudFormatError("--max-n must be at least 1000")
    if args.repeats < 1:
        raise CloudFormatError("--repeats must be at least 1")
    print(f"{'n':>9} {'triangulate':>12} {'sort':>9} {'sweep':>9} "
          f"{'total':>9} {'t/(n log2 n)':>13} {'peak RSS':>10}")
    for n in sizes:
        best = None
        for rep in range(args.repeats):
            rng = np.random.default_rng(args.seed + rep)
            cloud = Cloud.from_points(rng.uniform(0.0, 1.0, size=(n, 2)))
            report = compute_report(cloud)
            total = sum(report.timings.values())
            if best is None or total < sum(best.timings.values()):
                best = report
        t = best.timings
        total = sum(t.values())
        ratio = total / (n * math.log2(n))
        rss = _measure_child_memory(n, args.seed)
        print(f"{n:>9} {t['triangulate']:>11.3f}s {t['sort']:>8.3f}s "
              f"{t['sweep']:>8.3f}s {total:>8.3f}s {ratio:>13.3e} "
              f"{rss / 2 ** 20:>8.1f}MB")
    return 0


def _cmd_bottleneck(args) -> int:
    d1 = load_pairs_csv(args.d1)
    d2 = load_pairs_csv(args.d2)
    print(repr(bottleneck_distance(d1, d2)))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argument errors are input errors, status 1
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="holecount",
        description="Count persistent holes in noisy planar point clouds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", parents=[], help="diagram of a cloud CSV")
    p.add_argument("cloud")
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p.add_argument("--svg-dir", default=None)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("synth", help="sample a known shape into a cloud CSV")
    p.add_argument("shape", choices=["wheel", "lattice", "polygon"])
    p.add_argument("--spokes", type=int, default=None)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--rows", type=int, default=None)
    p.add_argument("--cols", type=int, default=None)
    p.add_argument("--cell", type=float, default=1.0)
    p.add_argument("--poly", default=None)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("verify", help="compare the sweep against the oracle")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("infer", help="most prominent hole count of a cloud")
    p.add_argument("cloud")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("bench", help="timing and memory scaling table")
    p.add_argument("--max-n", type=int, default=10 ** 5)
    p.add_argument("--repeats", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("bottleneck", help="distance between two pair CSVs")
    p.add_argument("d1")
    p.add_argument("d2")
    p.set_defaults(func=_cmd_bottleneck)

    return parser


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (CloudFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
