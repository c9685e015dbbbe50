"""Command-line surface: file formats, report round-trips, subcommands,
exit codes."""

import json
import math
import os
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from holecount import Cloud, cli
from holecount.cli import (
    CloudFormatError,
    RunReport,
    _measure_child_memory,
    _parse_rows,
    _read_rows,
    _rows_text,
    cli_main,
    compute_report,
    load_cloud_csv,
    load_pairs_csv,
    load_polyline_csv,
    pairs_to_csv,
    save_cloud_csv,
)
from holecount import _fastdel
from holecount.diagrams import Diagram, bottleneck_distance, hole_probabilities

from test_diagrams import merge_pair_lists

needs_text = pytest.mark.skipif(
    cli.TEXT is None, reason="compiled text library unavailable (no C++ compiler)"
)


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("# side-2 square\n0,0\n2,0\n2,2\n0,2\n")
    return path


class TestCloudCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        wide = rng.random((100, 2)) * 10.0 ** rng.integers(-300, 300, size=(100, 1))
        cloud = Cloud.from_points(np.vstack([[(0.1, 0.2), (1.5, -0.25), (3, 4)],
                                             rng.random((500, 2)), wide]))
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, cloud, comment="three points")
        loaded = load_cloud_csv(path)
        assert np.array_equal(loaded.points, cloud.points)

    def test_comments_and_blanks_skipped(self, square_csv):
        assert load_cloud_csv(square_csv).n == 4

    def test_bad_field_count_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\n1,0\n1,2,3\n")
        with pytest.raises(CloudFormatError, match=r":3:"):
            load_cloud_csv(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,0\nx,1\n2,2\n")
        with pytest.raises(CloudFormatError, match=r":2:"):
            load_cloud_csv(path)

    def test_too_few_points(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("0,0\n1,1\n")
        with pytest.raises(CloudFormatError, match="at least 3"):
            load_cloud_csv(path)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            fh.write("# square\n0,0\n2,0\n2,2\n0,2\n")
        try:
            assert load_cloud_csv(f"/dev/fd/{read_end}").n == 4
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_names_line(self, tmp_path, capsys, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"0,0\n1,0\n{value},1\n0,1\n")
        assert cli_main(["compute", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:3: non-finite coordinate in '{value},1'" in err


# Lines of every kind the grammar or its near misses can produce.
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map("{:.6e}".format),
    st.sampled_from(["+1e0", "1e-400", "-1e-400", "-0", ".5", "5.", "1E+3"]),
)
_PAD = st.sampled_from(["", " ", "\t", " \t "])
_ROW = st.builds("{}{}{},{}{}{}".format, _PAD, _NUMBER, _PAD, _PAD, _NUMBER, _PAD)
_ODD_LINE = st.sampled_from([
    "", "   ", "\t", "# comment", "  # indented comment", "1,2 # inline",
    "1", "1,2,3", "1_0,2", "nan,1", "1,inf", "-inf,0", "1e400,0", "x,1",
    "1,,2", ",", "1\x1c,2", "1,\x1f2", "\uff11,2", "0x10,1",
    "\udcff,1",  # written as the byte 0xff, which is not UTF-8
    "-.5,+.5", "+-1,2", "1e,2", "1.e5,2", "1 2,3", "\x0b1,2", "1,2\x0c",
    "5e-324,-0", "2e-324,1", "1,2,",
])
_CLOUD_TEXT = st.builds(
    lambda head, lines, eol, last: eol.join(head + lines) + (eol if last else ""),
    st.lists(st.sampled_from(["# synth wheel", "#", ""]), max_size=2),
    st.lists(st.one_of(_ROW, _ROW, _ROW, _ODD_LINE), max_size=12),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)


def _outcome(read, path):
    """Rows as dtype, shape and bytes, or the error as type and message."""
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. loadtxt's "no data"
            rows = read(path, fh, 1, "x,y")
    except ValueError as exc:
        return type(exc), str(exc)
    return rows.dtype, rows.shape, rows.tobytes()


class TestBulkRead:
    """The bulk read and the line parser it falls back to agree on every
    file: the same float64 bytes, or the same error."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_CLOUD_TEXT)
    @pytest.mark.filterwarnings("ignore::holecount.DuplicatePointsWarning")
    def test_matches_line_parser(self, tmp_path, text):
        path = tmp_path / "cloud.csv"
        path.write_bytes(text.encode(errors="surrogateescape"))
        expected = _outcome(_parse_rows, path)
        assert _outcome(_read_rows, path) == expected
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "TEXT", None)
            assert _outcome(_read_rows, path) == expected
        if len(expected) == 2:
            with pytest.raises(expected[0]) as info:
                load_cloud_csv(path)
            assert str(info.value) == expected[1]
        elif expected[1][0] < 3:
            with pytest.raises(CloudFormatError, match="at least 3"):
                load_cloud_csv(path)
        else:
            rows = np.frombuffer(expected[2]).reshape(-1, 2)
            loaded = load_cloud_csv(path).points
            assert loaded.tobytes() == Cloud.from_points(rows).points.tobytes()

    @pytest.mark.parametrize("head", ["", "0,0\nx,1\n"])
    def test_undecodable_byte_past_first_chunk(self, tmp_path, head):
        """The decoder reads 8 KiB chunks; line by line, a format error
        before the bad byte still comes first, and the byte's offset is
        counted within its chunk."""
        path = tmp_path / "cloud.csv"
        rows = "".join(f"{i},{i % 7}\n" for i in range(2000))
        path.write_bytes((head + rows).encode() + b"\xff,1\n")
        expected = _outcome(_parse_rows, path)
        assert expected[0] is (CloudFormatError if head else UnicodeDecodeError)
        assert _outcome(_read_rows, path) == expected

    @needs_text
    def test_repr_file_skips_line_parser(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        cloud = Cloud.from_points(rng.uniform(-1.0, 1.0, (5000, 2))
                                  * 10.0 ** rng.integers(-20, 20, (5000, 1)))
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, cloud, comment="repr-written")

        def refuse(*args):
            raise AssertionError("the line parser was reached")

        monkeypatch.setattr(cli, "_parse_rows", refuse)
        assert load_cloud_csv(path).points.tobytes() == cloud.points.tobytes()
        # the bytes are parsed as they are, so "\r\n" line ends stay fast
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert load_cloud_csv(path).points.tobytes() == cloud.points.tobytes()

    @pytest.mark.parametrize("text", [
        "# a lone CR ends this line\r1,2\n3,4\n5,6\n",
        "1,2\r3,4\r5,6\r",
        "# caf\u00e9\n1,2\n3,4\n5,6\n",
        "# \udcff is not UTF-8\n1,2\n3,4\n5,6\n",
    ])
    def test_bytes_only_the_decoder_judges(self, tmp_path, text):
        # a lone '\r' ends a line, and only the decoder may pass or refuse
        # non-ASCII bytes, even in a comment: the bulk read leaves these
        # files to the line parser
        path = tmp_path / "cloud.csv"
        path.write_bytes(text.encode(errors="surrogateescape"))
        assert _outcome(_read_rows, path) == _outcome(_parse_rows, path)


# Doubles whose repr sits at a boundary of its layout.
_EDGE_DOUBLES = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e17,
                 9999999999999998.0, 1e-4, 1e-5, 1.7976931348623157e308, 0.1, 1.0,
                 123456789012345.67, 0.00012345678901234567, 1e22, 1e-323]


@needs_text
class TestNumberText:
    """The compiled writer's text is repr's, number for number."""

    @staticmethod
    def _assert_repr(values):
        rows = np.ascontiguousarray(np.concatenate([values, -values]).reshape(-1, 2))
        text = _rows_text(rows, 0, len(rows), ",", "\n")
        assert text.replace("\n", ",").split(",") == list(map(repr, rows.ravel().tolist()))

    def test_bit_patterns(self):
        bits = np.random.default_rng(11).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
        values = bits.view(np.float64)
        self._assert_repr(np.concatenate([_EDGE_DOUBLES, values[np.isfinite(values)]]))

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1))
    def test_hypothesis_floats(self, values):
        self._assert_repr(np.array(values, dtype=np.float64))

    def test_declines_to_repr(self):
        # non-finite values and a short buffer go back to the Python path
        rows = np.array([[1.0, np.inf], [np.nan, -0.0]])
        assert _rows_text(rows, 0, 2, ",", "\n") == "1.0,inf\nnan,-0.0"
        out = np.empty(64, dtype=np.uint8)
        assert cli.TEXT.hc_write_rows(rows, 0, 1, b",", b"\n", out) == -1
        rows = np.full((2, 2), -2.2250738585072014e-308)
        assert cli.TEXT.hc_max_number_chars() == len(repr(float(rows[0, 0]))) == 24
        assert cli.TEXT.hc_write_rows(rows, 1, 2, b",", b"\n", out[:49]) == -1
        assert cli.TEXT.hc_write_rows(rows, 1, 2, b",", b"\n", out[:50]) == 50


class TestPairsCsv:
    def test_round_trip(self, tmp_path):
        d = Diagram.from_pairs([(1.0, math.sqrt(2.0)), (2.5, 3.0)])
        path = tmp_path / "pairs.csv"
        path.write_text(pairs_to_csv(d))
        loaded = load_pairs_csv(path)
        assert np.array_equal(loaded.pairs, d.pairs)

    def test_header_required(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1,2\n")
        with pytest.raises(CloudFormatError, match="header"):
            load_pairs_csv(path)

    @pytest.mark.parametrize("body", [
        b"birth,d\xffeath\n0,1\n",
        b"x,y\n0,1\n\xff,1\n",
        b"birth,death\n0,1\nx,1\n\xff,1\n",
        b"birth,death\n" + b"".join(b"%d,%d\n" % (i, i + 1) for i in range(3000)) + b"\xff,1\n",
        b"birth,death\r0,1\r2,3\r",
        b"birth,death\r\n0,1\r\n2,3\r\n",
    ], ids=["byte-in-header", "bad-header-then-byte", "row-error-then-byte",
            "byte-past-first-chunk", "cr", "crlf"])
    def test_matches_text_read(self, tmp_path, body):
        # decoded as a text read decodes the file: a bad byte in the
        # decoder's first chunk comes before the header check, and every
        # other error is the line parser's, an undecodable byte named by
        # its offset in a chunk counted from the first byte after the header
        path = tmp_path / "pairs.csv"
        path.write_bytes(body)

        def text_read():
            with open(path) as fh:
                if fh.readline().strip().replace(" ", "") != "birth,death":
                    raise CloudFormatError(f"{path}:1: expected header 'birth,death'")
                fh.seek(fh.tell())  # the decoder restarts at the rows
                return Diagram.from_pairs(_parse_rows(path, fh, 2, "birth,death"))

        outcomes = []
        for read in (text_read, lambda: load_pairs_csv(path)):
            try:
                outcomes.append(read().pairs.tobytes())
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_reads_from_a_pipe(self):
        read_end, write_end = os.pipe()
        with os.fdopen(write_end, "w") as fh:
            fh.write("birth,death\n0,1\n2,3.5\n")
        try:
            assert load_pairs_csv(f"/dev/fd/{read_end}").pairs.tolist() == [[0, 1], [2, 3.5]]
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("bad_row,reason", [
        ("x,2", "non-numeric"), ("1,2,3", "expected 'birth,death'"),
        ("1,inf", "non-finite"),
    ])
    def test_bad_row_names_line(self, tmp_path, bad_row, reason):
        path = tmp_path / "pairs.csv"
        path.write_text(f"birth,death\n0,1\n{bad_row}\n")
        with pytest.raises(CloudFormatError) as info:
            load_pairs_csv(path)
        assert str(info.value).startswith(f"{path}:3: {reason}")


def _indent2_json(report: RunReport) -> str:
    """The report layout as `json.dumps` writes it with indent=2."""
    return json.dumps(
        {
            "pairs": report.diagram.pairs.tolist(),
            "probabilities": {str(k): v for k, v in report.probabilities.items()},
            "inferred_count": report.inferred_count,
            "inferred_gap": report.inferred_gap,
            "timings": report.timings,
            "metadata": report.metadata,
        },
        indent=2,
    )


_REPORTS = [
    pytest.param(lambda csv: compute_report(
        Cloud.from_points([(0, 0), (4, 0), (2, 0.5)])), id="empty"),
    pytest.param(lambda csv: compute_report(load_cloud_csv(csv),
                                            source=str(csv)), id="square"),
    pytest.param(lambda csv: compute_report(Cloud.from_points(
        np.random.default_rng(7).uniform(0.0, 1.0, (10 ** 5, 2)))),
        id="uniform-1e5"),
    pytest.param(lambda csv: RunReport(
        diagram=Diagram.from_pairs([(-0.0, 1.0), (0.5, 0.5), (2.0, 1e300)]),
        probabilities={0: 0.25, 1: 0.75}, inferred_count=1,
        inferred_gap=0.5, timings={"sweep": 1e-05},
        metadata={"n": 3, "source": "données/ü.csv"}), id="hand-built"),
    pytest.param(lambda csv: RunReport(
        diagram=Diagram.from_pairs([]), probabilities={}, inferred_count=0,
        inferred_gap=0.0, timings={}, metadata={}), id="no-probabilities"),
    pytest.param(lambda csv: RunReport(
        diagram=Diagram.from_pairs([(0.0, 1.0)]),
        probabilities={7: 5e-324, 0: 1.0 / 3.0, 12: 1e22, 3: -0.0},
        inferred_count=7, inferred_gap=1.0, timings={"sweep": 0.0},
        metadata={"n": 4, "source": ""}), id="probability-floats"),
    # the keyed writer takes int keys within int64 and finite floats; every
    # other table goes through json.dumps, with the same text
    pytest.param(lambda csv: RunReport(
        diagram=Diagram.from_pairs([(0.0, 1.0)]),
        probabilities={2 ** 63 - 1: 0.5, -2 ** 63: -2.2250738585072014e-308, 0: 1e16},
        inferred_count=0, inferred_gap=1.0, timings={}, metadata={}),
        id="int64-keys"),
    pytest.param(lambda csv: RunReport(
        diagram=Diagram.from_pairs([(0.0, 1.0)]),
        probabilities={2 ** 63: 0.5, True: 0.25, 2: 1, 3: math.nan, 4: -math.inf},
        inferred_count=0, inferred_gap=1.0, timings={}, metadata={}),
        id="json-only-keys-and-values"),
    pytest.param(lambda csv: compute_report(Cloud.from_points(
        np.stack(np.meshgrid(np.arange(20), np.arange(20)), axis=-1).reshape(-1, 2))),
        id="lattice-20"),
    pytest.param(lambda csv: compute_report(Cloud.from_points(np.unique(
        np.round(20.0 * np.random.default_rng(3).random((300, 2))) / 20.0, axis=0))),
        id="rounded-1/20"),
]


class TestRunReport:
    @pytest.mark.parametrize("make", _REPORTS)
    def test_json_text_is_indent2_layout(self, square_csv, make):
        report = make(square_csv)
        assert report.to_json() == _indent2_json(report)

    @pytest.mark.parametrize("make", _REPORTS)
    @pytest.mark.filterwarnings("ignore::holecount.DuplicatePointsWarning")
    def test_text_same_without_library(self, square_csv, tmp_path, monkeypatch, make):
        report = make(square_csv)
        cloud = Cloud.from_points(report.diagram.pairs)

        def texts():
            save_cloud_csv(tmp_path / "pairs.csv", cloud, comment="pairs")
            return (report.to_json(), pairs_to_csv(report.diagram),
                    (tmp_path / "pairs.csv").read_text())

        compiled = texts()
        monkeypatch.setattr(cli, "_CHUNK_ROWS", 3)  # chunk seams on small reports
        assert texts() == compiled
        monkeypatch.setattr(cli, "TEXT", None)
        assert texts() == compiled

    @needs_text
    @given(merge_pair_lists)
    @settings(max_examples=100, deadline=None)
    def test_probabilities_block_matches_reference(self, pairs):
        # the block of the merge's table through the keyed writer is the
        # text of the reference table through json.dumps
        diagram = Diagram.from_pairs(pairs)
        report = RunReport(diagram=diagram,
                           probabilities=hole_probabilities(diagram).probabilities,
                           inferred_count=0, inferred_gap=0.0, timings={}, metadata={})
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "TEXT", None)
            patch.setattr(_fastdel, "KERNELS", None)
            reference = RunReport(
                diagram=diagram, probabilities=hole_probabilities(diagram).probabilities,
                inferred_count=0, inferred_gap=0.0, timings={}, metadata={}).to_json()
        assert report.to_json() == reference == _indent2_json(report)

    def test_json_round_trip(self, square_csv):
        report = compute_report(load_cloud_csv(square_csv), source=str(square_csv))
        back = RunReport.from_json(report.to_json())
        assert np.array_equal(back.diagram.pairs, report.diagram.pairs)
        assert back.probabilities == report.probabilities
        assert back.inferred_count == report.inferred_count
        assert back.metadata == report.metadata

    def test_timings_nonnegative(self, square_csv):
        report = compute_report(load_cloud_csv(square_csv))
        assert set(report.timings) == {"triangulate", "sort", "sweep"}
        assert all(t >= 0.0 for t in report.timings.values())


class TestComputeCommand:
    def test_json_output(self, square_csv, capsys):
        assert cli_main(["compute", str(square_csv), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["pairs"] == [[1.0, math.sqrt(2.0)]]
        assert data["probabilities"] == {"1": 1.0}
        assert data["inferred_count"] == 1

    def test_csv_output(self, square_csv, capsys):
        assert cli_main(["compute", str(square_csv), "--csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "birth,death"
        birth, death = lines[1].split(",")
        assert float(birth) == 1.0
        assert float(death) == pytest.approx(math.sqrt(2.0))

    def test_table_output(self, square_csv, capsys):
        assert cli_main(["compute", str(square_csv)]) == 0
        out = capsys.readouterr().out
        assert "1 persistent hole(s)" in out
        assert "P(1 holes) = 1.0000" in out

    def test_table_lists_most_likely_first(self, capsys):
        # the order of HoleProbabilityTable.sorted_entries: probability
        # descending, then the smaller count first
        report = RunReport(diagram=Diagram.from_pairs([(0.0, 1.0)]),
                           probabilities={1: 0.25, 2: 0.5, 0: 0.25}, inferred_count=2,
                           inferred_gap=0.5, timings={}, metadata={})
        cli._print_report(report)
        lines = [line.strip() for line in capsys.readouterr().out.splitlines()
                 if line.strip().startswith("P(")]
        assert lines == ["P(2 holes) = 0.5000", "P(0 holes) = 0.2500",
                         "P(1 holes) = 0.2500"]

    def test_svg_dir(self, square_csv, tmp_path, capsys):
        out_dir = tmp_path / "plots"
        assert cli_main(["compute", str(square_csv), "--svg-dir", str(out_dir)]) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["barcode.svg", "diagram.svg", "staircase.svg"]

    def test_missing_file_exit_1(self, tmp_path, capsys):
        assert cli_main(["compute", str(tmp_path / "nope.csv")]) == 1
        assert "error" in capsys.readouterr().err


class TestSynthCommand:
    def test_deterministic_output(self, tmp_path, capsys):
        args = ["synth", "wheel", "--spokes", "5", "--points", "200",
                "--noise", "0.02", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(args + ["--out", str(out1)]) == 0
        assert cli_main(args + ["--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert load_cloud_csv(out1).n == 200

    def test_lattice(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        assert cli_main(["synth", "lattice", "--rows", "2", "--cols", "2",
                         "--points", "300", "--out", str(out)]) == 0
        assert load_cloud_csv(out).n == 300

    def test_polygon_from_file(self, tmp_path, capsys):
        poly = tmp_path / "poly.csv"
        poly.write_text("0,0\n2,0\n2,2\n0,2\n")
        out = tmp_path / "p.csv"
        assert cli_main(["synth", "polygon", "--poly", str(poly),
                         "--points", "100", "--out", str(out)]) == 0
        assert load_cloud_csv(out).n == 100

    def test_polyline_csv(self, tmp_path):
        path = tmp_path / "poly.csv"
        path.write_text("# a triangle\n0,0\n2,0\n1,1\n")
        spec = load_polyline_csv(path)
        assert spec.kind == "polygon"
        assert spec.segments().shape == (3, 2, 2)

    @pytest.mark.parametrize("bad_row,reason", [
        ("2", "expected 'x,y'"), ("x,0", "non-numeric coordinate"),
        ("nan,1", "non-finite coordinate"), ("0,inf", "non-finite coordinate"),
    ])
    def test_polygon_bad_row_names_file_and_line(self, tmp_path, capsys,
                                                 bad_row, reason):
        poly = tmp_path / "poly.csv"
        poly.write_text(f"0,0\n2,0\n{bad_row}\n0,2\n")
        assert cli_main(["synth", "polygon", "--poly", str(poly), "--points",
                         "100", "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{poly}:3:" in err and reason in err

    @pytest.mark.parametrize("text,found", [("# no vertices\n\n", 0), ("0,0\n", 1)],
                             ids=["comments-only", "one-row"])
    def test_polygon_too_few_vertices_names_file(self, tmp_path, capsys, text, found):
        poly = tmp_path / "poly.csv"
        poly.write_text(text)
        assert cli_main(["synth", "polygon", "--poly", str(poly), "--points",
                         "100", "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{poly}: need at least 2 vertices, found {found}" in err

    def test_wheel_without_spokes_exit_1(self, tmp_path, capsys):
        assert cli_main(["synth", "wheel", "--points", "100",
                         "--out", str(tmp_path / "w.csv")]) == 1


class TestVerifyCommand:
    def test_small_run(self, capsys):
        assert cli_main(["verify", "--n", "20", "--trials", "3", "--seed", "1"]) == 0
        assert "3/3 oracle-equal" in capsys.readouterr().out

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_refused(self, trials, capsys):
        # an input error, not a failed verification (exit 2)
        assert cli_main(["verify", "--trials", trials]) == 1
        assert "--trials must be at least 1" in capsys.readouterr().err

    def test_fewer_than_three_points_refused(self, capsys):
        assert cli_main(["verify", "--n", "2", "--trials", "1"]) == 1
        assert "--n must be at least 3" in capsys.readouterr().err


class TestInferCommand:
    def test_square(self, square_csv, capsys):
        assert cli_main(["infer", str(square_csv)]) == 0
        assert "inferred hole count: 1" in capsys.readouterr().out


class TestBottleneckCommand:
    def test_distance(self, tmp_path, capsys):
        f1, f2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        f1.write_text("birth,death\n0,2\n")
        f2.write_text("birth,death\n0,2.5\n")
        assert cli_main(["bottleneck", str(f1), str(f2)]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(0.5)

    def test_prints_the_exact_float(self, tmp_path, capsys):
        f1, f2 = tmp_path / "d1.csv", tmp_path / "d2.csv"
        f1.write_text("birth,death\n0.1,0.7\n")
        f2.write_text("birth,death\n0.3,0.7\n")
        assert cli_main(["bottleneck", str(f1), str(f2)]) == 0
        distance = bottleneck_distance(load_pairs_csv(f1), load_pairs_csv(f2))
        assert distance == 0.19999999999999998
        assert float(capsys.readouterr().out) == distance


class TestBenchCommand:
    def test_single_size(self, capsys):
        assert cli_main(["bench", "--max-n", "1000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "1000" in out
        assert "MB" in out

    def test_views_column(self, capsys):
        assert cli_main(["bench", "--max-n", "1000"]) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split() == ["n", "triangulate", "sort", "sweep", "total",
                                  "t/(n", "log2", "n)", "views", "bottleneck", "peak",
                                  "RSS"]
        assert len(row.split()) == 9

    def test_json_rows_and_backend(self, capsys):
        assert cli_main(["bench", "--max-n", "1000", "--repeats", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["backend"] == {"kernels": _fastdel.KERNELS is not None,
                                   "text": cli.TEXT is not None}
        assert data["seed"] == 0 and data["repeats"] == 2
        (row,) = data["rows"]
        assert row["n"] == 1000
        assert set(row) == {"n", "triangulate_s", "sort_s", "sweep_s", "total_s",
                            "t_per_n_log2_n", "views_s", "bottleneck_s", "peak_rss_mb"}
        stages = row["triangulate_s"] + row["sort_s"] + row["sweep_s"]
        assert row["total_s"] == pytest.approx(stages)
        assert row["views_s"] > 0.0 and row["peak_rss_mb"] > 0.0
        assert row["bottleneck_s"] > 0.0

    def test_no_bottleneck_time_above_its_size(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_BOTTLENECK_MAX_N", 999)
        assert cli_main(["bench", "--max-n", "1000", "--json"]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["bottleneck_s"] is None
        assert cli_main(["bench", "--max-n", "1000"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split()[7] == "-"

    def test_max_n_validated(self, capsys):
        assert cli_main(["bench", "--max-n", "10"]) == 1

    def test_child_memory_is_the_childs_own(self):
        # a peak of the calling process must not show in the child's figure
        ballast = np.ones(300 * 2 ** 20 // 8)
        try:
            assert _measure_child_memory(1000, seed=0) < 150 * 2 ** 20
        finally:
            del ballast

    def test_child_memory_without_pythonpath(self, monkeypatch):
        # the child must import this holecount without the caller's PYTHONPATH
        monkeypatch.delenv("PYTHONPATH", raising=False)
        assert _measure_child_memory(1000, seed=0) > 0

    def test_repeats_validated(self, capsys):
        assert cli_main(["bench", "--max-n", "1000", "--repeats", "0"]) == 1
        assert "--repeats" in capsys.readouterr().err


class TestParsing:
    def test_unknown_command_exit_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_no_command_exit_1(self, capsys):
        assert cli_main([]) == 1
