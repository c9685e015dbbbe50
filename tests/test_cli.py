"""Command-line surface: file formats, report round-trips, subcommands,
exit codes."""

import json
import math

import numpy as np
import pytest

from holecount import Cloud
from holecount.cli import (
    CloudFormatError,
    RunReport,
    cli_main,
    compute_report,
    load_cloud_csv,
    load_pairs_csv,
    pairs_to_csv,
    save_cloud_csv,
)
from holecount.diagrams import Diagram


@pytest.fixture
def square_csv(tmp_path):
    path = tmp_path / "square.csv"
    path.write_text("# side-2 square\n0,0\n2,0\n2,2\n0,2\n")
    return path


class TestCloudCsv:
    def test_round_trip(self, tmp_path):
        cloud = Cloud.from_points([(0.1, 0.2), (1.5, -0.25), (3, 4)])
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


class TestPairsCsv:
    def test_round_trip(self, tmp_path):
        d = Diagram.from_pairs([(1.0, math.sqrt(2.0)), (2.5, 3.0)])
        path = tmp_path / "pairs.csv"
        path.write_text(pairs_to_csv(d))
        loaded = load_pairs_csv(path)
        # the format fixes 15 significant digits, one short of bit-exact
        assert np.allclose(loaded.pairs, d.pairs, rtol=0, atol=1e-12)

    def test_header_required(self, tmp_path):
        path = tmp_path / "pairs.csv"
        path.write_text("1,2\n")
        with pytest.raises(CloudFormatError, match="header"):
            load_pairs_csv(path)


class TestRunReport:
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

    @pytest.mark.parametrize("bad_row,reason", [
        ("2", "not enough values to unpack"), ("x,0", "could not convert"),
    ])
    def test_polygon_bad_row_names_file_and_line(self, tmp_path, capsys,
                                                 bad_row, reason):
        poly = tmp_path / "poly.csv"
        poly.write_text(f"0,0\n2,0\n{bad_row}\n0,2\n")
        assert cli_main(["synth", "polygon", "--poly", str(poly), "--points",
                         "100", "--out", str(tmp_path / "p.csv")]) == 1
        err = capsys.readouterr().err
        assert f"{poly}:3:" in err and reason in err

    def test_wheel_without_spokes_exit_1(self, tmp_path, capsys):
        assert cli_main(["synth", "wheel", "--points", "100",
                         "--out", str(tmp_path / "w.csv")]) == 1


class TestVerifyCommand:
    def test_small_run(self, capsys):
        assert cli_main(["verify", "--n", "20", "--trials", "3", "--seed", "1"]) == 0
        assert "3/3 oracle-equal" in capsys.readouterr().out


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


class TestBenchCommand:
    def test_single_size(self, capsys):
        assert cli_main(["bench", "--max-n", "1000", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "1000" in out
        assert "MB" in out

    def test_max_n_validated(self, capsys):
        assert cli_main(["bench", "--max-n", "10"]) == 1


class TestParsing:
    def test_unknown_command_exit_1(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_no_command_exit_1(self, capsys):
        assert cli_main([]) == 1
