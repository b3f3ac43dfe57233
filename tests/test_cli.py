"""End-to-end tests of the command-line interface."""

import csv
import io
import json
import math

import pytest
from click.testing import CliRunner

from confinedgas.cli import main


def run(*args):
    return CliRunner().invoke(main, list(args))


def parse_csv(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    assert rows, f"no rows in output: {text!r}"
    return rows


class TestSpecfun:
    def test_bose_zeta2(self):
        result = run("specfun", "--stat", "bose", "--order", "2", "--z", "1")
        assert result.exit_code == 0
        row = parse_csv(result.output)[0]
        assert float(row["value"]) == pytest.approx(1.6449340668482264, abs=1e-12)
        assert row["method"] == "ClosedForm"

    def test_fermi_ln2(self):
        result = run("specfun", "--stat", "fermi", "--order", "1", "--z", "1")
        assert float(parse_csv(result.output)[0]["value"]) == pytest.approx(
            math.log(2.0), abs=1e-12)

    def test_fermi_inversion_with_bound_column(self):
        result = run("specfun", "--stat", "fermi", "--order", "1.5", "--z", "2")
        row = parse_csv(result.output)[0]
        assert row["method"] == "Inversion"
        assert float(row["error_bound"]) < 1e-11
        assert float(row["value"]) == pytest.approx(1.2813803831597696, abs=1e-12)

    def test_z_grid(self):
        result = run("specfun", "--stat", "bose", "--order", "2",
                     "--z-grid", "0.1:0.9:5")
        rows = parse_csv(result.output)
        assert len(rows) == 5
        assert float(rows[0]["z"]) == 0.1
        assert float(rows[-1]["z"]) == 0.9

    def test_order_fraction_syntax(self):
        result = run("specfun", "--stat", "fermi", "--order", "3/2", "--z", "1")
        assert float(parse_csv(result.output)[0]["value"]) == pytest.approx(
            0.7651470246254079, abs=1e-10)

    def test_domain_error_maps_to_exit_3(self):
        result = run("specfun", "--stat", "bose", "--order", "2", "--z", "1.5")
        assert result.exit_code == 3
        diag = json.loads(result.output.strip().splitlines()[-1])
        assert diag["error"] == "DomainError"

    def test_roundtrip_precision(self):
        result = run("specfun", "--stat", "bose", "--order", "0.5", "--z", "0.7")
        row = parse_csv(result.output)[0]
        from confinedgas.statfun import StatKind, eval_h
        want = eval_h(StatKind.BOSE, 0.5, 0.7).value
        assert float(row["value"]) == want  # 17 significant digits round-trip


class TestMalformedInput:
    def test_parse_errors_exit_3_with_json_diagnostic(self):
        cases = [
            (("solve", "--stat", "bose", "--shape", "disk:abc", "--N", "5", "--T", "100"),
             "GeometryError"),
            (("solve", "--stat", "bose", "--shape", "free:abc", "--N", "5", "--T", "100"),
             "GeometryError"),
            (("solve", "--stat", "bose", "--shape", "polygon:@/missing/poly.txt",
              "--N", "5", "--T", "100"), "GeometryError"),
            (("table", "--stat", "bose", "--shape", "disk:1", "--N", "5",
              "--T-grid", "a:b:c"), "DomainError"),
            (("verify", "--suite", "heatkernel", "--t-list", "0.1,x"), "DomainError"),
            (("specfun", "--stat", "fermi", "--order", "1/0", "--z", "1"), "DomainError"),
        ]
        for args, error in cases:
            result = run(*args)
            assert result.exit_code == 3, (args, result.output)
            assert isinstance(result.exception, SystemExit), (args, result.exception)
            diag = json.loads(result.output.strip().splitlines()[-1])
            assert diag["error"] == error, args


class TestSolve:
    def test_clean_solve_exit_zero(self):
        result = run("solve", "--stat", "bose", "--shape", "disk:1",
                     "--N", "50", "--T", "400")
        assert result.exit_code == 0
        row = parse_csv(result.output)[0]
        assert 0.0 < float(row["z"]) < 1.0
        assert row["fermi_extension_used"] == "false"

    def test_free_space_value(self):
        result = run("solve", "--stat", "bose", "--shape", "rect:10,10",
                     "--N", "10", "--T", str(2.0 * math.pi))
        row = parse_csv(result.output)[0]
        # near-Boltzmann regime on a big square: z close to N lam^2/area
        assert float(row["z"]) == pytest.approx(0.1, rel=0.1)

    def test_fermi_extension_flag_column(self):
        result = run("solve", "--stat", "fermi", "--shape", "rect:4,1",
                     "--N", "100", "--T", str(2.0 * math.pi / 0.04))
        row = parse_csv(result.output)[0]
        assert row["fermi_extension_used"] == "true"
        assert result.exit_code == 2  # flagged rows carry a warning

    def test_warned_case_includes_threshold_text(self):
        result = run("solve", "--stat", "bose", "--shape", "disk:1",
                     "--N", "1", "--T", "30")
        assert result.exit_code == 2
        row = parse_csv(result.output)[0]
        assert "0.2" in row["warnings"]

    def test_invalid_input_exit_3(self):
        result = run("solve", "--stat", "bose", "--shape", "annulus:1,2",
                     "--N", "5000", "--T", "200")
        assert result.exit_code == 3

    def test_tube_solve(self):
        result = run("solve", "--stat", "fermi", "--shape", "disk:1",
                     "--N", "2000", "--T", "100", "--Lz", "500")
        assert result.exit_code == 0
        assert 0.0 < float(parse_csv(result.output)[0]["z"])


class TestTable:
    def test_rows_satisfy_entropy_identity(self):
        result = run("table", "--stat", "fermi", "--shape", "rect:4,1",
                     "--N", "100", "--T-grid", "400:1000:3")
        rows = parse_csv(result.output)
        assert len(rows) == 3
        for row in rows:
            assert row["status"] == "ok"
            s, u, f, t = (float(row[k]) for k in ("S", "U", "F", "T"))
            assert abs(s - (u - f) / t) <= 1e-12 * abs(s)

    def test_determinism_bit_for_bit(self):
        args = ("table", "--stat", "bose", "--shape", "disk:1",
                "--N", "60", "--T-grid", "500:900:4")
        assert run(*args).output == run(*args).output

    def test_threads_do_not_change_output(self):
        base = ("table", "--stat", "bose", "--shape", "disk:1",
                "--N", "60", "--T-grid", "500:900:4")
        assert run(*base).output == run(*base, "--threads", "4").output

    def test_thread_env_var_does_not_change_output(self, monkeypatch):
        base = ("table", "--stat", "bose", "--shape", "disk:1",
                "--N", "60", "--T-grid", "500:900:4")
        reference = run(*base).output
        monkeypatch.setenv("CONFINEDGAS_THREADS", "3")
        assert run(*base).output == reference

    def test_error_rows_recorded_not_dropped(self):
        # The low-T end of this grid is past the validity of the expansion.
        result = run("table", "--stat", "bose", "--shape", "annulus:1,2",
                     "--N", "5000", "--T-grid", "150:40000:6")
        rows = parse_csv(result.output)
        assert len(rows) == 6
        statuses = {row["status"] for row in rows}
        assert any(s.startswith("error:") for s in statuses)
        assert "ok" in statuses
        assert result.exit_code == 2

    def test_classical_tail_of_3d_grid(self):
        result = run("table", "--stat", "bose", "--shape", "free:1",
                     "--N", "5", "--Lz", "500", "--T-grid", "2000:4000:2",
                     "--format", "jsonl")
        rows = [json.loads(line) for line in result.output.splitlines()]
        for row in rows:
            assert row["C_V"] / 5.0 == pytest.approx(1.5, abs=1e-4)

    def test_output_file(self, tmp_path):
        out = tmp_path / "t.csv"
        result = run("table", "--stat", "fermi", "--shape", "disk:1",
                     "--N", "40", "--T-grid", "600:600:1", "--out", str(out))
        assert result.exit_code == 0
        assert parse_csv(out.read_text())[0]["status"] == "ok"


class TestOracle:
    def test_disk_spectrum_export(self):
        result = run("oracle", "--shape", "disk:1", "--cutoff", "30")
        rows = parse_csv(result.output)
        assert float(rows[0]["mu"]) == pytest.approx(2.8915929814733923, rel=1e-12)
        assert rows[0]["multiplicity"] == "1"
        assert rows[1]["multiplicity"] == "2"

    def test_rect_and_annulus_spectra_supported(self):
        result = run("oracle", "--shape", "rect:1,1", "--cutoff", "50")
        assert result.exit_code == 0
        result = run("oracle", "--shape", "annulus:1,2", "--cutoff", "50")
        assert result.exit_code == 0

    def test_polygon_has_no_exact_spectrum(self, tmp_path):
        poly = tmp_path / "p.txt"
        poly.write_text("0 0\n1 0\n1 1\n0 1\n")
        result = run("oracle", "--shape", f"polygon:@{poly}", "--cutoff", "50")
        assert result.exit_code == 3
        diag = json.loads(result.output.strip().splitlines()[-1])
        assert diag["error"] == "GeometryError"


class TestVerify:
    def test_all_suites_pass(self, tmp_path):
        report = tmp_path / "report.csv"
        result = run("verify", "--suite", "all", "--report", str(report))
        assert result.exit_code == 0, result.output
        rows = parse_csv(result.output)
        assert all(r["status"] in ("pass", "info") for r in rows)
        cases = {r["case"] for r in rows}
        assert "disk-smooth-constant" in cases
        assert "annulus-connectivity" in cases
        assert "square-corner-constant" in cases
        assert "sigma2-identity" in cases
        assert report.read_text() == result.output

    def test_heatkernel_suite_alone(self):
        result = run("verify", "--suite", "heatkernel", "--t-list", "0.1,0.05")
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        corner = [r for r in rows if r["case"] == "square-corner-constant"]
        assert corner and corner[0]["status"] == "info"
        assert float(corner[0]["measured"]) == pytest.approx(0.250, abs=0.005)
