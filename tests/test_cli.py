"""End-to-end tests of the command-line interface."""

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import confinedgas
from confinedgas import spectral
from confinedgas.cli import MAX_GRID_POINTS, _parse_grid
from confinedgas.errors import ConvergenceError, TruncationError
from confinedgas.geometry import make_domain, parse_shape
from golden.regenerate import run as run_in_process


def run(*args):
    return run_in_process(args)


def run_process(*args, entry=("-m", "confinedgas.cli"), **env):
    """Run the CLI in its own process (with extra environment variables)
    under a timeout, so a command that never returns fails the test instead
    of hanging the suite.  ``entry`` is what the interpreter runs."""
    src = str(Path(confinedgas.__file__).resolve().parents[1])
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, *entry, *args], env=env,
                          capture_output=True, text=True, timeout=60)


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
            (("table", "--stat", "fermi", "--shape", "disk:1", "--N", "10",
              "--T-grid", "100:200:3", "--Lz", "-5"), "GeometryError"),
            (("table", "--stat", "fermi", "--shape", "disk:1", "--N", "10",
              "--T-grid", "100:200:3", "--Lz", "5"), "GeometryError"),
            (("verify", "--suite", "heatkernel", "--t-list", "0.1,x"), "DomainError"),
            (("specfun", "--stat", "fermi", "--order", "1/0", "--z", "1"), "DomainError"),
            (("oracle", "--shape", "rect:1,1", "--cutoff", "inf"), "DomainError"),
            (("oracle", "--shape", "disk:1", "--cutoff", "inf"), "DomainError"),
            (("oracle", "--shape", "annulus:1,2", "--cutoff", "inf"), "DomainError"),
            (("oracle", "--shape", "annulus:1,2", "--cutoff", "nan"), "DomainError"),
            (("verify", "--suite", "heatkernel", "--t-list", "0,0.1"), "DomainError"),
            (("verify", "--suite", "heatkernel", "--t-list", "nan"), "DomainError"),
            (("verify", "--suite", "heatkernel", "--t-list", "0.1,0.1"), "DomainError"),
            (("specfun", "--stat", "bose", "--order", "1.4999999", "--z", "0.5"),
             "DomainError"),
            (("table", "--stat", "bose", "--shape", "disk:1", "--N", "5",
              "--T-grid", "1:inf:3"), "DomainError"),
            (("specfun", "--stat", "fermi", "--order", "1/2",
              "--z-grid", "1:1e8:100000000000"), "DomainError"),
            (("oracle", "--shape", "rect:1e300,1", "--cutoff", "10"), "ResourceError"),
            # A radius whose square overflows gives an infinite area, not a traceback.
            (("solve", "--stat", "fermi", "--shape", "disk:1e155", "--N", "5", "--T", "1"),
             "GeometryError"),
            (("table", "--stat", "fermi", "--shape", "disk:1e155", "--N", "5",
              "--T-grid", "1:2:2"), "GeometryError"),
            (("oracle", "--shape", "annulus:1,1e200", "--cutoff", "1e-300"), "GeometryError"),
        ]
        for args, error in cases:
            result = run(*args)
            assert result.exit_code == 3, (args, result.output)
            assert isinstance(result.exception, SystemExit), (args, result.exception)
            diag = json.loads(result.output.strip().splitlines()[-1])
            assert diag["error"] == error, args
            if "--t-list" in args:
                assert "t-list" in diag["message"], (args, diag)

    SOLVE = ("--stat", "fermi", "--shape", "disk:1", "--N", "1", "--T", "1")

    @pytest.mark.parametrize("args, error", [
        (("solve", "--stat", "fermi", "--N", "1", "--T", "1"), "MissingParameter"),
        (("solve", "--stat", "fermi", "--shape", "disk:1", "--N", "abc", "--T", "1"),
         "BadParameter"),
        (("solve", "--stat", "boson", "--shape", "disk:1", "--N", "1", "--T", "1"),
         "BadParameter"),
        (("solve", *SOLVE, "--bogus"), "NoSuchOption"),
        (("--bogus", "solve", *SOLVE), "NoSuchOption"),
        (("solvee", *SOLVE), "NoSuchCommand"),
        ((), "UsageError"),
        (("solve", *SOLVE, "--tol", "1e-8"), "NoSuchOption"),
        (("solve", *SOLVE, "--warn-wavelength", "0.5"), "NoSuchOption"),
        (("solve", *SOLVE, "--warn-boundary", "0.5"), "NoSuchOption"),
    ])
    def test_command_line_errors_exit_3_with_json_diagnostic(self, args, error):
        """What the parser rejects leaves like a library refusal: exit 3 and
        one JSON line naming the usage-error class, not usage text and exit 2."""
        result = run(*args)
        assert result.exit_code == 3, (args, result.output)
        assert isinstance(result.exception, SystemExit), (args, result.exception)
        diag = json.loads(result.output)
        assert diag["error"] == error, args
        assert diag["message"], args

    @pytest.mark.parametrize("args", [
        ("specfun", "--stat", "bose", "--order", "2", "--z", "0.5", "--out"),
        ("verify", "--suite", "thermo", "--report"),
    ])
    def test_unwritable_output_file_exits_3(self, tmp_path, args):
        """A file that cannot be opened for writing is refused after the
        work with one JSON line, not a traceback."""
        path = str(tmp_path / "missing" / "out.csv")
        result = run(*args, path)
        assert result.exit_code == 3, result.output
        assert isinstance(result.exception, SystemExit), result.exception
        diag = json.loads(result.stderr)
        assert diag["error"] == "BadParameter"
        assert path in diag["message"]

    def test_command_line_error_in_a_process(self):
        proc = run_process("solve", "--stat", "fermi", "--shape", "disk:1",
                           "--N", "abc", "--T", "1")
        assert proc.returncode == 3
        assert proc.stdout == ""
        diag = json.loads(proc.stderr)
        assert diag["error"] == "BadParameter"
        assert "--N" in diag["message"]

    @pytest.mark.parametrize("args", [("--help",), ("solve", "--help")])
    def test_help_exits_0(self, args):
        result = run(*args)
        assert result.exit_code == 0
        assert result.output.startswith("Usage:")

    @pytest.mark.parametrize("error", [TruncationError, ConvergenceError])
    def test_accuracy_family_exits_4(self, monkeypatch, error):
        """Truncation and convergence failures are accuracy failures."""
        def refuse(*args):
            raise error("cannot certify")

        monkeypatch.setattr(spectral, "disk_spectrum", refuse)
        result = run("oracle", "--shape", "disk:1", "--cutoff", "30")
        assert result.exit_code == 4, result.output
        diag = json.loads(result.output)
        assert diag == {"error": error.__name__, "message": "cannot certify"}


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

    def test_cancelled_bulk_term_is_a_model_error(self):
        """At T = 1 the boundary term cancels the bulk term far below the
        certified error of N(z): the model fails, not the arithmetic."""
        result = run("solve", "--stat", "fermi", "--shape", "rect:1e150,1",
                     "--N", "5", "--T", "1")
        assert result.exit_code == 3, result.output
        assert json.loads(result.output.strip().splitlines()[-1])["error"] == "ModelError"

    def test_negative_ln_xi_is_a_model_error(self):
        """The solver meets its residual here, but ln Xi at z* is negative:
        solve refuses the state, as table's row does."""
        result = run("solve", "--stat", "bose", "--shape", "disk:1",
                     "--N", "0.316227766016838", "--T", "0.632455532033676")
        assert result.exit_code == 3, result.output
        error = json.loads(result.output.strip().splitlines()[-1])
        assert error["error"] == "ModelError" and error["message"].startswith("ln Xi = -0.0058")

    def test_tube_solve(self):
        result = run("solve", "--stat", "fermi", "--shape", "disk:1",
                     "--N", "2000", "--T", "100", "--Lz", "500")
        assert result.exit_code == 0
        assert 0.0 < float(parse_csv(result.output)[0]["z"])

    @pytest.mark.parametrize("length_z, code", [("30", 2), ("500", 0)])
    def test_tube_aspect_is_a_validity_warning(self, length_z, code):
        """A tube below 100 sqrt(area) is flagged in the warnings column and
        the exit code, never as a Python warning on stderr."""
        result = run_process("solve", "--stat", "fermi", "--shape", "disk:1", "--N", "100",
                             "--T", "50", "--Lz", length_z, PYTHONWARNINGS="error")
        assert (result.returncode, result.stderr) == (code, "")
        warnings = parse_csv(result.stdout)[0]["warnings"]
        assert warnings.startswith("aspect:") if code else warnings == ""


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    stat=st.sampled_from(("bose", "fermi")),
    shape=st.sampled_from(("disk:1", "rect:2,0.5", "annulus:0.5,1.5")),
    aspect=st.none() | st.floats(20.0, 400.0),
    log10_ratio=st.floats(-2.5, 0.5),
    log10_fill=st.floats(-4.0, 1.5),
)
@example(stat="bose", shape="disk:1", aspect=None, log10_ratio=-2.0, log10_fill=-1.0)
@example(stat="bose", shape="disk:1", aspect=None, log10_ratio=-0.5, log10_fill=-1.0)
@example(stat="fermi", shape="rect:2,0.5", aspect=30.0, log10_ratio=-2.0, log10_fill=-1.0)
@example(stat="fermi", shape="annulus:0.5,1.5", aspect=200.0, log10_ratio=-2.0,
         log10_fill=0.0)
@example(stat="bose", shape="disk:1", aspect=None, log10_ratio=0.25, log10_fill=0.0)
def test_solve_agrees_with_one_point_table(stat, shape, aspect, log10_ratio, log10_fill):
    """solve and table share one residual target, one set of validity
    thresholds and one ln Xi check: on every plane or tube state that solve
    solves, clean or warned, the table row at the grid T:T:1 has the same z,
    lambda and warnings columns, and the same exit code; a state that solve
    refuses is an error row.  The last example (T = 0.632455532033676,
    N = 0.316227766016838 on disk:1) has ln Xi < 0, and both refuse it.

    The one exception is table's closed forms: on some warned states far
    outside the validity region (lambda/sqrt(area) near 1 and above) one of
    them is singular, so the row is an error row.  A clean state is never
    refused there."""
    area = make_domain(parse_shape(shape)).area
    lam = 10.0**log10_ratio * math.sqrt(area)
    T = 2.0 * math.pi / lam**2
    N = 10.0**log10_fill * area / lam**2
    tube = ()
    if aspect is not None:
        length_z = aspect * math.sqrt(area)
        N *= length_z / lam
        tube = ("--Lz", repr(length_z))
    common = ("--stat", stat, "--shape", shape, "--N", repr(N), *tube)
    solved = run("solve", *common, "--T", repr(T))
    tabled = run("table", *common, "--T-grid", f"{T!r}:{T!r}:1")
    got = parse_csv(tabled.output)[0]
    if solved.exit_code not in (0, 2):
        assert got["status"].startswith("error:"), (solved.output, tabled.output)
        return
    want = parse_csv(solved.output)[0]
    if got["status"] != "ok":
        assert solved.exit_code == 2, (solved.output, tabled.output)
        assert got["status"] == "error:SingularityError", got
        return
    assert tabled.exit_code == solved.exit_code, (solved.output, tabled.output)
    for column in ("z", "lambda", "warnings"):
        assert got[column] == want[column], column


class TestSolverTerminates:
    """The bracket walk steps down from its high end: states whose seed lies
    far above the root (here lambda/sqrt(area) = 14, where the corrections
    dwarf the bulk term) finish with a warned row instead of looping."""

    @pytest.mark.parametrize("stat", ["bose", "fermi"])
    def test_solve_far_above_the_root(self, stat):
        result = run_process("solve", "--stat", stat, "--shape", "disk:1",
                             "--N", "0.001", "--T", "0.01")
        assert result.returncode == 2
        row = parse_csv(result.stdout)[0]
        assert 0.009 < float(row["z"]) < 0.0095
        assert "wavelength" in row["warnings"] and "boundary" in row["warnings"]

    def test_table_far_above_the_root(self):
        result = run_process("table", "--stat", "fermi", "--shape", "disk:1",
                             "--N", "0.001", "--T-grid", "0.01:0.01:1")
        assert result.returncode == 2
        row = parse_csv(result.stdout)[0]
        assert row["status"] == "ok"
        assert 0.009 < float(row["z"]) < 0.0095


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

    @pytest.mark.parametrize("args", [
        ("--shape", "rect:1e154,1", "--T-grid", "1:1000:3"),  # L**2 in sigma2
        ("--shape", "rect:1e120,1", "--T-grid", "1:2:2", "--Lz", "1e63"),  # L**3 in xi2
    ])
    def test_closed_form_overflow_is_an_error_row(self, args):
        """The rows past T = 1 solve and then overflow in their closed forms;
        the T = 1 row fails to solve."""
        result = run("table", "--stat", "fermi", "--N", "5", *args)
        assert result.exit_code == 3, result.output
        statuses = [row["status"] for row in parse_csv(result.output)]
        assert statuses[0].startswith("error:")
        assert set(statuses[1:]) == {"error:SingularityError"}

    @pytest.mark.parametrize("args", [
        ("--shape", "rect:1e150,1", "--T-grid", "1:1000:3"),
        ("--shape", "rect:1e120,1", "--T-grid", "1:2:2", "--Lz", "1e63"),
    ])
    def test_cancelled_bulk_term_is_a_model_error_row(self, args):
        result = run("table", "--stat", "fermi", "--N", "5", *args)
        assert parse_csv(result.output)[0]["status"] == "error:ModelError"

    @pytest.mark.parametrize("shape, length_z", [
        ("rect:1e300,1", "1e303"), ("rect:1e150,1", "1e160"), ("disk:1e150", "1e160")])
    def test_overflowing_weights_are_model_errors(self, shape, length_z):
        result = run("table", "--stat", "bose", "--shape", shape, "--N", "5",
                     "--T-grid", "1:2:2", "--Lz", length_z)
        assert result.exit_code == 3
        assert {row["status"] for row in parse_csv(result.output)} == {"error:ModelError"}

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

    @pytest.mark.parametrize("shape, cutoff, digest", [
        ("disk:1", "520", "582ed3bf4a888ec0317b2e17955325393733b02eb1af957ebdf9b0abaa11f53e"),
        ("annulus:1,2", "300", "a015c9eeacaf48407d69d3ccb652987f889da60e4705692525ba379a6ae68c13"),
        ("rect:1.3,0.7", "2000", "d7669ad60b4d6eb3cdc01040462e8bbc7bb4fd483bc366d9fadadfaf8f232836"),
    ])
    def test_pinned_spectrum_bytes(self, shape, cutoff, digest):
        """The exported spectra are pinned byte for byte (SHA-256 of stdout)."""
        result = run("oracle", "--shape", shape, "--cutoff", cutoff)
        assert result.exit_code == 0
        assert hashlib.sha256(result.output.encode()).hexdigest() == digest

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

    def test_all_suite_rows_are_pinned(self):
        result = run("verify", "--suite", "all")
        assert result.exit_code == 0, result.output
        got = [(r["case"], r["t"], r["tolerance"], r["status"])
               for r in parse_csv(result.output)]
        t1, t05, t025 = "0.10000000000000001", "0.050000000000000003", "0.025000000000000001"
        assert got == [
            ("disk-smooth-constant", t1, "0.029999999999999999", "pass"),
            ("disk-smooth-constant", t05, "0.029999999999999999", "pass"),
            ("disk-smooth-constant", t025, "0.029999999999999999", "pass"),
            ("disk-residual-trend", t05, "[0.5,0.9]", "pass"),
            ("disk-residual-trend", t025, "[0.5,0.9]", "pass"),
            ("annulus-connectivity", t05, "0.050000000000000003", "pass"),
            ("square-corner-constant", t1,
             "0.250+-0.005 (informational: corners, not smooth)", "info"),
            ("sigma2-identity", "", "1e-08", "pass"),
            ("S-identity-2d", "", "9.9999999999999998e-13", "pass"),
            ("sigma3-identity", "", "1e-08", "pass"),
            ("S-identity-3d", "", "9.9999999999999998e-13", "pass"),
            ("dzdT-2d-fd", "", "9.9999999999999995e-07", "pass"),
            ("CV-2d-fd", "", "0.0001", "pass"),
        ]

    @pytest.mark.parametrize("t_list, bands", [
        ("0.1,0.01", ["[0.224,0.402]"]),
        ("0.1,0.099", ["[0.704,1.27]"]),
        ("0.1,0.05,0.01", ["[0.5,0.9]", "[0.316,0.569]"]),
        ("1,0.5", ["[0.5,0.9]"]),
    ])
    def test_trend_band_follows_the_time_ratio(self, t_list, bands):
        """The residual falls like sqrt(t), so the trend band scales with
        sqrt(2 t_i / t_(i-1)); valid time lists pass."""
        result = run("verify", "--suite", "heatkernel", "--t-list", t_list)
        assert result.exit_code == 0, result.output
        trend = [r for r in parse_csv(result.output) if r["case"] == "disk-residual-trend"]
        assert [r["tolerance"] for r in trend] == bands

    @pytest.mark.parametrize("t_list", ["5,1", "1e300", "1.0000000000000002,0.1"])
    def test_times_past_the_maximum_exit_3(self, t_list):
        """The small-t expansion ends at the unit disk's R^2 = 1: larger
        times are model-invalid input, not accuracy failures."""
        result = run("verify", "--suite", "heatkernel", "--t-list", t_list)
        assert result.exit_code == 3, result.output
        assert json.loads(result.output)["error"] == "DomainError"

    def test_heatkernel_suite_alone(self):
        result = run("verify", "--suite", "heatkernel", "--t-list", "0.1,0.05")
        assert result.exit_code == 0
        rows = parse_csv(result.output)
        corner = [r for r in rows if r["case"] == "square-corner-constant"]
        assert corner and corner[0]["status"] == "info"
        assert float(corner[0]["measured"]) == pytest.approx(0.250, abs=0.005)


def test_grid_points_are_linspace_bit_for_bit():
    """lo:hi:n gives numpy.linspace's points as Python floats, bit for bit:
    seeded grids of every magnitude, spans whose step underflows to zero,
    n = 1, 2 and the largest grid."""
    rng = random.Random(17)
    cases = [(0.0, 1.0, MAX_GRID_POINTS), (-3.5, 1e-3, 1), (-3.5, 1e-3, 2), (2.5, 2.5, 4),
             (0.0, 5e-324, 3), (5e-324, 1e-323, 1000), (1e-310, -1e-310, 7), (-0.0, 0.0, 3)]
    for _ in range(3000):
        lo = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 300.0)
        if rng.random() < 0.3:
            hi = lo + rng.randint(-40, 40) * 5e-324
        else:
            hi = rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-320.0, 300.0)
        cases.append((lo, hi, rng.choice((1, 2, 3, rng.randint(1, 50), rng.randint(1, 3000)))))
    for lo, hi, n in cases:
        got = _parse_grid(f"{lo!r}:{hi!r}:{n}")
        assert all(type(v) is float for v in got), (lo, hi, n)
        want = [float(v) for v in np.linspace(lo, hi, n)]
        assert list(map(float.hex, got)) == list(map(float.hex, want)), (lo, hi, n)


#: Commands whose every h evaluation is a closed form or a Fermi inversion
#: (z > 0.99): three degenerate tube tables (21 rows), a specfun grid and a
#: solve.
DEGENERATE_FERMI = [
    ("table", "--stat", "fermi", "--shape", "disk:1", "--N", "20000",
     "--T-grid", "4:10:7", "--Lz", "500"),
    ("table", "--stat", "fermi", "--shape", "annulus:1,2", "--N", "50000",
     "--T-grid", "3:9:7", "--Lz", "600"),
    ("table", "--stat", "fermi", "--shape", "rect:2,1", "--N", "30000",
     "--T-grid", "2:8:7", "--Lz", "400", "--format", "jsonl"),
    ("specfun", "--stat", "fermi", "--order", "3/2", "--z-grid", "1:1000:9"),
    ("solve", "--stat", "fermi", "--shape", "disk:1", "--N", "1000", "--T", "500"),
]

BLOCK_NUMPY = ("import sys; sys.modules['numpy'] = None\n"
               "from confinedgas.cli import main; main()")
BLOCK_SCIPY = ("import sys; sys.modules['scipy'] = None\n"
               "from confinedgas.cli import main; main()")


@pytest.mark.parametrize("args", DEGENERATE_FERMI, ids=lambda args: "-".join(args[:5]))
def test_degenerate_fermi_runs_without_numpy(args):
    """Closed forms and Fermi inversion need no numpy: with its import
    blocked, these commands print the same bytes and exit with the same
    code as with it."""
    free = run_process(*args)
    assert free.returncode in (0, 2) and free.stderr == "", free.stderr
    blocked = run_process(*args, entry=("-c", BLOCK_NUMPY))
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        free.returncode, free.stdout, free.stderr)


def test_rectangle_oracle_runs_without_scipy():
    """Rectangle spectra need no Bessel zeros: with scipy's import blocked,
    ``oracle`` on a rectangle prints the same bytes as with it."""
    args = ("oracle", "--shape", "rect:1,1", "--cutoff", "50")
    free = run_process(*args)
    assert free.returncode == 0 and free.stderr == "", free.stderr
    blocked = run_process(*args, entry=("-c", BLOCK_SCIPY))
    assert (blocked.returncode, blocked.stdout, blocked.stderr) == (
        free.returncode, free.stdout, free.stderr)
