"""Command-line front end: reproducible tables and verification reports.

Commands
--------
specfun   evaluate the Bose/Fermi integral family h_sigma(z)
solve     solve the fugacity for a shape, N and T
table     thermodynamic quantities over a temperature grid
oracle    export an exact Dirichlet spectrum as CSV
verify    run the oracle-backed verification suites

Every command is deterministic for identical flags.  Numeric output uses
17 significant digits so that parse(print(x)) == x.  Exit codes: 0 success,
2 solved but validity warnings were raised, 3 model-invalid input,
4 internal accuracy failure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys

import click
import numpy as np

from . import eos, thermo
from .errors import (
    AccuracyError,
    ConfinedGasError,
    ConvergenceError,
    DomainError,
    GeometryError,
    ModelError,
    NoBracketError,
    NonMonotoneError,
    ResourceError,
    SingularityError,
    TruncationError,
)
from .geometry import (
    Annulus,
    Disk,
    Rectangle,
    TubeDomain,
    make_domain,
    parse_shape,
    thermal_wavelength,
)
from .statfun import Order, StatKind, eval_h

EXIT_OK = 0
EXIT_WARNED = 2
EXIT_INVALID = 3
EXIT_ACCURACY = 4

_INVALID_ERRORS = (
    DomainError,
    GeometryError,
    ModelError,
    NoBracketError,
    NonMonotoneError,
    SingularityError,
    ResourceError,
)
_ACCURACY_ERRORS = (AccuracyError, TruncationError, ConvergenceError)


def _exit_code_for(exc: ConfinedGasError) -> int:
    if isinstance(exc, _ACCURACY_ERRORS):
        return EXIT_ACCURACY
    return EXIT_INVALID


def _fail(exc: ConfinedGasError) -> None:
    diag = {"error": type(exc).__name__, "message": str(exc)}
    click.echo(json.dumps(diag), err=True)
    sys.exit(_exit_code_for(exc))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _emit(rows: list[dict], columns: list[str], fmt: str, out: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(c, "")) for c in columns])
        text = buf.getvalue()
    else:
        lines = [
            json.dumps({c: row.get(c, None) for c in columns}, allow_nan=True)
            for row in rows
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _parse_stat(text: str) -> StatKind:
    return StatKind.BOSE if text == "bose" else StatKind.FERMI


def _parse_order(text: str) -> Order:
    num, sep, den = text.strip().partition("/")
    try:
        return Order.of(float(num) / float(den) if sep else float(num))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"order {text!r}: expected a number or p/q ({exc})") from exc


def _parse_grid(text: str) -> list[float]:
    """lo:hi:n, closed on both endpoints with n points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid {text!r}: expected lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid {text!r}: expected lo:hi:n ({exc})") from exc
    if n < 1:
        raise DomainError(f"grid {text!r}: need n >= 1")
    if n == 1:
        return [lo]
    return list(np.linspace(lo, hi, n))


def _parse_t_list(text: str) -> list[float]:
    """Comma-separated positive, finite heat-kernel times, largest first."""
    try:
        times = sorted((float(s) for s in text.split(",")), reverse=True)
    except ValueError as exc:
        raise DomainError(f"t-list {text!r}: expected comma-separated numbers ({exc})") from exc
    if not all(0.0 < t < math.inf for t in times):
        raise DomainError(f"t-list {text!r}: every time must be positive and finite")
    return times


@click.group()
def main() -> None:
    """Quantum gases in finite containers: corrected equations of state."""


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

@main.command("specfun")
@click.option("--stat", type=click.Choice(["bose", "fermi"]), required=True)
@click.option("--order", "order_text", required=True,
              help="order sigma, e.g. 2, 1.5 or 3/2")
@click.option("--z", "z_value", type=float, default=None)
@click.option("--z-grid", "z_grid", default=None, help="lo:hi:n")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--out", default=None, type=click.Path(dir_okay=False, writable=True))
def cmd_specfun(stat, order_text, z_value, z_grid, fmt, out):
    """Evaluate h_sigma(z): columns z, value, error_bound, method.

    method is ClosedForm, Series or Inversion (Fermi z > 0.99).
    """
    try:
        kind = _parse_stat(stat)
        order = _parse_order(order_text)
        if (z_value is None) == (z_grid is None):
            raise DomainError("provide exactly one of --z or --z-grid")
        zs = [z_value] if z_value is not None else _parse_grid(z_grid)
        rows = []
        for z in zs:
            fv = eval_h(kind, order, z)
            rows.append({
                "z": z,
                "value": fv.value,
                "error_bound": fv.abs_error_bound,
                "method": fv.method.value,
            })
    except ConfinedGasError as exc:
        _fail(exc)
    _emit(rows, ["z", "value", "error_bound", "method"], fmt, out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

SOLVE_COLUMNS = [
    "stat", "z", "lambda", "T", "N",
    "ratio_wavelength", "ratio_boundary", "ratio_topology",
    "fermi_extension_used", "warnings",
]


@main.command("solve")
@click.option("--stat", type=click.Choice(["bose", "fermi"]), required=True)
@click.option("--shape", required=True,
              help="rect:a,b | disk:R | annulus:Ri,Ro | polygon:@file")
@click.option("--N", "n_particles", type=float, required=True)
@click.option("--T", "temperature", type=float, required=True)
@click.option("--Lz", "length_z", type=float, default=None,
              help="tube length; switches to the 3-D tube equations")
@click.option("--tol", type=float, default=1e-12, show_default=True)
@click.option("--warn-wavelength", type=float, default=eos.WARN_WAVELENGTH_RATIO,
              show_default=True)
@click.option("--warn-boundary", type=float, default=eos.WARN_BOUNDARY_RATIO,
              show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--out", default=None, type=click.Path(dir_okay=False, writable=True))
def cmd_solve(stat, shape, n_particles, temperature, length_z, tol,
              warn_wavelength, warn_boundary, fmt, out):
    """Solve the fugacity; exit 0 clean, 2 warned, 3 invalid, 4 accuracy.

    Columns: stat, z, lambda, T, N, ratio_wavelength, ratio_boundary,
    ratio_topology, fermi_extension_used, warnings.
    """
    try:
        kind = _parse_stat(stat)
        container = make_domain(parse_shape(shape))
        if length_z is not None:
            container = TubeDomain(container, length_z)
        state, report = eos.solve_fugacity(
            kind, container, n_particles, temperature, tol,
            warn_wavelength=warn_wavelength, warn_boundary=warn_boundary,
        )
    except ConfinedGasError as exc:
        _fail(exc)
    row = {
        "stat": stat,
        "z": state.z,
        "lambda": state.lam,
        "T": state.T,
        "N": state.N,
        "ratio_wavelength": report.ratio_wavelength,
        "ratio_boundary": report.ratio_boundary,
        "ratio_topology": report.ratio_topology,
        "fermi_extension_used": report.fermi_extension_used,
        "warnings": "; ".join(report.warnings),
    }
    _emit([row], SOLVE_COLUMNS, fmt, out)
    if report.warnings:
        sys.exit(EXIT_WARNED)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

TABLE_HEAD = ["T", "z", "lambda", "U", "F", "S", "C_V", "P"]
TABLE_TAIL = [
    "ratio_wavelength", "ratio_boundary", "ratio_topology",
    "fermi_extension_used", "warnings", "status",
]


def _table_row(thermo_fn, kind, container, n_particles, T):
    try:
        rep = thermo_fn(kind, container, n_particles, T)
    except ConfinedGasError as exc:
        return {"T": T, "status": f"error:{type(exc).__name__}", "warnings": str(exc)}
    return {
        "T": T,
        "z": rep.state.z,
        "lambda": rep.state.lam,
        "U": rep.U,
        "F": rep.F,
        "S": rep.S,
        "C_V": rep.C_V,
        "P": rep.P,
        **dataclasses.asdict(rep.aux),
        "ratio_wavelength": rep.validity.ratio_wavelength,
        "ratio_boundary": rep.validity.ratio_boundary,
        "ratio_topology": rep.validity.ratio_topology,
        "fermi_extension_used": rep.validity.fermi_extension_used,
        "warnings": "; ".join(rep.validity.warnings),
        "status": "ok",
    }


@main.command("table")
@click.option("--stat", type=click.Choice(["bose", "fermi"]), required=True)
@click.option("--shape", required=True)
@click.option("--N", "n_particles", type=float, required=True)
@click.option("--T-grid", "t_grid", required=True, help="lo:hi:n (closed endpoints)")
@click.option("--Lz", "length_z", type=float, default=None)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--out", default=None, type=click.Path(dir_okay=False, writable=True))
def cmd_table(stat, shape, n_particles, t_grid, length_z, fmt, out):
    """Thermodynamic table over a T grid; failures become error rows.

    Columns: T, z, lambda, U, F, S, C_V, P, then sigma2, eta2 (planar) or
    sigma3, eta3, xi1..xi5 (with --Lz), then ratio_wavelength,
    ratio_boundary, ratio_topology, fermi_extension_used, warnings, status.
    """
    try:
        kind = _parse_stat(stat)
        container = make_domain(parse_shape(shape))
        if length_z is not None:
            container = TubeDomain(container, length_z)
        temps = _parse_grid(t_grid)
    except ConfinedGasError as exc:
        _fail(exc)
    if length_z is not None:
        thermo_fn, aux = thermo.thermo_3d, thermo.Aux3D
    else:
        thermo_fn, aux = thermo.thermo_2d, thermo.Aux2D
    rows = [_table_row(thermo_fn, kind, container, n_particles, T) for T in temps]
    columns = TABLE_HEAD + [f.name for f in dataclasses.fields(aux)] + TABLE_TAIL
    _emit(rows, columns, fmt, out)
    if any(row["status"] != "ok" for row in rows):
        sys.exit(EXIT_WARNED if any(r["status"] == "ok" for r in rows) else EXIT_INVALID)
    if any(row.get("warnings") for row in rows):
        sys.exit(EXIT_WARNED)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

@main.command("oracle")
@click.option("--shape", required=True, help="rect:a,b | disk:R | annulus:Ri,Ro")
@click.option("--cutoff", type=float, required=True)
@click.option("--out", default=None, type=click.Path(dir_okay=False, writable=True))
def cmd_oracle(shape, cutoff, out):
    """Export the exact Dirichlet spectrum as CSV (columns mu, multiplicity)."""
    from . import spectral

    try:
        spec_shape = parse_shape(shape)
        if isinstance(spec_shape, Rectangle):
            spectrum = spectral.rectangle_spectrum(spec_shape.a, spec_shape.b, cutoff)
        elif isinstance(spec_shape, Disk):
            spectrum = spectral.disk_spectrum(spec_shape.radius, cutoff)
        elif isinstance(spec_shape, Annulus):
            spectrum = spectral.annulus_spectrum(spec_shape.r_inner, spec_shape.r_outer,
                                                 cutoff)
        else:
            raise GeometryError("exact spectra exist for rect, disk and annulus only")
    except ConfinedGasError as exc:
        _fail(exc)
    rows = [{"mu": float(m), "multiplicity": int(g)}
            for m, g in zip(spectrum.mu, spectrum.multiplicity)]
    _emit(rows, ["mu", "multiplicity"], "csv", out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_heatkernel(t_list: list[float]) -> list[dict]:
    from . import spectral

    rows = []
    # Disk: smooth boundary, constant term +1/6.
    disk = spectral.disk_spectrum(1.0, max(46.0 / min(t_list), 80.0))
    area, perim = math.pi, 2.0 * math.pi
    residuals = []
    for t in t_list:
        theta, trunc = spectral.theta_sum(disk, t)
        weyl = area / (2 * math.pi * t) - perim / (4 * math.sqrt(2 * math.pi * t)) + 1 / 6
        resid = theta - weyl
        residuals.append(abs(resid))
        rows.append({
            "case": "disk-smooth-constant", "t": t, "measured": resid,
            "tolerance": 0.03, "status": "pass" if abs(resid) <= 0.03 else "fail",
        })
    for i in range(1, len(residuals)):
        ratio = residuals[i] / residuals[i - 1]
        ok = 0.5 <= ratio <= 0.9 and residuals[i] < residuals[i - 1]
        rows.append({
            "case": "disk-residual-trend", "t": t_list[i], "measured": ratio,
            "tolerance": "[0.5,0.9]", "status": "pass" if ok else "fail",
        })
    # Annulus: the hole cancels the constant term.
    ann = spectral.annulus_spectrum(1.0, 2.0, 320.0)
    theta, _ = spectral.theta_sum(ann, 0.05)
    area_a, perim_a = 3.0 * math.pi, 6.0 * math.pi
    weyl_a = area_a / (2 * math.pi * 0.05) - perim_a / (4 * math.sqrt(2 * math.pi * 0.05))
    resid_a = theta - weyl_a
    rows.append({
        "case": "annulus-connectivity", "t": 0.05, "measured": resid_a,
        "tolerance": 0.05, "status": "pass" if abs(resid_a) <= 0.05 else "fail",
    })
    # Unit square: corners shift the constant to 1/4 (informational).
    sq = spectral.rectangle_spectrum(1.0, 1.0, 500.0)
    theta_sq, _ = spectral.theta_sum(sq, 0.1)
    corner = theta_sq - (1 / (2 * math.pi * 0.1) - 1 / math.sqrt(2 * math.pi * 0.1))
    rows.append({
        "case": "square-corner-constant", "t": 0.1, "measured": corner,
        "tolerance": "0.250+-0.005 (informational: corners, not smooth)",
        "status": "info",
    })
    return rows


def _verify_thermo() -> list[dict]:
    from .statfun import ONE, THREE_HALVES

    rows = []
    rng = np.random.default_rng(20240817)
    shapes = [Rectangle(1.0, 1.0), Rectangle(4.0, 1.0), Disk(1.0), Annulus(1.0, 2.0)]
    worst_sigma = worst_identity = 0.0
    for _ in range(25):
        kind = StatKind.BOSE if rng.random() < 0.5 else StatKind.FERMI
        dom = make_domain(shapes[rng.integers(len(shapes))])
        T = float(rng.uniform(400.0, 4000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 1.5)) * dom.area / lam**2
        rep = thermo.thermo_2d(kind, dom, N, T)
        ident = dom.area * eval_h(kind, ONE, rep.state.z).value / (N * lam**2)
        worst_sigma = max(worst_sigma, abs(rep.aux.sigma2 - ident) / ident)
        worst_identity = max(worst_identity,
                             abs(rep.S - (rep.U - rep.F) / rep.state.T)
                             / max(abs(rep.S), 1e-30))
    rows.append({"case": "sigma2-identity", "t": "", "measured": worst_sigma,
                 "tolerance": 1e-8, "status": "pass" if worst_sigma < 1e-8 else "fail"})
    rows.append({"case": "S-identity-2d", "t": "", "measured": worst_identity,
                 "tolerance": 1e-12,
                 "status": "pass" if worst_identity < 1e-12 else "fail"})

    tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
    worst_sigma3 = worst_identity3 = 0.0
    for _ in range(15):
        kind = StatKind.BOSE if rng.random() < 0.5 else StatKind.FERMI
        T = float(rng.uniform(50.0, 500.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 1.0)) * tube.length_z * math.pi / lam**3
        rep = thermo.thermo_3d(kind, tube, N, T)
        ident = (tube.length_z * tube.cross_section.area
                 * eval_h(kind, THREE_HALVES, rep.state.z).value / (N * lam**3))
        worst_sigma3 = max(worst_sigma3, abs(rep.aux.sigma3 - ident) / ident)
        worst_identity3 = max(worst_identity3,
                              abs(rep.S - (rep.U - rep.F) / rep.state.T)
                              / max(abs(rep.S), 1e-30))
    rows.append({"case": "sigma3-identity", "t": "", "measured": worst_sigma3,
                 "tolerance": 1e-8, "status": "pass" if worst_sigma3 < 1e-8 else "fail"})
    rows.append({"case": "S-identity-3d", "t": "", "measured": worst_identity3,
                 "tolerance": 1e-12,
                 "status": "pass" if worst_identity3 < 1e-12 else "fail"})

    # dz/dT and C_V against centred finite differences (Richardson steps
    # 1e-4 and 1e-5 relative).
    dom = make_domain(Rectangle(2.0, 1.0))
    kind, N, T = StatKind.FERMI, 80.0, 900.0
    rep = thermo.thermo_2d(kind, dom, N, T)
    analytic = thermo.dz_dT_2d(kind, rep.state, rep.aux)

    def z_of_T(temp: float) -> float:
        return eos.solve_fugacity(kind, dom, N, temp)[0].z

    fd = _richardson(z_of_T, T)
    rel = abs(analytic - fd) / abs(fd)
    rows.append({"case": "dzdT-2d-fd", "t": "", "measured": rel, "tolerance": 1e-6,
                 "status": "pass" if rel < 1e-6 else "fail"})

    def u_of_T(temp: float) -> float:
        return thermo.thermo_2d(kind, dom, N, temp).U

    cv_fd = _richardson(u_of_T, T)
    rel_cv = abs(rep.C_V - cv_fd) / abs(cv_fd)
    rows.append({"case": "CV-2d-fd", "t": "", "measured": rel_cv, "tolerance": 1e-4,
                 "status": "pass" if rel_cv < 1e-4 else "fail"})
    return rows


def _richardson(fn, x: float) -> float:
    """Centred difference with steps 1e-4 x and 1e-5 x, Richardson combined."""
    d = []
    for rel in (1e-4, 1e-5):
        h = rel * x
        d.append((fn(x + h) - fn(x - h)) / (2.0 * h))
    return (100.0 * d[1] - d[0]) / 99.0


@main.command("verify")
@click.option("--suite", type=click.Choice(["heatkernel", "thermo", "all"]),
              default="all", show_default=True)
@click.option("--t-list", "t_list_text", default="0.1,0.05,0.025", show_default=True)
@click.option("--report", "report_path", default=None,
              type=click.Path(dir_okay=False, writable=True))
def cmd_verify(suite, t_list_text, report_path):
    """Run oracle comparisons; exit 0 iff every non-informational row passes.

    Columns: case, t, measured, tolerance, status (pass/fail/info).
    """
    try:
        t_list = _parse_t_list(t_list_text)
        rows: list[dict] = []
        if suite in ("heatkernel", "all"):
            rows.extend(_verify_heatkernel(t_list))
        if suite in ("thermo", "all"):
            rows.extend(_verify_thermo())
    except ConfinedGasError as exc:
        _fail(exc)
    columns = ["case", "t", "measured", "tolerance", "status"]
    _emit(rows, columns, "csv", None)
    if report_path:
        _emit(rows, columns, "csv", report_path)
    if any(r["status"] == "fail" for r in rows):
        sys.exit(EXIT_ACCURACY)


if __name__ == "__main__":
    main()
