"""Command-line front end: argument parsing, exit codes and CSV/JSONL output.

Commands
--------
specfun   evaluate the Bose/Fermi integral family h_sigma(z)
solve     solve the fugacity for a shape, N and T
table     thermodynamic quantities over a temperature grid
oracle    export an exact Dirichlet spectrum as CSV
verify    run the oracle checks of ``confinedgas.certify``

Every command is deterministic for identical flags.  Numeric output uses
17 significant digits so that parse(print(x)) == x.  Exit codes: 0 success,
2 solved but validity warnings were raised, 3 model-invalid input or a
malformed command line, 4 ``AccuracyError`` or a subclass; each failure
writes one JSON line ``{"error": <class name>, "message": ...}`` to stderr.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
from typing import NoReturn

import click

from . import eos, thermo
from .errors import AccuracyError, ConfinedGasError, DomainError, GeometryError
from .geometry import Annulus, Disk, Rectangle, TubeDomain, make_domain, parse_shape
from .statfun import Order, StatKind, eval_h

EXIT_WARNED = 2
EXIT_INVALID = 3
EXIT_ACCURACY = 4

#: Largest point count a lo:hi:n grid may ask for.
MAX_GRID_POINTS = 10**6


def _fail(exc: ConfinedGasError | click.UsageError) -> NoReturn:
    message = exc.format_message() if isinstance(exc, click.UsageError) else str(exc)
    click.echo(json.dumps({"error": type(exc).__name__, "message": message}), err=True)
    sys.exit(EXIT_ACCURACY if isinstance(exc, AccuracyError) else EXIT_INVALID)


class _Group(click.Group):
    """The command group whose refusals and usage errors all go to ``_fail``."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        try:
            return super().parse_args(ctx, args)
        except click.UsageError as exc:
            _fail(exc)

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ConfinedGasError, click.UsageError) as exc:
            _fail(exc)


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


def _parse_order(text: str) -> Order:
    num, sep, den = text.strip().partition("/")
    try:
        return Order.of(float(num) / float(den) if sep else float(num))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise DomainError(f"order {text!r}: expected a number or p/q ({exc})") from exc


def _parse_grid(text: str) -> list[float]:
    """lo:hi:n, closed on both endpoints with n points.

    The points are numpy.linspace's, bit for bit: lo + i*step with
    step = (hi - lo)/(n - 1), or (i/(n - 1))*(hi - lo) + lo when the step
    underflows to zero, and hi itself last.
    """
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid {text!r}: expected lo:hi:n")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"grid {text!r}: expected lo:hi:n ({exc})") from exc
    # A finite span needs finite endpoints and keeps linspace's step finite.
    if not math.isfinite(hi - lo):
        raise DomainError(f"grid {text!r}: endpoints and their span must be finite")
    if n < 1:
        raise DomainError(f"grid {text!r}: need n >= 1")
    if n > MAX_GRID_POINTS:
        raise DomainError(f"grid {text!r}: at most {MAX_GRID_POINTS} points")
    if n == 1:
        return [lo]
    div = n - 1
    span = hi - lo
    step = span / div
    if step == 0.0:
        points = [(i / div) * span + lo for i in range(div)]
    else:
        points = [i * step + lo for i in range(div)]
    return [*points, hi]


def _container(shape: str, length_z: float | None):
    """The planar domain of a shape, or the tube over it when --Lz is given."""
    dom = make_domain(parse_shape(shape))
    return dom if length_z is None else TubeDomain(dom, length_z)


def _validity_columns(report: eos.ValidityReport) -> dict:
    """The ratio, fermi_extension_used and warnings columns of a row."""
    return {**dataclasses.asdict(report), "warnings": "; ".join(report.warnings)}


def _parse_t_list(text: str) -> list[float]:
    """Comma-separated distinct, positive, finite heat-kernel times, largest first."""
    try:
        times = sorted((float(s) for s in text.split(",")), reverse=True)
    except ValueError as exc:
        raise DomainError(f"t-list {text!r}: expected comma-separated numbers ({exc})") from exc
    if not all(0.0 < t < math.inf for t in times):
        raise DomainError(f"t-list {text!r}: every time must be positive and finite")
    if len(set(times)) < len(times):
        raise DomainError(f"t-list {text!r}: the times must be distinct")
    return times


@click.group(cls=_Group, no_args_is_help=False)
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

    method is ClosedForm, Series, Taylor (Fermi 1/2 < z < 2) or Inversion
    (Fermi z >= 2).
    """
    kind = StatKind(stat)
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
    _emit(rows, ["z", "value", "error_bound", "method"], fmt, out)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

VALIDITY_COLUMNS = [f.name for f in dataclasses.fields(eos.ValidityReport)]

SOLVE_COLUMNS = ["stat", "z", "lambda", "T", "N", *VALIDITY_COLUMNS]


@main.command("solve")
@click.option("--stat", type=click.Choice(["bose", "fermi"]), required=True)
@click.option("--shape", required=True,
              help="rect:a,b | disk:R | annulus:Ri,Ro | polygon:@file")
@click.option("--N", "n_particles", type=float, required=True)
@click.option("--T", "temperature", type=float, required=True)
@click.option("--Lz", "length_z", type=float, default=None,
              help="tube length; switches to the 3-D tube equations")
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--out", default=None, type=click.Path(dir_okay=False, writable=True))
def cmd_solve(stat, shape, n_particles, temperature, length_z, fmt, out):
    """Solve the fugacity; exit 0 clean, 2 warned, 3 invalid, 4 accuracy.

    Columns: stat, z, lambda, T, N, ratio_wavelength, ratio_boundary,
    ratio_topology, fermi_extension_used, warnings.  A solved state whose
    ln Xi is negative is refused with ModelError, as table refuses it.
    """
    kind, container = StatKind(stat), _container(shape, length_z)
    state, report = eos.solve_fugacity(kind, container, n_particles, temperature)
    eos.log_grand_potential(kind, container, state.lam, state.z)
    row = {"stat": stat, "z": state.z, "lambda": state.lam, "T": state.T, "N": state.N,
           **_validity_columns(report)}
    _emit([row], SOLVE_COLUMNS, fmt, out)
    if report.warnings:
        sys.exit(EXIT_WARNED)


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

TABLE_HEAD = ["T", "z", "lambda", "U", "F", "S", "C_V", "P"]
TABLE_TAIL = [*VALIDITY_COLUMNS, "status"]


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
        **_validity_columns(rep.validity),
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
    kind = StatKind(stat)
    container = _container(shape, length_z)
    temps = _parse_grid(t_grid)
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

    spec_shape = parse_shape(shape)
    if isinstance(spec_shape, Rectangle):
        spectrum = spectral.rectangle_spectrum(spec_shape.a, spec_shape.b, cutoff)
    elif isinstance(spec_shape, Disk):
        spectrum = spectral.disk_spectrum(spec_shape.radius, cutoff)
    elif isinstance(spec_shape, Annulus):
        spectrum = spectral.annulus_spectrum(spec_shape.r_inner, spec_shape.r_outer, cutoff)
    else:
        raise GeometryError("exact spectra exist for rect, disk and annulus only")
    rows = [{"mu": float(m), "multiplicity": int(g)}
            for m, g in zip(spectrum.mu, spectrum.multiplicity)]
    _emit(rows, ["mu", "multiplicity"], "csv", out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

@main.command("verify")
@click.option("--suite", type=click.Choice(["heatkernel", "thermo", "all"]),
              default="all", show_default=True)
@click.option("--t-list", "t_list_text", default="0.1,0.05,0.025", show_default=True)
@click.option("--report", "report_path", default=None,
              type=click.Path(dir_okay=False, writable=True))
def cmd_verify(suite, t_list_text, report_path):
    """Run oracle comparisons; exit 0 iff every non-informational row passes.

    Columns: case, t, measured, tolerance, status (pass/fail/info).  Heat-kernel
    times above 1, the unit disk's R^2, are outside the model and exit 3.
    """
    from . import certify

    t_list = _parse_t_list(t_list_text)
    rows: list[dict] = []
    if suite in ("heatkernel", "all"):
        rows.extend(certify.heatkernel(t_list))
    if suite in ("thermo", "all"):
        rows.extend(certify.thermo_identities())
    _emit(rows, certify.COLUMNS, "csv", None)
    if report_path:
        _emit(rows, certify.COLUMNS, "csv", report_path)
    if any(r["status"] == "fail" for r in rows):
        sys.exit(EXIT_ACCURACY)


if __name__ == "__main__":
    main()
