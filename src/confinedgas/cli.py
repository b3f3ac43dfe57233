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

Each command is a function with a table of ``Option`` rows (flag, dest,
type or choices, required, default, help), and one loop (``_parse``) reads
every command line with the standard library alone.  A malformed line
raises a subclass of ``errors.UsageError`` (``MissingParameter``,
``BadParameter``, ``BadOptionUsage``, ``NoSuchOption``, ``NoSuchCommand``),
so the handler of library errors refuses it too.  ``main`` is the program:
``main.main(args, prog_name)`` in process, ``main()`` from the console
script and ``python -m confinedgas.cli``.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from typing import Any, Callable, NoReturn

from . import eos, thermo
from .errors import (AccuracyError, BadOptionUsage, BadParameter, ConfinedGasError, DomainError,
                     GeometryError, MissingParameter, NoSuchCommand, NoSuchOption, UsageError)
from .geometry import Annulus, Disk, Rectangle, TubeDomain, make_domain, parse_shape
from .statfun import Order, StatKind, eval_h

EXIT_WARNED = 2
EXIT_INVALID = 3
EXIT_ACCURACY = 4

#: Largest point count a lo:hi:n grid may ask for.
MAX_GRID_POINTS = 10**6


def _fail(exc: ConfinedGasError) -> NoReturn:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    sys.exit(EXIT_ACCURACY if isinstance(exc, AccuracyError) else EXIT_INVALID)


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
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise BadParameter(f"cannot write {out!r}: {exc.strerror}") from exc


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


# ---------------------------------------------------------------------------
# the command line
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Option:
    """One ``--flag VALUE`` of a command.

    ``type`` (``str``, ``float`` or ``_file``) turns the text into the
    value and raises ValueError when it cannot; a tuple of strings is the
    list of choices.  The value of an option that is not given is
    ``default``, unless it is ``required``.
    """

    flag: str
    dest: str
    type: Callable[[str], Any] | tuple[str, ...] = str
    required: bool = False
    default: Any = None
    help: str = ""


def _file(text: str) -> str:
    """A path to write: not a directory, and writable if it exists."""
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    if os.path.exists(text) and not os.access(text, os.W_OK):
        raise ValueError(f"File {text!r} is not writable.")
    return text


_METAVAR = {str: "TEXT", float: "FLOAT", _file: "FILE"}
_HELP = "Show this message and exit."
_ABOUT = "Quantum gases in finite containers: corrected equations of state."
_STAT = Option("--stat", "stat", ("bose", "fermi"), required=True)
_FORMAT = Option("--format", "fmt", ("csv", "jsonl"), default="csv")
_OUT = Option("--out", "out", _file)

#: name -> (function, options) of every command, filled by ``_command``.
COMMANDS: dict[str, tuple[Callable[..., None], tuple[Option, ...]]] = {}


def _command(name: str, *options: Option):
    """Register the decorated function as command ``name``; it is called
    with one keyword argument per option, named by the option's dest."""
    def register(fn):
        COMMANDS[name] = (fn, options)
        return fn
    return register


def _convert(option: Option, text: str):
    if isinstance(option.type, tuple):
        if text in option.type:
            return text
        reason = f"{text!r} is not one of {', '.join(map(repr, option.type))}."
    else:
        try:
            return option.type(text)
        except ValueError as exc:
            reason = f"{text!r} is not a valid float." if option.type is float else str(exc)
    raise BadParameter(f"Invalid value for {option.flag!r}: {reason}")


def _suggest(error: type[UsageError], message: str, word: str, names) -> UsageError:
    """``error(message)``, naming the close matches of ``word`` among ``names``."""
    from difflib import get_close_matches

    close = sorted(get_close_matches(word, names))
    if len(close) == 1:
        message += f" Did you mean {close[0]!r}?"
    elif close:
        message += f" (Did you mean one of: {', '.join(map(repr, close))}?)"
    return error(message)


def _parse(options: tuple[Option, ...], args: list[str]) -> dict[str, Any] | None:
    """{dest: value} for the options of one command, or None for --help.

    An option takes the next token as its value, whatever it is, so
    ``--order -1/2`` is order -1/2; ``--flag=value`` works too, the last of
    repeated options wins and ``--`` ends the options.  Unknown options and
    missing values are refused first, then --help is honoured, then the
    values are converted in the order given and the required options
    checked; stray positional tokens are refused last.
    """
    by_flag = {option.flag: option for option in options}
    given: dict[str, str] = {}
    extra: list[str] = []
    wants_help = False
    tokens = iter(args)
    for token in tokens:
        if token == "--":
            extra.extend(tokens)
        elif token[:1] != "-" or token == "-":
            extra.append(token)
        else:
            flag, eq, value = token.partition("=")
            if flag == "--help":
                if eq:
                    raise BadOptionUsage("Option '--help' does not take a value.")
                wants_help = True
            elif flag not in by_flag:
                raise _suggest(NoSuchOption, f"No such option {flag!r}.", flag,
                               [*by_flag, "--help"])
            else:
                if not eq:
                    value = next(tokens, None)
                    if value is None:
                        raise BadOptionUsage(f"Option {flag!r} requires an argument.")
                given[flag] = value
    if wants_help:
        return None
    values = {by_flag[flag].dest: _convert(by_flag[flag], text)
              for flag, text in given.items()}
    for option in options:
        if option.dest not in values:
            if option.required:
                raise MissingParameter(f"Missing option {option.flag!r}.")
            values[option.dest] = option.default
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return values


def _help(usage: str, doc: str, sections: dict[str, list[tuple[str, str]]]) -> str:
    """Usage line, docstring and two-column sections of a --help page."""
    from inspect import cleandoc

    body = "\n".join(f"  {line}" if line else "" for line in cleandoc(doc).splitlines())
    text = f"Usage: {usage}\n\n{body}\n"
    for title, pairs in sections.items():
        width = max(len(left) for left, _ in pairs)
        text += f"\n{title}:\n" + "".join(
            f"  {left:<{width}}  {right}".rstrip() + "\n" for left, right in pairs)
    return text


def _option_row(option: Option) -> tuple[str, str]:
    kind = option.type
    metavar = f"[{'|'.join(kind)}]" if isinstance(kind, tuple) else _METAVAR[kind]
    notes = [option.help] if option.help else []
    if option.required:
        notes.append("[required]")
    elif option.default is not None:
        notes.append(f"[default: {option.default}]")
    return f"{option.flag} {metavar}", "  ".join(notes)


def _run(args: list[str], prog: str) -> None:
    """Parse ``args`` (without the program name) and run the command."""
    split = next((i for i, a in enumerate(args) if a[:1] != "-" or a == "-"), len(args))
    if _parse((), args[:split]) is None:
        commands = [(name, (COMMANDS[name][0].__doc__ or "").partition("\n")[0])
                    for name in sorted(COMMANDS)]
        sys.stdout.write(_help(f"{prog} [OPTIONS] COMMAND [ARGS]...", _ABOUT,
                               {"Options": [("--help", _HELP)], "Commands": commands}))
        return
    if split == len(args):
        raise UsageError("Missing command.")
    name = args[split]
    if name not in COMMANDS:
        raise _suggest(NoSuchCommand, f"No such command {name!r}.", name, COMMANDS)
    fn, options = COMMANDS[name]
    values = _parse(options, args[split + 1:])
    if values is None:
        rows = [*map(_option_row, options), ("--help", _HELP)]
        sys.stdout.write(_help(f"{prog} {name} [OPTIONS]", fn.__doc__ or "", {"Options": rows}))
        return
    fn(**values)


class CommandLine:
    """The ``confinedgas`` program.

    ``main(args, prog_name)`` runs one command line (``sys.argv[1:]`` when
    ``args`` is None) and always ends in SystemExit: 0 on success, the
    command's own code, or 3 or 4 with one JSON line on stderr for a library
    error, usage errors included.  Output goes to ``sys.stdout`` and
    ``sys.stderr`` as they are at call time.  Calling the instance, as the
    console script and ``python -m confinedgas.cli`` do, calls ``main``.
    """

    def main(self, args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
        try:
            _run(sys.argv[1:] if args is None else list(args), prog_name or "confinedgas")
        except ConfinedGasError as exc:
            _fail(exc)
        sys.exit(0)

    def __call__(self, args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
        self.main(args, prog_name)


main = CommandLine()


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

@_command("specfun", _STAT,
          Option("--order", "order_text", required=True,
                 help="order sigma, e.g. 2, 1.5 or 3/2"),
          Option("--z", "z_value", float),
          Option("--z-grid", "z_grid", help="lo:hi:n"),
          _FORMAT, _OUT)
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


@_command("solve", _STAT,
          Option("--shape", "shape", required=True,
                 help="rect:a,b | disk:R | annulus:Ri,Ro | polygon:@file"),
          Option("--N", "n_particles", float, required=True),
          Option("--T", "temperature", float, required=True),
          Option("--Lz", "length_z", float,
                 help="tube length; switches to the 3-D tube equations"),
          _FORMAT, _OUT)
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


@_command("table", _STAT,
          Option("--shape", "shape", required=True),
          Option("--N", "n_particles", float, required=True),
          Option("--T-grid", "t_grid", required=True, help="lo:hi:n (closed endpoints)"),
          Option("--Lz", "length_z", float),
          _FORMAT, _OUT)
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

@_command("oracle",
          Option("--shape", "shape", required=True, help="rect:a,b | disk:R | annulus:Ri,Ro"),
          Option("--cutoff", "cutoff", float, required=True),
          _OUT)
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

@_command("verify",
          Option("--suite", "suite", ("heatkernel", "thermo", "all"), default="all"),
          Option("--t-list", "t_list_text", default="0.1,0.05,0.025"),
          Option("--report", "report_path", _file))
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
