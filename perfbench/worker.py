"""The library calls of one benchmark op, and the process that times them.

    python3 perfbench/worker.py WORKLOAD SRC

imports only the workload's library modules from ``SRC`` (and the standard
library), then serves chunks of ops sent by ``run.py`` as pickles on stdin:
it runs each op, times it, and sends back the outputs, errors and
latencies on the stdout it was started with.  An empty message ends it; it
answers with its own ``ru_maxrss``, so the peak memory it reports is the
interpreter's and the library's, not the benchmark's.

The same calls run in-process for the traced run and the self-test.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import os
import pickle
import resource
import sys
import time
from pathlib import Path
from types import SimpleNamespace

#: Library modules each workload imports (the rest come in transitively).
MODULES = {
    "table-fermi-degenerate": ("confinedgas.geometry", "confinedgas.thermo"),
    "table-bose-condensation": ("confinedgas.geometry", "confinedgas.thermo"),
    "oracle-spectra": ("confinedgas.geometry", "confinedgas.spectral", "confinedgas.thermo"),
    "specfun-cli": ("confinedgas.cli",),
}


def load_library(src: Path, modules) -> SimpleNamespace:
    """Import ``modules`` from ``src`` (never from elsewhere) and expose every
    confinedgas module they pulled in as an attribute, by short name."""
    if not (src / "confinedgas" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {src / 'confinedgas'}")
    sys.path.insert(0, str(src))
    for name in modules:
        importlib.import_module(name)
    lib = SimpleNamespace(clock=time.perf_counter)
    for name, module in sorted(sys.modules.items()):
        if name.startswith("confinedgas."):
            setattr(lib, name.split(".", 1)[1], module)
    origin = Path(sys.modules["confinedgas"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: confinedgas was imported from {origin}, not {src}")
    return lib


def run_table(lib, inp: dict):
    """One table row: thermo_2d, or thermo_3d for a tube."""
    dom = lib.geometry.make_domain(lib.geometry.parse_shape(inp["shape"]))
    stat = lib.statfun.StatKind(inp["stat"])
    if inp["Lz"] is None:
        rep = lib.thermo.thermo_2d(stat, dom, inp["N"], inp["T"])
    else:
        tube = lib.geometry.TubeDomain(dom, inp["Lz"])
        rep = lib.thermo.thermo_3d(stat, tube, inp["N"], inp["T"])
    return (rep.state.z, rep.U, rep.F, rep.S, rep.C_V, rep.P)


SHAPE_TEXT = {"disk": "disk:{1!r}", "annulus": "annulus:{1!r},{2!r}", "rect": "rect:{1!r},{2!r}"}


def run_oracle(lib, inp: dict):
    """An exact spectrum, its theta sums, and exact_thermo against thermo_2d."""
    shape, spectral = inp["shape"], lib.spectral
    t0 = lib.clock()
    if shape[0] == "disk":
        spec = spectral.disk_spectrum(shape[1], inp["cutoff"])
    elif shape[0] == "annulus":
        spec = spectral.annulus_spectrum(shape[1], shape[2], inp["cutoff"])
    else:
        spec = spectral.rectangle_spectrum(shape[1], shape[2], inp["cutoff"])
    build_s = lib.clock() - t0
    thetas = [spectral.theta_sum(spec, t)[0] for t in inp["ts"]]
    stat = lib.statfun.StatKind(inp["stat"])
    z_exact, _, u_exact = spectral.exact_thermo(stat, spec, inp["N"], inp["T"])
    dom = lib.geometry.make_domain(lib.geometry.parse_shape(SHAPE_TEXT[shape[0]].format(*shape)))
    rep = lib.thermo.thermo_2d(stat, dom, inp["N"], inp["T"])
    return {
        "mu": spec.mu, "mult": spec.multiplicity, "levels": spec.count,
        "build_s": build_s, "thetas": thetas, "z_exact": z_exact, "U_exact": u_exact,
        "row": (rep.state.z, rep.U, rep.F, rep.S, rep.C_V, rep.P),
    }


def run_specfun(lib, inp: dict):
    """One ``specfun`` request through the CLI entry point, in-process."""
    out, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            lib.cli.main.main(args=inp["args"], prog_name="confinedgas")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CALLS = {
    "table-fermi-degenerate": run_table,
    "table-bose-condensation": run_table,
    "oracle-spectra": run_oracle,
    "specfun-cli": run_specfun,
}

#: Prefix of the error of an op that raised something other than the
#: library's own ConfinedGasError: a defect, which makes the run incorrect.
UNEXPECTED = "unexpected "


def execute(lib, call, inputs: dict, wrap=None):
    """Run one op; returns (output, error name or None, latency in s)."""
    library_error = lib.errors.ConfinedGasError
    t0 = time.perf_counter()
    try:
        out = call(lib, inputs) if wrap is None else wrap(call, lib, inputs)
        err = None
    except library_error as exc:
        out, err = None, type(exc).__name__
    except Exception as exc:  # a defect, not a refusal: the op is wrong
        out, err = None, f"{UNEXPECTED}{type(exc).__name__}: {exc}"
    return out, err, time.perf_counter() - t0


def calibration_kernel() -> float:
    """Time fixed work of the library's kinds (interpreter arithmetic, calls
    and string formatting, small and large numpy arrays) sharing no library
    code.

    The host's speed drifts by +-15% over tens of seconds (other tenants
    share the cores), so each chunk of ops is scaled by how long this kernel
    took just before it, in the process that runs the ops.  numpy is already
    loaded by the library.
    """
    import numpy as np

    x = np.linspace(0.1, 5.0, 64)
    u = np.linspace(0.0, 10.0, 20001)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(5000):
        acc += i * i % 7
    row = ",".join(f"{0.1 * i:.17g}" for i in range(300))
    acc += sum(float(v) for v in row.split(","))
    for i in range(100):
        acc += float(np.sum(np.exp(x * (0.001 * i)) / (1.0 + x)))
    for shift in (0.0, 1.0, 2.0, 3.0):
        acc += float(np.sum(np.sqrt(u) / (np.exp(u * u - 2.0 - shift) + 1.0)))
    return time.perf_counter() - t0


def run_chunk(lib, call, chunk: list[dict], budget: float):
    """Time the calibration kernel, then run ops until the chunk ends or
    ``budget`` seconds have passed.

    Returns the (output, error, latency) of each op run, the wall time of
    the ops and the calibration time.
    """
    calibration_kernel()  # warms caches after the wait for this chunk
    calibration = calibration_kernel()
    done = []
    t_start = time.perf_counter()
    for inputs in chunk:
        done.append(execute(lib, call, inputs))
        if time.perf_counter() - t_start >= budget:
            break
    return done, time.perf_counter() - t_start, calibration


def serve(workload: str, src: Path) -> None:
    # Keep the pipe to the parent for pickles; anything the library prints
    # goes to stderr instead.
    channel_out = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)
    channel_in = sys.stdin.buffer
    lib = load_library(src, MODULES[workload])
    call = CALLS[workload]
    pickle.dump("ready", channel_out)
    channel_out.flush()
    while True:
        message = pickle.load(channel_in)
        if message is None:
            break
        chunk, budget = message
        pickle.dump(run_chunk(lib, call, chunk, budget), channel_out)
        channel_out.flush()
    pickle.dump(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, channel_out)
    channel_out.close()


if __name__ == "__main__":
    serve(sys.argv[1], Path(sys.argv[2]))
