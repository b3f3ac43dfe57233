"""Spans around the library's public functions, and the per-layer metrics.

The modules import each other's functions by name (``from .statfun import
eval_h``), so a function is wrapped at every module attribute that holds it,
not only where it is defined.  Each span records its name, start, end,
parent span, operation id and a small result summary; spans stay in memory
until the run ends.  A layer's self time is its span time minus the time of
its child spans.
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: (defining module, function, span name).  The span's layer is the part of
#: the name before the first dot.
TRACED = (
    ("statfun", "eval_h", "statfun.eval_h"),
    ("eos", "solve_fugacity", "eos.solve_fugacity"),
    ("eos", "pressure", "eos.pressure"),
    ("thermo", "thermo_2d", "thermo.row"),
    ("thermo", "thermo_3d", "thermo.row"),
    ("thermo", "aux_2d", "thermo.aux"),
    ("thermo", "aux_3d", "thermo.aux"),
    ("geometry", "make_domain", "geometry.make_domain"),
    ("geometry", "parse_shape", "geometry.parse_shape"),
    ("geometry", "thermal_wavelength", "geometry.thermal_wavelength"),
    ("spectral", "disk_spectrum", "spectral.disk"),
    ("spectral", "annulus_spectrum", "spectral.annulus"),
    ("spectral", "rectangle_spectrum", "spectral.rectangle"),
    ("spectral", "theta_sum", "spectral.theta_sum"),
    ("spectral", "exact_thermo", "spectral.exact_thermo"),
    ("bessel", "j_zeros_up_to", "bessel.zeros"),
    ("bessel", "cross_product_zeros_up_to", "bessel.zeros"),
)

ROUTES = ("ClosedForm", "Series", "Quadrature", "OrderRecurrence")
STATFUN_ERRORS = ("AccuracyError", "DomainError")
EOS_ERRORS = ("NoBracketError", "NonMonotoneError", "AccuracyError", "ModelError")
SPECTRA = ("disk", "annulus", "rectangle")
IMPORT_PACKAGES = ("scipy", "numpy", "click", "confinedgas")

# span record fields
NAME, START, END, PARENT, OP, INFO = range(6)


def _call_key(args, kwargs):
    """The (stat, order, z, z_max, tail) of an eval_h call: its cache key."""
    stat, sigma, z = args[:3]
    z_max = args[3] if len(args) > 3 else kwargs.get("z_max")
    tail = args[4] if len(args) > 4 else kwargs.get("tail_bound")
    return (stat, getattr(sigma, "twice", sigma), z, z_max, tail)


def _summary(name: str, args, kwargs, result):
    """What a span keeps of its call: route and terms, levels, zero count."""
    if name == "statfun.eval_h":
        route = getattr(result.method, "value", str(result.method))
        return (route, result.terms, _call_key(args, kwargs))
    if name in ("spectral.disk", "spectral.annulus", "spectral.rectangle"):
        return int(result.count)
    if name == "bessel.zeros":
        return len(result)
    return None


class Tracer:
    """Records spans while installed; ``op`` tags spans with an op id."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._restore: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            idx = len(spans)
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                key = _call_key(args, kwargs) if name == "statfun.eval_h" else None
                rec[INFO] = ("raised", type(exc).__name__, key)
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter()
            rec[INFO] = _summary(name, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, lib) -> None:
        """Wrap every binding of the traced functions, and the CLI entry."""
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "confinedgas" or n.startswith("confinedgas.")]
        for module_name, func_name, span_name in TRACED:
            original = getattr(getattr(lib, module_name, None), func_name, None)
            if original is None:
                continue
            wrapper = self.wrap(span_name, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        cli = getattr(lib, "cli", None)
        if cli is not None:
            group = cli.main
            group.main = self.wrap("cli.main", type(group).main.__get__(group))
            self._restore.append((group, "main", None))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            if original is None:
                delattr(target, attr)
            else:
                setattr(target, attr, original)
        self._restore.clear()

    def call(self, op_id: int, fn, *args):
        """Run one benchmark op as a root span."""
        self.op = op_id
        return self.wrap("op", fn)(*args)


def layer_metrics(spans: list[list], cli_bytes: int) -> tuple[dict, dict]:
    """Per-layer metrics from the spans; returns (metrics, extra report)."""
    n = len(spans)
    child_time = [0.0] * n
    for rec in spans:
        if rec[PARENT] >= 0:
            child_time[rec[PARENT]] += rec[END] - rec[START]
    layer = [rec[NAME].split(".", 1)[0] for rec in spans]

    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for i, rec in enumerate(spans):
        dur = rec[END] - rec[START]
        self_time[layer[i]] += dur - child_time[i]
        parent = rec[PARENT]
        if parent < 0 or layer[parent] != layer[i]:
            busy[layer[i]] += dur

    def ancestors(i):
        p = spans[i][PARENT]
        while p >= 0:
            yield spans[p][NAME]
            p = spans[p][PARENT]

    route_calls: Counter = Counter()
    route_busy: dict[str, float] = defaultdict(float)
    raised: Counter = Counter()
    terms: list[int] = []
    seen: set = set()
    repeats = 0
    h_in_solve = h_in_row_outside_solve = 0
    counts: Counter = Counter()
    spectrum_busy: dict[str, float] = defaultdict(float)
    levels = zeros = 0
    for i, rec in enumerate(spans):
        name, info = rec[NAME], rec[INFO]
        counts[name] += 1
        dur = rec[END] - rec[START]
        if isinstance(info, tuple) and info[0] == "raised":
            # Count an exception once per layer, where it leaves the layer.
            parent = rec[PARENT]
            if parent < 0 or layer[parent] != layer[i]:
                raised[f"{layer[i]}.raised.{info[1]}"] += 1
            info = (None, None, info[2])
        if name == "statfun.eval_h":
            route, nterms, key = info
            if route is not None:
                route_calls[route] += 1
                route_busy[route] += dur
                if route == "Series" and nterms is not None:
                    terms.append(nterms)
            if key in seen:
                repeats += 1
            seen.add(key)
            above = list(ancestors(i))
            if "eos.solve_fugacity" in above:
                h_in_solve += 1
            elif "thermo.row" in above:
                h_in_row_outside_solve += 1
        elif name.startswith("spectral.") and name[9:] in SPECTRA:
            spectrum_busy[name[9:]] += dur
            levels += info or 0
        elif name == "bessel.zeros":
            zeros += info or 0

    h_calls = counts["statfun.eval_h"]
    solves = counts["eos.solve_fugacity"]
    rows = counts["thermo.row"]
    m = {
        "statfun.calls": h_calls,
        "statfun.busy_s": busy["statfun"],
    }
    for route in ROUTES:
        m[f"statfun.calls.{route}"] = route_calls[route]
        m[f"statfun.busy_s.{route}"] = route_busy[route]
    m["statfun.series_terms_mean"] = statistics.fmean(terms) if terms else 0.0
    m["statfun.series_terms_max"] = max(terms) if terms else 0
    for err in STATFUN_ERRORS:
        m[f"statfun.raised.{err}"] = raised[f"statfun.raised.{err}"]
    m["statfun.repeat_share"] = repeats / h_calls if h_calls else 0.0
    m.update({
        "eos.solves": solves,
        "eos.busy_s": busy["eos"],
        "eos.self_s": self_time["eos"],
        "eos.h_calls_per_solve": h_in_solve / solves if solves else 0.0,
    })
    for err in EOS_ERRORS:
        m[f"eos.raised.{err}"] = raised[f"eos.raised.{err}"]
    m.update({
        "thermo.rows": rows,
        "thermo.self_s": self_time["thermo"],
        "thermo.h_calls_per_row": h_in_row_outside_solve / rows if rows else 0.0,
        "geometry.calls": sum(v for k, v in counts.items() if k.startswith("geometry.")),
        "geometry.busy_s": busy["geometry"],
        "spectral.levels": levels,
        "spectral.levels_per_s": levels / sum(spectrum_busy.values()) if levels else 0.0,
    })
    for kind in SPECTRA:
        m[f"spectral.busy_s.{kind}"] = spectrum_busy[kind]
    m.update({
        "spectral.self_s": self_time["spectral"],
        "spectral.theta_busy_s": sum(r[END] - r[START] for r in spans
                                     if r[NAME] == "spectral.theta_sum") + 0.0,
        "spectral.exact_thermo_busy_s": sum(r[END] - r[START] for r in spans
                                            if r[NAME] == "spectral.exact_thermo") + 0.0,
        "bessel.calls": counts["bessel.zeros"],
        "bessel.zeros": zeros,
        "bessel.busy_s": busy["bessel"],
        "cli.requests": counts["cli.main"],
        "cli.self_s": self_time["cli"],
        "cli.bytes_out": cli_bytes,
    })
    extra = {
        "spans": n,
        "routes": dict(route_calls),
        "raised": dict(raised),
    }
    return m, extra


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|(\s*)(\S+)\s*$")


def import_breakdown(python: str, code: str, env: dict, cwd: str, repeats: int = 3) -> dict:
    """``python -X importtime`` self times summed per package, median of runs."""
    samples = defaultdict(list)
    for _ in range(repeats):
        proc = subprocess.run([python, "-X", "importtime", "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=120, check=True)
        total = 0
        per = Counter()
        for line in proc.stderr.splitlines():
            match = _IMPORT_LINE.match(line)
            if not match:
                continue
            self_us, name = int(match.group(1)), match.group(4)
            total += self_us
            per[name.split(".", 1)[0]] += self_us
        samples["import.total_s"].append(total * 1e-6)
        for pkg in IMPORT_PACKAGES:
            samples[f"import.{pkg}_s"].append(per[pkg] * 1e-6)
    return {k: statistics.median(v) for k, v in samples.items()}
