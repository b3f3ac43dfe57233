"""The four benchmark workloads: input generation, one operation, checks.

Every workload draws its inputs from a seeded ``numpy`` generator, one
operation at a time, so the i-th operation of a seed is always the same.
The variables that set an operation's cost are drawn stratified (each block
of operations covers every stratum once, in random order) so that two seeds
give the same cost mix and only the values inside each stratum differ.

Expected answers come from ``reference`` (mpmath), never from the library.
An operation's library calls are in ``worker``; ``check`` compares their
output with the expectation after the timed loop and returns ``None`` or the
reason it failed.

Where the mix follows a documented use, the source is named beside it; the
rest is a choice of this benchmark, said so in place.

No timed op may be refused, so in-domain states that the library refuses
today are left out of the timed mix.  A workload that leaves some out has a
``probe`` that draws them; the traced run counts how many are refused, so
the defect stays visible until it is fixed.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Any

import mpmath
import numpy as np

import reference

#: Relative residual the library's fugacity solver guarantees.
SOLVER_TOL = 1e-12
#: Accuracy contract of every certified h value.
H_CONTRACT = 1e-10


@dataclass
class Op:
    inputs: dict
    expect: dict = field(default_factory=dict)
    label: str = ""


class Strata:
    """Stratified uniform draws on [0, 1): each block of ``k`` draws visits
    every stratum once, in an order drawn from ``rng``."""

    def __init__(self, rng: np.random.Generator, k: int):
        self.rng = rng
        self.k = k
        self.pending: list[int] = []

    def draw(self) -> float:
        if not self.pending:
            self.pending = list(self.rng.permutation(self.k))
        stratum = self.pending.pop()
        return float((stratum + self.rng.random()) / self.k)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return float(math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo))))


# ---------------------------------------------------------------------------
# shapes: the library parses the text; the reference uses the same floats
# ---------------------------------------------------------------------------

def _random_shape(rng: np.random.Generator, kind: str, spread: float = 1.0) -> tuple[str, tuple]:
    """A shape of unit scale; ``spread`` scales how far its sizes vary."""
    def size(lo, hi):
        mid = math.sqrt(lo * hi)
        return float(mid * (hi / mid) ** (spread * rng.uniform(-1.0, 1.0)))

    if kind == "rect":
        a, b = size(0.5, 2.0), size(0.5, 2.0)
        return f"rect:{a!r},{b!r}", ("rect", a, b)
    if kind == "disk":
        r = size(0.5, 1.5)
        return f"disk:{r!r}", ("disk", r)
    ro = size(0.8, 2.0)
    ri = ro * size(0.3, 0.6)
    return f"annulus:{ri!r},{ro!r}", ("annulus", ri, ro)


def weyl_descriptors(shape: tuple) -> tuple[mpmath.mpf, mpmath.mpf, int]:
    """(area, perimeter, holes) at mpmath precision."""
    if shape[0] == "rect":
        a, b = mpmath.mpf(shape[1]), mpmath.mpf(shape[2])
        return a * b, 2 * (a + b), 0
    if shape[0] == "disk":
        r = mpmath.mpf(shape[1])
        return mpmath.pi * r**2, 2 * mpmath.pi * r, 0
    ri, ro = mpmath.mpf(shape[1]), mpmath.mpf(shape[2])
    return mpmath.pi * (ro**2 - ri**2), 2 * mpmath.pi * (ri + ro), 1


def _h_ref(stat: str, twice: int, z: float) -> tuple[mpmath.mpf, float]:
    """h value at mpmath precision (closed forms) or with its error estimate."""
    if twice in (2, 0, -2):
        return reference.h_mp(stat, twice, z), 0.0
    value, err = reference.h_half_integer(stat, twice, z)
    return mpmath.mpf(value), err


# ---------------------------------------------------------------------------
# table rows (thermo_2d / thermo_3d): shared by the Fermi and Bose workloads
# ---------------------------------------------------------------------------

def _model(shape: tuple, T: float, lz: float | None) -> tuple[tuple, tuple, tuple]:
    """Weyl coefficients of N(z), the orders of N and of z dN/dz (twice sigma)."""
    area, perim, holes = weyl_descriptors(shape)
    lam = mpmath.sqrt(2 * mpmath.pi / mpmath.mpf(T))
    if lz is None:
        coeffs = (area / lam**2, -perim / (4 * lam), mpmath.mpf(1 - holes) / 6)
        return coeffs, (2, 1, 0), (0, -1, -2)
    lz = mpmath.mpf(lz)
    coeffs = (lz * area / lam**3, -lz * perim / (4 * lam**2),
              mpmath.mpf(1 - holes) / 6 * lz / lam)
    return coeffs, (3, 2, 1), (1, 0, -1)


def bose_increasing(shape: tuple, T: float, lz: float | None, z: float) -> bool:
    """Whether the reference Bose N(x) increases on all of (0, 1 - (1-z)/2].

    A solver that brackets the root by walking x up from below, halving
    1 - x per step at most, then never meets a falling N below the target.
    The slope is sampled at 0.1, 0.25 and at half-octave steps of 1 - x
    from 1/2 down to (1-z)/2, nearest the condensation point first.
    """
    with mpmath.workdps(30):
        coeffs, _, d_orders = _model(shape, T, lz)
    coeffs = [float(c) for c in coeffs]
    gaps = [(1.0 - z) / 2.0]
    while gaps[-1] * math.sqrt(2.0) < 0.5:
        gaps.append(gaps[-1] * math.sqrt(2.0))
    for x in [1.0 - g for g in gaps] + [0.5, 0.25, 0.1]:
        terms = [c * reference.h("bose", o, x)[0] for c, o in zip(coeffs, d_orders)]
        if not math.fsum(terms) > 1e-9 * sum(abs(t) for t in terms):
            return False
    return True


def table_equation(stat: str, shape: tuple, T: float, lz: float | None, z: float) -> dict:
    """Reference N(z), dN/dz and the tolerance the solver may use, at z."""
    with mpmath.workdps(30):
        coeffs, n_orders, d_orders = _model(shape, T, lz)
        n_value = mpmath.mpf(0)
        z_slope = mpmath.mpf(0)
        ref_err = 0.0
        allowed = 0.0
        for c, o_n, o_d in zip(coeffs, n_orders, d_orders):
            h_n, e_n = _h_ref(stat, o_n, z)
            h_d, e_d = _h_ref(stat, o_d, z)
            n_value += c * h_n
            z_slope += c * h_d
            ref_err += abs(float(c)) * e_n
            allowed += abs(float(c)) * max(H_CONTRACT, H_CONTRACT * abs(float(h_n)))
        slope = z_slope / mpmath.mpf(z)
        return {
            "N": float(n_value),
            "slope": float(slope),
            "ref_err": ref_err,
            "allowed": SOLVER_TOL * abs(float(n_value)) + allowed,
        }


KINDS = ("rect", "disk", "annulus")


def _cells(lo: float, hi: float, count: int, label: str) -> list[tuple]:
    """``count`` equal log-width intervals covering [lo, hi]."""
    edges = np.geomspace(lo, hi, count + 1)
    return [(float(a), float(b), label) for a, b in zip(edges[:-1], edges[1:])]


class TableWorkload:
    """One op is one table row: ``thermo_2d`` or ``thermo_3d`` (30% tubes).

    Tube lengths are 150-400 sqrt(area), around the Lz = 500 on disk:1
    (282 sqrt(area)) of the CLI's tube tests and ``verify``.  Each block of ops visits every target cell once in random order; the
    cell and block number fix whether the row is a tube, the shape kind and
    the wavelength stratum, so every seed runs the same mix of costs.
    """

    chunk = 16  # ops between two calibration samples

    def __init__(self, stat: str):
        self.stat = stat

    def generator(self, rng: np.random.Generator, cells=None, dip: bool = False):
        cells = cells or self.cells()
        block = 0
        while True:
            for j in rng.permutation(len(cells)):
                lo, hi, label = cells[j]
                z = self.fugacity(_log_uniform(rng.random(), lo, hi))
                tube = (j + 3 * block) % 10 in (2, 5, 8)
                first = (j + block) % 3
                ratio_u = ((5 * j + block) % 8 + 0.5 + 0.04 * (rng.random() - 0.5)) / 8.0
                yield self._admissible(rng, z, tube, KINDS[first:] + KINDS[:first], ratio_u,
                                       label, dip)
            block += 1

    def _admissible(self, rng, z, tube, kinds, ratio_u, label, dip=False) -> Op:
        """A state whose reference N(z) is positive and increasing at z.

        Bose N must also increase everywhere below z (``bose_increasing``),
        or with ``dip`` must fall somewhere below z.
        """
        for attempt in range(60):
            # The first draw stays near the cell's nominal state, so every seed
            # runs nearly the same mix of states; redraws roam the full range.
            text, shape = _random_shape(rng, kinds[attempt // 20], 0.02 if attempt == 0 else 1.0)
            area = float(weyl_descriptors(shape)[0])
            u = ratio_u if attempt == 0 else float(rng.random())
            ratio = _log_uniform(u, *self.wavelength_ratio)
            T = 2.0 * math.pi / (ratio**2 * area)
            lz = math.sqrt(area) * float(rng.uniform(150.0, 400.0)) if tube else None
            eq = table_equation(self.stat, shape, T, lz, z)
            if eq["N"] > 0.0 and eq["slope"] > 0.0 and (
                    self.stat == "fermi" or bose_increasing(shape, T, lz, z) != dip):
                tol_z = 1.5 * (eq["allowed"] + eq["ref_err"]) / eq["slope"] + 8.0 * 2.2e-16 * z
                return Op(
                    inputs={"stat": self.stat, "shape": text, "T": T, "Lz": lz,
                            "N": eq["N"]},
                    expect={"z": z, "tol_z": tol_z, "shape": shape, "slope": eq["slope"]},
                    label=label,
                )
        raise RuntimeError(f"no admissible state for z={z!r}")

    def check(self, op: Op, out) -> str | None:
        z, U, F, S, C_V, P = out
        if not all(math.isfinite(v) for v in out):
            return "non-finite output"
        exp = op.expect
        if abs(z - exp["z"]) > exp["tol_z"]:
            # A different root is acceptable only if it solves the reference
            # equation and lies on an increasing branch.
            eq = table_equation(self.stat, exp["shape"], op.inputs["T"], op.inputs["Lz"], z)
            if abs(eq["N"] - op.inputs["N"]) > eq["allowed"] + eq["ref_err"] or eq["slope"] <= 0.0:
                return f"z off target by {abs(z - exp['z']) / exp['z']:.3e} relative"
        if abs(S - (U - F) / op.inputs["T"]) > 1e-12 * max(abs(S), 1e-30):
            return "S != (U-F)/T to 1e-12"
        return None

    @staticmethod
    def digest(out) -> str:
        return ",".join(repr(v) for v in out)


class FermiDegenerate(TableWorkload):
    """Target fugacities log-uniform on [1, 1e4]."""

    name = "table-fermi-degenerate"
    #: lambda / sqrt(area): from just below the acceptance solver grid
    #: (disk:1, T 2500-25000: 0.009-0.028) up to the README's ``solve``
    #: example (rect:4,1 at T = 157.08: 0.1), half the warning threshold 0.2.
    wavelength_ratio = (0.01, 0.1)

    def __init__(self):
        super().__init__("fermi")

    @staticmethod
    def cells():
        return _cells(1.0, 1e4, 32, "z in [1, 1e4]")

    @staticmethod
    def fugacity(x: float) -> float:
        return x


class BoseCondensation(TableWorkload):
    """1-z log-uniform on [5e-5, 1e-1], where N(z) increases up to the target.

    Two kinds of in-domain state are refused today, and a run's ops must not
    fail, so neither is timed.  Closer to z = 1 the solver refuses every
    state (ROADMAP, open item 2: the h series cannot be certified past
    1 - z = 1.5e-5, which the solver's walk reaches from targets below about
    3e-5).  Where N(z) dips below the target, the walk can stop at the dip.
    ``probe`` draws half its states from each kind, and the traced run
    counts the solver's refusals of them.
    """

    name = "table-bose-condensation"
    #: The README's Bose ``table`` example (disk:1, T 500-5000: 0.020-0.063)
    #: up to its ``solve`` example (0.1).
    wavelength_ratio = (0.02, 0.1)
    chunk = 4
    probe_ops = 12

    def __init__(self):
        super().__init__("bose")

    @staticmethod
    def cells():
        return _cells(5e-5, 1e-1, 64, "1-z in [5e-5, 0.1]")

    def probe(self, rng: np.random.Generator):
        half = self.probe_ops // 2
        deep = self.generator(rng, _cells(1e-11, 3e-5, half, "1-z < 3e-5"))
        dips = self.generator(rng, _cells(5e-5, 1e-3, half, "N dips below z"), dip=True)
        return itertools.chain(itertools.islice(deep, half), itertools.islice(dips, half))

    @staticmethod
    def fugacity(x: float) -> float:
        return 1.0 - x


# ---------------------------------------------------------------------------
# oracle spectra
# ---------------------------------------------------------------------------

#: verify's heat-trace tolerances on |theta - Weyl| per shape, with the
#: constant term each shape's exact expansion has (corners give 1/4).
THETA_TOLERANCE = {"disk": (1.0 / 6.0, 0.03), "annulus": (0.0, 0.05), "rect": (0.25, 0.005)}
#: One of each shape in turn, as ``verify --suite all`` builds them (disk:1,
#: annulus:1,2 at cutoff 320, the unit square at cutoff 500).
ORACLE_CYCLE = ("disk", "rect", "annulus")


class OracleSpectra:
    """One op: an exact spectrum, its theta sums and exact_thermo vs thermo_2d."""

    name = "oracle-spectra"
    chunk = 1

    def generator(self, rng: np.random.Generator):
        levels = {k: Strata(rng, 8) for k in THETA_TOLERANCE}
        margin = Strata(rng, 8)
        index = 0
        while True:
            kind = ORACLE_CYCLE[index % len(ORACLE_CYCLE)]
            u = levels[kind].draw()
            if kind == "disk":
                r = float(rng.uniform(0.6, 1.6))
                shape, scale2 = ("disk", r), r * r
                cutoff = (480.0 + 80.0 * u) / scale2
                t_hi = 0.1 * scale2
            elif kind == "annulus":
                s = float(rng.uniform(0.6, 1.6))
                shape, scale2 = ("annulus", s, 2.0 * s), s * s
                cutoff = (330.0 + 50.0 * u) / scale2
                t_hi = 0.05 * scale2
            else:
                a, b = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
                shape, scale2 = ("rect", a, b), min(a, b) ** 2
                cutoff = 2.0 * math.pi * (300.0 + 500.0 * u) / (a * b)
                t_hi = 0.1 * scale2
            t_lo = 16.0 / cutoff
            ts = sorted(_log_uniform(rng.random(), t_lo, t_hi) for _ in range(3))
            stat = "fermi" if index % 2 else "bose"
            T = cutoff / (40.0 * (1.25 + 0.35 * margin.draw()))
            # N is the model's particle number at a fugacity on its increasing
            # branch, so (N, T) is inside the asymptotic model's domain too.
            for _ in range(200):
                if stat == "bose":
                    z = float(rng.uniform(0.2, 0.7))
                    eq = table_equation(stat, shape, T, None, z)
                    if eq["N"] > 0.0 and bose_increasing(shape, T, None, z):
                        break
                    continue
                z = float(rng.uniform(0.5, 6.0))
                eq = table_equation(stat, shape, T, None, z)
                if eq["N"] > 0.0 and all(table_equation(stat, shape, T, None, x)["slope"] > 0.0
                                         for x in (z, 0.5 * z, 0.1 * z)):
                    break
            else:
                raise RuntimeError(f"no model-valid state for {shape}")
            yield Op(
                inputs={"shape": shape, "cutoff": cutoff, "ts": ts, "stat": stat,
                        "T": T, "N": eq["N"]},
                label=kind,
            )
            index += 1

    def check(self, op: Op, out) -> str | None:
        inp = op.inputs
        shape = inp["shape"]
        area, perim, _ = (float(v) for v in weyl_descriptors(shape))
        constant, tol = THETA_TOLERANCE[shape[0]]
        for t, theta in zip(inp["ts"], out["thetas"]):
            weyl = area / (2 * math.pi * t) - perim / (4 * math.sqrt(2 * math.pi * t)) + constant
            if not abs(theta - weyl) <= tol:
                return f"theta residual {theta - weyl:.4g} at t={t:.4g} exceeds {tol}"
        mu, mult = out["mu"], out["mult"].astype(float)
        x = mu / inp["T"] - math.log(out["z_exact"])
        sign = -1.0 if inp["stat"] == "bose" else 1.0
        occupied = math.fsum(mult / (np.exp(x) + sign))
        if not abs(occupied - inp["N"]) <= 1e-9 * inp["N"]:
            return f"exact occupancies sum to {occupied!r}, not N={inp['N']!r}"
        z, U, F, S, C_V, P = out["row"]
        if not all(math.isfinite(v) for v in out["row"]):
            return "non-finite thermo_2d output"
        if abs(S - (U - F) / inp["T"]) > 1e-12 * max(abs(S), 1e-30):
            return "S != (U-F)/T to 1e-12"
        if shape[0] == "disk":
            return _check_disk_zeros(shape[1], inp["cutoff"], mu, out["mult"])
        return None

    @staticmethod
    def digest(out) -> str:
        return ",".join(
            [repr(out["levels"]), repr(float(out["mu"].sum()))]
            + [repr(v) for v in out["thetas"]]
            + [repr(out["z_exact"]), repr(out["U_exact"])]
            + [repr(v) for v in out["row"]]
        )


def _check_disk_zeros(radius: float, cutoff: float, mu, mult) -> str | None:
    """Every disk level below the cutoff must match scipy's Bessel zeros."""
    from scipy.special import jn_zeros

    jmax = radius * math.sqrt(2.0 * cutoff)
    expected: dict[float, int] = {}
    nu = 0
    while True:
        count = int((jmax - nu) / math.pi) + 4
        zeros = [j for j in jn_zeros(nu, count) if j < jmax]
        if not zeros:
            break
        for j in zeros:
            level = j * j / (2.0 * radius * radius)
            expected[level] = expected.get(level, 0) + (1 if nu == 0 else 2)
        nu += 1
    want_mu = np.array(sorted(expected))
    # Levels within 1e-12 of a neighbour are merged by the library.
    keep = np.ones(len(want_mu), dtype=bool)
    keep[1:] = np.diff(want_mu) > 1e-12 * want_mu[1:]
    groups = np.cumsum(keep) - 1
    want_mult = np.bincount(groups, weights=[expected[m] for m in want_mu]).astype(int)
    want_mu = want_mu[keep]
    if len(want_mu) != len(mu) or not np.array_equal(want_mult, np.asarray(mult)):
        return f"disk spectrum has {len(mu)} levels, scipy zeros give {len(want_mu)}"
    worst = float(np.max(np.abs(mu - want_mu) / want_mu))
    if worst > 1e-11:
        return f"disk level differs from scipy jn_zeros by {worst:.2e} relative"
    return None


# ---------------------------------------------------------------------------
# specfun through the CLI
# ---------------------------------------------------------------------------

ORDER_TEXT = {-2: "-1", -1: "-1/2", 0: "0", 1: "1/2", 2: "1", 3: "3/2", 4: "2", 5: "5/2"}
#: Grid sizes of the documented requests: the CLI test (5 points), the
#: README example (9) and a 40-point table grid (README ``table`` example).
GRID_POINTS = (5, 9, 40)


class SpecfunCli:
    """One op is one ``specfun --z-grid`` request through ``cli.main``.

    Bose grids stop at 1-z = 1e-4: the series orders raise AccuracyError
    from about 4e-5 on (ROADMAP, open item 2), and a run's ops must not
    fail.  ``probe`` draws Bose grids that reach 1-z in [1e-9, 3e-5), and
    the traced run counts how many of them the CLI refuses.
    """

    name = "specfun-cli"
    chunk = 64
    probe_ops = 16

    def probe(self, rng: np.random.Generator):
        return self.generator(rng, deep=True)

    def generator(self, rng: np.random.Generator, deep: bool = False):
        reach = Strata(rng, 8)
        spread = Strata(rng, 8)
        index = 0
        while True:
            twice = reference.ALL_ORDERS[index % 8]
            stat = "bose" if deep else ("bose", "fermi")[(index // 8) % 2]
            n = GRID_POINTS[(index // 16) % len(GRID_POINTS)]
            if stat == "bose":
                # A choice of this benchmark: grids start at 1-z in [1e-2, 0.5]
                # and span 0.5-2 decades of 1-z.
                w_lo = _log_uniform(reach.draw(), 1e-2, 0.5)
                if deep:
                    w_hi = _log_uniform(spread.draw(), 1e-9, 3e-5)
                else:
                    w_hi = w_lo * 10.0 ** (-0.5 - 1.5 * spread.draw())
                lo, hi = 1.0 - w_lo, 1.0 - w_hi
                label = "bose 1-z < 3e-5" if deep else "bose"
            else:
                # Fermi z spans 1e-4..1e3, as in the acceptance solver grid;
                # the grid widths (0.2-1.5 decades) are this benchmark's choice.
                lo = _log_uniform(reach.draw(), 1e-4, 50.0)
                hi = float(min(lo * 10.0 ** (0.2 + 1.3 * spread.draw()), 1e3))
                label = "fermi"
            grid = f"{lo!r}:{hi!r}:{n}"
            yield Op(
                inputs={"args": ["specfun", "--stat", stat, "--order", ORDER_TEXT[twice],
                                 "--z-grid", grid]},
                expect={"stat": stat, "twice": twice, "grid": (lo, hi, n)},
                label=label,
            )
            index += 1

    def check(self, op: Op, out) -> str | None:
        exp = op.expect
        lines = out["stdout"].splitlines()
        if lines[:1] != ["z,value,error_bound,method"]:
            return "missing CSV header"
        lo, hi, n = exp["grid"]
        zs = np.linspace(lo, hi, n) if n > 1 else [lo]
        if len(lines) != n + 1:
            return f"{len(lines) - 1} rows for a {n}-point grid"
        for line, z_want in zip(lines[1:], zs):
            z_text, value, bound, _ = line.split(",")
            z = float(z_text)
            if z != float(z_want):
                return f"grid point {z_text} does not round-trip {float(z_want)!r}"
            value, bound = float(value), float(bound)
            ref, ref_err = reference.h(exp["stat"], exp["twice"], z)
            if bound > max(H_CONTRACT, H_CONTRACT * abs(value)):
                return f"bound {bound:.3e} misses the 1e-10 contract at z={z!r}"
            if abs(value - ref) > bound + ref_err:
                return (f"|value - ref| = {abs(value - ref):.3e} exceeds the certified "
                        f"bound {bound:.3e} at z={z!r}")
        return None

    @staticmethod
    def digest(out) -> str:
        return f"{out['code']}:{out['stdout']}"

    @staticmethod
    def failure(out) -> str | None:
        """Exit codes other than 0 and 2 are failures, named by the diagnostic."""
        if out["code"] in (0, 2):
            return None
        error = "exit"
        with contextlib.suppress(ValueError, KeyError, TypeError, IndexError):
            error = json.loads(out["stderr"].strip().splitlines()[-1])["error"]
        return f"{error} (exit {out['code']})"


WORKLOADS: dict[str, Any] = {
    w.name: w for w in (FermiDegenerate(), BoseCondensation(), OracleSpectra(), SpecfunCli())
}
