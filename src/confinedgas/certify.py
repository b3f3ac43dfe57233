"""Oracle checks behind ``confinedgas verify``, one row per check.

``heatkernel`` compares exact Dirichlet heat traces with the two-term Weyl
law plus its constant; ``thermo_identities`` checks the sigma and entropy
identities on seeded random planar and tube states, and dz/dT and C_V
against centred differences.  Status is pass, fail or info.
"""

from __future__ import annotations

import math

import numpy as np

from . import eos, spectral, thermo
from .errors import DomainError
from .geometry import Annulus, Disk, Rectangle, TubeDomain, make_domain, thermal_wavelength
from .statfun import ONE, THREE_HALVES, StatKind, eval_h

COLUMNS = ["case", "t", "measured", "tolerance", "status"]

#: Largest heat-kernel time, the unit disk's R^2: the small-t expansion ends there.
HEATKERNEL_T_MAX = 1.0

#: Random-state identity checks, one per dimensionality d: the sigma and
#: entropy case names, the thermo function, the bulk order d/2, the number
#: of states, the temperature range, the top filling N lam^d / volume and
#: the containers drawn from.
_IDENTITIES = (
    ("sigma2-identity", "S-identity-2d", thermo.thermo_2d, ONE, 25, (400.0, 4000.0), 1.5,
     tuple(make_domain(s) for s in (Rectangle(1.0, 1.0), Rectangle(4.0, 1.0),
                                    Disk(1.0), Annulus(1.0, 2.0)))),
    ("sigma3-identity", "S-identity-3d", thermo.thermo_3d, THREE_HALVES, 15, (50.0, 500.0),
     1.0, (TubeDomain(make_domain(Disk(1.0)), 500.0),)),
)


def _row(case: str, t, measured: float, tolerance, passed: bool | None) -> dict:
    """One report row; ``passed=None`` marks an informational row."""
    status = "info" if passed is None else "pass" if passed else "fail"
    return {"case": case, "t": t, "measured": measured, "tolerance": tolerance,
            "status": status}


def _weyl(area: float, perimeter: float, t: float, constant: float = 0.0) -> float:
    """Weyl heat trace area/(2 pi t) - perimeter/(4 sqrt(2 pi t)) + constant."""
    return area / (2 * math.pi * t) - perimeter / (4 * math.sqrt(2 * math.pi * t)) + constant


def heatkernel(t_list: list[float]) -> list[dict]:
    """Heat-trace rows; ``t_list`` is positive and sorted largest first.  A time
    above ``HEATKERNEL_T_MAX`` is refused with ``DomainError``."""
    if t_list[0] > HEATKERNEL_T_MAX:
        raise DomainError(f"heat-kernel time {t_list[0]!r} exceeds the maximum "
                          f"{HEATKERNEL_T_MAX} (the unit disk's R^2)")
    # Disk: smooth boundary, constant term +1/6.
    disk = spectral.disk_spectrum(1.0, max(46.0 / min(t_list), 80.0))
    residuals = [spectral.theta_sum(disk, t)[0] - _weyl(math.pi, 2.0 * math.pi, t, 1 / 6)
                 for t in t_list]
    rows = [_row("disk-smooth-constant", t, r, 0.03, abs(r) <= 0.03)
            for t, r in zip(t_list, residuals)]
    for i in range(1, len(residuals)):
        prev, cur = abs(residuals[i - 1]), abs(residuals[i])
        ratio = cur / prev
        # The residual falls like sqrt(t); [0.5, 0.9] is the band for halving times.
        lo, hi = (b * math.sqrt(2.0 * t_list[i] / t_list[i - 1]) for b in (0.5, 0.9))
        rows.append(_row("disk-residual-trend", t_list[i], ratio, f"[{lo:.3g},{hi:.3g}]",
                         lo <= ratio <= hi and cur < prev))
    # Annulus: the hole cancels the constant term.
    ann = spectral.annulus_spectrum(1.0, 2.0, 320.0)
    resid = spectral.theta_sum(ann, 0.05)[0] - _weyl(3.0 * math.pi, 6.0 * math.pi, 0.05)
    rows.append(_row("annulus-connectivity", 0.05, resid, 0.05, abs(resid) <= 0.05))
    # Unit square: corners shift the constant to 1/4 (informational).
    sq = spectral.rectangle_spectrum(1.0, 1.0, 500.0)
    corner = spectral.theta_sum(sq, 0.1)[0] - _weyl(1.0, 4.0, 0.1)
    rows.append(_row("square-corner-constant", 0.1, corner,
                     "0.250+-0.005 (informational: corners, not smooth)", None))
    return rows


def thermo_identities() -> list[dict]:
    """Identity and finite-difference rows; the random states are seeded."""
    rows = []
    rng = np.random.default_rng(20240817)
    for sigma_case, s_case, thermo_fn, order, states, (t_lo, t_hi), fill, containers \
            in _IDENTITIES:
        d = order.twice
        worst_sigma = worst_identity = 0.0
        for _ in range(states):
            kind = StatKind.BOSE if rng.random() < 0.5 else StatKind.FERMI
            # A lone container takes no draw, so the seeded stream stays fixed.
            container = (containers[rng.integers(len(containers))]
                         if len(containers) > 1 else containers[0])
            T = float(rng.uniform(t_lo, t_hi))
            lam = thermal_wavelength(T)
            # Area, or tube length then cross-section area, multiplied left
            # to right: u * (L * A) rounds N differently in 5 of the 15 tubes.
            volume = ((container.length_z, container.cross_section.area) if d == 3
                      else (container.area,))
            N = math.prod((float(rng.uniform(0.05, fill)), *volume)) / lam**d
            rep = thermo_fn(kind, container, N, T)
            ident = (math.prod((*volume, eval_h(kind, order, rep.state.z).value))
                     / (N * lam**d))
            sigma = getattr(rep.aux, f"sigma{d}")
            worst_sigma = max(worst_sigma, abs(sigma - ident) / ident)
            worst_identity = max(worst_identity,
                                 abs(rep.S - (rep.U - rep.F) / rep.state.T)
                                 / max(abs(rep.S), 1e-30))
        rows.append(_row(sigma_case, "", worst_sigma, 1e-8, worst_sigma < 1e-8))
        rows.append(_row(s_case, "", worst_identity, 1e-12, worst_identity < 1e-12))

    # dz/dT and C_V against centred finite differences (Richardson steps
    # 1e-4 and 1e-5 relative).
    dom = make_domain(Rectangle(2.0, 1.0))
    kind, N, T = StatKind.FERMI, 80.0, 900.0
    rep = thermo.thermo_2d(kind, dom, N, T)
    analytic = eos.dz_dT(kind, dom, rep.state)
    fd = _richardson(lambda temp: eos.solve_fugacity(kind, dom, N, temp)[0].z, T)
    rel = abs(analytic - fd) / abs(fd)
    rows.append(_row("dzdT-2d-fd", "", rel, 1e-6, rel < 1e-6))
    cv_fd = _richardson(lambda temp: thermo.thermo_2d(kind, dom, N, temp).U, T)
    rel_cv = abs(rep.C_V - cv_fd) / abs(cv_fd)
    rows.append(_row("CV-2d-fd", "", rel_cv, 1e-4, rel_cv < 1e-4))
    return rows


def _richardson(fn, x: float) -> float:
    """Centred difference with steps 1e-4 x and 1e-5 x, Richardson combined."""
    d = []
    for rel in (1e-4, 1e-5):
        h = rel * x
        d.append((fn(x + h) - fn(x - h)) / (2.0 * h))
    return (100.0 * d[1] - d[0]) / 99.0
