"""Exact Dirichlet spectra: the brute-force ground truth.

Single-particle energies solve (1/2) lap U + mu U = 0 with U = 0 on the
boundary, so in natural units the heat-trace time equals the inverse
temperature and

    rectangle a x b :  mu = (pi^2/2) (n^2/a^2 + m^2/b^2),  n, m >= 1
    disk R          :  mu = j_(nu,k)^2 / (2 R^2), multiplicity 2 for nu >= 1
    annulus Ri, Ro  :  mu = k^2/2 with J_nu(k Ri) Y_nu(k Ro) = J_nu(k Ro) Y_nu(k Ri)

Every spectrum is complete below its cutoff; completeness is certified by
re-enumeration at half cutoff plus a Weyl-count consistency band.  The
theta sum refuses to answer when its truncation bound exceeds 1e-6 of the
value: the oracle must be unimpeachable, so it never extrapolates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import brentq

from .bessel import cross_product_zeros_up_to, j_zeros_up_to
from .errors import (
    DomainError,
    NoBracketError,
    ResourceError,
    TruncationError,
)
from .geometry import Annulus, Disk, Rectangle, ShapeSpec, make_domain
from .statfun import StatKind

__all__ = [
    "Spectrum",
    "ThetaQuery",
    "STATE_CAP",
    "rectangle_spectrum",
    "disk_spectrum",
    "annulus_spectrum",
    "theta_sum",
    "exact_thermo",
]

#: Enumerations implying more states than this are refused.
STATE_CAP = 10**7

#: Safety factor on the Weyl bulk density used for the truncation bound.
_TAIL_SAFETY = 1.5


@dataclass(frozen=True)
class ThetaQuery:
    """Heat-trace time; equals the inverse temperature in natural units."""

    t: float

    def __post_init__(self):
        if not (self.t > 0.0) or not math.isfinite(self.t):
            raise DomainError(f"heat-kernel time must be positive, got {self.t}")


@dataclass(frozen=True)
class Spectrum:
    """Sorted exact eigenvalues with multiplicities, complete below cutoff.

    ``tail_bound_coeff`` bounds the density of omitted states per unit mu
    above the cutoff (Weyl bulk density times a safety factor).
    """

    mu: np.ndarray
    multiplicity: np.ndarray
    cutoff: float
    shape: ShapeSpec
    tail_bound_coeff: float

    @property
    def count(self) -> int:
        return int(self.multiplicity.sum())


def _weyl_count(shape: ShapeSpec, mu: float) -> float:
    """Two-term Weyl estimate of the number of states with eigenvalue <= mu."""
    dom = make_domain(shape)
    return (
        dom.area * mu / (2.0 * math.pi)
        - dom.perimeter * math.sqrt(2.0 * mu) / (4.0 * math.pi)
        + (1.0 - dom.holes) / 6.0
    )


def _certify_count(shape: ShapeSpec, cutoff: float, count: int) -> None:
    """Sanity band against the two-term Weyl count.

    Only applied where the expansion is meaningful (bulk term at least 4x
    the boundary term); near-threshold cutoffs of extreme geometries are
    covered by the half-cutoff re-enumeration check in the test-suite
    instead.
    """
    dom = make_domain(shape)
    bulk = dom.area * cutoff / (2.0 * math.pi)
    boundary = dom.perimeter * math.sqrt(2.0 * cutoff) / (4.0 * math.pi)
    if bulk < 4.0 * boundary:
        return
    est = _weyl_count(shape, cutoff)
    band = max(12.0, 3.0 * math.sqrt(max(est, 1.0)))
    if abs(count - est) > band:
        raise ResourceError(
            f"enumerated {count} states below mu={cutoff} but the Weyl "
            f"estimate is {est:.1f} (band +-{band:.1f}); enumeration is "
            "suspect"
        )


def _finalize(shape, entries, cutoff) -> Spectrum:
    entries.sort(key=lambda e: e[0])
    # Distinct exact levels can collide once rounded to float; merge within
    # 1e-12 relative so multiplicities stay meaningful.
    merged: list[tuple[float, int]] = []
    for m, g in entries:
        if merged and m <= merged[-1][0] * (1.0 + 1e-12):
            merged[-1] = (merged[-1][0], merged[-1][1] + g)
        else:
            merged.append((m, g))
    mu = np.array([e[0] for e in merged], dtype=float)
    mult = np.array([e[1] for e in merged], dtype=np.int64)
    dom = make_domain(shape)
    spec = Spectrum(
        mu=mu,
        multiplicity=mult,
        cutoff=float(cutoff),
        shape=shape,
        tail_bound_coeff=_TAIL_SAFETY * dom.area / (2.0 * math.pi),
    )
    _certify_count(shape, cutoff, spec.count)
    return spec


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------

def rectangle_spectrum(a: float, b: float, cutoff: float,
                       state_cap: int = STATE_CAP) -> Spectrum:
    """Exact rectangle spectrum below ``cutoff``.

    Degenerate levels are merged by exact rational arithmetic on
    n^2/a^2 + m^2/b^2 (every float is a rational, so the comparison is
    exact for any float sides).
    """
    if not (a > 0.0 and b > 0.0 and cutoff > 0.0):
        raise DomainError("rectangle_spectrum needs a, b, cutoff > 0")
    kappa = 2.0 * cutoff / math.pi**2  # n^2/a^2 + m^2/b^2 <= kappa
    n_max = int(math.floor(a * math.sqrt(kappa))) + 1
    m_max = int(math.floor(b * math.sqrt(kappa))) + 1
    if _weyl_count(Rectangle(a, b), cutoff) > state_cap:
        raise ResourceError(
            f"rectangle spectrum below mu={cutoff} implies ~"
            f"{_weyl_count(Rectangle(a, b), cutoff):.3g} states (cap {state_cap})"
        )
    inv_a2 = 1 / Fraction(a) ** 2
    inv_b2 = 1 / Fraction(b) ** 2
    kappa_frac = Fraction(kappa)

    levels: dict[Fraction, int] = {}
    for n in range(1, n_max + 1):
        base = n * n * inv_a2
        if base > kappa_frac:
            break
        rest = kappa_frac - base
        m_hi = min(m_max, int(math.floor(math.sqrt(float(rest) * b * b))) + 2)
        for m in range(1, m_hi + 1):
            key = base + m * m * inv_b2
            if key > kappa_frac:
                break
            levels[key] = levels.get(key, 0) + 1
    entries = [((math.pi**2 / 2.0) * float(k), g) for k, g in levels.items()]
    return _finalize(Rectangle(a, b), entries, cutoff)


def disk_spectrum(R: float, cutoff: float, state_cap: int = STATE_CAP) -> Spectrum:
    """Exact disk spectrum below ``cutoff`` from in-module Bessel zeros."""
    if not (R > 0.0 and cutoff > 0.0):
        raise DomainError("disk_spectrum needs R, cutoff > 0")
    if _weyl_count(Disk(R), cutoff) > state_cap:
        raise ResourceError(f"disk spectrum below mu={cutoff} exceeds cap {state_cap}")
    jmax = R * math.sqrt(2.0 * cutoff)
    entries: list[tuple[float, int]] = []
    nu = 0
    while nu < jmax:
        zeros = j_zeros_up_to(nu, jmax)
        if not zeros:
            break
        mult = 1 if nu == 0 else 2
        entries.extend((z * z / (2.0 * R * R), mult) for z in zeros)
        nu += 1
    return _finalize(Disk(R), entries, cutoff)


def annulus_spectrum(r_inner: float, r_outer: float, cutoff: float,
                     state_cap: int = STATE_CAP) -> Spectrum:
    """Exact annulus spectrum below ``cutoff`` from cross-product zeros."""
    if not (0.0 < r_inner < r_outer) or cutoff <= 0.0:
        raise DomainError("annulus_spectrum needs 0 < Ri < Ro and cutoff > 0")
    if _weyl_count(Annulus(r_inner, r_outer), cutoff) > state_cap:
        raise ResourceError(f"annulus spectrum below mu={cutoff} exceeds cap {state_cap}")
    kmax = math.sqrt(2.0 * cutoff)
    entries: list[tuple[float, int]] = []
    nu = 0
    while True:
        zeros = cross_product_zeros_up_to(nu, r_inner, r_outer, kmax)
        if not zeros:
            break
        mult = 1 if nu == 0 else 2
        entries.extend((k * k / 2.0, mult) for k in zeros)
        nu += 1
    return _finalize(Annulus(r_inner, r_outer), entries, cutoff)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def theta_sum(spec: Spectrum, q: ThetaQuery | float) -> tuple[float, float]:
    """Heat trace sum(mult * exp(-mu t)) with a rigorous truncation bound.

    The omitted tail is bounded by tail_bound_coeff * exp(-cutoff t)/t; the
    sum refuses (TruncationError) when that exceeds 1e-6 of the value.
    """
    t = q.t if isinstance(q, ThetaQuery) else ThetaQuery(float(q)).t
    value = float(np.sum(spec.multiplicity * np.exp(-spec.mu * t)))
    bound = spec.tail_bound_coeff * math.exp(-spec.cutoff * t) / t
    if bound > 1e-6 * value:
        raise TruncationError(
            f"theta truncation bound {bound:.3e} exceeds 1e-6 of the value "
            f"{value:.6e}; raise the cutoff for t={t}"
        )
    return value, bound


def exact_thermo(stat: StatKind, spec: Spectrum, N: float, T: float
                 ) -> tuple[float, float, float]:
    """Exact (z, ln Xi, U) from the enumerated spectrum.

    Requires cutoff >= 40 T so the omitted occupancies are ~e^-40.  The
    fugacity is solved from sum(mult / (exp(mu/T)/z -+ 1)) = N; for bosons z
    may exceed 1 here (the exact bound is z < exp(mu_1/T)), which is exactly
    the regime the asymptotic model refuses.
    """
    if not (N > 0.0 and T > 0.0):
        raise DomainError("exact_thermo needs N, T > 0")
    # tail_bound_coeff == 0 declares a complete finite spectrum (no omitted
    # states), for which the truncation guards are meaningless.
    truncated = spec.tail_bound_coeff > 0.0
    if truncated and spec.cutoff < 40.0 * T:
        raise TruncationError(
            f"spectrum cutoff {spec.cutoff:.6g} is below 40 T = {40 * T:.6g}; "
            "occupancies are not negligible at the cutoff"
        )
    beta_mu = spec.mu / T
    mult = spec.multiplicity.astype(float)
    bose = stat is StatKind.BOSE

    def fermi_occ(x: np.ndarray) -> np.ndarray:
        # 1/(e^x + 1) via s = 1/(e^|x| + 1), overflow-free for any x.
        s = np.exp(-np.abs(x))
        s = s / (1.0 + s)
        return np.where(x > 0.0, s, 1.0 - s)

    def occupancy_sum(u: float) -> float:
        x = beta_mu - u
        if bose:
            # z < exp(beta mu_1) guarantees x > 0 here.
            e = np.exp(-x)
            occ = e / (1.0 - e)
        else:
            occ = fermi_occ(x)
        return float(np.dot(mult, occ))

    if bose:
        u_hi = float(beta_mu[0]) - 1e-13 * max(1.0, float(beta_mu[0]))
        u_lo = u_hi - 1400.0
        if occupancy_sum(u_hi) < N:
            raise NoBracketError(
                f"N = {N} is not reachable below the ground-state saturation "
                "of this finite spectrum"
            )
    else:
        u_lo, u_hi = -700.0, 700.0
        if occupancy_sum(u_hi) < N:
            raise NoBracketError(
                f"N = {N} exceeds the capacity of the enumerated spectrum "
                f"at the fugacity cap (capacity ~{occupancy_sum(u_hi):.6g})"
            )
    if occupancy_sum(u_lo) > N:
        raise NoBracketError(f"N = {N} is below the reachable range")

    u_star = brentq(lambda u: occupancy_sum(u) - N, u_lo, u_hi,
                    xtol=1e-14, rtol=8.9e-16, maxiter=300)
    z = math.exp(u_star)

    # For fermions a large chemical potential shifts the occupancy tail; the
    # cutoff must clear it, not just 40 T.
    if truncated and not bose and float(beta_mu[-1]) - u_star < 35.0:
        raise TruncationError(
            f"cutoff {spec.cutoff:.6g} is only {float(beta_mu[-1]) - u_star:.1f} "
            "thermal units above the chemical potential; enlarge the spectrum"
        )

    x = beta_mu - u_star
    if bose:
        e = np.exp(-x)
        ln_xi = -float(np.dot(mult, np.log1p(-e)))
        occ = e / (1.0 - e)
    else:
        # ln(1 + e^-x) = log1p(e^-|x|) + max(-x, 0), overflow-free.
        softplus = np.log1p(np.exp(-np.abs(x))) + np.where(x < 0.0, -x, 0.0)
        ln_xi = float(np.dot(mult, softplus))
        occ = fermi_occ(x)
    U = float(np.dot(mult, spec.mu * occ))
    return z, ln_xi, U
