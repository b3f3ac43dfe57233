"""Exact Dirichlet spectra: the brute-force ground truth.

Single-particle energies solve (1/2) lap U + mu U = 0 with U = 0 on the
boundary, so in natural units the heat-trace time equals the inverse
temperature and

    rectangle a x b :  mu = (pi^2/2) (n^2/a^2 + m^2/b^2),  n, m >= 1
    disk R          :  mu = j_(nu,k)^2 / (2 R^2), multiplicity 2 for nu >= 1
    annulus Ri, Ro  :  mu = k^2/2 with J_nu(k Ri) Y_nu(k Ro) = J_nu(k Ro) Y_nu(k Ri)

Each builder hands its shape and an enumeration of (level, multiplicity)
pairs to one build path, which refuses non-finite cutoffs and counts above
``STATE_CAP`` before enumerating, merges levels equal within 1e-12 and checks
the count against a two-term Weyl band.  Every spectrum is complete below
its cutoff; the test-suite re-enumerates at half cutoff to certify it.  The
theta sum refuses to answer when its truncation bound exceeds 1e-6 of the
value: the oracle must be unimpeachable, so it never extrapolates.

Importing this module loads neither numpy nor scipy: numpy loads at the
first spectrum or query, and scipy, through ``bessel``, at the first disk
or annulus spectrum, so rectangle spectra never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .eos import bracketed_root
from .errors import (
    DomainError,
    NoBracketError,
    ResourceError,
    TruncationError,
)
from .geometry import Annulus, Disk, Rectangle, ShapeSpec, make_domain
from .statfun import StatKind

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Spectrum",
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
class Spectrum:
    """Sorted exact eigenvalues with multiplicities, complete below cutoff.

    ``tail_bound_coeff`` bounds the density of omitted states per unit mu
    above the cutoff (Weyl bulk density times a safety factor).
    """

    mu: np.ndarray
    multiplicity: np.ndarray
    cutoff: float
    tail_bound_coeff: float

    @property
    def count(self) -> int:
        return int(self.multiplicity.sum())


def _build(shape: ShapeSpec, cutoff: float, levels) -> Spectrum:
    """The one build path of every spectrum: ``levels()`` enumerates its
    (level, multiplicity) pairs below the cutoff once the cutoff and the
    STATE_CAP checks pass.  The Weyl band applies only where the bulk term
    is at least 4x the boundary term; near-threshold cutoffs of extreme
    geometries are covered by the test-suite's half-cutoff re-enumeration."""
    import numpy as np

    if not math.isfinite(cutoff):
        raise DomainError(f"spectrum cutoff must be finite, got {cutoff}")
    dom = make_domain(shape)
    bulk = dom.area * cutoff / (2.0 * math.pi)
    boundary = dom.perimeter * math.sqrt(2.0 * cutoff) / (4.0 * math.pi)
    weyl = bulk - boundary + (1.0 - dom.holes) / 6.0
    # A NaN count (both terms overflow) is refused too.
    if not weyl <= STATE_CAP:
        raise ResourceError(
            f"{type(shape).__name__.lower()} spectrum below mu={cutoff} implies ~"
            f"{weyl:.3g} states (cap {STATE_CAP})"
        )
    # Distinct exact levels can collide once rounded to float; merge within
    # 1e-12 relative so multiplicities stay meaningful.
    merged: list[tuple[float, int]] = []
    for m, g in sorted(levels(), key=lambda e: e[0]):
        if merged and m <= merged[-1][0] * (1.0 + 1e-12):
            merged[-1] = (merged[-1][0], merged[-1][1] + g)
        else:
            merged.append((m, g))
    spec = Spectrum(
        mu=np.array([e[0] for e in merged], dtype=float),
        multiplicity=np.array([e[1] for e in merged], dtype=np.int64),
        cutoff=float(cutoff),
        tail_bound_coeff=_TAIL_SAFETY * dom.area / (2.0 * math.pi),
    )
    band = max(12.0, 3.0 * math.sqrt(max(weyl, 1.0)))
    if bulk >= 4.0 * boundary and abs(spec.count - weyl) > band:
        raise ResourceError(
            f"enumerated {spec.count} states below mu={cutoff} but the Weyl "
            f"estimate is {weyl:.1f} (band +-{band:.1f}); enumeration is "
            "suspect"
        )
    return spec


# ---------------------------------------------------------------------------
# enumerations
# ---------------------------------------------------------------------------

def rectangle_spectrum(a: float, b: float, cutoff: float) -> Spectrum:
    """Exact rectangle spectrum below ``cutoff``.

    Degenerate levels are merged by exact integer keys.  Every float is a
    ratio of integers, a = pa/qa and b = pb/qb, so
    n^2/a^2 + m^2/b^2 = K/D with K = n^2 qa^2 pb^2 + m^2 qb^2 pa^2 and
    D = pa^2 pb^2: equal levels have equal K for any float sides, and the
    level is the correctly rounded K/D times pi^2/2.
    """
    if not (a > 0.0 and b > 0.0 and cutoff > 0.0):
        raise DomainError("rectangle_spectrum needs a, b, cutoff > 0")

    def levels():
        kappa = 2.0 * cutoff / math.pi**2  # n^2/a^2 + m^2/b^2 <= kappa
        n_max = int(math.floor(a * math.sqrt(kappa))) + 1
        m_max = int(math.floor(b * math.sqrt(kappa))) + 1
        (pa, qa), (pb, qb) = a.as_integer_ratio(), b.as_integer_ratio()
        pk, qk = kappa.as_integer_ratio()
        n_weight, m_weight = qa * qa * pb * pb, qb * qb * pa * pa
        denom = pa * pa * pb * pb
        # K/D <= pk/qk, i.e. K qk <= pk D, is K <= floor(pk D / qk) for integer K.
        k_max = pk * denom // qk
        keys: dict[int, int] = {}
        for n in range(1, n_max + 1):
            base = n * n * n_weight
            if base > k_max:
                break
            # kappa - n^2/a^2, rounded once as the float of its exact value.
            rest = (pk * denom - qk * base) / (qk * denom)
            m_hi = min(m_max, int(math.floor(math.sqrt(rest * b * b))) + 2)
            for m in range(1, m_hi + 1):
                key = base + m * m * m_weight
                if key > k_max:
                    break
                keys[key] = keys.get(key, 0) + 1
        return [((math.pi**2 / 2.0) * (k / denom), g) for k, g in keys.items()]

    return _build(Rectangle(a, b), cutoff, levels)


def disk_spectrum(R: float, cutoff: float) -> Spectrum:
    """Exact disk spectrum below ``cutoff`` from the zeros of J_nu."""
    if not (R > 0.0 and cutoff > 0.0):
        raise DomainError("disk_spectrum needs R, cutoff > 0")

    from .bessel import j_zeros

    def levels():
        jmax = R * math.sqrt(2.0 * cutoff)
        return [(z * z / (2.0 * R * R), 1 if nu == 0 else 2)
                for nu, zeros in enumerate(j_zeros(range(math.ceil(jmax)), jmax))
                for z in zeros.tolist()]

    return _build(Disk(R), cutoff, levels)


def annulus_spectrum(r_inner: float, r_outer: float, cutoff: float) -> Spectrum:
    """Exact annulus spectrum below ``cutoff`` from cross-product zeros."""
    if not (0.0 < r_inner < r_outer) or cutoff <= 0.0:
        raise DomainError("annulus_spectrum needs 0 < Ri < Ro and cutoff > 0")

    from .bessel import cross_product_zeros

    def levels():
        kmax = math.sqrt(2.0 * cutoff)
        # Scans start at 0.95 nu/r_outer, so no order from kmax r_outer/0.95 on
        # has a zero.
        orders = range(int(kmax * r_outer / 0.95) + 2)
        return [(k * k / 2.0, 1 if nu == 0 else 2)
                for nu, zeros in enumerate(cross_product_zeros(orders, r_inner, r_outer, kmax))
                for k in zeros.tolist()]

    return _build(Annulus(r_inner, r_outer), cutoff, levels)


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------

def theta_sum(spec: Spectrum, t: float) -> tuple[float, float]:
    """Heat trace sum(mult * exp(-mu t)) with a rigorous truncation bound.

    The heat-trace time t equals the inverse temperature in natural units
    and must be positive and finite.  The omitted tail is bounded by
    tail_bound_coeff * exp(-cutoff t)/t; the sum refuses (TruncationError)
    when that exceeds 1e-6 of the value.
    """
    import numpy as np

    t = float(t)
    if not (t > 0.0) or not math.isfinite(t):
        raise DomainError(f"heat-kernel time must be positive, got {t}")
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
    import numpy as np

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

    def occupancy(x: np.ndarray) -> np.ndarray:
        if bose:
            # z < exp(beta mu_1) guarantees x > 0 here.
            e = np.exp(-x)
            return e / (1.0 - e)
        # 1/(e^x + 1) via s = 1/(e^|x| + 1), overflow-free for any x.
        s = np.exp(-np.abs(x))
        s = s / (1.0 + s)
        return np.where(x > 0.0, s, 1.0 - s)

    def occupancy_sum(u: float) -> float:
        return float(np.dot(mult, occupancy(beta_mu - u)))

    # ln(sum/N) rather than sum - N: the log of the sum is close to linear in
    # u far below the ground state, so regula falsi converges from the wide
    # starting bracket.
    def excess(u: float) -> float:
        occ = occupancy_sum(u)
        return math.log(occ) - math.log(N) if occ > 0.0 else -math.inf

    if bose:
        u_hi = float(beta_mu[0]) - 1e-13 * max(1.0, float(beta_mu[0]))
        u_lo = u_hi - 1400.0
        f_hi = excess(u_hi)
        if f_hi < 0.0:
            raise NoBracketError(
                f"N = {N} is not reachable below the ground-state saturation "
                "of this finite spectrum"
            )
    else:
        u_lo, u_hi = -700.0, 700.0
        f_hi = excess(u_hi)
        if f_hi < 0.0:
            raise NoBracketError(
                f"N = {N} exceeds the capacity of the enumerated spectrum "
                f"at the fugacity cap (capacity ~{occupancy_sum(u_hi):.6g})"
            )
    f_lo = excess(u_lo)
    if f_lo > 0.0:
        raise NoBracketError(f"N = {N} is below the reachable range")

    # A zero target runs the bracket down to adjacent floats.
    u_star, _ = bracketed_root(excess, u_lo, f_lo, u_hi, f_hi, 0.0)
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
        ln_xi = -float(np.dot(mult, np.log1p(-np.exp(-x))))
    else:
        # ln(1 + e^-x) = log1p(e^-|x|) + max(-x, 0), overflow-free.
        softplus = np.log1p(np.exp(-np.abs(x))) + np.where(x < 0.0, -x, 0.0)
        ln_xi = float(np.dot(mult, softplus))
    U = float(np.dot(mult, spec.mu * occupancy(x)))
    return z, ln_xi, U
