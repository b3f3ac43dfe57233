"""Grand potentials, particle-number equations and the fugacity solver.

A container enters only through the Weyl weights of its state sum at
thermal wavelength lam and an order shift.  A planar domain (area O,
boundary length L, holes r) has weights (O/lam^2, -L/(4 lam), (1-r)/6) and
shift 0; a uniform tube of length Lz over that cross-section has the same
weights times Lz/lam and shift 1/2.  ln Xi, N and z dN/dz are then one
weighted sum at order offsets +1, 0 and -1:

    sum_i  w_i h_(s_i + shift + offset)(z),   (s_1, s_2, s_3) = (1, 1/2, 0)

so that in the plane

    ln Xi = (O/lam^2) h_2(z)  - (L/(4 lam)) h_3/2(z) + ((1-r)/6) h_1(z)
    N     = (O/lam^2) h_1(z)  - (L/(4 lam)) h_1/2(z) + ((1-r)/6) h_0(z)

and in the tube

    ln Xi = (Lz O/lam^3) h_5/2 - (Lz L/(4 lam^2)) h_2 + ((1-r)/6)(Lz/lam) h_3/2
    N     = (Lz O/lam^3) h_3/2 - (Lz L/(4 lam^2)) h_1 + ((1-r)/6)(Lz/lam) h_1/2.

``solve_fugacity`` brackets the root of the particle-number equation by a
geometric walk, which also decides the branch and the refusals, polishes
it with ``bracketed_root`` (regula falsi with the Anderson-Bjorck step)
and reports how trustworthy the asymptotic model is at the solution
(wavelength/boundary/topology ratios, Fermi z > 1 flag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AccuracyError,
    DomainError,
    ModelError,
    NoBracketError,
    NonMonotoneError,
)
from .geometry import PlanarDomain, TubeDomain, thermal_wavelength
from .statfun import FERMI_Z_MAX, Order, StatKind, h_orders

__all__ = [
    "GasState",
    "ValidityReport",
    "BOSE_CONDENSATION_MARGIN",
    "WARN_WAVELENGTH_RATIO",
    "WARN_BOUNDARY_RATIO",
    "log_grand_potential",
    "particle_number",
    "bracketed_root",
    "solve_fugacity",
    "pressure",
]

#: Bose fugacities are refused within this margin of the condensation point.
BOSE_CONDENSATION_MARGIN = 1e-12

#: Default validity thresholds (tunable per call and from the CLI).
WARN_WAVELENGTH_RATIO = 0.2
WARN_BOUNDARY_RATIO = 0.5


@dataclass(frozen=True)
class GasState:
    """A solved thermodynamic state point.

    The particle-number equation holds at (z, lam, N) within the solver
    tolerance; lam equals thermal_wavelength(T) exactly.
    """

    z: float
    lam: float
    T: float
    N: float
    stat: StatKind


@dataclass(frozen=True)
class ValidityReport:
    """How far inside the asymptotic validity region a solution sits.

    ratio_wavelength = lam / sqrt(area); ratio_boundary and ratio_topology
    compare the magnitude of the correction terms against the bulk term of
    the particle-number equation at the solution.
    """

    ratio_wavelength: float
    ratio_boundary: float
    ratio_topology: float
    fermi_extension_used: bool
    warnings: tuple[str, ...]


def _model(container: PlanarDomain | TubeDomain, lam: float):
    """Weyl weights (bulk, edge, hole) at lam, twice the order shift, and
    the cross-section area.

    A tube is its cross-section with every weight times Lz/lam and every
    order half a step up.
    """
    if isinstance(container, TubeDomain):
        weights, shift, area = _model(container.cross_section, lam)
        axial = container.length_z / lam
        return tuple(axial * w for w in weights), shift + 1, area
    weights = (
        container.area / lam**2,
        -0.25 * container.perimeter / lam,
        (1.0 - container.holes) / 6.0,
    )
    return weights, 0, container.area


#: The orders of the three terms of a state sum, by twice the shift and the
#: offset: (1 + offset, 1/2 + offset, offset), raised by shift/2.
_ORDERS = {
    (shift, offset): tuple(Order(2 + 2 * offset + shift - k) for k in range(3))
    for shift in (0, 1)
    for offset in (-1, 0, 1)
}


def _h_table(stat, z, orders, z_max=FERMI_Z_MAX):
    """{order: h_order(z)} from one h_orders call."""
    return {o: fv.value for o, fv in zip(orders, h_orders(stat, z, orders, z_max))}


def _terms(weights, shift, offset, h):
    """The three terms weight_i * h_(order_i)(z), with h from a table.

    Offset +1 gives ln Xi, 0 gives N and -1 gives z dN/dz (by the
    order-lowering property z h_s' = h_(s-1)).  A zero weight gives 0.0 and
    needs no table entry.
    """
    return tuple(w * h[o] if w != 0.0 else 0.0 for w, o in zip(weights, _ORDERS[shift, offset]))


def _state_sum(stat, weights, shift, offset, z_max=FERMI_Z_MAX, abs_budget=None):
    """z -> the three terms weight_i * h_(order_i)(z) of one state sum, each
    evaluation one h_orders call.

    When ``abs_budget`` is given, each series evaluation only needs
    budget/(4*|weight|) of tail accuracy for the weighted sum to stay within
    the budget; near the Bose condensation point this is what keeps the
    series length finite.  Zero weights are skipped outright.
    """
    live = [i for i, w in enumerate(weights) if w != 0.0]
    orders = [_ORDERS[shift, offset][i] for i in live]
    tails = None
    if abs_budget is not None:
        tails = [max(1e-15, min(abs_budget / (4.0 * abs(weights[i])), 1e-6)) for i in live]

    def terms(z: float) -> tuple[float, float, float]:
        out = [0.0, 0.0, 0.0]
        for i, fv in zip(live, h_orders(stat, z, orders, z_max, tails)):
            out[i] = weights[i] * fv.value
        return tuple(out)

    return terms


def _weighted_terms(stat, weights, shift, offset, z, z_max=FERMI_Z_MAX, abs_budget=None):
    """The three terms of one state sum at z; see ``_state_sum``."""
    return _state_sum(stat, weights, shift, offset, z_max, abs_budget)(z)


def _nonnegative(label, value, lam, z):
    if value < 0.0:
        raise ModelError(
            f"{label} = {value:.6g} < 0 at lambda={lam:.6g}, z={z:.6g}; "
            "corrections overwhelm the bulk term"
        )
    return value


def _nonnegative_sum(label, stat, container, lam, z, offset):
    weights, shift, _ = _model(container, lam)
    return _nonnegative(label, sum(_weighted_terms(stat, weights, shift, offset, z)), lam, z)


def log_grand_potential(stat: StatKind, container: PlanarDomain | TubeDomain,
                        lam: float, z: float) -> float:
    """ln Xi: orders 2, 3/2, 1 for a planar domain, 5/2, 2, 3/2 for a tube."""
    return _nonnegative_sum("ln Xi", stat, container, lam, z, 1)


def particle_number(stat: StatKind, container: PlanarDomain | TubeDomain,
                    lam: float, z: float) -> float:
    """N(z): orders 1, 1/2, 0 for a planar domain, 3/2, 1, 1/2 for a tube."""
    return _nonnegative_sum("N(z)", stat, container, lam, z, 0)


# ---------------------------------------------------------------------------
# fugacity solver
# ---------------------------------------------------------------------------

def bracketed_root(f, lo: float, f_lo: float, hi: float, f_hi: float,
                   target: float) -> tuple[float, float]:
    """Regula falsi for f on [lo, hi], where f(lo) and f(hi) differ in sign.

    When the same end of the bracket moves twice in a row, the value kept
    at the other end is scaled down (Anderson and Bjorck, BIT 13 (1973)
    253), so neither end stalls.  Every third step bisects unless the two
    steps before it have halved the bracket, so the loop ends within about
    three times the bisection count.

    Returns (x, f(x)) at the first point with |f(x)| <= target.  Once the
    bracket has collapsed to adjacent floats it returns the endpoint with
    the smaller |f|, which the caller must check.
    """
    if abs(f_lo) <= target or abs(f_hi) <= target:
        return (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    side = steps = 0
    width = hi - lo
    while True:
        x = hi - f_hi * (hi - lo) / (f_hi - f_lo)
        steps += 1
        if steps == 3:
            if hi - lo > 0.5 * width:
                x = lo + 0.5 * (hi - lo)
            steps, width = 0, hi - lo
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
            if not lo < x < hi:
                return (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
        fx = f(x)
        if abs(fx) <= target:
            return x, fx
        if (fx < 0.0) == (f_lo < 0.0):
            if side == 1:
                m = 1.0 - fx / f_lo
                f_hi *= m if m > 0.0 else 0.5
            lo, f_lo = x, fx
            side = 1
        else:
            if side == -1:
                m = 1.0 - fx / f_hi
                f_lo *= m if m > 0.0 else 0.5
            hi, f_hi = x, fx
            side = -1


def solve_fugacity(
    stat: StatKind,
    container: PlanarDomain | TubeDomain,
    N: float,
    T: float,
    tol: float = 1e-12,
    *,
    z_max: float = FERMI_Z_MAX,
    warn_wavelength: float = WARN_WAVELENGTH_RATIO,
    warn_boundary: float = WARN_BOUNDARY_RATIO,
) -> tuple[GasState, ValidityReport]:
    """Solve the particle-number equation for the fugacity z.

    Parameters
    ----------
    stat, container, N, T :
        Statistics, geometry (planar domain or tube), particle count and
        temperature.
    tol :
        Relative residual target: |N(z) - N| <= tol * N at the returned z,
        up to the certified error of the h values that N(z) sums.
    z_max, warn_wavelength, warn_boundary :
        Fermi fugacity cap and validity warning thresholds.

    Returns
    -------
    (GasState, ValidityReport)

    Raises
    ------
    NoBracketError
        Bose: N exceeds the maximum particle number reachable before the
        condensation margin (the model excludes condensation).  Fermi: N is
        unreachable below the fugacity cap.
    NonMonotoneError
        The particle-number equation is decreasing at the root; the
        corrections are too large for the model to be trusted here.
    AccuracyError
        The bracket shrank to adjacent floats before the residual met the
        target.
    """
    if not (N > 0.0) or not math.isfinite(N):
        raise DomainError(f"particle number must be positive, got {N}")
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    lam = thermal_wavelength(T)
    bose = stat is StatKind.BOSE
    weights, shift, area = _model(container, lam)

    # The residual only needs a fraction of tol*N absolute accuracy; the
    # per-term budget keeps the series length finite near the Bose
    # condensation point where the default 1e-12 tail target would blow the
    # term cap.
    budget = 0.25 * tol * N

    n_terms = _state_sum(stat, weights, shift, 0, z_max, budget)
    # z and the terms of the latest residual, kept for the validity ratios.
    last = [None, ()]

    def residual(z: float) -> float:
        terms = n_terms(z)
        last[:] = z, terms
        return sum(terms) - N

    # Boltzmann seed: N(z) ~ z * (states within lambda), clipped into range.
    seed = N / weights[0] if weights[0] > 0 else 0.5
    z_cap = 1.0 - BOSE_CONDENSATION_MARGIN if bose else z_max
    z0 = min(max(seed, 1e-280), 0.5 if bose else z_cap / 2.0)

    # Walk geometrically until the residual changes sign.  For Bose the walk
    # approaches the condensation cap as z -> 1 - (1-z)/2; a residual that
    # starts decreasing again while still negative means the equation peaked
    # below N, i.e. near-condensation territory the model refuses.
    def residual_guarded(z: float) -> float:
        # Approaching the Bose condensation point the series length needed to
        # certify h_sigma blows up; a state that close to z = 1 is refused as
        # near-condensation rather than extrapolated.
        try:
            return residual(z)
        except AccuracyError as exc:
            if bose and z > 0.99:
                raise NoBracketError(
                    f"z = {z:.12g} is too close to the Bose condensation point "
                    "to certify the particle-number equation; near-condensation "
                    "states are outside the model"
                ) from exc
            raise

    lo = hi = z0
    f_lo = f_hi = f0 = residual_guarded(z0)
    if f0 < 0.0:
        prev = f0
        while True:
            nxt = min(1.0 - (1.0 - lo) / 2.0 if bose else lo * 2.0, z_cap)
            f_nxt = residual_guarded(nxt)
            if f_nxt >= 0.0:
                hi, f_hi = nxt, f_nxt
                break
            if bose and f_nxt < prev:
                raise NoBracketError(
                    f"N = {N:.6g} exceeds the maximum particle number reachable "
                    f"before the condensation margin (peak residual {prev + N:.6g}); "
                    "near-condensation states are outside the model"
                )
            if nxt >= z_cap:
                if bose:
                    raise NoBracketError(
                        f"N = {N:.6g} is not reachable below the Bose condensation "
                        f"margin z <= {z_cap}"
                    )
                raise NoBracketError(
                    f"N = {N:.6g} is not reachable below the Fermi fugacity cap {z_cap}"
                )
            lo, f_lo, prev = nxt, f_nxt, f_nxt
    elif f0 > 0.0:
        while True:
            nxt = lo / 4.0
            if nxt <= 1e-300:
                raise NoBracketError(
                    f"residual never changes sign down to z = {nxt:.3g}; "
                    "no physical solution"
                )
            f_nxt = residual_guarded(nxt)
            if f_nxt <= 0.0:
                lo, f_lo = nxt, f_nxt
                break
            hi, f_hi = nxt, f_nxt

    z_star, res = bracketed_root(residual, lo, f_lo, hi, f_hi, tol * N)
    if not abs(res) <= tol * N:
        raise AccuracyError(
            f"fugacity solver stalled at residual {res:.3e} (target {tol * N:.3e})",
            achieved=abs(res),
        )

    # Branch check: the analytic slope must be positive at the root.  Only
    # its sign matters, so a coarse budget (error <= 3/4 of it) is tried
    # first and tightened only when the sign is not yet certain.  A slope
    # that cannot be certified this close to the Bose condensation point is
    # refused the same way a non-monotone one is.
    def slope(abs_budget: float) -> float:
        return sum(_weighted_terms(stat, weights, shift, -1, z_star, z_max, abs_budget))

    try:
        deriv_budget = max(N, 16.0 * budget)
        deriv = slope(deriv_budget)
        if abs(deriv) <= deriv_budget:
            deriv = slope(max(0.05 * abs(deriv), 4.0 * budget))
    except AccuracyError as exc:
        raise NonMonotoneError(
            f"cannot certify that the particle number is increasing at "
            f"z = {z_star:.6g}; the model is not trustworthy here"
        ) from exc
    if deriv <= 0.0:
        raise NonMonotoneError(
            f"particle number is not increasing at z = {z_star:.6g}; "
            "boundary/topology corrections dominate and the model is invalid here"
        )

    if last[0] != z_star:
        residual(z_star)
    bulk, boundary, topology = last[1]
    ratio_wavelength = lam / math.sqrt(area)
    ratio_boundary = abs(boundary) / abs(bulk) if bulk != 0.0 else math.inf
    ratio_topology = abs(topology) / abs(bulk) if bulk != 0.0 else math.inf
    # A few ulps of slack so a root at exactly z = 1 does not flag.
    fermi_ext = (stat is StatKind.FERMI) and z_star > 1.0 + 8e-15

    messages: list[str] = []
    if ratio_wavelength > warn_wavelength:
        messages.append(
            f"wavelength: lambda/sqrt(area) = {ratio_wavelength:.4g} exceeds "
            f"threshold {warn_wavelength:.4g}"
        )
    if ratio_boundary > warn_boundary:
        messages.append(
            f"boundary: |boundary term|/|bulk term| = {ratio_boundary:.4g} exceeds "
            f"threshold {warn_boundary:.4g}"
        )
    if fermi_ext:
        messages.append(
            f"fermi-extension: z = {z_star:.6g} > 1 relies on the heuristic "
            "extension of the boundary/connectivity terms"
        )

    state = GasState(z=z_star, lam=lam, T=T, N=N, stat=stat)
    report = ValidityReport(
        ratio_wavelength=ratio_wavelength,
        ratio_boundary=ratio_boundary,
        ratio_topology=ratio_topology,
        fermi_extension_used=fermi_ext,
        warnings=tuple(messages),
    )
    return state, report


def pressure(stat: StatKind, container: PlanarDomain | TubeDomain, state: GasState) -> float:
    """Pressure from P * measure = T * ln Xi (k_B = 1).

    For a planar domain the measure is the area (spreading pressure); for a
    tube it is the volume length_z * area.  Each tube adds one dimension and
    one half-order step, so the measure is the bulk weight times
    lam^(2 + shift).
    """
    weights, shift, _ = _model(container, state.lam)
    orders = [o for w, o in zip(weights, _ORDERS[shift, 1]) if w != 0.0]
    return _pressure(container, state, _h_table(stat, state.z, orders))


def _pressure(container, state: GasState, h) -> float:
    """pressure() from a table {order: h value} at state.z that holds the
    ln Xi orders."""
    weights, shift, _ = _model(container, state.lam)
    ln_xi = _nonnegative("ln Xi", sum(_terms(weights, shift, 1, h)), state.lam, state.z)
    return state.T * ln_xi / (weights[0] * state.lam ** (2 + shift))
