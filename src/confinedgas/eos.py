"""Grand potentials, particle-number equations and the fugacity solver.

A container enters only through the Weyl weights of its state sum at
thermal wavelength lam and an order shift.  A planar domain (area O,
boundary length L, holes r) has weights (O/lam^2, -L/(4 lam), (1-r)/6),
its ``geometry.weyl_terms``, and shift 0; a uniform tube of length Lz over
that cross-section has the same weights times Lz/lam and shift 1/2.  ln Xi,
N and z dN/dz are then one weighted sum at order offsets +1, 0 and -1:

    sum_i  w_i h_(s_i + shift + offset)(z),   (s_1, s_2, s_3) = (1, 1/2, 0)

so that in the plane

    ln Xi = (O/lam^2) h_2(z)  - (L/(4 lam)) h_3/2(z) + ((1-r)/6) h_1(z)
    N     = (O/lam^2) h_1(z)  - (L/(4 lam)) h_1/2(z) + ((1-r)/6) h_0(z)

and in the tube

    ln Xi = (Lz O/lam^3) h_5/2 - (Lz L/(4 lam^2)) h_2 + ((1-r)/6)(Lz/lam) h_3/2
    N     = (Lz O/lam^3) h_3/2 - (Lz L/(4 lam^2)) h_1 + ((1-r)/6)(Lz/lam) h_1/2.

Each weight scales as a fixed power of T, so ``dz_dT`` and a row's U, F, S
and C_V (``_thermo``) are sums over the same terms, exact within the model.

``solve_fugacity`` seeds the particle-number equation by inverting its bulk
term (Boltzmann for Bose; exactly in the plane and by the degenerate limit
in a tube for Fermi).  Fermi then solves by safeguarded Newton in u = ln z:
each step is one h_orders call that gives N and z dN/dz = dN/du together,
and a step that leaves the sign bracket bisects it in u.  Bose brackets the
root by a walk that also decides the refusals (geometric in z and 1 - z)
and polishes it with ``bracketed_root`` (regula falsi with the
Anderson-Bjorck step), which also finishes a Fermi bracket that Newton
does not.  The solver refuses a root it cannot resolve because the
corrections cancel the bulk term beyond the certified error of N(z)
(``ModelError``), checks the branch with a z dN/dz whose certified error
settles its sign (for Fermi, the one of the final Newton evaluation), and
reports how trustworthy the asymptotic model is at the solution
(wavelength/boundary/topology ratios, tube aspect, Fermi z > 1 flag).
A private ``_solve`` also returns the h values it evaluated at z*, which
the thermodynamic rows reuse.
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
    SingularityError,
)
from .geometry import PlanarDomain, TubeDomain, thermal_wavelength, weyl_terms
from .statfun import ALL_ORDERS, FERMI_Z_MAX, StatKind, h_orders

__all__ = [
    "GasState",
    "ValidityReport",
    "BOSE_CONDENSATION_MARGIN",
    "WARN_WAVELENGTH_RATIO",
    "WARN_BOUNDARY_RATIO",
    "WARN_ASPECT_RATIO",
    "log_grand_potential",
    "particle_number",
    "bracketed_root",
    "solve_fugacity",
    "pressure",
    "dz_dT",
]

#: Bose fugacities are refused within this margin of the condensation point.
#: The series kernel raises AccuracyError past about 1 - z = 1e-5; an expansion
#: of h about z = 1 (ROADMAP item 2) is what lets the solver reach this margin.
BOSE_CONDENSATION_MARGIN = 1e-12

#: Validity warning thresholds: lam/sqrt(area), |boundary term|/|bulk term|
#: and, for tubes, a length_z/sqrt(area) below which a tube is flagged.
WARN_WAVELENGTH_RATIO = 0.2
WARN_BOUNDARY_RATIO = 0.5
WARN_ASPECT_RATIO = 100.0

_EPS = math.ulp(1.0)

#: The Fermi Newton step in ln z is capped at ln 4, and a sign bracket takes
#: at most this many steps before ``bracketed_root`` finishes it.
_LN4 = math.log(4.0)
_NEWTON_STEPS = 8


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

    A planar domain's weights are its ``weyl_terms``; a tube is its
    cross-section with every weight times Lz/lam and every order half a
    step up.  A weight that overflows is refused.
    """
    tube = isinstance(container, TubeDomain)
    dom = container.cross_section if tube else container
    weights = weyl_terms(dom, lam)
    if tube:
        axial = container.length_z / lam
        weights = tuple(axial * w for w in weights)
    if not all(map(math.isfinite, weights)):
        raise ModelError(
            f"Weyl weights {weights} at lambda={lam:.6g} are not finite; the "
            "container is too large for double precision"
        )
    return weights, int(tube), dom.area


#: The orders of the three terms of a state sum, by twice the shift and the
#: offset: (1 + offset, 1/2 + offset, offset), raised by shift/2.  They are
#: the module's Order constants, so that table lookups match by identity.
_ORDERS = {
    (shift, offset): tuple(ALL_ORDERS[4 + 2 * offset + shift - k] for k in range(3))
    for shift in (0, 1)
    for offset in (-1, 0, 1)
}


def _h_table(stat, z, orders):
    """{order: h_order(z)} from one h_orders call."""
    return {o: fv.value for o, fv in zip(orders, h_orders(stat, z, orders))}


def _terms(weights, shift, offset, h):
    """The three terms weight_i * h_(order_i)(z), with h from a table.

    Offset +1 gives ln Xi, 0 gives N and -1 gives z dN/dz (by the
    order-lowering property z h_s' = h_(s-1)).  A zero weight gives 0.0 and
    needs no table entry.
    """
    return tuple(w * h[o] if w != 0.0 else 0.0 for w, o in zip(weights, _ORDERS[shift, offset]))


def _state_sums(stat, weights, shift, budgets):
    """(orders, evaluate): the state sums at the offsets of ``budgets``, all
    from one h_orders call over ``orders``.

    ``evaluate(z)`` returns (sums, values): ``sums`` maps each offset to
    (terms, error), the three terms weight_i * h_(order_i)(z) and the
    certified error of their sum, sum_i |weight_i| * (bound_i + 4 eps |h_i|),
    which covers the h bounds and the rounding of the weighted sum;
    ``values`` holds the FunctionValue of each of ``orders``.

    ``budgets`` maps each offset to an absolute budget or None.  Under a
    budget each series evaluation only needs budget/(4*|weight|) of tail
    accuracy for the weighted sum to stay within it; near the Bose
    condensation point this is what keeps the series length finite.  None
    keeps the 1e-12 tail target.  An order two sums share is evaluated
    once, at the tighter target.  Zero weights are skipped outright.
    """
    orders, targets, plan = [], [], []
    for offset, budget in budgets.items():
        entries = []
        for i, (w, o) in enumerate(zip(weights, _ORDERS[shift, offset])):
            if w == 0.0:
                continue
            tail = 1e-12 if budget is None else max(1e-15, min(budget / (4.0 * abs(w)), 1e-6))
            if o in orders:
                k = orders.index(o)
                targets[k] = min(targets[k], tail)
            else:
                k = len(orders)
                orders.append(o)
                targets.append(tail)
            entries.append((i, w, k))
        plan.append((offset, entries))

    def evaluate(z: float):
        values = h_orders(stat, z, orders, targets)
        sums = {}
        for offset, entries in plan:
            terms = [0.0, 0.0, 0.0]
            error = 0.0
            for i, w, k in entries:
                fv = values[k]
                terms[i] = w * fv.value
                error += abs(w) * (fv.abs_error_bound + 4.0 * _EPS * abs(fv.value))
            sums[offset] = (tuple(terms), error)
        return sums, values

    return orders, evaluate


def _weighted_terms(stat, weights, shift, offset, z, abs_budget=None):
    """(terms, error) of one state sum at z; see ``_state_sums``."""
    _, evaluate = _state_sums(stat, weights, shift, {offset: abs_budget})
    return evaluate(z)[0][offset]


def _nonnegative(label, value, lam, z):
    if value < 0.0:
        raise ModelError(
            f"{label} = {value:.6g} < 0 at lambda={lam:.6g}, z={z:.6g}; "
            "corrections overwhelm the bulk term"
        )
    return value


def _nonnegative_sum(label, stat, container, lam, z, offset):
    weights, shift, _ = _model(container, lam)
    terms, _ = _weighted_terms(stat, weights, shift, offset, z)
    return _nonnegative(label, sum(terms), lam, z)


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


def _fermi_root(probe, N, z, z_cap, target):
    """Safeguarded Newton in u = ln z for the Fermi residual, from z.

    ``probe(z)`` returns the residual and its slope dN/du = z dN/dz from
    one h_orders call.  The Newton step -f/(dN/du), capped at ln 4, is
    taken when the slope is positive and the step lands inside the sign
    bracket; otherwise the bracket is bisected in u or, while only one of
    its ends is known, z moves by a factor 4 towards the other.  After
    ``_NEWTON_STEPS`` steps inside a bracket, or once its bisection point
    is one of its ends, ``bracketed_root`` finishes the bracket.

    Returns (z, f(z)) as ``bracketed_root`` does.
    """
    def residual(x: float) -> float:
        return probe(x)[0]

    lo = hi = f_lo = f_hi = None
    steps = 0
    f, slope = probe(z)
    while not abs(f) <= target:
        if f < 0.0:
            if z >= z_cap:
                raise NoBracketError(
                    f"N = {N:.6g} is not reachable below the Fermi fugacity cap {z_cap}"
                )
            lo, f_lo = z, f
        else:
            hi, f_hi = z, f
        nxt = None
        if slope > 0.0:
            du = max(-_LN4, min(-f / slope, _LN4))
            nxt = z + z * math.expm1(du)
            if nxt == z:
                nxt = math.nextafter(z, math.inf if f < 0.0 else 0.0)
        if lo is not None and hi is not None:
            steps += 1
            if steps > _NEWTON_STEPS:
                return bracketed_root(residual, lo, f_lo, hi, f_hi, target)
            if nxt is None or not lo < nxt < hi:
                nxt = math.sqrt(lo) * math.sqrt(hi)
                if not lo < nxt < hi:
                    return bracketed_root(residual, lo, f_lo, hi, f_hi, target)
        elif nxt is None:
            nxt = 4.0 * z if f < 0.0 else 0.25 * z
        if nxt <= 1e-300:
            raise NoBracketError(
                f"residual never changes sign down to z = {nxt:.3g}; no physical solution"
            )
        z = min(nxt, z_cap)
        f, slope = probe(z)
    return z, f


def solve_fugacity(
    stat: StatKind,
    container: PlanarDomain | TubeDomain,
    N: float,
    T: float,
    tol: float = 1e-12,
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

    Returns
    -------
    (GasState, ValidityReport)
        The report compares its ratios with the fixed ``WARN_*`` thresholds,
        so it is a function of the solved state alone.

    Raises
    ------
    NoBracketError
        Bose: N exceeds the maximum particle number reachable before the
        condensation margin (the model excludes condensation).  Fermi: N is
        unreachable below the fugacity cap ``FERMI_Z_MAX``.  Either: the
        residual does not change sign down to z = 1e-300.
    NonMonotoneError
        The particle-number equation is decreasing at the root; the
        corrections are too large for the model to be trusted here.
    ModelError
        The bracket shrank to adjacent floats before the residual met the
        target, and the certified error of N(z) there exceeds tol * N: the
        corrections cancel the bulk term beyond what double precision
        resolves.
    AccuracyError
        The bracket shrank to adjacent floats before the residual met the
        target although N(z) is certified to within tol * N there.

    Notes
    -----
    Both statistics start from the bulk term alone, inverted: z0 = N/w0 for
    Bose (w0 the bulk weight); for Fermi z0 = expm1(N/w0) in the plane,
    where the bulk term is w0 ln(1+z), and in a tube ln z0 = t - pi^2/(12 t)
    with t = (Gamma(5/2) N/w0)^(2/3), the Sommerfeld inverse of w0 f_3/2(z),
    once N >= w0 (N/w0 below that).  z0 is clipped into [1e-280, z_cap/2]
    (Bose: 1/2).

    Fermi solves by safeguarded Newton in u = ln z.  Each step is one
    h_orders call over the orders of N and of z dN/dz = dN/du, so the
    final evaluation also gives the certified slope of the branch check;
    see ``_fermi_root`` for the safeguard.

    Bose brackets the root by a walk, halving 1 - z up and quartering z
    down until the residual changes sign, and polishes it with
    ``bracketed_root``.  Its branch check sums z dN/dz once under a coarse
    series budget.

    Either branch check sums z dN/dz again under a fine budget only when
    |z dN/dz| does not exceed the certified error of the first sum.
    """
    state, report, _ = _solve(stat, container, N, T, tol)
    return state, report


def _solve(stat, container, N, T, tol=1e-12):
    """``solve_fugacity``, plus {order: FunctionValue} of the h values the
    solve evaluated at z*.

    Series values there were summed under the solver's tail budgets; the
    closed forms, Taylor values and inversions are the values any h_orders
    call at z* returns.
    """
    if not (N > 0.0) or not math.isfinite(N):
        raise DomainError(f"particle number must be positive, got {N}")
    if not (tol > 0.0) or not math.isfinite(tol):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")
    lam = thermal_wavelength(T)
    bose = stat is StatKind.BOSE
    weights, shift, area = _model(container, lam)
    target = tol * N

    # The residual only needs a fraction of tol*N absolute accuracy; the
    # per-term budget keeps the series length finite near the Bose
    # condensation point where the default 1e-12 tail target would blow the
    # term cap.  Only the sign of the slope matters, so its budget is coarse.
    budget = 0.25 * target
    coarse = max(N, 16.0 * budget)
    orders, evaluate = _state_sums(stat, weights, shift,
                                   {0: budget} if bose else {0: budget, -1: coarse})
    # z, sums and values of the latest evaluation.
    last = [None, None, None]

    def residual(z: float) -> float:
        # Approaching the Bose condensation point the series length needed to
        # certify h_sigma blows up; a state that close to z = 1 is refused as
        # near-condensation rather than extrapolated.  The tails are fixed
        # within a solve, so no polish point needs more terms than the walk.
        try:
            sums, values = evaluate(z)
        except AccuracyError as exc:
            if bose and z > 0.99:
                raise NoBracketError(
                    f"z = {z:.12g} is too close to the Bose condensation point "
                    "to certify the particle-number equation; near-condensation "
                    "states are outside the model"
                ) from exc
            raise
        last[:] = z, sums, values
        return sum(sums[0][0]) - N

    def probe(z: float) -> tuple[float, float]:
        f = residual(z)
        slope_terms, _ = last[1][-1]
        return f, sum(slope_terms)

    # Seed: the bulk term alone, inverted (see Notes).  Below N = w0 the
    # tube's degenerate form overshoots, so Boltzmann takes over there.
    if not weights[0] > 0:
        seed = 0.5
    elif bose or (shift and N < weights[0]):
        seed = N / weights[0]
    elif shift:
        t = (math.gamma(2.5) * N / weights[0]) ** (2.0 / 3.0)
        seed = math.exp(min(t - math.pi**2 / (12.0 * t), 709.0))
    else:
        seed = math.expm1(min(N / weights[0], 709.0))
    z_cap = 1.0 - BOSE_CONDENSATION_MARGIN if bose else FERMI_Z_MAX
    z0 = min(max(seed, 1e-280), 0.5 if bose else z_cap / 2.0)

    if not bose:
        z_star, res = _fermi_root(probe, N, z0, z_cap, target)
    else:
        # Walk until the residual changes sign: up from lo, approaching the
        # condensation cap as z -> 1 - (1-z)/2, or down from hi by quarters.
        # A residual that starts decreasing again while still negative means
        # the equation peaked below N, i.e. near-condensation territory the
        # model refuses.
        lo = hi = z0
        f_lo = f_hi = f0 = residual(z0)
        if f0 < 0.0:
            prev = f0
            while True:
                nxt = min(1.0 - (1.0 - lo) / 2.0, z_cap)
                f_nxt = residual(nxt)
                if f_nxt >= 0.0:
                    hi, f_hi = nxt, f_nxt
                    break
                if f_nxt < prev:
                    raise NoBracketError(
                        f"N = {N:.6g} exceeds the maximum particle number reachable "
                        f"before the condensation margin (peak residual {prev + N:.6g}); "
                        "near-condensation states are outside the model"
                    )
                if nxt >= z_cap:
                    raise NoBracketError(
                        f"N = {N:.6g} is not reachable below the Bose condensation "
                        f"margin z <= {z_cap}"
                    )
                lo, f_lo, prev = nxt, f_nxt, f_nxt
        elif f0 > 0.0:
            while True:
                nxt = hi / 4.0
                if nxt <= 1e-300:
                    raise NoBracketError(
                        f"residual never changes sign down to z = {nxt:.3g}; "
                        "no physical solution"
                    )
                f_nxt = residual(nxt)
                if f_nxt <= 0.0:
                    lo, f_lo = nxt, f_nxt
                    break
                hi, f_hi = nxt, f_nxt
        z_star, res = bracketed_root(residual, lo, f_lo, hi, f_hi, target)
    if last[0] != z_star:
        residual(z_star)
    _, sums, values = last
    if not abs(res) <= target:
        error = sums[0][1]
        if error > target:
            raise ModelError(
                f"fugacity solver stalled at residual {res:.3e}: N(z) at z = {z_star:.6g} "
                f"is certified only to {error:.3e} (target {target:.3e}); the "
                "corrections cancel the bulk term"
            )
        raise AccuracyError(
            f"fugacity solver stalled at residual {res:.3e} (target {target:.3e})",
            achieved=abs(res),
        )

    # Branch check: the analytic slope must be positive at the root.  Only
    # its sign matters: Fermi takes it from the final evaluation, Bose sums
    # it under a coarse budget, and either sums it again under a fine one
    # only when its certified error does not settle the sign.  A slope that
    # cannot be certified this close to the Bose condensation point is
    # refused the same way a non-monotone one is.
    def slope(abs_budget: float) -> tuple[float, float]:
        terms, error = _weighted_terms(stat, weights, shift, -1, z_star, abs_budget)
        return sum(terms), error

    try:
        if bose:
            deriv, error = slope(coarse)
        else:
            terms, error = sums[-1]
            deriv = sum(terms)
        if abs(deriv) <= error:
            deriv, _ = slope(max(0.05 * abs(deriv), 4.0 * budget))
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

    bulk, boundary, topology = sums[0][0]
    ratio_wavelength = lam / math.sqrt(area)
    ratio_boundary = abs(boundary) / abs(bulk) if bulk != 0.0 else math.inf
    ratio_topology = abs(topology) / abs(bulk) if bulk != 0.0 else math.inf
    # A few ulps of slack so a root at exactly z = 1 does not flag.
    fermi_ext = (stat is StatKind.FERMI) and z_star > 1.0 + 8e-15

    messages: list[str] = []
    if ratio_wavelength > WARN_WAVELENGTH_RATIO:
        messages.append(
            f"wavelength: lambda/sqrt(area) = {ratio_wavelength:.4g} exceeds "
            f"threshold {WARN_WAVELENGTH_RATIO:.4g}"
        )
    if ratio_boundary > WARN_BOUNDARY_RATIO:
        messages.append(
            f"boundary: |boundary term|/|bulk term| = {ratio_boundary:.4g} exceeds "
            f"threshold {WARN_BOUNDARY_RATIO:.4g}"
        )
    ratio_aspect = container.length_z / math.sqrt(area) if shift else math.inf
    if ratio_aspect < WARN_ASPECT_RATIO:
        messages.append(
            f"aspect: length_z/sqrt(area) = {ratio_aspect:.4g} is below threshold "
            f"{WARN_ASPECT_RATIO:.4g}; the axial continuum treatment is marginal"
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
    return state, report, dict(zip(orders, values))


def pressure(stat: StatKind, container: PlanarDomain | TubeDomain, state: GasState) -> float:
    """Pressure from P * measure = T * ln Xi (k_B = 1).

    For a planar domain the measure is the area (spreading pressure); for a
    tube it is the volume length_z * area.  Each tube adds one dimension and
    one half-order step, so the measure is the bulk weight times
    lam^(2 + shift).  Only the ln Xi orders with a non-zero weight are
    evaluated, so a free plane never needs h_1 (divergent at Bose z = 1).
    """
    weights, shift, _ = _model(container, state.lam)
    live = [o for w, o in zip(weights, _ORDERS[shift, 1]) if w != 0.0]
    ln_xi = sum(_terms(weights, shift, 1, _h_table(stat, state.z, live)))
    return _pressure(weights, shift, state, ln_xi)


def _pressure(weights, shift, state: GasState, ln_xi: float) -> float:
    """T ln Xi over the measure, the bulk weight times lam^(2 + shift); a
    negative ln Xi is refused with ModelError, a non-finite P with
    SingularityError."""
    ln_xi = _nonnegative("ln Xi", ln_xi, state.lam, state.z)
    P = state.T * ln_xi / (weights[0] * state.lam ** (2 + shift))
    if not math.isfinite(P):
        raise SingularityError(
            f"P is not finite at z = {state.z:.6g}; T ln Xi overflows double precision"
        )
    return P


# ---------------------------------------------------------------------------
# thermodynamics from the term list
# ---------------------------------------------------------------------------

#: The exponents (a_0, a_1, a_2) by twice the shift: weight w_i is
#: proportional to T^(a_i), a_i = (2 + shift - i)/2, since lam^2 = 2 pi/T.
_EXPONENTS = {shift: tuple((2 + shift - i) / 2 for i in range(3)) for shift in (0, 1)}


def _fixed_n(weights, shift, h):
    """(sum_i a_i w_i h_(s_i), sum_i w_i h_(s_i - 1)): T dN/dT at fixed z
    and z dN/dz, from a table {order: h value} that holds the orders of
    offsets 0 and -1.  At fixed N, d ln z/d ln T is minus their ratio."""
    w0, w1, w2 = weights
    a0, a1, a2 = _EXPONENTS[shift]
    n0, n1, n2 = _ORDERS[shift, 0]
    d0, d1, d2 = _ORDERS[shift, -1]
    return (a0 * (w0 * h[n0]) + a1 * (w1 * h[n1]) + a2 * (w2 * h[n2]),
            w0 * h[d0] + w1 * h[d1] + w2 * h[d2])


def dz_dT(stat: StatKind, container: PlanarDomain | TubeDomain, state: GasState) -> float:
    """dz/dT at fixed N: -z (sum_i a_i w_i h_(s_i)) / (T sum_i w_i h_(s_i - 1)).

    N = sum_i w_i h_(s_i)(z) with w_i proportional to T^(a_i); holding it
    fixed balances T dN/dT at fixed z against z dN/dz times d ln z/d ln T.
    """
    weights, shift, _ = _model(container, state.lam)
    orders = list(dict.fromkeys(_ORDERS[shift, 0] + _ORDERS[shift, -1]))
    t_dn_dt, z_dn_dz = _fixed_n(weights, shift, _h_table(stat, state.z, orders))
    return -state.z * t_dn_dt / (state.T * z_dn_dz)


def _thermo(container, state: GasState, h) -> tuple[float, float, float, float, float]:
    """(U, F, S, C_V, P) from a table {order: h value} at state.z that
    holds the seven orders of offsets +1, 0 and -1.

    lam enters only through the weights, w_i proportional to T^(a_i), so
    with ln Xi = sum_i w_i h_(s_i + 1)(z), and A, D the sums of ``_fixed_n``:

        U   = T^2 d ln Xi/dT at fixed z = T sum_i a_i w_i h_(s_i + 1)
        F   = N T ln z - T ln Xi
        S   = sum_i (a_i + 1) w_i h_(s_i + 1) - N ln z,  which is (U - F)/T
        C_V = dU/dT at fixed N = sum_i a_i (a_i + 1) w_i h_(s_i + 1) - A^2/D

    and P is ``pressure``'s.  A non-finite U, F, S or C_V is refused with
    SingularityError, then a negative ln Xi with ModelError.
    """
    weights, shift, _ = _model(container, state.lam)
    w0, w1, w2 = weights
    a0, a1, a2 = _EXPONENTS[shift]
    o0, o1, o2 = _ORDERS[shift, 1]
    x0, x1, x2 = w0 * h[o0], w1 * h[o1], w2 * h[o2]
    t_dn_dt, z_dn_dz = _fixed_n(weights, shift, h)
    n_ln_z = state.N * math.log(state.z)
    U = state.T * (a0 * x0 + a1 * x1 + a2 * x2)
    F = state.T * (n_ln_z - (x0 + x1 + x2))
    S = (a0 + 1.0) * x0 + (a1 + 1.0) * x1 + (a2 + 1.0) * x2 - n_ln_z
    C_V = (a0 * (a0 + 1.0) * x0 + a1 * (a1 + 1.0) * x1 + a2 * (a2 + 1.0) * x2
           - t_dn_dt * t_dn_dt / z_dn_dz)
    if not all(map(math.isfinite, (U, F, S, C_V))):
        raise SingularityError(
            f"U, F, S or C_V is not finite at z = {state.z:.6g}; the terms "
            "overflow double precision"
        )
    return U, F, S, C_V, _pressure(weights, shift, state, x0 + x1 + x2)
