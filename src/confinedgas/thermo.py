"""Thermodynamic rows with boundary and connectivity corrections.

A row solves the state point, reads one table of h values at the solved z
and takes U, F, S, C_V and P from the model's term list (``eos._thermo``):
each is a weighted sum of h values, exact within the model, and one
function serves the plane and the tube.

Beside them a row reports the paper's auxiliary coefficients (sigma2, eta2
in 2-D; sigma3, eta3, xi1..xi5 in 3-D tubes), the closed forms that
eliminate the thermal wavelength by resolving the particle-number equation.
In the plane they are exact inside the validity region; in a tube the
cubic resolution of sigma3 carries an O(1/N^2) remainder, which
``verify``'s ``sigma3-identity`` row measures.  All of them equal 1 for the free-space configuration (perimeter
0, one hole).

A row reads the orders the public ``aux_2d``/``aux_3d`` read.  The aux
forms run under one overflow guard: a container whose powers of the
geometry overflow is refused with SingularityError, as is a non-finite
U, F, S or C_V.

Conventions: k_B = 1; U, F, S and C_V are totals (not per particle).  S is
its own sum, not (U - F)/T, so S = (U - F)/T is an identity the test-suite
and ``verify`` check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

from .errors import SingularityError
from .eos import (
    GasState,
    ValidityReport,
    _h_table,
    _solve,
    _thermo,
)
from .geometry import PlanarDomain, TubeDomain
from .statfun import (
    HALF,
    MINUS_HALF,
    MINUS_ONE,
    ONE,
    THREE_HALVES,
    TWO,
    FIVE_HALVES,
    ZERO,
    Method,
    StatKind,
)

__all__ = [
    "Aux2D",
    "Aux3D",
    "ThermoReport",
    "DENOMINATOR_FLOOR",
    "aux_2d",
    "thermo_2d",
    "aux_3d",
    "thermo_3d",
]

#: Denominators smaller than this produce SingularityError instead of values.
DENOMINATOR_FLOOR = 1e-14


@dataclass(frozen=True)
class Aux2D:
    """Auxiliary coefficients of the 2-D closed forms.

    On a solver-consistent state sigma2 equals area*h_1(z)/(N*lam^2); the
    free-space configuration forces sigma2 = eta2 = 1.
    """

    sigma2: float
    eta2: float


@dataclass(frozen=True)
class Aux3D:
    """Auxiliary coefficients of the tube closed forms.

    On a solver-consistent state sigma3 equals Lz*area*h_3/2(z)/(N*lam^3);
    free space forces all seven coefficients to 1, and a one-hole
    cross-section forces xi3 = xi4 = xi5 = 1.
    """

    sigma3: float
    eta3: float
    xi1: float
    xi2: float
    xi3: float
    xi4: float
    xi5: float


@dataclass(frozen=True)
class ThermoReport:
    """All thermodynamic quantities for one solved state point."""

    U: float
    F: float
    S: float
    C_V: float
    P: float
    state: GasState
    aux: Union[Aux2D, Aux3D]
    validity: ValidityReport


#: The orders one row evaluates at z*: those of its term-list sums at
#: offsets +1, 0 and -1, which are also every order its aux forms read.
_ROW_2D = (MINUS_ONE, MINUS_HALF, ZERO, HALF, ONE, THREE_HALVES, TWO)
_ROW_3D = (MINUS_HALF, ZERO, HALF, ONE, THREE_HALVES, TWO, FIVE_HALVES)


def _guard(name: str, value: float) -> float:
    if abs(value) < DENOMINATOR_FLOOR:
        raise SingularityError(f"{name} = {value:.3e} is below the safe threshold")
    return value


def _sq(x: float) -> float:
    """x * x, which is correctly rounded; x**2 goes through libm ``pow``,
    which misrounds some squares by 1 ulp.  Overflow raises, as x**2 does."""
    y = x * x
    if y == math.inf and math.isfinite(x):
        raise OverflowError("square out of range")
    return y


def _cbrt(x: float) -> float:
    """The cube root of x, correctly rounded; +-0, +-inf and nan map to
    themselves.

    |x| = m 8^k with m in [1/2, 4), so the root is cbrt(m) 2^k, and the
    scaling is exact: cbrt(m) lies in [0.79, 1.59) and the root of any
    double is a normal double.  m^(1/3) and one Newton step land within an
    ulp of cbrt(m); the loop then moves to the float whose midpoints with
    its neighbours have cubes on either side of m.  The midpoints are
    integers in units of 2^-55, half an ulp (2 units below 1, 4 from 1 up)
    from r, and the comparison is exact; no midpoint's cube is a double,
    so there are no ties.
    """
    if x == 0.0 or not math.isfinite(x):
        return x
    frac, exp = math.frexp(abs(x))
    k, rem = divmod(exp, 3)
    m = math.ldexp(frac, rem)
    r = m ** (1.0 / 3.0)
    r -= (r - m / (r * r)) / 3.0
    target = int(math.ldexp(m, 53)) << 112
    while True:
        units = int(math.ldexp(r, 55))
        if (units - (2 if r <= 1.0 else 4)) ** 3 > target:
            r = math.nextafter(r, 0.0)
        elif (units + (2 if r < 1.0 else 4)) ** 3 < target:
            r = math.nextafter(r, 4.0)
        else:
            return math.copysign(math.ldexp(r, k), x)


def _no_overflow(z: float, form, *args):
    """form(*args).  The closed forms take powers of the geometry (L^2,
    L^3, ...) that overflow for huge containers; that refuses them like any
    other singular closed form."""
    try:
        return form(*args)
    except OverflowError as exc:
        raise SingularityError(
            f"the closed forms overflow at z = {z:.6g}; the container is "
            "too large for double precision"
        ) from exc


# ---------------------------------------------------------------------------
# two dimensions
# ---------------------------------------------------------------------------

def aux_2d(stat: StatKind, z: float, N: float, dom: PlanarDomain) -> Aux2D:
    """Closed forms for sigma2 and eta2 at (z, N, geometry)."""
    return _no_overflow(z, _aux_2d, _h_table(stat, z, _ROW_2D), N, dom)


def _aux_2d(h, N: float, dom: PlanarDomain) -> Aux2D:
    L, O, r = dom.perimeter, dom.area, dom.holes
    hole_term = (1.0 - r) / (6.0 * N) * h[ZERO]

    inner = 1.0 + (1.0 / (64.0 * N)) * (_sq(L) / O) * (_sq(h[HALF]) / h[ONE]) - hole_term
    if inner < 0.0:
        raise SingularityError(
            f"sigma2 square-root argument {inner:.3e} is negative; the closed "
            "form does not apply this far outside the validity region"
        )
    den = math.sqrt(inner) - (1.0 / (8.0 * math.sqrt(N))) * (L / math.sqrt(O)) * (
        h[HALF] / math.sqrt(h[ONE])
    )
    sigma2 = _sq((1.0 - hole_term) / _guard("sigma2 denominator", den))

    sqrt_sigma2 = math.sqrt(sigma2)
    eta_num = 1.0 - (1.0 / (8.0 * math.sqrt(N))) * (L / math.sqrt(O)) * (
        h[HALF] / math.sqrt(h[ONE])
    ) / sqrt_sigma2
    eta_den = (
        1.0
        - (1.0 / (4.0 * math.sqrt(N))) * (L / math.sqrt(O))
        * (math.sqrt(h[ONE]) * h[MINUS_HALF] / h[ZERO]) / sqrt_sigma2
        + (1.0 - r) / (6.0 * N) * (h[ONE] * h[MINUS_ONE] / h[ZERO]) / sigma2
    )
    eta2 = eta_num / _guard("eta2 denominator", eta_den)
    return Aux2D(sigma2=sigma2, eta2=eta2)


#: Methods whose values at z do not depend on a series tail target.
_EXACT_AT_Z = (Method.CLOSED_FORM, Method.TAYLOR, Method.INVERSION)


def _row(stat, container, N, T, orders, aux_fn) -> ThermoReport:
    """Solve the state point, read one h table at z*, fill the aux closed
    forms and take U, F, S, C_V and P from the model's term list.

    The table reuses the closed forms, Taylor values and inversions the
    solve evaluated at z*, which any h_orders call there returns bit for
    bit, and evaluates the other orders in one call; series values were
    summed under the solver's tail budgets, so they are summed again.
    """
    state, validity, solved = _solve(stat, container, N, T)
    h = {o: fv.value for o, fv in solved.items() if fv.method in _EXACT_AT_Z}
    h.update(_h_table(stat, state.z, [o for o in orders if o not in h]))
    aux = _no_overflow(state.z, aux_fn, h, N, container)
    U, F, S, C_V, P = _thermo(container, state, h)
    return ThermoReport(U=U, F=F, S=S, C_V=C_V, P=P, state=state, aux=aux,
                        validity=validity)


def thermo_2d(stat: StatKind, dom: PlanarDomain, N: float, T: float) -> ThermoReport:
    """Solve the planar state point and fill its row."""
    return _row(stat, dom, N, T, _ROW_2D, _aux_2d)


# ---------------------------------------------------------------------------
# three dimensions (uniform tube)
# ---------------------------------------------------------------------------

def aux_3d(stat: StatKind, z: float, N: float, tube: TubeDomain) -> Aux3D:
    """Closed forms for sigma3, eta3 and xi1..xi5, evaluated in dependency
    order xi5 -> xi4 -> xi3 -> xi2 -> xi1 -> sigma3 -> eta3."""
    return _no_overflow(z, _aux_3d, _h_table(stat, z, _ROW_3D), N, tube)


def _aux_3d(h, N: float, tube: TubeDomain) -> Aux3D:
    dom = tube.cross_section
    L, O, r = dom.perimeter, dom.area, dom.holes
    lz = tube.length_z
    one_r = 1.0 - r
    cbrt_h32 = _cbrt(h[THREE_HALVES])

    # xi5: the (1-r)^2 factor kills the L-division for one-hole sections.
    if one_r == 0.0:
        xi5 = 1.0
    else:
        xi5 = 1.0 - (_sq(one_r) / (27.0 * N)) * (lz / _guard("xi5 perimeter", L)) * (
            _sq(h[HALF]) / h[ONE]
        )

    xi4 = (
        1.0
        - one_r / (72.0 * N) * (lz * L / O) * (h[ONE] * h[HALF] / h[THREE_HALVES])
        + one_r**3 / (2916.0 * _sq(N)) * (_sq(lz) / O) * (h[HALF] ** 3 / h[THREE_HALVES])
    )
    xi3 = xi5**3 / _sq(_guard("xi4", xi4))

    xi2_arg = 1.0 + (1.0 / (432.0 * N)) * (lz * L**3 / _sq(O)) * (
        h[ONE] ** 3 / _sq(h[THREE_HALVES])
    ) * xi3
    if xi2_arg < 0.0:
        raise SingularityError(
            f"xi2 square-root argument {xi2_arg:.3e} is negative; the closed "
            "form does not apply this far outside the validity region"
        )
    xi2 = _cbrt(0.5 + 0.5 * math.sqrt(xi2_arg))

    xi1 = (
        _guard("xi2", xi2)
        - (1.0 / xi2) * (1.0 / (12.0 * N ** (1.0 / 3.0)))
        * (lz ** (1.0 / 3.0) * L / O ** (2.0 / 3.0))
        * (h[ONE] / h[THREE_HALVES] ** (2.0 / 3.0)) * _cbrt(xi3)
        + one_r / (18.0 * N ** (2.0 / 3.0)) * (lz ** (2.0 / 3.0) / O ** (1.0 / 3.0))
        * (h[HALF] / cbrt_h32) / _cbrt(_guard("xi4", xi4))
    )

    sigma3_bracket = (
        1.0
        - (lz * L / O) * one_r / (72.0 * N) * (h[ONE] * h[HALF] / h[THREE_HALVES])
        + (_sq(lz) / O) * one_r**3 / (2916.0 * _sq(N)) * (h[HALF] ** 3 / h[FIVE_HALVES])
    )
    sigma3 = 1.0 / _guard("sigma3 bracket", sigma3_bracket) / _guard("xi1", xi1) ** 3
    if sigma3 < 0.0:
        # sigma3 = Lz*area*h_3/2/(N*lam^3) > 0 on any state the closed forms
        # resolve.
        raise SingularityError(
            f"sigma3 = {sigma3:.3e} is negative; the closed form does not apply "
            "this far outside the validity region"
        )

    cbrt_s3 = _cbrt(sigma3)
    eta_num = (
        1.0
        - (1.0 / (6.0 * N ** (1.0 / 3.0))) * (lz ** (1.0 / 3.0) * L / O ** (2.0 / 3.0))
        * (h[ONE] / h[THREE_HALVES] ** (2.0 / 3.0)) / cbrt_s3
        + one_r / (18.0 * N ** (2.0 / 3.0)) * (lz ** (2.0 / 3.0) / O ** (1.0 / 3.0))
        * (h[HALF] / cbrt_h32) / _sq(cbrt_s3)
    )
    eta_den = (
        1.0
        - (1.0 / (4.0 * N ** (1.0 / 3.0))) * (lz ** (1.0 / 3.0) * L / O ** (2.0 / 3.0))
        * (cbrt_h32 * h[ZERO] / h[HALF]) / cbrt_s3
        + one_r / (6.0 * N ** (2.0 / 3.0)) * (lz ** (2.0 / 3.0) / O ** (1.0 / 3.0))
        * (h[THREE_HALVES] ** (2.0 / 3.0) * h[MINUS_HALF] / h[HALF]) / _sq(cbrt_s3)
    )
    eta3 = eta_num / _guard("eta3 denominator", eta_den)

    return Aux3D(sigma3=sigma3, eta3=eta3, xi1=xi1, xi2=xi2, xi3=xi3, xi4=xi4, xi5=xi5)


def thermo_3d(stat: StatKind, tube: TubeDomain, N: float, T: float) -> ThermoReport:
    """Solve the tube state point and fill its row."""
    return _row(stat, tube, N, T, _ROW_3D, _aux_3d)
