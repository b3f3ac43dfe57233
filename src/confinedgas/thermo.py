"""Thermodynamic quantities with boundary and connectivity corrections.

The closed forms below express U, F, S and C_V of the confined gas through
the integral family h_sigma(z), the particle number N and the geometry
alone; the thermal wavelength has been eliminated via auxiliary
coefficients (sigma2, eta2 in 2-D; sigma3, eta3, xi1..xi5 in 3-D tubes)
that resolve the particle-number equation in closed form.  All auxiliary
coefficients equal 1 for the free-space configuration (perimeter 0, one
hole), where every expression collapses to the textbook ideal-gas form.

Conventions: k_B = 1; U, F, S and C_V are totals (not per particle); the
identity S = (U - F)/T holds algebraically for the printed expressions and
is enforced by the test-suite, not re-derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import SingularityError
from .eos import (
    GasState,
    ValidityReport,
    _h_table,
    _pressure,
    solve_fugacity,
)
from .geometry import PlanarDomain, TubeDomain
from .statfun import (
    FERMI_Z_MAX,
    HALF,
    MINUS_HALF,
    MINUS_ONE,
    ONE,
    THREE_HALVES,
    TWO,
    FIVE_HALVES,
    ZERO,
    StatKind,
)

__all__ = [
    "Aux2D",
    "Aux3D",
    "ThermoReport",
    "DENOMINATOR_FLOOR",
    "aux_2d",
    "thermo_2d",
    "dz_dT_2d",
    "aux_3d",
    "thermo_3d",
    "dz_dT_3d",
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


#: The orders each closed form reads, and the union that one row evaluates
#: at z* (it also holds the ln Xi orders of the pressure).
_AUX_2D = (MINUS_ONE, MINUS_HALF, ZERO, HALF, ONE)
_ROW_2D = (MINUS_ONE, MINUS_HALF, ZERO, HALF, ONE, THREE_HALVES, TWO)
_AUX_3D = (MINUS_HALF, ZERO, HALF, ONE, THREE_HALVES, FIVE_HALVES)
_ROW_3D = (MINUS_HALF, ZERO, HALF, ONE, THREE_HALVES, TWO, FIVE_HALVES)


def _guard(name: str, value: float) -> float:
    if abs(value) < DENOMINATOR_FLOOR:
        raise SingularityError(f"{name} = {value:.3e} is below the safe threshold")
    return value


def _cbrt(x: float) -> float:
    return float(np.cbrt(x))


# ---------------------------------------------------------------------------
# two dimensions
# ---------------------------------------------------------------------------

def aux_2d(stat: StatKind, z: float, N: float, dom: PlanarDomain,
           z_max: float = FERMI_Z_MAX) -> Aux2D:
    """Closed forms for sigma2 and eta2 at (z, N, geometry)."""
    return _aux_2d(_h_table(stat, z, _AUX_2D, z_max), N, dom)


def _aux_2d(h, N: float, dom: PlanarDomain) -> Aux2D:
    L, O, r = dom.perimeter, dom.area, dom.holes
    hole_term = (1.0 - r) / (6.0 * N) * h[ZERO]

    inner = 1.0 + (1.0 / (64.0 * N)) * (L**2 / O) * (h[HALF] ** 2 / h[ONE]) - hole_term
    if inner < 0.0:
        raise SingularityError(
            f"sigma2 square-root argument {inner:.3e} is negative; the closed "
            "form does not apply this far outside the validity region"
        )
    den = math.sqrt(inner) - (1.0 / (8.0 * math.sqrt(N))) * (L / math.sqrt(O)) * (
        h[HALF] / math.sqrt(h[ONE])
    )
    sigma2 = ((1.0 - hole_term) / _guard("sigma2 denominator", den)) ** 2

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


def _thermo_2d_from_state(dom, state: GasState, aux: Aux2D, h):
    z, N, T = state.z, state.N, state.T
    L, O, r = dom.perimeter, dom.area, dom.holes
    sqn = math.sqrt(N)
    shape = L / math.sqrt(O)
    s2, e2 = aux.sigma2, aux.eta2
    sqrt_s2 = math.sqrt(s2)

    bulk_ratio = h[TWO] / h[ONE]
    edge_ratio = h[THREE_HALVES] / math.sqrt(h[ONE])

    u = bulk_ratio * s2 - (1.0 / (8.0 * sqn)) * shape * edge_ratio * sqrt_s2
    f = math.log(z) - (
        bulk_ratio * s2
        - (1.0 / (4.0 * sqn)) * shape * edge_ratio * sqrt_s2
        + (1.0 - r) / (6.0 * N) * h[ONE]
    )
    s = (
        2.0 * bulk_ratio * s2
        - math.log(z)
        - (3.0 / (8.0 * sqn)) * shape * edge_ratio * sqrt_s2
        + (1.0 - r) / (6.0 * N) * h[ONE]
    )
    c_v = s2 * (2.0 * bulk_ratio - e2 * h[ONE] / h[ZERO]) - (1.0 / sqn) * shape * sqrt_s2 * (
        (3.0 / 16.0) * edge_ratio
        - (1.0 / 8.0) * e2 * (math.sqrt(h[ONE]) * h[HALF] / h[ZERO])
    )
    return u * N * T, f * N * T, s * N, c_v * N


def thermo_2d(stat: StatKind, dom: PlanarDomain, N: float, T: float,
              tol: float = 1e-12, *, z_max: float = FERMI_Z_MAX,
              **solver_kwargs) -> ThermoReport:
    """Solve the state point and fill every 2-D closed form."""
    state, validity = solve_fugacity(stat, dom, N, T, tol, z_max=z_max, **solver_kwargs)
    h = _h_table(stat, state.z, _ROW_2D, z_max)
    aux = _aux_2d(h, N, dom)
    U, F, S, C_V = _thermo_2d_from_state(dom, state, aux, h)
    P = _pressure(dom, state, h)
    return ThermoReport(U=U, F=F, S=S, C_V=C_V, P=P, state=state, aux=aux,
                        validity=validity)


def dz_dT_2d(stat: StatKind, state: GasState, aux: Aux2D,
             z_max: float = FERMI_Z_MAX) -> float:
    """dz/dT at fixed N: -(z/T) * h_1/h_0 * eta2 (always negative)."""
    h = _h_table(stat, state.z, (ONE, ZERO), z_max)
    return -(state.z / state.T) * (h[ONE] / h[ZERO]) * aux.eta2


# ---------------------------------------------------------------------------
# three dimensions (uniform tube)
# ---------------------------------------------------------------------------

def aux_3d(stat: StatKind, z: float, N: float, tube: TubeDomain,
           z_max: float = FERMI_Z_MAX) -> Aux3D:
    """Closed forms for sigma3, eta3 and xi1..xi5, evaluated in dependency
    order xi5 -> xi4 -> xi3 -> xi2 -> xi1 -> sigma3 -> eta3."""
    return _aux_3d(_h_table(stat, z, _AUX_3D, z_max), N, tube)


def _aux_3d(h, N: float, tube: TubeDomain) -> Aux3D:
    dom = tube.cross_section
    L, O, r = dom.perimeter, dom.area, dom.holes
    lz = tube.length_z
    one_r = 1.0 - r

    # xi5: the (1-r)^2 factor kills the L-division for one-hole sections.
    if one_r == 0.0:
        xi5 = 1.0
    else:
        xi5 = 1.0 - (one_r**2 / (27.0 * N)) * (lz / _guard("xi5 perimeter", L)) * (
            h[HALF] ** 2 / h[ONE]
        )

    xi4 = (
        1.0
        - one_r / (72.0 * N) * (lz * L / O) * (h[ONE] * h[HALF] / h[THREE_HALVES])
        + one_r**3 / (2916.0 * N**2) * (lz**2 / O) * (h[HALF] ** 3 / h[THREE_HALVES])
    )
    xi3 = xi5**3 / _guard("xi4", xi4) ** 2

    xi2_arg = 1.0 + (1.0 / (432.0 * N)) * (lz * L**3 / O**2) * (
        h[ONE] ** 3 / h[THREE_HALVES] ** 2
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
        * (h[HALF] / _cbrt(h[THREE_HALVES])) / _cbrt(_guard("xi4", xi4))
    )

    sigma3_bracket = (
        1.0
        - (lz * L / O) * one_r / (72.0 * N) * (h[ONE] * h[HALF] / h[THREE_HALVES])
        + (lz**2 / O) * one_r**3 / (2916.0 * N**2) * (h[HALF] ** 3 / h[FIVE_HALVES])
    )
    sigma3 = 1.0 / _guard("sigma3 bracket", sigma3_bracket) / _guard("xi1", xi1) ** 3
    if sigma3 < 0.0:
        # sigma3 = Lz*area*h_3/2/(N*lam^3) > 0 on any state the closed forms
        # resolve; U, F and S take its 2/3 power.
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
        * (h[HALF] / _cbrt(h[THREE_HALVES])) / cbrt_s3**2
    )
    eta_den = (
        1.0
        - (1.0 / (4.0 * N ** (1.0 / 3.0))) * (lz ** (1.0 / 3.0) * L / O ** (2.0 / 3.0))
        * (_cbrt(h[THREE_HALVES]) * h[ZERO] / h[HALF]) / cbrt_s3
        + one_r / (6.0 * N ** (2.0 / 3.0)) * (lz ** (2.0 / 3.0) / O ** (1.0 / 3.0))
        * (h[THREE_HALVES] ** (2.0 / 3.0) * h[MINUS_HALF] / h[HALF]) / cbrt_s3**2
    )
    eta3 = eta_num / _guard("eta3 denominator", eta_den)

    return Aux3D(sigma3=sigma3, eta3=eta3, xi1=xi1, xi2=xi2, xi3=xi3, xi4=xi4, xi5=xi5)


def _thermo_3d_from_state(tube: TubeDomain, state: GasState, aux: Aux3D, h):
    z, N, T = state.z, state.N, state.T
    dom = tube.cross_section
    L, O = dom.perimeter, dom.area
    one_r = 1.0 - dom.holes
    lz = tube.length_z
    s3, e3 = aux.sigma3, aux.eta3
    n13, n23 = N ** (1.0 / 3.0), N ** (2.0 / 3.0)

    bulk_ratio = h[FIVE_HALVES] / h[THREE_HALVES]
    edge_coeff = (lz ** (1.0 / 3.0) * L / O ** (2.0 / 3.0)) * (
        h[TWO] / h[THREE_HALVES] ** (2.0 / 3.0)
    )
    hole_coeff = (lz ** (2.0 / 3.0) / O ** (1.0 / 3.0)) * h[THREE_HALVES] ** (2.0 / 3.0)
    s3_23 = s3 ** (2.0 / 3.0)
    s3_13 = _cbrt(s3)

    u = (
        1.5 * bulk_ratio * s3
        - (1.0 / (4.0 * n13)) * edge_coeff * s3_23
        + one_r / (12.0 * n23) * hole_coeff * s3_13
    )
    f = math.log(z) - (
        bulk_ratio * s3
        - (1.0 / (4.0 * n13)) * edge_coeff * s3_23
        + one_r / (6.0 * n23) * hole_coeff * s3_13
    )
    s = (
        2.5 * bulk_ratio * s3
        - math.log(z)
        - (1.0 / (2.0 * n13)) * edge_coeff * s3_23
        + one_r / (4.0 * n23) * hole_coeff * s3_13
    )
    c_v = (
        s3 * (15.0 / 4.0 * bulk_ratio - 9.0 / 4.0 * e3 * h[THREE_HALVES] / h[HALF])
        - (1.0 / n13) * (L * lz ** (1.0 / 3.0) / O ** (2.0 / 3.0)) * s3_23 * (
            h[TWO] / (2.0 * h[THREE_HALVES] ** (2.0 / 3.0))
            - (3.0 / 8.0) * e3 * (_cbrt(h[THREE_HALVES]) * h[ONE] / h[HALF])
        )
        + one_r / 6.0 / n23 * (lz ** (2.0 / 3.0) / O ** (1.0 / 3.0)) * s3_13 * (
            (3.0 / 4.0) * (1.0 - e3) * h[THREE_HALVES] ** (2.0 / 3.0)
        )
    )
    return u * N * T, f * N * T, s * N, c_v * N


def thermo_3d(stat: StatKind, tube: TubeDomain, N: float, T: float,
              tol: float = 1e-12, *, z_max: float = FERMI_Z_MAX,
              **solver_kwargs) -> ThermoReport:
    """Solve the tube state point and fill every 3-D closed form."""
    state, validity = solve_fugacity(stat, tube, N, T, tol, z_max=z_max, **solver_kwargs)
    h = _h_table(stat, state.z, _ROW_3D, z_max)
    aux = _aux_3d(h, N, tube)
    U, F, S, C_V = _thermo_3d_from_state(tube, state, aux, h)
    P = _pressure(tube, state, h)
    return ThermoReport(U=U, F=F, S=S, C_V=C_V, P=P, state=state, aux=aux,
                        validity=validity)


def dz_dT_3d(stat: StatKind, state: GasState, aux: Aux3D,
             z_max: float = FERMI_Z_MAX) -> float:
    """dz/dT at fixed N: -(3/2)(z/T) * h_3/2/h_1/2 * eta3 (always negative)."""
    h = _h_table(stat, state.z, (THREE_HALVES, HALF), z_max)
    return -1.5 * (state.z / state.T) * (h[THREE_HALVES] / h[HALF]) * aux.eta3
