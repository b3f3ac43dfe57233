"""Zeros of cylinder functions for the spectral oracle.

J_nu and Y_nu come from ``scipy.special`` (Amos, ACM TOMS 12 (1986) 265,
Alg. 644), which implements none of the formulas the oracle checks.  One
pass serves every order of a shape: the orders' sampling grids are joined
and evaluated in one vectorised call, the sign changes within each order
are polished together by Newton steps safeguarded by bisection, using
C_nu' = C_(nu-1) - (nu/x) C_nu, and every root is certified.

The disk takes J_nu from ``jv``.  The annulus takes J_nu and Y_nu together
from one ``hankel1`` call per radius (DLMF 10.4.3, H^(1) = J + iY), and
that one form serves the scan, the secant starts, the polish and the
certificate, so each grid sample is evaluated once.  Its rounding noise is
a few eps of |H| per unit of argument; the polish stops once the
cross-product is inside that noise, where further Newton steps only wander.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hankel1, jv

from .errors import ConvergenceError, DomainError

__all__ = ["j_zeros", "cross_product_zeros"]


def _roots(func, nu: np.ndarray, start: np.ndarray, stop: float,
           step: float) -> list[np.ndarray]:
    """Ascending roots of ``func(nu_i, .)`` at its sign changes on the grid
    start_i, start_i + step, ..., stop, for each order nu_i up to the first
    one without a root (a scan that starts at or past ``stop`` has none).
    ``func(nu, x, slope=True)`` returns the value, the derivative and a
    noise floor of the value, elementwise in ``nu`` and ``x``.  Each root
    is polished until its step is below 1e-15 relative, or until the value
    is at or below its floor, where the Newton point from it is the root:
    another step would only follow the noise.  A floor of 0 stops only on
    an exact zero."""
    below = start < stop
    if not below.all():
        nu, start = nu[:below.argmin()], start[:below.argmin()]
    size = np.ceil((stop - start) / step).astype(np.int64) + 1
    owner = np.repeat(np.arange(nu.size), size)
    local = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    grid = np.where(local < size[owner] - 1, start[owner] + step * local, stop)
    x_nu = nu[owner]
    values = func(x_nu, grid)
    pair = np.flatnonzero((owner[:-1] == owner[1:])
                          & (np.sign(values[:-1]) * np.sign(values[1:]) < 0.0))
    on_grid = values == 0.0
    # Stop at the first order without a root, as an order-by-order scan
    # would; an order with a non-finite sample stops it too, and raises.
    found = (np.bincount(owner[pair], minlength=nu.size)
             + np.bincount(owner[on_grid], minlength=nu.size))
    bad = np.bincount(owner[~np.isfinite(values)], minlength=nu.size) > 0
    stops = np.flatnonzero((found == 0) | bad)
    n = int(stops[0]) if stops.size else nu.size
    if n < nu.size and bad[n]:
        raise ConvergenceError("non-finite cylinder function on the sampling grid")
    if n == 0:
        return []
    pair = pair[owner[pair] < n]
    lo, hi, f_lo, nu_x = grid[pair], grid[pair + 1], values[pair], x_nu[pair]
    x, last = lo - f_lo * (hi - lo) / (values[pair + 1] - f_lo), hi - lo
    roots = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(80):
        if todo.size == 0:
            break
        f, df, floor = func(nu_x, x, slope=True)
        same = (f < 0.0) == (f_lo < 0.0)
        lo, f_lo, hi = np.where(same, x, lo), np.where(same, f, f_lo), np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        # Bisect where Newton leaves the bracket or fails to halve the last
        # step, as it does when rounding noise near the root makes it wander.
        ok = (lo <= newton) & (newton <= hi) & (np.abs(newton - x) <= 0.5 * last)
        x_new = np.where(ok, newton, 0.5 * (lo + hi))
        last = np.abs(x_new - x)
        quiet = np.abs(f) <= floor
        done = quiet | (last <= 1e-15 * np.abs(x_new))
        roots[todo[done]] = np.where(quiet, newton, x_new)[done]
        todo, x, last, lo, hi, f_lo, nu_x = (
            a[~done] for a in (todo, x_new, last, lo, hi, f_lo, nu_x))
    if todo.size:
        raise ConvergenceError(f"zero refinement stalled in [{lo[0]}, {hi[0]}]")
    on_grid &= owner < n
    everything = np.concatenate([grid[on_grid], roots])
    ranked = np.lexsort((everything, np.concatenate([owner[on_grid], owner[pair]])))
    return np.split(everything[ranked], np.cumsum(found[:n])[:-1])


def _flatten(table: list[np.ndarray], nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every root of a table with its order."""
    if not table:
        return np.empty(0), np.empty(0, dtype=np.int64)
    return np.concatenate(table), np.repeat(nu[:len(table)], [t.size for t in table])


def _j(nu, x, slope: bool = False):
    f = jv(nu, x)
    return (f, jv(nu - 1, x) - (nu / x) * f, 0.0) if slope else f


def j_zeros(orders, xmax: float) -> list[np.ndarray]:
    """The zeros of J_nu in (0, xmax], ascending, for nu = orders[0],
    orders[1], ... up to the first order that has none.

    J_nu is positive on (0, j_nu,1) and j_nu,1 > nu, so each scan starts at
    nu and sign changes are bracketed with a pi/4 step (asymptotic zero
    spacing is pi, decreasing from above).
    """
    nu = np.asarray(orders)
    table = _roots(_j, nu, np.maximum(nu, 1e-6), xmax, math.pi / 4.0)
    zeros, nu = _flatten(table, nu)
    residual = np.abs(jv(nu, zeros))
    if np.any(residual > 1e-12):
        i = int(np.argmax(residual))
        raise ConvergenceError(f"zero of J_{nu[i]} at {zeros[i]} has residual {residual[i]:.3e}")
    return table


#: The noise floor of G per unit of k Ro, in units of |H_nu(k Ro)|: 16 eps,
#: over three times the largest rounding error measured against mpmath
#: (4.4 eps, on 900 seeded points of six annuli).
_NOISE = 16.0 * 2.0**-52


def _scaled_cross(nu, k, ri: float, ro: float, slope: bool = False, floor: bool = False):
    """G = (J_nu(k Ri) Y_nu(k Ro) - J_nu(k Ro) Y_nu(k Ri)) / |H_nu(k Ri)|.

    J and Y are the real and imaginary parts of one ``hankel1`` call per
    radius (H^(1) = J + iY).  The divisor never vanishes, so G has the
    zeros and signs of the cross-product.  With (c, s) = (cos, sin) of the
    phase theta of H_nu(k Ri), G = c Y_nu(k Ro) - s J_nu(k Ro), and the
    Wronskian gives theta' = 2/(pi k |H|^2).  Where Amos overflows at k Ri,
    H is nan; there J_nu(k Ri) is 0 and Y_nu(k Ri) is -inf, so c = 0,
    s = -1, theta' = 0 and G = J_nu(k Ro), which stays finite.  With
    ``floor``, the slope comes with G's noise floor for the polish,
    ``_NOISE (1 + k Ro) |H_nu(k Ro)|``.
    """
    x_out = k * ro
    h_in, h_out = hankel1(nu, k * ri), hankel1(nu, x_out)
    m = np.abs(h_in)
    over = np.isnan(m)
    with np.errstate(invalid="ignore", over="ignore"):
        c, s = np.where(over, 0.0, h_in.real / m), np.where(over, -1.0, h_in.imag / m)
        j_out, y_out = h_out.real, h_out.imag
        g = c * y_out - s * j_out
        if not slope:
            return g
        h_prev, q = hankel1(nu - 1, x_out), nu / x_out
        dj_out, dy_out = h_prev.real - q * j_out, h_prev.imag - q * y_out
        dtheta = np.where(over, 0.0, 2.0 / (math.pi * k * m * m))
    dg = ro * (c * dy_out - s * dj_out) - dtheta * (s * y_out + c * j_out)
    return (g, dg, _NOISE * (1.0 + x_out) * np.abs(h_out)) if floor else (g, dg)


def cross_product_zeros(orders, r_inner: float, r_outer: float,
                        kmax: float) -> list[np.ndarray]:
    """The k in (0, kmax] where the cross-product vanishes, ascending, for
    nu = orders[0], orders[1], ... up to the first order that has none.

    Radial oscillation needs k > nu/r somewhere in the annulus, so each scan
    starts just below nu/r_outer; the asymptotic zero spacing is
    pi/(r_outer - r_inner) and the grid oversamples it 8x.  One form of the
    cross-product, ``_scaled_cross``, samples the grid, once per sample,
    and serves the secant starts, the polish and the certificate.
    """
    if not (0.0 < r_inner < r_outer):
        raise DomainError("need 0 < r_inner < r_outer")
    nu = np.asarray(orders)

    def cross(nu, k, slope=False):
        return _scaled_cross(nu, k, r_inner, r_outer, slope, floor=slope)

    table = _roots(cross, nu, np.maximum(nu / r_outer, 1e-3) * 0.95, kmax,
                   math.pi / (8.0 * (r_outer - r_inner)))
    # Certify each root through its implied k-error |G|/|G'|; the raw
    # residual is meaningless when high orders make the slope steep.
    zeros, nu = _flatten(table, nu)
    residual, slope = _scaled_cross(nu, zeros, r_inner, r_outer, slope=True)
    k_err = np.abs(residual) / np.maximum(np.abs(slope), 1e-300)
    bad = np.flatnonzero(k_err > 1e-11 * np.maximum(1.0, zeros))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(f"cross-product zero of order {nu[i]} at k={zeros[i]} is only "
                               f"accurate to dk={k_err[i]:.3e} (residual {residual[i]:.3e})")
    return table
