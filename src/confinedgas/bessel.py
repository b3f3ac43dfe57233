"""Zeros of cylinder functions for the spectral oracle.

J_nu and Y_nu come from ``scipy.special`` (Amos, ACM TOMS 12 (1986) 265,
Alg. 644), which implements none of the formulas the oracle checks.  Each
finder samples one order on a grid in one vectorised call, polishes all
sign changes at once by Newton steps safeguarded by bisection, using
C_nu' = C_(nu-1) - (nu/x) C_nu, and certifies each root.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np
from scipy.special import jv, yv

from .errors import ConvergenceError, DomainError

__all__ = ["j_zeros_up_to", "cross_product_zeros_up_to"]


def _roots(func, start: float, stop: float, step: float) -> np.ndarray:
    """Ascending roots of ``func`` at its sign changes on the grid start,
    start + step, ..., stop, each polished until its step is below 1e-15
    relative.  ``func(x, slope=True)`` returns the value and derivative."""
    grid = np.append(start + step * np.arange(math.ceil((stop - start) / step)), stop)
    values = func(grid)
    if not np.all(np.isfinite(values)):
        raise ConvergenceError("non-finite cylinder function on the sampling grid")
    idx = np.flatnonzero(np.sign(values[:-1]) * np.sign(values[1:]) < 0.0)
    lo, hi, f_lo = grid[idx], grid[idx + 1], values[idx]
    x, last = lo - f_lo * (hi - lo) / (values[idx + 1] - f_lo), hi - lo
    roots = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(80):
        if todo.size == 0:
            break
        f, df = func(x, slope=True)
        same = (f < 0.0) == (f_lo < 0.0)
        lo, f_lo, hi = np.where(same, x, lo), np.where(same, f, f_lo), np.where(same, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / df
        # Bisect where Newton leaves the bracket or fails to halve the last
        # step, as it does when rounding noise near the root makes it wander.
        ok = (lo <= newton) & (newton <= hi) & (np.abs(newton - x) <= 0.5 * last)
        x_new = np.where(ok, newton, 0.5 * (lo + hi))
        last = np.abs(x_new - x)
        done = (f == 0.0) | (last <= 1e-15 * np.abs(x_new))
        roots[todo[done]] = np.where(f == 0.0, x, x_new)[done]
        todo, x, last, lo, hi, f_lo = (a[~done] for a in (todo, x_new, last, lo, hi, f_lo))
    if todo.size:
        raise ConvergenceError(f"zero refinement stalled in [{lo[0]}, {hi[0]}]")
    return np.sort(np.concatenate([grid[values == 0.0], roots]))


def _j(nu: int, x, slope: bool = False):
    f = jv(nu, x)
    return (f, jv(nu - 1, x) - (nu / x) * f) if slope else f


def j_zeros_up_to(nu: int, xmax: float) -> list[float]:
    """All zeros of J_nu in (0, xmax], ascending.

    J_nu is positive on (0, j_nu,1) and j_nu,1 > nu, so the scan starts at
    nu and sign changes are bracketed with a pi/4 step (asymptotic zero
    spacing is pi, decreasing from above).
    """
    if xmax <= nu:
        return []
    zeros = _roots(partial(_j, nu), max(nu, 1e-6), xmax, math.pi / 4.0)
    residual = np.abs(jv(nu, zeros))
    if np.any(residual > 1e-12):
        i = int(np.argmax(residual))
        raise ConvergenceError(f"zero of J_{nu} at {zeros[i]} has residual {residual[i]:.3e}")
    return zeros.tolist()


def _scaled_cross(nu: int, k, ri: float, ro: float, slope: bool = False):
    """G = (J_nu(k Ri) Y_nu(k Ro) - J_nu(k Ro) Y_nu(k Ri)) / |H_nu(k Ri)|.

    The divisor never vanishes, so G has the zeros and signs of the
    cross-product, and G stays finite where Y_nu(k Ri) overflows (there
    J_nu(k Ri) is 0 and G = J_nu(k Ro)).  With (c, s) = (cos, sin) of the
    phase theta of H_nu(k Ri), the Wronskian gives theta' = 2/(pi k |H|^2).
    """
    j_in, y_in, j_out, y_out = jv(nu, k * ri), yv(nu, k * ri), jv(nu, k * ro), yv(nu, k * ro)
    m = np.hypot(j_in, y_in)
    with np.errstate(invalid="ignore", over="ignore"):
        c, s = j_in / m, np.where(np.isinf(y_in), np.sign(y_in), y_in / m)
        g = c * y_out - s * j_out
        if not slope:
            return g
        dj_out = jv(nu - 1, k * ro) - (nu / (k * ro)) * j_out
        dy_out = yv(nu - 1, k * ro) - (nu / (k * ro)) * y_out
        dtheta = 2.0 / (math.pi * k * m * m)
    return g, ro * (c * dy_out - s * dj_out) - dtheta * (s * y_out + c * j_out)


def cross_product_zeros_up_to(nu: int, r_inner: float, r_outer: float,
                              kmax: float) -> list[float]:
    """All k in (0, kmax] where the cross-product vanishes, ascending.

    Radial oscillation needs k > nu/r somewhere in the annulus, so the scan
    starts just below nu/r_outer; the asymptotic zero spacing is
    pi/(r_outer - r_inner) and the grid oversamples it 8x.
    """
    if not (0.0 < r_inner < r_outer):
        raise DomainError("need 0 < r_inner < r_outer")
    k_start = max(nu / r_outer, 1e-3) * 0.95
    if k_start >= kmax:
        return []
    cross = partial(_scaled_cross, nu, ri=r_inner, ro=r_outer)
    zeros = _roots(cross, k_start, kmax, math.pi / (8.0 * (r_outer - r_inner)))
    # Certify each root through its implied k-error |G|/|G'|; the raw
    # residual is meaningless when high orders make the slope steep.
    residual, slope = cross(zeros, slope=True)
    k_err = np.abs(residual) / np.maximum(np.abs(slope), 1e-300)
    bad = np.flatnonzero(k_err > 1e-11 * np.maximum(1.0, zeros))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(f"cross-product zero at k={zeros[i]} is only accurate to "
                               f"dk={k_err[i]:.3e} (residual {residual[i]:.3e})")
    return zeros.tolist()
