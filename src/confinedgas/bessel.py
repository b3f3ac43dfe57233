"""Zeros of cylinder functions for the spectral oracle.

J_nu and Y_nu come from ``scipy.special`` (Amos, ACM TOMS 12 (1986) 265,
Alg. 644), which implements none of the formulas the oracle checks: J_nu
from ``jv``, and Y_nu as the imaginary part of ``hankel1`` (DLMF 10.4.3,
H^(1) = J + iY), one Hankel evaluation where ``yv`` makes two.  One
pass serves every order of a shape: the orders' sampling grids are joined
and evaluated in one vectorised call, the sign changes within each order
are polished together by Newton steps safeguarded by bisection, using
C_nu' = C_(nu-1) - (nu/x) C_nu, and every root is certified.

The annulus scan needs exact values only at the two samples that bracket
each root; elsewhere it needs signs.  It takes them from one ``hankel1``
call per radius, J as Re H^(1), which is cheaper than ``jv`` but differs
from it in the last bits, and evaluates the exact cross-product at both
ends of each bracket and wherever that sign is in doubt, so the roots are
the floats an exact scan gives.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hankel1, jv

from .errors import ConvergenceError, DomainError

__all__ = ["j_zeros", "cross_product_zeros"]


def _roots(func, nu: np.ndarray, start: np.ndarray, stop: float,
           step: float, scan=None) -> list[np.ndarray]:
    """Ascending roots of ``func(nu_i, .)`` at its sign changes on the grid
    start_i, start_i + step, ..., stop, for each order nu_i up to the first
    one without a root (a scan that starts at or past ``stop`` has none);
    each is polished until its step is below 1e-15 relative.
    ``func(nu, x, slope=True)`` returns the value and derivative,
    elementwise in ``nu`` and ``x``.

    A cheaper ``scan(nu, x)`` may sample the grid instead: it returns values
    and a mask of the samples whose sign it certifies.  ``func`` then runs
    at every other sample, so every sign is ``func``'s, and at both ends of
    each sign change, so the secant starts, and with them the roots, are
    the same floats as with ``func`` everywhere."""
    below = start < stop
    if not below.all():
        nu, start = nu[:below.argmin()], start[:below.argmin()]
    size = np.ceil((stop - start) / step).astype(np.int64) + 1
    owner = np.repeat(np.arange(nu.size), size)
    local = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    grid = np.where(local < size[owner] - 1, start[owner] + step * local, stop)
    x_nu = nu[owner]
    if scan is None:
        values = func(x_nu, grid)
    else:
        values, sure = scan(x_nu, grid)
        values[~sure] = func(x_nu[~sure], grid[~sure])
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
    if scan is not None:
        ends = np.union1d(pair, pair + 1)
        ends = ends[sure[ends]]
        values[ends] = func(x_nu[ends], grid[ends])
    lo, hi, f_lo, nu_x = grid[pair], grid[pair + 1], values[pair], x_nu[pair]
    x, last = lo - f_lo * (hi - lo) / (values[pair + 1] - f_lo), hi - lo
    roots = np.empty_like(x)
    todo = np.arange(x.size)
    for _ in range(80):
        if todo.size == 0:
            break
        f, df = func(nu_x, x, slope=True)
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
    return (f, jv(nu - 1, x) - (nu / x) * f) if slope else f


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


def _y(nu, x):
    """Y_nu(x) as Im H^(1)_nu(x), bit for bit ``yv(nu, x)``.  Where Amos
    overflows, ``hankel1`` gives nan and ``yv`` -inf; the nan becomes -inf."""
    y = hankel1(nu, x).imag
    return np.where(np.isnan(y), -np.inf, y)


def _phase(j, y):
    """|H| and (cos, sin) of the phase of H = J + iY; where Y has overflowed
    to -inf (J is 0 there) they are inf and (0, -1)."""
    m = np.hypot(j, y)
    with np.errstate(invalid="ignore"):
        return m, j / m, np.where(np.isinf(y), np.sign(y), y / m)


def _scaled_cross(nu, k, ri: float, ro: float, slope: bool = False):
    """G = (J_nu(k Ri) Y_nu(k Ro) - J_nu(k Ro) Y_nu(k Ri)) / |H_nu(k Ri)|.

    The divisor never vanishes, so G has the zeros and signs of the
    cross-product, and G stays finite where Y_nu(k Ri) overflows (there
    J_nu(k Ri) is 0 and G = J_nu(k Ro)).  With (c, s) = (cos, sin) of the
    phase theta of H_nu(k Ri), the Wronskian gives theta' = 2/(pi k |H|^2).
    Each Y is one ``hankel1`` call (``_y``).  J stays on ``jv``: Re H^(1)
    differs from it in the last bits, which would move the roots.
    """
    j_in, y_in, j_out, y_out = jv(nu, k * ri), _y(nu, k * ri), jv(nu, k * ro), _y(nu, k * ro)
    m, c, s = _phase(j_in, y_in)
    with np.errstate(invalid="ignore", over="ignore"):
        g = c * y_out - s * j_out
        if not slope:
            return g
        dj_out = jv(nu - 1, k * ro) - (nu / (k * ro)) * j_out
        dy_out = _y(nu - 1, k * ro) - (nu / (k * ro)) * y_out
        dtheta = 2.0 / (math.pi * k * m * m)
    return g, ro * (c * dy_out - s * dj_out) - dtheta * (s * y_out + c * j_out)


def _scan_cross(nu, k, ri: float, ro: float):
    """G of ``_scaled_cross`` from one ``hankel1`` call per radius, J taken
    as Re H^(1), and the mask of samples whose sign it certifies:
    |G| > 1e-9 |H_nu(k Ro)|.

    Re H^(1) and ``jv`` differ by a few eps of |H|, so the two G differ by
    a few eps of |H_nu(k Ro)| (1.7e-13 of it at most over 60 seeded
    annuli): the margin is more than 1000 times that, so a certified sign
    is the exact one and the sample is not 0.  Where Amos overflows, H is
    nan, and so is G, which certifies nothing.
    """
    h_in, h_out = hankel1(nu, k * ri), hankel1(nu, k * ro)
    _, c, s = _phase(h_in.real, h_in.imag)
    with np.errstate(invalid="ignore", over="ignore"):
        g = c * h_out.imag - s * h_out.real
        return g, np.abs(g) > 1e-9 * np.abs(h_out)


def cross_product_zeros(orders, r_inner: float, r_outer: float,
                        kmax: float) -> list[np.ndarray]:
    """The k in (0, kmax] where the cross-product vanishes, ascending, for
    nu = orders[0], orders[1], ... up to the first order that has none.

    Radial oscillation needs k > nu/r somewhere in the annulus, so each scan
    starts just below nu/r_outer; the asymptotic zero spacing is
    pi/(r_outer - r_inner) and the grid oversamples it 8x.  The grid's
    signs come from ``_scan_cross``; the exact ``_scaled_cross`` runs only
    where its sign is in doubt and at both ends of each sign change, and
    it alone serves the secant starts, the polish and the certificate.
    """
    if not (0.0 < r_inner < r_outer):
        raise DomainError("need 0 < r_inner < r_outer")
    nu = np.asarray(orders)

    def cross(nu, k, slope=False):
        return _scaled_cross(nu, k, r_inner, r_outer, slope)

    def scan(nu, k):
        return _scan_cross(nu, k, r_inner, r_outer)

    table = _roots(cross, nu, np.maximum(nu / r_outer, 1e-3) * 0.95, kmax,
                   math.pi / (8.0 * (r_outer - r_inner)), scan)
    # Certify each root through its implied k-error |G|/|G'|; the raw
    # residual is meaningless when high orders make the slope steep.
    zeros, nu = _flatten(table, nu)
    residual, slope = cross(nu, zeros, slope=True)
    k_err = np.abs(residual) / np.maximum(np.abs(slope), 1e-300)
    bad = np.flatnonzero(k_err > 1e-11 * np.maximum(1.0, zeros))
    if bad.size:
        i = bad[0]
        raise ConvergenceError(f"cross-product zero of order {nu[i]} at k={zeros[i]} is only "
                               f"accurate to dk={k_err[i]:.3e} (residual {residual[i]:.3e})")
    return table
