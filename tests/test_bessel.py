"""Cross-checks of the zero finders against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import hankel1, jv, yv

import confinedgas.bessel as bessel
from confinedgas.bessel import (
    _flatten,
    _roots,
    _scaled_cross,
    _scan_cross,
    _y,
    cross_product_zeros,
    j_zeros,
)
from confinedgas.errors import ConvergenceError, DomainError

mp.mp.dps = 30


def one_order(finder, nu, *args):
    """The zeros of a single order nu, ascending, as a list: one row of
    ``finder([nu], *args)``."""
    table = finder([nu], *args)
    return table[0].tolist() if table else []


def mp_cross(nu, k, ri, ro):
    """J_nu(k Ri) Y_nu(k Ro) - J_nu(k Ro) Y_nu(k Ri) in mpmath."""
    k = mp.mpf(k)
    return (mp.besselj(nu, k * ri) * mp.bessely(nu, k * ro)
            - mp.besselj(nu, k * ro) * mp.bessely(nu, k * ri))


class TestJZeros:
    def test_first_zeros_match_mpmath(self):
        for nu in (0, 1, 2, 5, 11):
            zeros = one_order(j_zeros, nu, 60.0)
            for k, z in enumerate(zeros[:6], start=1):
                want = float(mp.besseljzero(nu, k))
                assert abs(z - want) < 1e-11, (nu, k)

    def test_residual_invariant(self):
        """|J_nu(zero)| < 1e-12 at every returned zero."""
        for nu in (0, 3, 9):
            for z in one_order(j_zeros, nu, 50.0):
                assert abs(float(mp.besselj(nu, z))) < 1e-12

    def test_zero_counts_complete(self):
        for nu in (0, 1, 4):
            zeros = one_order(j_zeros, nu, 45.0)
            want = 0
            k = 1
            while float(mp.besseljzero(nu, k)) <= 45.0:
                want += 1
                k += 1
            assert len(zeros) == want

    def test_unit_disk_cutoff_2000_against_mpmath(self):
        """Every order below jmax = sqrt(2 * 2000) on the unit disk: the
        sampled orders match mp.besseljzero zero by zero, to 1e-13."""
        jmax = math.sqrt(2.0 * 2000.0)
        for nu in (0, 1, 7, 19, 33, 50, 62):
            zeros = one_order(j_zeros, nu, jmax)
            want = []
            while (w := float(mp.besseljzero(nu, len(want) + 1))) <= jmax:
                want.append(w)
            assert len(zeros) == len(want), nu
            for z, w in zip(zeros, want):
                assert abs(z - w) <= 1e-13 * w, (nu, z, w)

    def test_interlacing(self):
        """j_(nu,k) < j_(nu+1,k) < j_(nu,k+1)."""
        a = one_order(j_zeros, 2, 40.0)
        b = one_order(j_zeros, 3, 40.0)
        for k in range(min(len(b), len(a) - 1)):
            assert a[k] < b[k] < a[k + 1]

    def test_strictly_increasing(self):
        zeros = one_order(j_zeros, 7, 60.0)
        assert all(x < y for x, y in zip(zeros, zeros[1:]))


class TestCrossProductZeros:
    def test_roots_annihilate_mpmath_cross_product(self):
        ri, ro = 1.0, 2.0
        zeros = one_order(cross_product_zeros, 0, ri, ro, 20.0)
        assert len(zeros) >= 5
        for k in zeros:
            assert abs(float(mp_cross(0, k, ri, ro))) < 1e-11

    def test_asymptotic_spacing(self):
        """Large-k spacing approaches pi/(Ro - Ri) on every branch."""
        for nu in (0, 1, 3):
            zeros = one_order(cross_product_zeros, nu, 1.0, 2.0, 60.0)
            gaps = np.diff(zeros[-5:])
            assert np.allclose(gaps, math.pi, atol=0.02)

    def test_thin_annulus_radial_box_limit(self):
        """Lowest k -> pi/(Ro - Ri) as the annulus thins."""
        ri, ro = 10.0, 10.2
        zeros = one_order(cross_product_zeros, 0, ri, ro, 40.0)
        want = math.pi / (ro - ri)
        assert zeros[0] == pytest.approx(want, rel=5e-4)

    def test_high_order_branch(self):
        zeros = one_order(cross_product_zeros, 25, 1.0, 2.0, 30.0)
        assert zeros, "order-25 branch must contribute below k=30"
        for k in zeros:
            assert k > 25.0 / 2.0
            assert abs(float(mp_cross(25, k, 1.0, 2.0))) < 1e-8

    @pytest.mark.parametrize("nu, ri, ro, kmax", [
        (40, 0.1, 1.0, 80.0),
        (280, 0.05, 1.0, 320.0),
        (300, 0.05, 1.0, 330.0),
    ])
    def test_overflow_prone_annuli(self, nu, ri, ro, kmax):
        """Small holes at high order: Y_nu(k Ri) is huge or overflows.

        Where it overflows, the naive cross-product is inf * 0; the roots
        must still be found and each must bracket an mpmath root to 1e-13.
        """
        zeros = one_order(cross_product_zeros, nu, ri, ro, kmax)
        assert zeros and not np.any(np.isnan(zeros))
        if nu >= 280:
            assert np.isinf(yv(nu, ri * zeros[0]))
        for k in zeros:
            # A sign change across k (1 -+ 1e-13) puts a true root within 1e-13.
            lo, hi = mp_cross(nu, k * (1 - 1e-13), ri, ro), mp_cross(nu, k * (1 + 1e-13), ri, ro)
            assert mp.sign(lo) * mp.sign(hi) < 0, (k, lo, hi)

    def test_scaled_slope_matches_mpmath(self):
        """The Newton slope and the |G|/|G'| certificate use the Wronskian
        form of d/dk [cross-product / |H_nu(k Ri)|]; check it against an
        mpmath derivative, including where Y_nu(k Ri) overflows."""
        def scaled(nu, k, ri, ro):
            j_in, y_in = mp.besselj(nu, k * ri), mp.bessely(nu, k * ri)
            return mp_cross(nu, k, ri, ro) / mp.sqrt(j_in**2 + y_in**2)

        for nu, k, ri, ro in ((0, 3.3, 1.0, 2.0), (25, 17.0, 1.0, 2.0),
                              (40, 50.0, 0.1, 1.0), (300, 315.0, 0.05, 1.0),
                              (3, 20.0, 10.0, 10.2)):
            g, dg = _scaled_cross(nu, np.array([k]), ri, ro, slope=True)
            want = float(mp.diff(lambda t: scaled(nu, t, ri, ro), k))
            assert abs(g[0] - float(scaled(nu, k, ri, ro))) <= 1e-13
            assert abs(dg[0] - want) <= 1e-13 * abs(want), (nu, k)

    def test_domain(self):
        for ri, ro in ((0.0, 1.0), (2.0, 1.0), (1.0, 1.0), (-1.0, 2.0)):
            with pytest.raises(DomainError):
                one_order(cross_product_zeros, 0, ri, ro, 10.0)


def jv_yv_scaled_cross(nu, k, ri, ro, slope=False):
    """``_scaled_cross`` as written on ``jv`` and ``yv``: the reference the
    Hankel form must reproduce bit for bit."""
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


def assert_same_bits(got, want, what):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert not np.isnan(want).any(), what
    differ = np.flatnonzero(got.view(np.uint64) != want.view(np.uint64))
    assert differ.size == 0, (
        f"{what}: {differ.size} of {got.size} values differ, first {got[differ[0]]!r} "
        f"against {want[differ[0]]!r}; the Hankel form no longer reproduces jv/yv bit "
        f"for bit, so the oracle's output bytes would change")


class TestHankelIdentity:
    """The finder takes Y_nu from ``hankel1``, one Amos evaluation, where
    ``yv`` makes two.  These tests pin the identities that keep the spectra
    byte-identical, so a scipy upgrade that breaks one fails here by name."""

    def test_y_is_yv_bit_for_bit(self):
        rng = np.random.default_rng(19)
        nu = rng.integers(-1, 401, 60_000)
        x = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), nu.size))
        want = yv(nu, x)
        assert np.isneginf(want).any() and np.isfinite(want).any()
        assert_same_bits(_y(nu, x), want, "Im hankel1 against yv")

    @pytest.mark.parametrize("ri, ro, orders, kmax", [
        (1.0, 2.0, range(60), math.sqrt(2.0 * 355.0)),
        (0.1, 1.0, [40], 80.0),
        (0.05, 1.0, range(280, 301), 330.0),
        (10.0, 10.2, range(200), math.sqrt(2.0 * 300.0)),
    ])
    def test_scaled_cross_is_the_jv_yv_formula_bit_for_bit(self, ri, ro, orders, kmax):
        """On the finder's roots and on seeded points of each order's scan
        range, values and slopes equal the jv/yv formula's, overflow included."""
        rng = np.random.default_rng(int(1000 * ri + ro))
        orders = np.asarray(orders)
        nu = rng.choice(orders, 4000)
        k = rng.uniform(np.minimum(np.maximum(nu / ro, 1e-3) * 0.95, kmax), kmax)
        zeros, zero_nu = _flatten(cross_product_zeros(orders, ri, ro, kmax), orders)
        nu, k = np.concatenate([nu, zero_nu]), np.concatenate([k, zeros])
        assert_same_bits(_scaled_cross(nu, k, ri, ro), jv_yv_scaled_cross(nu, k, ri, ro),
                         "G")
        g, dg = _scaled_cross(nu, k, ri, ro, slope=True)
        want_g, want_dg = jv_yv_scaled_cross(nu, k, ri, ro, slope=True)
        assert_same_bits(g, want_g, "G with slope")
        assert_same_bits(dg, want_dg, "G'")


def sampling_grid(nu, start, stop, step):
    """The scan's grid: each order's samples start_i, start_i + step, ...,
    stop, with the order each belongs to (orders from the first one that
    starts at or past ``stop`` are dropped)."""
    below = start < stop
    if not below.all():
        nu, start = nu[:below.argmin()], start[:below.argmin()]
    size = np.ceil((stop - start) / step).astype(np.int64) + 1
    owner = np.repeat(np.arange(nu.size), size)
    local = np.arange(owner.size) - np.repeat(np.cumsum(size) - size, size)
    return nu, owner, np.where(local < size[owner] - 1, start[owner] + step * local, stop)


def exact_scan_roots(func, nu, start, stop, step):
    """``bessel._roots`` as it was before the sign scan: ``func`` at every
    sample.  The reference the scan must reproduce bit for bit."""
    nu, owner, grid = sampling_grid(nu, start, stop, step)
    values = func(nu[owner], grid)
    pair = np.flatnonzero((owner[:-1] == owner[1:])
                          & (np.sign(values[:-1]) * np.sign(values[1:]) < 0.0))
    on_grid = values == 0.0
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
    lo, hi, f_lo, nu_x = grid[pair], grid[pair + 1], values[pair], nu[owner[pair]]
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


def annulus_scan(ri, ro, cutoff):
    """The orders, start points, end and step of ``annulus_spectrum``'s
    cross-product scan."""
    kmax = math.sqrt(2.0 * cutoff)
    nu = np.arange(int(kmax * ro / 0.95) + 2)
    return nu, np.maximum(nu / ro, 1e-3) * 0.95, kmax, math.pi / (8.0 * (ro - ri))


def seeded_annuli():
    """60 seeded annuli (ri, ro, cutoff) with thin ones, small holes down to
    ri/ro = 1e-300, and orders 280-300 at (0.05, 1)."""
    rng = np.random.default_rng(20)
    cases = [(10.0, 10.2, 300.0), (0.01, 1.0, 400.0), (1e-8, 1.0, 600.0),
             (1e-300, 1.0, 200.0), (0.05, 1.0, 330.0**2 / 2.0)]
    while len(cases) < 60:
        ro = float(np.exp(rng.uniform(math.log(0.3), math.log(3.0))))
        ri = ro * float(np.exp(rng.uniform(math.log(1e-3), math.log(0.97))))
        # At least two radial zeros of order 0, near pi/(ro - ri) apart.
        cutoff = max(float(rng.uniform(200.0, 800.0)) / (ro * ro),
                     0.5 * (2.5 * math.pi / (ro - ri))**2)
        cases.append((ri, ro, cutoff))
    return cases


class TestSignScan:
    """The scan takes signs from one ``hankel1`` call per radius and the
    exact cross-product only where a sign is in doubt or a root is
    bracketed; the roots must stay the floats of the exact scan."""

    def test_roots_equal_the_exact_scan_bit_for_bit(self):
        worst, samples = 0.0, 0
        for ri, ro, cutoff in seeded_annuli():
            nu, start, kmax, step = annulus_scan(ri, ro, cutoff)
            if (ri, ro) == (0.05, 1.0):
                nu, start = nu[280:301], start[280:301]
            got = cross_product_zeros(nu, ri, ro, kmax)
            want = exact_scan_roots(lambda n, k, slope=False: _scaled_cross(n, k, ri, ro, slope),
                                    nu, start, kmax, step)
            assert got and len(got) == len(want), (ri, ro, cutoff)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (ri, ro, cutoff)
            # The margin: the scan's G is within 1e-12 |H_nu(k Ro)| of the
            # exact G, and a certified sign is the exact, non-zero sign.
            nu, owner, grid = sampling_grid(nu, start, kmax, step)
            nu = nu[owner]
            g_scan, sure = _scan_cross(nu, grid, ri, ro)
            g = _scaled_cross(nu, grid, ri, ro)
            both = np.isfinite(g_scan) & np.isfinite(g)
            worst = max(worst, float(np.max(np.abs(g_scan - g)[both]
                                            / np.abs(hankel1(nu, grid * ro))[both],
                                            initial=0.0)))
            samples += int(both.sum())
            assert np.all(np.sign(g[sure]) == np.sign(g_scan[sure])), (ri, ro, cutoff)
            assert np.all(g[sure] != 0.0), (ri, ro, cutoff)
        assert samples > 50_000
        assert worst <= 1e-12

    def test_exact_values_only_at_brackets_and_doubtful_samples(self, monkeypatch):
        """annulus:1,2 at cutoff 355: the exact cross-product runs at both
        ends of each root's bracket and at the samples whose sign the scan
        could not certify, not at every sample."""
        exact, doubtful, scanned = [], [], []

        def counting_exact(nu, k, ri, ro, slope=False):
            if not slope:
                exact.append(np.size(k))
            return _scaled_cross(nu, k, ri, ro, slope)

        def counting_scan(nu, k, ri, ro):
            g, sure = _scan_cross(nu, k, ri, ro)
            scanned.append(sure.size)
            doubtful.append(int((~sure).sum()))
            return g, sure

        monkeypatch.setattr(bessel, "_scaled_cross", counting_exact)
        monkeypatch.setattr(bessel, "_scan_cross", counting_scan)
        nu, _, kmax, _ = annulus_scan(1.0, 2.0, 355.0)
        roots = sum(t.size for t in cross_product_zeros(nu, 1.0, 2.0, kmax))
        assert roots > 200 and sum(scanned) > 2000
        assert sum(exact) <= 2 * roots + sum(doubtful)


def one_order_at_a_time(finder, orders):
    """The one-order finder run order by order up to the first empty order:
    the zeros of each order before it, and that order (None if none is
    empty)."""
    table = []
    for nu in orders:
        zeros = finder(nu)
        if not zeros:
            return table, nu
        table.append(zeros)
    return table, None


def assert_same_table(batched, orders, finder):
    """Each order of the batched table equals the one-order finder by
    float.hex, with the same counts and the same first empty order."""
    want, empty = one_order_at_a_time(finder, orders)
    assert len(batched) == len(want)
    assert empty == (orders[len(batched)] if len(batched) < len(orders) else None)
    for nu, got, zeros in zip(orders, batched, want):
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in zeros], nu


class TestBatchedTables:
    @pytest.mark.parametrize("R, cutoff", [(1.0, 520.0), (1.5, 231.0)])
    def test_disk_table_matches_one_order_finder(self, R, cutoff):
        jmax = R * math.sqrt(2.0 * cutoff)
        orders = range(math.ceil(jmax))
        table = j_zeros(orders, jmax)
        assert len(table) < len(orders)
        assert_same_table(table, orders, lambda nu: one_order(j_zeros, nu, jmax))

    @pytest.mark.parametrize("ri, ro, cutoff, orders", [
        (1.0, 2.0, 355.0, range(60)),
        (0.05, 1.0, 330.0**2 / 2.0, range(280, 301)),
        (10.0, 10.2, 300.0, range(200)),
    ])
    def test_annulus_table_matches_one_order_finder(self, ri, ro, cutoff, orders):
        kmax = math.sqrt(2.0 * cutoff)
        table = cross_product_zeros(orders, ri, ro, kmax)
        assert table
        assert_same_table(table, orders,
                          lambda nu: one_order(cross_product_zeros, nu, ri, ro, kmax))

    def test_empty_and_out_of_range_orders(self):
        assert j_zeros([], 10.0) == []
        assert j_zeros([12, 0], 10.0) == []
        assert cross_product_zeros([40, 0], 1.0, 2.0, 10.0) == []
        assert [t.size for t in j_zeros([0, 1, 30, 2], 10.0)] == [3, 2]

    def test_non_finite_samples_raise_only_before_the_first_empty_order(self):
        """cos x - nu has zeros for nu = 0 and none for nu = 2; order 3 samples
        NaN.  An order-by-order scan reaches order 3 only without order 2.
        The same holds when a sign scan samples the grid: it certifies no
        NaN, so the exact function is evaluated there and raises."""
        def fake(nu, x, slope=False):
            f = np.where(nu == 3, np.nan, np.cos(x) - nu)
            return (f, -np.sin(x)) if slope else f

        def fake_scan(nu, x):
            f = fake(nu, x).astype(np.float32).astype(float)
            return f, np.abs(f) > 1e-3

        def scan(orders, sign_scan):
            nu = np.array(orders)
            return _roots(fake, nu, np.full(nu.size, 0.5), 10.0, 0.25, sign_scan)

        for sign_scan in (None, fake_scan):
            with pytest.raises(ConvergenceError, match="non-finite"):
                scan([0, 3, 2], sign_scan)
            table = scan([0, 2, 3], sign_scan)
            assert len(table) == 1
            np.testing.assert_allclose(table[0], [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2],
                                       rtol=1e-15)
