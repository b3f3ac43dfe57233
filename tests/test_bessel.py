"""Cross-checks of the zero finders against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import hankel1, yv

import confinedgas.bessel as bessel
from confinedgas.bessel import (
    _flatten,
    _roots,
    _scaled_cross,
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


def mp_scaled_cross(nu, k, ri, ro):
    """``_scaled_cross``'s G in mpmath."""
    k = mp.mpf(k)
    j_in, y_in = mp.besselj(nu, k * ri), mp.bessely(nu, k * ri)
    return mp_cross(nu, k, ri, ro) / mp.sqrt(j_in**2 + y_in**2)


class TestHankelIdentity:
    """The annulus finder takes J_nu and Y_nu from one ``hankel1`` call per
    radius (H^(1) = J + iY), in the scan, the polish and the certificate.
    These tests check that form and its roots against mpmath, so a scipy
    upgrade that loses accuracy fails here by name."""

    @pytest.mark.parametrize("ri, ro, orders, kmax", [
        (1.0, 2.0, range(60), math.sqrt(2.0 * 355.0)),
        (0.1, 1.0, [40], 80.0),
        (0.05, 1.0, range(280, 301), 330.0),
        (10.0, 10.2, range(200), math.sqrt(2.0 * 300.0)),
    ])
    def test_scaled_cross_matches_mpmath(self, ri, ro, orders, kmax):
        """On seeded points of each order's scan range, overflow at k Ri
        included, |G - G_mp| <= 2e-13 |H_nu(k Ro)| (5.5e-14 measured)."""
        rng = np.random.default_rng(int(1000 * ri + ro))
        orders = np.asarray(orders)
        nu = rng.choice(orders, 150)
        k = rng.uniform(np.minimum(np.maximum(nu / ro, 1e-3) * 0.95, kmax), kmax)
        g = _scaled_cross(nu, k, ri, ro)
        scale = np.abs(hankel1(nu, k * ro))
        want = np.array([float(mp_scaled_cross(int(n), x, ri, ro)) for n, x in zip(nu, k)])
        worst = int(np.argmax(np.abs(g - want) / scale))
        assert abs(g[worst] - want[worst]) <= 2e-13 * scale[worst], (nu[worst], k[worst])
        if ri == 0.05:
            assert np.isnan(hankel1(nu, k * ri)).any()

    def test_annulus_roots_within_2_5_eps_of_mpmath(self):
        """Every root of annulus:1,2 at cutoff 300 (210 of them) brackets a
        sign change of the mpmath cross-product across k (1 -+ 2.5 eps)."""
        kmax = math.sqrt(2.0 * 300.0)
        orders = np.arange(int(kmax * 2.0 / 0.95) + 2)
        zeros, nu = _flatten(cross_product_zeros(orders, 1.0, 2.0, kmax), orders)
        assert zeros.size == 210
        width = mp.mpf(2.5) * mp.mpf(2) ** -52
        for n, k in zip(nu.tolist(), zeros.tolist()):
            lo = mp_cross(n, mp.mpf(k) * (1 - width), 1.0, 2.0)
            hi = mp_cross(n, mp.mpf(k) * (1 + width), 1.0, 2.0)
            assert mp.sign(lo) * mp.sign(hi) < 0, (n, k)


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


def annulus_scan(ri, ro, cutoff):
    """The orders, start points, end and step of ``annulus_spectrum``'s
    cross-product scan."""
    kmax = math.sqrt(2.0 * cutoff)
    nu = np.arange(int(kmax * ro / 0.95) + 2)
    return nu, np.maximum(nu / ro, 1e-3) * 0.95, kmax, math.pi / (8.0 * (ro - ri))


def counted_zeros(monkeypatch, ri, ro, cutoff):
    """``cross_product_zeros`` over ``annulus_spectrum``'s orders, with the
    values of each value-only evaluation of G it made and the size of each
    slope evaluation."""
    plain, slopes = [], []

    def counting(nu, k, ri, ro, slope=False, floor=False):
        out = _scaled_cross(nu, k, ri, ro, slope, floor)
        if slope:
            slopes.append(np.size(k))
        else:
            plain.append(out)
        return out

    monkeypatch.setattr(bessel, "_scaled_cross", counting)
    nu, _, kmax, _ = annulus_scan(ri, ro, cutoff)
    return cross_product_zeros(nu, ri, ro, kmax), plain, slopes


class TestEvaluationCounts:
    """The scan evaluates G once per grid sample, and the polish stops
    once G is inside its noise floor."""

    def test_each_grid_sample_evaluated_once_and_finite(self, monkeypatch):
        """annulus:1e-8,1 at cutoff 2000: every one of the 5542 grid samples
        gets one finite G, the 948 where Amos overflows at k Ri included."""
        ri, ro = 1e-8, 1.0
        table, plain, _ = counted_zeros(monkeypatch, ri, ro, 2000.0)
        assert sum(t.size for t in table) == 496
        nu, owner, grid = sampling_grid(*annulus_scan(ri, ro, 2000.0))
        assert grid.size == 5542 == sum(g.size for g in plain)
        assert all(np.isfinite(g).all() for g in plain)
        assert np.isnan(hankel1(nu[owner], grid * ri)).sum() == 948

    def test_thin_annulus_polish_cost(self, monkeypatch):
        """annulus:10,10.2 at cutoff 300: at most 5 slope evaluations per
        root, the certificate's included (12.5 with the 1e-15 step stop
        alone, where rounding noise sent Newton into whole-bracket bisection)."""
        table, _, slopes = counted_zeros(monkeypatch, 10.0, 10.2, 300.0)
        roots = sum(t.size for t in table)
        assert roots == 190
        assert sum(slopes) <= 5 * roots


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
        NaN.  An order-by-order scan reaches order 3 only without order 2."""
        def fake(nu, x, slope=False):
            f = np.where(nu == 3, np.nan, np.cos(x) - nu)
            return (f, -np.sin(x), 0.0) if slope else f

        def scan(orders):
            nu = np.array(orders)
            return _roots(fake, nu, np.full(nu.size, 0.5), 10.0, 0.25)

        with pytest.raises(ConvergenceError, match="non-finite"):
            scan([0, 3, 2])
        table = scan([0, 2, 3])
        assert len(table) == 1
        np.testing.assert_allclose(table[0], [math.pi / 2, 3 * math.pi / 2, 5 * math.pi / 2],
                                   rtol=1e-15)
