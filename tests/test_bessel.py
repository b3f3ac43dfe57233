"""Cross-checks of the zero finders against mpmath."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import yv

from confinedgas.bessel import _scaled_cross, cross_product_zeros_up_to, j_zeros_up_to
from confinedgas.errors import DomainError

mp.mp.dps = 30


def mp_cross(nu, k, ri, ro):
    """J_nu(k Ri) Y_nu(k Ro) - J_nu(k Ro) Y_nu(k Ri) in mpmath."""
    k = mp.mpf(k)
    return (mp.besselj(nu, k * ri) * mp.bessely(nu, k * ro)
            - mp.besselj(nu, k * ro) * mp.bessely(nu, k * ri))


class TestJZeros:
    def test_first_zeros_match_mpmath(self):
        for nu in (0, 1, 2, 5, 11):
            zeros = j_zeros_up_to(nu, 60.0)
            for k, z in enumerate(zeros[:6], start=1):
                want = float(mp.besseljzero(nu, k))
                assert abs(z - want) < 1e-11, (nu, k)

    def test_residual_invariant(self):
        """|J_nu(zero)| < 1e-12 at every returned zero."""
        for nu in (0, 3, 9):
            for z in j_zeros_up_to(nu, 50.0):
                assert abs(float(mp.besselj(nu, z))) < 1e-12

    def test_zero_counts_complete(self):
        for nu in (0, 1, 4):
            zeros = j_zeros_up_to(nu, 45.0)
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
            zeros = j_zeros_up_to(nu, jmax)
            want = []
            while (w := float(mp.besseljzero(nu, len(want) + 1))) <= jmax:
                want.append(w)
            assert len(zeros) == len(want), nu
            for z, w in zip(zeros, want):
                assert abs(z - w) <= 1e-13 * w, (nu, z, w)

    def test_interlacing(self):
        """j_(nu,k) < j_(nu+1,k) < j_(nu,k+1)."""
        a = j_zeros_up_to(2, 40.0)
        b = j_zeros_up_to(3, 40.0)
        for k in range(min(len(b), len(a) - 1)):
            assert a[k] < b[k] < a[k + 1]

    def test_strictly_increasing(self):
        zeros = j_zeros_up_to(7, 60.0)
        assert all(x < y for x, y in zip(zeros, zeros[1:]))


class TestCrossProductZeros:
    def test_roots_annihilate_mpmath_cross_product(self):
        ri, ro = 1.0, 2.0
        zeros = cross_product_zeros_up_to(0, ri, ro, 20.0)
        assert len(zeros) >= 5
        for k in zeros:
            assert abs(float(mp_cross(0, k, ri, ro))) < 1e-11

    def test_asymptotic_spacing(self):
        """Large-k spacing approaches pi/(Ro - Ri) on every branch."""
        for nu in (0, 1, 3):
            zeros = cross_product_zeros_up_to(nu, 1.0, 2.0, 60.0)
            gaps = np.diff(zeros[-5:])
            assert np.allclose(gaps, math.pi, atol=0.02)

    def test_thin_annulus_radial_box_limit(self):
        """Lowest k -> pi/(Ro - Ri) as the annulus thins."""
        ri, ro = 10.0, 10.2
        zeros = cross_product_zeros_up_to(0, ri, ro, 40.0)
        want = math.pi / (ro - ri)
        assert zeros[0] == pytest.approx(want, rel=5e-4)

    def test_high_order_branch(self):
        zeros = cross_product_zeros_up_to(25, 1.0, 2.0, 30.0)
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
        zeros = cross_product_zeros_up_to(nu, ri, ro, kmax)
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
                cross_product_zeros_up_to(0, ri, ro, 10.0)
