"""Tests for the unified Bose/Fermi integral family."""

import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinedgas import statfun
from confinedgas.errors import AccuracyError, DomainError
from confinedgas.statfun import (
    ALL_ORDERS,
    FIVE_HALVES,
    HALF,
    MINUS_HALF,
    MINUS_ONE,
    ONE,
    THREE_HALVES,
    TWO,
    ZERO,
    Method,
    Order,
    StatKind,
    bose_limit_at_unity,
    eval_h,
    eval_h_closed_form,
    eval_h_inversion,
    eval_h_series,
    h_orders,
)
from conftest import de_quad_h, de_quad_h_lowered

BOSE, FERMI = StatKind.BOSE, StatKind.FERMI

ZETA_32 = 2.6123753486854883
ZETA_2 = 1.6449340668482264
ZETA_52 = 1.3414872572509172


def mp_h(stat, sigma, z):
    """High-precision reference via mpmath's polylog."""
    mp.mp.dps = 30
    v = mp.polylog(sigma, z) if stat is BOSE else -mp.polylog(sigma, -z)
    return float(mp.re(v))


class TestOrder:
    def test_allowed_orders(self):
        assert Order.of(1.5) == THREE_HALVES
        assert Order.of(-0.5) == MINUS_HALF
        assert str(THREE_HALVES) == "3/2"
        assert str(TWO) == "2"

    def test_unsupported_orders_rejected(self):
        with pytest.raises(DomainError):
            Order.of(0.25)
        with pytest.raises(DomainError):
            Order.of(3.0)
        with pytest.raises(DomainError):
            Order(7)

    def test_lowered(self):
        assert THREE_HALVES.lowered() == HALF
        with pytest.raises(DomainError):
            MINUS_ONE.lowered()


class TestClosedForms:
    def test_g1_is_minus_log(self):
        fv = eval_h(BOSE, 1, 0.5)
        assert fv.method is Method.CLOSED_FORM
        assert abs(fv.value - (-math.log(0.5))) < 1e-15

    def test_g0_f0_gm1(self):
        assert abs(eval_h_closed_form(BOSE, 0, 0.5).value - 1.0) < 1e-15
        assert abs(eval_h_closed_form(FERMI, 0, 0.5).value - 1.0 / 3.0) < 1e-15
        assert abs(eval_h_closed_form(BOSE, -1, 0.5).value - 2.0) < 1e-15

    def test_f1_is_log1p(self):
        assert abs(eval_h(FERMI, 1, 1.0).value - math.log(2.0)) < 1e-15

    def test_closed_form_rejects_other_orders(self):
        with pytest.raises(DomainError):
            eval_h_closed_form(BOSE, 1.5, 0.5)

    def test_closed_form_rejects_bose_unity(self):
        with pytest.raises(DomainError):
            eval_h_closed_form(BOSE, 1, 1.0)


class TestSeries:
    def test_series_matches_closed_forms(self):
        """Direct series vs exact closed forms, 200 z points, 1e-12 abs."""
        for stat in (BOSE, FERMI):
            for sigma in (ONE, ZERO, MINUS_ONE):
                for z in np.linspace(0.005, 0.95, 200):
                    got = eval_h_series(stat, sigma, float(z), tail_bound=1e-13)
                    want = eval_h_closed_form(stat, sigma, float(z))
                    assert abs(got.value - want.value) < 1e-12, (stat, sigma, z)

    def test_series_leading_term(self):
        z = 1e-9
        fv = eval_h_series(BOSE, TWO, z)
        assert abs(fv.value / z - 1.0) < 1e-8

    def test_fermi_series_vs_log(self):
        got = eval_h_series(FERMI, ONE, 0.9)
        assert abs(got.value - math.log(1.9)) < 1e-12

    def test_series_agrees_with_quadrature_near_switch(self):
        s = eval_h_series(BOSE, THREE_HALVES, 0.99)
        q = de_quad_h(BOSE, 1.5, 0.99)
        assert abs(s.value - q) < s.abs_error_bound + 1e-11

    def test_series_reports_terms_and_bound(self):
        fv = eval_h_series(BOSE, HALF, 0.9, tail_bound=1e-12)
        assert fv.terms is not None and fv.terms > 10
        truth = mp_h(BOSE, 0.5, 0.9)
        assert abs(fv.value - truth) <= fv.abs_error_bound

    def test_term_cap_raises_accuracy_error(self):
        with pytest.raises(AccuracyError) as err:
            eval_h_series(BOSE, HALF, 1.0 - 1e-8, tail_bound=1e-12, term_cap=10**5)
        assert err.value.achieved is not None

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            eval_h_series(BOSE, ONE, 1.0)
        with pytest.raises(DomainError):
            eval_h_series(BOSE, ONE, 0.5, tail_bound=-1.0)


class TestQuadratureAndRecurrence:
    """Fermi z > 0.99 against the integral-representation (quadrature) and
    order-recurrence comparators of conftest, and against mpmath."""

    def test_fermi_unity_anchors(self):
        """f_sigma(1) = (1 - 2^(1-sigma)) zeta(sigma), within the bound."""
        for sigma, zeta in ((THREE_HALVES, ZETA_32), (TWO, ZETA_2), (FIVE_HALVES, ZETA_52)):
            want = (1.0 - 2.0 ** (1.0 - sigma.value)) * zeta
            got = eval_h(FERMI, sigma, 1.0)
            assert abs(got.value - want) <= got.abs_error_bound + 4e-16, sigma
            assert abs(got.value - want) < 1e-12, sigma

    def test_f32_at_z2(self):
        got = eval_h(FERMI, THREE_HALVES, 2.0)
        oracle = de_quad_h(FERMI, 1.5, 2.0)
        assert abs(got.value - oracle) < 1e-11
        assert abs(got.value - 1.2813803831597696) < 1e-12

    def test_inversion_rejects_bose_and_closed_form_orders(self):
        with pytest.raises(DomainError):
            eval_h_inversion(BOSE, THREE_HALVES, 0.5)
        for sigma in (ONE, ZERO, MINUS_ONE):
            with pytest.raises(DomainError):
                eval_h_inversion(FERMI, sigma, 2.0)
        for z in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError):
                eval_h_inversion(FERMI, HALF, z)

    def test_recurrence_matches_series_below_switch(self):
        """Order -1/2, formerly the order-recurrence route, just below the switch."""
        s = eval_h_series(FERMI, MINUS_HALF, 0.98)
        r = eval_h_inversion(FERMI, MINUS_HALF, 0.98)
        assert abs(s.value - r.value) <= s.abs_error_bound + r.abs_error_bound

    def test_recurrence_matches_lowered_oracle(self):
        for z in (1.5, 10.0, 1e4):
            got = eval_h(FERMI, MINUS_HALF, z)
            assert abs(got.value - de_quad_h_lowered(-0.5, z)) < 1e-11
            assert abs(got.value - mp_h(FERMI, -0.5, z)) <= got.abs_error_bound

    def test_minus_half_regression_near_ten(self):
        """The point where the former order-recurrence bound failed by 200x."""
        z = 10.004453755819583
        got = eval_h(FERMI, MINUS_HALF, z)
        assert got.method is Method.INVERSION
        assert abs(got.value - mp_h(FERMI, -0.5, z)) <= got.abs_error_bound < 1e-12

    def test_log_sweep_against_mpmath(self):
        """|value - mpmath| <= bound <= contract on [0.99, 1e8], all five orders."""
        for sigma in (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES):
            for z in np.geomspace(0.99, 1e8, 41)[1:]:
                got = eval_h(FERMI, sigma, float(z))
                err = abs(got.value - mp_h(FERMI, sigma.value, float(z)))
                assert err <= got.abs_error_bound <= max(1e-10, 1e-10 * abs(got.value)), (
                    sigma, z, err, got.abs_error_bound)

    def test_bernoulli_constants(self):
        for j, b in enumerate(statfun._BERNOULLI_2J, start=1):
            assert b == Fraction(*(int(v) for v in mp.bernfrac(2 * j))), j

    def test_large_z_cap(self):
        with pytest.raises(DomainError):
            eval_h(FERMI, THREE_HALVES, 2e8)
        assert eval_h(FERMI, THREE_HALVES, 2e8, z_max=1e9).value > 0


class TestBoseLimitAtUnity:
    def test_zeta_values(self):
        assert abs(bose_limit_at_unity(TWO).value - 1.6449340668) < 1e-9
        assert abs(bose_limit_at_unity(THREE_HALVES).value - 2.6123753487) < 1e-9
        assert abs(bose_limit_at_unity(FIVE_HALVES).value - ZETA_52) < 1e-12

    def test_divergent_orders(self):
        for sigma in (ONE, HALF, ZERO, MINUS_HALF, MINUS_ONE):
            with pytest.raises(DomainError):
                bose_limit_at_unity(sigma)

    def test_series_consistency_near_unity(self):
        # g_3/2(0.9999) frozen from a 40-digit polylog evaluation.
        got = eval_h_series(BOSE, THREE_HALVES, 0.9999, tail_bound=1e-12)
        assert abs(got.value - 2.5770714271060549) < 1e-10
        # The square-root cusp extrapolates to zeta(3/2) at z -> 1.
        alpha = -math.log1p(-1e-4)
        extrapolated = got.value + 2.0 * math.sqrt(math.pi * alpha)
        assert abs(extrapolated - ZETA_32) < 2e-4

    def test_eval_h_routes_bose_unity(self):
        assert eval_h(BOSE, 2, 1.0).value == pytest.approx(ZETA_2, abs=1e-13)
        with pytest.raises(DomainError):
            eval_h(BOSE, 1, 1.0)


class TestDispatcherDomain:
    def test_bose_beyond_unity(self):
        with pytest.raises(DomainError):
            eval_h(BOSE, 2, 1.5)

    def test_nonpositive_z(self):
        for z in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError):
                eval_h(BOSE, 2, z)


def _route(stat, sigma, z, tail=1e-12):
    """h_sigma(z) from the single-route function that owns (stat, sigma, z)."""
    if stat is BOSE and z == 1.0:
        return bose_limit_at_unity(sigma)
    if sigma in (ONE, ZERO, MINUS_ONE):
        return eval_h_closed_form(stat, sigma, z)
    if stat is BOSE or z <= statfun.METHOD_SWITCH_Z:
        return eval_h_series(stat, sigma, z, tail_bound=tail)
    return eval_h_inversion(stat, sigma, z)


def _bits(fv):
    return (fv.value.hex(), fv.abs_error_bound.hex(), fv.method, fv.terms)


def _expected(stat, z, orders, tails):
    """The route values for every order, or the first route's error."""
    out = []
    for sigma, tail in zip(orders, tails):
        try:
            out.append(_bits(_route(stat, sigma, z, tail)))
        except (AccuracyError, DomainError) as exc:
            return type(exc), getattr(exc, "achieved", None)
    return tuple(out)


def _batched(stat, z, orders, tails=None):
    try:
        return tuple(_bits(fv) for fv in h_orders(stat, z, orders, tail_bounds=tails))
    except (AccuracyError, DomainError) as exc:
        return type(exc), getattr(exc, "achieved", None)


MIXED_ORDERS = (
    (FIVE_HALVES, HALF, TWO, HALF, ONE, MINUS_HALF, THREE_HALVES),
    tuple(reversed(ALL_ORDERS)),
    (THREE_HALVES, THREE_HALVES, ZERO, ZERO),
    (TWO,),
    (),
)


class TestBatchedOrders:
    """h_orders returns what the single-route functions return, bit for bit."""

    FERMI_Z = tuple(np.logspace(-8.0, 8.0, 41)) + (
        0.98, 0.99, math.nextafter(0.99, 1.0), 0.995, 1.0, 1.01, 10.004453755819583)
    BOSE_Z = tuple(np.logspace(-8.0, math.log10(0.999), 25)) + (
        0.98, 0.99, 0.995, 1.0 - 1e-5, 1.0 - 1e-8, 1.0)

    @pytest.mark.parametrize("stat", (BOSE, FERMI))
    def test_all_and_mixed_orders_match_routes(self, stat):
        grid = self.BOSE_Z if stat is BOSE else self.FERMI_Z
        for z in map(float, grid):
            for orders in (ALL_ORDERS,) + MIXED_ORDERS:
                want = _expected(stat, z, orders, [1e-12] * len(orders))
                assert _batched(stat, z, orders) == want, (stat, z, orders)

    def test_dense_grid_closed_forms_and_inversion(self):
        """Dense grids for the routes without series: a rounding change in a
        closed form or in the shared Jonquiere roots shows up in a few z
        per thousand."""
        closed = (ONE, ZERO, MINUS_ONE)
        inverted = (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES)
        for z in map(float, np.logspace(-8.0, 8.0, 4001)):
            orders = closed + inverted if z > statfun.METHOD_SWITCH_Z else closed
            want = _expected(FERMI, z, orders, [1e-12] * len(orders))
            assert _batched(FERMI, z, orders) == want, z
        for z in map(float, 1.0 - np.logspace(-8.0, -0.01, 4001)):
            assert _batched(BOSE, z, closed) == _expected(BOSE, z, closed, [1e-12] * 3), z

    def test_bose_unity(self):
        high = (THREE_HALVES, TWO, FIVE_HALVES)
        assert _batched(BOSE, 1.0, high) == tuple(_bits(bose_limit_at_unity(s)) for s in high)
        for sigma in (ONE, HALF, ZERO, MINUS_HALF, MINUS_ONE):
            assert _batched(BOSE, 1.0, (TWO, sigma)) == (DomainError, None)

    def test_accuracy_error_carries_the_route_bound(self):
        z = 1.0 - 1e-8
        got = _batched(BOSE, z, ALL_ORDERS)
        assert got[0] is AccuracyError
        assert got == _expected(BOSE, z, ALL_ORDERS, [1e-12] * 8)

    def test_per_order_tail_bounds(self):
        orders = (HALF, ONE, THREE_HALVES, MINUS_HALF)
        tails = (1e-6, 1e-15, 3e-9, 1e-13)
        for stat, z in ((BOSE, 0.999), (BOSE, 0.3), (FERMI, 0.9), (FERMI, 4.0)):
            assert _batched(stat, z, orders, tails) == _expected(stat, z, orders, tails)

    def test_domain_checked_once_for_all_orders(self):
        for stat, z in ((BOSE, 1.5), (FERMI, 2e8), (FERMI, 0.0), (BOSE, math.nan)):
            with pytest.raises(DomainError):
                h_orders(stat, z, ())
        assert h_orders(FERMI, 2e8, (HALF,), z_max=1e9) == (eval_h_inversion(FERMI, HALF, 2e8),)


class TestInvariants:
    def test_sign_ordering_and_monotonicity(self):
        """f_sigma(z) < g_sigma(z), both strictly increasing on (0, 1)."""
        zs = np.linspace(0.05, 0.95, 19)
        for sigma in ALL_ORDERS:
            prev = {BOSE: -math.inf, FERMI: -math.inf}
            for z in zs:
                g = eval_h(BOSE, sigma, float(z)).value
                f = eval_h(FERMI, sigma, float(z)).value
                assert f < g, (sigma, z)
                assert g > prev[BOSE] and f > prev[FERMI], (sigma, z)
                prev[BOSE], prev[FERMI] = g, f

    def test_small_z_asymptote(self):
        z = 1e-8
        for stat in (BOSE, FERMI):
            for sigma in ALL_ORDERS:
                assert abs(eval_h(stat, sigma, z).value / z - 1.0) < 1e-7, (stat, sigma)

    def test_order_recurrence_by_finite_differences(self):
        """z h_sigma'(z) = h_(sigma-1)(z), probed with Richardson steps."""
        for stat in (BOSE, FERMI):
            for sigma in (HALF, ONE, THREE_HALVES, TWO, FIVE_HALVES, ZERO):
                for z in (0.3, 0.8):
                    approx = []
                    for delta in (1e-5, 1e-6):
                        hi = eval_h(stat, sigma, z * (1 + delta)).value
                        lo = eval_h(stat, sigma, z * (1 - delta)).value
                        approx.append((hi - lo) / (2 * z * delta))
                    richardson = (100.0 * approx[1] - approx[0]) / 99.0
                    want = eval_h(stat, sigma.lowered(), z).value
                    assert abs(z * richardson - want) < 1e-7 * max(1.0, abs(want)), (
                        stat, sigma, z)

    def test_method_cross_agreement(self):
        """Any two admissible methods agree within their combined bounds."""
        for z in (0.3, 0.9, 0.98, 0.99):
            for sigma in (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES):
                s = eval_h_series(FERMI, sigma, z)
                q = eval_h_inversion(FERMI, sigma, z)
                assert abs(s.value - q.value) <= s.abs_error_bound + q.abs_error_bound

    def test_against_mpmath_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            stat = BOSE if rng.random() < 0.5 else FERMI
            sigma = ALL_ORDERS[rng.integers(len(ALL_ORDERS))]
            z = float(rng.uniform(0.01, 0.99))
            got = eval_h(stat, sigma, z).value
            assert abs(got - mp_h(stat, sigma.value, z)) < 1e-12, (stat, sigma, z)

    def test_fermi_large_z_against_mpmath(self):
        for sigma in (HALF, ONE, THREE_HALVES, TWO, FIVE_HALVES):
            for z in (5.0, 300.0, 1e6):
                got = eval_h(FERMI, sigma, z).value
                want = mp_h(FERMI, sigma.value, z)
                assert abs(got - want) < 1e-10 * max(1.0, abs(want)), (sigma, z)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    stat=st.sampled_from((BOSE, FERMI)),
    sigma=st.sampled_from(ALL_ORDERS),
    log10_z=st.floats(-8.0, 8.0),
)
def test_eval_h_meets_contract_or_raises_accuracy_error(stat, sigma, log10_z):
    """Fermi z log-uniform on [1e-8, 1e8], Bose on [1e-8, 1): eval_h returns
    a value within its bound of mpmath, with the bound inside the 1e-10
    contract, or raises AccuracyError."""
    z = 10.0 ** (-abs(log10_z) if stat is BOSE else log10_z)
    if z >= 1.0 and stat is BOSE:
        z = math.nextafter(1.0, 0.0)
    try:
        got = eval_h(stat, sigma, z)
    except AccuracyError:
        return
    assert got.abs_error_bound <= max(1e-10, 1e-10 * abs(got.value))
    mp.mp.dps = 30
    exact = mp.polylog(sigma.value, z) if stat is BOSE else -mp.polylog(sigma.value, -z)
    assert abs(mp.mpf(got.value) - mp.re(exact)) <= got.abs_error_bound
