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
    eval_h,
    h_orders,
)
from conftest import de_quad_h, de_quad_h_lowered

BOSE, FERMI = StatKind.BOSE, StatKind.FERMI
EPS = 2.0**-52

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

    def test_near_half_integers_and_non_finite_refused(self):
        for sigma in (1.4999999, 1.5000001, math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError):
                Order.of(sigma)
            with pytest.raises(DomainError):
                eval_h(StatKind.BOSE, sigma, 0.5)

    def test_lowered(self):
        assert THREE_HALVES.lowered() == HALF
        with pytest.raises(DomainError):
            MINUS_ONE.lowered()

    def test_of_matches_an_exact_fraction_reference(self):
        """Order.of gives the order, or DomainError, that exact Fraction
        arithmetic gives: seeded floats at, next to and between the
        half-integers, every magnitude, subnormals, +-0, nan and +-inf, and
        ints, bools, Fractions and Orders."""

        def reference(sigma):
            if isinstance(sigma, Order):
                return sigma
            try:
                twice = Fraction(sigma) * 2
            except (ValueError, OverflowError):
                return DomainError
            if twice.denominator != 1 or twice not in range(-2, 6):
                return DomainError
            return Order(int(twice))

        def coerced(sigma):
            try:
                return Order.of(sigma)
            except DomainError:
                return DomainError

        rng = np.random.default_rng(18)
        halves = [k / 2 for k in range(-6, 10)]
        sigmas = [*halves, 1.4999999, 1.5000001, 0.25, 0.0, -0.0, math.nan, math.inf, -math.inf,
                  5e-324, -5e-324, 1e308, -1e308, 2.0**53, 2.0**53 + 2.0, True, False,
                  *range(-4, 6), 10**30, *ALL_ORDERS]
        sigmas += [math.nextafter(h, d) for h in halves for d in (-math.inf, math.inf)]
        sigmas += [float(x) for x in rng.uniform(-4.0, 4.0, 2000)]
        sigmas += [float(x) for x in rng.integers(-12, 12, 500) / 4.0]
        sigmas += [float(s * 10.0**e) for s, e in zip(rng.choice((-1.0, 1.0), 1000),
                                                      rng.uniform(-320.0, 308.0, 1000))]
        sigmas += [Fraction(int(p), int(q)) for p, q in zip(rng.integers(-12, 12, 500),
                                                            rng.integers(1, 5, 500))]
        for sigma in sigmas:
            assert coerced(sigma) == reference(sigma), sigma


class TestClosedForms:
    def test_g1_is_minus_log(self):
        fv = eval_h(BOSE, 1, 0.5)
        assert fv.method is Method.CLOSED_FORM
        assert abs(fv.value - (-math.log(0.5))) < 1e-15

    def test_g0_f0_gm1(self):
        for stat, sigma, want in ((BOSE, 0, 1.0), (FERMI, 0, 1.0 / 3.0), (BOSE, -1, 2.0)):
            fv = eval_h(stat, sigma, 0.5)
            assert fv.method is Method.CLOSED_FORM
            assert abs(fv.value - want) < 1e-15

    def test_f1_is_log1p(self):
        fv = eval_h(FERMI, 1, 1.0)
        assert fv.method is Method.CLOSED_FORM
        assert abs(fv.value - math.log(2.0)) < 1e-15

    def test_minus_one_closed_form_squares_correctly_rounded(self):
        """z / (1 -+ z)^2 divides by the correctly rounded square."""
        zs = np.random.default_rng(20).uniform(0.0, 1.0, 2000).tolist()
        for z in zs:
            for bose, w in ((True, 1.0 - z), (False, 1.0 + z)):
                want = z / float(Fraction(w) ** 2)
                assert statfun._closed_form(bose, -2, z).value == want, (bose, z)

    def test_closed_form_rejects_bose_unity(self):
        with pytest.raises(DomainError, match="diverges"):
            eval_h(BOSE, 1, 1.0)


class TestSeries:
    def test_series_matches_closed_forms(self):
        """Direct series (outside its dispatch region, so through the private
        route) vs exact closed forms, 200 z points, 1e-12 abs."""
        for stat in (BOSE, FERMI):
            for sigma in (ONE, ZERO, MINUS_ONE):
                for z in np.linspace(0.005, 0.95, 200):
                    got = statfun._series(stat, sigma, float(z), 1e-13)
                    want = eval_h(stat, sigma, float(z))
                    assert want.method is Method.CLOSED_FORM
                    assert abs(got.value - want.value) < 1e-12, (stat, sigma, z)

    def test_series_leading_term(self):
        z = 1e-9
        fv = eval_h(BOSE, TWO, z)
        assert fv.method is Method.SERIES
        assert abs(fv.value / z - 1.0) < 1e-8

    def test_fermi_series_vs_log(self):
        got = statfun._series(FERMI, ONE, 0.9, 1e-12)
        assert abs(got.value - math.log(1.9)) < 1e-12

    def test_series_agrees_with_quadrature_near_switch(self):
        s = eval_h(BOSE, THREE_HALVES, 0.99)
        assert s.method is Method.SERIES
        q = de_quad_h(BOSE, 1.5, 0.99)
        assert abs(s.value - q) < s.abs_error_bound + 1e-11

    def test_series_reports_terms_and_bound(self):
        fv = eval_h(BOSE, HALF, 0.9)
        assert fv.method is Method.SERIES
        assert fv.terms is not None and fv.terms > 10
        truth = mp_h(BOSE, 0.5, 0.9)
        assert abs(fv.value - truth) <= fv.abs_error_bound

    def test_term_cap_raises_accuracy_error(self):
        """Order 1/2 at 1 - z = 1e-8 needs more than SERIES_TERM_CAP terms."""
        cap = statfun.SERIES_TERM_CAP
        with pytest.raises(AccuracyError, match=f"more than {cap} terms") as err:
            eval_h(BOSE, HALF, 1.0 - 1e-8)
        assert err.value.achieved is not None

    def test_domain_checks(self):
        """A series tail target must be positive; the series needs z < 1."""
        for tail in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match="tail target"):
                h_orders(BOSE, 0.5, (ONE, HALF), tail_bounds=(1e-12, tail))
        assert h_orders(BOSE, 0.5, (ONE,), tail_bounds=(-1.0,))[0].method is Method.CLOSED_FORM
        with pytest.raises(DomainError):
            eval_h(BOSE, HALF, 1.0)


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

    def test_recurrence_matches_series_below_switch(self):
        """Order -1/2, formerly the order-recurrence route, at z = 0.98:
        the Taylor route that owns it agrees with the series and with the
        inversion, both called outside their dispatch regions."""
        t = eval_h(FERMI, MINUS_HALF, 0.98)
        assert t.method is Method.TAYLOR
        assert _bits(t) == _bits(statfun._fermi_taylor(MINUS_HALF, 0.98))
        for other in (statfun._series(FERMI, MINUS_HALF, 0.98, 1e-12),
                      statfun._inversion(MINUS_HALF, 0.98)):
            assert abs(t.value - other.value) <= t.abs_error_bound + other.abs_error_bound

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
        """The shipped Euler-Maclaurin coefficients are the floats of the exact
        B_2j/(2j)! (sigma)_(2j-1), with B_2j from mpmath, and the prefactors
        match mpmath to within 4 eps relative.  The remainder bounds, which
        float arithmetic rounded 4.5-6 eps high, are at least mpmath's value
        and within 8 eps of it."""
        n, m = statfun._EM_DIRECT, statfun._EM_BERNOULLI
        for twice, c in statfun._JONQUIERE.items():
            s = Fraction(twice, 2)
            sigma = 1 - s
            rising = [Fraction(1)]
            for i in range(2 * m):
                rising.append(rising[-1] * (sigma + i))
            want = [
                float(Fraction(*(int(v) for v in mp.bernfrac(2 * j)))
                      / math.factorial(2 * j) * rising[2 * j - 1])
                for j in range(m, 0, -1)
            ]
            assert [coef for coef, _ in c.bernoulli] == want, twice
            assert [size for _, size in c.bernoulli] == [abs(v) for v in want], twice
            assert (c.sigma, c.root_power) == (float(sigma), twice - 2)
            with mp.workdps(40):
                sig = mp.mpf(float(sigma))
                remainder = (4 * abs(mp.mpf(rising[2 * m].numerator) / rising[2 * m].denominator)
                             / (2 * mp.pi) ** (2 * m)
                             * mp.mpf(n + 0.5) ** (1 - sig - 2 * m) / (sig + 2 * m - 1))
                prefactor = ((2 * mp.pi) ** mp.mpf(float(s)) * mp.expjpi(mp.mpf(float(s)) / 2)
                             / mp.gamma(mp.mpf(float(s))))
                assert remainder <= c.remainder <= (1 + 8 * EPS) * remainder, twice
                assert abs(c.prefactor - prefactor) <= 4 * EPS * abs(prefactor), twice

    def test_taylor_constants(self):
        """The shipped Taylor coefficients are the floats of eta(s-k)/k! from
        mpmath's altzeta at 40 digits.  The tail constants are within 4 eps
        of the functional-equation bound 2 zeta(x) (1 + 2^-x) Gamma(x) /
        (pi^x K!), x = K + 1 - s, and of the ratio max(1, x/(K+1))/pi, and
        the tail they give at |ln z| = ln 2 covers 100 more terms summed by
        mpmath."""
        K = statfun._TAYLOR_TERMS
        assert sorted(statfun._TAYLOR) == [-1, 1, 3, 4, 5]
        with mp.workdps(40):
            for twice, (coefs, tail_const, tail_ratio) in statfun._TAYLOR.items():
                s = mp.mpf(twice) / 2
                want = [float(mp.altzeta(s - k) / mp.factorial(k)) for k in range(K - 1, -1, -1)]
                assert [coef for coef, _ in coefs] == want, twice
                assert [size for _, size in coefs] == [abs(v) for v in want], twice
                x = K + 1 - s
                const = (2 * mp.zeta(x) * (1 + mp.mpf(2) ** -x) * mp.gamma(x)
                         / (mp.pi**x * mp.factorial(K)))
                ratio = max(mp.mpf(1), x / (K + 1)) / mp.pi
                assert abs(tail_const - const) <= 4 * EPS * const, twice
                assert abs(tail_ratio - ratio) <= 4 * EPS * ratio, twice
                a = mp.log(2)
                tail = sum(abs(mp.altzeta(s - k)) / mp.factorial(k) * a**k
                           for k in range(K, K + 100))
                assert tail <= tail_const * a**K / (1 - tail_ratio * a), twice

    def test_taylor_bound_sweep_against_mpmath(self):
        """The Taylor route on [1/2, 2], both endpoints and 300 log-uniform
        draws, all five orders: every bound is at most 1e-14 and covers
        |value - mpmath| at 30 digits.  mpmath's polylog takes about 40 ms
        near z = 1 at half-integer orders, so those orders use its Hurwitz
        zeta in Jonquiere's formula (DLMF 25.12.13) instead."""

        def exact(s, z):
            if s == 2:
                return -mp.polylog(2, -z)
            s = mp.mpf(s)
            a = mp.mpf(0.5) - 1j * mp.log(z) / (2 * mp.pi)
            return -mp.re((2 * mp.pi) ** s * mp.expjpi(s / 2) * mp.zeta(1 - s, a)) / mp.gamma(s)

        rng = np.random.default_rng(25)
        zs = [0.5, 2.0] + np.exp(rng.uniform(math.log(0.5), math.log(2.0), 300)).tolist()
        with mp.workdps(30):
            for sigma in (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES):
                for z in zs:
                    got = statfun._fermi_taylor(sigma, z)
                    want = exact(sigma.value, mp.mpf(z))
                    assert abs(mp.mpf(got.value) - want) <= got.abs_error_bound <= 1e-14, (
                        sigma, z, got)

    def test_large_z_cap(self):
        """The fixed Fermi cap FERMI_Z_MAX = 1e8 is admissible; above it is not."""
        assert statfun.FERMI_Z_MAX == 1e8
        fv = eval_h(FERMI, THREE_HALVES, statfun.FERMI_Z_MAX)
        assert fv.method is Method.INVERSION and fv.value > 0
        with pytest.raises(DomainError, match="configured cap"):
            eval_h(FERMI, THREE_HALVES, math.nextafter(statfun.FERMI_Z_MAX, math.inf))


class TestBoseLimitAtUnity:
    def test_zeta_values(self):
        for sigma, want, tol in ((TWO, 1.6449340668, 1e-9),
                                 (THREE_HALVES, 2.6123753487, 1e-9),
                                 (FIVE_HALVES, ZETA_52, 1e-12)):
            fv = eval_h(BOSE, sigma, 1.0)
            assert fv.method is Method.CLOSED_FORM
            assert abs(fv.value - want) < tol

    def test_divergent_orders(self):
        for sigma in (ONE, HALF, ZERO, MINUS_HALF, MINUS_ONE):
            with pytest.raises(DomainError, match="diverges"):
                eval_h(BOSE, sigma, 1.0)

    def test_series_consistency_near_unity(self):
        # g_3/2(0.9999) frozen from a 40-digit polylog evaluation.
        got = eval_h(BOSE, THREE_HALVES, 0.9999)
        assert got.method is Method.SERIES
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
        for stat in (BOSE, FERMI):
            for z in (0.0, -1.0, math.inf, math.nan):
                for sigma in (2, 0.5):
                    with pytest.raises(DomainError):
                        eval_h(stat, sigma, z)


def _route(stat, sigma, z, tail=1e-12):
    """h_sigma(z) from the private route that owns (stat, sigma, z), each
    order on its own (no shared Jonquiere roots)."""
    if stat is BOSE and z == 1.0:
        if sigma.value <= 1.0:
            raise DomainError("g_sigma(1) diverges for sigma <= 1")
        value = statfun._ZETA[sigma.twice]
        return statfun.FunctionValue(value, 4.0 * statfun._EPS * value, Method.CLOSED_FORM)
    if sigma in (ONE, ZERO, MINUS_ONE):
        return statfun._closed_form(stat is BOSE, sigma.twice, z)
    if stat is BOSE or z <= statfun.TAYLOR_Z_LO:
        return statfun._series(stat, sigma, z, tail)
    if z < statfun.TAYLOR_Z_HI:
        return statfun._fermi_taylor(sigma, z)
    return statfun._inversion(sigma, z)


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
        0.5, math.nextafter(0.5, 1.0), 0.98, 0.99, math.nextafter(0.99, 1.0), 0.995, 1.0, 1.01,
        math.nextafter(2.0, 0.0), 2.0, 10.004453755819583)
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
        closed form, the Taylor route or the shared Jonquiere roots shows up
        in a few z per thousand."""
        closed = (ONE, ZERO, MINUS_ONE)
        inverted = (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES)
        for z in map(float, np.logspace(-8.0, 8.0, 4001)):
            orders = closed + inverted if z > statfun.TAYLOR_Z_LO else closed
            want = _expected(FERMI, z, orders, [1e-12] * len(orders))
            assert _batched(FERMI, z, orders) == want, z
        for z in map(float, 1.0 - np.logspace(-8.0, -0.01, 4001)):
            assert _batched(BOSE, z, closed) == _expected(BOSE, z, closed, [1e-12] * 3), z

    def test_bose_unity(self):
        high = (THREE_HALVES, TWO, FIVE_HALVES)
        assert _batched(BOSE, 1.0, high) == tuple(_bits(_route(BOSE, s, 1.0)) for s in high)
        assert [fv.value for fv in h_orders(BOSE, 1.0, high)] == [ZETA_32, ZETA_2, ZETA_52]
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
        assert h_orders(FERMI, 1e8, (HALF,)) == (_route(FERMI, HALF, 1e8),)


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
        """The Taylor route agrees with the series and with the inversion
        within their combined bounds, each called as a private route."""
        for z in (0.3, 0.9, 0.98, 0.99):
            for sigma in (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES):
                t = statfun._fermi_taylor(sigma, z)
                for other in (statfun._series(FERMI, sigma, z, 1e-12),
                              statfun._inversion(sigma, z)):
                    assert abs(t.value - other.value) <= (
                        t.abs_error_bound + other.abs_error_bound), (sigma, z, other.method)

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


@pytest.mark.parametrize("stat", (BOSE, FERMI))
@pytest.mark.parametrize("sigma", (MINUS_HALF, HALF, THREE_HALVES, TWO, FIVE_HALVES))
def test_series_bound_holds_down_to_the_subnormals(stat, sigma):
    """z = 10^-k from 1e-8 down to the subnormals, and the smallest double:
    the series value is within its bound of mpmath, and the bound is inside
    the 1e-10 contract.  The rounding of n ln z in each term's exponent
    grows with |ln z|, and terms below 2^-1022 lose a subnormal step."""
    zs = [10.0**-k for k in range(8, 324)] + [5e-324]
    with mp.workdps(30):
        for z in zs:
            got = eval_h(stat, sigma, z)
            assert got.method is Method.SERIES
            exact = mp.polylog(sigma.value, z) if stat is BOSE else -mp.polylog(sigma.value, -z)
            assert abs(mp.mpf(got.value) - mp.re(exact)) <= got.abs_error_bound, z
            assert got.abs_error_bound <= max(1e-10, 1e-10 * abs(got.value)), z
