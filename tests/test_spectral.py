"""Tests for the exact-spectrum oracle."""

import math
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinedgas.errors import (
    DomainError,
    NoBracketError,
    ResourceError,
    TruncationError,
)
from confinedgas.geometry import Annulus, Disk, Rectangle, make_domain, weyl_state_sum
from confinedgas.spectral import (
    Spectrum,
    annulus_spectrum,
    disk_spectrum,
    exact_thermo,
    rectangle_spectrum,
    theta_sum,
)
from confinedgas.statfun import StatKind

BOSE, FERMI = StatKind.BOSE, StatKind.FERMI


def weyl_estimate(area, perimeter, holes, mu):
    return (area * mu / (2 * math.pi)
            - perimeter * math.sqrt(2 * mu) / (4 * math.pi)
            + (1 - holes) / 6.0)


class TestRectangleSpectrum:
    def test_lowest_level(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        assert spec.mu[0] == pytest.approx(math.pi**2, rel=1e-14)
        assert spec.multiplicity[0] == 1

    def test_symmetry_degeneracy_merged(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        assert spec.mu[1] == pytest.approx(math.pi**2 / 2 * 5.0, rel=1e-14)
        assert spec.multiplicity[1] == 2

    def test_count_against_two_term_weyl(self):
        spec = rectangle_spectrum(1.0, 1.0, 500.0)
        assert abs(spec.count - weyl_estimate(1.0, 4.0, 0, 500.0)) <= 10.0

    def test_completeness_no_late_discoveries(self):
        """Everything below cutoff/2 is already found at cutoff/2."""
        full = rectangle_spectrum(3.0, 2.0, 400.0)
        half = rectangle_spectrum(3.0, 2.0, 200.0)
        below = full.mu <= 200.0
        assert int(full.multiplicity[below].sum()) == half.count

    def test_irrational_sides_merge_exactly(self):
        spec = rectangle_spectrum(math.sqrt(2.0), 1.0, 200.0)
        assert spec.count > 0
        assert all(a < b for a, b in zip(spec.mu, spec.mu[1:]))

    def test_resource_cap(self):
        """Every builder refuses before enumerating, also where both Weyl
        terms overflow and the count is NaN."""
        for build, args in ((rectangle_spectrum, (1.0, 1.0, 1e9)),
                            (rectangle_spectrum, (1e300, 1.0, 1e300)),
                            (disk_spectrum, (1.0, 1e9)),
                            (annulus_spectrum, (1.0, 2.0, 1e9))):
            with pytest.raises(ResourceError, match="states \\(cap 10000000\\)"):
                build(*args)

    def test_domain(self):
        with pytest.raises(DomainError):
            rectangle_spectrum(-1.0, 1.0, 10.0)

    def test_non_finite_cutoff_refused(self):
        """Every builder refuses an infinite or NaN cutoff with DomainError."""
        for cutoff in (math.inf, math.nan, -math.inf, -1.0):
            for build in (lambda c: rectangle_spectrum(1.0, 1.0, c),
                          lambda c: disk_spectrum(1.0, c),
                          lambda c: annulus_spectrum(1.0, 2.0, c)):
                with pytest.raises(DomainError, match="cutoff"):
                    build(cutoff)


class TestDiskSpectrum:
    def test_lowest_level_from_bessel_zero(self):
        spec = disk_spectrum(1.0, 50.0)
        assert spec.mu[0] == pytest.approx(2.8915929814733923, rel=1e-12)
        assert spec.multiplicity[0] == 1

    def test_angular_degeneracy(self):
        spec = disk_spectrum(1.0, 50.0)
        # j_{1,1}^2/2 with multiplicity 2
        assert spec.mu[1] == pytest.approx(3.8317059702075123**2 / 2.0, rel=1e-12)
        assert spec.multiplicity[1] == 2
        assert set(spec.multiplicity.tolist()) <= {1, 2}

    def test_count_tracks_weyl(self):
        spec = disk_spectrum(1.0, 400.0)
        est = weyl_estimate(math.pi, 2 * math.pi, 0, 400.0)
        assert abs(spec.count - est) <= max(12.0, 3.0 * math.sqrt(est))

    def test_completeness_no_late_discoveries(self):
        full = disk_spectrum(1.0, 300.0)
        half = disk_spectrum(1.0, 150.0)
        below = full.mu <= 150.0
        assert int(full.multiplicity[below].sum()) == half.count

    def test_radius_scaling(self):
        base = disk_spectrum(1.0, 200.0)
        scaled = disk_spectrum(2.0, 50.0)
        np.testing.assert_allclose(scaled.mu[:20], base.mu[:20] / 4.0, rtol=1e-12)


class TestAnnulusSpectrum:
    def test_count_matches_weyl(self):
        spec = annulus_spectrum(1.0, 2.0, 300.0)
        est = weyl_estimate(3 * math.pi, 6 * math.pi, 1, 300.0)
        assert abs(spec.count - est) <= max(12.0, 3.0 * math.sqrt(est))

    def test_completeness_no_late_discoveries(self):
        full = annulus_spectrum(1.0, 2.0, 200.0)
        half = annulus_spectrum(1.0, 2.0, 100.0)
        below = full.mu <= 100.0
        assert int(full.multiplicity[below].sum()) == half.count

    def test_thin_annulus_radial_box_limit(self):
        spec = annulus_spectrum(10.0, 10.2, 200.0)
        want = math.pi**2 / (2.0 * 0.2**2)
        assert spec.mu[0] == pytest.approx(want, rel=2e-3)


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    radius=st.floats(0.3, 3.0),
    ratio=st.floats(0.1, 0.7),
    states=st.floats(100.0, 250.0),
)
def test_round_spectra_complete_at_half_cutoff(radius, ratio, states):
    """Disk and annulus enumerations are complete below their cutoff.

    The cutoff is set by the two-term Weyl count ``states``; with
    ratio <= 0.7 and states >= 100 the bulk term is at least 4x the
    boundary term, so the Weyl band of the build path applies.
    Re-enumerating at half the cutoff must give the levels of the full
    spectrum below it, with the same multiplicities, to 1e-14.
    """
    for shape, build in ((Disk(radius), partial(disk_spectrum, radius)),
                         (Annulus(ratio * radius, radius),
                          partial(annulus_spectrum, ratio * radius, radius))):
        dom = make_domain(shape)
        cutoff = 2 * math.pi * states / dom.area
        bulk = dom.area * cutoff / (2 * math.pi)
        assert bulk >= 4 * dom.perimeter * math.sqrt(2 * cutoff) / (4 * math.pi)
        full, half = build(cutoff), build(cutoff / 2)
        est = weyl_estimate(dom.area, dom.perimeter, dom.holes, cutoff)
        assert abs(full.count - est) <= max(12.0, 3.0 * math.sqrt(est))
        below = full.mu <= cutoff / 2
        np.testing.assert_array_equal(half.multiplicity, full.multiplicity[below])
        np.testing.assert_allclose(half.mu, full.mu[below], rtol=1e-14)


def fraction_rectangle_levels(a, b, cutoff):
    """Reference rectangle enumeration keyed by exact Fractions (the
    enumeration the library used before its integer keys), merged as the
    library merges levels: (mu, multiplicity) lists."""
    kappa = 2.0 * cutoff / math.pi**2
    n_max = int(math.floor(a * math.sqrt(kappa))) + 1
    m_max = int(math.floor(b * math.sqrt(kappa))) + 1
    inv_a2, inv_b2, kappa_frac = 1 / Fraction(a) ** 2, 1 / Fraction(b) ** 2, Fraction(kappa)
    levels = {}
    for n in range(1, n_max + 1):
        base = n * n * inv_a2
        if base > kappa_frac:
            break
        rest = kappa_frac - base
        m_hi = min(m_max, int(math.floor(math.sqrt(float(rest) * b * b))) + 2)
        for m in range(1, m_hi + 1):
            key = base + m * m * inv_b2
            if key > kappa_frac:
                break
            levels[key] = levels.get(key, 0) + 1
    entries = sorted(((math.pi**2 / 2.0) * float(k), g) for k, g in levels.items())
    merged = []
    for mu, g in entries:
        if merged and mu <= merged[-1][0] * (1.0 + 1e-12):
            merged[-1][1] += g
        else:
            merged.append([mu, g])
    return [mu for mu, _ in merged], [g for _, g in merged]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    a=st.floats(0.1, 5.0),
    b=st.floats(0.1, 5.0),
    square=st.booleans(),
    states=st.floats(1.0, 3000.0),
)
def test_rectangle_matches_fraction_reference(a, b, square, states):
    """Integer-keyed rectangle levels equal the Fraction-keyed reference bit
    for bit, and do not depend on the order of the sides."""
    b = a if square else b
    cutoff = 2.0 * math.pi * states / (a * b)
    spec = rectangle_spectrum(a, b, cutoff)
    mu, mult = fraction_rectangle_levels(a, b, cutoff)
    assert [x.hex() for x in spec.mu.tolist()] == [x.hex() for x in mu]
    assert spec.multiplicity.tolist() == mult
    swapped = rectangle_spectrum(b, a, cutoff)
    assert [x.hex() for x in swapped.mu.tolist()] == [x.hex() for x in mu]
    assert swapped.multiplicity.tolist() == mult


class TestThetaSum:
    def test_unit_square_reference(self):
        spec = rectangle_spectrum(1.0, 1.0, 500.0)
        value, bound = theta_sum(spec, 0.1)
        assert bound < 1e-9
        assert value == pytest.approx(0.5799831778300211, abs=1e-12)

    def test_strictly_decreasing_in_t(self):
        spec = rectangle_spectrum(1.0, 1.0, 800.0)
        ts = np.linspace(0.06, 0.5, 12)
        vals = [theta_sum(spec, float(t))[0] for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_time_must_be_positive_and_finite(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        for t in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(DomainError, match="heat-kernel time"):
                theta_sum(spec, t)

    def test_truncation_refusal(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        with pytest.raises(TruncationError):
            theta_sum(spec, 0.01)

    def test_corner_constant_of_the_square(self):
        """Right-angle corners shift the constant term to 1/4, not the
        smooth-boundary 1/6 that the asymptotic state sum uses."""
        spec = rectangle_spectrum(1.0, 1.0, 500.0)
        t = 0.1
        theta, _ = theta_sum(spec, t)
        two_term = 1.0 / (2 * math.pi * t) - 1.0 / math.sqrt(2 * math.pi * t)
        assert theta - two_term == pytest.approx(0.250, abs=0.005)

    def test_square_vs_smooth_state_sum_residual(self):
        """weyl_state_sum uses the smooth 1/6; the square's residual against
        the exact trace is therefore close to 1/4 - 1/6."""
        spec = rectangle_spectrum(1.0, 1.0, 500.0)
        t = 0.1
        theta, _ = theta_sum(spec, t)
        lam = math.sqrt(2 * math.pi * t)
        resid = theta - weyl_state_sum(make_domain(Rectangle(1.0, 1.0)), lam)
        assert resid == pytest.approx(0.25 - 1.0 / 6.0, abs=0.006)

    def test_disk_weyl_convergence_rate(self):
        """Smooth-shape residual shrinks like O(sqrt(t))."""
        spec = disk_spectrum(1.0, 700.0)
        resid = []
        for t in (0.1, 0.05, 0.025):
            theta, _ = theta_sum(spec, t)
            weyl = (math.pi / (2 * math.pi * t)
                    - 2 * math.pi / (4 * math.sqrt(2 * math.pi * t)) + 1.0 / 6.0)
            resid.append(abs(theta - weyl))
        assert resid[0] > resid[1] > resid[2]
        for a, b in zip(resid, resid[1:]):
            assert 0.5 <= b / a <= 0.9


class TestExactThermo:
    def test_single_level_fermi_closed_form(self):
        """One level: N = 1/(e^(mu/T)/z + 1) inverts to z = e^(mu/T) N/(1-N)."""
        mu0, t = 2.0, 1.3
        spec = Spectrum(mu=np.array([mu0]), multiplicity=np.array([1]),
                        cutoff=40.0 * t + 1.0, tail_bound_coeff=0.0)
        n = 0.37
        z, ln_xi, u = exact_thermo(FERMI, spec, n, t)
        assert z == pytest.approx(math.exp(mu0 / t) * n / (1.0 - n), rel=1e-12)
        assert u == pytest.approx(mu0 * n, rel=1e-12)
        assert ln_xi == pytest.approx(math.log1p(z * math.exp(-mu0 / t)), rel=1e-12)

    def test_single_level_bose_closed_form(self):
        """One level: N = 1/(e^(mu/T)/z - 1) inverts to z = e^(mu/T) N/(1+N)."""
        mu0, t = 2.0, 1.3
        spec = Spectrum(mu=np.array([mu0]), multiplicity=np.array([1]),
                        cutoff=40.0 * t + 1.0, tail_bound_coeff=0.0)
        n = 2.5
        z, ln_xi, u = exact_thermo(BOSE, spec, n, t)
        assert z == pytest.approx(math.exp(mu0 / t) * n / (1.0 + n), rel=1e-12)
        assert u == pytest.approx(mu0 * n, rel=1e-12)

    def test_cutoff_precondition(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        with pytest.raises(TruncationError):
            exact_thermo(FERMI, spec, 10.0, 100.0)

    def test_fermi_capacity(self):
        spec = rectangle_spectrum(1.0, 1.0, 100.0)
        with pytest.raises(NoBracketError):
            exact_thermo(FERMI, spec, 2.0 * spec.count, 2.0)

    def test_exact_u_finite_in_deep_quantum_regime(self):
        """Far outside the validity region the exact U stays finite while
        the asymptotic model is expected to disagree noticeably.  The Fermi
        level of 100 particles sits near mu ~ 2 pi N, so the cutoff must
        clear it in addition to the 40 T thermal tail."""
        t_temp = 4.0 * math.pi
        spec = rectangle_spectrum(1.0, 1.0, 40.0 * t_temp + 2.0 * math.pi * 100.0 + 200.0)
        z, ln_xi, u = exact_thermo(FERMI, spec, 100.0, t_temp)
        assert u > 0.0 and math.isfinite(u)
        from confinedgas.eos import solve_fugacity
        from confinedgas.errors import ConfinedGasError
        try:
            state, report = solve_fugacity(FERMI, make_domain(Rectangle(1.0, 1.0)),
                                           100.0, t_temp)
            assert report.warnings
        except ConfinedGasError:
            pass  # refusing is equally acceptable this far out

    def test_matches_asymptotics_inside_validity_region(self):
        T = 2.0 * math.pi / 0.04
        spec = rectangle_spectrum(4.0, 1.0, 40.0 * T)
        z, ln_xi, u = exact_thermo(FERMI, spec, 100.0, T)
        from confinedgas.thermo import thermo_2d
        rep = thermo_2d(FERMI, make_domain(Rectangle(4.0, 1.0)), 100.0, T)
        assert abs(rep.U - u) / u < 0.01
        assert abs(rep.state.z - z) / z < 0.01
