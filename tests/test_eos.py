"""Tests for grand potentials, particle-number equations and the solver."""

import dataclasses
import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinedgas import eos
from confinedgas.errors import (
    AccuracyError,
    ConfinedGasError,
    DomainError,
    ModelError,
    NoBracketError,
    NonMonotoneError,
    SingularityError,
)
from confinedgas.eos import (
    GasState,
    log_grand_potential,
    particle_number,
    pressure,
    solve_fugacity,
)
from confinedgas.geometry import (
    Annulus,
    Disk,
    FreePlane,
    PolygonWithHoles,
    Rectangle,
    TubeDomain,
    free_plane,
    make_domain,
    thermal_wavelength,
    weyl_state_sum,
)
from confinedgas.statfun import FERMI_Z_MAX, StatKind, eval_h
from confinedgas.thermo import thermo_2d, thermo_3d

BOSE, FERMI = StatKind.BOSE, StatKind.FERMI
EPS = sys.float_info.epsilon


def h(stat, sigma, z):
    return eval_h(stat, sigma, z).value


class TestGrandPotential2D:
    def test_free_space_reduction(self):
        dom = free_plane(5.0)
        for stat in (BOSE, FERMI):
            got = log_grand_potential(stat, dom, 0.5, 0.7)
            assert got == pytest.approx(5.0 / 0.25 * h(stat, 2, 0.7), rel=1e-12)

    def test_one_hole_kills_connectivity_term(self):
        dom = make_domain(Annulus(1.0, 2.0))
        lam, z = 0.1, 0.5
        got = log_grand_potential(BOSE, dom, lam, z)
        want = (dom.area / lam**2 * h(BOSE, 2, z)
                - 0.25 * dom.perimeter / lam * h(BOSE, 1.5, z))
        assert got == pytest.approx(want, rel=1e-13)

    def test_composition_from_verified_factors(self):
        dom = make_domain(Disk(1.0))
        lam, z = 0.5, 0.5
        want = (math.pi / 0.25 * h(BOSE, 2, z)
                - 0.25 * (2 * math.pi) / 0.5 * h(BOSE, 1.5, z)
                + (1.0 / 6.0) * h(BOSE, 1, z))
        assert log_grand_potential(BOSE, dom, lam, z) == pytest.approx(want, rel=1e-13)

    def test_model_error_when_negative(self):
        dom = make_domain(Rectangle(1.0, 1.0))
        with pytest.raises(ModelError):
            log_grand_potential(BOSE, dom, 2.5, 1e-6)


class TestParticleNumber2D:
    def test_free_space_reduction(self):
        dom = free_plane(5.0)
        got = particle_number(FERMI, dom, 0.5, 0.7)
        assert got == pytest.approx(5.0 / 0.25 * math.log(1.7), rel=1e-12)

    def test_small_z_linearisation_equals_state_sum(self):
        """N/z -> corrected state sum as z -> 0 (h_sigma ~ z for every order)."""
        dom = make_domain(Disk(1.0))
        lam = 0.2
        z = 1e-10
        for stat in (BOSE, FERMI):
            got = particle_number(stat, dom, lam, z) / z
            assert got == pytest.approx(weyl_state_sum(dom, lam), rel=1e-8)

    def test_boltzmann_seed_regime(self):
        """Solved z sits near the Boltzmann estimate N lam^2/area when small."""
        dom = make_domain(Rectangle(10.0, 10.0))
        T = 2.0 * math.pi  # lam = 1
        state, _ = solve_fugacity(BOSE, dom, N=10.0, T=T)
        assert 0.0 < state.z < 1.0
        # independent bracketed bisection on the particle-number equation
        lo, hi = 1e-12, 0.999
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if particle_number(BOSE, dom, state.lam, mid) < 10.0:
                lo = mid
            else:
                hi = mid
        assert state.z == pytest.approx(0.5 * (lo + hi), abs=1e-10)
        assert state.z == pytest.approx(10.0 * 1.0 / 100.0, rel=0.2)


class TestTubeEquations:
    def test_free_space_is_standard_3d_gas(self):
        tube = TubeDomain(free_plane(2.0), 300.0)
        lam, z = 0.5, 0.6
        for stat in (BOSE, FERMI):
            got = log_grand_potential(stat, tube, lam, z)
            want = 300.0 * 2.0 / lam**3 * h(stat, 2.5, z)
            assert got == pytest.approx(want, rel=1e-12)
            got_n = particle_number(stat, tube, lam, z)
            assert got_n == pytest.approx(300.0 * 2.0 / lam**3 * h(stat, 1.5, z),
                                          rel=1e-12)

    def test_one_hole_cross_section(self):
        tube = TubeDomain(make_domain(Annulus(1.0, 2.0)), 500.0)
        lam, z = 0.3, 0.4
        dom = tube.cross_section
        want = (500.0 * dom.area / lam**3 * h(BOSE, 2.5, z)
                - 0.25 * 500.0 * dom.perimeter / lam**2 * h(BOSE, 2, z))
        assert log_grand_potential(BOSE, tube, lam, z) == pytest.approx(
            want, rel=1e-13)

    def test_fermi_extension_composition(self):
        tube = TubeDomain(make_domain(Disk(1.0)), 200.0)
        lam, z = 0.5, 2.0
        dom = tube.cross_section
        want = (200.0 * dom.area / lam**3 * h(FERMI, 2.5, z)
                - 0.25 * 200.0 * dom.perimeter / lam**2 * h(FERMI, 2, z)
                + (1.0 / 6.0) * 200.0 / lam * h(FERMI, 1.5, z))
        assert log_grand_potential(FERMI, tube, lam, z) == pytest.approx(
            want, rel=1e-12)

    def test_small_z_linearisation(self):
        tube = TubeDomain(make_domain(Disk(1.0)), 200.0)
        lam, z = 0.25, 1e-10
        dom = tube.cross_section
        want = (200.0 * dom.area / lam**3
                - 0.25 * 200.0 * dom.perimeter / lam**2
                + (1.0 - dom.holes) * 200.0 / (6.0 * lam))
        got = particle_number(BOSE, tube, lam, z) / z
        assert got == pytest.approx(want, rel=1e-8)

    def test_monotone_in_z_on_valid_states(self):
        tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
        lam = thermal_wavelength(100.0)
        zs = np.linspace(0.01, 0.98, 60)
        vals = [particle_number(BOSE, tube, lam, float(z)) for z in zs]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestSolveFugacity:
    def test_free_space_bose_closed_form(self):
        """N lam^2/area = 0.1 inverts -ln(1-z) = 0.1 exactly."""
        dom = free_plane(10.0)
        state, report = solve_fugacity(BOSE, dom, N=1.0, T=2.0 * math.pi)
        assert state.z == pytest.approx(1.0 - math.exp(-0.1), rel=1e-12)
        assert report.ratio_boundary == 0.0
        assert report.ratio_topology == 0.0

    def test_free_space_fermi_unity(self):
        dom = free_plane(10.0)
        state, report = solve_fugacity(FERMI, dom, N=10.0 * math.log(2.0),
                                       T=2.0 * math.pi)
        assert state.z == pytest.approx(1.0, rel=1e-12)
        assert not report.fermi_extension_used  # z == 1 is not beyond 1

    def test_fermi_extension_flagged_with_residual(self):
        dom = make_domain(Rectangle(4.0, 1.0))
        T = 2.0 * math.pi / 0.04  # lam/sqrt(area) = 0.1
        state, report = solve_fugacity(FERMI, dom, N=100.0, T=T)
        assert state.z > 1.0
        assert report.fermi_extension_used
        resid = abs(particle_number(FERMI, dom, state.lam, state.z) - 100.0)
        assert resid < 1e-12 * 100.0
        # independent dense-grid sign-change localisation
        zs = np.linspace(0.9 * state.z, 1.1 * state.z, 400)
        signs = [particle_number(FERMI, dom, state.lam, float(z)) - 100.0 for z in zs]
        crossings = [i for i in range(len(zs) - 1) if (signs[i] < 0) != (signs[i + 1] < 0)]
        assert len(crossings) == 1
        assert zs[crossings[0]] <= state.z <= zs[crossings[0] + 1]

    def test_residual_identity_on_samples(self):
        rng = np.random.default_rng(3)
        dom = make_domain(Disk(1.0))
        for _ in range(20):
            stat = BOSE if rng.random() < 0.5 else FERMI
            T = float(rng.uniform(300.0, 3000.0))
            lam = thermal_wavelength(T)
            N = float(rng.uniform(0.05, 1.2)) * dom.area / lam**2
            state, _ = solve_fugacity(stat, dom, N, T)
            got = particle_number(stat, dom, state.lam, state.z)
            assert abs(got - N) <= 2e-12 * N

    def test_near_condensation_refused(self):
        with pytest.raises(NoBracketError):
            solve_fugacity(BOSE, make_domain(Annulus(1.0, 2.0)), N=5e3, T=200.0)
        with pytest.raises(NoBracketError):
            solve_fugacity(BOSE, make_domain(Disk(1.0)), N=1e7, T=200.0)

    def test_fermi_cap_refused(self):
        """A state that solves to z ~ 7.4e10 lies above the fixed cap 1e8."""
        dom = make_domain(Disk(1.0))
        T = 2.0 * math.pi / 0.01**2
        N = 25.0 * dom.area / thermal_wavelength(T) ** 2
        with pytest.raises(NoBracketError, match="Fermi fugacity cap"):
            solve_fugacity(FERMI, dom, N, T)
        tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
        with pytest.raises(NoBracketError):  # lam = 2.5e150: lam^3 is not finite
            solve_fugacity(FERMI, tube, N=1.0, T=1e-300)

    def test_overflowing_weights_refused(self):
        """A tube whose bulk weight Lz area/lam^3 overflows is a model
        refusal, not a solver accuracy failure, in every state sum."""
        lam = thermal_wavelength(1.0)
        for shape, lz in ((Rectangle(1e300, 1.0), 1e303), (Rectangle(1e150, 1.0), 1e160),
                          (Disk(1e150), 1e160)):
            tube = TubeDomain(make_domain(shape), lz)
            for stat in (BOSE, FERMI):
                with pytest.raises(ModelError, match="not finite"):
                    solve_fugacity(stat, tube, N=5.0, T=1.0)
                for f in (particle_number, log_grand_potential):
                    with pytest.raises(ModelError, match="not finite"):
                        f(stat, tube, lam, 0.5)
                with pytest.raises(ModelError, match="not finite"):
                    pressure(stat, tube, GasState(z=0.5, lam=lam, T=1.0, N=5.0, stat=stat))

    def test_non_monotone_path_triggers(self, monkeypatch):
        """A decreasing particle-number equation must raise NonMonotoneError."""
        weighted_terms = eos._weighted_terms

        def falling_slope(stat, weights, shift, offset, *args, **kwargs):
            if offset == -1:  # the z dN/dz sum of the branch check: (terms, error)
                return (-1.0, 0.0, 0.0), 0.0
            return weighted_terms(stat, weights, shift, offset, *args, **kwargs)

        monkeypatch.setattr(eos, "_weighted_terms", falling_slope)
        with pytest.raises(NonMonotoneError):
            solve_fugacity(BOSE, make_domain(Disk(1.0)), N=10.0, T=500.0)

    def test_input_validation(self):
        dom = make_domain(Disk(1.0))
        with pytest.raises(DomainError):
            solve_fugacity(BOSE, dom, N=-1.0, T=10.0)
        with pytest.raises(DomainError):
            solve_fugacity(BOSE, dom, N=1.0, T=-10.0)
        for tol in (0.0, -1e-12, math.nan, math.inf):
            with pytest.raises(DomainError):
                solve_fugacity(BOSE, dom, N=1.0, T=10.0, tol=tol)

    def test_warnings_carry_thresholds(self):
        dom = make_domain(Disk(1.0))
        state, report = solve_fugacity(BOSE, dom, N=1.0, T=30.0)
        assert report.ratio_wavelength > 0.2
        assert any("0.2" in w for w in report.warnings)

    def test_scale_covariance(self):
        """Scaling lengths by s and T by 1/s^2 leaves z and ratios fixed."""
        s = 3.0
        N, T = 40.0, 900.0
        base, rb = solve_fugacity(BOSE, make_domain(Disk(1.0)), N, T)
        scaled, rs = solve_fugacity(BOSE, make_domain(Disk(s)), N, T / s**2)
        assert scaled.z == pytest.approx(base.z, rel=1e-10)
        assert rs.ratio_wavelength == pytest.approx(rb.ratio_wavelength, rel=1e-12)
        assert rs.ratio_boundary == pytest.approx(rb.ratio_boundary, rel=1e-9)

    def test_tube_solver(self):
        tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
        for stat in (BOSE, FERMI):
            state, report = solve_fugacity(stat, tube, N=2000.0, T=100.0)
            got = particle_number(stat, tube, state.lam, state.z)
            assert abs(got - 2000.0) <= 2e-12 * 2000.0


class TestCorrectionSigns:
    def test_confined_below_free_term_by_term(self):
        """For r = 0 both corrections subtract states (at equal lam, z)."""
        dom = make_domain(Disk(1.0))
        dom_free = free_plane(dom.area)
        lam, z = 0.15, 0.5
        for stat in (BOSE, FERMI):
            confined = log_grand_potential(stat, dom, lam, z)
            free = log_grand_potential(stat, dom_free, lam, z)
            assert confined < free
            boundary = -0.25 * dom.perimeter / lam * h(stat, 1.5, z)
            topology = (1.0 - dom.holes) / 6.0 * h(stat, 1, z)
            assert boundary < 0.0
            assert confined == pytest.approx(free + boundary + topology, rel=1e-12)


class TestPressure:
    def test_classical_free_limit(self):
        """P*area -> N*T as z -> 0 in free space."""
        dom = free_plane(1.0)
        T = 1000.0
        lam = thermal_wavelength(T)
        N = 1e-4 * dom.area / lam**2
        state, _ = solve_fugacity(BOSE, dom, N, T)
        p = pressure(BOSE, dom, state)
        assert p * dom.area == pytest.approx(N * T, rel=1e-4)

    def test_confinement_reduces_pressure(self):
        N, T = 50.0, 2000.0
        dom = make_domain(Disk(1.0))
        dom_free = free_plane(dom.area)
        st_c, _ = solve_fugacity(BOSE, dom, N, T)
        st_f, _ = solve_fugacity(BOSE, dom_free, N, T)
        # Same (lam, z): each correction term is negative for r = 0.
        assert log_grand_potential(BOSE, dom, st_f.lam, st_f.z) < \
            log_grand_potential(BOSE, dom_free, st_f.lam, st_f.z)

    def test_tube_pressure_measure(self):
        tube = TubeDomain(free_plane(2.0), 400.0)
        state, _ = solve_fugacity(FERMI, tube, N=100.0, T=50.0)
        p = pressure(FERMI, tube, state)
        ln_xi = log_grand_potential(FERMI, tube, state.lam, state.z)
        assert p == pytest.approx(state.T * ln_xi / (400.0 * 2.0), rel=1e-12)

    def test_pressure_equals_the_thermo_row(self):
        """pressure() sums ln Xi on its own, a thermo row reads it from the
        row's h table: on random plane and tube states of both statistics
        the two agree bit for bit."""
        rng = np.random.default_rng(29)
        solved = dict.fromkeys(itertools.product((BOSE, FERMI), (False, True)), 0)
        shapes = (Disk(1.0), Rectangle(2.0, 0.5), Annulus(0.5, 1.5))
        for _ in range(200):
            stat = (BOSE, FERMI)[rng.integers(2)]
            dom = make_domain(shapes[rng.integers(3)])
            tube = bool(rng.random() < 0.5)
            lam = 10.0 ** rng.uniform(-2.5, -0.5) * math.sqrt(dom.area)
            N = 10.0 ** rng.uniform(-4.0, 1.0) * dom.area / lam**2
            container = dom
            if tube:
                container = TubeDomain(dom, rng.uniform(150.0, 400.0) * math.sqrt(dom.area))
                N *= container.length_z / lam
            try:
                row = (thermo_3d if tube else thermo_2d)(stat, container, N, 2.0 * math.pi / lam**2)
            except ConfinedGasError:
                continue
            assert pressure(stat, container, row.state) == row.P
            solved[stat, tube] += 1
        assert min(solved.values()) >= 20, solved

    def test_overflow_refused(self):
        """T ln Xi overflows on this state (z = 0.874), where inf was once
        returned; a non-finite pressure is refused like a row's U."""
        dom = make_domain(Rectangle(1e145, 1e145))
        state, _ = solve_fugacity(FERMI, dom, 1e299, 1e10)
        assert 0.8 < state.z < 0.9
        with pytest.raises(SingularityError, match="P is not finite"):
            pressure(FERMI, dom, state)

    @staticmethod
    def near_cap_state():
        """A Fermi disk state that solves to z ~ 4e7, just under the cap 1e8."""
        dom = make_domain(Disk(1.0))
        T = 2.0 * math.pi / 0.01**2
        N = 17.5 * dom.area / thermal_wavelength(T) ** 2
        state, _ = solve_fugacity(FERMI, dom, N, T)
        assert 1e7 < state.z < FERMI_Z_MAX
        return dom, state

    def test_pressure_honours_the_solve_cap(self):
        """A Fermi state solved just under the cap has a pressure, equal to
        the thermo row's; a fugacity above the cap is refused."""
        dom, state = self.near_cap_state()
        p = pressure(FERMI, dom, state)
        assert p == thermo_2d(FERMI, dom, state.N, state.T).P
        assert p > state.N * state.T / dom.area
        above = dataclasses.replace(state, z=2.0 * FERMI_Z_MAX)
        with pytest.raises(DomainError, match="configured cap"):
            pressure(FERMI, dom, above)

    def test_state_sums_honour_the_solve_cap(self):
        """N and ln Xi can be re-evaluated at a Fermi state solved just under
        the cap; a fugacity above the cap is refused."""
        dom, state = self.near_cap_state()
        got = particle_number(FERMI, dom, state.lam, state.z)
        assert abs(got - state.N) <= 2e-12 * state.N
        ln_xi = log_grand_potential(FERMI, dom, state.lam, state.z)
        assert pressure(FERMI, dom, state) == state.T * ln_xi / dom.area
        for f in (particle_number, log_grand_potential):
            with pytest.raises(DomainError, match="configured cap"):
                f(FERMI, dom, state.lam, 2.0 * FERMI_Z_MAX)


class TestSolveCost:
    """How many h evaluations a Fermi solve makes: one h_orders call per
    Newton step, which gives N and z dN/dz together."""

    @staticmethod
    def count(monkeypatch, name):
        """Count calls of eos.<name>; returns the list of their arguments."""
        seen = []
        inner = getattr(eos, name)

        def counted(*args, **kwargs):
            seen.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(eos, name, counted)
        return seen

    def test_fermi_solve_makes_at_most_ten_h_calls(self, monkeypatch):
        """Disk, annulus and rectangle, planar and as tubes, lam/sqrt(area)
        0.01, 0.03, 0.1, 0.2 and 0.3, z* log-spaced over [1e-6, 1e4]: every
        solve meets its residual in at most 6 h_orders calls, the branch
        check included.  The ratios 0.2 and 0.3 on rect:2,0.5 are the
        states whose lopsided brackets took regula falsi 12 calls."""
        calls = self.count(monkeypatch, "h_orders")
        worst = 0
        for shape in (Disk(1.0), Annulus(0.5, 1.5), Rectangle(2.0, 0.5)):
            dom = make_domain(shape)
            for container in (dom, TubeDomain(dom, 282.0 * math.sqrt(dom.area))):
                for ratio in (0.01, 0.03, 0.1, 0.2, 0.3):
                    lam = ratio * math.sqrt(dom.area)
                    for z in np.geomspace(1e-6, 1e4, 21):
                        N = particle_number(FERMI, container, lam, float(z))
                        calls.clear()
                        state, _ = solve_fugacity(FERMI, container, N, 2.0 * math.pi / lam**2)
                        worst = max(worst, len(calls))
                        assert state.z == pytest.approx(z, rel=1e-9)
        assert worst <= 6

    def test_degenerate_fermi_solve_sums_the_slope_once(self, monkeypatch):
        """The certified error of a degenerate Fermi z dN/dz is far below its
        value, so the branch check takes the slope from the final Newton
        evaluation and makes no separate sum."""
        sums = self.count(monkeypatch, "_weighted_terms")
        calls = self.count(monkeypatch, "h_orders")
        dom = make_domain(Disk(1.0))
        for container in (dom, TubeDomain(dom, 500.0)):
            lam = 0.03
            N = particle_number(FERMI, container, lam, 300.0)
            sums.clear()
            calls.clear()
            state, _ = solve_fugacity(FERMI, container, N, 2.0 * math.pi / lam**2)
            assert sums == []
            assert calls[-1][1] == state.z

    @pytest.mark.parametrize("retry_falls", [False, True])
    def test_uncertain_slope_sign_is_summed_again(self, monkeypatch, retry_falls):
        """A z dN/dz whose certified error exceeds its value is summed again
        under the fine budget, and that sum decides the branch.  Bose sums
        the slope first on its own; Fermi takes it from the final Newton
        evaluation, whose slope bound is widened here."""
        weighted_terms = eos._weighted_terms
        state_sums = eos._state_sums
        budgets = []

        def uncertain_slope(stat, weights, shift, offset, z, abs_budget=None):
            terms, error = weighted_terms(stat, weights, shift, offset, z, abs_budget)
            if offset == -1:
                budgets.append(abs_budget)
                if len(budgets) == 1:
                    return terms, 2.0 * abs(sum(terms))
                if retry_falls:
                    return (-1.0, 0.0, 0.0), 0.0
            return terms, error

        def uncertain_newton_slope(stat, weights, shift, offset_budgets):
            orders, evaluate = state_sums(stat, weights, shift, offset_budgets)
            if set(offset_budgets) != {0, -1}:  # not a Newton evaluation
                return orders, evaluate

            def widened(z):
                sums, values = evaluate(z)
                terms, _ = sums[-1]
                budgets[:] = [offset_budgets[-1]]
                return {**sums, -1: (terms, 2.0 * abs(sum(terms)))}, values

            return orders, widened

        monkeypatch.setattr(eos, "_weighted_terms", uncertain_slope)
        monkeypatch.setattr(eos, "_state_sums", uncertain_newton_slope)
        dom = make_domain(Disk(1.0))
        for stat in (BOSE, FERMI):
            budgets.clear()
            if retry_falls:
                with pytest.raises(NonMonotoneError):
                    solve_fugacity(stat, dom, N=10.0, T=500.0)
            else:
                assert solve_fugacity(stat, dom, N=10.0, T=500.0)[0].z > 0.0
            assert len(budgets) == 2 and budgets[1] < budgets[0]


def particle_number_error(stat, container, lam, z):
    """Certified error of particle_number at z: the weighted bounds of its
    h values plus the rounding of the weighted sum."""
    tube = isinstance(container, TubeDomain)
    dom = container.cross_section if tube else container
    weights = [dom.area / lam**2, dom.perimeter / (4.0 * lam), (1.0 - dom.holes) / 6.0]
    orders = (1.0, 0.5, 0.0)
    if tube:
        weights = [w * container.length_z / lam for w in weights]
        orders = (1.5, 1.0, 0.5)
    err = 0.0
    for w, sigma in zip(weights, orders):
        fv = eval_h(stat, sigma, z)
        err += abs(w) * (fv.abs_error_bound + 4.0 * EPS * abs(fv.value))
    return err


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    stat=st.sampled_from((BOSE, FERMI)),
    shape=st.sampled_from((Disk(1.0), Rectangle(2.0, 0.5), Annulus(0.5, 1.5))),
    tube=st.booleans(),
    aspect=st.floats(150.0, 400.0),
    log10_ratio=st.floats(-2.5, 0.0),
    log10_fill=st.floats(-8.0, 1.5),
    tol=st.sampled_from((1e-12, 2.5e-13, 1e-8)),
)
def test_solve_fugacity_meets_residual_or_refuses(stat, shape, tube, aspect, log10_ratio,
                                                  log10_fill, tol):
    """Planar domains and tubes of length aspect*sqrt(area), lam/sqrt(area)
    log-uniform on [0.003, 1] and N = fill * (bulk state count) with fill
    log-uniform on [1e-8, 30]: the solver returns a finite z > 0 whose
    residual is within tol*N, or refuses with a ConfinedGasError (never
    ValueError, ZeroDivisionError, OverflowError or a NaN).

    The residual is taken from particle_number, whose h values carry a 1e-12
    tail target; where the corrections cancel most of the bulk term, that
    evaluation's own certified error exceeds tol*N and is allowed for."""
    dom = make_domain(shape)
    container = TubeDomain(dom, aspect * math.sqrt(dom.area)) if tube else dom
    lam = 10.0**log10_ratio * math.sqrt(dom.area)
    T = 2.0 * math.pi / lam**2
    bulk = dom.area / lam**2
    if tube:
        bulk *= container.length_z / lam
    N = 10.0**log10_fill * bulk
    try:
        state, _ = solve_fugacity(stat, container, N, T, tol)
    except ConfinedGasError:
        return
    assert math.isfinite(state.z) and state.z > 0.0
    resid = abs(particle_number(stat, container, state.lam, state.z) - N)
    assert resid <= tol * N + particle_number_error(stat, container, state.lam, state.z)


def square(x, y, side):
    return ((x, y), (x + side, y), (x + side, y + side), (x, y + side))


SQUARE = square(0.0, 0.0, 10.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from((Disk(1.0), Rectangle(2.0, 0.5), Annulus(0.5, 1.5), FreePlane(3.0),
                           PolygonWithHoles(SQUARE, (square(1.0, 1.0, 1.0), square(5.0, 5.0, 2.0))))),
    log10_scale=st.floats(-3.0, 50.0),
    log10_ratio=st.floats(-4.0, 1.0),
)
def test_model_weights_sum_to_the_state_sum(shape, log10_scale, log10_ratio):
    """The planar weights of the equation of state are the Weyl terms of
    the state sum: their sum is weyl_state_sum bit for bit, or both refuse
    a state sum that is not positive."""
    dom = make_domain(shape)
    dom = dataclasses.replace(dom, area=dom.area * 100.0**log10_scale,
                              perimeter=dom.perimeter * 10.0**log10_scale)
    lam = 10.0**log10_ratio * math.sqrt(dom.area)
    weights, shift, _ = eos._model(dom, lam)
    assert shift == 0
    if sum(weights) > 0.0:
        assert sum(weights) == weyl_state_sum(dom, lam)
    else:
        with pytest.raises(ModelError):
            weyl_state_sum(dom, lam)


def _loaded_after_import(*modules):
    """The names in sys.modules after a fresh interpreter imports ``modules``."""
    probe = (
        "import sys, importlib\n"
        "for name in sys.argv[1:]:\n"
        "    importlib.import_module(name)\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    src = str(Path(eos.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", probe, *modules], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_scipy_stays_off_the_import_path():
    """Only the Bessel zero finders load scipy; the rest of the package, the
    CLI and the spectral oracle start without it (and without numpy), and
    the CLI loads the verify checks only to run them."""

    def loaded_lazy(*modules):
        return [m for m in _loaded_after_import(*modules)
                if m.split('.')[0] in ('scipy', 'numpy') or m == 'confinedgas.certify']

    assert loaded_lazy("confinedgas.cli") == []
    assert loaded_lazy("confinedgas.geometry", "confinedgas.thermo") == []
    assert loaded_lazy("confinedgas.spectral") == []
    assert "scipy.special" in loaded_lazy("confinedgas.bessel")
    assert "confinedgas.certify" in loaded_lazy("confinedgas.certify")


def test_fractions_stay_off_the_import_path():
    """Order.of needs no exact rational arithmetic, so neither fractions
    nor decimal loads with the thermodynamic rows."""
    loaded = _loaded_after_import("confinedgas.geometry", "confinedgas.thermo")
    assert "confinedgas.statfun" in loaded
    assert "fractions" not in loaded and "decimal" not in loaded


@pytest.mark.parametrize("modules", [
    ("confinedgas",), ("confinedgas.cli",), ("confinedgas.geometry", "confinedgas.thermo"),
])
def test_numpy_stays_off_the_import_path(modules):
    """The package, the CLI and the thermodynamic rows start without
    numpy; the series route loads it at its first call."""
    loaded = _loaded_after_import(*modules)
    assert "confinedgas.thermo" in loaded
    assert "numpy" not in loaded
