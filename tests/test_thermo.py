"""Tests for the corrected thermodynamics: U, F, S, C_V and dz/dT from the
model's term list, and the paper's auxiliary closed forms."""

import math
import random
import sys
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinedgas import statfun, thermo
from confinedgas.errors import ConfinedGasError, SingularityError
from confinedgas.eos import dz_dT, particle_number, solve_fugacity
from confinedgas.geometry import (
    Annulus,
    Disk,
    Rectangle,
    TubeDomain,
    free_plane,
    make_domain,
    thermal_wavelength,
)
from confinedgas.statfun import (
    FIVE_HALVES,
    HALF,
    ONE,
    THREE_HALVES,
    TWO,
    ZERO,
    StatKind,
    eval_h,
)
from confinedgas.thermo import (
    _cbrt,
    aux_2d,
    aux_3d,
    thermo_2d,
    thermo_3d,
)
from conftest import implied_eta, richardson

BOSE, FERMI = StatKind.BOSE, StatKind.FERMI


def h(stat, sigma, z):
    return eval_h(stat, sigma, z).value


def random_states_2d(rng, count):
    shapes = [Rectangle(1.0, 1.0), Rectangle(4.0, 1.0), Disk(1.0), Annulus(1.0, 2.0)]
    for _ in range(count):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(shapes[rng.integers(len(shapes))])
        T = float(rng.uniform(400.0, 4000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 2.0)) * dom.area / lam**2
        yield stat, dom, N, T


def random_states_3d(rng, count):
    sections = [Disk(1.0), Rectangle(1.0, 1.0), Annulus(1.0, 2.0)]
    for _ in range(count):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(sections[rng.integers(len(sections))])
        tube = TubeDomain(dom, 400.0 * math.sqrt(dom.area))
        T = float(rng.uniform(60.0, 600.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 1.2)) * tube.length_z * dom.area / lam**3
        yield stat, tube, N, T


def deep_validity_states_3d(rng, count):
    """Large-N tube states, where 1/N^2 is negligible.

    With both correction channels active (zero-hole sections) the paper's
    cubic sigma3 resolution carries an O(1/N^2) remainder; here it lies far
    below 1e-10.
    """
    sections = [Disk(1.0), Rectangle(1.0, 1.0), Annulus(1.0, 2.0)]
    for _ in range(count):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(sections[rng.integers(len(sections))])
        tube = TubeDomain(dom, 400.0 * math.sqrt(dom.area))
        T = float(rng.uniform(3000.0, 10000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.3, 1.2)) * tube.length_z * dom.area / lam**3
        yield stat, tube, N, T


class TestAux2D:
    def test_free_space_is_unity(self):
        dom = free_plane(3.0)
        for stat in (BOSE, FERMI):
            for z in (0.1, 0.9):
                aux = aux_2d(stat, z, 77.0, dom)
                assert aux.sigma2 == 1.0
                assert aux.eta2 == 1.0

    def test_sigma2_identity_on_solved_state(self):
        dom = make_domain(Rectangle(1.0, 1.0))
        state, _ = solve_fugacity(BOSE, dom, N=100.0, T=900.0)
        aux = aux_2d(BOSE, state.z, 100.0, dom)
        ident = dom.area * h(BOSE, ONE, state.z) / (100.0 * state.lam**2)
        assert abs(aux.sigma2 - ident) / ident < 1e-8

    def test_eta2_matches_implicit_differentiation(self):
        """eta2 and dz/dT against centred differences of the solver."""
        dom = make_domain(Rectangle(1.0, 1.0))
        N, T = 100.0, 900.0
        state, _ = solve_fugacity(BOSE, dom, N, T)
        aux = aux_2d(BOSE, state.z, N, dom)
        fd = richardson(lambda temp: solve_fugacity(BOSE, dom, N, temp)[0].z, T)
        eta_fd = implied_eta(BOSE, state, fd)
        assert abs(aux.eta2 - eta_fd) / abs(eta_fd) < 1e-6
        assert abs(dz_dT(BOSE, dom, state) - fd) / abs(fd) < 1e-6

    def test_sigma2_squares_its_bracket_correctly_rounded(self):
        """sigma2 is the square of its bracket, 1.007706372356126 here.
        libm's pow, behind bracket**2, gave 1.015472132887143, 1 ulp below
        the correctly rounded bracket * bracket."""
        dom = make_domain(Annulus(1.4460835264606646, 2.891829909631392))
        aux = aux_2d(BOSE, 0.0028836976095925615, 28.902975457706088, dom)
        assert aux.sigma2 == 1.0154721328871432

    def test_singularity_guard(self):
        # Divergent h_0 with tiny N drives the square-root argument negative.
        with pytest.raises(SingularityError):
            aux_2d(BOSE, 0.99, 0.5, make_domain(Rectangle(1.0, 1.0)))

    def test_overflow_refused(self):
        """L**2 overflows past a perimeter of about 1.3e154; the public
        closed form refuses it like a row does."""
        with pytest.raises(SingularityError):
            aux_2d(FERMI, 1e-150, 5.0, make_domain(Rectangle(1e154, 1.0)))


class TestThermo2D:
    def test_classical_free_limit(self):
        """U/NkT -> 1 and C_V/Nk -> 1 for the free 2-D gas at small z."""
        dom = free_plane(1.0)
        T = 1e4
        lam = thermal_wavelength(T)
        N = 1e-7 * dom.area / lam**2
        rep = thermo_2d(BOSE, dom, N, T)
        assert rep.U / (N * T) == pytest.approx(1.0, abs=1e-6)
        assert rep.C_V / N == pytest.approx(1.0, abs=1e-6)

    def test_entropy_identity(self):
        rng = np.random.default_rng(21)
        for stat, dom, N, T in random_states_2d(rng, 30):
            rep = thermo_2d(stat, dom, N, T)
            assert abs(rep.S - (rep.U - rep.F) / rep.state.T) <= 1e-12 * abs(rep.S)

    def test_internal_energy_reconstruction(self):
        """U equals T^2 d(ln Xi)/dT at fixed z, which evaluates to
        T [ (area/lam^2) h_2 - (perimeter/(8 lam)) h_3/2 ]."""
        rng = np.random.default_rng(5)
        for stat, dom, N, T in random_states_2d(rng, 12):
            rep = thermo_2d(stat, dom, N, T)
            lam, z = rep.state.lam, rep.state.z
            want = T * (dom.area / lam**2 * h(stat, TWO, z)
                        - dom.perimeter / (8.0 * lam) * h(stat, THREE_HALVES, z))
            assert rep.U == pytest.approx(want, rel=1e-10)

    def test_specific_heat_matches_finite_difference(self):
        for stat in (BOSE, FERMI):
            dom = make_domain(Rectangle(2.0, 1.0))
            N, T = 80.0, 900.0
            rep = thermo_2d(stat, dom, N, T)
            fd = richardson(lambda temp: thermo_2d(stat, dom, N, temp).U, T)
            assert abs(rep.C_V - fd) / abs(fd) < 1e-4

    def test_overflow_refused(self):
        """U ~ N T overflows on this state (U = inf and F = -inf were once
        returned); a non-finite U, F, S or C_V is refused like the aux
        forms' overflow."""
        with pytest.raises(SingularityError, match="not finite"):
            thermo_2d(FERMI, make_domain(Rectangle(1e145, 1e145)), 1e299, 1e10)

    def test_exact_spectral_agreement_within_one_percent(self):
        from confinedgas.spectral import exact_thermo, rectangle_spectrum
        T = 2.0 * math.pi / 0.04  # lam/sqrt(area) = 0.1 for the 4x1 rectangle
        spec = rectangle_spectrum(4.0, 1.0, 40.0 * T)
        _, _, u_exact = exact_thermo(FERMI, spec, 100.0, T)
        rep = thermo_2d(FERMI, make_domain(Rectangle(4.0, 1.0)), 100.0, T)
        assert abs(rep.U - u_exact) / u_exact < 0.01


class TestDzDT2D:
    def test_free_space_fermi_unity(self):
        dom = free_plane(1.0)
        T = 2.0 * math.pi
        state, _ = solve_fugacity(FERMI, dom, N=math.log(2.0), T=T)
        assert aux_2d(FERMI, state.z, state.N, dom).eta2 == 1.0
        assert dz_dT(FERMI, dom, state) == pytest.approx(-2.0 * math.log(2.0) / T, rel=1e-10)

    def test_sign_always_negative(self):
        rng = np.random.default_rng(13)
        for stat, dom, N, T in random_states_2d(rng, 15):
            state, _ = solve_fugacity(stat, dom, N, T)
            assert dz_dT(stat, dom, state) < 0.0
            assert aux_2d(stat, state.z, N, dom).eta2 > 0.0


class TestAux3D:
    def test_free_space_all_unity(self):
        tube = TubeDomain(free_plane(1.0), 500.0)
        aux = aux_3d(FERMI, 0.7, 100.0, tube)
        assert (aux.sigma3, aux.eta3) == (1.0, 1.0)
        assert (aux.xi1, aux.xi2, aux.xi3, aux.xi4, aux.xi5) == (1.0,) * 5

    def test_one_hole_forces_xi345(self):
        tube = TubeDomain(make_domain(Annulus(1.0, 2.0)), 1000.0)
        aux = aux_3d(BOSE, 0.5, 1000.0, tube)
        assert aux.xi3 == 1.0 and aux.xi4 == 1.0 and aux.xi5 == 1.0
        assert aux.xi2 != 1.0 and aux.sigma3 != 1.0

    def test_sigma3_identity_on_solved_state(self):
        tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
        N, T = 1000.0, 120.0
        state, _ = solve_fugacity(BOSE, tube, N, T)
        aux = aux_3d(BOSE, state.z, N, tube)
        ident = (tube.length_z * tube.cross_section.area * h(BOSE, THREE_HALVES, state.z)
                 / (N * state.lam**3))
        assert abs(aux.sigma3 - ident) / ident < 1e-8


    def test_negative_sigma3_refused(self):
        """A Bose disk tube with lam = sqrt(area) resolves sigma3 to -5.98;
        its 2/3 power made U, F and S complex instead of refusing."""
        dom = make_domain(Disk(1.0))
        lam = math.sqrt(dom.area)
        tube = TubeDomain(dom, 150.0 * lam)
        state, _ = solve_fugacity(BOSE, tube, 10.0**-0.5 * tube.length_z / lam, 2.0 * math.pi / lam**2)
        with pytest.raises(SingularityError):
            aux_3d(BOSE, state.z, state.N, tube)
        with pytest.raises(SingularityError):
            thermo_3d(BOSE, tube, state.N, state.T)

    def test_overflow_refused(self):
        """L**3 of xi2 overflows on this cross-section; the public closed
        form refuses it like a row does."""
        tube = TubeDomain(make_domain(Rectangle(1e120, 1.0)), 1e63)
        with pytest.raises(SingularityError):
            aux_3d(BOSE, 2.44712e-181, 5.0, tube)


class TestThermo3D:
    def test_classical_free_limit(self):
        tube = TubeDomain(free_plane(1.0), 1000.0)
        T = 300.0
        lam = thermal_wavelength(T)
        N = 1e-7 * tube.length_z / lam**3
        rep = thermo_3d(BOSE, tube, N, T)
        assert rep.C_V / N == pytest.approx(1.5, abs=1e-6)
        assert rep.U / (N * T) == pytest.approx(1.5, abs=1e-6)

    def test_entropy_identity(self):
        rng = np.random.default_rng(22)
        for stat, tube, N, T in random_states_3d(rng, 20):
            rep = thermo_3d(stat, tube, N, T)
            assert abs(rep.S - (rep.U - rep.F) / rep.state.T) <= 1e-12 * abs(rep.S)

    def test_internal_energy_reconstruction(self):
        """U equals T^2 d(ln Xi)/dT at fixed z:
        T [ (3/2)(Lz A/lam^3) h_5/2 - (Lz L/(4 lam^2)) h_2
            + ((1-r)/12)(Lz/lam) h_3/2 ],
        on large-N states and on ordinary ones, where the paper's cubic
        closed forms differed from it by up to 8.3e-9."""
        rng = np.random.default_rng(6)
        for stat, tube, N, T in [*deep_validity_states_3d(rng, 10), *random_states_3d(rng, 40)]:
            rep = thermo_3d(stat, tube, N, T)
            lam, z = rep.state.lam, rep.state.z
            dom = tube.cross_section
            lz = tube.length_z
            want = T * (1.5 * lz * dom.area / lam**3 * h(stat, FIVE_HALVES, z)
                        - 0.25 * lz * dom.perimeter / lam**2 * h(stat, TWO, z)
                        + (1.0 - dom.holes) / 12.0 * lz / lam * h(stat, THREE_HALVES, z))
            assert rep.U == pytest.approx(want, rel=1e-10)

    def test_specific_heat_matches_finite_difference(self):
        for stat in (BOSE, FERMI):
            tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
            N, T = 1500.0, 150.0
            rep = thermo_3d(stat, tube, N, T)
            fd = richardson(lambda temp: thermo_3d(stat, tube, N, temp).U, T)
            assert abs(rep.C_V - fd) / abs(fd) < 1e-4


class TestDzDT3D:
    def test_free_space_recovers_textbook_relation(self):
        tube = TubeDomain(free_plane(1.0), 1000.0)
        N, T = 50.0, 200.0
        state, _ = solve_fugacity(BOSE, tube, N, T)
        assert aux_3d(BOSE, state.z, N, tube).eta3 == 1.0
        want = -1.5 * (state.z / T) * (h(BOSE, THREE_HALVES, state.z)
                                       / h(BOSE, HALF, state.z))
        assert dz_dT(BOSE, tube, state) == pytest.approx(want, rel=1e-12)

    def test_matches_finite_difference(self):
        tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
        for stat in (BOSE, FERMI):
            N, T = 1200.0, 180.0
            state, _ = solve_fugacity(stat, tube, N, T)
            aux = aux_3d(stat, state.z, N, tube)
            fd = richardson(lambda temp: solve_fugacity(stat, tube, N, temp)[0].z, T)
            eta_fd = implied_eta(stat, state, fd, tube=True)
            assert abs(aux.eta3 - eta_fd) / abs(eta_fd) < 1e-6
            assert abs(dz_dT(stat, tube, state) - fd) / abs(fd) < 1e-6

    def test_sign_always_negative(self):
        rng = np.random.default_rng(17)
        for stat, tube, N, T in random_states_3d(rng, 10):
            state, _ = solve_fugacity(stat, tube, N, T)
            assert dz_dT(stat, tube, state) < 0.0
            assert aux_3d(stat, state.z, N, tube).eta3 > 0.0


class TestCorrectionVanishing:
    def test_all_corrections_vanish_in_free_space(self):
        """Free-space reports equal textbook expressions for any z, N, T."""
        dom = free_plane(2.0)
        for stat in (BOSE, FERMI):
            N, T = 7.0, 500.0
            rep = thermo_2d(stat, dom, N, T)
            z = rep.state.z
            assert rep.U / (N * T) == pytest.approx(h(stat, TWO, z) / h(stat, ONE, z),
                                                    rel=1e-12)
            cv = 2.0 * h(stat, TWO, z) / h(stat, ONE, z) - h(stat, ONE, z) / h(stat, ZERO, z)
            assert rep.C_V / N == pytest.approx(cv, rel=1e-12)


def _mp_u_and_cv(stat, container, T, z):
    """U = T^2 d ln Xi/dT at fixed z and C_V = dU/dT at fixed N, to 30
    digits, of the model's state sums with h from ``mpmath.polylog``.

    The T derivatives are numerical (``mpmath.diff``) through the Weyl
    weights at lam = sqrt(2 pi/T), so no exponent a_i is assumed.  In
    u = ln z, d/du lowers every order by one (d Li_s(x)/d ln x = Li_(s-1)),
    so at fixed N
        C_V = dU/dT|_z + dU/du|_T du/dT,   du/dT = -(dN/dT|_z)/(dN/du).
    """
    tube = isinstance(container, TubeDomain)
    dom = container.cross_section if tube else container
    h = {}

    def state_sum(t, offset):
        """sum_i w_i(t) h_(s_i + shift + offset)(z); offsets 1, 0, -1 give
        ln Xi, N and dN/du."""
        lam = mp.sqrt(2 * mp.pi / t)
        weights = (mp.mpf(dom.area) / lam**2, -mp.mpf(dom.perimeter) / (4 * lam),
                   (1 - mp.mpf(dom.holes)) / 6)
        axial = mp.mpf(container.length_z) / lam if tube else 1
        total = 0
        for w, twice in zip(weights, (2, 1, 0)):
            s = mp.mpf(twice + tube + 2 * offset) / 2
            if s not in h:
                h[s] = mp.polylog(s, z) if stat is BOSE else -mp.re(mp.polylog(s, -z))
            total += axial * w * h[s]
        return total

    with mp.workdps(30):
        T, z = mp.mpf(T), mp.mpf(z)

        def energy(t):
            return t**2 * mp.diff(lambda s: state_sum(s, 1), t)

        dn_dT = mp.diff(lambda s: state_sum(s, 0), T)
        du_dT = -dn_dT / state_sum(T, -1)
        return energy(T), mp.diff(energy, T) + T**2 * dn_dT * du_dT


def test_term_list_matches_mpmath_derivatives():
    """U against an mpmath T^2 d ln Xi/dT at the solved z, and C_V against
    the mpmath dU/dT at fixed N, on seeded plane and tube states, two of
    each statistic in each, one of them degenerate Fermi (z > 1), to 1e-10
    relative, the h contract.  The worst measured is 1.5e-12, the C_V of a
    Bose tube; changing one exponent a_i moves U or C_V far past the bound.
    """
    rng = np.random.default_rng(4)
    seen = set()
    for states, row in ((random_states_2d(rng, 4), thermo_2d),
                        (random_states_3d(rng, 4), thermo_3d)):
        for stat, container, N, T in states:
            rep = row(stat, container, N, T)
            u, c_v = _mp_u_and_cv(stat, container, T, rep.state.z)
            assert abs(rep.U - u) <= 1e-10 * abs(u)
            assert abs(rep.C_V - c_v) <= 1e-10 * abs(c_v)
            seen.add((row, stat))
    assert len(seen) == 4


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    stat=st.sampled_from((BOSE, FERMI)),
    shape=st.sampled_from((Disk(1.0), Rectangle(2.0, 0.5), Annulus(0.5, 1.5))),
    tube=st.booleans(),
    aspect=st.floats(150.0, 400.0),
    log10_ratio=st.floats(-2.5, 0.0),
    log10_fill=st.floats(-8.0, 1.5),
)
def test_entropy_identity_holds_or_refuses(stat, shape, tube, aspect, log10_ratio, log10_fill):
    """Planar domains and tubes of length aspect*sqrt(area), lam/sqrt(area)
    log-uniform on [0.003, 1] and N = fill * (bulk state count) with fill
    log-uniform on [1e-8, 30]: thermo_2d/thermo_3d return a finite report
    with S = (U - F)/T to 1e-12, or refuse with a ConfinedGasError.  U, F, S
    and P all read one table of h values at z*."""
    dom = make_domain(shape)
    lam = 10.0**log10_ratio * math.sqrt(dom.area)
    T = 2.0 * math.pi / lam**2
    N = 10.0**log10_fill * dom.area / lam**2
    try:
        if tube:
            container = TubeDomain(dom, aspect * math.sqrt(dom.area))
            rep = thermo_3d(stat, container, N * container.length_z / lam, T)
        else:
            rep = thermo_2d(stat, dom, N, T)
    except ConfinedGasError:
        return
    for value in (rep.state.z, rep.U, rep.F, rep.S, rep.C_V, rep.P):
        assert math.isfinite(value)
    assert abs(rep.S - (rep.U - rep.F) / rep.state.T) <= 1e-12 * abs(rep.S)


def _row_or_refusal(stat, container, N, T):
    try:
        rep = (thermo_3d if isinstance(container, TubeDomain) else thermo_2d)(stat, container, N, T)
    except ConfinedGasError as exc:
        return type(exc).__name__
    return repr(rep)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    stat=st.sampled_from((BOSE, FERMI)),
    shape=st.sampled_from((Disk(1.0), Rectangle(2.0, 0.5), Annulus(0.5, 1.5))),
    tube=st.booleans(),
    aspect=st.floats(150.0, 400.0),
    log10_ratio=st.floats(-2.5, -0.5),
    log10_fill=st.floats(-4.0, 1.5),
)
def test_row_reuse_is_bit_identical_to_a_fresh_table(stat, shape, tube, aspect, log10_ratio,
                                                     log10_fill):
    """A row reuses the closed forms, Taylor values and inversions its solve
    evaluated at z*; filled instead from a fresh h table at the same z*,
    every number of the report is the same bit for bit, and a refusal is
    the same class."""
    dom = make_domain(shape)
    lam = 10.0**log10_ratio * math.sqrt(dom.area)
    T = 2.0 * math.pi / lam**2
    N = 10.0**log10_fill * dom.area / lam**2
    container = dom
    if tube:
        container = TubeDomain(dom, aspect * math.sqrt(dom.area))
        N *= container.length_z / lam
    solve = thermo._solve

    def solve_without_values(*args):
        state, validity, _ = solve(*args)
        return state, validity, {}

    reused = _row_or_refusal(stat, container, N, T)
    with mock.patch.object(thermo, "_solve", solve_without_values):
        fresh = _row_or_refusal(stat, container, N, T)
    assert reused == fresh


@pytest.mark.parametrize("z_star, series_calls", ((0.953, False), (1.01, False), (0.3, True)))
def test_degenerate_fermi_row_sums_no_direct_series(z_star, series_calls):
    """A Fermi disk row at z* = 0.953 or 1.01 takes every non-closed-form h
    of its solve and its table from the Taylor route: a wrapper counts no
    direct-series call.  The row at z* = 0.3 shows that the wrapper counts."""
    dom = make_domain(Disk(1.0))
    T = 50.0
    N = particle_number(FERMI, dom, thermal_wavelength(T), z_star)
    calls = []
    series = statfun._series

    def counting(*args):
        calls.append(args)
        return series(*args)

    with mock.patch.object(statfun, "_series", counting):
        rep = thermo_2d(FERMI, dom, N, T)
    assert rep.state.z == pytest.approx(z_star, rel=1e-9)
    assert bool(calls) is series_calls


def test_cbrt_is_correctly_rounded():
    """_cbrt against mpmath's correctly rounded cube root on seeded draws of
    both signs and every magnitude, subnormals and exact cubes; +-0, +-inf
    and nan map to themselves."""
    rng = random.Random(3)
    xs = [rng.uniform(0.1, 100.0) for _ in range(2000)]
    xs += [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-307.0, 308.0) for _ in range(2000)]
    xs += [rng.choice((-1.0, 1.0)) * rng.random() * sys.float_info.min for _ in range(500)]
    xs += [float(rng.randint(-2**17, 2**17)) ** 3 for _ in range(500)]
    xs += [2.0**k for k in range(-1074, 1024, 3)]
    xs += [5e-324, -5e-324, sys.float_info.min, sys.float_info.max, -sys.float_info.max]
    with mp.workprec(200):
        for x in xs:
            want = math.copysign(float(mp.cbrt(mp.mpf(abs(x)))), x)
            assert _cbrt(x).hex() == want.hex(), x
    for x in (0.0, -0.0, math.inf, -math.inf):
        assert _cbrt(x).hex() == x.hex()
    assert math.isnan(_cbrt(math.nan))
