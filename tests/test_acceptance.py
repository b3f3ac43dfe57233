"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest -s``) and then asserts, so the suite both reports and gates.
"""

import math

import numpy as np

from confinedgas import statfun
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
from confinedgas.spectral import (
    annulus_spectrum,
    disk_spectrum,
    exact_thermo,
    rectangle_spectrum,
    theta_sum,
)
from confinedgas.statfun import (
    FIVE_HALVES,
    MINUS_ONE,
    ONE,
    THREE_HALVES,
    TWO,
    ZERO,
    Method,
    Order,
    StatKind,
    eval_h,
)
from confinedgas.thermo import (
    aux_2d,
    aux_3d,
    thermo_2d,
    thermo_3d,
)
from conftest import de_quad_h, implied_eta, richardson

BOSE, FERMI = StatKind.BOSE, StatKind.FERMI

ZETA = {1.5: 2.6123753486854883, 2.0: 1.6449340668482264, 2.5: 1.3414872572509172}


def report(n, ok, detail):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def h(stat, sigma, z):
    return eval_h(stat, sigma, z).value


def test_criterion_1_special_functions():
    """Series vs closed forms (1e-12 abs), series vs independent quadrature
    (1e-9), Fermi z=1 anchors (1e-10).  The series runs through its private
    route at a 1e-13 tail, also outside its dispatch region."""
    worst_closed = 0.0
    for stat in (BOSE, FERMI):
        for sigma in (ZERO, ONE, MINUS_ONE):
            for z in np.linspace(0.005, 0.95, 200):
                s = statfun._series(stat, sigma, float(z), 1e-13).value
                closed = eval_h(stat, sigma, float(z))
                assert closed.method is Method.CLOSED_FORM
                worst_closed = max(worst_closed, abs(s - closed.value))
    worst_quad = 0.0
    for stat in (BOSE, FERMI):
        for sigma in (0.5, 1.5, 2.0, 2.5):
            for z in np.linspace(0.02, 0.99, 25):
                s = statfun._series(stat, Order.of(sigma), float(z), 1e-13).value
                q = de_quad_h(stat, sigma, float(z))
                worst_quad = max(worst_quad, abs(s - q))
    worst_anchor = 0.0
    for sigma in (1.5, 2.0, 2.5):
        want = (1.0 - 2.0 ** (1.0 - sigma)) * ZETA[sigma]
        worst_anchor = max(worst_anchor, abs(h(FERMI, sigma, 1.0) - want))
    ok = worst_closed < 1e-12 and worst_quad < 1e-9 and worst_anchor < 1e-10
    report(1, ok,
           f"series-vs-closed {worst_closed:.2e} (tol 1e-12), "
           f"series-vs-quadrature {worst_quad:.2e} (tol 1e-9), "
           f"Fermi z=1 anchors {worst_anchor:.2e} (tol 1e-10)")


def test_criterion_2_heat_kernel_smooth_disk():
    """Disk R=1: |residual| <= 0.03 at t in {0.1, 0.05, 0.025}, decreasing,
    with successive ratios in [0.5, 0.9]."""
    spec = disk_spectrum(1.0, 700.0)
    area, perim = math.pi, 2.0 * math.pi
    residuals = []
    for t in (0.1, 0.05, 0.025):
        theta, _ = theta_sum(spec, t)
        weyl = area / (2 * math.pi * t) - perim / (4 * math.sqrt(2 * math.pi * t)) + 1 / 6
        residuals.append(abs(theta - weyl))
    ratios = [b / a for a, b in zip(residuals, residuals[1:])]
    ok = (max(residuals) <= 0.03
          and residuals[0] > residuals[1] > residuals[2]
          and all(0.5 <= r <= 0.9 for r in ratios))
    report(2, ok, f"residuals {[f'{r:.5f}' for r in residuals]} (tol 0.03), "
                  f"ratios {[f'{r:.3f}' for r in ratios]} (band [0.5, 0.9])")


def test_criterion_3_heat_kernel_annulus_connectivity():
    """Annulus (1,2) at t=0.05: the hole cancels the constant term."""
    spec = annulus_spectrum(1.0, 2.0, 320.0)
    theta, _ = theta_sum(spec, 0.05)
    area, perim = 3.0 * math.pi, 6.0 * math.pi
    weyl = area / (2 * math.pi * 0.05) - perim / (4 * math.sqrt(2 * math.pi * 0.05))
    resid = abs(theta - weyl)
    report(3, resid <= 0.05, f"constant-term residual {resid:.5f} (tol 0.05)")


def test_criterion_4_polygon_corner_caveat():
    """Unit square t=0.1: Theta = 0.58006 +- 5e-4 and the corner-corrected
    constant 0.250 +- 0.005 (informational deviation from the smooth 1/6)."""
    spec = rectangle_spectrum(1.0, 1.0, 500.0)
    theta, bound = theta_sum(spec, 0.1)
    corner = theta - (1 / (2 * math.pi * 0.1) - 1 / math.sqrt(2 * math.pi * 0.1))
    ok = abs(theta - 0.58006) <= 5e-4 and abs(corner - 0.250) <= 0.005
    report(4, ok, f"Theta(0.1) = {theta:.6f} (0.58006 +- 5e-4), "
                  f"corner constant {corner:.4f} (0.250 +- 0.005, vs smooth 1/6)")


def test_criterion_5_sigma_identities():
    """sigma2 = area h_1/(N lam^2) and sigma3 = Lz area h_3/2/(N lam^3) to
    1e-8 relative over >= 100 random valid states per dimensionality."""
    rng = np.random.default_rng(42)
    shapes = [Rectangle(1.0, 1.0), Rectangle(4.0, 1.0), Disk(1.0), Annulus(1.0, 2.0)]
    worst2 = 0.0
    for _ in range(100):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(shapes[rng.integers(len(shapes))])
        T = float(rng.uniform(500.0, 5000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 2.0)) * dom.area / lam**2
        state, _ = solve_fugacity(stat, dom, N, T)
        s2 = aux_2d(stat, state.z, N, dom).sigma2
        ident = dom.area * h(stat, ONE, state.z) / (N * lam**2)
        worst2 = max(worst2, abs(s2 - ident) / ident)
    worst3 = 0.0
    sections = [Disk(1.0), Rectangle(1.0, 1.0), Annulus(1.0, 2.0)]
    for _ in range(100):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(sections[rng.integers(len(sections))])
        tube = TubeDomain(dom, 400.0 * math.sqrt(dom.area))
        T = float(rng.uniform(400.0, 4000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.1, 1.0)) * tube.length_z * dom.area / lam**3
        state, _ = solve_fugacity(stat, tube, N, T)
        s3 = aux_3d(stat, state.z, N, tube).sigma3
        ident = tube.length_z * dom.area * h(stat, THREE_HALVES, state.z) / (N * lam**3)
        worst3 = max(worst3, abs(s3 - ident) / ident)
    ok = worst2 < 1e-8 and worst3 < 1e-8
    report(5, ok, f"sigma2 worst {worst2:.2e}, sigma3 worst {worst3:.2e} (tol 1e-8, "
                  "100 random valid states each)")


def test_criterion_6_entropy_identity():
    """S = (U - F)/T to 1e-12 relative on every generated report."""
    rng = np.random.default_rng(99)
    worst = 0.0
    count = 0
    shapes = [Rectangle(1.0, 1.0), Rectangle(4.0, 1.0), Disk(1.0), Annulus(1.0, 2.0)]
    for _ in range(40):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(shapes[rng.integers(len(shapes))])
        T = float(rng.uniform(400.0, 6000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 2.5)) * dom.area / lam**2
        rep = thermo_2d(stat, dom, N, T)
        worst = max(worst, abs(rep.S - (rep.U - rep.F) / rep.state.T) / abs(rep.S))
        count += 1
    sections = [Disk(1.0), Rectangle(1.0, 1.0), Annulus(1.0, 2.0)]
    for _ in range(40):
        stat = BOSE if rng.random() < 0.5 else FERMI
        dom = make_domain(sections[rng.integers(len(sections))])
        tube = TubeDomain(dom, 400.0 * math.sqrt(dom.area))
        T = float(rng.uniform(100.0, 2000.0))
        lam = thermal_wavelength(T)
        N = float(rng.uniform(0.05, 1.2)) * tube.length_z * dom.area / lam**3
        rep = thermo_3d(stat, tube, N, T)
        worst = max(worst, abs(rep.S - (rep.U - rep.F) / rep.state.T) / abs(rep.S))
        count += 1
    report(6, worst < 1e-12,
           f"worst |S - (U-F)/T| / |S| = {worst:.2e} over {count} reports (tol 1e-12)")


def test_criterion_7_derivative_relations():
    """dz/dT, and the eta2/eta3 closed forms through the dz/dT they imply,
    vs centred differences (1e-6); C_V vs Richardson finite-difference
    dU/dT at fixed N (1e-4)."""
    worst_dz = 0.0
    cases_2d = [(BOSE, Rectangle(2.0, 1.0), 80.0, 900.0),
                (FERMI, Disk(1.0), 120.0, 1500.0)]
    for stat, shape, N, T in cases_2d:
        dom = make_domain(shape)
        state, _ = solve_fugacity(stat, dom, N, T)
        fd = richardson(lambda temp: solve_fugacity(stat, dom, N, temp)[0].z, T)
        eta_fd = implied_eta(stat, state, fd)
        worst_dz = max(worst_dz, abs(dz_dT(stat, dom, state) - fd) / abs(fd),
                       abs(aux_2d(stat, state.z, N, dom).eta2 - eta_fd) / abs(eta_fd))
    tube = TubeDomain(make_domain(Disk(1.0)), 500.0)
    cases_3d = [(BOSE, 1500.0, 150.0), (FERMI, 2500.0, 200.0)]
    for stat, N, T in cases_3d:
        state, _ = solve_fugacity(stat, tube, N, T)
        fd = richardson(lambda temp: solve_fugacity(stat, tube, N, temp)[0].z, T)
        eta_fd = implied_eta(stat, state, fd, tube=True)
        worst_dz = max(worst_dz, abs(dz_dT(stat, tube, state) - fd) / abs(fd),
                       abs(aux_3d(stat, state.z, N, tube).eta3 - eta_fd) / abs(eta_fd))

    worst_cv = 0.0
    for stat, shape, N, T in cases_2d:
        dom = make_domain(shape)
        rep = thermo_2d(stat, dom, N, T)
        fd = richardson(lambda temp: thermo_2d(stat, dom, N, temp).U, T)
        worst_cv = max(worst_cv, abs(rep.C_V - fd) / abs(fd))
    for stat, N, T in cases_3d:
        rep = thermo_3d(stat, tube, N, T)
        fd = richardson(lambda temp: thermo_3d(stat, tube, N, temp).U, T)
        worst_cv = max(worst_cv, abs(rep.C_V - fd) / abs(fd))
    ok = worst_dz < 1e-6 and worst_cv < 1e-4
    report(7, ok, f"dz/dT worst rel {worst_dz:.2e} (tol 1e-6), "
                  f"C_V worst rel {worst_cv:.2e} (tol 1e-4)")


def test_criterion_8_exact_vs_asymptotic_energy():
    """Rectangle (4,1), Fermi, N=100, lam/sqrt(area) = 0.1: exact spectral U
    and asymptotic U within 1%, shrinking as T doubles twice."""
    dom = make_domain(Rectangle(4.0, 1.0))
    rels = []
    for doubling in range(3):
        T = (2.0 * math.pi / 0.04) * 2.0**doubling
        spec = rectangle_spectrum(4.0, 1.0, 40.0 * T)
        _, _, u_exact = exact_thermo(FERMI, spec, 100.0, T)
        rep = thermo_2d(FERMI, dom, 100.0, T)
        rels.append(abs(rep.U - u_exact) / u_exact)
    ok = rels[0] < 0.01 and rels[0] > rels[1] > rels[2]
    report(8, ok, f"relative U discrepancies {[f'{r:.2e}' for r in rels]} "
                  "(first < 1e-2, monotonically shrinking)")


def test_criterion_9_free_space_collapse():
    """(perimeter 0, one hole): textbook ideal-gas formulas to 1e-6 relative
    at z = 1e-3, and the classical constants C_V/Nk -> 1 (2-D), 3/2 (3-D)."""
    worst = 0.0
    dom = free_plane(1.0)
    T = 2000.0 * math.pi
    lam = thermal_wavelength(T)
    for stat in (BOSE, FERMI):
        b = -math.log1p(-1e-3) if stat is BOSE else math.log1p(1e-3)
        N = dom.area / lam**2 * b
        rep = thermo_2d(stat, dom, N, T)
        z = rep.state.z
        assert abs(z - 1e-3) < 1e-9
        nkt = N * T
        for got, want in (
            (rep.U / nkt, h(stat, TWO, z) / h(stat, ONE, z)),
            (rep.F / nkt, math.log(z) - h(stat, TWO, z) / h(stat, ONE, z)),
            (rep.S / N, 2 * h(stat, TWO, z) / h(stat, ONE, z) - math.log(z)),
            (rep.C_V / N, 2 * h(stat, TWO, z) / h(stat, ONE, z)
             - h(stat, ONE, z) / h(stat, ZERO, z)),
            (rep.P * dom.area / nkt, h(stat, TWO, z) / h(stat, ONE, z)),
        ):
            worst = max(worst, abs(got - want) / abs(want))

    tube = TubeDomain(free_plane(1.0), 500.0)
    lam3 = thermal_wavelength(T)
    for stat in (BOSE, FERMI):
        N = tube.length_z / lam3**3 * 1e-3  # h_3/2(z) ~ z in this regime
        rep3 = thermo_3d(stat, tube, N, T)
        z = rep3.state.z
        want_u = 1.5 * h(stat, FIVE_HALVES, z) / h(stat, THREE_HALVES, z)
        worst = max(worst, abs(rep3.U / (N * T) - want_u) / want_u)

    # classical constants, evaluated deep in the Boltzmann tail
    N2 = dom.area / thermal_wavelength(T)**2 * 1e-7
    cv2 = thermo_2d(BOSE, dom, N2, T).C_V / N2
    N3 = tube.length_z / thermal_wavelength(T)**3 * 1e-7
    cv3 = thermo_3d(BOSE, tube, N3, T).C_V / N3
    ok = worst < 1e-6 and abs(cv2 - 1.0) < 1e-6 and abs(cv3 - 1.5) < 1e-6
    report(9, ok, f"textbook-formula worst rel {worst:.2e} at z=1e-3 (tol 1e-6); "
                  f"classical C_V/Nk: 2-D {cv2:.8f} -> 1, 3-D {cv3:.8f} -> 3/2")


def test_criterion_10_solver_robustness_grid():
    """Disk, 50x50 (N, T) grid per statistic: convergence to 1e-12 relative
    residual everywhere, Bose z spanning 1e-4..0.999 and Fermi 1e-4..1e3,
    every Fermi z > 1 row flagged."""
    dom = make_domain(Disk(1.0))
    temps = np.logspace(math.log10(2500.0), math.log10(25000.0), 50)
    lam_cold = thermal_wavelength(float(temps[0]))

    # Each statistic gets its own N grid, calibrated so the coldest column
    # reaches the target fugacity extreme exactly.
    grids = {}
    for stat, z_top in ((BOSE, 0.999), (FERMI, 1e3)):
        n_lo = particle_number(stat, dom, lam_cold, 1e-4)
        n_hi = particle_number(stat, dom, lam_cold, z_top)
        grids[stat] = np.logspace(math.log10(n_lo), math.log10(n_hi), 50)

    z_seen = {BOSE: [], FERMI: []}
    worst_resid = 0.0
    flags_ok = True
    for stat in (BOSE, FERMI):
        for n_particles in grids[stat]:
            for T in temps:
                state, rep = solve_fugacity(stat, dom, float(n_particles), float(T),
                                            tol=2.5e-13)
                got = particle_number(stat, dom, state.lam, state.z)
                worst_resid = max(worst_resid, abs(got - n_particles) / n_particles)
                z_seen[stat].append(state.z)
                if stat is FERMI and state.z > 1.0 + 8e-15:
                    flags_ok = flags_ok and rep.fermi_extension_used
    zb, zf = np.array(z_seen[BOSE]), np.array(z_seen[FERMI])
    span_ok = (zb.min() <= 1e-4 and zb.max() >= 0.999 * (1.0 - 1e-9)
               and zf.min() <= 1e-4 and zf.max() >= 1e3 * (1.0 - 1e-9))
    ok = worst_resid <= 1e-12 and span_ok and flags_ok
    report(10, ok,
           f"5000 solves, worst relative residual {worst_resid:.2e} (tol 1e-12); "
           f"Bose z in [{zb.min():.2e}, {zb.max():.6f}], "
           f"Fermi z in [{zf.min():.2e}, {zf.max():.4g}]; "
           f"all Fermi z>1 flagged: {flags_ok}")
