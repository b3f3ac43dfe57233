"""Tests for container geometry and the corrected state sum."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confinedgas.eos import particle_number, solve_fugacity
from confinedgas.errors import ConfinedGasError, DomainError, GeometryError, ModelError
from confinedgas.geometry import (
    Annulus,
    Disk,
    PlanarDomain,
    PolygonWithHoles,
    Rectangle,
    TubeDomain,
    free_plane,
    make_domain,
    parse_shape,
    polygon_spec_from_text,
    thermal_wavelength,
    weyl_state_sum,
    weyl_terms,
)
from confinedgas.statfun import StatKind

UNIT_SQUARE_RING = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))


@st.composite
def star_ring(draw, cx, cy, r_lo, r_hi, n_lo, n_hi):
    """A simple ring: vertices at increasing angles around (cx, cy), each
    angle jittered by at most a fifth of the spacing."""
    n = draw(st.integers(n_lo, n_hi))
    step = 2.0 * math.pi / n
    ring = []
    for k in range(n):
        angle = (k + draw(st.floats(-0.2, 0.2))) * step
        radius = draw(st.floats(r_lo, r_hi))
        ring.append((cx + radius * math.cos(angle), cy + radius * math.sin(angle)))
    return tuple(ring)


@st.composite
def polygon_with_holes(draw):
    """An outer ring with radii in [2, 3] around the origin and up to two
    holes of radius at most 0.3, centred 0.8 from the origin on opposite
    sides, so that each hole lies well inside the outer ring."""
    outer = draw(star_ring(0.0, 0.0, 2.0, 3.0, 5, 12))
    holes = []
    base = draw(st.floats(0.0, 2.0 * math.pi))
    for k in range(draw(st.integers(0, 2))):
        angle = base + k * math.pi
        holes.append(draw(star_ring(0.8 * math.cos(angle), 0.8 * math.sin(angle),
                                    0.1, 0.3, 3, 7)))
    return PolygonWithHoles(outer=outer, holes=tuple(holes))


def _reordered(ring, start, reverse):
    ring = ring[start % len(ring):] + ring[:start % len(ring)]
    return ring[::-1] if reverse else ring


class TestMakeDomain:
    def test_rectangle(self):
        dom = make_domain(Rectangle(1.0, 1.0))
        assert (dom.area, dom.perimeter, dom.holes) == (1.0, 4.0, 0)

    def test_rectangle_symmetry(self):
        assert make_domain(Rectangle(2.0, 5.0)) == make_domain(Rectangle(5.0, 2.0))

    def test_disk(self):
        dom = make_domain(Disk(2.0))
        assert dom.area == pytest.approx(4.0 * math.pi)
        assert dom.perimeter == pytest.approx(4.0 * math.pi)
        assert dom.holes == 0

    def test_annulus(self):
        dom = make_domain(Annulus(1.0, 2.0))
        assert dom.area == pytest.approx(3.0 * math.pi)
        assert dom.perimeter == pytest.approx(6.0 * math.pi)
        assert dom.holes == 1

    def test_polygon_unit_square(self):
        dom = make_domain(PolygonWithHoles(outer=UNIT_SQUARE_RING))
        assert dom.area == pytest.approx(1.0)
        assert dom.perimeter == pytest.approx(4.0)
        assert dom.holes == 0

    def test_polygon_with_hole(self):
        hole = ((0.4, 0.4), (0.6, 0.4), (0.6, 0.6), (0.4, 0.6))
        dom = make_domain(PolygonWithHoles(outer=UNIT_SQUARE_RING, holes=(hole,)))
        assert dom.area == pytest.approx(1.0 - 0.04)
        assert dom.perimeter == pytest.approx(4.0 + 0.8)
        assert dom.holes == 1

    def test_self_intersecting_ring_rejected(self):
        bowtie = ((0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0))
        with pytest.raises(GeometryError):
            make_domain(PolygonWithHoles(outer=bowtie))

    def test_hole_outside_rejected(self):
        hole = ((2.0, 2.0), (3.0, 2.0), (3.0, 3.0), (2.0, 3.0))
        with pytest.raises(GeometryError):
            make_domain(PolygonWithHoles(outer=UNIT_SQUARE_RING, holes=(hole,)))

    @staticmethod
    def square(lo, hi):
        return ((lo, lo), (hi, lo), (hi, hi), (lo, hi))

    def test_overlapping_holes_rejected(self):
        """Holes [1,5]^2 and [3,7]^2 in [0,10]^2 overlap: the true domain has
        one hole of area 28, not two of area 16."""
        outer = self.square(0.0, 10.0)
        with pytest.raises(GeometryError, match="hole 1 crosses hole 0"):
            make_domain(PolygonWithHoles(outer, (self.square(1.0, 5.0), self.square(3.0, 7.0))))

    def test_nested_holes_rejected(self):
        outer, big, small = self.square(0.0, 10.0), self.square(1.0, 7.0), self.square(3.0, 5.0)
        for holes in ((big, small), (small, big)):
            with pytest.raises(GeometryError, match="hole 1 overlaps hole 0"):
                make_domain(PolygonWithHoles(outer, holes))

    def test_hole_crossing_the_outer_ring_rejected(self):
        """Every vertex of the hole lies inside the U-shaped ring, but the
        hole spans the notch between its arms."""
        u_ring = ((0, 0), (10, 0), (10, 10), (6, 10), (6, 2), (4, 2), (4, 10), (0, 10))
        hole = ((3, 8), (7, 8), (7, 9), (3, 9))
        with pytest.raises(GeometryError, match="hole 0 crosses the outer ring"):
            make_domain(PolygonWithHoles(u_ring, (hole,)))
        # The same hole moved into one arm is accepted.
        arm = ((1, 8), (3, 8), (3, 9), (1, 9))
        assert make_domain(PolygonWithHoles(u_ring, (arm,))).holes == 1

    def test_degenerate_ring_rejected(self):
        with pytest.raises(GeometryError):
            make_domain(PolygonWithHoles(outer=((0.0, 0.0), (1.0, 0.0))))
        with pytest.raises(GeometryError):
            make_domain(Rectangle(0.0, 1.0))
        with pytest.raises(GeometryError):
            make_domain(Annulus(2.0, 1.0))

    def test_isoperimetric_invariant_holds(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            spec = [
                Rectangle(float(rng.uniform(0.1, 9)), float(rng.uniform(0.1, 9))),
                Disk(float(rng.uniform(0.1, 9))),
                Annulus(*sorted(rng.uniform(0.1, 9.0, size=2))),
            ][rng.integers(3)]
            dom = make_domain(spec)
            assert dom.perimeter**2 >= 4.0 * math.pi * dom.area * (1 - 1e-12)


class TestPlanarDomainInvariants:
    def test_free_space_encoding(self):
        dom = free_plane(3.0)
        assert dom.perimeter == 0.0 and dom.holes == 1

    def test_zero_perimeter_needs_one_hole(self):
        with pytest.raises(GeometryError):
            PlanarDomain(area=1.0, perimeter=0.0, holes=0)

    def test_isoperimetric_enforced(self):
        with pytest.raises(GeometryError):
            PlanarDomain(area=100.0, perimeter=1.0, holes=0)

    def test_isoperimetric_check_at_huge_scale(self):
        # perimeter**2 would overflow past ~1.3e154.
        dom = make_domain(Rectangle(1e300, 1.0))
        assert (dom.area, dom.perimeter) == (1e300, 2.0 * (1e300 + 1.0))
        PlanarDomain(area=1e308, perimeter=4e154, holes=0)
        with pytest.raises(GeometryError):
            PlanarDomain(area=1e308, perimeter=3e154, holes=0)

    def test_negative_fields(self):
        with pytest.raises(GeometryError):
            PlanarDomain(area=-1.0, perimeter=4.0, holes=0)
        with pytest.raises(GeometryError):
            PlanarDomain(area=1.0, perimeter=4.0, holes=-1)


class TestTubeDomain:
    def test_too_short_tube_rejected(self):
        with pytest.raises(GeometryError):
            TubeDomain(make_domain(Disk(1.0)), 5.0)

    @staticmethod
    def solve_tube(length_z):
        """A Fermi solve on a unit-disk tube, with Python warnings as errors:
        the validity report is the only channel that may flag the tube."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tube = TubeDomain(make_domain(Disk(1.0)), length_z)
            return solve_fugacity(StatKind.FERMI, tube, 100.0, 50.0)[1]

    def test_marginal_tube_warns(self):
        """30 long is 16.9 sqrt(area): flagged below the threshold 100."""
        aspect = [w for w in self.solve_tube(30.0).warnings if w.startswith("aspect:")]
        assert len(aspect) == 1 and "16.93" in aspect[0] and "100" in aspect[0]

    def test_long_tube_clean(self):
        assert self.solve_tube(500.0).warnings == ()


class TestThermalWavelength:
    def test_reference_values(self):
        assert thermal_wavelength(1.0) == pytest.approx(math.sqrt(2.0 * math.pi))
        assert thermal_wavelength(2.0 * math.pi) == pytest.approx(1.0)

    def test_monotone_to_zero(self):
        values = [thermal_wavelength(t) for t in (1.0, 10.0, 1e4, 1e8)]
        assert all(a > b > 0.0 for a, b in zip(values, values[1:]))

    def test_domain(self):
        for bad in (0.0, -2.0):
            with pytest.raises(DomainError):
                thermal_wavelength(bad)


class TestWeylStateSum:
    def test_disk_reference_value(self):
        dom = make_domain(Disk(1.0))
        want = math.pi / 0.01 - 2.0 * math.pi / 0.4 + 1.0 / 6.0
        assert weyl_state_sum(dom, 0.1) == pytest.approx(want)
        assert weyl_state_sum(dom, 0.1) == pytest.approx(298.618, abs=5e-4)

    def test_free_space_reduction(self):
        dom = free_plane(7.0)
        for lam in (0.1, 1.0, 2.0):
            assert weyl_state_sum(dom, lam) == pytest.approx(7.0 / lam**2)

    def test_strictly_decreasing_in_lambda(self):
        dom = make_domain(Rectangle(3.0, 2.0))
        lams = np.linspace(0.01, 0.8, 40)
        vals = [weyl_state_sum(dom, float(l)) for l in lams]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_scaling_law(self):
        """(area, perimeter, holes) -> (s^2 area, s perimeter, holes) and the
        state sum is invariant under (lengths, lambda) -> (s lengths, s lambda)."""
        s = 2.7
        base = make_domain(Annulus(1.0, 2.0))
        scaled = make_domain(Annulus(s * 1.0, s * 2.0))
        assert scaled.area == pytest.approx(s**2 * base.area)
        assert scaled.perimeter == pytest.approx(s * base.perimeter)
        assert scaled.holes == base.holes
        for lam in (0.05, 0.3):
            assert weyl_state_sum(scaled, s * lam) == pytest.approx(
                weyl_state_sum(base, lam), rel=1e-12)

    def test_model_error_when_boundary_term_wins(self):
        # The three-term value dips negative near lam = 8*area/perimeter
        # whenever perimeter^2/area > 64/6.
        dom = make_domain(Rectangle(1.0, 1.0))
        with pytest.raises(ModelError):
            weyl_state_sum(dom, 2.0)


    def test_bulk_term_divides_by_the_correctly_rounded_square(self):
        """area / lam^2 divides by lam * lam, never by libm's pow (which
        misrounds lam = 0.03240386053157679, among others, by 1 ulp)."""
        dom = make_domain(Disk(0.4509480095465535))
        lams = np.exp(np.random.default_rng(20).uniform(-7.0, 7.0, 2000)).tolist()
        for lam in [0.03240386053157679, *lams]:
            assert weyl_terms(dom, lam)[0] == dom.area / float(Fraction(lam) ** 2), lam

    def test_wavelength_whose_square_overflows_is_refused(self):
        with pytest.raises(DomainError):
            weyl_terms(make_domain(Disk(1.0)), 1e155)


class TestShapeParsing:
    def test_parse_variants(self):
        assert parse_shape("rect:1,2") == Rectangle(1.0, 2.0)
        assert parse_shape("disk:1.5") == Disk(1.5)
        assert parse_shape("annulus:1,2") == Annulus(1.0, 2.0)

    def test_parse_polygon_file(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text("0 0\n1 0\n1 1\n0 1\n\n0.4 0.4\n0.6 0.4\n0.6 0.6\n0.4 0.6\n")
        spec = parse_shape(f"polygon:@{path}")
        dom = make_domain(spec)
        assert dom.holes == 1
        assert dom.area == pytest.approx(0.96)

    def test_parse_errors(self):
        for bad in ("rect:1", "blob:3", "annulus:1", "polygon:file"):
            with pytest.raises(GeometryError):
                parse_shape(bad)

    def test_polygon_text_errors(self):
        with pytest.raises(GeometryError):
            polygon_spec_from_text("")
        with pytest.raises(GeometryError):
            polygon_spec_from_text("1 2 3\n")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    poly=polygon_with_holes(),
    starts=st.lists(st.integers(0, 11), min_size=3, max_size=3),
    reverse=st.lists(st.booleans(), min_size=3, max_size=3),
    stat=st.sampled_from((StatKind.BOSE, StatKind.FERMI)),
    log10_ratio=st.floats(-2.0, -0.5),
    log10_z=st.floats(-3.0, 2.0),
)
def test_polygon_descriptors_ignore_ring_order(poly, starts, reverse, stat, log10_ratio, log10_z):
    """Starting each ring at another vertex and reversing any of the outer
    ring and the hole rings changes neither the Weyl descriptors (to 1e-12
    relative) nor the particle number built from them."""
    moved = PolygonWithHoles(
        outer=_reordered(poly.outer, starts[0], reverse[0]),
        holes=tuple(_reordered(h, s, r)
                    for h, s, r in zip(poly.holes, starts[1:], reverse[1:])),
    )
    dom, other = make_domain(poly), make_domain(moved)
    assert other.holes == dom.holes == len(poly.holes)
    assert other.area == pytest.approx(dom.area, rel=1e-12, abs=0.0)
    assert other.perimeter == pytest.approx(dom.perimeter, rel=1e-12, abs=0.0)

    lam = 10.0**log10_ratio * math.sqrt(dom.area)
    z = min(10.0**log10_z, 1.0 - 1e-3) if stat is StatKind.BOSE else 10.0**log10_z
    try:
        want = particle_number(stat, dom, lam, z)
    except ConfinedGasError:
        with pytest.raises(ConfinedGasError):
            particle_number(stat, other, lam, z)
        return
    assert particle_number(stat, other, lam, z) == pytest.approx(want, rel=1e-12, abs=0.0)
