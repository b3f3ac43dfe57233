"""Container geometry and the boundary-corrected state count.

A planar container enters the statistics only through its Weyl descriptors:
area, total boundary length (outer boundary plus every hole boundary) and
hole count.  In natural units (hbar = m = k_B = 1, so h = 2*pi) the thermal
wavelength is lambda = sqrt(2*pi/T) and the single-particle state sum of a
domain is approximated for small lambda by

    sum_s exp(-eps_s / T) = area/lambda^2 - perimeter/(4 lambda) + (1 - holes)/6.

The constant term assumes a smooth boundary; polygons carry an extra corner
contribution (1/16 per right angle) that this module deliberately does NOT
add -- the spectral oracle documents the discrepancy instead.  This module
refuses invalid containers; how far a valid one (a short tube, a large
wavelength) sits inside the model is judged by the equation-of-state layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

from .errors import DomainError, GeometryError, ModelError

__all__ = [
    "PlanarDomain",
    "TubeDomain",
    "Rectangle",
    "Disk",
    "Annulus",
    "PolygonWithHoles",
    "FreePlane",
    "ShapeSpec",
    "free_plane",
    "make_domain",
    "thermal_wavelength",
    "weyl_state_sum",
    "weyl_terms",
    "parse_shape",
    "polygon_spec_from_text",
]


#: perimeter^2 >= 4 pi area, with 1e-12 relative slack, as a bound on
#: perimeter/sqrt(area): neither side of that comparison can overflow.
_ISOPERIMETRIC_RATIO = math.sqrt(4.0 * math.pi * (1.0 - 1e-12))


@dataclass(frozen=True)
class PlanarDomain:
    """Weyl descriptors (area, total boundary length, hole count).

    ``perimeter == 0`` is permitted only together with ``holes == 1``: that
    combination encodes the free-space reference configuration in which both
    correction terms vanish identically.
    """

    area: float
    perimeter: float
    holes: int

    def __post_init__(self):
        if not (self.area > 0.0) or not math.isfinite(self.area):
            raise GeometryError(f"area must be positive and finite, got {self.area}")
        if self.perimeter < 0.0 or not math.isfinite(self.perimeter):
            raise GeometryError(f"perimeter must be >= 0, got {self.perimeter}")
        if not isinstance(self.holes, int) or self.holes < 0:
            raise GeometryError(f"holes must be a non-negative integer, got {self.holes}")
        if self.perimeter == 0.0:
            if self.holes != 1:
                raise GeometryError(
                    "perimeter == 0 encodes the free-space reference and "
                    "requires holes == 1"
                )
        elif self.perimeter / math.sqrt(self.area) < _ISOPERIMETRIC_RATIO:
            raise GeometryError(
                f"isoperimetric inequality violated: perimeter/sqrt(area) = "
                f"{self.perimeter / math.sqrt(self.area):.6g} < sqrt(4*pi)"
            )


def free_plane(area: float) -> PlanarDomain:
    """Free-space reference configuration: no boundary, both corrections zero."""
    return PlanarDomain(area=area, perimeter=0.0, holes=1)


@dataclass(frozen=True)
class TubeDomain:
    """Uniform tube: a planar cross-section extruded to length ``length_z``.

    The axial momentum is treated as continuous, which needs the tube to be
    long against the cross-section scale: length_z >= 10*sqrt(area) is
    enforced here, and ``solve_fugacity`` flags a tube below 100x
    (``eos.WARN_ASPECT_RATIO``) in its validity report.
    """

    cross_section: PlanarDomain
    length_z: float

    def __post_init__(self):
        if not (self.length_z > 0.0) or not math.isfinite(self.length_z):
            raise GeometryError(f"length_z must be positive, got {self.length_z}")
        scale = math.sqrt(self.cross_section.area)
        if self.length_z < 10.0 * scale:
            raise GeometryError(
                f"length_z = {self.length_z:.6g} is below 10x the cross-section "
                f"scale {scale:.6g}; the continuous-axial-momentum assumption fails"
            )


# ---------------------------------------------------------------------------
# shape specifications
# ---------------------------------------------------------------------------

Point = tuple[float, float]


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and self.b > 0.0):
            raise GeometryError(f"rectangle sides must be positive, got {self.a}, {self.b}")


@dataclass(frozen=True)
class Disk:
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise GeometryError(f"disk radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class Annulus:
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not (0.0 < self.r_inner < self.r_outer):
            raise GeometryError(
                f"annulus requires 0 < r_inner < r_outer, got "
                f"({self.r_inner}, {self.r_outer})"
            )


@dataclass(frozen=True)
class PolygonWithHoles:
    """Simple outer ring with zero or more simple holes strictly inside it."""

    outer: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "outer", tuple(tuple(map(float, p)) for p in self.outer))
        object.__setattr__(
            self, "holes", tuple(tuple(tuple(map(float, p)) for p in h) for h in self.holes)
        )


@dataclass(frozen=True)
class FreePlane:
    """Boundary-free reference region of a given area (both corrections 0)."""

    area: float

    def __post_init__(self):
        if not (self.area > 0.0):
            raise GeometryError(f"free-plane area must be positive, got {self.area}")


ShapeSpec = Union[Rectangle, Disk, Annulus, PolygonWithHoles, FreePlane]


# ---------------------------------------------------------------------------
# polygon helpers
# ---------------------------------------------------------------------------

def _ring_area(ring: tuple[Point, ...]) -> float:
    """Unsigned shoelace area."""
    s = 0.0
    n = len(ring)
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        s += x0 * y1 - x1 * y0
    return abs(s) / 2.0


def _ring_length(ring: tuple[Point, ...]) -> float:
    n = len(ring)
    return sum(math.dist(ring[i], ring[(i + 1) % n]) for i in range(n))


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    """Proper or improper intersection of two closed segments."""

    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > 0:
            return 1
        if v < 0:
            return -1
        return 0

    def on_segment(a, b, c):
        return (
            min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])
        )

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, p2, q1):
        return True
    if o2 == 0 and on_segment(p1, p2, q2):
        return True
    if o3 == 0 and on_segment(q1, q2, p1):
        return True
    if o4 == 0 and on_segment(q1, q2, p2):
        return True
    return False


def _edges(ring: tuple[Point, ...]) -> list[tuple[Point, Point]]:
    return [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]


def _check_simple_ring(ring: tuple[Point, ...], label: str) -> None:
    n = len(ring)
    if n < 3:
        raise GeometryError(f"{label}: a ring needs at least 3 vertices, got {n}")
    for i in range(n):
        if ring[i] == ring[(i + 1) % n]:
            raise GeometryError(f"{label}: zero-length edge at vertex {i}")
    if _ring_area(ring) <= 0.0:
        raise GeometryError(f"{label}: degenerate ring with zero area")
    edges = _edges(ring)
    for i in range(n):
        for j in range(i + 1, n):
            # skip edges sharing a vertex (consecutive, incl. the wrap pair)
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_intersect(*edges[i], *edges[j]):
                raise GeometryError(f"{label}: edges {i} and {j} intersect (ring not simple)")


def _point_in_ring(pt: Point, ring: tuple[Point, ...]) -> bool:
    """Strict interior test by ray casting; points on an edge count as outside."""
    x, y = pt
    n = len(ring)
    inside = False
    for i in range(n):
        x0, y0 = ring[i]
        x1, y1 = ring[(i + 1) % n]
        # on-edge check
        cross = (x1 - x0) * (y - y0) - (y1 - y0) * (x - x0)
        if cross == 0.0 and min(x0, x1) <= x <= max(x0, x1) and min(y0, y1) <= y <= max(y0, y1):
            return False
        if (y0 > y) != (y1 > y):
            x_int = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < x_int:
                inside = not inside
    return inside


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def make_domain(spec: ShapeSpec) -> PlanarDomain:
    """Derive the Weyl descriptors (area, perimeter, holes) of a shape.

    Rectangle(a, b)      -> (a*b, 2*(a+b), 0)
    Disk(R)              -> (pi R^2, 2 pi R, 0)
    Annulus(Ri, Ro)      -> (pi (Ro^2 - Ri^2), 2 pi (Ri + Ro), 1)
    PolygonWithHoles     -> (shoelace area minus hole areas, total ring
                             length, number of holes); each hole lies
                             strictly inside the outer ring and neither
                             meets nor nests in another ring
    """
    if isinstance(spec, Rectangle):
        return PlanarDomain(spec.a * spec.b, 2.0 * (spec.a + spec.b), 0)
    if isinstance(spec, Disk):
        return PlanarDomain(math.pi * (spec.radius * spec.radius), 2.0 * math.pi * spec.radius, 0)
    if isinstance(spec, Annulus):
        return PlanarDomain(
            math.pi * (spec.r_outer * spec.r_outer - spec.r_inner * spec.r_inner),
            2.0 * math.pi * (spec.r_inner + spec.r_outer),
            1,
        )
    if isinstance(spec, FreePlane):
        return free_plane(spec.area)
    if isinstance(spec, PolygonWithHoles):
        _check_simple_ring(spec.outer, "outer ring")
        area = _ring_area(spec.outer)
        length = _ring_length(spec.outer)
        for k, hole in enumerate(spec.holes):
            _check_simple_ring(hole, f"hole {k}")
            for pt in hole:
                if not _point_in_ring(pt, spec.outer):
                    raise GeometryError(f"hole {k} is not strictly inside the outer ring")
            # Vertices inside the outer ring do not keep an edge from leaving
            # it, and holes must not cross, touch or nest in each other.
            for j, other in enumerate((spec.outer,) + spec.holes[:k]):
                label = f"hole {j - 1}" if j else "the outer ring"
                if any(_segments_intersect(*e, *f) for e in _edges(hole) for f in _edges(other)):
                    raise GeometryError(f"hole {k} crosses {label}")
                if j and (any(_point_in_ring(pt, other) for pt in hole)
                          or any(_point_in_ring(pt, hole) for pt in other)):
                    raise GeometryError(f"hole {k} overlaps {label}")
            hole_area = _ring_area(hole)
            if hole_area >= area:
                raise GeometryError(f"hole {k} is at least as large as the outer ring")
            area -= hole_area
            length += _ring_length(hole)
        if area <= 0.0:
            raise GeometryError("holes consume the whole outer area")
        return PlanarDomain(area, length, len(spec.holes))
    raise GeometryError(f"unknown shape specification {spec!r}")


def thermal_wavelength(T: float) -> float:
    """Mean thermal wavelength sqrt(2*pi/T) in natural units."""
    if not (T > 0.0) or not math.isfinite(T):
        raise DomainError(f"temperature must be positive and finite, got {T}")
    return math.sqrt(2.0 * math.pi / T)


def weyl_terms(dom: PlanarDomain, lam: float) -> tuple[float, float, float]:
    """The bulk, boundary and connectivity terms of the state sum at lam:
    (area/lam^2, -perimeter/(4 lam), (1 - holes)/6).  The one place they
    are computed; validity judgments belong to the equation-of-state layer.
    """
    lam2 = lam * lam
    if not (lam > 0.0) or not math.isfinite(lam2):
        raise DomainError(f"thermal wavelength must be positive with a finite square, got {lam}")
    return dom.area / lam2, -0.25 * dom.perimeter / lam, (1.0 - dom.holes) / 6.0


def weyl_state_sum(dom: PlanarDomain, lam: float) -> float:
    """Boundary- and connectivity-corrected single-particle state sum.

    Returns area/lam^2 - perimeter/(4 lam) + (1 - holes)/6, the sum of
    ``weyl_terms``.  Raises ModelError when the value is not positive (lam
    too large for the domain, the expansion is meaningless).
    """
    value = sum(weyl_terms(dom, lam))
    if value <= 0.0:
        raise ModelError(
            f"corrected state sum {value:.6g} <= 0 at lambda={lam:.6g}; "
            "the small-wavelength expansion does not apply"
        )
    return value


# ---------------------------------------------------------------------------
# CLI shape syntax
# ---------------------------------------------------------------------------

def polygon_spec_from_text(text: str) -> PolygonWithHoles:
    """Parse a polygon file: one 'x y' vertex per line, rings separated by
    blank lines, first ring is the outer boundary."""
    rings: list[tuple[Point, ...]] = []
    current: list[Point] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if current:
                rings.append(tuple(current))
                current = []
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GeometryError(f"polygon file line {lineno}: expected 'x y', got {raw!r}")
        try:
            current.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise GeometryError(f"polygon file line {lineno}: {exc}") from exc
    if current:
        rings.append(tuple(current))
    if not rings:
        raise GeometryError("polygon file contains no vertices")
    return PolygonWithHoles(outer=rings[0], holes=tuple(rings[1:]))


def parse_shape(text: str) -> ShapeSpec:
    """Parse the CLI shape syntax.

    rect:a,b | disk:R | annulus:Ri,Ro | polygon:@file | free:area
    (free:area is the boundary-free reference configuration)
    """
    kind, sep, arg = text.partition(":")
    if not sep:
        raise GeometryError(f"shape {text!r}: expected kind:args")
    kind = kind.strip().lower()
    try:
        return _parse_shape_args(text, kind, arg)
    except ValueError as exc:
        raise GeometryError(f"shape {text!r}: {exc}") from exc
    except OSError as exc:
        raise GeometryError(f"shape {text!r}: cannot read polygon file ({exc})") from exc


def _parse_shape_args(text: str, kind: str, arg: str) -> ShapeSpec:
    if kind == "free":
        return FreePlane(float(arg))
    if kind in ("rect", "rectangle"):
        parts = arg.split(",")
        if len(parts) != 2:
            raise GeometryError(f"shape {text!r}: rect needs a,b")
        return Rectangle(float(parts[0]), float(parts[1]))
    if kind == "disk":
        return Disk(float(arg))
    if kind == "annulus":
        parts = arg.split(",")
        if len(parts) != 2:
            raise GeometryError(f"shape {text!r}: annulus needs Ri,Ro")
        return Annulus(float(parts[0]), float(parts[1]))
    if kind == "polygon":
        if not arg.startswith("@"):
            raise GeometryError(f"shape {text!r}: polygon takes @file")
        return polygon_spec_from_text(Path(arg[1:]).read_text())
    raise GeometryError(f"shape {text!r}: unknown kind {kind!r}")
