"""Geometry layer: constructors, walks, predicates, JSON round-trips."""

import functools
import itertools
import json
import math
import random
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from escobar import geometry
from escobar.cli import main
from escobar.errors import InvalidGeometryError, InvalidParameterError
from escobar.geometry import (
    TAU_GEOM,
    Arc,
    Segment,
    chord_is_interior,
    circle_circle_intersections,
    contains_point,
    domain_from_json,
    domain_to_json,
    is_disk,
    make_disk,
    make_domain,
    make_polygon,
    make_regular_polygon,
    project_to_boundary,
    scaled,
    segment_circle_intersections,
)
from escobar.regions import Cap, eta_partial
from tests.conftest import concave_square, rectangle, star_hexagon

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# constructors and global measurements
# ---------------------------------------------------------------------------


def test_disk_measurements(unit_disk):
    assert unit_disk.perimeter == pytest.approx(TWO_PI, abs=1e-12)
    assert unit_disk.area == pytest.approx(math.pi, abs=1e-12)
    assert unit_disk.bbox == pytest.approx((-1.0, -1.0, 1.0, 1.0), abs=1e-12)
    assert is_disk(unit_disk)
    assert unit_disk.regular_order is None


@pytest.mark.parametrize("n", range(3, 13))
def test_regular_polygon_measurements(n):
    dom = make_regular_polygon(n)
    assert dom.perimeter == pytest.approx(2 * n * math.sin(math.pi / n), rel=1e-12)
    assert dom.area == pytest.approx(0.5 * n * math.sin(TWO_PI / n), rel=1e-12)
    # all interior angles equal (n-2)*pi/n
    for theta in dom.interior_angles:
        assert theta == pytest.approx((n - 2) * math.pi / n, abs=1e-12)
    assert dom.regular_order == n
    assert not is_disk(dom)


def test_thin_rectangle_perimeter():
    # [-0.01, 0.01] x [-4, 4]: perimeter 2*(0.02 + 8) = 16.04
    dom = rectangle(0.02, 8.0)
    assert dom.perimeter == pytest.approx(16.04, abs=1e-12)
    assert dom.area == pytest.approx(0.16, abs=1e-12)


def test_half_disk_measurements(half_disk):
    assert half_disk.perimeter == pytest.approx(2.0 + math.pi, abs=1e-12)
    assert half_disk.area == pytest.approx(math.pi / 2.0, abs=1e-12)
    # bbox must include the arc's top extreme (0, 1), not just edge endpoints
    assert half_disk.bbox == pytest.approx((-1.0, 0.0, 1.0, 1.0), abs=1e-12)
    for theta in half_disk.interior_angles:
        assert theta == pytest.approx(math.pi / 2.0, abs=1e-9)


def test_clockwise_input_is_reoriented():
    cw = make_polygon([(0, 0), (0, 1), (1, 1), (1, 0)])
    assert cw.area > 0
    ccw = make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert cw.area == pytest.approx(ccw.area, abs=1e-15)


def test_lshape_is_nonconvex(lshape):
    assert not lshape.is_convex
    assert lshape.perimeter == pytest.approx(8.0, abs=1e-12)
    assert lshape.area == pytest.approx(3.0, abs=1e-12)
    # vertex 3 is the reflex corner (1, 1)
    assert lshape.convex_corners == (0, 1, 2, 4, 5)
    angles = lshape.interior_angles
    assert angles[3] == pytest.approx(3 * math.pi / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# constructor validation
# ---------------------------------------------------------------------------


def test_polygon_needs_three_vertices():
    with pytest.raises(InvalidParameterError):
        make_polygon([(0, 0), (1, 0)])


def test_collinear_vertex_rejected():
    pts = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
    with pytest.raises(InvalidGeometryError, match="collinear"):
        make_polygon(pts)


def test_self_intersecting_polygon_rejected():
    with pytest.raises(InvalidGeometryError, match="simple"):
        make_polygon([(0, 0), (4, 0), (4, 3), (2, -1), (0, 3)])


def test_zero_area_bowtie_rejected():
    # the symmetric bowtie cancels to zero signed area
    with pytest.raises(InvalidGeometryError, match="no area"):
        make_polygon([(0, 0), (2, 2), (2, 0), (0, 2)])


def test_repeated_vertex_rejected():
    with pytest.raises(InvalidGeometryError):
        make_polygon([(0, 0), (1, 0), (1, 0), (0, 1)])


def test_open_chain_rejected():
    with pytest.raises(InvalidGeometryError, match="not closed"):
        make_domain([Segment((0, 0), (1, 0)), Segment((1, 0), (1, 1))])


@pytest.mark.parametrize(
    "size, shift", [(1e-6, 0.0), (1.0, 0.0), (1e6, 0.0), (1.0, 1e6)]
)
def test_construction_tolerance_follows_the_chain_extent(size, shift):
    """Closure and edge length are measured against the chain's own
    bounding-box diagonal, not against a floor of 1 or the distance from
    the origin: at every size and offset a leg of 5e-4 of the extent is an
    edge, and a closure gap of 1e-4 of it leaves the chain open.  A
    repeated polygon vertex, or one half of ``TAU_GEOM`` times the diagonal
    from its neighbour, is rejected."""

    def pt(x, y):
        return (shift + size * x, shift + size * y)

    sliver = make_polygon([pt(0, 0), pt(1, 0), pt(1, 5e-4)])
    assert len(sliver.edges) == 3
    gap = [Segment(pt(0, 0), pt(1, 0)), Segment(pt(1, 0), pt(1, 1)), Segment(pt(1, 1), pt(0, 1e-4))]
    with pytest.raises(InvalidGeometryError, match="not closed"):
        make_domain(gap)
    square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    with pytest.raises(InvalidGeometryError):
        make_polygon(square[:2] + square[1:])
    d = 0.5 * TAU_GEOM * size  # (d, -d) is half of TAU_GEOM times the diagonal size·√2 long
    near = (square[1][0] + d, square[1][1] - d)  # off both edges' lines
    with pytest.raises(InvalidGeometryError):
        make_polygon(square[:2] + [near] + square[2:])


def test_sharpest_corner(lshape, unit_disk):
    assert lshape.sharpest_corner == 0  # five right angles: the lowest index
    tri = make_polygon([(0, 0), (4, 0), (0, 1)])
    assert tri.sharpest_corner == 1
    assert unit_disk.sharpest_corner is None


def test_zero_sweep_arc_rejected():
    with pytest.raises(InvalidGeometryError, match="zero sweep"):
        Arc((0, 0), 1.0, 0.5, 0.5).sweep


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_disk_radius_must_be_positive(bad):
    with pytest.raises(InvalidParameterError):
        make_disk(bad)


def test_regular_polygon_needs_n_at_least_3():
    with pytest.raises(InvalidParameterError):
        make_regular_polygon(2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_geometry_rejected(bad):
    """The later checks of ``make_domain`` compare with ``<=``, which NaN
    passes: a rectangle of height NaN used to build, and to pass as a
    square."""
    with pytest.raises(InvalidGeometryError, match="non-finite"):
        make_polygon([(0, 0), (1, 0), (1, bad), (0, bad)])
    with pytest.raises(InvalidGeometryError, match="non-finite"):
        make_disk(1.0, center=(bad, 0.0))
    with pytest.raises(InvalidGeometryError, match="non-finite"):
        make_domain([Arc((0.0, 0.0), 1.0, bad, TWO_PI)])
    segment = {"type": "segment", "from": [0, 0], "to": [1, bad]}
    with pytest.raises(InvalidGeometryError, match="non-finite"):
        domain_from_json({"edges": [segment]})
    arc = {"type": "arc", "center": [0, 0], "radius": 1, "start_angle": 0, "end_angle": bad}
    with pytest.raises(InvalidGeometryError, match="non-finite"):
        domain_from_json({"edges": [arc]})
    with pytest.raises(InvalidParameterError):
        scaled(make_regular_polygon(5), bad)
    if bad > 0:
        with pytest.raises(InvalidGeometryError, match="non-finite"):
            make_disk(bad)
        with pytest.raises(InvalidGeometryError, match="non-finite"):
            make_regular_polygon(5, bad)
    else:  # NaN and -inf are refused as parameters, before any edge is built
        message = "{} must be positive, got " + str(bad)
        with pytest.raises(InvalidParameterError, match="^" + message.format("disk radius") + "$"):
            make_disk(bad)
        with pytest.raises(InvalidParameterError, match="^" + message.format("circumradius") + "$"):
            make_regular_polygon(5, bad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: make_disk(1e308),  # bounding-box diagonal inf
        lambda: make_polygon([(0, 0), (1e308, 0), (1e308, 1e308), (0, 1e308)]),
        lambda: make_disk(1e164),  # finite diagonal, squared tolerance inf
    ],
)
def test_overflowing_extent_rejected(build):
    """Past ``_MAX_SCALE`` the area test squared an infinite tolerance, and
    the first check reached gave a wrong reason ("arc radius 1e+308 is not
    positive", "boundary chain encloses no area")."""
    with pytest.raises(InvalidGeometryError, match="extent overflows"):
        build()


def test_largest_accepted_extent_builds():
    r = 0.49 * geometry._MAX_SCALE  # diagonal 2.77 r, just under the limit
    assert make_disk(r / 1.42).scale <= geometry._MAX_SCALE
    assert make_polygon([(0, 0), (r, 0), (r, r), (0, r)]).scale <= geometry._MAX_SCALE


# ---------------------------------------------------------------------------
# simplicity check against every pair of edges
# ---------------------------------------------------------------------------


def _every_pair(dom):
    """The simplicity check's pairs as make_domain once tested them: every
    pair of edges, in (i, j) order."""
    n = len(dom.edges)
    return ((i, j) for i in range(n) for j in range(i + 1, n))


def _build_outcome(edges):
    try:
        return make_domain(edges).edges
    except InvalidGeometryError as err:
        return str(err)


def _check_against_every_pair(edges):
    """``make_domain`` accepts the chain, or raises the same message, as
    with every pair of edges tested; and every pair the sweep leaves out
    neither meets nor overlaps."""
    with mock.patch.object(geometry, "_pairs_that_may_meet", _every_pair):
        want = _build_outcome(edges)
    assert _build_outcome(edges) == want
    try:
        dom = geometry.PlanarDomain(tuple(edges))
    except InvalidGeometryError:
        return want
    tol = TAU_GEOM * dom.scale
    if not math.isfinite(tol):
        return want
    swept = set(geometry._pairs_that_may_meet(dom))
    for i, j in _every_pair(dom):
        assert i < j
        if (i, j) not in swept:
            assert geometry._edge_pair_intersections(edges[i], edges[j], tol) == ([], False)
    return want


def _chain(points):
    m = len(points)
    return [Segment(points[k], points[(k + 1) % m]) for k in range(m)]


_OFFSETS = [0.0, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 0.02, 0.05]


@st.composite
def _polygons(draw):
    """``(points, simple)``: a star-shaped polygon with one vertex in each
    sector ``[2 pi j / n, 2 pi j / n + pi / n)``, so every angular gap lies
    below pi and the chain is simple, optionally with one vertex moved to
    ``offset`` (times the polygon's size) from the line of a far edge, at a
    point within or just past that edge; or lattice points in random order,
    which mostly cross.  ``simple`` is True when no vertex was moved.
    Scaled and shifted, also away from the origin."""
    n = draw(st.integers(3, 24))
    simple = False
    if draw(st.booleans()):
        fracs = draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=n, max_size=n))
        radii = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
        angles = [TWO_PI * (j + u / 2) / n for j, u in enumerate(fracs)]
        pts = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
        simple = True
        if n >= 5 and draw(st.booleans()):
            simple = False
            v = draw(st.integers(0, n - 1))
            e = (v + draw(st.integers(2, n - 3))) % n
            a, b = pts[e], pts[(e + 1) % n]
            t = draw(st.sampled_from([0.0, 0.5, 1.0, -1e-9, 1.0 + 1e-9, draw(st.floats(0.0, 1.0))]))
            d = draw(st.sampled_from(_OFFSETS)) * draw(st.sampled_from([1.0, -1.0]))
            length = math.dist(a, b)
            nx, ny = -(b[1] - a[1]) / length, (b[0] - a[0]) / length
            pts[v] = (a[0] + t * (b[0] - a[0]) + d * nx, a[1] + t * (b[1] - a[1]) + d * ny)
    else:
        # on a coarse lattice, so that vertices often fall on other edges
        lattice = st.tuples(st.integers(-8, 8), st.integers(-8, 8))
        corners = draw(st.lists(lattice, min_size=n, max_size=n, unique=True))
        pts = [(x / 8, y / 8) for x, y in corners]
    size = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    shift = draw(st.sampled_from([0.0, 0.5, 10.0])) * size
    return [(shift + size * x, shift + size * y) for x, y in pts], simple


@settings(max_examples=400, deadline=None)
@given(_polygons())
def test_simplicity_check_matches_every_pair(drawn):
    points, simple = drawn
    outcome = _check_against_every_pair(_chain(points))
    if simple:
        assert not isinstance(outcome, str), outcome
    event("accepted" if not isinstance(outcome, str) else outcome.split(":")[0].split(" at ")[0])


_BAD_CHAINS = {
    "crossing": _chain([(0, 0), (4, 0), (4, 3), (2, -1), (0, 3)]),
    "bowtie": _chain([(0, 0), (2, 2), (2, 0), (0, 2)]),
    "repeated": _chain([(0, 0), (1, 0), (1, 0), (0, 1)]),
    "open": [Segment((0, 0), (1, 0)), Segment((1, 0), (1, 1))],
    "vertex-on-edge": _chain([(0, 0), (4, 0), (4, 3), (2, 0), (0, 3)]),
    "overlap": _chain([(0, 0), (3, 0), (3, 1), (2, 1), (2, 0), (1, 0), (1, 1), (0, 1)]),
    "arc-crossed": [
        Arc((0.0, 0.0), 1.0, 0.0, math.pi),
        Segment((-1.0, 0.0), (0.5, 1.2)),
        Segment((0.5, 1.2), (1.0, 0.0)),
    ],
    "half-disk": [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)],
    "far-square": _chain([(1e6, 1e6), (1e6 + 1, 1e6), (1e6 + 1, 1e6 + 1), (1e6, 1e6 + 1)]),
}


@pytest.mark.parametrize("name", list(_BAD_CHAINS))
def test_simplicity_check_matches_every_pair_on_known_chains(name):
    outcome = _check_against_every_pair(_BAD_CHAINS[name])
    if name in ("crossing", "vertex-on-edge", "overlap", "arc-crossed"):
        assert "simple" in outcome or "overlap" in outcome


def test_regular_polygon_builds_without_testing_every_pair():
    # every pair of 2000 edges took about 4 s; nearby pairs take about 0.2 s
    start = time.perf_counter()
    dom = make_regular_polygon(2000)
    assert time.perf_counter() - start < 1.0
    assert dom.regular_order == 2000


# ---------------------------------------------------------------------------
# arclength walks
# ---------------------------------------------------------------------------


def _tangent_after(domain, s):
    """Unit tangent of the boundary just after arclength ``s``."""
    i, t = domain.edge_index_at(s)
    return domain.edges[i].tangent_at_local(t)


def test_square_walk(square):
    s = math.sqrt(2.0)  # side length at circumradius 1
    assert square.vertex_arclength(0) == pytest.approx(0.0, abs=1e-15)
    assert square.vertex_arclength(2) == pytest.approx(2 * s, rel=1e-15)
    assert square.point_at(0.0) == pytest.approx((1.0, 0.0), abs=1e-12)
    assert square.point_at(s / 2) == pytest.approx((0.5, 0.5), abs=1e-12)
    # wraps modulo the perimeter
    assert square.point_at(square.perimeter) == pytest.approx((1.0, 0.0), abs=1e-12)
    tx, ty = _tangent_after(square, 0.0)
    assert (tx, ty) == pytest.approx((-s / 2, s / 2), abs=1e-12)


def test_boundary_pieces_cross_corner(square):
    s = square.edge_lengths[0]
    pieces = square.boundary_pieces(s / 2, 3 * s / 2)
    assert [p[0] for p in pieces] == [0, 1]
    covered = sum(t1 - t0 for _, t0, t1 in pieces)
    assert covered == pytest.approx(s, rel=1e-12)


def test_disk_point_at(unit_disk):
    p = unit_disk.point_at(math.pi / 2)
    assert p == pytest.approx((0.0, 1.0), abs=1e-12)


# ---------------------------------------------------------------------------
# intersection primitives
# ---------------------------------------------------------------------------


def test_segment_circle_basic():
    # u is the normalised segment parameter, not an arclength
    hits = segment_circle_intersections((0, 0), (4, 0), (2, 0), 1.0)
    us = sorted(u for _, u in hits)
    assert us == pytest.approx([0.25, 0.75], abs=1e-12)
    pts = sorted(p for p, _ in hits)
    assert pts[0] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert pts[1] == pytest.approx((3.0, 0.0), abs=1e-12)


def test_segment_circle_tiny_radius():
    # regression: the naive quadratic discriminant cancels catastrophically
    # when the radius is many orders of magnitude below the segment length
    r = 1e-8
    hits = segment_circle_intersections((0, 0), (4, 0), (2, 0), r)
    us = sorted(u for _, u in hits)
    assert len(us) == 2
    assert us[0] == pytest.approx(0.5 - r / 4, abs=1e-15)
    assert us[1] == pytest.approx(0.5 + r / 4, abs=1e-15)


def test_segment_circle_miss():
    assert segment_circle_intersections((0, 0), (1, 0), (5, 5), 0.5) == []


def test_circle_circle():
    pts = circle_circle_intersections((0, 0), 1.0, (1, 0), 1.0)
    ys = sorted(p[1] for p in pts)
    assert ys == pytest.approx([-math.sqrt(3) / 2, math.sqrt(3) / 2], abs=1e-12)
    assert all(p[0] == pytest.approx(0.5, abs=1e-12) for p in pts)


def test_circle_circle_disjoint():
    assert circle_circle_intersections((0, 0), 1.0, (5, 0), 1.0) == []


def _segment_circle_unscaled(a, b, center, radius):
    """The intersection formula of :func:`segment_circle_intersections` on
    the inputs as given, without its power-of-two division."""
    d = (b[0] - a[0], b[1] - a[1])
    dd = d[0] * d[0] + d[1] * d[1]
    if dd == 0.0:
        return []
    f = (center[0] - a[0], center[1] - a[1])
    u0 = (f[0] * d[0] + f[1] * d[1]) / dd
    ld = math.sqrt(dd)
    perp = (d[0] * f[1] - d[1] * f[0]) / ld
    h2 = radius * radius - perp * perp
    if h2 < 0.0:
        return []
    half = math.sqrt(h2) / ld
    roots = [u0] if half == 0.0 else [u0 - half, u0 + half]
    return [
        ((a[0] + u * d[0], a[1] + u * d[1]), u)
        for u in roots
        if -geometry._PARAM_SLACK <= u <= 1.0 + geometry._PARAM_SLACK
    ]


def _circle_circle_unscaled(c1, r1, c2, r2):
    """The intersection formula of :func:`circle_circle_intersections` on
    the inputs as given, without its power-of-two division."""
    d = math.dist(c1, c2)
    if d == 0.0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    ux, uy = (c2[0] - c1[0]) / d, (c2[1] - c1[1]) / d
    bx, by = c1[0] + a * ux, c1[1] + a * uy
    if h == 0.0:
        return [(bx, by)]
    return [(bx - h * uy, by + h * ux), (bx + h * uy, by - h * ux)]


# coordinates 0 or at least 1e-12 in size, so that at scales 1e-6..1e6 no
# product of the formulas comes near underflow
_unit = st.floats(-1.0, 1.0).map(lambda x: round(x, 12))
_unit_point = st.tuples(_unit, _unit)


@settings(max_examples=300, deadline=None)
@given(
    scale=st.floats(-6.0, 6.0).map(lambda x: 10.0**x),
    a=_unit_point, b=_unit_point, c=_unit_point, r=st.floats(0.01, 2.0),
)
def test_segment_circle_division_is_exact(scale, a, b, c, r):
    """Dividing the inputs by a power of two changes no bit of the result
    at ordinary scales."""
    a, b, c = ((x * scale, y * scale) for x, y in (a, b, c))
    got = segment_circle_intersections(a, b, c, r * scale)
    assert repr(got) == repr(_segment_circle_unscaled(a, b, c, r * scale))


@settings(max_examples=300, deadline=None)
@given(
    scale=st.floats(-6.0, 6.0).map(lambda x: 10.0**x),
    c1=_unit_point, c2=_unit_point, r1=st.floats(0.01, 2.0), r2=st.floats(0.01, 2.0),
)
def test_circle_circle_division_is_exact(scale, c1, c2, r1, r2):
    c1, c2 = ((x * scale, y * scale) for x, y in (c1, c2))
    got = circle_circle_intersections(c1, r1 * scale, c2, r2 * scale)
    assert repr(got) == repr(_circle_circle_unscaled(c1, r1 * scale, c2, r2 * scale))


def test_intersections_do_not_overflow_at_1e155():
    """Squaring radii and distances overflowed above about 1.3e154, giving a
    NaN point and no roots."""
    (x0, y0), (x1, y1) = circle_circle_intersections((0.0, 0.0), 1e155, (1e155, 0.0), 1e155)
    y = 0.75**0.5 * 1e155
    assert [x0, y0, x1, y1] == pytest.approx([5e154, y, 5e154, -y], rel=1e-15)
    ((p0, u0), (p1, u1)) = segment_circle_intersections(
        (-2e155, 0.0), (2e155, 0.0), (0.0, 0.0), 1e155
    )
    assert (u0, u1) == (0.25, 0.75)
    assert [*p0, *p1] == pytest.approx([-1e155, 0.0, 1e155, 0.0], rel=1e-15)


def _arc_through(p, q, sagitta, ccw, scale):
    """The minor arc from p to q whose middle lies ``sagitta`` off the chord,
    to its right when ``ccw`` and to its left otherwise, times ``scale``."""
    h = math.dist(p, q) / 2.0
    r = (h * h + sagitta * sagitta) / (2.0 * sagitta)
    off = (r - sagitta) * (1.0 if ccw else -1.0) / (2.0 * h)
    cx = (p[0] + q[0]) / 2.0 - off * (q[1] - p[1])
    cy = (p[1] + q[1]) / 2.0 + off * (q[0] - p[0])
    start, end = (math.atan2(z[1] - cy, z[0] - cx) for z in (p, q))
    return Arc((cx * scale, cy * scale), r * scale, start, end, ccw=ccw)


def _bowed_rectangle(scale, bottom, top):
    """The rectangle [0, 4] x [0, 1] times ``scale``; its bottom side, and
    its top side unless ``top`` is None, are arcs given as (sagitta, ccw)."""
    p = [(0.0, 0.0), (4.0, 0.0), (4.0, 1.0), (0.0, 1.0)]

    def side(i, j):
        return Segment(*((x * scale, y * scale) for x, y in (p[i], p[j])))

    e0 = _arc_through(p[0], p[1], *bottom, scale)
    e2 = _arc_through(p[2], p[3], *top, scale) if top else side(2, 3)
    return [e0, side(1, 2), e2, side(3, 0)]


@pytest.mark.parametrize("scale", [1.0, 1e155])
@pytest.mark.parametrize(
    "bottom, top, where",
    [
        ((0.6, False), (0.6, False), (1.153438326719976, 0.5)),  # two arcs bowed in
        ((1.3, False), None, (3.105928082235424, 1.0)),  # an arc through the top side
    ],
)
def test_crossing_chain_is_refused_at_every_scale(scale, bottom, top, where):
    """At 1e155 the crossings were lost to overflow, and the chains built."""
    with pytest.raises(InvalidGeometryError, match="edges 0 and 2 meet") as err:
        make_domain(_bowed_rectangle(scale, bottom, top))
    x, y = (float(v) for v in str(err.value).rsplit("(", 1)[1].rstrip(")").split(", "))
    assert (x, y) == pytest.approx((where[0] * scale, where[1] * scale), rel=1e-12)


@pytest.mark.parametrize("scale", [1.0, 1e155])
def test_simple_chain_of_crossing_circles_builds_at_every_scale(scale):
    """The bottom and top arcs bow outwards; their circles meet, at x = -1.2
    and 5.2, but the arcs do not."""
    edges = _bowed_rectangle(scale, (0.3, True), (0.3, True))
    circles = [(e.center, e.radius) for e in (edges[0], edges[2])]
    assert len(circle_circle_intersections(*circles[0], *circles[1])) == 2
    domain = make_domain(edges)
    assert domain.edges == tuple(edges)


def _reversed_chain(edges):
    return [e.reversed() for e in reversed(edges)]


@pytest.mark.parametrize("scale", [2.0**510, 1e155])
def test_reversed_chain_is_reoriented_at_every_scale(scale):
    """The Green sum squares coordinates and radii, which overflowed past
    about 1.3e154: the area was NaN and the clockwise chain built inside
    out, with interior angles 4.415 for 1.869.  At 2**510 the area is still
    a float, 4**510 times the area at scale 1; at 1e155 it is above the
    float range."""
    unit = make_domain(_reversed_chain(_bowed_rectangle(1.0, (0.3, True), (0.3, True))))
    edges = _bowed_rectangle(scale, (0.3, True), (0.3, True))
    domain = make_domain(_reversed_chain(edges))
    assert domain.edges == tuple(edges)
    assert domain.interior_angles == pytest.approx(unit.interior_angles, abs=1e-15)
    if scale == 2.0**510:
        assert domain.area == math.ldexp(unit.area, 1020)
    else:
        assert domain.area == math.inf


def _ref_edge_green(edge):
    """The Green term of one edge as it was summed before the coordinates
    were divided by a power of two."""
    if isinstance(edge, Segment):
        return 0.5 * (edge.start[0] * edge.end[1] - edge.start[1] * edge.end[0])
    delta = edge.sweep if edge.ccw else -edge.sweep
    p, q = edge.start, edge.end
    d = (q[0] - p[0], q[1] - p[1])
    cross = edge.center[0] * d[1] - edge.center[1] * d[0]
    return 0.5 * (edge.radius * edge.radius * delta + cross)


@st.composite
def _green_edges(draw):
    """Segments and arcs, not necessarily a chain, at sizes 1e-6 to 1e6 and
    shifted off the origin; each coordinate is 0 or at least 1e-3 of the
    size, so no product underflows."""
    size = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    shift = draw(st.sampled_from([0.0, 0.5, 10.0])) * size
    unit = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    coord = unit.map(lambda u: shift + size * u)
    point = st.tuples(coord, coord)
    segment = st.builds(Segment, point, point)
    angle = st.floats(-10.0, 10.0)
    arc = st.builds(
        Arc, point, st.floats(1e-3, 1.0).map(lambda r: size * r), angle, angle, st.booleans()
    ).filter(lambda a: a.start_angle != a.end_angle)
    return draw(st.lists(st.one_of(segment, arc), min_size=1, max_size=8))


@settings(max_examples=500, deadline=None)
@given(edges=_green_edges())
def test_scaled_green_sum_is_the_unscaled_one_bit_for_bit(edges):
    """Dividing coordinates and radii by 2**e is exact short of underflow,
    so the area, and the zero-area test of ``make_domain``, are the
    unscaled formula's floats at ordinary scales."""
    want = sum(_ref_edge_green(e) for e in edges)
    got, e = geometry._green_area(edges)
    assert math.ldexp(got, 2 * e).hex() == want.hex()
    assert geometry.PlanarDomain(tuple(edges)).area.hex() == want.hex()
    for tol in (math.sqrt(abs(want)), math.nextafter(math.sqrt(abs(want)), 0.0)):
        down = math.ldexp(tol, -e)
        assert (abs(got) <= down * down) == (abs(want) <= tol * tol)


# ---------------------------------------------------------------------------
# chords and containment
# ---------------------------------------------------------------------------


def test_chord_interior_on_disk(unit_disk):
    assert chord_is_interior(unit_disk, 0.0, math.pi)
    assert chord_is_interior(unit_disk, 0.3, 2.9)


def test_chord_through_square(square):
    s = square.edge_lengths[0]
    # diagonal through the center: touches the boundary only at endpoints
    assert chord_is_interior(square, 0.0, 2 * s)
    # both endpoints on one edge: the chord lies on the boundary
    assert not chord_is_interior(square, 0.1 * s, 0.5 * s)


def test_chord_across_lshape_notch(lshape):
    # (2, 0.5) at s=2.5 to (0.5, 2) at s=5.5 passes outside the domain
    assert not chord_is_interior(lshape, 2.5, 5.5)
    # (1, 0) at s=1 to (0, 1) at s=7 stays inside
    assert chord_is_interior(lshape, 1.0, 7.0)


# ---------------------------------------------------------------------------
# convex verdict of chord_is_interior against its general test
# ---------------------------------------------------------------------------


@functools.cache
def _verdict_domain(key: str):
    """Domain named ``base`` or ``base@factor`` (dilated about the origin)."""
    base, _, factor = key.partition("@")
    if base == "disk":
        dom = make_disk()
    elif base == "half-disk":
        dom = make_domain([Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)])
    elif base == "stadium":
        # segment-arc joins with a common tangent: corner angle pi
        dom = make_domain(
            [
                Segment((-1.0, -1.0), (1.0, -1.0)),
                Arc((1.0, 0.0), 1.0, -0.5 * math.pi, 0.5 * math.pi),
                Segment((1.0, 1.0), (-1.0, 1.0)),
                Arc((-1.0, 0.0), 1.0, 0.5 * math.pi, 1.5 * math.pi),
            ]
        )
    elif base == "flat-pentagon":
        # corner angle pi - 5e-5 at (0, 1 + 2.5e-5)
        dom = make_polygon([(-1, -1), (1, -1), (1, 1), (0, 1 + 2.5e-5), (-1, 1)])
    else:
        dom = make_regular_polygon(int(base[1:]))
    return scaled(dom, float(factor)) if factor else dom


_VERDICT_BASES = ["disk", "half-disk", "stadium", "flat-pentagon", "D200"] + [
    f"D{n}" for n in range(3, 13)
]
_VERDICT_DOMAINS = [
    b + f for b in _VERDICT_BASES for f in ("", "@1e-06", "@1000000.0")
]
_VERTEX_OFFSETS = [0.0] + [sg * d for d in (1e-15, 1e-13, 1e-10, 1e-6) for sg in (-1, 1)]


@st.composite
def _verdict_chords(draw):
    key = draw(st.sampled_from(_VERDICT_DOMAINS))
    dom = _verdict_domain(key)
    per = dom.perimeter
    n = len(dom.edges)

    def endpoint():
        if draw(st.booleans()):
            return draw(st.floats(0.0, 1.0, exclude_max=True)) * per
        j = draw(st.integers(0, n - 1))
        return (dom.vertex_arclength(j) + draw(st.sampled_from(_VERTEX_OFFSETS)) * per) % per

    s0 = endpoint()
    if draw(st.integers(0, 3)) == 0:
        # along the edge that holds s0
        i, _ = dom.edge_index_at(s0)
        s1 = dom.vertex_arclength(i) + draw(st.floats(0.0, 1.0)) * dom.edge_lengths[i]
    else:
        s1 = endpoint()
    return key, s0, s1 % per


def _general_verdict(dom, s0, s1):
    """The flat-edge rule, from edge indices as sets, then the general test
    with the same-arc rule: it skips the arcs that hold both ends."""
    n = len(dom.edges)

    def on(s):
        i, t = dom.edge_index_at(s)
        return {i, (i - 1) % n} if t == 0.0 else {i}

    both = on(s0) & on(s1)
    if any(isinstance(dom.edges[i], Segment) or not dom.edges[i].ccw for i in both):
        return False
    p, q = dom.point_at(s0), dom.point_at(s1)
    cuts = (dom.edge_index_at(s0), dom.edge_index_at(s1))
    return geometry._chord_is_interior_general(dom, p, q, both, cuts)


@settings(max_examples=600, deadline=None)
@given(chord=_verdict_chords())
# an endpoint just past a vertex: the chord nearly runs along the edge before
@example(chord=("D5", 1e-13 * 10 * math.sin(math.pi / 5), 10 * math.sin(math.pi / 5) - 0.6))
@example(chord=("half-disk", 2.0 + 1e-13 * (2.0 + math.pi), 1.0))
# a short chord on the disk, which the general test rejected before the same-arc rule
@example(chord=("disk", 0.0, 6.3e-6))
# along an edge
@example(chord=("D8", 0.1, 0.5))
# along an edge from its vertex, so short that the general test alone accepts it
@example(chord=("D200", 0.0, 3.141463462364135e-09))
def test_convex_verdict_matches_general_test(chord):
    key, s0, s1 = chord
    dom = _verdict_domain(key)
    assert chord_is_interior(dom, s0, s1) == _general_verdict(dom, s0, s1), (key, s0, s1)


@pytest.mark.parametrize("key", ["disk", "half-disk", "D5", "D200", "D8@1e-06"])
def test_convex_verdict_skips_the_ray_cast(key, monkeypatch):
    dom = _verdict_domain(key)
    per = dom.perimeter
    calls = []
    monkeypatch.setattr(geometry, "contains_point", lambda *a, **k: calls.append(a))
    assert chord_is_interior(dom, 0.0537 * per, 0.5513 * per)
    assert chord_is_interior(dom, 0.3071 * per, 0.9013 * per)
    i = 1 if len(dom.edges) > 1 else 0
    s = dom.vertex_arclength(i)
    along = chord_is_interior(dom, s + 0.2 * dom.edge_lengths[i], s + 0.8 * dom.edge_lengths[i])
    assert along == isinstance(dom.edges[i], Arc)
    assert calls == []


@pytest.mark.parametrize("key", ["stadium", "flat-pentagon"])
def test_convex_verdict_guards_flat_corners(key):
    dom = _verdict_domain(key)
    assert dom.is_convex
    assert dom._convex_clearance is None


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("length", [1e-8, 1e-7, 1e-6, 6.3e-6, 1e-5, 1e-4, 1e-3])
def test_short_chord_on_one_arc_is_interior(factor, length):
    """The same-arc rule: a chord with both ends on one convex arc meets it
    only at its ends, however short the chord (here ``length`` of the radius,
    on the disk and on the half-disk's arc, in both directions)."""
    for key, starts in (("disk", (0.0, 0.7, 2.1, 5.9)), ("half-disk", (2.0, 2.7, 3.5))):
        dom = _verdict_domain(f"{key}@{factor}")
        for s in starts:
            s0, s1 = s * factor, (s + length) * factor
            assert chord_is_interior(dom, s0, s1), (key, s)
            assert chord_is_interior(dom, s1, s0), (key, s)


# ---------------------------------------------------------------------------
# side test of the general chord test against the midpoint ray cast
# ---------------------------------------------------------------------------

_SIDE_BASES = {
    "lshape": lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "star": star_hexagon,
    "concave-square": concave_square,
    # a unit square with a strip 1e-7 wide and 1 long on its right side: the
    # strip's walls lie too close to each other for the side test
    "antenna": lambda: make_polygon(
        [(0, 0), (1, 0), (1, 0.5), (2, 0.5), (2, 0.5 + 1e-7), (1, 0.5 + 1e-7), (1, 1), (0, 1)]
    ),
}
_SIDE_DOMAINS = [f"{b}@{f}" for b in _SIDE_BASES for f in (1e-6, 1.0, 1e6)]
_SIDE = geometry._left_of_own_segment


@functools.cache
def _side_domain(key: str):
    base, _, factor = key.partition("@")
    return scaled(_SIDE_BASES[base](), float(factor))


def _ray_hit(dom, p, u):
    """Arclength of the boundary point nearest to the first boundary hit of
    the ray from ``p`` along ``u``, beyond ``1e-6`` of the scale."""
    far = (p[0] + 4.0 * dom.scale * u[0], p[1] + 4.0 * dom.scale * u[1])
    hits = []
    for e in dom.edges:
        if isinstance(e, Segment):
            hits += [h[0] for h in geometry._seg_seg_intersections(p, far, e.start, e.end)[0]]
        else:
            hits += [
                x for x, _u in segment_circle_intersections(p, far, e.center, e.radius)
                if geometry.angle_in_sweep(e, e.angle_of_point(x))[0]
            ]
    hits = [x for x in hits if math.dist(p, x) > 1e-6 * dom.scale]
    if not hits:
        return None
    return project_to_boundary(dom, min(hits, key=lambda x: math.dist(p, x)))[0]


@st.composite
def _side_chords(draw):
    """A chord from a segment end zone: at the vertex, within or beyond the
    clearance ``c`` of the side test (or 1 ulp off it), with a reflex vertex
    drawn half the time where there is one.  The other end is a boundary
    point, a point next to a vertex, or the first hit of a ray leaving the
    segment at a sine near the side test's margin, on either side of it."""
    key = draw(st.sampled_from(_SIDE_DOMAINS))
    dom = _side_domain(key)
    per, n, cum = dom.perimeter, len(dom.edges), dom.cumlens
    c = geometry._SIDE_CLEARANCE * dom.scale
    reflex = [j for j, a in enumerate(dom.interior_angles) if a > math.pi]
    ends = [(i, at_start) for i, e in enumerate(dom.edges) if isinstance(e, Segment)
            for at_start in (True, False)]
    near_reflex = [(i, s) for i, s in ends if (i if s else (i + 1) % n) in reflex]
    i, at_start = draw(st.sampled_from(near_reflex if near_reflex and draw(st.booleans())
                                       else ends))
    e = dom.edges[i]
    t = draw(st.one_of(st.sampled_from([0.0, 0.5 * c, c, 2.0 * c]),
                       st.floats(0.0, 1.0).map(lambda f: f * e.length)))
    s0 = cum[i] + t if at_start else cum[i + 1] - t
    for _ in range(draw(st.integers(0, 2))):
        s0 = math.nextafter(s0, draw(st.sampled_from([-math.inf, math.inf])))
    s0 %= per
    kind = draw(st.integers(0, 2))
    if kind == 0:
        s1 = draw(st.floats(0.0, 1.0, exclude_max=True)) * per
    elif kind == 1:
        v = dom.vertex_arclength(draw(st.integers(0, n - 1)))
        s1 = (v + draw(st.sampled_from([0.0, 1e-12, -1e-12, 1e-6, -1e-6])) * per) % per
    else:
        m = geometry._SIDE_MARGIN
        sine = draw(st.sampled_from([m, -m, 1e-12, 1e-6, -1e-6])) * draw(
            st.sampled_from([1.0, 1.0 - 1e-3, 1.0 + 1e-3, 0.5, 2.0])
        )
        tx, ty = e.tangent_at_local(0.0)
        along = draw(st.sampled_from([1.0, -1.0]))  # forward or back along the edge
        cos = math.sqrt(1.0 - sine * sine)
        # positive sines lean towards the left normal (-ty, tx), the inside
        u = (along * cos * tx - sine * ty, along * cos * ty + sine * tx)
        s1 = _ray_hit(dom, dom.point_at(s0), u)
        if s1 is None:
            s1 = 0.0
    return key, s0, s1


@settings(max_examples=600, deadline=None)
@given(chord=_side_chords())
# from (1.4, 1) on the L-shape's edge (2, 1) -> (1, 1) to the edge below
# (2, 1), at a sine 1 % above and 1 % below the side test's margin
@example(chord=("lshape@1.0", 3.6, 3.0 - 0.6e-9 * 1.01))
@example(chord=("lshape@1.0", 3.6, 3.0 - 0.6e-9 * 0.99))
# from (1.5, 0.5) on the strip's lower wall, out through its upper wall
# within excl of the start, to (1, 0.75) outside: not interior
@example(chord=("antenna@1.0", 2.0, 3.75))
def test_side_test_agrees_with_the_midpoint_ray_cast(chord):
    """Wherever the side test decides a chord, the midpoint ray cast it
    spares says inside too."""
    key, s0, s1 = chord
    dom = _side_domain(key)
    decided = []

    def spy(*args):
        decided.append(_SIDE(*args))
        return decided[-1]

    # an edge's first side test leaves its chord to the ray cast
    geometry._interior_chord_ends(dom, s0, s1)
    with mock.patch.object(geometry, "_left_of_own_segment", spy):
        ends = geometry._interior_chord_ends(dom, s0, s1)
    if any(decided):
        event("side test decided")
        p, q = ends
        assert contains_point(dom, ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)), (key, s0, s1)


@pytest.mark.parametrize("factor", [1e-6, 1.0, 1e6])
def test_side_test_skips_the_ray_cast(factor, monkeypatch):
    """On the L-shape, whose edges all reach ``c / 2`` from the others, no
    chord from inside an edge into the domain is ray-cast, the first one
    from an edge included.  A chord into the notch at (1, 1) is always
    ray-cast, and rejected."""
    dom = scaled(_SIDE_BASES["lshape"](), factor)
    calls = []
    ray_cast = geometry.contains_point
    monkeypatch.setattr(
        geometry, "contains_point", lambda *a, **k: calls.append(a) or ray_cast(*a, **k)
    )
    assert chord_is_interior(dom, 0.75 * factor, 7.25 * factor)  # (0.75, 0) to (0, 0.75)
    assert chord_is_interior(dom, 0.5 * factor, 7.5 * factor)  # (0.5, 0) to (0, 0.5)
    assert chord_is_interior(dom, 1.5 * factor, 6.5 * factor)  # (1.5, 0) to (0, 1.5)
    assert calls == []
    c = geometry._SIDE_CLEARANCE * dom.scale
    assert [dom._side_reach(0), dom._side_reach(5)] == pytest.approx([0.5 * c] * 2, rel=1e-9)
    for _ in range(2):
        assert not chord_is_interior(dom, 3.5 * factor, 4.5 * factor)  # (1.5, 1) to (1, 1.5)
    assert len(calls) == 2


def test_side_test_needs_the_box_near_the_origin(monkeypatch):
    lshape = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
    far = make_polygon([(x + 10.0, y) for x, y in lshape])
    calls = []
    ray_cast = geometry.contains_point
    monkeypatch.setattr(
        geometry, "contains_point", lambda *a, **k: calls.append(a) or ray_cast(*a, **k)
    )
    for _ in range(3):
        assert chord_is_interior(far, 3.5, 0.5)  # (11.5, 1) to (10.5, 0)
    assert len(calls) == 3
    assert far._side_reach(0) == far._side_reach(2) == 0.0


# ---------------------------------------------------------------------------
# edge-pair verdict of the chord kernel against the general test
# ---------------------------------------------------------------------------


@st.composite
def _pair_domains(draw):
    """The L-shape, the star hexagon or a random star polygon (4 to 9
    vertices about the origin), dilated by 1e-6, 1 or 1e6, and shifted by
    its scale a quarter of the time, where the verdict is off."""
    base = draw(st.sampled_from(["lshape", "star", "random"]))
    if base == "random":
        n = draw(st.integers(4, 9))
        gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
        angles = itertools.accumulate(g * TWO_PI / sum(gaps) for g in gaps)
        radii = draw(st.lists(st.floats(0.2, 1.5), min_size=n, max_size=n))
        try:
            dom = make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)])
        except (InvalidGeometryError, InvalidParameterError):
            assume(False)
    else:
        dom = _SIDE_BASES[base]()
    dom = scaled(dom, draw(st.sampled_from([1e-6, 1.0, 1e6])))
    if draw(st.integers(0, 3)) == 0:
        dx = dom.scale
        dom = make_polygon([(x + dx, y) for x, y in dom.vertices])
        assert not dom._near_origin
    return dom


@st.composite
def _pair_chords(draw):
    """A domain and two cuts: anywhere, at a vertex (a reflex one half the
    time where there is one), or at ``c`` of an edge's ends, 1 ulp off."""
    dom = draw(_pair_domains())
    cum, n = dom.cumlens, len(dom.edges)
    c = geometry._CONVEX_VERTEX_CLEARANCE * dom.scale
    reflex = [j for j, a in enumerate(dom.interior_angles) if a > math.pi]
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def cut():
        kind = draw(st.integers(0, 5))
        if kind < 4:  # uniform: drawn floats crowd at 0, far from the pairs' ranges
            return rnd.random() * dom.perimeter
        if kind == 4:
            return cum[draw(st.sampled_from(reflex if reflex and draw(st.booleans())
                                            else range(n)))]
        i = draw(st.integers(0, n - 1))
        s = cum[i] + c if draw(st.booleans()) else cum[i + 1] - c
        return math.nextafter(s, draw(st.sampled_from([-math.inf, s, math.inf])))

    return dom, cut() % dom.perimeter, cut() % dom.perimeter


_LSHAPE_C = geometry._CONVEX_VERTEX_CLEARANCE * math.sqrt(8.0)  # c on the L-shape


@settings(max_examples=800, deadline=None)
@given(chord=_pair_chords())
# pair (0, 5) of the L-shape with its ends at c, 1 ulp inside and outside
@example(chord=(_SIDE_BASES["lshape"](), math.nextafter(_LSHAPE_C, 1.0), 8.0 - 2.0 * _LSHAPE_C))
@example(chord=(_SIDE_BASES["lshape"](), math.nextafter(_LSHAPE_C, 0.0), 7.0))
@example(chord=(_SIDE_BASES["lshape"](), 1.0, math.nextafter(8.0 - _LSHAPE_C, 0.0)))
@example(chord=(_SIDE_BASES["lshape"](), 1.0, math.nextafter(8.0 - _LSHAPE_C, 9.0)))
# from the reflex vertex (1, 1) and to the notch's wall past it
@example(chord=(_SIDE_BASES["lshape"](), 4.0, 1.0))
@example(chord=(_SIDE_BASES["lshape"](), 1.5, 4.5))
def test_pair_verdict_matches_general_test(chord):
    """The kernel's verdict equals the general test's on both tests of a
    pair: the first one, which the general test answers, and the second,
    which reads the pair verdict."""
    dom, s0, s1 = chord
    want = _general_verdict(dom, s0, s1)
    for _ in range(2):
        assert chord_is_interior(dom, s0, s1) == want, (dom.vertices, s0, s1)
    if any(dom._pair_clears.values()):
        assert dom._near_origin
    if dom._pair_clears.get(tuple(sorted((dom.edge_index_at(s0)[0], dom.edge_index_at(s1)[0])))):
        event("chord of a visible pair")


def _spy_general(monkeypatch):
    """A list that gathers the arguments of every general test call."""
    calls = []
    general = geometry._chord_is_interior_general
    monkeypatch.setattr(
        geometry, "_chord_is_interior_general", lambda *a: calls.append(a) or general(*a)
    )
    return calls


def test_pair_verdict_spares_the_general_test_from_the_second_use(monkeypatch):
    """On the L-shape, pair (0, 5), the bottom and left edges, is visible:
    its first chord goes to the general test, the next ones, either way
    round, do not.  Pair (0, 3) reaches the notch's wall ``x = 1`` past the
    reflex vertex (1, 1), where some chords run outside: it is a split
    pair, whose first chord goes to the general test and whose later ones,
    inside or outside, get the split-pair verdict."""
    dom = _SIDE_BASES["lshape"]()
    calls = _spy_general(monkeypatch)
    assert chord_is_interior(dom, 0.5, 7.5)  # (0.5, 0) to (0, 0.5)
    assert len(calls) == 1
    assert chord_is_interior(dom, 1.5, 6.5)  # (1.5, 0) to (0, 1.5)
    assert chord_is_interior(dom, 7.5, 0.5)
    assert len(calls) == 1
    for _ in range(3):
        assert chord_is_interior(dom, 0.5, 4.5)  # (0.5, 0) to (1, 1.5)
        assert not chord_is_interior(dom, 1.5, 4.5)  # (1.5, 0) to (1, 1.5)
    assert len(calls) == 2
    assert dom._pair_clears == {(0, 5): True, (0, 3): False}
    assert list(dom._chord_families) == [(0, geometry._TRIMMED, 3)]


def test_stub_verdict_spares_the_general_test_from_the_second_use(monkeypatch):
    """Chords from the reflex vertex (1, 1) of the L-shape, and from within
    ``c`` of it on either edge, to the bottom edge: each family's first
    chord goes to the general test, the later ones do not."""
    dom = _SIDE_BASES["lshape"]()
    calls = _spy_general(monkeypatch)
    for s0 in (4.0, 4.0 + 1e-5, 4.0 - 1e-5, 4.0 + 1e-12):  # at, above, right of (1, 1)
        for s1 in (0.3, 0.5, 0.7):
            assert chord_is_interior(dom, s0, s1)
            assert chord_is_interior(dom, s1, s0)
    assert len(calls) == 3  # one per family: at the vertex, on edge 3, on edge 2
    assert set(dom._chord_families) == {
        (3, geometry._AT_START, 0), (3, geometry._NEAR_START, 0), (2, geometry._NEAR_END, 0)
    }


_FAMILY_SHIFTS = [(0.0, 0.0), (0.0, 0.0), (10.0, 0.0), (1e3, 1e3)]


@st.composite
def _family_chords(draw):
    """A domain of ``_pair_domains``' kinds, dilated by 1e-6, 1 or 1e6 and
    then shifted by (10, 0) or (1e3, 1e3) times that factor half the time,
    where the verdicts are off, and up to six chords
    on it.  Each chord has one end at a vertex, within ``c`` of a vertex
    (a reflex one half the time where there is one) on either edge, down
    to ``1e-12 c``, or at ``c`` of an edge's end 1 ulp off; its other end
    is drawn uniformly, so it reaches across notches too, or likewise."""
    base = draw(st.sampled_from(["lshape", "star", "random"]))
    if base == "random":
        n = draw(st.integers(4, 9))
        gaps = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
        angles = itertools.accumulate(g * TWO_PI / sum(gaps) for g in gaps)
        radii = draw(st.lists(st.floats(0.2, 1.5), min_size=n, max_size=n))
        try:
            dom = make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)])
        except (InvalidGeometryError, InvalidParameterError):
            assume(False)
    else:
        dom = _SIDE_BASES[base]()
    factor = draw(st.sampled_from([1e-6, 1.0, 1e6]))
    dom = scaled(dom, factor)
    dx, dy = draw(st.sampled_from(_FAMILY_SHIFTS))
    if dx:
        dom = make_polygon([(x + dx * factor, y + dy * factor) for x, y in dom.vertices])
    cum, n = dom.cumlens, len(dom.edges)
    c = geometry._CONVEX_VERTEX_CLEARANCE * dom.scale
    reflex = [j for j, a in enumerate(dom.interior_angles) if a > math.pi]
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def vertex():
        return draw(st.sampled_from(reflex if reflex and draw(st.booleans()) else range(n)))

    def cut(kind):
        if kind == 0:
            return rnd.random() * dom.perimeter
        if kind == 1:
            return cum[vertex()]
        if kind == 2:  # within c of a vertex, on the edge after it or before it
            off = c * (10.0 ** -rnd.uniform(0.0, 12.0))
            return cum[vertex()] + (off if draw(st.booleans()) else -off)
        i = draw(st.integers(0, n - 1))
        s = cum[i] + c if draw(st.booleans()) else cum[i + 1] - c
        return math.nextafter(s, draw(st.sampled_from([-math.inf, s, math.inf])))

    chords = []
    for _ in range(draw(st.integers(1, 6))):
        ends = [cut(draw(st.integers(1, 3))), cut(draw(st.integers(0, 3)))]
        if draw(st.booleans()):
            ends.reverse()
        chords.append(tuple(e % dom.perimeter for e in ends))
    return dom, chords


_LSHAPE = _SIDE_BASES["lshape"]


@settings(max_examples=1200, deadline=None)
@given(drawn=_family_chords())
# the chord from (1, 1 + t) on the notch's wall to (1.5, 0) leaves the
# domain and crosses the edge y = 1 about 1.1 t from its end: within the
# general test's excl for t <= 1e-6, so interior, and not for t >= 1e-5
@example(drawn=(_LSHAPE(), [(4.0 + 1e-6, 1.5)] * 3))
@example(drawn=(_LSHAPE(), [(4.0 + 1e-5, 1.5)] * 3))
@example(drawn=(_LSHAPE(), [(1.5, 4.0 + 1e-6), (4.0 + 1e-6, 1.5), (4.0 + 1e-6, 1.5)]))
# from the reflex vertex, from just off it on each edge, and across the notch
@example(drawn=(_LSHAPE(), [(4.0, 1.5), (4.0, 0.5), (4.0, 7.9), (4.0, 7.0), (4.0, 1.0)]))
@example(drawn=(_LSHAPE(), [(4.0 + 1e-5, 7.9), (4.0 + 1e-5, 0.5), (4.0 - 1e-5, 0.5)] * 2))
@example(drawn=(_LSHAPE(), [(2.5, 7.5), (2.5, 6.5), (2.5, 7.5), (0.5, 4.5), (1.5, 4.5)] * 2))
# the chord from (1, 1.0001) to (1 - 5e-6, 0) is inside, but it passes
# 5e-10 past the reflex vertex's end of the edge y = 1, within the general
# test's parameter slack, so that test finds a hit 1e-4 from x and says not
# interior: only the replay of the stub's near edge agrees
@example(drawn=(_LSHAPE(), [(4.0 + 1e-4, 1.0 - 5e-6)] * 2))
def test_family_verdicts_match_general_test(drawn):
    """The kernel's verdict equals the general test's on every use of a
    chord family: the first, which the general test answers, and the
    later ones, which read the corner-stub or split-pair verdict."""
    dom, chords = drawn
    for s0, s1 in chords:
        want = _general_verdict(dom, s0, s1)
        for _ in range(2):
            assert chord_is_interior(dom, s0, s1) == want, (dom.vertices, s0, s1)
    families = [f for f in dom._chord_families.values() if f]
    if families:
        assert dom._near_origin
        event("a family verdict answered")

# ---------------------------------------------------------------------------
# the chord kernel the refinement objective scores caps with
# ---------------------------------------------------------------------------

_KERNEL_DOMAINS = ["disk", "half-disk"] + [f"D{n}" for n in range(3, 9)] + [
    "D5@1e-06", "D5@1000000.0"
]


@st.composite
def _kernel_caps(draw):
    key = draw(st.sampled_from(_KERNEL_DOMAINS))
    dom = _verdict_domain(key)
    per = dom.perimeter
    n = len(dom.edges)

    def endpoint():
        if draw(st.booleans()):
            return draw(st.floats(0.0, 1.0, exclude_max=True)) * per
        j = draw(st.integers(0, n - 1))
        off = draw(st.sampled_from([0.0, -1.0, 1.0])) * draw(st.floats(1e-15, 1e-6))
        return (dom.vertex_arclength(j) + off * per) % per

    return key, endpoint(), endpoint()


@settings(max_examples=500, deadline=None)
@given(cap=_kernel_caps(), as_numpy=st.booleans())
@example(cap=("D5", 0.9 * 10 * math.sin(math.pi / 5), 0.1 * 10 * math.sin(math.pi / 5)),
         as_numpy=False)  # a wrapping cap
@example(cap=("disk", 0.0, 6.3e-6), as_numpy=True)  # same-arc rule
def test_chord_kernel_matches_point_at_and_eta_partial(cap, as_numpy):
    """The kernel's verdict is :func:`chord_is_interior`'s, its ends are
    ``point_at`` of the cuts, and their distance over ``(b - a) mod P`` is
    :func:`eta_partial` of the cap, bit for bit.  The references take
    NumPy scalars, as the refinement objective passed before it converted
    its vector with ``tolist()``; the kernel takes either type."""
    key, a, b = cap
    dom = _verdict_domain(key)
    a64, b64 = np.float64(a), np.float64(b)
    if as_numpy:
        a, b = a64, b64
    ends = geometry._interior_chord_ends(dom, a, b)
    assert (ends is not None) == chord_is_interior(dom, a, b) == chord_is_interior(dom, a64, b64)
    if ends is None:
        return
    p, q = ends
    assert (p, q) == (dom.point_at(a64), dom.point_at(b64))
    ext = (b - a) % dom.perimeter
    eta = math.inf if ext <= 0.0 else math.dist(p, q) / ext
    assert eta == eta_partial(dom, Cap(a64, b64))


_LOOKUP_DOMAINS = _KERNEL_DOMAINS + ["stadium", "flat-pentagon", "D200"]


@st.composite
def _lookup_cuts(draw):
    key = draw(st.sampled_from(_LOOKUP_DOMAINS))
    dom = _verdict_domain(key)
    per = dom.perimeter
    where = draw(st.sampled_from(["anywhere", "vertex", "near-vertex", "below-P", "reduces-to-P"]))
    if where == "anywhere":
        s = draw(st.floats(0.0, 1.0)) * per
    elif where == "below-P":
        s = math.nextafter(per, 0.0)
    elif where == "reduces-to-P":
        s = -1e-300
    else:
        s = dom.vertex_arclength(draw(st.integers(0, len(dom.edges) - 1)))
        if where == "near-vertex":
            s += draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-15, 1e-6)) * per
    return key, s, where


@settings(max_examples=500, deadline=None)
@given(cut=_lookup_cuts())
@example(cut=("D5", -1e-300, "reduces-to-P"))
@example(cut=("D5", math.nextafter(_verdict_domain("D5").perimeter, 0.0), "below-P"))
def test_edge_lookup_brackets_the_reduced_cut(cut):
    """``edge_index_at`` reduces a cut modulo the perimeter P once and looks
    it up among the vertices below P, the lookup the chord kernel runs on
    cuts it has already reduced: the edge found holds the cut, and its
    local arclength is the cut minus the edge's start, bit for bit.  A cut
    that rounds to P stands for 0."""
    key, s, where = cut
    dom = _verdict_domain(key)
    per, cum, n = dom.perimeter, dom.cumlens, len(dom.edges)
    r = s % per
    if where == "reduces-to-P":
        assert r == per
    if r == per:
        r = 0.0
    i, t = dom.edge_index_at(s)
    assert 0 <= i < n and cum[i] <= r and (i == n - 1 or r < cum[i + 1])
    assert t.hex() == (r - cum[i]).hex()
    if where == "below-P":
        assert i == n - 1
    if where in ("vertex", "reduces-to-P"):
        assert t == 0.0


def test_contains_point(unit_disk, lshape):
    assert contains_point(unit_disk, (0.0, 0.0))
    assert not contains_point(unit_disk, (2.0, 0.0))
    assert contains_point(lshape, (0.5, 0.5))
    assert contains_point(lshape, (1.5, 0.5))
    assert not contains_point(lshape, (1.5, 1.5))  # the notch


def test_project_to_boundary(unit_disk):
    s, d = project_to_boundary(unit_disk, (2.0, 0.0))
    assert s == pytest.approx(0.0, abs=1e-9)
    assert d == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["unit_disk", "square", "lshape", "half_disk"])
def test_domain_json_round_trip(fixture, request):
    dom = request.getfixturevalue(fixture)
    data = domain_to_json(dom)
    json.dumps(data)  # must be plain-JSON serialisable
    back = domain_from_json(data)
    assert back.perimeter == pytest.approx(dom.perimeter, rel=1e-15)
    assert back.area == pytest.approx(dom.area, rel=1e-15)
    for frac in (0.0, 0.31, 0.77):
        assert back.point_at(frac * dom.perimeter) == pytest.approx(
            dom.point_at(frac * dom.perimeter), abs=1e-12
        )


def test_readme_domain_json_example_loads_and_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("**Domain JSON**"):]
    block = section[section.index("```json") + len("```json"):]
    data = json.loads(block[: block.index("```")])
    dom = domain_from_json(data)
    assert dom.perimeter == pytest.approx(2.0 + math.pi, rel=1e-15)
    assert dom.area == pytest.approx(math.pi / 2.0, rel=1e-15)
    assert domain_to_json(dom) == data
    assert domain_from_json(json.loads(json.dumps(domain_to_json(dom)))) == dom


def test_domain_json_rejects_garbage():
    with pytest.raises((InvalidGeometryError, InvalidParameterError, KeyError)):
        domain_from_json({"edges": [{"type": "spline"}]})


@pytest.mark.parametrize("edges", [5, None, "ab", {"type": "segment"}, ()])
def test_domain_json_edges_must_be_a_list(edges):
    # 5 and None raised TypeError from enumerate
    with pytest.raises(
        InvalidGeometryError, match=r"^domain JSON must be an object with an 'edges' list$"
    ):
        domain_from_json({"edges": edges})


@pytest.mark.parametrize("ccw", ["false", 0])
def test_domain_json_arc_direction_must_be_a_boolean(ccw):
    # bool("false") is True: the string built a counterclockwise arc before
    data = domain_to_json(make_disk())
    data["edges"][0]["ccw"] = ccw
    with pytest.raises(
        InvalidGeometryError, match=f"^edge 0: ccw must be true or false, got {ccw!r}$"
    ):
        domain_from_json(data)


def test_cli_refuses_a_string_arc_direction(tmp_path, capsys):
    data = domain_to_json(make_disk())
    data["edges"][0]["ccw"] = "false"
    path = tmp_path / "disk.json"
    path.write_text(json.dumps(data))
    assert main(["render", "--domain", str(path)]) == 3
    assert "ccw must be true or false" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# scaling properties
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(factor=st.floats(min_value=0.01, max_value=100.0))
def test_scaling_measurements(factor):
    dom = make_regular_polygon(5)
    big = scaled(dom, factor)
    assert big.perimeter == pytest.approx(factor * dom.perimeter, rel=1e-12)
    assert big.area == pytest.approx(factor**2 * dom.area, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    factor=st.floats(min_value=0.01, max_value=100.0),
    frac=st.floats(min_value=0.0, max_value=0.999),
)
def test_scaling_commutes_with_point_at(factor, frac):
    dom = make_regular_polygon(6)
    big = scaled(dom, factor)
    x, y = dom.point_at(frac * dom.perimeter)
    bx, by = big.point_at(frac * big.perimeter)
    assert bx == pytest.approx(factor * x, abs=1e-9 * factor)
    assert by == pytest.approx(factor * y, abs=1e-9 * factor)
