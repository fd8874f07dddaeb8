"""Geometry layer: constructors, walks, predicates, JSON round-trips."""

import functools
import json
import math
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from escobar import geometry
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
    if bad > 0 or math.isnan(bad):
        with pytest.raises(InvalidGeometryError, match="non-finite"):
            make_disk(bad)
        with pytest.raises(InvalidGeometryError, match="non-finite"):
            make_regular_polygon(5, bad)
    else:
        with pytest.raises(InvalidParameterError):
            make_disk(bad)


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
    """A star-shaped polygon (simple), optionally with one vertex moved to
    ``offset`` (times the polygon's size) from the line of a far edge, at a
    point within or just past that edge; or lattice points in random order,
    which mostly cross.  Scaled and shifted, also away from the origin."""
    n = draw(st.integers(3, 24))
    if draw(st.booleans()):
        steps = sorted(draw(st.lists(st.integers(0, 719), min_size=n, max_size=n, unique=True)))
        radii = draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n))
        angles = [TWO_PI * k / 720 for k in steps]
        pts = [(r * math.cos(a), r * math.sin(a)) for a, r in zip(angles, radii)]
        if n >= 5 and draw(st.booleans()):
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
    return [(shift + size * x, shift + size * y) for x, y in pts]


@settings(max_examples=400, deadline=None)
@given(_polygons())
def test_simplicity_check_matches_every_pair(points):
    outcome = _check_against_every_pair(_chain(points))
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
    """On the L-shape, whose edges all reach ``c / 2`` from the others, the
    first chord from an edge is ray-cast and later chords from inside it
    into the domain are not.  A chord into the notch at (1, 1) is always
    ray-cast, and rejected."""
    dom = scaled(_SIDE_BASES["lshape"](), factor)
    calls = []
    ray_cast = geometry.contains_point
    monkeypatch.setattr(
        geometry, "contains_point", lambda *a, **k: calls.append(a) or ray_cast(*a, **k)
    )
    assert chord_is_interior(dom, 0.75 * factor, 7.25 * factor)  # (0.75, 0) to (0, 0.75)
    assert len(calls) == 1
    assert chord_is_interior(dom, 0.5 * factor, 7.5 * factor)  # (0.5, 0) to (0, 0.5)
    assert chord_is_interior(dom, 1.5 * factor, 6.5 * factor)  # (1.5, 0) to (0, 1.5)
    assert len(calls) == 1
    c = geometry._SIDE_CLEARANCE * dom.scale
    assert [dom._side_reach(0), dom._side_reach(5)] == pytest.approx([0.5 * c] * 2, rel=1e-9)
    for _ in range(2):
        assert not chord_is_interior(dom, 3.5 * factor, 4.5 * factor)  # (1.5, 1) to (1, 1.5)
    assert len(calls) == 3


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
