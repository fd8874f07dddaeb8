"""The inlined hot loops return every float of their helper-based originals.

``geometry.project_to_boundary`` (segments, in ``geometry._segment_foot``),
the segment ray test of ``geometry.contains_point`` (in
``geometry._ray_parity``) and the non-parallel path of
``geometry._seg_seg_intersections`` spell out ``_sub``, ``_dot`` and
``_cross``.  The helper-based versions they
replaced are kept below as the reference, and hypothesis checks that both
return the same tuples bit for bit: at vertices and on edges, for collinear
and parallel inputs, and on domains scaled by 1e-6 and 1e6.  The one
difference is a squared length that underflows to 0, where the reference
raises and ``_seg_seg_intersections`` returns no intersection.

The edge loop of ``geometry._chord_is_interior_general`` skips segments
whose widened bounding box misses the chord's (the box reject) and
intersects the rest inline, as ``_seg_seg_intersections`` does.  The loop
it replaced, which called that function on every segment, is kept below
too, and hypothesis checks that both give the same verdict or raise the
same exception, also on translated domains where the reject is off.

Boundary points come from one row per edge (``Segment._row``,
``Arc._row``), which ``PlanarDomain._point_rows`` collects:
``point_at_local`` and ``point_at`` evaluate a row through
``geometry._row_point``, the chord kernel ``geometry._interior_chord_ends``
spells that out for its two ends, and ``geometry._points_at`` evaluates
arrays of arclengths from the rows in NumPy, for the grid of
``search._prepare_grid`` and for the screens of ``exact`` and ``symmetry``;
a test checks it against ``point_at`` on unsorted arclengths, at the
vertices and at the perimeter.  The former bodies of both
``point_at_local`` methods and of the kernel are kept below as the
reference, and the tests check that all of them give the former
``point_at_local``'s floats bit for bit and that the kernel gives its
reference's verdict.  The general chord test reads a segment's length from
its row, ``math.dist`` of its ends, where it used ``math.hypot`` of the
delta; a test checks that the two agree bit for bit.

Three copies of one primitive each became a helper: the nearest point of a
segment (``geometry._segment_foot``, formerly inlined in
``project_to_boundary``, in ``_point_segment_distance`` and in the chord
check of ``regions.region_contains_point``), the on-arc test with a
tolerance (``geometry._on_arc``) and the segment-arc hit list
(``geometry._segment_arc_hits``), both of which
``geometry._edge_pair_intersections`` spelled out.  The nearest point of
an arc (``geometry._arc_foot``) was written twice, in ``project_to_boundary``
and in ``_point_arc_distance``; the one difference is the guard within
``1e-300`` of the arc's centre, which the second lacked.  Their former
bodies are the references of the arc-foot tests.

The objective of ``search.refine_caps`` spells out the kernel's edge
lookup, end points and convex verdict for the caps that verdict accepts
with both ends off the vertices, and calls the kernel for the rest.  The
last tests capture the objective (through a patched ``search._nelder_mead``)
on the disk, D3-D8, a rectangle, the half-disk, three slices and a
chord-cut disk at scales 1e-6 to 1e6, and on translated domains without a
clearance.  They check that it returns the score of scoring every cap
through the kernel, bit for bit, and that it hands the kernel exactly the
caps the kernel does not accept by its convex verdict, or with an end at a
vertex: cuts at the vertices, at the perimeter (``-1e-300 % P``), at ``t =
clear`` and ``t = L - clear`` and one ulp either side, chords of ``1e-3``
of the scale and one ulp either side, both ends on one edge, and a cap all
around but a sliver.  On these domains an end at exactly the clearance or
at a vertex of the disk gets the same verdict either way, so only the
second check sees a scorer that decides those caps itself.
"""

import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from escobar import geometry, search
from escobar.errors import InvalidGeometryError, InvalidParameterError
from escobar.geometry import (
    _CHORD_EXCL_ABS,
    _TWO_PI,
    _CHORD_EXCL_REL,
    _GOLDEN_ANGLE,
    TAU_GEOM,
    Arc,
    Segment,
    _chord_is_interior_general,
    _cross,
    _dot,
    _arc_foot,
    _edge_pair_intersections,
    _left_of_own_segment,
    _row_point,
    _seg_seg_intersections,
    _segment_foot,
    _solve_quadratic,
    _sub,
    angle_in_sweep,
    circle_circle_intersections,
    contains_point,
    make_disk,
    make_domain,
    make_polygon,
    make_regular_polygon,
    project_to_boundary,
    scaled,
    segment_circle_intersections,
)
from escobar.search import SearchConfig, _prepare_grid, refine_caps
from tests.conftest import chord_cut_disk, circular_slice, concave_square, rectangle

# ---------------------------------------------------------------------------
# reference: the helper-based kernels, unchanged
# ---------------------------------------------------------------------------


def _ref_project_to_boundary(domain, p):
    best_s = 0.0
    best_d = math.inf
    for i, e in enumerate(domain.edges):
        if isinstance(e, Segment):
            r = _sub(e.end, e.start)
            ll = _dot(r, r)
            u = min(max(_dot(_sub(p, e.start), r) / ll, 0.0), 1.0) if ll > 0 else 0.0
            q = (e.start[0] + u * r[0], e.start[1] + u * r[1])
            d = math.dist(p, q)
            t = u * e.length
        else:
            v = _sub(p, e.center)
            rho = math.hypot(*v)
            if rho <= 1e-300:
                d, t = e.radius, 0.0
            else:
                phi = math.atan2(v[1], v[0])
                inside, _ = angle_in_sweep(e, phi)
                if inside:
                    d = abs(rho - e.radius)
                    t = e.local_t_of_angle(phi)
                else:
                    d0 = math.dist(p, e.start)
                    d1 = math.dist(p, e.end)
                    d, t = (d0, 0.0) if d0 <= d1 else (d1, e.length)
        if d < best_d:
            best_d = d
            best_s = domain._norm_s(float(domain.cumlens[i]) + t)
    return best_s, best_d


def _ref_contains_point(domain, p, *, tol=TAU_GEOM):
    tol_abs = tol * domain.scale
    _, d = _ref_project_to_boundary(domain, p)
    if d <= tol_abs:
        return True

    for attempt in range(32):
        ang = 0.394821 + _GOLDEN_ANGLE * attempt
        direction = (math.cos(ang), math.sin(ang))
        count = 0
        degenerate = False
        for e in domain.edges:
            if isinstance(e, Segment):
                r = _sub(e.end, e.start)
                denom = _cross(direction, r)
                qp = _sub(e.start, p)
                if abs(denom) <= 1e-14 * e.length:
                    if abs(_cross(r, qp)) <= 1e-12 * e.length * max(math.hypot(*qp), 1.0):
                        degenerate = True
                        break
                    continue
                u = _cross(qp, r) / denom
                v = _cross(qp, direction) / denom
                if u <= tol_abs:
                    continue
                if v < -1e-9 or v > 1.0 + 1e-9:
                    continue
                if v < 1e-9 or v > 1.0 - 1e-9:
                    degenerate = True
                    break
                count += 1
            else:
                f = _sub(p, e.center)
                roots = _solve_quadratic(
                    1.0, 2.0 * _dot(direction, f), _dot(f, f) - e.radius * e.radius
                )
                for u in roots:
                    if u <= tol_abs:
                        continue
                    hit = (p[0] + u * direction[0], p[1] + u * direction[1])
                    inside, margin = angle_in_sweep(e, e.angle_of_point(hit))
                    if inside and margin < 1e-9 and e.sweep < 2.0 * math.pi - 1e-12:
                        degenerate = True
                        break
                    if not inside and margin < 1e-9:
                        degenerate = True
                        break
                    if inside:
                        count += 1
                if degenerate:
                    break
        if not degenerate:
            return count % 2 == 1
    raise InvalidGeometryError(f"could not classify point {p} after 32 ray casts")


def _ref_seg_seg_intersections(a, b, c, d, *, eps=1e-9):
    r = _sub(b, a)
    s = _sub(d, c)
    lr = math.hypot(*r)
    ls = math.hypot(*s)
    if lr == 0.0 or ls == 0.0:
        return [], False
    denom = _cross(r, s)
    qp = _sub(c, a)
    if abs(denom) <= 1e-12 * lr * ls:
        if abs(_cross(r, qp)) > 1e-9 * lr * (ls + math.hypot(*qp)):
            return [], False
        t0 = _dot(qp, r) / (lr * lr)
        t1 = _dot(_sub(d, a), r) / (lr * lr)
        lo, hi = min(t0, t1), max(t0, t1)
        olo, ohi = max(lo, 0.0), min(hi, 1.0)
        if ohi - olo > eps:
            return [], True
        if ohi - olo >= -eps:
            u = 0.5 * (olo + ohi)
            p = (a[0] + u * r[0], a[1] + u * r[1])
            return [(p, u, _dot(_sub(p, c), s) / (ls * ls))], False
        return [], False
    u = _cross(qp, s) / denom
    v = _cross(qp, r) / denom
    if -eps <= u <= 1.0 + eps and -eps <= v <= 1.0 + eps:
        p = (a[0] + u * r[0], a[1] + u * r[1])
        return [(p, u, v)], False
    return [], False


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_LSHAPE = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
_STAR = [(0.239, 0.968), (1.505, 1.048), (2.364, 0.822),
         (2.582, 1.251), (3.579, 0.525), (5.505, 0.872)]
# the first ray direction of contains_point: edges of the rotated L-shape
# run parallel or perpendicular to it
_FIRST_RAY = 0.394821


def _rotated(points, ang):
    c, s = math.cos(ang), math.sin(ang)
    return [(c * x - s * y, s * x + c * y) for x, y in points]


_BASES = {
    "lshape": lambda: make_polygon(_LSHAPE),
    "lshape-rot": lambda: make_polygon(_rotated(_LSHAPE, _FIRST_RAY)),
    "star": lambda: make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in _STAR]),
    "half-disk": lambda: make_domain(
        [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
    ),
}
_SCALES = (1.0, 1e-6, 1e6)
_KEYS = [(name, f) for name in _BASES for f in _SCALES]


@functools.cache
def _domain(name, factor):
    dom = _BASES[name]()
    return dom if factor == 1.0 else scaled(dom, factor)


def _bits(x):
    """Nested results with every float replaced by its exact hex form."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, (tuple, list)):
        return type(x)(_bits(y) for y in x)
    return x


def _outcome(fn, *args):
    """:func:`_bits` of the result, or the exception's type and message."""
    try:
        return _bits(fn(*args))
    except (ArithmeticError, InvalidGeometryError) as exc:
        return type(exc).__name__, str(exc)


_unit = st.floats(min_value=0.0, max_value=1.0)
_tiny = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])


@st.composite
def _domain_points(draw):
    """A domain and a point at a vertex, on or just off an edge, on an
    edge's line beyond it, or anywhere in the inflated bounding box."""
    name, factor = draw(st.sampled_from(_KEYS))
    dom = _domain(name, factor)
    kind = draw(st.sampled_from(["vertex", "edge", "near-edge", "edge-line", "box"]))
    if kind == "box":
        x0, y0, x1, y1 = dom.bbox
        w, h = x1 - x0, y1 - y0
        p = (x0 - 0.2 * w + 1.4 * w * draw(_unit), y0 - 0.2 * h + 1.4 * h * draw(_unit))
    elif kind == "vertex":
        p = dom.vertices[draw(st.integers(0, len(dom.edges) - 1))]
    else:
        i = draw(st.integers(0, len(dom.edges) - 1))
        edge = dom.edges[i]
        t = draw(_unit) * edge.length
        if kind == "edge-line" and isinstance(edge, Segment):
            t = (draw(st.floats(min_value=1.0, max_value=3.0)) * draw(st.sampled_from([-1, 1]))
                 + 0.5) * edge.length
        base = edge.point_at_local(t)
        tx, ty = edge.tangent_at_local(min(max(t, 0.0), edge.length))
        off = draw(_tiny) * dom.scale if kind == "near-edge" else 0.0
        p = (base[0] - off * ty, base[1] + off * tx)
    return dom, p


@settings(max_examples=400, deadline=None)
@given(case=_domain_points())
@example(case=(_domain("lshape", 1.0), (1.0, 1.0)))
@example(case=(_domain("lshape-rot", 1e6), _domain("lshape-rot", 1e6).vertices[3]))
@example(case=(_domain("half-disk", 1e-6), (0.0, 0.0)))
def test_project_and_contains_are_bit_identical(case):
    dom, p = case
    assert _outcome(project_to_boundary, dom, p) == _outcome(_ref_project_to_boundary, dom, p)
    assert _outcome(contains_point, dom, p) == _outcome(_ref_contains_point, dom, p)


_coord = st.floats(min_value=-2.0, max_value=2.0)
_scale = st.sampled_from(_SCALES)


@st.composite
def _segment_pairs(draw):
    """Two segments: random, collinear (overlapping or apart), parallel,
    sharing an endpoint, or with one endpoint on the other segment."""
    f = draw(_scale)
    a = (draw(_coord), draw(_coord))
    b = (draw(_coord), draw(_coord))
    kind = draw(st.sampled_from(["random", "collinear", "parallel", "shared", "t-junction"]))
    r = (b[0] - a[0], b[1] - a[1])

    def along(t, off=0.0):
        return (a[0] + t * r[0] - off * r[1], a[1] + t * r[1] + off * r[0])

    if kind == "random":
        c, d = (draw(_coord), draw(_coord)), (draw(_coord), draw(_coord))
    elif kind in ("collinear", "parallel"):
        t0 = draw(st.floats(min_value=-2.0, max_value=2.0))
        t1 = draw(st.floats(min_value=-2.0, max_value=2.0))
        off = 0.0 if kind == "collinear" else draw(_tiny)
        c, d = along(t0, off), along(t1, off)
    elif kind == "shared":
        c, d = draw(st.sampled_from([a, b])), (draw(_coord), draw(_coord))
    else:
        c, d = along(draw(_unit)), (draw(_coord), draw(_coord))
    return tuple((x * f, y * f) for x, y in (a, b, c, d))


@settings(max_examples=500, deadline=None)
@given(segs=_segment_pairs())
@example(segs=((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (2.0, 0.0)))
@example(segs=((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
@example(segs=((0.0, 0.0), (1e-6, 1e-6), (0.0, 1e-6), (1e-6, 0.0)))
# collinear and touching: the reference divides by ls * ls, which underflows
@example(segs=((0, 0), (0, 1), (0, 3.7e-234), (0, 0)))
def test_seg_seg_intersections_is_bit_identical(segs):
    """Bit-identical wherever the reference returns.  Where it divides by a
    squared length that underflows to 0 and raises ``ZeroDivisionError``,
    the kernel treats the segment as zero-length and finds nothing."""
    expected = _outcome(_ref_seg_seg_intersections, *segs)
    if expected[0] == "ZeroDivisionError":
        expected = ([], False)
    assert _outcome(_seg_seg_intersections, *segs) == expected


# ---------------------------------------------------------------------------
# the general chord test: box reject and inline intersection
# ---------------------------------------------------------------------------


def _ref_chord_is_interior_general(domain, p, q, same_arcs, cuts):
    """``geometry._chord_is_interior_general`` with its retired edge loop,
    which intersects the chord with every edge."""
    chord_len = math.dist(p, q)
    tol_abs = TAU_GEOM * domain.scale
    if chord_len <= tol_abs:
        return False
    excl = max(_CHORD_EXCL_ABS * domain.scale, _CHORD_EXCL_REL * chord_len)

    for i, e in enumerate(domain.edges):
        if isinstance(e, Segment):
            hits, overlap = _seg_seg_intersections(p, q, e.start, e.end)
            if overlap:
                return False
            pts = [h[0] for h in hits]
        elif i in same_arcs:
            continue
        else:
            pts = []
            for pt, _u in segment_circle_intersections(p, q, e.center, e.radius):
                inside, m = angle_in_sweep(e, e.angle_of_point(pt))
                if inside or m * e.radius <= tol_abs:
                    pts.append(pt)
        for pt in pts:
            if math.dist(pt, p) > excl and math.dist(pt, q) > excl:
                return False

    if (
        _left_of_own_segment(domain, cuts[0], p, q, chord_len, excl)
        or _left_of_own_segment(domain, cuts[1], q, p, chord_len, excl)
    ):
        return True
    mid = ((p[0] + q[0]) / 2.0, (p[1] + q[1]) / 2.0)
    return contains_point(domain, mid)


def _translated(domain, d):
    """``domain`` moved by ``(d, d)``."""
    edges = []
    for e in domain.edges:
        if isinstance(e, Segment):
            edges.append(Segment((e.start[0] + d, e.start[1] + d), (e.end[0] + d, e.end[1] + d)))
        else:
            c = (e.center[0] + d, e.center[1] + d)
            edges.append(Arc(c, e.radius, e.start_angle, e.end_angle, e.ccw))
    return make_domain(edges)


_GENERAL_BASES = {
    "lshape": _BASES["lshape"],
    "lshape-rot": _BASES["lshape-rot"],
    "star": _BASES["star"],
    "concave-square": concave_square,
    "half-disk": _BASES["half-disk"],
}
# shifts in units of the scale: 10 and 1e3 put the box beyond the origin guard
_GENERAL_KEYS = [
    (name, f, t) for name in _GENERAL_BASES for f in _SCALES for t in (0.0, 10.0, 1e3)
]


# segments, ccw arcs (half-disk, disk) and a cw arc (concave square); convex
# domains take the chord kernel's convex verdict, the rest the general test
_ROW_BASES = {
    **_GENERAL_BASES,
    "disk": make_disk,
    "hexagon": lambda: make_regular_polygon(6),
}
_ROW_KEYS = [(name, f, t) for name in _ROW_BASES for f in _SCALES for t in (0.0, 10.0)]


@functools.cache
def _general_domain(name, factor, shift):
    dom = _ROW_BASES[name]()
    dom = dom if factor == 1.0 else scaled(dom, factor)
    return dom if shift == 0.0 else _translated(dom, shift * dom.scale)


def _line_hits(dom, a, b):
    """Boundary points on the segment ``a -> b``."""
    hits = []
    for e in dom.edges:
        if isinstance(e, Segment):
            hits += [h[0] for h in _seg_seg_intersections(a, b, e.start, e.end)[0]]
        else:
            hits += [x for x, _u in segment_circle_intersections(a, b, e.center, e.radius)
                     if angle_in_sweep(e, e.angle_of_point(x))[0]]
    return hits


_vertex_offset = st.sampled_from([0.0, 1e-15, -1e-15, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6])


def _nudge(x, draw):
    """``x`` moved by -2..2 ulps."""
    k = draw(st.integers(-2, 2))
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _general_chords(draw):
    """A domain key and chord ends ``p``, ``q``: boundary points at, near
    (``1e-15 .. 1e-6`` of the perimeter) or away from vertices; points on
    the line of a segment; a chord leaving such a boundary point at a sine
    of ``1e-12`` (the parallel threshold) +- a few ulps to a segment; or a
    chord on the line ``x`` or ``y`` = const that lies ``M`` +- 1 ulp off a
    segment's bounding box."""
    key = draw(st.sampled_from(_GENERAL_KEYS))
    dom = _general_domain(*key)
    per, n, big = dom.perimeter, len(dom.edges), 4.0 * dom.scale
    segs = [i for i, e in enumerate(dom.edges) if isinstance(e, Segment)]

    def boundary_point():
        if draw(st.booleans()):
            return dom.point_at(draw(st.floats(0.0, 1.0, exclude_max=True)) * per)
        v = dom.vertex_arclength(draw(st.integers(0, n - 1)))
        return dom.point_at((v + draw(_vertex_offset) * per) % per)

    kind = draw(st.sampled_from(["boundary", "collinear", "grazing", "box-gap"]))
    if kind == "boundary":
        return key, boundary_point(), boundary_point()
    f = dom.edges[draw(st.sampled_from(segs))]
    a, b = f.start, f.end
    dx, dy = (b[0] - a[0]) / f.length, (b[1] - a[1]) / f.length
    if kind == "collinear":
        far_back, far_on = (a[0] - big * dx, a[1] - big * dy), (a[0] + big * dx, a[1] + big * dy)
        line = _line_hits(dom, far_back, far_on)
        on_f = st.floats(0.0, 1.0).map(lambda t: f.point_at_local(t * f.length))
        pick = st.one_of(st.sampled_from(line + [a, b]), on_f)
        return key, draw(pick), draw(pick)
    if kind == "grazing":
        p = boundary_point()
        sine = draw(st.sampled_from([1e-12, -1e-12])) * (1.0 + draw(st.integers(-3, 3)) * 2.0**-52)
        cos = math.sqrt(1.0 - sine * sine)
        along = draw(st.sampled_from([1.0, -1.0]))
        u = (along * (cos * dx - sine * dy), along * (cos * dy + sine * dx))
        hits = [x for x in _line_hits(dom, p, (p[0] + big * u[0], p[1] + big * u[1]))
                if math.dist(p, x) > 1e-9 * dom.scale]
        q = min(hits, key=lambda x: math.dist(p, x)) if hits else boundary_point()
        return key, p, (_nudge(q[0], draw), _nudge(q[1], draw))
    # box-gap: the line x (or y) = X' with X' = 1 ulp either side of, or on,
    # the widened box edge of f
    m = geometry._BOX_MARGIN * dom.scale
    axis = draw(st.integers(0, 1))
    lo, hi = min(a[axis], b[axis]) - m, max(a[axis], b[axis]) + m
    x = draw(st.sampled_from([lo, hi]))
    x = draw(st.sampled_from([math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]))
    x0, y0, x1, y1 = dom.bbox
    ends = [(x, y0 - big), (x, y1 + big)] if axis == 0 else [(x0 - big, x), (x1 + big, x)]
    line = _line_hits(dom, *ends)
    if not line:
        return key, boundary_point(), boundary_point()

    def snapped(pt):
        return (x, pt[1]) if axis == 0 else (pt[0], x)

    p = snapped(draw(st.sampled_from(line)))
    q = snapped(draw(st.sampled_from(line))) if len(line) > 1 else boundary_point()
    return key, p, q


@settings(max_examples=800, deadline=None)
@given(chord=_general_chords())
# 1 ulp outside a collinear edge's unwidened box: the edge loop finds the
# overlap, which a box reject with no margin would skip
@example(chord=(("lshape", 1.0, 0.0), (-5e-324, 0.0), (-5e-324, 2.0000000000000018)))
@example(chord=(("half-disk", 1.0, 0.0), (-1.0, 5e-324), (1.0000000000000018, 5e-324)))
def test_general_chord_test_matches_the_full_edge_loop(chord):
    """The box reject and the inline intersection keep every verdict of
    the edge loop that intersected the chord with all edges, and every
    exception, on and off the origin guard."""
    key, p, q = chord
    dom = _general_domain(*key)
    n = len(dom.edges)

    def on(pt):
        i, t = dom.edge_index_at(project_to_boundary(dom, pt)[0])
        return (i, t), ({i, (i - 1) % n} if t == 0.0 else {i})

    (cut0, on0), (cut1, on1) = on(p), on(q)
    same = {i for i in on0 & on1 if isinstance(dom.edges[i], Arc) and dom.edges[i].ccw}
    args = (dom, p, q, same, (cut0, cut1))
    got = _outcome(_chord_is_interior_general, *args)
    assert got == _outcome(_ref_chord_is_interior_general, *args), (key, p, q)


# ---------------------------------------------------------------------------
# boundary points from the per-edge rows
# ---------------------------------------------------------------------------


def _ref_point_at_local(edge, t):
    """The former bodies of ``Segment.point_at_local`` and
    ``Arc.point_at_local``."""
    if isinstance(edge, Segment):
        u = t / edge.length
        return (
            edge.start[0] + u * (edge.end[0] - edge.start[0]),
            edge.start[1] + u * (edge.end[1] - edge.start[1]),
        )
    a = edge._angle_at(t)
    return (
        edge.center[0] + edge.radius * math.cos(a),
        edge.center[1] + edge.radius * math.sin(a),
    )


@st.composite
def _far_points(draw):
    """A point at scale 1e-6, 1 or 1e6, possibly shifted far from the
    origin, so differences lose low bits."""
    f = draw(_scale)
    shift = draw(st.sampled_from([0.0, 1.0, 1e3, -1e6])) * f
    return (draw(_coord) * f + shift, draw(_coord) * f + shift)


@settings(max_examples=1000, deadline=None)
@given(a=_far_points(), b=_far_points())
@example(a=(0.0, 0.0), b=(3.0, 4.0))
@example(a=(1e6, -1e6), b=(1e6 + 2.0**-20, -1e6))
@example(a=(0.0, 0.0), b=(1e-170, 1e-170))  # squares underflow, the norm does not
def test_segment_row_length_is_hypot_of_its_delta(a, b):
    """``math.dist(a, b)``, the length in a segment's row, is
    ``math.hypot`` of the row's delta bit for bit: the general chord test
    read ``hypot`` from its own table before the rows were merged."""
    if a == b:
        return
    arc, x0, y0, dx, dy, length = Segment(a, b)._row
    assert (arc, x0, y0) == (False, *a)
    assert _bits((dx, dy)) == _bits((b[0] - a[0], b[1] - a[1]))
    assert length.hex() == math.hypot(dx, dy).hex()


# ---------------------------------------------------------------------------
# one copy of the segment foot, the on-arc test and the segment-arc hits
# ---------------------------------------------------------------------------


def _ref_point_segment_distance(p, a, b):
    """The former body of ``geometry._point_segment_distance``."""
    r0, r1 = b[0] - a[0], b[1] - a[1]
    ll = r0 * r0 + r1 * r1
    u = ((p[0] - a[0]) * r0 + (p[1] - a[1]) * r1) / ll if ll > 0 else 0.0
    u = min(max(u, 0.0), 1.0)
    return math.dist(p, (a[0] + u * r0, a[1] + u * r1))


def _ref_projection_foot(p, a, b):
    """The foot that ``project_to_boundary`` inlined for a segment edge:
    ``(u, distance)``."""
    r0, r1 = b[0] - a[0], b[1] - a[1]
    ll = r0 * r0 + r1 * r1
    u = ((p[0] - a[0]) * r0 + (p[1] - a[1]) * r1) / ll if ll > 0 else 0.0
    u = min(max(u, 0.0), 1.0)
    q = (a[0] + u * r0, a[1] + u * r1)
    return u, math.dist(p, q)


def _ref_chord_distance(p, a, b):
    """The chord check of ``regions.region_contains_point``: the distance
    from ``p`` to the chord ``a``->``b``, or ``None`` for a chord whose
    squared length is 0, which it skipped."""
    r = _sub(b, a)
    ll = r[0] * r[0] + r[1] * r[1]
    if ll <= 0.0:
        return None
    u = min(max(((p[0] - a[0]) * r[0] + (p[1] - a[1]) * r[1]) / ll, 0.0), 1.0)
    return math.dist(p, (a[0] + u * r[0], a[1] + u * r[1]))


@st.composite
def _foot_cases(draw):
    """A point and a segment: random, the point at an end or on the
    segment's line, a zero-length segment, or one whose squared length
    underflows."""
    a, b, p = draw(_far_points()), draw(_far_points()), draw(_far_points())
    kind = draw(st.sampled_from(["random", "end", "line", "zero", "tiny"]))
    if kind == "end":
        p = draw(st.sampled_from([a, b]))
    elif kind == "line":
        t = draw(st.floats(min_value=-2.0, max_value=3.0))
        p = (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))
    elif kind == "zero":
        b = a
    elif kind == "tiny":
        b = (a[0] + draw(st.sampled_from([1e-170, 5e-324, 1e-300])), a[1])
    return p, a, b


@settings(max_examples=1000, deadline=None)
@given(case=_foot_cases())
@example(case=((1.0, 1.0), (0.0, 0.0), (1e-170, 0.0)))
def test_segment_foot_matches_its_three_former_copies(case):
    p, a, b = case
    u, d = _segment_foot(p, a, b)
    assert _bits((u, d)) == _bits(_ref_projection_foot(p, a, b))
    assert d.hex() == _ref_point_segment_distance(p, a, b).hex()
    r = _sub(b, a)
    skipped = not r[0] * r[0] + r[1] * r[1] > 0.0
    assert _bits(None if skipped else d) == _bits(_ref_chord_distance(p, a, b))


def _ref_edge_pair_intersections(e1, e2, tol_abs):
    """The former body of ``geometry._edge_pair_intersections``, with the
    on-arc test written out at each site."""
    if isinstance(e1, Segment) and isinstance(e2, Segment):
        hits, overlap = _seg_seg_intersections(e1.start, e1.end, e2.start, e2.end)
        return [h[0] for h in hits], overlap
    if isinstance(e1, Segment) or isinstance(e2, Segment):
        seg, arc = (e1, e2) if isinstance(e1, Segment) else (e2, e1)
        pts = []
        for p, _u in segment_circle_intersections(seg.start, seg.end, arc.center, arc.radius):
            inside, _m = angle_in_sweep(arc, arc.angle_of_point(p))
            if inside or _m * arc.radius <= tol_abs:
                pts.append(p)
        return pts, False
    same_circle = (
        math.dist(e1.center, e2.center) <= tol_abs
        and abs(e1.radius - e2.radius) <= tol_abs
    )
    if same_circle:
        lo1 = e1.start_angle if e1.ccw else e1.start_angle - e1.sweep
        lo2 = e2.start_angle if e2.ccw else e2.start_angle - e2.sweep
        ang_tol = tol_abs / max(e1.radius, 1e-300)
        overlap = (
            geometry._circular_interval_overlap(lo1, e1.sweep, lo2, e2.sweep, _TWO_PI)
            > 2.0 * ang_tol
        )
        pts = []
        for p in (e1.start, e1.end):
            ins, m = angle_in_sweep(e2, e2.angle_of_point(p))
            if ins or m * e2.radius <= tol_abs:
                pts.append(p)
        return pts, overlap
    pts = []
    for p in circle_circle_intersections(e1.center, e1.radius, e2.center, e2.radius):
        ok = True
        for arc in (e1, e2):
            ins, m = angle_in_sweep(arc, arc.angle_of_point(p))
            if not ins and m * arc.radius > tol_abs:
                ok = False
                break
        if ok:
            pts.append(p)
    return pts, False


_angle = st.floats(min_value=-7.0, max_value=7.0)
_sweep = st.floats(min_value=0.01, max_value=6.3)


@st.composite
def _edge_pairs(draw):
    """Two edges of a test domain, as ``make_domain`` pairs them, or a
    random arc with a segment or another arc: on the same circle (up to a
    tolerance-sized shift), or touching it at an end (up to a few
    tolerances); and the tolerance ``TAU_GEOM`` times the scale."""
    if draw(st.booleans()):
        dom = _general_domain(*draw(st.sampled_from(_ROW_KEYS)))
        n = len(dom.edges)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        return dom.edges[i], dom.edges[j], TAU_GEOM * dom.scale
    f = draw(_scale)
    tol = TAU_GEOM * f
    c = (draw(_coord) * f, draw(_coord) * f)
    r = draw(st.floats(min_value=0.1, max_value=2.0)) * f
    a0 = draw(_angle)
    arc = Arc(c, r, a0, a0 + draw(st.sampled_from([1.0, -1.0])) * draw(_sweep),
              draw(st.booleans()))
    kind = draw(st.sampled_from(["segment", "arc", "same-circle", "touching"]))
    wiggle = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, -0.5, -2.0])) * tol
    if kind == "segment":
        other = Segment(draw(_far_points()), draw(_far_points()))
    elif kind == "arc":
        c2 = (draw(_coord) * f, draw(_coord) * f)
        b0 = draw(_angle)
        other = Arc(c2, draw(st.floats(min_value=0.1, max_value=2.0)) * f, b0,
                    b0 + draw(_sweep), draw(st.booleans()))
    elif kind == "same-circle":
        b0 = draw(_angle)
        other = Arc((c[0] + wiggle, c[1]), r + wiggle, b0,
                    b0 + draw(st.sampled_from([1.0, -1.0])) * draw(_sweep), draw(st.booleans()))
    else:
        end = draw(st.sampled_from([arc.start, arc.end]))
        tip = (end[0] + wiggle, end[1] - wiggle)
        other = Segment(tip, (draw(_coord) * f, draw(_coord) * f))
    pair = (arc, other) if draw(st.booleans()) else (other, arc)
    return (*pair, tol)


@settings(max_examples=500, deadline=None)
@given(
    f=_scale,
    a0=_angle,
    sweep=_sweep,
    ccw=st.booleans(),
    phi=_angle,
    tol=st.sampled_from(["margin", "below", "above", "zero"]),
)
def test_on_arc_counts_a_point_exactly_tol_beyond_an_end(f, a0, sweep, ccw, phi, tol):
    """The five sites compared ``margin * radius <= tol``: a point exactly
    ``tol`` beyond an end is on the arc, one ulp farther is not."""
    arc = Arc((0.5 * f, -0.25 * f), f, a0, a0 + sweep if ccw else a0 - sweep, ccw)
    p = (arc.center[0] + f * math.cos(phi), arc.center[1] + f * math.sin(phi))
    inside, margin = angle_in_sweep(arc, arc.angle_of_point(p))
    edge = margin * arc.radius
    tol = {"margin": edge, "below": math.nextafter(edge, -math.inf),
           "above": math.nextafter(edge, math.inf), "zero": 0.0}[tol]
    assert geometry._on_arc(arc, p, tol) == (inside or edge <= tol)
    if not inside:
        assert geometry._on_arc(arc, p, edge)
        assert not geometry._on_arc(arc, p, math.nextafter(edge, -math.inf))


@settings(max_examples=1000, deadline=None)
@given(case=_edge_pairs())
def test_edge_pair_intersections_keep_their_former_on_arc_sites(case):
    """``_on_arc`` and ``_segment_arc_hits`` give the points that the three
    spelled-out on-arc tests of ``_edge_pair_intersections`` gave."""
    e1, e2, tol = case
    assert _outcome(_edge_pair_intersections, e1, e2, tol) == _outcome(
        _ref_edge_pair_intersections, e1, e2, tol
    )


def _ref_projection_arc_foot(p, arc):
    """The foot that ``project_to_boundary`` inlined for an arc edge:
    ``(t, distance)``."""
    v = _sub(p, arc.center)
    rho = math.hypot(*v)
    if rho <= 1e-300:
        d, t = arc.radius, 0.0
    else:
        phi = math.atan2(v[1], v[0])
        inside, _ = angle_in_sweep(arc, phi)
        if inside:
            d = abs(rho - arc.radius)
            t = arc.local_t_of_angle(phi)
        else:
            d0 = math.dist(p, arc.start)
            d1 = math.dist(p, arc.end)
            d, t = (d0, 0.0) if d0 <= d1 else (d1, arc.length)
    return t, d


def _ref_point_arc_distance(p, arc):
    """The former body of ``geometry._point_arc_distance``."""
    if angle_in_sweep(arc, arc.angle_of_point(p))[0]:
        return abs(math.dist(p, arc.center) - arc.radius)
    return min(math.dist(p, arc.start), math.dist(p, arc.end))


@st.composite
def _arc_foot_cases(draw):
    """A point and an arc: the point random, on the arc's circle, at an end,
    at the centre or within ``1e-300`` of it."""
    f = draw(_scale)
    c = (draw(_coord) * f, draw(_coord) * f)
    r = draw(st.floats(min_value=0.1, max_value=2.0)) * f
    a0 = draw(_angle)
    ccw = draw(st.booleans())
    arc = Arc(c, r, a0, a0 + (1.0 if ccw else -1.0) * draw(_sweep), ccw)
    kind = draw(st.sampled_from(["random", "circle", "end", "centre", "near-centre"]))
    if kind == "random":
        p = draw(_far_points())
    elif kind == "circle":
        phi = draw(_angle)
        p = (c[0] + r * math.cos(phi), c[1] + r * math.sin(phi))
    elif kind == "end":
        p = draw(st.sampled_from([arc.start, arc.end]))
    elif kind == "centre":
        p = c
    else:
        p = (c[0] + draw(st.sampled_from([5e-324, -1e-301])), c[1])
    return p, arc


@settings(max_examples=1000, deadline=None)
@given(case=_arc_foot_cases())
@example(case=((0.0, 0.0), Arc((0.0, 0.0), 1.0, 1.0, 2.0, True)))
def test_arc_foot_matches_its_two_former_copies(case):
    """``_arc_foot`` gives ``project_to_boundary``'s former arc foot bit for
    bit, and the distance of the former ``_point_arc_distance`` away from
    the centre; within ``1e-300`` of it the distance is the radius."""
    p, arc = case
    t, d = _arc_foot(p, arc)
    assert _bits((t, d)) == _bits(_ref_projection_arc_foot(p, arc))
    if math.hypot(*_sub(p, arc.center)) > 1e-300:
        assert d.hex() == _ref_point_arc_distance(p, arc).hex()
    else:
        assert d == arc.radius


def _ref_interior_chord_ends(domain, s0, s1):
    """``geometry._interior_chord_ends`` as it was before it read the rows:
    the edge lookup by method call and the former ``point_at_local``."""
    i0, t0 = domain._edge_index_reduced(s0)
    i1, t1 = domain._edge_index_reduced(s1)
    edges = domain.edges
    n = len(edges)
    on1 = (i1, (i1 - 1) % n) if t1 == 0.0 else (i1,)
    shared = [i for i in ((i0, (i0 - 1) % n) if t0 == 0.0 else (i0,)) if i in on1]
    for i in shared:
        if isinstance(edges[i], Segment) or not edges[i].ccw:
            return None
    p = _ref_point_at_local(edges[i0], t0)
    q = _ref_point_at_local(edges[i1], t1)
    clear = domain._convex_clearance
    if (
        clear is not None
        and clear < t0 < domain.edge_lengths[i0] - clear
        and clear < t1 < domain.edge_lengths[i1] - clear
        and math.dist(p, q) >= geometry._CONVEX_MIN_CHORD * domain.scale
    ):
        return p, q
    inside = _chord_is_interior_general(domain, p, q, shared, ((i0, t0), (i1, t1)))
    return (p, q) if inside else None


@st.composite
def _edge_cuts(draw):
    """A domain key, an edge index and a local arclength on it: 0, the
    edge's length, or in between; as a Python float or a NumPy scalar."""
    key = draw(st.sampled_from(_ROW_KEYS))
    dom = _general_domain(*key)
    i = draw(st.integers(0, len(dom.edges) - 1))
    length = dom.edge_lengths[i]
    t = draw(st.one_of(st.sampled_from([0.0, length]), _unit.map(lambda u: u * length)))
    return key, i, np.float64(t) if draw(st.booleans()) else t


@settings(max_examples=1000, deadline=None)
@given(cut=_edge_cuts(), other=_edge_cuts(), shift=st.sampled_from([0.0, -1e-300]))
def test_point_rows_give_point_at_local_bit_for_bit(cut, other, shift):
    """A row, ``point_at_local`` and ``point_at`` evaluate the former
    ``point_at_local`` of the edge, and the chord kernel's ends are
    ``point_at``'s, bit for bit, with the kernel's verdict unchanged;
    ``-1e-300`` reduces to the perimeter, which the lookup reads as 0."""
    key, i, t = cut
    dom = _general_domain(*key)
    edge = dom.edges[i]
    want = _bits(_ref_point_at_local(edge, t))
    assert dom._point_rows[i] is edge._row
    assert _bits(_row_point(dom._point_rows[i], t)) == want
    assert _bits(edge.point_at_local(t)) == want
    s = dom.cumlens[i] + t
    j, tj = dom.edge_index_at(s)
    assert _bits(dom.point_at(s)) == _bits(_ref_point_at_local(dom.edges[j], tj))

    per = dom.perimeter
    _, i1, t1 = other
    a, b = (s + shift) % per, (dom.cumlens[i1 % len(dom.edges)] + t1) % per
    for s0, s1 in ((a, b), (b, a)):
        got = _outcome(geometry._interior_chord_ends, dom, s0, s1)
        assert got == _outcome(_ref_interior_chord_ends, dom, s0, s1), (key, s0, s1)
        if got is not None and isinstance(got[0], tuple):  # ends, not an exception
            assert got == _bits((dom.point_at(s0), dom.point_at(s1)))


@pytest.mark.parametrize("key", _ROW_KEYS)
def test_grid_points_are_point_at_bit_for_bit(key):
    """``_prepare_grid`` evaluates its points from the rows, through
    ``_points_at``, as ``point_at`` does one at a time, and the chord kernel's
    ends between grid points are those points."""
    dom = _general_domain(*key)
    for m in (1, 5, 301, 48):
        grid = _prepare_grid(dom, m, full_validity=False)
        pts = _bits(grid.pts.tolist())
        assert pts == _bits([list(dom.point_at(float(s))) for s in grid.svals]), m
    s = grid.svals.tolist()
    for i in range(m):
        for j in range(m):
            ends = geometry._interior_chord_ends(dom, s[i], s[j]) if i != j else None
            if ends is not None:
                assert _bits([list(ends[0]), list(ends[1])]) == [pts[i], pts[j]], (i, j)


@st.composite
def _evaluator_domains(draw):
    """A fixed domain of the row tests, a regular n-gon, a star polygon or a
    circular sector (two segments and a ccw arc), at scales 1e-6 to 1e6."""
    kind = draw(st.sampled_from(["row", "ngon", "star", "sector"]))
    if kind == "row":
        return _general_domain(*draw(st.sampled_from(_ROW_KEYS)))
    f = draw(st.sampled_from(_SCALES))
    if kind == "ngon":
        return make_regular_polygon(draw(st.integers(3, 40)), f)
    if kind == "star":
        # vertex j at an angle in the first 0.4 of sector j: every gap is
        # below pi, so the polygon is star-shaped about the origin
        n = draw(st.integers(3, 12))
        jitter = draw(st.lists(st.floats(0.0, 0.4), min_size=n, max_size=n))
        radii = draw(st.lists(st.floats(0.2, 1.0), min_size=n, max_size=n))
        angles = [(j + u) * _TWO_PI / n for j, u in enumerate(jitter)]
        try:  # three vertices can still fall on a line, as at radii 1, 0.5, 1
            return make_polygon(
                [(f * r * math.cos(a), f * r * math.sin(a)) for a, r in zip(angles, radii)]
            )
        except InvalidGeometryError:
            reject()
    theta = draw(st.floats(0.3, 6.0))
    tip = (f * math.cos(theta), f * math.sin(theta))
    return make_domain(
        [Segment((0.0, 0.0), (f, 0.0)), Arc((0.0, 0.0), f, 0.0, theta), Segment(tip, (0.0, 0.0))]
    )


@settings(max_examples=300, deadline=None)
@given(dom=_evaluator_domains(), data=st.data())
def test_points_at_is_point_at_bit_for_bit(dom, data):
    """``geometry._points_at`` gives ``point_at``'s floats for reduced
    arclengths in any order: anywhere, at the vertices, just below the
    perimeter, and at the perimeter itself, which stands for 0."""
    per = dom.perimeter
    special = [*dom.cumlens, math.nextafter(per, 0.0), -1e-300 % per]
    s = data.draw(
        st.lists(
            st.one_of(st.sampled_from(special), _unit.map(lambda u: u * per)),
            min_size=1, max_size=40,
        )
    )
    want = [_bits(list(dom.point_at(x))) for x in s]
    assert _bits(geometry._points_at(dom, np.array(s)).tolist()) == want
    if len(s) % 2 == 0:  # any array shape, points on a last axis of 2
        got = geometry._points_at(dom, np.array(s).reshape(-1, 2))
        assert got.shape == (len(s) // 2, 2, 2)
        assert _bits(got.reshape(-1, 2).tolist()) == want


# ---------------------------------------------------------------------------
# the refinement objective's inline convex scorer against the chord kernel
# ---------------------------------------------------------------------------

_OBJECTIVE_BASES = {
    "disk": make_disk,
    **{f"D{n}": functools.partial(make_regular_polygon, n) for n in range(3, 9)},
    "rect2x1": lambda: rectangle(2.0, 1.0),
    "half-disk": _BASES["half-disk"],
    "slice-60": lambda: circular_slice(math.pi / 3),
    "slice-72": lambda: circular_slice(2.0 * math.pi / 5),
    "slice-90": lambda: circular_slice(math.pi / 2),
    "chord-cut": lambda: chord_cut_disk(0.5),
}
# shifted by 10 scales: convex, but beyond the origin guard, so no clearance
_OBJECTIVE_KEYS = [
    *((name, f, 0.0) for name in _OBJECTIVE_BASES for f in _SCALES),
    *((name, 1.0, 10.0) for name in ("disk", "D6", "half-disk")),
]
_KERNEL = geometry._interior_chord_ends


@functools.cache
def _objective_domain(name, factor, shift):
    dom = _OBJECTIVE_BASES[name]()
    dom = dom if factor == 1.0 else scaled(dom, factor)
    dom = dom if shift == 0.0 else _translated(dom, shift * dom.scale)
    assert dom.is_convex and (dom._convex_clearance is None) == (shift != 0.0)
    return dom


@functools.cache
def _captured_objective(key, k):
    """Refinement's objective for ``k`` caps on the domain of ``key``, from
    the first start of k caps, one in each ``P/k`` sector, that refinement
    accepts, and the list of the cuts it hands the chord kernel."""
    dom = _objective_domain(*key)
    per = dom.perimeter
    funs, calls = [], []

    def logged_kernel(domain, s0, s1):
        calls.append((s0, s1))
        return _KERNEL(domain, s0, s1)

    with mock.patch.object(search, "_nelder_mead", lambda fun, *_: funs.append(fun)), \
            mock.patch.object(search, "_interior_chord_ends", logged_kernel):
        for phase, width in itertools.product((0.1, 0.3, 0.5, 0.7, 0.9), (0.5, 0.9)):
            cuts = [(j + u) * per / k for j in range(k) for u in (phase, phase + width)]
            try:
                refine_caps(dom, cuts, SearchConfig(restarts=1))
            except InvalidParameterError:
                continue
            return dom, funs[0], calls
    raise AssertionError(f"no valid start for {key} at k={k}")


def _ref_objective(dom, xl):
    """The objective's score with every cap scored by the kernel, and the
    caps, as reduced cuts, that it must hand to the kernel: all of them on
    a domain without a clearance, else those with an end at a vertex and
    those that the kernel's convex verdict does not accept.  The verdict is
    read from its own guards: the kernel accepts the chord, both local
    arclengths lie strictly inside ``(clear, L - clear)``, and the chord is
    at least ``_CONVEX_MIN_CHORD`` times the scale long."""
    per = dom.perimeter
    min_w = 1e-9 * per
    last = len(xl) - 1
    viol = 0.0
    for j in range(0, last, 2):
        w = xl[j + 1] - xl[j]
        if w < min_w:
            viol += min_w - w
    for j in range(1, last, 2):
        g = xl[j + 1] - xl[j]
        if g < 0.0:
            viol += -g
    wrap = (xl[0] + per) - xl[last]
    if wrap < 0.0:
        viol += -wrap
    if viol > 0.0:
        return 1e3 + viol / per, []
    clear, lens = dom._convex_clearance, dom.edge_lengths
    min_chord = geometry._CONVEX_MIN_CHORD * dom.scale
    bad, val, calls = 0, 0.0, []
    for j in range(0, last, 2):
        a, b = xl[j] % per, xl[j + 1] % per
        ends = _KERNEL(dom, a, b)
        (i0, t0), (i1, t1) = dom._edge_index_reduced(a), dom._edge_index_reduced(b)
        inline = (
            clear is not None
            and ends is not None
            and t0 != 0.0
            and t1 != 0.0
            and clear < t0 < lens[i0] - clear
            and clear < t1 < lens[i1] - clear
            and math.dist(*ends) >= min_chord
        )
        if not inline:
            calls.append((a, b))
        if ends is None:
            bad += 1
            continue
        ext = (b - a) % per
        eta = math.inf if ext <= 0.0 else math.dist(*ends) / ext
        if eta > val:
            val = eta
    return (500.0 + bad if bad else val), calls


def _cut_at(dom, i, t):
    """The floats next to ``cumlens[i] + t``: the one whose local arclength
    ``s - cumlens[i]`` is ``t`` when there is one, and its two neighbours."""
    cum = dom.cumlens[i]
    s = cum + t
    for _ in range(4):
        if s - cum == t:
            break
        s = math.nextafter(s, math.inf if s - cum < t else -math.inf)
    return [math.nextafter(s, -math.inf), s, math.nextafter(s, math.inf)]


@functools.cache
def _special_cuts(dom):
    """Reduced cuts at the vertices, at the perimeter (``-1e-300 % P``) and
    at ``t = clear`` and ``t = L - clear`` on every edge, one ulp either side
    included (``1e-3`` of the scale where the domain has no clearance)."""
    clear = dom._convex_clearance
    if clear is None or clear < 0.0:
        clear = geometry._CONVEX_VERTEX_CLEARANCE * dom.scale
    out = [*dom.cumlens[:-1], -1e-300 % dom.perimeter]
    for i, length in enumerate(dom.edge_lengths):
        out += _cut_at(dom, i, clear) + _cut_at(dom, i, length - clear)
    return tuple(out)


@functools.cache
def _min_chord_pairs(dom):
    """Per arc, cuts ``a`` and the three floats ``b`` around the least ``b``
    whose chord from ``a`` is ``1e-3`` of the scale long."""
    min_chord = geometry._CONVEX_MIN_CHORD * dom.scale
    out = []
    for i, edge in enumerate(dom.edges):
        if not isinstance(edge, Arc):
            continue
        a = dom.cumlens[i] + 0.3 * edge.length
        p = dom.point_at(a)
        lo, hi = a, a + 2.0 * min_chord
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if math.dist(p, dom.point_at(mid)) >= min_chord:
                hi = mid
            else:
                lo = mid
        assert math.dist(p, dom.point_at(hi)) >= min_chord > math.dist(p, dom.point_at(lo))
        out += [(a, lo), (a, hi), (a, math.nextafter(hi, math.inf))]
    return tuple(out)


def _check_objective(key, xl):
    dom, objective, calls = _captured_objective(key, len(xl) // 2)
    want, want_calls = _ref_objective(dom, xl)
    calls.clear()
    assert objective(list(xl)).hex() == want.hex(), (key, xl)
    assert calls == want_calls, (key, xl)


@st.composite
def _objective_vectors(draw):
    """A domain key and 2k cuts, k = 1..3: each cap's ends drawn from the
    special cuts or anywhere, on one edge, across ``1e-3 S`` of an arc, or
    one cap all around but a sliver (k = 1); caps in order of their first
    end, and a first cut at 0 sometimes written ``-1e-300``."""
    key = draw(st.sampled_from(_OBJECTIVE_KEYS))
    dom = _objective_domain(*key)
    per = dom.perimeter
    k = draw(st.integers(1, 3))
    anywhere = _unit.map(lambda u: u * per)
    pairs = _min_chord_pairs(dom)
    caps = []
    for _ in range(k):
        kind = draw(st.sampled_from(["cuts", "one-edge", "min-chord", "sliver"]))
        if kind == "one-edge":
            i = draw(st.integers(0, len(dom.edges) - 1))
            cap = [dom.cumlens[i] + draw(_unit) * dom.edge_lengths[i] for _ in range(2)]
        elif kind == "min-chord" and pairs:
            cap = list(draw(st.sampled_from(pairs)))
        elif kind == "sliver" and k == 1:
            a = draw(anywhere)
            cap = [a, a + per - draw(st.sampled_from([1e-12, 1e-10, 1e-8, 1e-4])) * per]
        else:
            cap = [draw(st.one_of(st.sampled_from(_special_cuts(dom)), anywhere)) for _ in range(2)]
        caps.append(sorted(cap) if kind != "sliver" else cap)
    xl = [s for cap in sorted(caps) for s in cap]
    if xl[0] == 0.0 and draw(st.booleans()):
        xl[0] = -1e-300
    return key, xl


@settings(max_examples=1500, deadline=None)
@given(case=_objective_vectors())
def test_refinement_objective_scores_caps_as_the_chord_kernel(case):
    """Refinement's objective gives the score of scoring every cap through
    ``geometry._interior_chord_ends``, bit for bit, and hands the kernel
    exactly the caps its convex verdict does not accept with both ends off
    the vertices; on a domain without a clearance, every cap."""
    _check_objective(*case)


@pytest.mark.parametrize("key", _OBJECTIVE_KEYS)
def test_refinement_objective_on_every_special_cap(key):
    """Each special cut as either end of a cap across the domain and
    against its neighbours among the special cuts, each ``1e-3 S`` pair on
    an arc, and slivers all around but ``1e-12 P`` to ``1e-4 P``, as one
    cap."""
    dom = _objective_domain(*key)
    per = dom.perimeter
    special = _special_cuts(dom)
    caps = [(s, s + 0.45 * per) for s in special] + [(s - 0.45 * per, s) for s in special]
    caps += [(s, t) for s, t in zip(special, special[1:]) if s < t]
    caps += [(-1e-300, 0.3 * per), (-0.3 * per, -1e-300), *_min_chord_pairs(dom)]
    caps += [(0.2 * per, 1.2 * per - f * per) for f in (1e-12, 1e-10, 1e-8, 1e-4)]
    for cap in caps:
        _check_objective(key, list(cap))
