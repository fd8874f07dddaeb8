"""Planar domains bounded by line segments and circular arcs.

A domain is a closed, simple chain of edges traversed counterclockwise
(the interior lies on the left).  All boundary bookkeeping is done in
arclength: a boundary point is addressed by its distance ``s`` from the
start of edge 0, measured counterclockwise, with ``s`` taken modulo the
perimeter.

The module provides constructors (:func:`make_domain`, :func:`make_polygon`,
:func:`make_disk`, :func:`make_regular_polygon`), geometric queries used by
the rest of the package (point/tangent lookup, the interior-chord and
chord-crossing predicates, point containment, projection onto the boundary,
Green-theorem areas), and a JSON round trip for domains.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence, Union

from .errors import InvalidGeometryError, InvalidParameterError

#: Geometric tolerance, relative to the domain scale (bounding-box diagonal).
TAU_GEOM = 1e-9

#: Slack on intersection parameters: a hit needs them in ``[-slack, 1 + slack]``.
_PARAM_SLACK = 1e-9

# Guards of the convex verdict in :func:`chord_is_interior`, argued there.
#: Least corner angle, and least turn, at every vertex.
_CONVEX_CORNER_MARGIN = 1e-3
#: Least boundary distance of a chord endpoint from every vertex, x scale.
_CONVEX_VERTEX_CLEARANCE = 1e-3
#: Least chord length to accept a chord, x scale.
_CONVEX_MIN_CHORD = 1e-3

# Guards of the side test in :func:`_chord_is_interior_general`, argued there.
#: Least boundary distance of the deciding end from its segment's ends, x scale.
_SIDE_CLEARANCE = 1e-3
#: Least sine of the angle between the chord and the deciding end's segment.
_SIDE_MARGIN = 1e-9
#: Least half-distance from a trimmed segment to the other edges, x scale.
_SIDE_MIN_REACH = 1e-4

#: Margin that widens a segment's bounding box for the box reject of
#: :func:`_chord_is_interior_general`, x scale (argued there).
_BOX_MARGIN = 1e-2

#: Exclusion radius around chord ends, ``max(ABS * scale, REL * chord)``: a
#: crossing (:func:`chords_cross`) or boundary hit that close is a touch.
_CHORD_EXCL_ABS = 1e-12
_CHORD_EXCL_REL = 1e-6

#: Largest domain scale :func:`make_domain` accepts: its area test squares
#: ``TAU_GEOM`` times the scale, which overflows past this.
_MAX_SCALE = math.sqrt(sys.float_info.max) / TAU_GEOM

_TWO_PI = 2.0 * math.pi
_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))

Point = tuple[float, float]


def _cross(a: Point, b: Point) -> float:
    return a[0] * b[1] - a[1] * b[0]


def _dot(a: Point, b: Point) -> float:
    return a[0] * b[0] + a[1] * b[1]


def _sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


# ---------------------------------------------------------------------------
# Edges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """Straight edge from ``start`` to ``end``."""

    start: Point
    end: Point

    @cached_property
    def length(self) -> float:
        return math.dist(self.start, self.end)

    @cached_property
    def _row(self) -> tuple:
        """``(False, x0, y0, dx, dy, L)``: the start, ``end - start`` and the
        length, the row that :func:`_row_point` evaluates."""
        (a0, a1), (b0, b1) = self.start, self.end
        return (False, a0, a1, b0 - a0, b1 - a1, self.length)

    def point_at_local(self, t: float) -> Point:
        return _row_point(self._row, t)

    def tangent_at_local(self, t: float) -> Point:
        return (
            (self.end[0] - self.start[0]) / self.length,
            (self.end[1] - self.start[1]) / self.length,
        )

    def reversed(self) -> "Segment":
        return Segment(self.end, self.start)


@dataclass(frozen=True)
class Arc:
    """Circular-arc edge.

    The arc starts at ``start_angle`` (radians, measured at ``center``) and
    sweeps towards ``end_angle`` in the direction given by ``ccw``.  The
    angular extent is normalised into ``(0, 2*pi]``, so a full circle is
    written with ``end_angle = start_angle + 2*pi`` (counterclockwise).
    """

    center: Point
    radius: float
    start_angle: float
    end_angle: float
    ccw: bool = True

    @cached_property
    def sweep(self) -> float:
        """Angular extent in ``(0, 2*pi]``, independent of direction."""
        raw = (
            self.end_angle - self.start_angle
            if self.ccw
            else self.start_angle - self.end_angle
        )
        if raw == 0.0:
            raise InvalidGeometryError(
                "arc has zero sweep; for a full circle use "
                "end_angle = start_angle +/- 2*pi"
            )
        s = raw % _TWO_PI
        return _TWO_PI if s == 0.0 else s

    @cached_property
    def length(self) -> float:
        return self.radius * self.sweep

    def _angle_at(self, t: float) -> float:
        d = t / self.radius
        return self.start_angle + d if self.ccw else self.start_angle - d

    @cached_property
    def _row(self) -> tuple:
        """``(True, cx, cy, r, a0, ccw)``: the centre, radius, start angle
        and direction, the row that :func:`_row_point` evaluates."""
        return (True, *self.center, self.radius, self.start_angle, self.ccw)

    def point_at_local(self, t: float) -> Point:
        return _row_point(self._row, t)

    def tangent_at_local(self, t: float) -> Point:
        a = self._angle_at(t)
        if self.ccw:
            return (-math.sin(a), math.cos(a))
        return (math.sin(a), -math.cos(a))

    def reversed(self) -> "Arc":
        return Arc(self.center, self.radius, self.end_angle, self.start_angle, not self.ccw)

    @property
    def start(self) -> Point:
        return (
            self.center[0] + self.radius * math.cos(self.start_angle),
            self.center[1] + self.radius * math.sin(self.start_angle),
        )

    @property
    def end(self) -> Point:
        # computed from the normalised sweep so that endpoint and sweep agree
        a = self.start_angle + (self.sweep if self.ccw else -self.sweep)
        return (
            self.center[0] + self.radius * math.cos(a),
            self.center[1] + self.radius * math.sin(a),
        )

    def angle_of_point(self, p: Point) -> float:
        return math.atan2(p[1] - self.center[1], p[0] - self.center[0])

    def local_t_of_angle(self, phi: float) -> float:
        """Arclength along the arc of the point at absolute angle ``phi``.

        ``phi`` is assumed to lie on the arc (use :func:`angle_in_sweep`
        first); the offset from the start is reduced modulo ``2*pi``.
        """
        if self.ccw:
            d = (phi - self.start_angle) % _TWO_PI
        else:
            d = (self.start_angle - phi) % _TWO_PI
        if d > self.sweep:
            # numerically just outside: clamp to the nearer end
            d = 0.0 if d - self.sweep > _TWO_PI - d else self.sweep
        return d * self.radius


Edge = Union[Segment, Arc]


def _row_point(row: tuple, t: float) -> Point:
    """The point at local arclength ``t`` on the edge whose ``_row`` is
    ``row``: every boundary point is evaluated here, except in the two hot
    copies that spell it out (:func:`_interior_chord_ends` and the NumPy
    grid of ``search._prepare_grid``)."""
    arc, a, b, c, d, e = row
    if arc:
        ang = d + t / c if e else d - t / c
        return (a + c * math.cos(ang), b + c * math.sin(ang))
    u = t / e
    return (a + u * c, b + u * d)


def angle_in_sweep(arc: Arc, phi: float) -> tuple[bool, float]:
    """Whether angle ``phi`` lies on ``arc``; also the angular margin.

    Returns ``(inside, margin)`` where ``margin`` is the angular distance to
    the nearest end of the sweep (for points inside) or to the sweep itself
    (for points outside).
    """
    if arc.ccw:
        d = (phi - arc.start_angle) % _TWO_PI
    else:
        d = (arc.start_angle - phi) % _TWO_PI
    if d <= arc.sweep:
        return True, min(d, arc.sweep - d)
    return False, min(d - arc.sweep, _TWO_PI - d)


def _on_arc(arc: Arc, p: Point, tol: float) -> bool:
    """Whether ``p``, a point on the circle of ``arc``, lies on the arc or
    within ``tol`` of arclength beyond one of its ends."""
    inside, margin = angle_in_sweep(arc, arc.angle_of_point(p))
    return inside or margin * arc.radius <= tol


# ---------------------------------------------------------------------------
# Low-level intersection helpers
# ---------------------------------------------------------------------------


def _solve_quadratic(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x^2 + b*x + c = 0, numerically stable."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (b + math.copysign(sq, b)) if b != 0.0 else 0.5 * sq
    if q == 0.0:
        return [0.0]
    r1 = q / a
    r2 = c / q
    return [r1] if r1 == r2 else sorted((r1, r2))


def segment_circle_intersections(
    a: Point, b: Point, center: Point, radius: float
) -> list[tuple[Point, float]]:
    """Intersections of segment ``a``->``b`` with a full circle.

    Returns ``(point, u)`` pairs with the segment parameter ``u`` kept
    within ``_PARAM_SLACK`` of ``[0, 1]``.  Solved via the perpendicular foot
    of the centre on the segment line, which stays accurate when the radius
    is many orders of magnitude below the segment length (the naive
    quadratic discriminant cancels catastrophically there).
    """
    d = _sub(b, a)
    dd = _dot(d, d)
    if dd == 0.0:
        return []
    f = _sub(center, a)
    u0 = _dot(f, d) / dd  # foot of the perpendicular from the centre
    ld = math.sqrt(dd)
    perp = _cross(d, f) / ld  # signed distance of the centre from the line
    h2 = radius * radius - perp * perp
    if h2 < 0.0:
        return []
    half = math.sqrt(h2) / ld
    roots = [u0] if half == 0.0 else [u0 - half, u0 + half]
    out = []
    for u in roots:
        if -_PARAM_SLACK <= u <= 1.0 + _PARAM_SLACK:
            out.append(((a[0] + u * d[0], a[1] + u * d[1]), u))
    return out


def _segment_arc_hits(a: Point, b: Point, arc: Arc, tol: float) -> list[Point]:
    """The points where segment ``a``->``b`` meets ``arc``, ends within
    ``tol`` of arclength included (:func:`_on_arc`)."""
    return [
        p
        for p, _u in segment_circle_intersections(a, b, arc.center, arc.radius)
        if _on_arc(arc, p, tol)
    ]


def circle_circle_intersections(
    c1: Point, r1: float, c2: Point, r2: float
) -> list[Point]:
    """Intersection points of two circles (0, 1 or 2 points).

    Concentric circles (including identical ones) yield no points; callers
    that care about the identical-circle case must detect it themselves.
    """
    d = math.dist(c1, c2)
    if d == 0.0:
        return []
    if d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    h = math.sqrt(h2) if h2 > 0.0 else 0.0
    ux, uy = (c2[0] - c1[0]) / d, (c2[1] - c1[1]) / d
    bx, by = c1[0] + a * ux, c1[1] + a * uy
    if h == 0.0:
        return [(bx, by)]
    return [(bx - h * uy, by + h * ux), (bx + h * uy, by - h * ux)]


def _seg_seg_intersections(
    a: Point, b: Point, c: Point, d: Point
) -> tuple[list[tuple[Point, float, float]], bool]:
    """Intersections of segments a->b and c->d.

    Returns ``(hits, overlap)`` where hits are ``(point, u, v)`` with both
    parameters within ``eps = _PARAM_SLACK`` of ``[0, 1]`` and ``overlap``
    flags a collinear intersection of positive length.  On the collinear
    path a segment whose squared length underflows to 0 (below about
    1e-162) has no hits.
    """
    # the hot path below spells out _sub and _cross, operation for operation
    eps = _PARAM_SLACK
    r0, r1 = b[0] - a[0], b[1] - a[1]
    s0, s1 = d[0] - c[0], d[1] - c[1]
    lr = math.hypot(r0, r1)
    ls = math.hypot(s0, s1)
    if lr == 0.0 or ls == 0.0:
        return [], False
    denom = r0 * s1 - r1 * s0
    q0, q1 = c[0] - a[0], c[1] - a[1]
    if abs(denom) <= 1e-12 * lr * ls:
        r, s, qp = (r0, r1), (s0, s1), (q0, q1)
        # parallel; collinear iff c lies on the line through a, b
        if abs(_cross(r, qp)) > 1e-9 * lr * (ls + math.hypot(*qp)):
            return [], False
        # collinear: compare parameter ranges of c, d along a->b
        if lr * lr == 0.0:
            return [], False
        t0 = _dot(qp, r) / (lr * lr)
        t1 = _dot(_sub(d, a), r) / (lr * lr)
        lo, hi = min(t0, t1), max(t0, t1)
        olo, ohi = max(lo, 0.0), min(hi, 1.0)
        if ohi - olo > eps:
            return [], True
        if ohi - olo >= -eps and ls * ls != 0.0:
            u = 0.5 * (olo + ohi)
            p = (a[0] + u * r[0], a[1] + u * r[1])
            return [(p, u, _dot(_sub(p, c), s) / (ls * ls))], False
        return [], False
    u = (q0 * s1 - q1 * s0) / denom
    v = (q0 * r1 - q1 * r0) / denom
    if -eps <= u <= 1.0 + eps and -eps <= v <= 1.0 + eps:
        p = (a[0] + u * r0, a[1] + u * r1)
        return [(p, u, v)], False
    return [], False


def chords_cross(p1: Point, q1: Point, p2: Point, q2: Point, scale: float) -> str | None:
    """Whether the chords ``p1 q1`` and ``p2 q2`` cross or overlap: a
    description, else ``None``.

    Collinear chords that share a stretch overlap.  A crossing point within
    ``max(1e-12 scale, 1e-6 * shorter chord)`` of any of the four ends is a
    touch at that end, not a crossing, so chords that share an end or end on
    each other (a T-junction) do not cross.
    """
    hits, overlap = _seg_seg_intersections(p1, q1, p2, q2)
    if overlap:
        return "chords overlap along a stretch"
    if not hits:
        return None
    excl = max(
        _CHORD_EXCL_ABS * scale, _CHORD_EXCL_REL * min(math.dist(p1, q1), math.dist(p2, q2))
    )
    for pt, _u, _v in hits:
        if all(math.dist(pt, e) > excl for e in (p1, q1, p2, q2)):
            return f"chords cross at {pt}"
    return None


def _circular_interval_overlap(
    lo1: float, len1: float, lo2: float, len2: float, period: float
) -> float:
    """Length of the overlap of the intervals ``[lo1, lo1 + len1]`` and
    ``[lo2, lo2 + len2]`` on a circle of circumference ``period``."""
    total = 0.0
    base = lo1 % period
    for shift in (-period, 0.0, period):
        s2 = (lo2 % period) + shift
        lo = max(base, s2)
        hi = min(base + len1, s2 + len2)
        if hi > lo:
            total += hi - lo
    return total


def _edge_pair_intersections(e1: Edge, e2: Edge, tol_abs: float):
    """All intersection points of two edges, plus an overlap flag."""
    if isinstance(e1, Segment) and isinstance(e2, Segment):
        hits, overlap = _seg_seg_intersections(e1.start, e1.end, e2.start, e2.end)
        return [h[0] for h in hits], overlap
    if isinstance(e1, Segment) or isinstance(e2, Segment):
        seg, arc = (e1, e2) if isinstance(e1, Segment) else (e2, e1)
        return _segment_arc_hits(seg.start, seg.end, arc, tol_abs), False
    # arc-arc
    same_circle = (
        math.dist(e1.center, e2.center) <= tol_abs
        and abs(e1.radius - e2.radius) <= tol_abs
    )
    if same_circle:
        lo1 = e1.start_angle if e1.ccw else e1.start_angle - e1.sweep
        lo2 = e2.start_angle if e2.ccw else e2.start_angle - e2.sweep
        ang_tol = tol_abs / max(e1.radius, 1e-300)
        overlap = _circular_interval_overlap(lo1, e1.sweep, lo2, e2.sweep, _TWO_PI) > 2.0 * ang_tol
        return [p for p in (e1.start, e1.end) if _on_arc(e2, p, tol_abs)], overlap
    pts = circle_circle_intersections(e1.center, e1.radius, e2.center, e2.radius)
    return [p for p in pts if _on_arc(e1, p, tol_abs) and _on_arc(e2, p, tol_abs)], False


def _segment_foot(p: Point, a: Point, b: Point) -> tuple[float, float]:
    """The point of segment ``a``->``b`` nearest to ``p``: its parameter
    ``u`` in ``[0, 1]`` and its distance from ``p``.  A segment whose
    squared length is 0 has its foot at ``a``."""
    r0, r1 = b[0] - a[0], b[1] - a[1]
    ll = r0 * r0 + r1 * r1
    u = ((p[0] - a[0]) * r0 + (p[1] - a[1]) * r1) / ll if ll > 0 else 0.0
    u = min(max(u, 0.0), 1.0)
    return u, math.dist(p, (a[0] + u * r0, a[1] + u * r1))


def _point_arc_distance(p: Point, arc: Arc) -> float:
    if angle_in_sweep(arc, arc.angle_of_point(p))[0]:
        return abs(math.dist(p, arc.center) - arc.radius)
    return min(math.dist(p, arc.start), math.dist(p, arc.end))


def _segment_edge_distance(a: Point, b: Point, edge: Edge) -> float:
    """Least distance between the segment a->b and ``edge``; 0 when they meet.

    Two disjoint compact curves are closest at an end of one of them, or,
    for a segment and an arc, at the foot of the arc's centre on the
    segment and the arc point on that normal.
    """
    if isinstance(edge, Segment):
        hits, overlap = _seg_seg_intersections(a, b, edge.start, edge.end)
        if hits or overlap:
            return 0.0
        return min(
            _segment_foot(a, edge.start, edge.end)[1],
            _segment_foot(b, edge.start, edge.end)[1],
            _segment_foot(edge.start, a, b)[1],
            _segment_foot(edge.end, a, b)[1],
        )
    for x, _u in segment_circle_intersections(a, b, edge.center, edge.radius):
        if angle_in_sweep(edge, edge.angle_of_point(x))[0]:
            return 0.0
    d = min(
        _point_arc_distance(a, edge),
        _point_arc_distance(b, edge),
        _segment_foot(edge.start, a, b)[1],
        _segment_foot(edge.end, a, b)[1],
    )
    r = _sub(b, a)
    ll = _dot(r, r)
    u = _dot(_sub(edge.center, a), r) / ll
    if 0.0 < u < 1.0:
        foot = (a[0] + u * r[0], a[1] + u * r[1])
        ln = math.sqrt(ll)
        for sg in (edge.radius / ln, -edge.radius / ln):
            x = (edge.center[0] - sg * r[1], edge.center[1] + sg * r[0])
            if angle_in_sweep(edge, edge.angle_of_point(x))[0]:
                d = min(d, math.dist(foot, x))
    return d


# ---------------------------------------------------------------------------
# Domain
# ---------------------------------------------------------------------------


def _edge_green(edge: Edge) -> float:
    """Contribution of one edge to the Green-theorem area integral."""
    if isinstance(edge, Segment):
        return 0.5 * _cross(edge.start, edge.end)
    delta = edge.sweep if edge.ccw else -edge.sweep
    p, q = edge.start, edge.end
    return 0.5 * (edge.radius * edge.radius * delta + _cross(edge.center, _sub(q, p)))


@dataclass(frozen=True)
class PlanarDomain:
    """Closed, simple, counterclockwise chain of segments and arcs.

    Construct through :func:`make_domain` (or the convenience constructors),
    which validate closure, orientation and simplicity.
    """

    edges: tuple[Edge, ...]

    @cached_property
    def edge_lengths(self) -> tuple[float, ...]:
        return tuple(e.length for e in self.edges)

    @cached_property
    def cumlens(self) -> tuple[float, ...]:
        """Arclength of each vertex, then the perimeter."""
        return tuple(itertools.accumulate(self.edge_lengths, initial=0.0))

    @cached_property
    def perimeter(self) -> float:
        return self.cumlens[-1]

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(e.start for e in self.edges)

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box (xmin, ymin, xmax, ymax)."""
        xs: list[float] = []
        ys: list[float] = []
        for e in self.edges:
            xs.extend((e.start[0], e.end[0]))
            ys.extend((e.start[1], e.end[1]))
            if isinstance(e, Arc):
                # include the four axis-extreme points that lie on the arc
                for phi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
                    ins, _ = angle_in_sweep(e, phi)
                    if ins:
                        xs.append(e.center[0] + e.radius * math.cos(phi))
                        ys.append(e.center[1] + e.radius * math.sin(phi))
        return (min(xs), min(ys), max(xs), max(ys))

    @cached_property
    def scale(self) -> float:
        x0, y0, x1, y1 = self.bbox
        return max(math.hypot(x1 - x0, y1 - y0), 1e-300)

    @cached_property
    def area(self) -> float:
        return sum(_edge_green(e) for e in self.edges)

    @cached_property
    def interior_angles(self) -> tuple[float, ...]:
        """Interior angle at each vertex; pi at a smooth join."""
        out = []
        n = len(self.edges)
        for j in range(n):
            prev = self.edges[(j - 1) % n]
            t_in = prev.tangent_at_local(prev.length)
            t_out = self.edges[j].tangent_at_local(0.0)
            turn = math.atan2(_cross(t_in, t_out), _dot(t_in, t_out))
            out.append(math.pi - turn)
        return tuple(out)

    @cached_property
    def convex_corners(self) -> tuple[int, ...]:
        """Indices of the strictly convex corners, in order: vertices whose
        interior angle falls short of pi by more than 1e-9."""
        return tuple(j for j, theta in enumerate(self.interior_angles) if theta < math.pi - 1e-9)

    @cached_property
    def sharpest_corner(self) -> int | None:
        """The convex corner with the least interior angle, ties to the
        lowest index; ``None`` when there is no convex corner."""
        angles = self.interior_angles
        return min(self.convex_corners, key=lambda j: (angles[j], j), default=None)

    @cached_property
    def is_convex(self) -> bool:
        if any(theta > math.pi + 1e-9 for theta in self.interior_angles):
            return False
        return all(e.ccw for e in self.edges if isinstance(e, Arc))

    @cached_property
    def regular_order(self) -> int | None:
        """The vertex count when the domain is a regular polygon, else
        ``None``: a convex chain of at least 3 segments whose edge lengths
        and vertex distances from the vertex centroid each agree within
        ``TAU_GEOM`` times the scale."""
        n = len(self.edges)
        if n < 3 or not all(isinstance(e, Segment) for e in self.edges):
            return None
        if not self.is_convex:
            return None
        lens = self.edge_lengths
        if max(lens) - min(lens) > TAU_GEOM * self.scale:
            return None
        cx = sum(v[0] for v in self.vertices) / n
        cy = sum(v[1] for v in self.vertices) / n
        radii = [math.dist(v, (cx, cy)) for v in self.vertices]
        if max(radii) - min(radii) > TAU_GEOM * self.scale:
            return None
        return n

    @cached_property
    def _near_origin(self) -> bool:
        """Whether the bounding box lies within ``S`` (the scale) of the
        origin, so every coordinate is at most ``S`` in absolute value: the
        guard of the convex verdict, the side test and the box reject of the
        general chord test, which bound rounding errors by ``1e-16 S``."""
        return max(abs(v) for v in self.bbox) <= self.scale

    @cached_property
    def _convex_clearance(self) -> float | None:
        """Least boundary distance of a chord endpoint from every vertex for
        the convex verdict of :func:`chord_is_interior`, or ``None`` when the
        domain does not admit that verdict (the guards are argued there)."""
        if (
            not self.is_convex
            or not self._near_origin
            or any(isinstance(e, Arc) and e.radius > self.scale for e in self.edges)
        ):
            return None
        if len(self.edges) == 1:  # a full circle has no vertex
            return -math.inf
        m = _CONVEX_CORNER_MARGIN
        clear = _CONVEX_VERTEX_CLEARANCE * self.scale
        if min(self.edge_lengths) <= 2.0 * clear or any(
            not m <= theta <= math.pi - m for theta in self.interior_angles
        ):
            return None
        return clear

    @cached_property
    def _side_reaches(self) -> dict[int, float | None]:
        """Memo of :meth:`_side_reach` by edge index; ``None`` after the
        first call."""
        return {}

    def _side_reach(self, i: int) -> float:
        """Half the least distance from edge ``i``, a segment trimmed by ``c =
        1e-3 S`` at both ends, to every other edge: the side test of
        :func:`_chord_is_interior_general` decides from an end on that
        segment when ``excl`` is below it (argued there).  0 where it does
        not decide: on an arc, on a segment no longer than ``2c``, where the
        value is below ``1e-4 S``, and on every edge when the bounding box
        reaches farther than ``S`` from the origin.

        The value takes O(n) distances, about three ray casts' worth on a
        hexagon, so it is found on the edge's second call; the first returns
        0 and leaves its chord to the ray cast.  A domain that tests one
        chord per edge, as a corner chain's validation does, thus pays no
        more than before.
        """
        memo = self._side_reaches
        if i not in memo:
            memo[i] = None
            return 0.0
        if memo[i] is None:
            row = self._point_rows[i]
            length = row[5]
            c = _SIDE_CLEARANCE * self.scale
            reach = 0.0
            if self._near_origin and not row[0] and length > 2.0 * c:
                a, b = _row_point(row, c), _row_point(row, length - c)
                reach = 0.5 * min(
                    _segment_edge_distance(a, b, f) for j, f in enumerate(self.edges) if j != i
                )
            memo[i] = reach if reach >= _SIDE_MIN_REACH * self.scale else 0.0
        return memo[i]

    @cached_property
    def _point_rows(self) -> tuple[tuple, ...]:
        """Each edge's ``_row``, which :func:`_row_point` evaluates: for a
        segment ``(False, x0, y0, dx, dy, L)``, its start, ``end - start`` and
        its length; for an arc ``(True, cx, cy, r, a0, ccw)``, its centre,
        radius, start angle and direction.  The one per-edge table of the
        segments' start, delta and length."""
        return tuple(e._row for e in self.edges)

    @cached_property
    def _edge_boxes(self) -> tuple[tuple[float, float, float, float] | None, ...]:
        """The box reject of :func:`_chord_is_interior_general`: each
        segment's bounding box ``(x0, y0, x1, y1)`` widened by ``M = 1e-2 S``;
        ``None`` for an arc.  When the bounding box does not lie within ``S``
        of the origin the widened boxes are the whole plane, so the reject
        never fires."""
        m = _BOX_MARGIN * self.scale
        near = self._near_origin
        boxes: list[tuple[float, float, float, float] | None] = []
        for e in self.edges:
            if isinstance(e, Arc):
                boxes.append(None)
            elif near:
                (a0, a1), (b0, b1) = e.start, e.end
                boxes.append((min(a0, b0) - m, min(a1, b1) - m, max(a0, b0) + m, max(a1, b1) + m))
            else:
                boxes.append((-math.inf, -math.inf, math.inf, math.inf))
        return tuple(boxes)

    # -- boundary parameterisation ------------------------------------

    def _norm_s(self, s: float) -> float:
        s = s % self.perimeter
        return 0.0 if s == self.perimeter else s

    def edge_index_at(self, s: float) -> tuple[int, float]:
        """Edge index and local arclength for boundary position ``s``."""
        return self._edge_index_reduced(s % self.perimeter)

    def _edge_index_reduced(self, s: float) -> tuple[int, float]:
        """:meth:`edge_index_at` for ``s`` already reduced modulo the
        perimeter ``P``, so in ``[0, P]``: ``P`` comes from rounding (``-1e-300
        % P == P``) and stands for 0.  Searching the vertices below ``P``
        keeps the index in range without a clamp (NaN lands on the last
        edge)."""
        cum = self.cumlens
        if s == cum[-1]:
            s = 0.0
        i = bisect.bisect_right(cum, s, 0, len(cum) - 1) - 1
        return i, s - cum[i]

    def point_at(self, s: float) -> Point:
        i, t = self.edge_index_at(s)
        return _row_point(self._point_rows[i], t)

    def vertex_arclength(self, j: int) -> float:
        return float(self.cumlens[j % len(self.edges)])

    def boundary_pieces(self, s0: float, s1: float) -> list[tuple[int, float, float]]:
        """Per-edge pieces covering the boundary walk ccw from s0 to s1.

        Each piece is ``(edge_index, t_start, t_end)`` in local arclength.
        Returns an empty list when the walk has zero length.
        """
        length = (s1 - s0) % self.perimeter
        if length == 0.0:
            return []
        i, t = self.edge_index_at(s0)
        pieces = []
        remaining = length
        guard = 2 * len(self.edges) + 2
        while remaining > 1e-12 * self.perimeter and guard > 0:
            guard -= 1
            avail = self.edge_lengths[i] - t
            take = min(avail, remaining)
            if take > 0.0:
                pieces.append((i, t, t + take))
            remaining -= take
            i = (i + 1) % len(self.edges)
            t = 0.0
        return pieces

def is_disk(domain: PlanarDomain) -> bool:
    e = domain.edges
    return len(e) == 1 and isinstance(e[0], Arc) and abs(e[0].sweep - _TWO_PI) < 1e-12


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def make_domain(edges: Iterable[Edge]) -> PlanarDomain:
    """Build a validated domain from an edge chain.

    Checks that every coordinate, radius and angle is finite and that the
    chain's :attr:`PlanarDomain.scale` is at most ``_MAX_SCALE``, then edge
    sanity, closure, orientation (reversing a clockwise chain), simplicity,
    and corner non-degeneracy, up to ``TAU_GEOM`` times that scale.  Raises
    :class:`~escobar.errors.InvalidGeometryError` on failure.
    """
    edges = tuple(edges)
    if not edges:
        raise InvalidGeometryError("domain needs at least one edge")
    for j, e in enumerate(edges):
        if isinstance(e, Arc):
            numbers = (*e.center, e.radius, e.start_angle, e.end_angle)
        else:
            numbers = (*e.start, *e.end)
        # every later check compares with <=, which NaN passes
        if not all(math.isfinite(x) for x in numbers):
            raise InvalidGeometryError(f"edge {j} has a non-finite coordinate, radius or angle")
    dom = PlanarDomain(edges)
    scale = dom.scale
    # also refuses an infinite diagonal, and NaN from an infinite box
    if not scale <= _MAX_SCALE:
        raise InvalidGeometryError(
            f"boundary chain's extent overflows: bounding-box diagonal {scale:.6g} "
            f"is above {_MAX_SCALE:.6g}"
        )
    tol_abs = TAU_GEOM * scale

    for e in edges:
        if isinstance(e, Arc) and e.radius <= tol_abs:
            raise InvalidGeometryError(f"arc radius {e.radius} is not positive")
        if e.length <= tol_abs:
            raise InvalidGeometryError("zero-length edge in boundary chain")

    n = len(edges)
    if n == 1:
        e = edges[0]
        if not (isinstance(e, Arc) and abs(e.sweep - _TWO_PI) <= 1e-9):
            raise InvalidGeometryError("a single-edge domain must be a full circle")
    for j in range(n):
        a = edges[j].end
        b = edges[(j + 1) % n].start
        if math.dist(a, b) > tol_abs and n > 1:
            raise InvalidGeometryError(
                f"boundary chain is not closed between edges {j} and {(j + 1) % n}: "
                f"{a} vs {b}"
            )

    signed = sum(_edge_green(e) for e in edges)
    if abs(signed) <= tol_abs * tol_abs:
        raise InvalidGeometryError("boundary chain encloses no area")
    if signed < 0.0:
        edges = tuple(e.reversed() for e in reversed(edges))
        dom = PlanarDomain(edges)

    # simplicity: no two edges may intersect except adjacent ones at their
    # shared vertex, and no edge pair may overlap along a stretch.  Pairs are
    # tested in (i, j) order, so the first failure is the all-pairs loop's
    for i, j in sorted(_pairs_that_may_meet(dom)):
        problem = _edge_pair_problem(edges, i, j, tol_abs)
        if problem is not None:
            raise InvalidGeometryError(problem)

    for j, theta in enumerate(dom.interior_angles):
        if theta <= 1e-9 or theta >= _TWO_PI - 1e-9:
            raise InvalidGeometryError(
                f"degenerate corner at vertex {j} (interior angle {theta})"
            )
    return dom


def _edge_pair_problem(edges: Sequence[Edge], i: int, j: int, tol_abs: float) -> str | None:
    """Why edges ``i < j`` of a closed chain break its simplicity, or
    ``None``: they overlap along a stretch, or meet other than at the
    vertex that adjacent edges share."""
    pts, overlap = _edge_pair_intersections(edges[i], edges[j], tol_abs)
    if overlap:
        return f"edges {i} and {j} overlap along the boundary"
    allowed: list[Point] = []
    if j == i + 1:
        allowed.append(edges[j].start)
    if i == 0 and j == len(edges) - 1:
        allowed.append(edges[0].start)
    for p in pts:
        if all(math.dist(p, q) > tol_abs for q in allowed):
            return f"boundary is not simple: edges {i} and {j} meet at {p}"
    return None


def _pairs_that_may_meet(dom: PlanarDomain) -> Iterable[tuple[int, int]]:
    """The edge pairs ``(i, j)``, ``i < j``, that the simplicity check of
    :func:`make_domain` tests, each once: every pair with an arc, and the
    pairs of segments whose boxes, widened by ``M = 1e-2 S``
    (:attr:`PlanarDomain._edge_boxes`), meet, found by a sweep in x.

    Two segments whose widened boxes miss each other have neither a hit nor
    an overlap: the box reject of :func:`_chord_is_interior_general` argues
    this for a chord with both ends in the bounding box against a segment,
    under the intersection code both use, and an edge is such a chord.
    When the bounding box reaches farther than ``S`` from the origin the
    widened boxes are the whole plane, and every pair is tested.
    """
    boxes = dom._edge_boxes
    n = len(boxes)
    for a, box in enumerate(boxes):
        if box is None:
            for j in range(n):
                if j != a and (boxes[j] is not None or a < j):
                    yield (a, j) if a < j else (j, a)
    segs = sorted((box[0], i) for i, box in enumerate(boxes) if box is not None)
    for pos, (_x0, i) in enumerate(segs):
        _, y0, x1, y1 = boxes[i]
        for nxt in range(pos + 1, len(segs)):
            x0_j, j = segs[nxt]
            if x0_j > x1:
                break
            box = boxes[j]
            if box[1] <= y1 and box[3] >= y0:
                yield (i, j) if i < j else (j, i)


def make_polygon(points: Sequence[Sequence[float]]) -> PlanarDomain:
    """Simple polygon from a vertex list (either orientation).

    A closing vertex equal to the first is dropped.  A straight-through
    vertex raises; :func:`make_domain` rejects repeated vertices.
    """
    pts: list[Point] = [(float(p[0]), float(p[1])) for p in points]
    if len(pts) >= 2:
        # TAU_GEOM times the bounding-box diagonal, as in make_domain
        xs, ys = zip(*pts)
        tol_abs = TAU_GEOM * math.hypot(max(xs) - min(xs), max(ys) - min(ys))
        if math.dist(pts[0], pts[-1]) <= tol_abs:
            pts.pop()
    if len(pts) < 3:
        raise InvalidParameterError("a polygon needs at least 3 distinct vertices")
    m = len(pts)
    for j in range(m):
        a, b, c = pts[(j - 1) % m], pts[j], pts[(j + 1) % m]
        u = _sub(b, a)
        v = _sub(c, b)
        if abs(_cross(u, v)) <= 1e-12 * math.hypot(*u) * math.hypot(*v) and _dot(u, v) > 0:
            raise InvalidGeometryError(f"collinear vertex {b}")
    return make_domain(Segment(pts[j], pts[(j + 1) % m]) for j in range(m))


def make_disk(radius: float = 1.0, center: Point = (0.0, 0.0)) -> PlanarDomain:
    if radius <= 0:
        raise InvalidParameterError(f"disk radius must be positive, got {radius}")
    return make_domain([Arc(center, float(radius), 0.0, _TWO_PI, True)])


def make_regular_polygon(n: int, circumradius: float = 1.0) -> PlanarDomain:
    """Regular n-gon with vertices on the circle of given circumradius,
    the first vertex at angle 0."""
    if n < 3:
        raise InvalidParameterError(f"regular polygon needs n >= 3, got {n}")
    if circumradius <= 0:
        raise InvalidParameterError("circumradius must be positive")
    pts = [
        (
            circumradius * math.cos(_TWO_PI * j / n),
            circumradius * math.sin(_TWO_PI * j / n),
        )
        for j in range(n)
    ]
    return make_polygon(pts)


def scaled(domain: PlanarDomain, factor: float) -> PlanarDomain:
    """Dilate a domain about the origin by ``factor > 0``."""
    if not 0 < factor < math.inf:
        raise InvalidParameterError(f"scale factor must be positive and finite, got {factor}")
    out: list[Edge] = []
    for e in domain.edges:
        if isinstance(e, Segment):
            out.append(
                Segment(
                    (factor * e.start[0], factor * e.start[1]),
                    (factor * e.end[0], factor * e.end[1]),
                )
            )
        else:
            out.append(
                Arc(
                    (factor * e.center[0], factor * e.center[1]),
                    factor * e.radius,
                    e.start_angle,
                    e.end_angle,
                    e.ccw,
                )
            )
    # scaling preserves validity; skip re-validation
    return PlanarDomain(tuple(out))


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------


def project_to_boundary(domain: PlanarDomain, p: Point) -> tuple[float, float]:
    """Arclength of the boundary point nearest to ``p`` and its distance."""
    best_s = 0.0
    best_d = math.inf
    for i, e in enumerate(domain.edges):
        if isinstance(e, Segment):
            u, d = _segment_foot(p, e.start, e.end)
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


def contains_point(domain: PlanarDomain, p: Point) -> bool:
    """Point-in-domain test for the closed region: a point within ``TAU_GEOM``
    times the scale of the boundary counts as inside."""
    tol_abs = TAU_GEOM * domain.scale
    _, d = project_to_boundary(domain, p)
    if d <= tol_abs:
        return True
    return _ray_parity(domain.edges, p, tol_abs)


def _ray_parity(edges, p: Point, tol_abs: float) -> bool:
    """Whether ``p`` lies inside the closed curve made of ``edges``.

    Counts the crossings of a ray from ``p`` with the edges and takes the
    parity.  A ray that runs along an edge, or meets one within ``1e-9`` of
    an end in the edge's parameter, is degenerate and the next of up to 32
    directions is tried.  The caller has already found ``p`` farther than
    ``tol_abs`` from the curve.
    """
    for attempt in range(32):
        ang = 0.394821 + _GOLDEN_ANGLE * attempt
        direction = dx, dy = math.cos(ang), math.sin(ang)
        count = 0
        degenerate = False
        for e in edges:
            if isinstance(e, Segment):
                # _sub and _cross spelled out, operation for operation (hot loop)
                a, b = e.start, e.end
                r0, r1 = b[0] - a[0], b[1] - a[1]
                denom = dx * r1 - dy * r0
                q0, q1 = a[0] - p[0], a[1] - p[1]
                if abs(denom) <= 1e-14 * e.length:
                    # ray parallel to the edge: degenerate only if collinear
                    if abs(r0 * q1 - r1 * q0) <= 1e-12 * e.length * max(math.hypot(q0, q1), 1.0):
                        degenerate = True
                        break
                    continue
                u = (q0 * r1 - q1 * r0) / denom
                v = (q0 * dy - q1 * dx) / denom
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
                    if inside and margin < 1e-9 and e.sweep < _TWO_PI - 1e-12:
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


def edge_offset_vector(edge: Edge, u: float, *, from_end: bool = False) -> Point:
    """Vector from the start of ``edge`` to its point at arclength ``u``.

    With ``from_end`` the walk runs back from the end of the edge instead.
    Neither absolute point is formed, so the vector keeps full relative
    precision for any ``u`` down to the smallest normal floats: a segment
    scales its unit direction, an arc takes its chord ``2R sin(u/2R)`` in
    the direction of the angle halfway along the walk.
    """
    if isinstance(edge, Segment):
        p, q = (edge.end, edge.start) if from_end else (edge.start, edge.end)
        f = u / edge.length
        return (f * (q[0] - p[0]), f * (q[1] - p[1]))
    sigma = 1.0 if edge.ccw else -1.0
    phi0 = edge.start_angle
    if from_end:
        phi0 += sigma * edge.sweep
        sigma = -sigma
    half = u / (2.0 * edge.radius)
    c = sigma * 2.0 * edge.radius * math.sin(half)
    mid = phi0 + sigma * half
    return (-c * math.sin(mid), c * math.cos(mid))


def chord_is_interior(domain: PlanarDomain, s0: float, s1: float) -> bool:
    """Whether the open chord between boundary points s0, s1 stays inside.

    The chord must have positive length, must not run along the boundary, and
    must not meet the boundary except at its two endpoints.

    The *flat-edge rule* comes first: a chord with both ends on one closed
    straight edge runs along it, and one with both ends on one closed
    concave arc runs outside the domain, so neither is interior.  It reads
    edge indices (a point at a vertex lies on both edges there), so the
    verdict is the same in both directions and at any chord length; the
    coordinate tests below cannot tell a chord along an edge shorter than
    about 1e-4 of the scale from one just off it.

    On a convex domain every other chord between two distinct points is
    interior.  This *convex verdict* answers without the edge loop and ray
    cast of the general test (:func:`_chord_is_interior_general`) when these
    guards hold (``S`` = scale, ``l`` = chord length, ``c = 1e-3 S``):

    * the domain is convex, its bounding box lies within ``S`` of the origin
      and every arc radius is at most ``S``;
    * every vertex has a corner angle in ``[1e-3, pi - 1e-3]`` and every edge
      is longer than ``2c`` (a full circle has no vertex);
    * each endpoint lies more than ``c`` of boundary length from every vertex;
    * ``l >= 1e-3 S``.

    Otherwise the general test answers.  Under the guards both agree on the
    chords the flat-edge rule lets through: the general test can depart from
    the convex verdict only through its tolerances, and the guards clear each
    of them by at least 100x.

    * Clearance.  Cut the boundary at ``c`` on either side of a vertex
      ``W``.  The cuts lie on ``W``'s two edges, and ``P``, ``Q`` lie beyond
      the line through them, so the chord keeps at least
      ``h = c sin(5e-4) = 5e-7 S`` from ``W``.  By convexity each endpoint
      lies at least ``c sin(1e-3) = 1e-6 S`` from the line of a straight edge
      it is not on, and from the tangent line at the other endpoint when the
      two are on different edges.
    * ``TAU_GEOM * S`` (zero chord): ``l >= 1e-3 S`` is 1e6x above it.
    * Parallel test (``1e-12``): for an edge carrying ``P`` but not ``Q``,
      the sine between chord and edge is at least ``1e-6 S / l >= 1e-6``
      (``l <= S``), 1e6x above.
    * Collinearity test (``1e-9``): for an edge carrying no endpoint, both
      endpoints would have to lie within ``1e-9 (L_e + |P - e.start|) <=
      2e-9 S`` of its line.  They lie ``1e-6 S`` off, 500x more.
    * ``eps = 1e-9`` (segment and circle parameters) and ``excl = 1e-6 l``:
      a hit off ``[0, 1]`` on the chord lies within ``eps l`` of an endpoint,
      1000x inside ``excl``.  A hit on the chord just past the edge it
      belongs to lies within ``eps L_e`` or ``TAU_GEOM S`` of a vertex, and
      the clearance ``h`` keeps the chord 500x farther away.  A hit on the
      edge itself is an endpoint, moved by rounding: by ``~1e-16 S / 1e-6 S
      = 1e-10`` of the chord on a segment; on a circle of radius ``R <= S``
      that the chord cuts again at ``X``, by ``4.4e-16 R^2 / (l |PX|)``, with
      ``|PX| >= 2R * 1e-6 S / l`` (tangent clearance) or ``|PX| = l`` (both
      ends on the arc), so by at most ``4.4e-10``.  Either is 2000x inside
      ``excl / l``.
    * The open chord is interior, so its midpoint is inside, and the
      general test says so: its side test says only inside, and the ray
      cast's own tolerances only make it retry a ray.

    Chords shorter than ``1e-3 S`` stay with the general test, under the
    *same-arc rule*, which reads edge indices like the flat-edge rule: a
    line meets a circle in at most two points, so a chord with both ends on
    one convex (ccw) arc meets that arc only at its ends.  The general test
    skips that arc's circle roots; it still tests every other edge, then
    decides by its side test or a ray cast at the midpoint.  Of the
    segments it tests only those whose bounding box, widened by ``1e-2 S``,
    meets the chord's, when the domain's box lies within ``S`` of the
    origin (the box reject, argued there).  The roots,
    computed from ``R^2 - perp^2``, lose ``u`` to cancellation, and would
    reject genuine chords on the arc below about ``1e-5 R``.
    """
    per = domain.perimeter
    return _interior_chord_ends(domain, s0 % per, s1 % per) is not None


def _interior_chord_ends(domain: PlanarDomain, s0: float, s1: float) -> tuple[Point, Point] | None:
    """The end points ``(p, q)`` of the chord between boundary points s0,
    s1, already reduced modulo the perimeter, when :func:`chord_is_interior`
    holds, else ``None``.

    Refinement scores a cap from these ends, so it finds them once per cap,
    and this body spells out the edge lookup of
    :meth:`PlanarDomain._edge_index_reduced` and, for each end, the
    operations of :func:`_row_point` on its edge's row, which give
    ``point_at``'s floats.
    """
    cum = domain.cumlens
    n = len(cum) - 1
    if s0 == cum[n]:
        s0 = 0.0
    if s1 == cum[n]:
        s1 = 0.0
    i0 = bisect.bisect_right(cum, s0, 0, n) - 1
    i1 = bisect.bisect_right(cum, s1, 0, n) - 1
    t0 = s0 - cum[i0]
    t1 = s1 - cum[i1]
    rows = domain._point_rows
    # the edges holding both ends; an end at a vertex (t == 0) is on two
    if t0 == 0.0 or t1 == 0.0:
        on1 = (i1, (i1 - 1) % n) if t1 == 0.0 else (i1,)
        shared = [i for i in ((i0, (i0 - 1) % n) if t0 == 0.0 else (i0,)) if i in on1]
    else:
        shared = (i0,) if i0 == i1 else ()
    for i in shared:
        if not (rows[i][0] and rows[i][5]):  # a segment or a concave (cw) arc
            return None
    arc, a, b, c, d, e = rows[i0]
    if arc:
        ang = d + t0 / c if e else d - t0 / c
        p = (a + c * math.cos(ang), b + c * math.sin(ang))
    else:
        u = t0 / e
        p = (a + u * c, b + u * d)
    arc, a, b, c, d, e = rows[i1]
    if arc:
        ang = d + t1 / c if e else d - t1 / c
        q = (a + c * math.cos(ang), b + c * math.sin(ang))
    else:
        u = t1 / e
        q = (a + u * c, b + u * d)
    clear = domain._convex_clearance
    if (
        clear is not None
        and clear < t0 < domain.edge_lengths[i0] - clear
        and clear < t1 < domain.edge_lengths[i1] - clear
        and math.dist(p, q) >= _CONVEX_MIN_CHORD * domain.scale
    ):
        return p, q
    # every edge left in ``shared`` is a convex arc holding both ends
    inside = _chord_is_interior_general(domain, p, q, shared, ((i0, t0), (i1, t1)))
    return (p, q) if inside else None


def _chord_is_interior_general(
    domain: PlanarDomain,
    p: Point,
    q: Point,
    same_arcs: Iterable[int],
    cuts: tuple[tuple[int, float], tuple[int, float]],
) -> bool:
    """:func:`chord_is_interior` for the boundary points ``p``, ``q`` at
    edge index and local arclength ``cuts``, by boundary intersections and,
    unless the side test decides, a ray cast at the midpoint; any domain.

    ``same_arcs`` holds the indices of convex arcs that carry both ends; by
    the same-arc rule their circle roots are skipped.

    The edge loop comes first: a boundary point on the open chord farther
    than ``excl`` from both ends rejects it.  Once it passes, the part of
    the open chord farther than ``excl`` from both ends (the *middle*, which
    holds the midpoint) meets no boundary point, so it lies wholly inside
    or wholly outside, and any one point of it decides.  The ray cast tests
    the midpoint.  The *side test* decides **inside** in O(1) from a point
    near one end instead; it never rejects, so it can only spare a ray cast
    that would have said inside.  It decides from the end ``p`` on edge
    ``e = AB`` (``S`` = scale, ``l`` = chord length, ``c = 1e-3 S``) when:

    * the bounding box lies within ``S`` of the origin, and ``e`` is a
      segment with ``r = PlanarDomain._side_reach(i) > 0``: half the least
      distance from ``e``, trimmed by ``c`` at both ends, to every other
      edge, and at least ``1e-4 S`` (0 on the edge's first call);
    * ``p`` lies more than ``c`` of boundary from ``A`` and ``B``;
    * ``excl < r``;
    * ``q`` lies strictly left of ``e``: ``cross(B - A, q - p) > 1e-9 |e|
      l``, so the chord leaves ``p`` at an angle ``alpha`` to ``e`` with
      ``sin alpha > 1e-9``.

    It tries ``q`` the same way.  Under the guards the middle is inside:

    * ``p`` lies within ``d = 1e-15 S`` of the line ``AB``, the rounding of
      a point on ``e`` with coordinates below ``S``.  The disk ``D`` of
      radius ``2r - 2d`` about its foot ``p'`` meets no other edge, and ``e``
      crosses it as a diameter, since ``p'`` lies more than ``c - d`` from
      ``A`` and ``B`` and ``2r <= c`` (the next edge passes through ``B``,
      ``c`` from the trimmed end).  ``D`` minus that diameter is two open
      half-disks free of boundary; the domain lies left of its ccw boundary,
      so the left one is inside.
    * The chord point ``x`` at distance ``r`` from ``p`` lies
      ``r sin alpha - d >= 1e-13 S - 1e-15 S > 0`` left of ``AB`` (100x
      margin; the computed ``cross`` is off by about ``1e-15 |e| l``, 1e6x
      inside its margin), within ``r + d`` of ``p'``: in the left
      half-disk, so inside.
    * ``q`` lies on another edge (the flat-edge rule rejects both ends on
      ``e``), so ``l >= 2r - 3d``.  ``x`` lies ``r > excl`` from ``p`` and at
      least ``r - 3d`` from ``q``, more than ``excl <= 1e-6 S`` (``l <= S``):
      ``x`` is in the middle.

    So is the midpoint, which ``contains_point`` then counts as inside: it
    counts every point within ``TAU_GEOM S`` of the boundary as inside, and
    the ray cast answers for the rest (its own tolerances only make it retry
    a ray).  Its tolerance band thus plays no part.  The side test rests on
    the edge loop's verdict on the middle, as the ray cast does.  Outside
    verdicts, ends on arcs and failed guards keep the ray cast.

    On a segment ``AB`` the edge loop computes the non-parallel path of
    :func:`_seg_seg_intersections` inline, operation for operation, from the
    segment's start, ``s = B - A`` and ``L = |s|`` in its row of
    ``PlanarDomain._point_rows`` (``L`` is ``math.dist(A, B)``, which is
    ``math.hypot`` of ``s`` bit for bit), so every hit is the same float.  It
    calls the function only on its parallel path, ``|den| <= 1e-12 l L`` with
    ``den = cross(r, s)``, ``r = q - p``; arcs go through
    :func:`_segment_arc_hits`.  When the bounding box lies within ``S`` of
    the origin, the *box reject* skips a segment whose bounding box, widened
    by ``M = 1e-2 S`` (``PlanarDomain._edge_boxes``), misses the chord's
    box.  Such a segment has neither a hit nor an overlap, let alone a hit
    beyond ``excl``, so every verdict stays the same.  Write ``w = A - p``.
    All four points lie in the bounding box (``p``, ``q`` up to the rounding
    of ``point_at_local``), so ``|w|``, ``l`` and ``L`` are at most ``S``.
    Take ``r``, ``s`` and ``w`` as computed: each is within ``1.2e-16`` of
    its length of the exact difference, which moves the lines below by
    ``1e-16 S``.  A computed 2x2 cross product ``cross(x, y)`` is off by at
    most ``2.3e-16 |x| |y|``.

    * Non-parallel path.  The lines ``p + u r`` and ``A + v s`` meet at
      ``X``, at exact parameters ``u*``, ``v*``.  The numerators of ``u``
      and ``v`` are off by ``2.3e-16 |w| L`` and ``2.3e-16 |w| l``, ``den``
      by ``2.3e-16 l L``, and ``|den| > 1e-12 l L``.  So ``|u - u*| <=
      2.3e-4 (|w| / l + |u*|)`` and ``|v - v*| <= 2.3e-4 (|w| / L + |v*|)``.
      A hit has ``u``, ``v`` in ``[-eps, 1 + eps]``, so ``|u*| l <= 1.0003
      l + 2.4e-4 |w|`` and ``|u - u*| l <= 2.4e-4 (|w| + l)``; likewise
      ``|v - v*| L <= 2.4e-4 (|w| + L)``.  ``X`` thus lies within ``eps l +
      2.4e-4 (|w| + l)`` of the chord and within ``eps L + 2.4e-4 (|w| +
      L)`` of the segment, and on each axis the two boxes come within
      ``2.4e-4 (2 |w| + l + L) + 2e-9 S <= 1e-3 S`` of each other: 10x
      inside ``M``, which also absorbs ends up to ``9 S`` off the box.
    * Parallel path.  A hit or an overlap needs ``|cross(r, w)| <= 1e-9 l (L
      + |w|)``: ``A`` lies within ``2e-9 S`` of the chord's line and ``B``
      within ``1e-12 L`` more.  It also needs the two parameter ranges along
      ``r`` to meet within ``eps``, so a point of the segment lies within
      ``4e-9 S`` of the chord.
    * The widened box is rounded by about ``1e-16 S``, as its coordinates
      are at most ``1.01 S``; the chord's box is exact.

    Near the ``1e-12`` threshold a hit thus moves by a few ``1e-4 S`` per
    unit of ``|w| / S``, so ``M = 1e-3 S`` would leave no margin.  When the
    bounding box reaches farther than ``S`` from the origin the widened
    boxes are the whole plane, and every segment is intersected.
    """
    chord_len = math.dist(p, q)
    tol_abs = TAU_GEOM * domain.scale
    if chord_len <= tol_abs:
        return False
    excl = max(_CHORD_EXCL_ABS * domain.scale, _CHORD_EXCL_REL * chord_len)

    # the non-parallel path of _seg_seg_intersections(p, q, start, end),
    # operation for operation, from the edge's row (hot loop)
    p0, p1 = p
    q0, q1 = q
    r0, r1 = q0 - p0, q1 - p1
    par = 1e-12 * math.hypot(r0, r1)
    eps = _PARAM_SLACK
    top = 1.0 + eps
    lo_x, hi_x = (p0, q0) if p0 <= q0 else (q0, p0)
    lo_y, hi_y = (p1, q1) if p1 <= q1 else (q1, p1)
    edges = domain.edges
    rows = domain._point_rows
    for i, box in enumerate(domain._edge_boxes):
        if box is not None:
            x0, y0, x1, y1 = box
            if x0 > hi_x or x1 < lo_x or y0 > hi_y or y1 < lo_y:
                continue
            _arc, c0, c1, s0, s1, ls = rows[i]
            denom = r0 * s1 - r1 * s0
            if abs(denom) <= par * ls:
                # parallel, or a zero-length chord or edge
                e = edges[i]
                hits, overlap = _seg_seg_intersections(p, q, e.start, e.end)
                if overlap:
                    return False
                pts = [h[0] for h in hits]
            else:
                w0, w1 = c0 - p0, c1 - p1
                u = (w0 * s1 - w1 * s0) / denom
                v = (w0 * r1 - w1 * r0) / denom
                if not (-eps <= u <= top and -eps <= v <= top):
                    continue
                pts = [(p0 + u * r0, p1 + u * r1)]
        elif i in same_arcs:
            continue
        else:
            pts = _segment_arc_hits(p, q, edges[i], tol_abs)
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


def _left_of_own_segment(
    domain: PlanarDomain,
    cut: tuple[int, float],
    p: Point,
    q: Point,
    chord_len: float,
    excl: float,
) -> bool:
    """The side test of :func:`_chord_is_interior_general` from the end
    ``p`` at edge index and local arclength ``cut``, toward ``q``."""
    i, t = cut
    arc, _x0, _y0, dx, dy, length = domain._point_rows[i]
    c = _SIDE_CLEARANCE * domain.scale
    if arc or not c < t < length - c or not excl < domain._side_reach(i):
        return False
    cross = dx * (q[1] - p[1]) - dy * (q[0] - p[0])
    return cross > _SIDE_MARGIN * length * chord_len


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def domain_to_json(domain: PlanarDomain) -> dict:
    """JSON-serialisable description of a domain (see :func:`domain_from_json`)."""
    edges = []
    for e in domain.edges:
        if isinstance(e, Segment):
            edges.append(
                {"type": "segment", "from": list(e.start), "to": list(e.end)}
            )
        else:
            edges.append(
                {
                    "type": "arc",
                    "center": list(e.center),
                    "radius": e.radius,
                    "start_angle": e.start_angle,
                    "end_angle": e.end_angle,
                    "ccw": e.ccw,
                }
            )
    return {"edges": edges}


def domain_from_json(data: dict) -> PlanarDomain:
    """Parse the dict format produced by :func:`domain_to_json`.

    Format::

        {"edges": [{"type": "segment", "from": [x, y], "to": [x, y]},
                   {"type": "arc", "center": [x, y], "radius": r,
                    "start_angle": a0, "end_angle": a1, "ccw": true}, ...]}
    """
    if not isinstance(data, dict) or "edges" not in data:
        raise InvalidGeometryError("domain JSON must be an object with an 'edges' list")
    edges: list[Edge] = []
    for k, spec in enumerate(data["edges"]):
        try:
            kind = spec["type"]
            if kind == "segment":
                edges.append(
                    Segment(
                        (float(spec["from"][0]), float(spec["from"][1])),
                        (float(spec["to"][0]), float(spec["to"][1])),
                    )
                )
            elif kind == "arc":
                edges.append(
                    Arc(
                        (float(spec["center"][0]), float(spec["center"][1])),
                        float(spec["radius"]),
                        float(spec["start_angle"]),
                        float(spec["end_angle"]),
                        bool(spec.get("ccw", True)),
                    )
                )
            else:
                raise InvalidGeometryError(f"edge {k}: unknown type {kind!r}")
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise InvalidGeometryError(f"edge {k}: malformed entry ({exc})") from exc
    return make_domain(edges)
