"""Boundary regions (caps and strips) and disjoint k-tuples of them.

A *cap* ``Cap(a, b)`` is the piece of a domain cut off by the chord between
the boundary points at arclengths ``a`` and ``b``: its exterior boundary is
the counterclockwise boundary walk from ``a`` to ``b`` and the chord closes
it.  A *strip* is the set difference of two nested caps.

A *corner-anchored* cap ``Cap(a, b, anchor=j)`` writes its cut points as
signed arclength offsets ``a < 0 < b`` from vertex ``j`` instead.  Chains of
nested anchored regions at one corner are measured in local coordinates and
validated analytically inside their outermost cap, so their legs may span
from the edge length down to about 1e-290 of it.

For a region Ω the ratio eta(Ω) = |interior boundary| / |exterior boundary|
compares the chord length(s) inside the domain against the boundary length
shared with the ambient domain.  Tuples of mutually disjoint regions are the
competitors over which the k-th Escobar constant is minimised.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .errors import InvalidGeometryError
from .geometry import (
    TAU_GEOM,
    Arc,
    PlanarDomain,
    Segment,
    _circular_interval_overlap,
    _points_at,
    _ray_parity,
    _segment_foot,
    _sub,
    chord_is_interior,
    chords_cross,
    edge_offset_vector,
    project_to_boundary,
)


@dataclass(frozen=True)
class Cap:
    """Chord-cut piece whose exterior boundary runs ccw from ``a`` to ``b``.

    ``a`` and ``b`` are boundary arclengths, unless ``anchor`` names a vertex:
    then they are signed arclength offsets from it, ``a < 0`` back along the
    edge that ends at the vertex and ``b > 0`` along the edge that starts
    there.  Offsets keep full float64 precision however close to the vertex
    the cuts lie; absolute arclengths resolve only to about 1e-16 times the
    perimeter.
    """

    a: float
    b: float
    anchor: Optional[int] = None


@dataclass(frozen=True)
class Strip:
    """Difference of two nested caps (``inner`` strictly inside ``outer``).

    Both caps are plain, or both are anchored at the same vertex.
    """

    inner: Cap
    outer: Cap


Region = Union[Cap, Strip]


@dataclass(frozen=True)
class TupleCandidate:
    """A k-tuple of candidate regions on one domain."""

    domain: PlanarDomain
    regions: tuple[Region, ...]

    @property
    def k(self) -> int:
        return len(self.regions)


@dataclass(frozen=True)
class TupleViolation:
    """One failed disjointness/validity predicate for a tuple.

    ``first``/``second`` are region indices (equal for single-region
    problems); ``predicate`` is one of ``region-invalid``, ``arc-overlap``,
    ``chord-crossing`` (see :func:`validate_tuple` for why these suffice).
    """

    first: int
    second: int
    predicate: str
    detail: str


# ---------------------------------------------------------------------------
# Basic measurements
# ---------------------------------------------------------------------------


def _caps(region: Region) -> tuple[Cap, ...]:
    return (region,) if isinstance(region, Cap) else (region.inner, region.outer)


def _anchor_of(region: Region) -> Optional[int]:
    """The vertex all caps of the region are anchored at, else None."""
    if isinstance(region, Cap):
        return region.anchor
    j = region.outer.anchor
    return j if region.inner.anchor == j else None


def _is_plain(region: Region) -> bool:
    if isinstance(region, Cap):
        return region.anchor is None
    return region.inner.anchor is None and region.outer.anchor is None


def cap_arclengths(domain: PlanarDomain, cap: Cap) -> tuple[float, float]:
    """Boundary arclengths of the cap's two cut points, in ``[0, P]``.

    A plain cap's arclengths outside ``[0, P]`` are reduced modulo ``P``;
    the rest are returned as they are.
    """
    per = domain.perimeter
    if cap.anchor is None:
        a, b = cap.a, cap.b
        return (a if 0.0 <= a <= per else a % per), (b if 0.0 <= b <= per else b % per)
    v = domain.vertex_arclength(_vertex_index(domain, cap.anchor))
    return (v + cap.a) % per, (v + cap.b) % per


def exterior_intervals(domain: PlanarDomain, region: Region) -> list[tuple[float, float]]:
    """Arclength intervals (ccw) of the region's exterior boundary."""
    if isinstance(region, Cap):
        return [cap_arclengths(domain, region)]
    ia, ib = cap_arclengths(domain, region.inner)
    oa, ob = cap_arclengths(domain, region.outer)
    return [(oa, ia), (ib, ob)]


def interior_chords(domain: PlanarDomain, region: Region) -> list[tuple[float, float]]:
    """Arclength endpoint pairs of the region's chords."""
    return [cap_arclengths(domain, c) for c in _caps(region)]


def _vertex_index(domain: PlanarDomain, j) -> int:
    """``j`` if it is a vertex index of the domain, an int (not a bool) in
    ``[0, n)``; otherwise :class:`InvalidGeometryError` naming it."""
    n = len(domain.edges)
    if isinstance(j, bool) or not isinstance(j, int) or not 0 <= j < n:
        raise InvalidGeometryError(f"anchor {j!r} is not a vertex index (domain has {n} vertices)")
    return j


def _anchored_chord_length(domain: PlanarDomain, cap: Cap) -> float:
    """Chord of an anchored cap, from the two edge vectors out of its vertex."""
    j = _vertex_index(domain, cap.anchor)
    pa = edge_offset_vector(domain.edges[j - 1], -cap.a, from_end=True)
    pb = edge_offset_vector(domain.edges[j], cap.b)
    return math.hypot(pb[0] - pa[0], pb[1] - pa[1])


def exterior_length(domain: PlanarDomain, region: Region) -> float:
    if _anchor_of(region) is not None:
        if isinstance(region, Cap):
            return region.b - region.a
        return (region.inner.a - region.outer.a) + (region.outer.b - region.inner.b)
    per = domain.perimeter
    return sum((s1 - s0) % per for s0, s1 in exterior_intervals(domain, region))


def interior_length(domain: PlanarDomain, region: Region) -> float:
    if _anchor_of(region) is not None:
        return sum(_anchored_chord_length(domain, c) for c in _caps(region))
    return sum(
        math.dist(domain.point_at(s0), domain.point_at(s1))
        for s0, s1 in interior_chords(domain, region)
    )


def eta_partial(domain: PlanarDomain, region: Region) -> float:
    """eta(Ω) = chord length / exterior boundary length (inf if no exterior)."""
    ext = exterior_length(domain, region)
    if ext <= 0.0:
        return math.inf
    return interior_length(domain, region) / ext


def _screened_cap_etas(domain: PlanarDomain, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`eta_partial` of the plain caps ``Cap(a, b)``, elementwise over
    arrays of arclengths, for a screen.

    Every operation is the scalar one, elementwise (:func:`_points_at` for
    the points), except the chord: ``np.hypot`` where the scalar path takes
    ``math.dist``.  Both are within about 1 ulp of the true distance, so each
    value is within a few ulp of ``eta_partial``'s, relative; a caller
    re-measures exactly what its screen cannot tell apart.
    """
    per = domain.perimeter
    ext = np.remainder(b - a, per)
    p = _points_at(domain, np.remainder(a, per))
    q = _points_at(domain, np.remainder(b, per))
    chord = np.hypot(q[..., 0] - p[..., 0], q[..., 1] - p[..., 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ext <= 0.0, np.inf, chord / ext)


def max_eta(tc: TupleCandidate) -> float:
    """The tuple's figure of merit: the worst eta among its regions."""
    return max(eta_partial(tc.domain, r) for r in tc.regions)


# ---------------------------------------------------------------------------
# Membership (ray parity against the region's closed boundary curve)
# ---------------------------------------------------------------------------


def region_contains_point(domain: PlanarDomain, region: Region, p: tuple[float, float]) -> bool:
    """Point-in-region test for the closed region.

    A point within ``TAU_GEOM * scale`` of a chord or of the region's
    exterior arcs is inside, and one that close to the rest of the domain's
    boundary is outside.  Any other point is classified by :func:`_ray_parity`
    against the region's closed boundary: its exterior pieces and its chords.
    """
    tol_abs = TAU_GEOM * domain.scale
    chords = [
        Segment(domain.point_at(s0), domain.point_at(s1))
        for s0, s1 in interior_chords(domain, region)
    ]
    # on a chord?
    for c in chords:
        r = _sub(c.end, c.start)
        if r[0] * r[0] + r[1] * r[1] > 0.0 and _segment_foot(p, c.start, c.end)[1] <= tol_abs:
            return True
    # on the exterior boundary?
    pieces = exterior_intervals(domain, region)
    s, d = project_to_boundary(domain, p)
    if d <= tol_abs:
        per = domain.perimeter
        for s0, s1 in pieces:
            span = (s1 - s0) % per
            off = (s - s0) % per
            if off <= span + tol_abs or off >= per - tol_abs:
                return True
        return False

    # a piece one rounding step long (a cut point next to a vertex) may have
    # equal ends; it adds no crossing, and as an edge it would make every
    # ray degenerate (a segment) or fail to build (an arc of zero sweep)
    edges = []
    for s0, s1 in pieces:
        for i, t0, t1 in domain.boundary_pieces(s0, s1):
            e = domain.edges[i]
            if isinstance(e, Segment):
                q0, q1 = e.point_at_local(t0), e.point_at_local(t1)
                if q0 != q1:
                    edges.append(Segment(q0, q1))
            else:
                phi0, phi1 = e._angle_at(t0), e._angle_at(t1)
                if phi0 != phi1:
                    edges.append(Arc(e.center, e.radius, phi0, phi1, e.ccw))
    edges += [c for c in chords if c.start != c.end]
    return _ray_parity(edges, p, tol_abs)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def corner_admits_anchor(domain: PlanarDomain, j: int) -> bool:
    """Whether vertex ``j`` can carry corner-anchored caps.

    It must be a strictly convex corner between two straight or convex
    (counterclockwise) edges.  A cap cut off there by an interior chord is
    then a convex region, so every chord between the same two edges nested
    inside it is interior as well.
    """
    if j not in domain.convex_corners:
        return False
    return all(
        isinstance(e, Segment) or e.ccw for e in (domain.edges[j - 1], domain.edges[j])
    )


def _anchored_problems(domain: PlanarDomain, region: Region) -> list[str]:
    """The analytic checks of an anchored region: its corner and its offsets.

    Offsets must stay strictly inside the two edges at the anchor, and a
    strip's offsets must strictly increase outwards on both of them.
    """
    j = _anchor_of(region)
    if j is None:
        return ["strip caps must both be plain or share one anchor vertex"]
    try:
        _vertex_index(domain, j)
    except InvalidGeometryError as exc:
        return [str(exc)]
    if not corner_admits_anchor(domain, j):
        return [f"anchor vertex {j} is not a convex corner between straight or convex edges"]
    before, after = domain.edge_lengths[j - 1], domain.edge_lengths[j]
    problems = [
        f"anchored cut points a={c.a:.6g}, b={c.b:.6g} leave the edges at vertex {j} "
        f"(need {-before:.6g} < a < 0 < b < {after:.6g})"
        for c in _caps(region)
        if not -before < c.a < 0.0 < c.b < after
    ]
    if not problems and isinstance(region, Strip):
        inner, outer = region.inner, region.outer
        if not (outer.a < inner.a and inner.b < outer.b):
            problems.append(
                "strip caps are not strictly nested (anchored offsets: "
                f"outer.a={outer.a:.6g}, inner.a={inner.a:.6g}, "
                f"inner.b={inner.b:.6g}, outer.b={outer.b:.6g})"
            )
    return problems


def _exterior_problem(per: float, ext: float) -> Optional[str]:
    """The exterior rule of a cap with exterior length ``ext``: it must be
    longer than ``TAU_GEOM * per`` and leave more than that of the boundary."""
    tol_len = TAU_GEOM * per
    if ext <= tol_len:
        return "zero-length exterior boundary (a == b)"
    if per - ext <= tol_len:
        return "cap swallows the whole boundary"
    return None


def _cap_problems(domain: PlanarDomain, cap: Cap, label: str) -> list[str]:
    """Exterior length and interior chord of one cap, checked on the boundary."""
    per = domain.perimeter
    a, b = cap_arclengths(domain, cap)
    ext = (b - a) % per if cap.anchor is None else cap.b - cap.a
    problem = _exterior_problem(per, ext)
    if problem:
        return [f"{label}: {problem}"]
    if not chord_is_interior(domain, a, b):
        return [
            f"{label}: chord between s={a:.6g} and s={b:.6g} "
            "does not cut through the interior"
        ]
    return []


def validate_region(domain: PlanarDomain, region: Region) -> list[str]:
    """Problems with a single region (empty list = valid).

    An anchored region is checked analytically (:func:`corner_admits_anchor`,
    offsets inside the corner's edges, strictly nested) and its outer cap
    with the boundary predicates; the inner chord of an anchored strip is
    then interior by convexity.
    """
    if not _is_plain(region):
        problems = _anchored_problems(domain, region)
        if problems:
            return problems
        label = "cap" if isinstance(region, Cap) else "outer cap"
        return _cap_problems(domain, _caps(region)[-1], label)

    per = domain.perimeter
    tol_len = TAU_GEOM * per
    if isinstance(region, Cap):
        return _cap_problems(domain, region, "cap")

    problems = _cap_problems(domain, region.inner, "inner cap")
    problems += _cap_problems(domain, region.outer, "outer cap")
    if problems:
        return problems
    # nesting: outer.a < inner.a < inner.b < outer.b in ccw order from outer.a
    (ia, ib), (oa, ob) = interior_chords(domain, region)
    da = (ia - oa) % per
    db = (ib - oa) % per
    dw = (ob - oa) % per
    if not (tol_len < da < db - tol_len and db < dw - tol_len):
        problems.append(
            "strip caps are not strictly nested "
            f"(offsets from outer.a: inner.a={da:.6g}, inner.b={db:.6g}, outer.b={dw:.6g})"
        )
        return problems
    # the two chords must not cross each other
    (pa, pb), (qa, qb) = _pieces(domain, region)[1]
    msg = chords_cross(pa, pb, qa, qb, domain.scale)
    if msg:
        problems.append(f"inner and outer {msg}")
    return problems


def _chords_conflict(domain, c1, c2):
    """None if two chords, given by their end points, may coexist, otherwise
    a description string.  Identical chords and shared end points are
    allowed; :func:`chords_cross` decides the rest.

    The *chord-pair box reject* answers None first when the domain's
    bounding box lies within its scale ``S`` of the origin and the chords'
    boxes, one widened by ``1e-2 S``, do not meet.  The chords' ends are
    boundary points, so the argument of the general chord test's box reject
    holds: a hit of :func:`~escobar.geometry._seg_seg_intersections` puts
    the two boxes within ``1e-3 S`` of each other, and an overlap within
    ``4e-9 S``, so ``chords_cross`` would find neither."""
    (p1, q1), (p2, q2) = c1, c2
    m = domain._chord_box_margin
    if m is not None:
        lo_x, hi_x = (p1[0], q1[0]) if p1[0] <= q1[0] else (q1[0], p1[0])
        lo_y, hi_y = (p1[1], q1[1]) if p1[1] <= q1[1] else (q1[1], p1[1])
        lo_x -= m
        hi_x += m
        lo_y -= m
        hi_y += m
        if (
            (p2[0] < lo_x and q2[0] < lo_x) or (p2[0] > hi_x and q2[0] > hi_x)
            or (p2[1] < lo_y and q2[1] < lo_y) or (p2[1] > hi_y and q2[1] > hi_y)
        ):
            return None
    tol_abs = TAU_GEOM * domain.scale
    if (math.dist(p1, p2) <= tol_abs and math.dist(q1, q2) <= tol_abs) or (
        math.dist(p1, q2) <= tol_abs and math.dist(q1, p2) <= tol_abs
    ):
        return None
    return chords_cross(p1, q1, p2, q2, domain.scale)


def validate_tuple(tc: TupleCandidate) -> list[TupleViolation]:
    """All violated predicates for a candidate tuple.

    Adjacent regions may share boundary cut points and two regions may
    share an identical chord, as long as their interiors stay disjoint.

    Each region is checked on its own first, an anchored one on its corner
    and offsets, and anchored regions that pass are grouped by vertex.  A
    clean tuple is then certified without visiting its region pairs, and
    pairs are compared one by one only where a certificate fails:

    * two regions of one group are compared on the offsets alone (disjoint
      exterior intervals, nested chords).  One sorted sweep over all the
      group's intervals and chords (:func:`_offsets_clash`) tells whether
      any pair fails :func:`_check_same_anchor`, with its exact
      comparisons; only then are the group's pairs compared;
    * every other pair is compared by *units*: a group of two or more whose
      hull, the cap spanning all its members' offsets, passes the boundary
      predicates stands in for its members, and any other region for
      itself, equal regions sharing one unit.  One cached comparison, in
      the order ``i < j`` meets the two units, decides all their member
      pairs, and only when two units clash are their members compared one
      by one.  Where no hull stands in, each member's outer cap is checked
      with the boundary predicates instead.

    The pairs compared are listed in ``(i, j)`` order, so the violations
    are those of comparing every pair ``i < j`` in turn.

    Three predicates settle disjointness: ``region-invalid`` (each region
    valid on its own, every chord interior to M), ``arc-overlap`` and
    ``chord-crossing``.  No containment test is needed.  Take two valid
    regions i and j whose exterior arcs overlap by no positive length and
    whose chords do not cross or overlap.  A chord of j runs through the
    interior of M, so it cannot cross the exterior arcs of i, which lie on
    ∂M, and it cannot cross the chords of i either.  Away from its ends it
    therefore lies wholly inside region i or wholly outside it.  Inside
    would put its ends on the closed exterior arcs of i.  Then the exterior
    arc of j, which runs between those ends, either overlaps an arc of i by
    a positive length or fills a gap between two arcs of i exactly; in the
    second case its chord is a chord of i, shared, which is allowed.  So no
    boundary point of j lies inside i, none of i lies inside j, and each
    region, being connected, lies inside the other or outside it.  Inside
    would put the exterior arcs of one on those of the other, an overlap
    again.  Outside includes a region lying in the hole of a
    strip: the two are disjoint.  The predicates decide each of these facts
    up to ``TAU_GEOM``.  The argument holds for the three layouts:

    * a strip is bounded by its two chords and its arcs ``[oa, ia]`` and
      ``[ib, ob]``; its inner cap, the hole, is outside it;
    * regions at one anchor are compared on their offsets by
      :func:`_check_same_anchor`, where the arcs are intervals of the
      offset line and the chords join the corner's two edges;
    * an anchored group is compared through its hull, the cap from the
      least ``a`` to the greatest ``b`` of its members (on a nested chain,
      the outermost cap).  The corner cap is convex, so it holds every
      region of the group, and the argument applied to the hull makes the
      regions disjoint; when a hull clashes with another unit the regions
      are compared one by one.
    """
    domain = tc.domain
    regions = tc.regions
    n = len(regions)
    out: list[TupleViolation] = []
    bad = [False] * n

    def flag(i, problems):
        out.extend(TupleViolation(i, i, "region-invalid", p) for p in problems)
        bad[i] = bool(problems)

    anchor = [_anchor_of(r) for r in regions]
    local = {}  # offsets of each anchored region that passed its own checks
    groups: dict[int, list[int]] = {}
    for i, region in enumerate(regions):
        if anchor[i] is None:
            flag(i, validate_region(domain, region))
            continue
        flag(i, _anchored_problems(domain, region))
        if not bad[i]:
            groups.setdefault(anchor[i], []).append(i)
            local[i] = _local_pieces(region)

    unit = list(regions)  # what stands in for each region against other units
    for j, members in groups.items():
        caps = [c for i in members for c in _caps(regions[i])]
        hull = Cap(min(c.a for c in caps), max(c.b for c in caps), j)
        if len(members) > 1 and not _cap_problems(domain, hull, "anchored group hull"):
            for i in members:
                unit[i] = hull
            continue
        # no hull stands in: each region's outer cap is checked, its offsets
        # have passed
        for i in members:
            label = "cap" if isinstance(regions[i], Cap) else "outer cap"
            flag(i, _cap_problems(domain, _caps(regions[i])[-1], label))

    clashes = {}  # (i, j) -> problems, for the pairs compared one by one
    for members in groups.values():
        members = [i for i in members if not bad[i]]
        if _offsets_clash([local[i] for i in members]):
            for i, j in itertools.combinations(members, 2):
                clashes[i, j] = _check_same_anchor(local[i], local[j])

    pieces = functools.cache(functools.partial(_pieces, domain))  # chord ends found once

    @functools.cache
    def check(u, v):
        return _check_pair(domain, pieces(u), pieces(v))

    classes: dict[Region, list[int]] = {}  # the live regions of each unit
    for i in range(n):
        if not bad[i]:
            classes.setdefault(unit[i], []).append(i)
    for u, us in classes.items():
        at = anchor[us[0]]
        for v, vs in classes.items():
            # u before v as the pairs i < j meet them; the pairs at one
            # corner were decided by its sweep
            if us[0] < vs[-1] and (at is None or at != anchor[vs[0]]) and check(u, v):
                for i, j in itertools.product(us, vs):
                    if i < j:
                        clashes[i, j] = check(regions[i], regions[j])
    for i, j in sorted(clashes):
        out.extend(TupleViolation(i, j, *problem) for problem in clashes[i, j])
    return out


def _pieces(domain: PlanarDomain, region: Region):
    """Exterior intervals of the region and the end points of its chords."""
    ends = [(domain.point_at(a), domain.point_at(b)) for a, b in interior_chords(domain, region)]
    return exterior_intervals(domain, region), ends


def _check_pair(domain, pieces_i, pieces_j) -> list[tuple[str, str]]:
    """``(predicate, detail)`` of each conflict of two regions, given as
    their :func:`_pieces`: the first overlap of their exterior intervals
    (one up to ``TAU_GEOM * per`` is forgiven), then every chord conflict."""
    (ints_i, chords_i), (ints_j, chords_j) = pieces_i, pieces_j
    per = domain.perimeter
    out = []
    for (s0, s1), (u0, u1) in itertools.product(ints_i, ints_j):
        ov = _circular_interval_overlap(s0, (s1 - s0) % per, u0, (u1 - u0) % per, per)
        if ov > TAU_GEOM * per:
            out.append(("arc-overlap", f"exterior arcs overlap over length {ov:.6g}"))
            break
    for c1, c2 in itertools.product(chords_i, chords_j):
        msg = _chords_conflict(domain, c1, c2)
        if msg:
            out.append(("chord-crossing", msg))
    return out


def _local_pieces(region: Region):
    """Exterior intervals and chords of an anchored region, as offset pairs."""
    if isinstance(region, Cap):
        return [(region.a, region.b)], [(region.a, region.b)]
    inner, outer = region.inner, region.outer
    return [(outer.a, inner.a), (inner.b, outer.b)], [(inner.a, inner.b), (outer.a, outer.b)]


def _offsets_clash(group) -> bool:
    """Whether some pair of the regions at one anchor, given as their
    :func:`_local_pieces`, fails :func:`_check_same_anchor`, in one sorted
    sweep over all their pieces.

    Two intervals overlap when one starts strictly below the end of one that
    starts no later; every interval has ``hi > lo``, since the offsets
    passed :func:`_anchored_problems`.  A chord crosses an
    earlier one, of strictly smaller ``x``, when its ``y`` exceeds theirs,
    so it is compared with the least ``y`` before its batch of equal ``x``.
    The comparisons are :func:`_check_same_anchor`'s, exact.  A region's
    own pieces never clash: a strip's two intervals lie on either side of
    0, and its chords are strictly nested.
    """
    reach = -math.inf
    for lo, hi in sorted(iv for ivs, _ in group for iv in ivs):
        if lo < reach:
            return True
        reach = max(reach, hi)
    least = math.inf
    chords = sorted(c for _, cs in group for c in cs)
    for _, batch in itertools.groupby(chords, key=lambda c: c[0]):
        batch = list(batch)  # sorted by y
        if batch[-1][1] > least:
            return True
        least = min(least, batch[0][1])
    return False


def _check_same_anchor(local_i, local_j) -> list[tuple[str, str]]:
    """:func:`_check_pair` of two regions anchored at one vertex, given as
    their :func:`_local_pieces`: on offsets alone.

    Both exteriors lie on the offset line through the vertex, so they are
    compared as intervals.  Every chord joins the two edges at the vertex,
    so two chords cross exactly when their end offsets interleave.
    """
    (ints_i, chords_i), (ints_j, chords_j) = local_i, local_j
    out = []
    for (lo0, hi0), (lo1, hi1) in itertools.product(ints_i, ints_j):
        lo, hi = max(lo0, lo1), min(hi0, hi1)
        if hi > lo:
            out.append(("arc-overlap", f"exterior arcs overlap over length {hi - lo:.6g}"))
            break
    for (x1, y1), (x2, y2) in itertools.product(chords_i, chords_j):
        if (x1 < x2 and y1 < y2) or (x1 > x2 and y1 > y2):
            msg = f"chords cross (offsets ({x1:.6g}, {y1:.6g}) and ({x2:.6g}, {y2:.6g}))"
            out.append(("chord-crossing", msg))
    return out


# ---------------------------------------------------------------------------
# JSON round trip
# ---------------------------------------------------------------------------


def region_to_json(region: Region) -> dict:
    if isinstance(region, Cap):
        out = {"kind": "cap", "a": region.a, "b": region.b}
        if region.anchor is not None:
            out["anchor"] = region.anchor
        return out
    return {
        "kind": "strip",
        "inner": region_to_json(region.inner),
        "outer": region_to_json(region.outer),
    }


def region_from_json(data: dict) -> Region:
    try:
        kind = data["kind"]
        if kind == "cap":
            anchor = data.get("anchor")
            if anchor is not None and (isinstance(anchor, bool) or not isinstance(anchor, int)):
                raise InvalidGeometryError(f"cap anchor must be a vertex index, got {anchor!r}")
            a, b = float(data["a"]), float(data["b"])
            for name, value in (("a", a), ("b", b)):
                if not math.isfinite(value):
                    raise InvalidGeometryError(f"cap {name} must be finite, got {value}")
            return Cap(a, b, anchor)
        if kind == "strip":
            inner = region_from_json(data["inner"])
            outer = region_from_json(data["outer"])
            if not (isinstance(inner, Cap) and isinstance(outer, Cap)):
                raise InvalidGeometryError("strip caps must be caps")
            return Strip(inner, outer)
    except InvalidGeometryError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidGeometryError(f"malformed region JSON ({exc})") from exc
    raise InvalidGeometryError(f"unknown region kind {kind!r}")


def tuple_to_json(tc: TupleCandidate) -> dict:
    return {"regions": [region_to_json(r) for r in tc.regions]}


def tuple_from_json(domain: PlanarDomain, data: dict) -> TupleCandidate:
    if not isinstance(data, dict) or not isinstance(data.get("regions"), list):
        raise InvalidGeometryError("tuple JSON must be an object with a 'regions' list")
    regions = tuple(region_from_json(r) for r in data["regions"])
    for r in regions:
        for c in _caps(r):
            if c.anchor is not None:
                _vertex_index(domain, c.anchor)
    return TupleCandidate(domain, regions)
