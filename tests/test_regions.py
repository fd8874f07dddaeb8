"""Caps, strips, eta measurement, tuple validation, JSON round-trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escobar.errors import InvalidGeometryError
from escobar.geometry import (
    _GOLDEN_ANGLE,
    TAU_GEOM,
    _solve_quadratic,
    _sub,
    Arc,
    Segment,
    make_disk,
    make_domain,
    make_polygon,
    make_regular_polygon,
    project_to_boundary,
    scaled,
)
from escobar.regions import (
    Cap,
    Strip,
    TupleCandidate,
    corner_admits_anchor,
    eta_partial,
    exterior_intervals,
    exterior_length,
    interior_chords,
    interior_length,
    is_valid_tuple,
    max_eta,
    region_area,
    region_contains_point,
    region_from_json,
    region_to_json,
    tuple_from_json,
    tuple_to_json,
    validate_region,
    validate_tuple,
)

TWO_PI = 2.0 * math.pi

# Circular-segment area (ell - sin ell)/2 for the unit-disk cap of arc
# length ell = 2*pi/3; cross-checked during development with a 4e7-sample
# Monte Carlo rejection count (agreed to 4 digits, the closed form is exact).
SEGMENT_AREA_2PI3 = 0.6141848493043783


# ---------------------------------------------------------------------------
# eta closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ell", [0.5, 1.0, math.pi / 2, 2 * math.pi / 3, math.pi])
def test_disk_cap_eta(unit_disk, ell):
    # chord of the unit-circle arc of angle ell is 2 sin(ell/2)
    cap = Cap(0.0, ell)
    assert eta_partial(unit_disk, cap) == pytest.approx(
        2 * math.sin(ell / 2) / ell, rel=1e-14
    )
    assert exterior_length(unit_disk, cap) == pytest.approx(ell, rel=1e-14)
    assert interior_length(unit_disk, cap) == pytest.approx(
        2 * math.sin(ell / 2), rel=1e-14
    )


def test_square_corner_cap_eta(square):
    """Equal-leg corner caps have eta = sin(theta/2) regardless of leg length."""
    per = square.perimeter
    for t in (0.05, 0.2, 0.5):
        cap = Cap((per - t) % per, t)
        assert eta_partial(square, cap) == pytest.approx(
            math.sin(math.pi / 4), rel=1e-13
        )


def test_square_corner_strip_eta(square):
    per = square.perimeter
    t_in, t_out = 0.1, 0.3
    strip = Strip(Cap(per - t_in, t_in), Cap(per - t_out, t_out))
    want = math.sin(math.pi / 4) * (t_out + t_in) / (t_out - t_in)
    assert eta_partial(square, strip) == pytest.approx(want, rel=1e-12)
    assert exterior_length(square, strip) == pytest.approx(
        2 * (t_out - t_in), rel=1e-12
    )
    assert len(exterior_intervals(square, strip)) == 2
    assert len(interior_chords(square, strip)) == 2


def test_max_eta_is_max_of_parts(unit_disk):
    tc = TupleCandidate(unit_disk, (Cap(0.0, 1.0), Cap(2.0, 5.0)))
    etas = [eta_partial(unit_disk, r) for r in tc.regions]
    assert max_eta(tc) == max(etas)


# ---------------------------------------------------------------------------
# areas
# ---------------------------------------------------------------------------


def test_disk_cap_area(unit_disk):
    cap = Cap(0.0, 2 * math.pi / 3)
    assert region_area(unit_disk, cap) == pytest.approx(SEGMENT_AREA_2PI3, abs=1e-12)
    # half disk
    assert region_area(unit_disk, Cap(0.0, math.pi)) == pytest.approx(
        math.pi / 2, abs=1e-12
    )


def test_square_corner_areas(square):
    per = square.perimeter
    t = 0.3
    cap = Cap(per - t, t)
    # right-angle corner: isoceles right triangle with legs t
    assert region_area(square, cap) == pytest.approx(t * t / 2, rel=1e-12)
    strip = Strip(Cap(per - 0.1, 0.1), Cap(per - t, t))
    assert region_area(square, strip) == pytest.approx(
        (t * t - 0.1 * 0.1) / 2, rel=1e-12
    )


def test_region_contains_point(unit_disk):
    cap = Cap(0.0, math.pi)  # upper half of the boundary walk: y > 0 side
    inside = unit_disk.point_at(math.pi / 2)
    probe = (inside[0], inside[1] - 0.1)
    assert region_contains_point(unit_disk, cap, probe)
    assert not region_contains_point(unit_disk, cap, (0.0, -0.5))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_validate_region_flags_degenerate_cap(unit_disk):
    assert validate_region(unit_disk, Cap(1.0, 1.0))  # zero-length
    assert any(
        "swallows" in p for p in validate_region(unit_disk, Cap(0.0, TWO_PI - 1e-15))
    )
    assert validate_region(unit_disk, Cap(0.0, 1.0)) == []


def test_validate_region_flags_exterior_chord(lshape):
    # the chord from (2, 0.5) to (0.5, 2) cuts across the notch
    probs = validate_region(lshape, Cap(2.5, 5.5))
    assert any("does not cut through the interior" in p for p in probs)
    assert validate_region(lshape, Cap(1.0, 7.0)) == []


def test_validate_region_flags_bad_nesting(square):
    per = square.perimeter
    # both caps cut the interior on their own, but they only partially overlap
    not_nested = Strip(Cap(0.5, 2.0), Cap(1.0, 2.5))
    assert any("nested" in p for p in validate_region(square, not_nested))
    ok = Strip(Cap(per - 0.1, 0.1), Cap(per - 0.3, 0.3))
    assert validate_region(square, ok) == []


def test_validate_tuple_disjointness(unit_disk):
    clean = TupleCandidate(unit_disk, (Cap(0.0, 1.0), Cap(2.0, 3.0)))
    assert validate_tuple(clean) == []
    assert is_valid_tuple(clean)

    overlapping = TupleCandidate(unit_disk, (Cap(0.0, 2.0), Cap(1.0, 3.0)))
    preds = {v.predicate for v in validate_tuple(overlapping)}
    assert "arc-overlap" in preds
    assert not is_valid_tuple(overlapping)


def test_validate_tuple_shared_endpoint_strictness(unit_disk):
    halves = TupleCandidate(unit_disk, (Cap(0.0, math.pi), Cap(math.pi, TWO_PI)))
    # lenient: shared cut points are how the optimal splits are written
    assert is_valid_tuple(halves)
    # strict: closed exterior arcs may not even touch
    assert not is_valid_tuple(halves, strict=True)


def test_validate_tuple_reports_region_problems(unit_disk):
    tc = TupleCandidate(unit_disk, (Cap(0.0, 0.0), Cap(1.0, 2.0)))
    out = validate_tuple(tc)
    assert any(v.predicate == "region-invalid" and v.first == 0 for v in out)


def test_corner_chain_tuple_is_valid(square):
    per = square.perimeter
    cap = Cap(per - 0.05, 0.05)
    strip = Strip(Cap(per - 0.05, 0.05), Cap(per - 0.2, 0.2))
    assert validate_tuple(TupleCandidate(square, (cap, strip))) == []


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_region_json_round_trip():
    cap = Cap(0.25, 1.5)
    assert region_from_json(region_to_json(cap)) == cap
    strip = Strip(Cap(0.5, 1.0), Cap(0.25, 1.5))
    assert region_from_json(region_to_json(strip)) == strip


def test_tuple_json_round_trip(square):
    per = square.perimeter
    tc = TupleCandidate(
        square,
        (Cap(per - 0.05, 0.05), Strip(Cap(per - 0.05, 0.05), Cap(per - 0.2, 0.2))),
    )
    back = tuple_from_json(square, tuple_to_json(tc))
    assert back.regions == tc.regions
    assert max_eta(back) == max_eta(tc)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(ell=st.floats(min_value=1e-3, max_value=math.pi))
def test_disk_cap_eta_decreases_with_arc(ell):
    """sin(x)/x is strictly decreasing, so shorter caps are worse (eta closer to 1)."""
    disk = make_disk()
    small = eta_partial(disk, Cap(0.0, ell * 0.5))
    large = eta_partial(disk, Cap(0.0, ell))
    assert small >= large - 1e-12
    assert large <= 1.0


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=TWO_PI),
    ell=st.floats(min_value=1e-3, max_value=math.pi),
)
def test_disk_cap_eta_rotation_invariant(a, ell):
    disk = make_disk()
    assert eta_partial(disk, Cap(a % TWO_PI, (a + ell) % TWO_PI)) == pytest.approx(
        eta_partial(disk, Cap(0.0, ell)), rel=1e-9
    )


@settings(max_examples=30, deadline=None)
@given(t=st.floats(min_value=0.01, max_value=0.45))
def test_square_cap_area_leg_law(t):
    square = make_regular_polygon(4)
    per = square.perimeter
    assert region_area(square, Cap(per - t, t)) == pytest.approx(t * t / 2, rel=1e-10)


# ---------------------------------------------------------------------------
# corner-anchored caps and strips
# ---------------------------------------------------------------------------


def test_anchored_cap_agrees_with_arclength_cap(square):
    # vertex 0 of the square is a right angle; offsets are arclengths from it
    per = square.perimeter
    plain = Cap(per - 0.2, 0.3)
    anchored = Cap(-0.2, 0.3, anchor=0)
    assert exterior_length(square, anchored) == pytest.approx(0.5, rel=1e-15)
    assert interior_length(square, anchored) == pytest.approx(
        interior_length(square, plain), rel=1e-14
    )
    assert exterior_intervals(square, anchored) == [pytest.approx((per - 0.2, 0.3))]
    assert region_area(square, anchored) == pytest.approx(0.2 * 0.3 / 2, rel=1e-10)
    assert validate_region(square, anchored) == []


def test_anchored_chain_below_arclength_resolution(square):
    # cut points 1e-200 and 1e-100 from the vertex: as arclengths both would
    # round onto the vertex itself
    t_in, t_out = 1e-200, 1e-100
    inner, middle, outer = (Cap(-t, t, 0) for t in (t_in, t_out, 0.3))
    strip = Strip(inner, middle)
    tc = TupleCandidate(square, (inner, strip, Strip(middle, outer)))
    assert validate_tuple(tc) == []
    assert exterior_length(square, strip) == 2 * (t_out - t_in)
    want = math.sin(math.pi / 4) * (t_out + t_in) / (t_out - t_in)
    assert eta_partial(square, strip) == pytest.approx(want, rel=1e-14)
    assert eta_partial(square, inner) == pytest.approx(math.sin(math.pi / 4), rel=1e-14)
    # a chain shares its cut points, which strict mode forbids
    assert validate_tuple(tc, strict=True)


def test_anchored_strip_must_be_strictly_nested(square):
    strip = Strip(Cap(-0.2, 0.1, 0), Cap(-0.3, 0.1, 0))  # inner.b == outer.b
    out = validate_tuple(TupleCandidate(square, (strip,)))
    assert [v.predicate for v in out] == ["region-invalid"]
    assert "not strictly nested" in out[0].detail
    assert validate_region(square, strip)


def test_anchored_offset_must_stay_on_adjacent_edge(square):
    side = square.edge_lengths[0]
    strip = Strip(Cap(-0.1, 0.1, 0), Cap(-0.3, 1.01 * side, 0))
    out = validate_tuple(TupleCandidate(square, (Cap(-0.05, 0.05, 0), strip)))
    assert [(v.first, v.predicate) for v in out] == [(1, "region-invalid")]
    assert "leave the edges" in out[0].detail


def test_anchored_chains_overlapping_at_one_corner(square):
    # far below the arclength tolerance: only the offsets can tell
    first = (Cap(-1e-50, 1e-50, 0), Strip(Cap(-1e-50, 1e-50, 0), Cap(-0.2, 0.2, 0)))
    second = (Cap(-1e-60, 1e-60, 0), Strip(Cap(-1e-60, 1e-60, 0), Cap(-1e-40, 1e-40, 0)))
    out = validate_tuple(TupleCandidate(square, first + second))
    pairs = {(v.first, v.second) for v in out if v.predicate == "arc-overlap"}
    # the second chain's cap (2) sits in the hole of the first one's strip (1)
    assert pairs == {(0, 2), (0, 3), (1, 3)}


def test_anchored_chords_that_interleave_cross(square):
    # exteriors are disjoint, but the second strip's inner chord runs from
    # inside the first strip's hole to beyond its outer chord
    one = Strip(Cap(-0.1, 0.1, 0), Cap(-0.2, 0.2, 0))
    two = Strip(Cap(-0.05, 0.25, 0), Cap(-0.08, 0.3, 0))
    out = validate_tuple(TupleCandidate(square, (one, two)))
    assert out and {v.predicate for v in out} == {"chord-crossing"}


def test_anchored_chain_against_plain_cap(square):
    per = square.perimeter
    chain = (Cap(-1e-9, 1e-9, 0), Strip(Cap(-1e-9, 1e-9, 0), Cap(-0.3, 0.3, 0)))
    clash = validate_tuple(TupleCandidate(square, chain + (Cap(0.2, 2.0),)))
    assert {(v.first, v.second, v.predicate) for v in clash} >= {(1, 2, "arc-overlap")}
    opposite = Cap(per / 2 - 0.3, per / 2 + 0.3)  # around the opposite corner
    assert validate_tuple(TupleCandidate(square, chain + (opposite,))) == []


def test_anchored_group_hull_holds_members_that_are_not_nested(square):
    """The hull of a group spans its members' least ``a`` and greatest
    ``b``.  The member with the least ``a`` alone (0) is clear of the plain
    cap, but member 1 overlaps it and crosses its chord."""
    side = square.edge_lengths[0]
    tc = TupleCandidate(square, (
        Cap(-0.5 * side, 0.1 * side, 0), Cap(-0.1 * side, 0.5 * side, 0), Cap(0.3 * side, 1.2 * side),
    ))
    assert {(v.first, v.second, v.predicate) for v in validate_tuple(tc)} == {
        (0, 1, "arc-overlap"), (0, 1, "chord-crossing"),
        (1, 2, "arc-overlap"), (1, 2, "chord-crossing"),
    }


def test_anchor_needs_a_convex_corner_between_straight_or_convex_edges(lshape, half_disk):
    # vertex 3 of the L-shape is reflex
    assert "not a convex corner" in validate_region(lshape, Cap(-0.1, 0.1, 3))[0]
    assert validate_region(lshape, Cap(-0.1, 0.1, 0)) == []
    # the half-disk corners join the diameter and the (convex) semicircle
    assert validate_region(half_disk, Cap(-0.2, 0.2, 1)) == []
    assert "anchor" in validate_region(lshape, Cap(-0.1, 0.1, 6))[0]


def test_strip_caps_share_one_anchor(square):
    per = square.perimeter
    mixed = Strip(Cap(-0.1, 0.1, 0), Cap(per - 0.2, 0.2))
    assert "share one anchor" in validate_region(square, mixed)[0]


def test_anchored_json_round_trip(square):
    tc = TupleCandidate(
        square,
        (Cap(-1e-300, 2e-300, 0), Strip(Cap(-1e-300, 2e-300, 0), Cap(-0.25, 0.125, 0))),
    )
    data = json.loads(json.dumps(tuple_to_json(tc)))
    assert data["regions"][0] == {"kind": "cap", "a": -1e-300, "b": 2e-300, "anchor": 0}
    back = tuple_from_json(square, data)
    assert back.regions == tc.regions
    assert max_eta(back) == max_eta(tc)


def test_anchor_json_is_checked(square):
    with pytest.raises(InvalidGeometryError):
        region_from_json({"kind": "cap", "a": -0.1, "b": 0.1, "anchor": 1.5})
    with pytest.raises(InvalidGeometryError):
        tuple_from_json(square, {"regions": [{"kind": "cap", "a": -0.1, "b": 0.1, "anchor": 4}]})


# ---------------------------------------------------------------------------
# the retired containment check, kept as an oracle
# ---------------------------------------------------------------------------

_LSHAPE_POINTS = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]
# the star hexagon of the nonconvex benchmark workload (reflex vertex 4)
_STAR_POLAR = [(0.239, 0.968), (1.505, 1.048), (2.364, 0.822),
               (2.582, 1.251), (3.579, 0.525), (5.505, 0.872)]
_PROBE_DOMAINS = {
    "lshape": lambda: make_polygon(_LSHAPE_POINTS),
    "star": lambda: make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in _STAR_POLAR]),
    "quad": lambda: make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)]),
    "half-disk": lambda: make_domain(
        [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
    ),
    "disk": make_disk,
}


def _ray_segment_hit(p, direction, a, b):
    """Crossing count (0/1) of ray p+u*dir with segment a-b; True flags degeneracy."""
    r0, r1 = b[0] - a[0], b[1] - a[1]
    lr = math.hypot(r0, r1)
    if lr == 0.0:
        return 0, False
    dx, dy = direction
    denom = dx * r1 - dy * r0
    q0, q1 = a[0] - p[0], a[1] - p[1]
    if abs(denom) <= 1e-14 * lr:
        if abs(r0 * q1 - r1 * q0) <= 1e-12 * lr * max(math.hypot(q0, q1), 1.0):
            return 0, True
        return 0, False
    u = (q0 * r1 - q1 * r0) / denom
    v = (q0 * dy - q1 * dx) / denom
    if u <= 0.0:
        return 0, False
    if v < -1e-9 or v > 1.0 + 1e-9:
        return 0, False
    if v < 1e-9 or v > 1.0 - 1e-9:
        return 0, True
    return 1, False


def _curve_parity_once(domain, pieces, segments, p, direction, tol_abs):
    """Parity of ray crossings with the closed curve, or None if degenerate."""
    count = 0
    for s0, s1 in pieces:
        for i, t0, t1 in domain.boundary_pieces(s0, s1):
            edge = domain.edges[i]
            if isinstance(edge, Segment):
                c, degen = _ray_segment_hit(
                    p, direction, edge.point_at_local(t0), edge.point_at_local(t1)
                )
                if degen:
                    return None
                count += c
            else:
                f = _sub(p, edge.center)
                roots = _solve_quadratic(
                    1.0, 2.0 * (direction[0] * f[0] + direction[1] * f[1]),
                    f[0] * f[0] + f[1] * f[1] - edge.radius * edge.radius,
                )
                eps_t = max(tol_abs, 1e-9 * edge.radius)
                for u in roots:
                    if u <= tol_abs:
                        if abs(u) <= tol_abs:
                            return None
                        continue
                    hit = (p[0] + u * direction[0], p[1] + u * direction[1])
                    phi = edge.angle_of_point(hit)
                    if edge.ccw:
                        t = ((phi - edge.start_angle) % TWO_PI) * edge.radius
                    else:
                        t = ((edge.start_angle - phi) % TWO_PI) * edge.radius
                    if t0 - eps_t <= t <= t1 + eps_t:
                        if t < t0 + eps_t or t > t1 - eps_t:
                            return None
                        count += 1
                    elif min(abs(t - t0), abs(t - t1)) <= eps_t:
                        return None
    for a, b in segments:
        c, degen = _ray_segment_hit(p, direction, a, b)
        if degen:
            return None
        count += c
    return count % 2 == 1


def _chord_segments(domain, region):
    return [(domain.point_at(s0), domain.point_at(s1))
            for s0, s1 in interior_chords(domain, region)]


def _segment_distance(p, a, b):
    """Distance from ``p`` to the segment ``a``-``b``; inf when it has no length."""
    r = (b[0] - a[0], b[1] - a[1])
    ll = r[0] * r[0] + r[1] * r[1]
    if ll <= 0.0:
        return math.inf
    u = min(max(((p[0] - a[0]) * r[0] + (p[1] - a[1]) * r[1]) / ll, 0.0), 1.0)
    return math.dist(p, (a[0] + u * r[0], a[1] + u * r[1]))


def _reference_region_contains_point(domain, region, p, *, tol=TAU_GEOM):
    """``region_contains_point`` as it was with its own ray-parity loop,
    which walked the region's boundary pieces instead of building edges."""
    tol_abs = tol * domain.scale
    pieces = exterior_intervals(domain, region)
    segments = _chord_segments(domain, region)
    if any(_segment_distance(p, a, b) <= tol_abs for a, b in segments):
        return True
    s, d = project_to_boundary(domain, p)
    if d <= tol_abs:
        per = domain.perimeter
        for s0, s1 in pieces:
            span = (s1 - s0) % per
            off = (s - s0) % per
            if off <= span + tol_abs or off >= per - tol_abs:
                return True
        return False
    for attempt in range(32):
        ang = 0.7391 + _GOLDEN_ANGLE * attempt
        direction = (math.cos(ang), math.sin(ang))
        parity = _curve_parity_once(domain, pieces, segments, p, direction, tol_abs)
        if parity is not None:
            return parity
    raise InvalidGeometryError(f"could not classify point {p} against region boundary")


def _reference_containment(domain, ri, rj, tol=TAU_GEOM):
    """The containment check ``validate_tuple`` ran on each pair before the
    proof in its docstring retired it: a point inside the middle of each
    region's first exterior interval, if it lies in its own region, must not
    lie in the other one.  True when it fires.

    The retired check probed ``1e-7 * scale`` inside, and misfired on a
    region thinner than that at its probe: the point then lay within the
    membership tolerance of a chord, which counts as inside, and a chord
    shared with the other region put it inside both.  Here the probe stays
    within half the distance to the region's own chords, and a region whose
    chords come within twice the tolerance of the probe's boundary point is
    not probed."""
    tol_abs = tol * domain.scale
    for ra, rb in ((ri, rj), (rj, ri)):
        s0, s1 = exterior_intervals(domain, ra)[0]
        mid = (s0 + ((s1 - s0) % domain.perimeter) / 2.0) % domain.perimeter
        t = domain.tangent_after(mid)
        pm = domain.point_at(mid)
        clear = min(_segment_distance(pm, a, b) for a, b in _chord_segments(domain, ra))
        delta = min(1e-7 * domain.scale, 0.5 * clear)
        if delta <= tol_abs:
            continue
        rep = (pm[0] - delta * t[1], pm[1] + delta * t[0])
        try:
            if (_reference_region_contains_point(domain, ra, rep, tol=tol)
                    and _reference_region_contains_point(domain, rb, rep, tol=tol)):
                return True
        except InvalidGeometryError:
            continue
    return False


def _random_region(domain, rng, anchors):
    """A plain cap, plain strip, anchored cap or anchored strip; random
    sizes, so many tuples overlap, cross or leave the interior."""
    per = domain.perimeter
    kind = rng.choice(["cap", "cap", "strip", "anchored"] if anchors else ["cap", "strip"])
    if kind == "anchored":
        j = int(rng.choice(anchors))
        before, after = domain.edge_lengths[j - 1], domain.edge_lengths[j]
        a, b = -before * rng.uniform(0.02, 1.05), after * rng.uniform(0.02, 1.05)
        if rng.random() < 0.5:
            return Cap(a, b, j)
        f = rng.uniform(0.1, 0.9)
        return Strip(Cap(f * a, f * b, j), Cap(a, b, j))
    a = rng.uniform(0.0, per)
    length = per * (rng.uniform(0.01, 0.5) if rng.random() < 0.8 else rng.uniform(1e-6, 1e-3))
    if kind == "cap":
        return Cap(a, (a + length) % per)
    u0, u1 = sorted(rng.uniform(0.05, 0.95, 2))
    return Strip(Cap((a + u0 * length) % per, (a + u1 * length) % per), Cap(a, (a + length) % per))


def _random_chain(domain, rng, j):
    """Two or three nested regions anchored at corner ``j`` (a cap and strips)."""
    before, after = domain.edge_lengths[j - 1], domain.edge_lengths[j]
    legs = sorted(rng.uniform(0.05, 0.6, int(rng.integers(2, 4))))
    caps = [Cap(-before * t, after * t, j) for t in legs]
    return [caps[0]] + [Strip(inner, outer) for inner, outer in zip(caps, caps[1:])]


def _random_tuples(domain, seed, count):
    rng = np.random.default_rng(seed)
    anchors = [j for j in range(len(domain.edges)) if corner_admits_anchor(domain, j)]
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 5))
        regs = []
        if anchors and rng.random() < 0.4:
            regs += _random_chain(domain, rng, int(rng.choice(anchors)))
        while len(regs) < k:
            regs.append(_random_region(domain, rng, anchors))
        order = rng.permutation(len(regs))
        out.append(TupleCandidate(domain, tuple(regs[i] for i in order)))
    return out


def _overlapping_pairs(domain):
    """Pairs of regions whose bulk overlaps: a cap with itself, with a cap
    nested in it, with a larger cap around it, and a strip with its outer cap."""
    per = domain.perimeter
    out = []
    for f in (0.0, 0.13, 0.37, 0.71):
        a = f * per
        big = Cap(a, (a + 0.4 * per) % per)
        small = Cap((a + 0.1 * per) % per, (a + 0.2 * per) % per)
        strip = Strip(small, big)
        out += [(big, big), (big, small), (small, big), (strip, big), (big, strip)]
    return [TupleCandidate(domain, pair) for pair in out]


def _oracle_fires_alone(tc, strict):
    """Pairs of valid regions on which the retired containment check fires
    while ``validate_tuple`` reports neither an arc overlap nor a chord
    crossing, and the number of pairs it fired on."""
    domain = tc.domain
    caught = {
        (v.first, v.second) for v in validate_tuple(tc, strict=strict)
        if v.predicate in ("arc-overlap", "chord-crossing")
    }
    valid = [not validate_region(domain, r) for r in tc.regions]
    alone, fired = [], 0
    for i in range(tc.k):
        for j in range(i + 1, tc.k):
            if valid[i] and valid[j] and _reference_containment(domain, tc.regions[i], tc.regions[j]):
                fired += 1
                if (i, j) not in caught:
                    alone.append((i, j))
    return alone, fired


@pytest.mark.parametrize("name", sorted(_PROBE_DOMAINS))
def test_retired_containment_check_fires_only_with_another_predicate(name):
    """Whenever the old containment check fires on two valid regions,
    validate_tuple reports an arc overlap or a chord crossing on that pair:
    caps, strips and anchored chains, lenient and strict.  The overlapping
    pairs make sure the oracle does fire."""
    domain = _PROBE_DOMAINS[name]()
    fired = 0
    for tc in _random_tuples(domain, 20261018, 150) + _overlapping_pairs(domain):
        for strict in (False, True):
            alone, n = _oracle_fires_alone(tc, strict)
            assert alone == [], (tc.regions, strict)
            fired += n
    assert fired >= 10


_CLEAN_DOMAINS = ("lshape", "star", "quad")


@st.composite
def _cap_tuples(draw):
    """k = 2..4 caps in ccw order around the boundary, each at least 1e-4
    of the perimeter long.  Either each cap straddles its own vertex, with
    legs up to half of the two edges there (so neighbours may share a cut
    point), or caps and gaps are drawn along the whole boundary, gaps of
    zero included (shared cut points, or the identical chord of two
    complementary caps).  Nonconvex domains still yield crossing and
    non-interior chords."""
    name = draw(st.sampled_from(_CLEAN_DOMAINS))
    domain = _PROBE_DOMAINS[name]()
    per = domain.perimeter
    n = len(domain.edges)
    k = draw(st.integers(2, min(4, n)))
    leg = st.floats(min_value=1e-4, max_value=0.5)
    if draw(st.booleans()):
        corners = sorted(draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k,
                                       unique=True)))
        out = []
        for j in corners:
            v = domain.vertex_arclength(j)
            a = v - draw(leg) * domain.edge_lengths[j - 1]
            b = v + draw(leg) * domain.edge_lengths[j]
            out.append(Cap(a % per, b % per))
        return TupleCandidate(domain, tuple(out)), draw(st.booleans())
    caps = [draw(st.floats(min_value=1e-4, max_value=0.3)) for _ in range(k)]
    gaps = [draw(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0)))
            for _ in range(k)]
    total = sum(caps) + sum(gaps)
    s = draw(st.floats(min_value=0.0, max_value=1.0)) * per
    out = []
    for length, gap in zip(caps, gaps):
        a = s
        s += length / total * per
        out.append(Cap(a % per, s % per))
        s += gap / total * per
    return TupleCandidate(domain, tuple(out)), draw(st.booleans())


# a sliver cap along the star's edge 5 and its complement: at the old probe
# offset the probe point lay within the membership tolerance of both chords
_STAR_SLIVER = TupleCandidate(_PROBE_DOMAINS["star"](), (
    Cap(5.607687783517473e-07, 4.984611923895421),
    Cap(4.984611923895421, 5.607687771913561e-07),
))


@settings(max_examples=500, deadline=None)
@given(case=_cap_tuples())
@example(case=(_STAR_SLIVER, False))
def test_retired_containment_check_fires_only_with_another_predicate_on_cap_tuples(case):
    """The same oracle on cap tuples laid out around the boundary."""
    tc, strict = case
    assert _oracle_fires_alone(tc, strict)[0] == [], tc.regions


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_corner_cap_as_small_as_the_old_probe_offset_and_its_complement_are_valid(
    lshape, factor
):
    """A cap around the corner (0, 0) with legs ``t`` and its complement
    share one chord, which lenient mode allows, and their interiors are
    disjoint.  The retired containment check rejected the pair at
    ``t = 1e-7 * scale``, its probe offset, where the small cap's probe
    point came within the membership tolerance of the shared chord."""
    per = lshape.perimeter
    t = factor * 1e-7 * lshape.scale
    tc = TupleCandidate(lshape, (Cap(per - t, t), Cap(t, per - t)))
    assert validate_tuple(tc) == []


# ---------------------------------------------------------------------------
# membership against the self-contained reference
# ---------------------------------------------------------------------------


def _membership(fn, domain, region, p):
    try:
        return fn(domain, region, p)
    except InvalidGeometryError:
        return InvalidGeometryError


@pytest.mark.parametrize("factor", [1.0, 1e-6, 1e6])
@pytest.mark.parametrize("name", sorted(_PROBE_DOMAINS))
def test_region_contains_point_matches_reference(name, factor):
    """The ray-parity kernel shared with ``contains_point`` gives the verdict
    of the region's own parity loop: random points in the bounding box,
    every valid region of random tuples, domains scaled by 1e-6 and 1e6."""
    domain = _PROBE_DOMAINS[name]()
    if factor != 1.0:
        domain = scaled(domain, factor)
    rng = np.random.default_rng(7)
    x0, y0, x1, y1 = domain.bbox
    inside = 0
    for tc in _random_tuples(domain, 20261018, 40):
        for region in tc.regions:
            if validate_region(domain, region):
                continue
            for x, y in zip(rng.uniform(x0, x1, 10), rng.uniform(y0, y1, 10)):
                p = (float(x), float(y))
                got = _membership(region_contains_point, domain, region, p)
                assert got == _membership(_reference_region_contains_point, domain, region, p), (
                    region, p,
                )
                inside += got is True
    assert inside > 0


def test_region_contains_point_skips_a_boundary_piece_with_equal_ends():
    """A cap cut one ulp before the end of an arc starts with an arc piece
    whose two end angles round to the same float; it adds no crossing."""
    arc = Arc((0.0, 0.0), 4.0, 3.0, 3.5)
    domain = make_domain([arc, Segment(arc.end, arc.start)])
    cap = Cap(math.nextafter(2.0, 0.0), 0.5)
    i, t0, t1 = domain.boundary_pieces(cap.a, cap.b)[0]
    assert domain.edges[i]._angle_at(t0) == domain.edges[i]._angle_at(t1)
    assert validate_region(domain, cap) == []
    for p, inside in [((-3.95, 0.0), True), ((-3.95, 0.3), True),
                      ((-3.96, -0.3), False), ((-3.5, 0.5), False)]:
        assert region_contains_point(domain, cap, p) is inside
        assert _reference_region_contains_point(domain, cap, p) is inside
