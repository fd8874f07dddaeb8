"""Caps, strips, eta measurement, tuple validation, JSON round-trips."""

import functools
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escobar import regions as regions_module
from escobar.errors import InvalidGeometryError
from escobar.geometry import (
    _GOLDEN_ANGLE,
    TAU_GEOM,
    _circular_interval_overlap,
    _solve_quadratic,
    _sub,
    Arc,
    Segment,
    make_disk,
    make_domain,
    make_polygon,
    project_to_boundary,
    scaled,
)
from escobar.regions import (
    Cap,
    Strip,
    TupleCandidate,
    TupleViolation,
    _anchor_of,
    _anchored_problems,
    _cap_problems,
    _caps,
    _chords_conflict,
    _check_same_anchor,
    _local_pieces,
    _offsets_clash,
    _pieces,
    cap_arclengths,
    corner_admits_anchor,
    eta_partial,
    exterior_intervals,
    exterior_length,
    interior_chords,
    interior_length,
    max_eta,
    region_contains_point,
    region_from_json,
    region_to_json,
    tuple_from_json,
    tuple_to_json,
    validate_region,
    validate_tuple,
)
from escobar.search import corner_family_bound

TWO_PI = 2.0 * math.pi

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
# membership
# ---------------------------------------------------------------------------


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

    overlapping = TupleCandidate(unit_disk, (Cap(0.0, 2.0), Cap(1.0, 3.0)))
    preds = {v.predicate for v in validate_tuple(overlapping)}
    assert "arc-overlap" in preds


def test_validate_tuple_allows_shared_endpoints(unit_disk):
    halves = TupleCandidate(unit_disk, (Cap(0.0, math.pi), Cap(math.pi, TWO_PI)))
    # shared cut points are how the optimal splits are written
    assert validate_tuple(halves) == []


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
    with pytest.raises(InvalidGeometryError, match=r"^anchor 4 is not a vertex index"):
        tuple_from_json(square, {"regions": [{"kind": "cap", "a": -0.1, "b": 0.1, "anchor": 4}]})


@pytest.mark.parametrize("anchor", [-1, True, 7, -5, 2**70, 1.0])
def test_measurement_refuses_an_anchor_that_validation_refuses(square, anchor):
    # eta_partial gave vertex 3's value for -1 and vertex 1's for True,
    # cap_arclengths reduced 7 modulo 4, and the rest raised IndexError or
    # TypeError
    message = f"anchor {anchor!r} is not a vertex index (domain has 4 vertices)"
    cap = Cap(-0.1, 0.1, anchor)
    for measure in (cap_arclengths, eta_partial, interior_length):
        with pytest.raises(InvalidGeometryError) as exc:
            measure(square, cap)
        assert str(exc.value) == message
    assert validate_tuple(TupleCandidate(square, (cap,))) == [
        TupleViolation(0, 0, "region-invalid", message)
    ]


@pytest.mark.parametrize("regions", [5, None, "cap", {"kind": "cap"}])
def test_tuple_json_regions_must_be_a_list(square, regions):
    # 5 and None raised TypeError from the generator
    with pytest.raises(
        InvalidGeometryError, match=r"^tuple JSON must be an object with a 'regions' list$"
    ):
        tuple_from_json(square, {"regions": regions})


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


def _tangent_after(domain, s):
    """Unit tangent of the boundary just after arclength ``s``."""
    i, t = domain.edge_index_at(s)
    return domain.edges[i].tangent_at_local(t)


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
        t = _tangent_after(domain, mid)
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


def _oracle_fires_alone(tc):
    """Pairs of valid regions on which the retired containment check fires
    while ``validate_tuple`` reports neither an arc overlap nor a chord
    crossing, and the number of pairs it fired on."""
    domain = tc.domain
    caught = {
        (v.first, v.second) for v in validate_tuple(tc)
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
    caps, strips and anchored chains.  The overlapping
    pairs make sure the oracle does fire."""
    domain = _PROBE_DOMAINS[name]()
    fired = 0
    for tc in _random_tuples(domain, 20261018, 150) + _overlapping_pairs(domain):
        alone, n = _oracle_fires_alone(tc)
        assert alone == [], tc.regions
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
        return TupleCandidate(domain, tuple(out))
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
    return TupleCandidate(domain, tuple(out))


# a sliver cap along the star's edge 5 and its complement: at the old probe
# offset the probe point lay within the membership tolerance of both chords
_STAR_SLIVER = TupleCandidate(_PROBE_DOMAINS["star"](), (
    Cap(5.607687783517473e-07, 4.984611923895421),
    Cap(4.984611923895421, 5.607687771913561e-07),
))


@settings(max_examples=500, deadline=None)
@given(case=_cap_tuples())
@example(case=_STAR_SLIVER)
def test_retired_containment_check_fires_only_with_another_predicate_on_cap_tuples(case):
    """The same oracle on cap tuples laid out around the boundary."""
    assert _oracle_fires_alone(case)[0] == [], case.regions


@pytest.mark.parametrize("factor", [0.5, 1.0, 2.0])
def test_corner_cap_as_small_as_the_old_probe_offset_and_its_complement_are_valid(
    lshape, factor
):
    """A cap around the corner (0, 0) with legs ``t`` and its complement
    share one chord, which validate_tuple allows, and their interiors are
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


# ---------------------------------------------------------------------------
# the retired pair loop of validate_tuple, kept as the reference
# ---------------------------------------------------------------------------


def _retired_validate_tuple(tc):
    """``validate_tuple`` as it was before it compared units: a hand-kept
    memo of hull pairs keyed by ``("vertex", j)`` and ``("region", i)``,
    offsets read again for every pair at one corner, and each member of a
    group with a failed hull validated again in full."""
    domain = tc.domain
    regions = tc.regions
    n = len(regions)
    out = []

    bad = [False] * n
    groups = {}
    for i, region in enumerate(regions):
        if _anchor_of(region) is not None:
            probs = _anchored_problems(domain, region)
            if not probs:
                groups.setdefault(_anchor_of(region), []).append(i)
        else:
            probs = validate_region(domain, region)
        bad[i] = bool(probs)
        for pr in probs:
            out.append(TupleViolation(i, i, "region-invalid", pr))

    hulls = {}
    for j, members in groups.items():
        caps = [c for i in members for c in _caps(regions[i])]
        hull = Cap(min(c.a for c in caps), max(c.b for c in caps), j)
        if not _cap_problems(domain, hull, "anchored group hull"):
            hulls[j] = hull
            continue
        for i in members:
            probs = validate_region(domain, regions[i])
            bad[i] = bool(probs)
            for pr in probs:
                out.append(TupleViolation(i, i, "region-invalid", pr))

    anchor = [_anchor_of(r) if not bad[i] else None for i, r in enumerate(regions)]

    def hull_of(i):
        j = anchor[i]
        if j in hulls and len(groups[j]) > 1:
            return ("vertex", j), hulls[j]
        return ("region", i), regions[i]

    pieces = functools.cache(functools.partial(_pieces, domain))
    hulls_clear = {}
    for i in range(n):
        if bad[i]:
            continue
        for j in range(i + 1, n):
            if bad[j]:
                continue
            if anchor[i] is not None and anchor[i] == anchor[j]:
                _retired_check_same_anchor(regions[i], regions[j], i, j, out)
                continue
            (key_i, hull_i), (key_j, hull_j) = hull_of(i), hull_of(j)
            if hulls and (key_i[0] == "vertex" or key_j[0] == "vertex"):
                key = (key_i, key_j)
                if key not in hulls_clear:
                    probe = []
                    _retired_check_pair(domain, i, j, probe, pieces(hull_i), pieces(hull_j))
                    hulls_clear[key] = not probe
                if hulls_clear[key]:
                    continue
            _retired_check_pair(domain, i, j, out, pieces(regions[i]), pieces(regions[j]))
    return out


def _retired_check_pair(domain, i, j, out, pieces_i, pieces_j):
    ints_i, chords_i = pieces_i
    ints_j, chords_j = pieces_j
    msg = _retired_arcs_clash(domain.perimeter, ints_i, ints_j)
    if msg:
        out.append(TupleViolation(i, j, "arc-overlap", msg))
    for c1 in chords_i:
        for c2 in chords_j:
            msg = _chords_conflict(domain, c1, c2)
            if msg:
                out.append(TupleViolation(i, j, "chord-crossing", msg))


def _retired_arcs_clash(per, ints_i, ints_j):
    tol_len = TAU_GEOM * per
    for s0, s1 in ints_i:
        l0 = (s1 - s0) % per
        for u0, u1 in ints_j:
            ov = _circular_interval_overlap(s0, l0, u0, (u1 - u0) % per, per)
            if ov > tol_len:
                return f"exterior arcs overlap over length {ov:.6g}"
    return None


def _retired_check_same_anchor(ri, rj, i, j, out):
    ints_i, chords_i = _local_pieces(ri)
    ints_j, chords_j = _local_pieces(rj)
    for lo0, hi0 in ints_i:
        hit = None
        for lo1, hi1 in ints_j:
            lo, hi = max(lo0, lo1), min(hi0, hi1)
            if hi > lo:
                hit = f"exterior arcs overlap over length {hi - lo:.6g}"
                break
        if hit:
            out.append(TupleViolation(i, j, "arc-overlap", hit))
            break
    for x1, y1 in chords_i:
        for x2, y2 in chords_j:
            if (x1 < x2 and y1 < y2) or (x1 > x2 and y1 > y2):
                msg = f"chords cross (offsets ({x1:.6g}, {y1:.6g}) and ({x2:.6g}, {y2:.6g}))"
                out.append(TupleViolation(i, j, "chord-crossing", msg))


# an arrowhead: the chord of a cap at corner 0 with both legs beyond 2
# passes outside, beyond the reflex vertex (1, 1), so group hulls there fail
_ARROW = [(0.0, 0.0), (4.0, 0.0), (1.0, 1.0), (0.0, 4.0)]
_UNIT_DOMAINS = {
    "square": lambda: make_polygon([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
    "arrow": lambda: make_polygon(_ARROW),
    "lshape": lambda: make_polygon(_LSHAPE_POINTS),
    "half-disk": _PROBE_DOMAINS["half-disk"],
}


#: leg fractions that often tie, so intervals touch and chords share an
#: end offset
_TIED_LEGS = (0.1, 0.2, 0.3, 0.5)


@st.composite
def _unit_tuples(draw):
    """Chains anchored at one corner or at several (up to 40 deep, nested or
    not, legs up to 1.1 of the edges and often tied, at any vertex, so some
    hulls fail, some regions are invalid on their own, intervals touch and
    chords share an end offset), a second cap at a chain's anchor, plain
    caps and plain strips (some of zero length or with chords outside), a
    plain cap across a chain's vertex, duplicates, and now and then a strip
    with one anchored and one plain cap or an anchor that is no vertex;
    shuffled."""
    domain = _UNIT_DOMAINS[draw(st.sampled_from(sorted(_UNIT_DOMAINS)))]()
    per = domain.perimeter
    n = len(domain.edges)
    frac = st.floats(min_value=0.01, max_value=1.1)
    leg = st.one_of(frac, st.sampled_from(_TIED_LEGS))
    regions = []
    for _ in range(draw(st.integers(0, 3))):
        j = draw(st.integers(0, n - 1))
        before, after = domain.edge_lengths[j - 1], domain.edge_lengths[j]
        legs = draw(st.lists(st.tuples(leg, leg), min_size=1, max_size=40))
        if draw(st.booleans()):  # nested
            legs = list(zip(sorted(u for u, _ in legs), sorted(v for _, v in legs)))
        caps = [Cap(-u * before, v * after, j) for u, v in legs]
        regions += [caps[0]] + [Strip(inner, outer) for inner, outer in zip(caps, caps[1:])]
        u, v = draw(st.tuples(leg, leg))
        if draw(st.integers(0, 3)) == 0:  # a second cap at this anchor
            regions.append(Cap(-u * before, v * after, j))
        if draw(st.integers(0, 3)) == 0:  # a plain cap across this vertex
            s = domain.vertex_arclength(j)
            regions.append(Cap((s - u * before) % per, s + v * after))
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.floats(min_value=0.0, max_value=1.0)) * per
        length = draw(st.floats(min_value=0.0, max_value=0.7)) * per
        outer = Cap(a, (a + length) % per)
        if draw(st.booleans()):
            regions.append(outer)
            continue
        u0, u1 = sorted(draw(st.tuples(frac, frac)))
        regions.append(Strip(Cap((a + u0 * length) % per, (a + u1 * length) % per), outer))
    if regions and draw(st.integers(0, 3)) == 0:
        regions += draw(st.lists(st.sampled_from(regions), min_size=1, max_size=3))
    if draw(st.integers(0, 9)) == 0:
        regions.append(Strip(Cap(-0.1, 0.1, 0), Cap(per - 0.2, 0.2)))
    if draw(st.integers(0, 9)) == 0:
        regions.append(Cap(-0.1, 0.1, n))
    return TupleCandidate(domain, tuple(draw(st.permutations(regions))))


def _chain(j, legs):
    caps = [Cap(-t, t, j) for t in legs]
    return (caps[0],) + tuple(Strip(inner, outer) for inner, outer in zip(caps, caps[1:]))


_SQUARE = _UNIT_DOMAINS["square"]()
_DEEP_LEGS = [0.012 * m for m in range(1, 41)]

# the hull of the chain at the arrow's corner 0 fails, its outer cap too;
# the square's hulls at corners 0 and 1 overlap on edge 0, their inner caps
# do not
_HULL_FAILS = TupleCandidate(
    _UNIT_DOMAINS["arrow"](), _chain(0, [0.8, 2.8]) + (Cap(9.5, 11.0),) + _chain(1, [0.5])
)
_HULLS_CLASH = TupleCandidate(
    _SQUARE, _chain(0, [0.2, 0.6]) + _chain(1, [0.3, 0.5]) + (Cap(2.5, 3.5),)
)
# 40-deep chains at three corners, clean
_DEEP_CHAINS = TupleCandidate(
    _SQUARE, _chain(0, _DEEP_LEGS) + _chain(1, _DEEP_LEGS[:10]) + _chain(3, _DEEP_LEGS)
)
# intervals that touch, and chords with equal x or equal y, all clean, but
# for the fourth region, whose chords interleave with the third's
_TIES = TupleCandidate(
    _SQUARE,
    (
        Cap(-0.2, 0.2, 0),
        Strip(Cap(-0.2, 0.3, 0), Cap(-0.4, 0.4, 0)),
        Strip(Cap(-0.5, 0.4, 0), Cap(-0.6, 0.6, 0)),
        Strip(Cap(-0.4, 0.6, 0), Cap(-0.7, 0.7, 0)),
        Cap(-0.2, 0.2, 2),
        Strip(Cap(-0.3, 0.2, 2), Cap(-0.4, 0.4, 2)),
    ),
)
# a plain cap, an anchored cap and a plain strip, each given twice
_DUPLICATES = TupleCandidate(
    _SQUARE,
    (Cap(0.7, 1.3), Cap(-0.2, 0.2, 0), Cap(0.7, 1.3), Cap(-0.2, 0.2, 0))
    + 2 * (Strip(Cap(2.9, 3.1), Cap(2.8, 3.2)),),
)
# a second cap at a chain's corner, inside its innermost cap
_SECOND_CAP = TupleCandidate(_SQUARE, _chain(0, [0.2, 0.4]) + (Cap(-0.1, 0.1, 0),))
# a plain strip in the gap of a chain clashes with its hull but with no
# member; a plain cap across the vertex clashes with the members
_PLAIN_IN_THE_HULL = TupleCandidate(
    _SQUARE,
    (Cap(-0.1, 0.1, 0), Strip(Cap(-0.3, 0.3, 0), Cap(-0.4, 0.4, 0)), Cap(2.5, 3.5))
    + (Strip(Cap(3.85, 0.15), Cap(3.75, 0.25)), Cap(3.95, 0.05)),
)

# chords_cross need not agree with itself when the chords are swapped: the
# chords of these two caps meet at the touch radius from A's end at s = 0.6,
# 3e-14 inside it as computed in the order (A, B), a touch, and 3e-14 outside
# it in the order (B, A), a crossing; with A given twice, the pair (0, 1)
# meets them as (A, B) and the pair (1, 2) as (B, A)
_A, _B = Cap(0.6, 3.3), Cap(3.3009999999999997, 0.6000000008576633)
_ASYMMETRIC = TupleCandidate(_SQUARE, (_A, _B, _A))
# intervals that only touch; the chords at x = -0.3 and at x = -0.1 each
# cross an earlier one, but not the least y of their batch
_HIDDEN_IN_A_BATCH = (
    Strip(Cap(-0.3, 0.1, 0), Cap(-0.4, 0.3, 0)),
    Strip(Cap(-0.1, 0.4, 0), Cap(-0.3, 0.6, 0)),
    Cap(-0.1, 0.1, 0),
)


@settings(max_examples=600, deadline=None)
@given(tc=_unit_tuples())
@example(tc=_HULL_FAILS)
@example(tc=_HULLS_CLASH)
@example(tc=_DEEP_CHAINS)
@example(tc=_TIES)
@example(tc=_DUPLICATES)
@example(tc=_SECOND_CAP)
@example(tc=_PLAIN_IN_THE_HULL)
@example(tc=_ASYMMETRIC)
@example(tc=TupleCandidate(_SQUARE, _HIDDEN_IN_A_BATCH))
def test_validate_tuple_matches_the_retired_pair_loop(tc):
    """Comparing units gives the violations of the retired pair loop: the
    same list, in the same order, with the same details."""
    assert validate_tuple(tc) == _retired_validate_tuple(tc)


def _relabelled(violations, order):
    """The pairs and predicates of the violations of a tuple whose region
    ``i`` is region ``order[i]`` of another, in the other's labels."""
    return sorted(
        (*sorted((order[v.first], order[v.second])), v.predicate) for v in violations
    )


@pytest.mark.xfail(
    strict=True,
    reason="chords_cross measures the meeting point along its first chord, so its verdict "
    "can depend on the order of the chords; ROADMAP item 3 (an exact crossing rule) mends it",
)
@settings(max_examples=300, deadline=None)
@given(tc=_unit_tuples(), data=st.data())
@example(tc=TupleCandidate(_SQUARE, (_A, _B)), data=None)
def test_validate_tuple_of_a_permuted_tuple_lists_the_same_violations(tc, data):
    """Whether a tuple is valid, and which of its pairs clash, does not
    depend on the order of its regions."""
    k = len(tc.regions)
    order = [1, 0] if data is None else data.draw(st.permutations(range(k)))
    permuted = TupleCandidate(tc.domain, tuple(tc.regions[i] for i in order))
    assert _relabelled(validate_tuple(permuted), order) == _relabelled(
        validate_tuple(tc), range(k)
    )


_OFFSET = st.one_of(st.sampled_from(_TIED_LEGS), st.floats(min_value=0.01, max_value=1.0))


@st.composite
def _corner_regions(draw):
    """Valid regions at one anchor, as offsets: caps and strictly nested
    strips, with offsets that often tie."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        us = sorted(set(draw(st.lists(_OFFSET, min_size=2, max_size=2))))
        vs = sorted(set(draw(st.lists(_OFFSET, min_size=2, max_size=2))))
        if len(us) < 2 or len(vs) < 2 or draw(st.booleans()):
            out.append(Cap(-us[0], vs[0], 0))
        else:
            out.append(Strip(Cap(-us[0], vs[0], 0), Cap(-us[1], vs[1], 0)))
    return out


@settings(max_examples=400, deadline=None)
@given(regions=_corner_regions())
@example(regions=list(_TIES.regions[:3]))
@example(regions=list(_TIES.regions[:4]))
@example(regions=list(_HIDDEN_IN_A_BATCH))
def test_offset_sweep_is_the_pair_loop_at_one_corner(regions):
    """The sorted sweep finds a clash exactly when some pair of regions at
    the corner fails ``_check_same_anchor``, equal offsets included."""
    pieces = [_local_pieces(r) for r in regions]
    pairs = itertools.combinations(pieces, 2)
    assert _offsets_clash(pieces) == any(_check_same_anchor(p, q) for p, q in pairs)


def _counting(monkeypatch, name):
    calls = []
    fn = getattr(regions_module, name)

    def spy(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(regions_module, name, spy)
    return calls


@pytest.mark.parametrize("k", [40, 800])
def test_a_clean_corner_witness_compares_no_region_pair(k, monkeypatch):
    """The corner witness on the criterion-6 quad is certified by one sweep
    per corner and one check per pair of units: no two regions at one
    corner are compared, and ``_check_pair`` runs at most once for each
    ordered pair of units."""
    quad = make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)])
    tc = corner_family_bound(quad, k).witness
    units = len({_anchor_of(r) for r in tc.regions})
    same_anchor = _counting(monkeypatch, "_check_same_anchor")
    pair = _counting(monkeypatch, "_check_pair")
    assert validate_tuple(tc) == []
    assert len(same_anchor) == 0
    assert len(pair) <= units * (units - 1)


def test_a_deep_chain_with_one_interleaved_chord_lists_what_the_pair_loop_lists(monkeypatch):
    legs = _DEEP_LEGS
    chain = list(_chain(0, legs))
    # region 20's inner chord interleaves with region 19's outer one
    chain[20] = Strip(Cap(-0.5 * (legs[18] + legs[19]), 0.5 * (legs[19] + legs[20]), 0),
                      chain[20].outer)
    tc = TupleCandidate(_SQUARE, tuple(chain) + (Cap(2.5, 3.5),))
    same_anchor = _counting(monkeypatch, "_check_same_anchor")
    got = validate_tuple(tc)
    assert got == _retired_validate_tuple(tc)
    assert {(v.first, v.second, v.predicate) for v in got} >= {
        (19, 20, "arc-overlap"), (19, 20, "chord-crossing")
    }
    assert len(same_anchor) == 40 * 39 // 2


# ---------------------------------------------------------------------------
# arclengths outside [0, P]
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["disk", "square"])
def test_plain_cap_arclengths_outside_the_perimeter_are_reduced(name):
    """A plain cap whose arclength lies far outside ``[0, P]`` is the cap of
    its arclengths modulo ``P``: ``(b - a) % P`` lost ``b`` next to
    ``a = 1e308`` and gave the disk cap an eta of 2.5, above the 1 every
    disk cap stays below."""
    domain = make_disk() if name == "disk" else make_polygon([(0, 0), (1, 0), (1, 1), (0, 1)])
    per = domain.perimeter
    far = Cap(1e308, 1.0)
    near = Cap(1e308 % per, 1.0)
    assert cap_arclengths(domain, far) == (1e308 % per, 1.0)
    assert eta_partial(domain, far) == eta_partial(domain, near)
    assert validate_tuple(TupleCandidate(domain, (far,))) == validate_tuple(
        TupleCandidate(domain, (near,))
    )
    if name == "disk":
        assert eta_partial(domain, far) < 1.0
    # arclengths in [0, P] keep their bits; shifted by whole perimeters, a
    # cap and strips keep their measure and their problems
    cap = Cap(0.3 * per, 0.55 * per)
    strip = Strip(Cap(0.35 * per, 0.5 * per), cap)
    assert cap_arclengths(domain, cap) == (cap.a, cap.b)
    for region in (cap, strip, Strip(cap, Cap(0.35 * per, 0.5 * per))):
        for shift in (-2.0, 3.0):
            moved = _shifted(region, shift * per)
            assert eta_partial(domain, moved) == pytest.approx(eta_partial(domain, region))
            assert [p.split(" (")[0] for p in validate_region(domain, moved)] == [
                p.split(" (")[0] for p in validate_region(domain, region)
            ]


def _shifted(region, d):
    if isinstance(region, Cap):
        return Cap(region.a + d, region.b + d)
    return Strip(_shifted(region.inner, d), _shifted(region.outer, d))
