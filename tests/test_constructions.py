"""Witness constructions: equal splits, inscribed polygons, corner chains, stripes."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escobar.constructions import (
    _leg_offset,
    corner_chain_tuple,
    corner_schedule_legs,
    corner_tuple,
    equal_boundary_tuple,
    geometric_legs,
    inscribed_kgon_tuple,
    stripe_tuple,
)
from escobar.errors import (
    ConstructionFailedError,
    InvalidParameterError,
    NotApplicableError,
)
from escobar.exact import ik_disk
from escobar.geometry import (
    Arc,
    Segment,
    make_disk,
    make_domain,
    make_regular_polygon,
)
from escobar.regions import (
    Cap,
    cap_arclengths,
    corner_admits_anchor,
    eta_partial,
    max_eta,
    validate_tuple,
)
from tests.conftest import rectangle


# ---------------------------------------------------------------------------
# equal splits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 5, 8, 12])
def test_disk_equal_arcs_attain_the_constant(k):
    """k equal arcs realise I_k(disk) = sin(pi/k)/(pi/k) exactly."""
    tc = equal_boundary_tuple(make_disk(), k, start_offset=0.0)
    assert validate_tuple(tc) == []
    assert max_eta(tc) == pytest.approx(ik_disk(k).value, abs=1e-12)


def test_equal_boundary_split_of_square(square):
    # halves cut through opposite edge midpoints: eta = 1/2 on both sides
    s = square.edge_lengths[0]
    tc = equal_boundary_tuple(square, 2, start_offset=s / 2)
    assert validate_tuple(tc) == []
    assert max_eta(tc) == pytest.approx(0.5, abs=1e-12)
    for region in tc.regions:
        assert eta_partial(square, region) == pytest.approx(0.5, abs=1e-12)


def test_equal_boundary_needs_k_at_least_2(square):
    with pytest.raises(InvalidParameterError):
        equal_boundary_tuple(square, 1)


@pytest.mark.parametrize(
    "n,k",
    [(6, 3), (8, 4), (9, 3), (10, 5), (12, 4)],
)
def test_inscribed_kgon_values(n, k):
    """Midpoint-anchored splits hit sin(pi/k)*cot(pi/n)*k/n when k divides n."""
    tc = inscribed_kgon_tuple(n, k)
    want = math.sin(math.pi / k) * k / (n * math.tan(math.pi / n))
    assert max_eta(tc) == pytest.approx(want, abs=1e-12)
    assert validate_tuple(tc) == []


def test_inscribed_kgon_requires_divisor():
    with pytest.raises(InvalidParameterError):
        inscribed_kgon_tuple(7, 3)


# ---------------------------------------------------------------------------
# corner chains
# ---------------------------------------------------------------------------


def test_corner_cap_eta(square):
    tc = corner_chain_tuple(square, 0, [0.3])
    assert max_eta(tc) == pytest.approx(math.sin(math.pi / 4), rel=1e-12)


def test_corner_chain_strip_formula(square):
    """Chain of cap + strip with legs t' < t: strip eta = sin(t/2)(t+t')/(t-t')."""
    t_in, t_out = 0.01, 0.3
    tc = corner_chain_tuple(square, 0, [t_in, t_out])
    assert validate_tuple(tc) == []
    cap_eta = eta_partial(square, tc.regions[0])
    strip_eta = eta_partial(square, tc.regions[1])
    assert cap_eta == pytest.approx(math.sin(math.pi / 4), rel=1e-11)
    assert strip_eta == pytest.approx(
        math.sin(math.pi / 4) * (t_out + t_in) / (t_out - t_in), rel=1e-11
    )


def test_corner_chain_on_curved_corner(half_disk):
    # right angle between the diameter and the circle at (1, 0) = vertex 1;
    # tiny equal legs give eta close to sin(pi/4) (the legs bend with the arc)
    idx = min(
        range(len(half_disk.vertices)),
        key=lambda j: abs(half_disk.vertices[j][0] - 1.0)
        + abs(half_disk.vertices[j][1]),
    )
    tc = corner_chain_tuple(half_disk, idx, [1e-4])
    assert max_eta(tc) == pytest.approx(math.sin(math.pi / 4), abs=5e-4)


def test_corner_chain_anchors_legs_far_below_arclength_resolution(square):
    # legs from 1e-250 to 0.3: as arclengths all but the outer cuts would
    # round onto the vertex
    legs = geometric_legs(1e-250, 0.3, 6)
    tc = corner_chain_tuple(square, 0, legs)
    assert {r.anchor if isinstance(r, Cap) else r.outer.anchor for r in tc.regions} == {0}
    assert validate_tuple(tc) == []
    ratio = legs[1] / legs[0]
    want = math.sin(math.pi / 4) * (ratio + 1) / (ratio - 1)
    for strip in tc.regions[1:]:
        assert eta_partial(square, strip) == pytest.approx(want, rel=1e-13)


def _concave_arc_corner():
    """Vertex 2 = (2, 2) of this square is a convex corner, but the edge
    after it bulges inwards, so the corner admits no anchored caps."""
    return make_domain(
        [
            Segment((0.0, 0.0), (2.0, 0.0)),
            Segment((2.0, 0.0), (2.0, 2.0)),
            Arc((1.0, 3.0), math.sqrt(2.0), -math.pi / 4, -3 * math.pi / 4, ccw=False),
            Segment((0.0, 2.0), (0.0, 0.0)),
        ]
    )


def test_corner_chain_next_to_concave_arc_keeps_arclengths():
    dom = _concave_arc_corner()
    assert not corner_admits_anchor(dom, 2)
    tc = corner_chain_tuple(dom, 2, [0.01, 0.1])
    assert tc.regions[0].anchor is None and tc.regions[1].outer.anchor is None
    assert validate_tuple(tc) == []


@pytest.mark.parametrize(
    "build, corner, legs",
    [
        # a 2 x 0.1 rectangle: the leg 0.2 runs off the short edge before
        # vertex 0, and off the short edge after vertex 1
        (lambda: rectangle(2.0, 0.1), 0, [0.05, 0.2]),
        (lambda: rectangle(2.0, 0.1), 1, [0.2]),
        # the concave arc after vertex 2 spans a chord of 2
        (_concave_arc_corner, 2, [0.5, 1.99, 2.01]),
        # a 30-degree sector of radius 4: at vertex 1 the radius holds the
        # leg 3, the arc after it only chords up to 8 sin(pi/12) ~ 2.07
        (lambda: make_domain([
            Segment((0.0, 0.0), (4.0, 0.0)),
            Arc((0.0, 0.0), 4.0, 0.0, math.pi / 6),
            Segment((2.0 * math.sqrt(3.0), 2.0), (0.0, 0.0)),
        ]), 1, [1.0, 3.0]),
    ],
)
def test_a_leg_off_an_edge_is_refused(build, corner, legs):
    """Cut points stay on the two edges at the corner: a leg that either
    edge does not reach is refused, anchored corner or not."""
    with pytest.raises(ConstructionFailedError, match=f"runs off an edge at vertex {corner}$"):
        corner_chain_tuple(build(), corner, legs)


@pytest.mark.parametrize("legs", [[0.01, 0.1], [1e-6, 1e-3, 0.5, 1.2]])
def test_plain_caps_are_the_arclengths_of_the_anchored_offsets(legs):
    """Where anchored caps are not allowed, the cut points are those of the
    anchored caps, at arclengths :func:`cap_arclengths` gives, bit for bit,
    and each lies at euclidean distance t from the vertex."""
    dom, j = _concave_arc_corner(), 2
    tc = corner_chain_tuple(dom, j, legs)
    caps = [tc.regions[0]] + [strip.outer for strip in tc.regions[1:]]
    vertex = dom.vertices[j]
    for t, cap in zip(legs, caps):
        ua, ub = _leg_offset(dom.edges[j - 1], t), _leg_offset(dom.edges[j], t)
        want = cap_arclengths(dom, Cap(-ua, ub, j))
        assert cap.anchor is None
        assert (cap.a.hex(), cap.b.hex()) == tuple(s.hex() for s in want)
        for s in want:
            assert math.dist(dom.point_at(s), vertex) == pytest.approx(t, rel=1e-9)


def test_geometric_legs_make_uniform_strips(square):
    legs = geometric_legs(0.01, 0.16, 3)
    assert legs == pytest.approx([0.01, 0.04, 0.16], rel=1e-12)
    tc = corner_chain_tuple(square, 0, legs)
    # equal ratios mean both strips share eta = sin(theta/2)*(r+1)/(r-1)
    e1 = eta_partial(square, tc.regions[1])
    e2 = eta_partial(square, tc.regions[2])
    assert e1 == pytest.approx(e2, rel=1e-10)
    assert e1 == pytest.approx(math.sin(math.pi / 4) * 5 / 3, rel=1e-10)


def test_geometric_legs_validation():
    with pytest.raises(InvalidParameterError):
        geometric_legs(0.1, 0.01, 3)
    with pytest.raises(InvalidParameterError):
        geometric_legs(0.1, 0.2, 0)
    assert geometric_legs(0.05, 0.3, 1) == [0.3]


# ---------------------------------------------------------------------------
# the corner schedule
# ---------------------------------------------------------------------------


def test_schedule_legs_shape():
    k, eps = 3, 1e-4
    legs = corner_schedule_legs(k, eps)
    deltas = [eps ** (-1.0 / (k - j + 1)) for j in range(k)]
    want = [eps * sum(deltas[: j + 1]) for j in range(k)]
    assert legs == pytest.approx(want, rel=1e-15)
    assert all(a < b for a, b in zip(legs, legs[1:]))


def test_schedule_legs_validation():
    with pytest.raises(InvalidParameterError):
        corner_schedule_legs(0, 1e-4)
    with pytest.raises(InvalidParameterError):
        corner_schedule_legs(3, 1.5)


def test_corner_tuple_power_law(square):
    """max eta = sin(theta/2) * (1 + 2 * eps^(1/(k(k+1)))) exactly in eps."""
    k = 3
    for eps in (1e-4, 1e-6, 1e-9):
        tc = corner_tuple(square, 0, k, eps)
        want = math.sin(math.pi / 4) * (1.0 + 2.0 * eps ** (1.0 / (k * (k + 1))))
        assert max_eta(tc) == pytest.approx(want, rel=1e-9)


def test_corner_tuple_matches_worked_example():
    # triangle, k=2, eps=1e-8: max eta must land in (0.5, 0.6)
    tri = make_regular_polygon(3)
    tc = corner_tuple(tri, 0, 2, 1e-8)
    assert 0.5 < max_eta(tc) < 0.6


def test_corner_tuple_is_scale_invariant(square):
    from escobar.geometry import scaled

    small = max_eta(corner_tuple(square, 0, 3, 1e-7))
    big = max_eta(corner_tuple(scaled(square, 250.0), 0, 3, 1e-7))
    assert big == pytest.approx(small, rel=1e-11)


def test_corner_tuple_shrinks_oversized_epsilon(square):
    # eps=0.2 puts the outer leg past the fit cap; halving must recover
    tc = corner_tuple(square, 0, 2, 0.2)
    assert validate_tuple(tc) == []


def test_corner_tuple_halves_epsilon_until_the_legs_hold_on_the_edges():
    """On a 4 x 0.1 rectangle the schedule at eps = 0.01 puts a leg of
    about 1.2 on the short edge at vertex 0, which holds 0.1.  Halving
    brings every leg onto the two edges, so the chain is anchored there."""
    dom = rectangle(4.0, 0.1)
    legs = [t * dom.perimeter for t in corner_schedule_legs(2, 0.01)]
    assert 0.1 < legs[-1] <= 0.245 * dom.perimeter
    with pytest.raises(ConstructionFailedError):
        corner_chain_tuple(dom, 0, legs)
    tc = corner_tuple(dom, 0, 2, 0.01)
    assert validate_tuple(tc) == []
    outer = tc.regions[1].outer
    assert outer.anchor == 0 and -0.1 < outer.a and outer.b < 4.0


# ---------------------------------------------------------------------------
# stripes
# ---------------------------------------------------------------------------


def test_stripe_tuple_thin_rectangle():
    dom = rectangle(0.02, 8.0)
    tc = stripe_tuple(dom, 4, stripe_height=1.0)
    assert validate_tuple(tc) == []
    # each unit-height stripe: two chords of length 0.02 over exterior 2.0
    assert max_eta(tc) == pytest.approx(0.02, abs=1e-12)


def test_stripe_tuple_default_height():
    # unit stripes fit in extent 8, so the default reproduces 2*eps exactly
    dom = rectangle(0.02, 8.0)
    tc = stripe_tuple(dom, 4)
    assert validate_tuple(tc) == []
    assert max_eta(tc) == pytest.approx(0.02, abs=1e-12)


def test_stripe_tuple_default_height_small_extent():
    # extent 3 cannot hold 4 unit stripes: default shares it with slack
    dom = rectangle(0.02, 3.0)
    tc = stripe_tuple(dom, 4)
    assert validate_tuple(tc) == []
    # interior band: two 0.02-chords over two side pieces of height 3/5
    assert max_eta(tc) == pytest.approx(0.02 / (3.0 / 5.0), abs=1e-12)


def test_stripe_tuple_vertical_orientation():
    # width > height: stripes run across the short direction automatically
    dom = rectangle(8.0, 0.02)
    tc = stripe_tuple(dom, 4, stripe_height=1.0)
    assert max_eta(tc) == pytest.approx(0.02, abs=1e-12)


def test_stripe_tuple_needs_a_rectangle(unit_disk):
    with pytest.raises(NotApplicableError):
        stripe_tuple(unit_disk, 3)


def test_stripe_tuple_overfull():
    dom = rectangle(0.02, 8.0)
    with pytest.raises(ConstructionFailedError):
        stripe_tuple(dom, 4, stripe_height=3.0)  # 4 * 3 > 8


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(k=st.integers(min_value=2, max_value=16))
def test_disk_equal_arcs_match_formula(k):
    assert max_eta(equal_boundary_tuple(make_disk(), k, start_offset=0.0)) == pytest.approx(
        math.sin(math.pi / k) / (math.pi / k), rel=1e-12
    )


@settings(max_examples=30, deadline=None)
@given(
    t=st.floats(min_value=1e-4, max_value=0.4),
    ratio=st.floats(min_value=1.05, max_value=20.0),
)
def test_strip_eta_formula_everywhere(t, ratio):
    square = make_regular_polygon(4)
    tc = corner_chain_tuple(square, 0, [t / ratio, t])
    want = math.sin(math.pi / 4) * (ratio + 1) / (ratio - 1)
    assert eta_partial(square, tc.regions[1]) == pytest.approx(want, rel=1e-8)
