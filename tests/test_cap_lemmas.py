"""Lemmas about single caps that the search and the README rely on.

* On a domain whose edges are straight or concave arcs, a cap whose open
  exterior arc holds no vertex is invalid.  Distinct caps of a tuple thus
  need distinct vertices, and :func:`escobar.search.estimate_ik` skips the
  cap family when k exceeds the vertex count (:func:`search._no_cap_tuple`).
* On the regular n-gon a valid cap whose open arc holds at most one vertex
  has eta >= cos(pi/n).  With 2k > n some cap of a k-tuple holds at most one
  vertex, so cap-only tuples cannot beat cos(pi/n) at acceptance criterion
  10's rows (7,4), (9,5) and (11,6).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escobar.geometry import chord_is_interior, make_regular_polygon, scaled
from escobar.regions import Cap, TupleCandidate, eta_partial, validate_tuple
from tests.conftest import NO_CAP_DOMAINS

_NEAR_VERTEX = [1e-15, 1e-10, 1e-6]  # times the perimeter

_SCALED = {
    (name, factor): scaled(build(), factor)
    for name, build in NO_CAP_DOMAINS.items()
    for factor in (1e-6, 1.0, 1e6)
}


def _point_on_edge(domain, e, data):
    """An arclength on the closed edge ``e``: one of its vertices, a point
    :data:`_NEAR_VERTEX` of the perimeter inside one, or anywhere along it."""
    lo, hi = domain.cumlens[e], domain.cumlens[e + 1]
    kind = data.draw(st.sampled_from(["start", "end", "near-start", "near-end", "along"]))
    if kind == "start":
        return lo
    if kind == "end":
        return hi
    if kind == "along":
        return data.draw(st.floats(min_value=lo, max_value=hi))
    delta = data.draw(st.sampled_from(_NEAR_VERTEX)) * domain.perimeter
    return min(lo + delta, hi) if kind == "near-start" else max(hi - delta, lo)


@settings(max_examples=600, deadline=None)
@given(key=st.sampled_from(sorted(_SCALED)), data=st.data())
def test_cap_without_a_vertex_is_invalid(key, data):
    """A cap whose exterior arc lies on one closed edge is flagged
    ``region-invalid``: its chord runs along a straight edge or across a
    concave arc, outside the domain.  So is the reversed cap, whose arc
    wraps around the rest of the boundary: it has the same chord."""
    domain = _SCALED[key]
    e = data.draw(st.integers(0, len(domain.edges) - 1))
    a, b = sorted((_point_on_edge(domain, e, data), _point_on_edge(domain, e, data)))
    if data.draw(st.booleans()):
        a, b = b, a
    per = domain.perimeter
    cap = Cap(a % per, b % per)
    violations = validate_tuple(TupleCandidate(domain, (cap,)))
    assert [v.predicate for v in violations] == ["region-invalid"], (key, cap, violations)


@pytest.mark.parametrize(
    "key, edge, at, width",
    [
        (("concave-square", 1.0), 2, 0.3, 5e-6),  # across the concave arc
        (("D3", 1e-6), 0, 0.0, 1e-6),  # along a straight edge from its vertex
    ],
)
def test_short_chord_on_one_edge_is_invalid(key, edge, at, width):
    """The general chord test alone accepts these chords (the midpoint of
    each lies within ``TAU_GEOM`` of the boundary); the flat-edge rule of
    :func:`chord_is_interior` rejects them by edge index, and the caps are
    invalid."""
    domain = _SCALED[key]
    s = domain.cumlens[edge] + at * domain.edge_lengths[edge]
    t = s + width * domain.perimeter
    assert not chord_is_interior(domain, s, t)
    assert not chord_is_interior(domain, t, s)
    out = validate_tuple(TupleCandidate(domain, (Cap(s, t),)))
    assert [v.predicate for v in out] == ["region-invalid"]
    assert "does not cut through the interior" in out[0].detail


@pytest.mark.parametrize("w", [1e-8, 1e-7, 1e-6, 1e-5])
@pytest.mark.parametrize(
    "key", [(f"D{n}", f) for n in (3, 4, 6) for f in (1e-6, 1.0, 1e6)], ids="{0[0]}@{0[1]:g}".format
)
def test_complement_of_a_sliver_is_invalid(key, w):
    """``Cap(s + w per, s)`` with ``s`` at 0.4 of edge 0 holds the whole
    boundary but a sliver of edge 0; its chord runs along edge 0."""
    domain = _SCALED[key]
    per = domain.perimeter
    s = 0.4 * domain.edge_lengths[0]
    out = validate_tuple(TupleCandidate(domain, (Cap(s + w * per, s),)))
    assert [v.predicate for v in out] == ["region-invalid"], out


_NGONS = {n: make_regular_polygon(n) for n in (7, 9, 11)}


@settings(max_examples=600, deadline=None)
@given(n=st.sampled_from(sorted(_NGONS)), anchored=st.booleans(), data=st.data())
def test_cap_over_at_most_one_vertex_is_no_better_than_cos_pi_over_n(n, anchored, data):
    """A valid cap over one vertex with legs x, y has eta >= sin(theta/2)
    (:func:`test_cap_excess_identity`), which is cos(pi/n) on D_n; a cap
    over no vertex is invalid.

    The legs run from vertex j back along edge j - 1 and forward along edge
    j, so the open arc holds at most vertex j.  A plain cap writes its cut
    points as arclengths, which resolve about 1e-16 of the perimeter, so its
    measured eta may fall short by about that much over the exterior
    length; an anchored cap measures its legs from the vertex."""
    domain = _NGONS[n]
    per = domain.perimeter
    length = domain.edge_lengths[0]

    def leg():
        if data.draw(st.booleans()):
            return data.draw(st.floats(0.0, 1.0)) * length
        return data.draw(st.sampled_from(_NEAR_VERTEX)) * per

    j = data.draw(st.integers(0, n - 1))
    x, y = leg(), leg()
    if anchored:
        if not (0.0 < x < length and 0.0 < y < length):
            return
        cap = Cap(-x, y, anchor=j)
        resolution = 0.0
    else:
        v = domain.vertex_arclength(j)
        cap = Cap((v - x) % per, (v + y) % per)
        resolution = 1e-14 * domain.scale / max((cap.b - cap.a) % per, 1e-300)
    if validate_tuple(TupleCandidate(domain, (cap,))):
        return
    assert eta_partial(domain, cap) >= math.cos(math.pi / n) - 1e-12 - resolution, cap


@settings(max_examples=200, deadline=None)
@given(
    x=st.fractions(min_value=0, max_value=10, max_denominator=10**6),
    y=st.fractions(min_value=0, max_value=10, max_denominator=10**6),
    cos_theta=st.fractions(min_value=-1, max_value=1, max_denominator=10**6),
)
def test_cap_excess_identity(x, y, cos_theta):
    """c^2 - (x+y)^2 sin^2(theta/2) = (x-y)^2 (1 + cos theta) / 2, exactly in
    rationals, for the chord c of legs x, y at a corner of angle theta."""
    c2 = x * x + y * y - 2 * x * y * cos_theta  # law of cosines
    sin2_half = (1 - cos_theta) / 2
    assert c2 - (x + y) ** 2 * sin2_half == (x - y) ** 2 * (1 + cos_theta) / 2
