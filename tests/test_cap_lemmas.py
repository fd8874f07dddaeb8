"""Lemmas about single caps that the search and the README rely on, and the
floor under every cap tuple that they give (:func:`search._cap_floor`).

* On a domain whose edges are straight or concave arcs, a cap whose open
  exterior arc holds no vertex is invalid.  Distinct caps of a tuple thus
  need distinct vertices, and the floor is +inf when k exceeds the vertex
  count.
* On the regular n-gon a valid cap whose open arc holds at most one vertex
  has eta >= cos(pi/n).  With 2k > n some cap of a k-tuple holds at most one
  vertex, so cap-only tuples cannot beat cos(pi/n) at acceptance criterion
  10's rows (7,4), (9,5) and (11,6).
* The caps that hold no vertex share the convex arcs, and the floor shares
  them by D'Hondt's rule, which a brute force over every way to share them
  confirms.  No equal split, on random polygons, on curvilinear domains or
  where no cap tuple exists, lies below the floor.
"""

import functools
import itertools
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from escobar.errors import InvalidGeometryError
from escobar.geometry import (
    Arc,
    Segment,
    chord_is_interior,
    make_domain,
    make_polygon,
    make_regular_polygon,
    scaled,
)
from escobar.regions import Cap, TupleCandidate, eta_partial, validate_tuple
from escobar.search import _cap_floor, _equal_boundary_report
from tests.conftest import NO_CAP_DOMAINS, chord_cut_disk, circular_slice

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


@pytest.mark.parametrize("n, k", [(7, 4), (9, 5), (11, 6), (8, 5), (4, 3), (7, 3), (6, 3)])
def test_the_floor_on_a_regular_polygon_is_cos_pi_over_n_past_half(n, k):
    """On D_n the floor is the vertex lemma's ``sin(theta/2) = cos(pi/n)``
    once 2k > n, criterion 10's rows (7,4), (9,5) and (11,6) among them, and
    0 while 2k <= n, where every cap may hold two vertices."""
    want = math.cos(math.pi / n) if 2 * k > n else 0.0
    assert _cap_floor(make_regular_polygon(n), k) == pytest.approx(want, rel=1e-14)


_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def _bulged_square(sweeps):
    """The unit square with edge j bowed outwards into a counterclockwise
    arc of sweep ``sweeps[j]``, or left straight where that is None."""
    edges = []
    for j, sweep in enumerate(sweeps):
        p, q = _SQUARE[j], _SQUARE[(j + 1) % 4]
        if sweep is None:
            edges.append(Segment(p, q))
            continue
        half = math.dist(p, q) / 2.0
        radius, inset = half / math.sin(sweep / 2.0), half / math.tan(sweep / 2.0)
        # the centre lies inside, to the left of p -> q
        dx, dy = (q[0] - p[0]) / (2 * half), (q[1] - p[1]) / (2 * half)
        centre = ((p[0] + q[0]) / 2 - dy * inset, (p[1] + q[1]) / 2 + dx * inset)
        start = math.atan2(p[1] - centre[1], p[0] - centre[0])
        edges.append(Arc(centre, radius, start, start + sweep))
    return make_domain(edges)


def _shared_caps_bound(sweeps, c):
    """The arc lemma's bound on c caps over arcs of the given sweeps, by
    brute force: the least, over every way to share the caps, of
    ``sin(x)/x`` for x half the least ``A_i / c_i`` of the arcs that get
    caps; 0 with no cap."""
    if c == 0:
        return 0.0
    best = 0.0
    for counts in itertools.product(range(c + 1), repeat=len(sweeps)):
        if sum(counts) == c:
            best = max(best, min(a / n for a, n in zip(sweeps, counts) if n))
    x = best / 2.0
    return math.sin(x) / x


@settings(max_examples=60, deadline=None)
@given(
    sweeps=st.lists(
        st.one_of(st.sampled_from([0.5, 1.0, 1.5, 3.0]), st.floats(0.2, 3.1)),
        min_size=1, max_size=4,
    ),
    straight=st.integers(0, 3),
)
def test_the_floor_shares_caps_over_arcs_as_the_brute_force(sweeps, straight):
    """On a square with one to four edges bowed into convex arcs, the floor
    at k = 4 + c is the least arc-lemma bound on the c to c + 4 caps that
    hold no vertex (the vertex lemma gives nothing off a polygon), for
    every c up to 8: D'Hondt's allocation makes the least ``A_i / c_i`` as
    large as any way to share the caps does.  In exact arithmetic the bound
    grows with the cap count, but two quotients a rounding apart can give
    rounded bounds in the other order, so the least is not always the
    first.  The sampled sweeps give ties."""
    edges = (sweeps + [None] * 4)[:4]
    edges = edges[straight:] + edges[:straight]
    domain = _bulged_square(edges)
    arcs = [e.sweep for e in domain.edges if isinstance(e, Arc)]
    for c in range(9):
        want = min(_shared_caps_bound(arcs, j) for j in range(c, c + 5))
        assert _cap_floor(domain, 4 + c) == want, (arcs, c)


#: the curvilinear domains of the benchmark's corner-chains workload
_CURVILINEAR = {
    "half-disk": lambda: make_domain(
        [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
    ),
    "slice-90": functools.partial(circular_slice, math.pi / 2),
    "slice-60": functools.partial(circular_slice, math.pi / 3),
    "slice-72": functools.partial(circular_slice, 2.0 * math.pi / 5),
    "chord-cut": functools.partial(chord_cut_disk, 0.5),
}

_FLOOR_DOMAINS = {
    name: build() for name, build in {**_CURVILINEAR, **NO_CAP_DOMAINS}.items()
}


@st.composite
def _star_polygon(draw):
    """A polygon with one vertex in each of n equal sectors about the
    origin, so simple, at radii from 0.5 to 1.5."""
    n = draw(st.integers(4, 9))
    polar = [
        (2.0 * math.pi * (j + draw(st.floats(0.1, 0.9))) / n, draw(st.floats(0.5, 1.5)))
        for j in range(n)
    ]
    try:
        return make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in polar])
    except InvalidGeometryError:  # a collinear vertex
        assume(False)


@settings(max_examples=150, deadline=None)
@given(
    domain=st.one_of(_star_polygon(), st.sampled_from(list(_FLOOR_DOMAINS.values()))),
    data=st.data(),
)
def test_no_equal_split_lies_below_the_floor(domain, data):
    """The best equal split is never below the cap floor: none is valid
    where the floor is +inf, and elsewhere it lies at or above the floor,
    within the rounding of a measured eta (D4 at k = 4 meets it)."""
    k = data.draw(st.integers(2, max(12, len(domain.edges) + 3)))
    floor = _cap_floor(domain, k)
    report = _equal_boundary_report(domain, k)
    if floor == math.inf:
        assert report is None
    elif report is not None:
        assert report.value >= floor * (1.0 - 1e-12), (k, report.value, floor)
