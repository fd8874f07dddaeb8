"""The chord predicates of ``geometry`` against the copies they replaced.

``geometry.chords_cross`` is the one chord-vs-chord conflict kernel: it
serves ``regions._chords_conflict`` (which forgives identical chords and
shared end points), the strip check of ``regions.validate_region``, and
``search._cuts_chords_ok`` through ``_chords_conflict``.  Each of them used
to carry its own copy.  Those copies are kept below as the reference,
and hypothesis checks that the new code gives their verdicts on the
L-shape, the star hexagon, the half-disk and the criterion-6 quad at scales
1e-6, 1 and 1e6, for random, shared-endpoint, collinear, T-junction,
identical and near-vertex chords.  ``geometry._circular_interval_overlap``
likewise replaced ``regions._interval_overlap_mod``.

An ``mpmath`` oracle at 50 digits checks the kernel where the answer does
not depend on its tolerances: chords whose lines cross at least ten
exclusion radii away from every end.
"""

import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from escobar.geometry import (
    TAU_GEOM,
    Arc,
    Segment,
    _circular_interval_overlap,
    _seg_seg_intersections,
    chords_cross,
    make_domain,
    make_polygon,
    scaled,
)
from escobar.regions import Cap, Strip, _chords_conflict, _pieces
from escobar.search import _cuts_chords_ok
from tests.conftest import star_hexagon

# ---------------------------------------------------------------------------
# reference: the retired copies, unchanged but for their names
# ---------------------------------------------------------------------------


def _ref_chords_conflict(domain, c1, c2, *, tol):
    """``regions._chords_conflict`` before the kernel: chords as arclengths."""
    p1 = domain.point_at(c1[0])
    q1 = domain.point_at(c1[1])
    p2 = domain.point_at(c2[0])
    q2 = domain.point_at(c2[1])
    tol_abs = tol * domain.scale
    same = (
        math.dist(p1, p2) <= tol_abs
        and math.dist(q1, q2) <= tol_abs
    ) or (
        math.dist(p1, q2) <= tol_abs
        and math.dist(q1, p2) <= tol_abs
    )
    if same:
        return None
    hits, overlap = _seg_seg_intersections(p1, q1, p2, q2)
    if overlap:
        return "chords overlap along a stretch"
    excl = max(1e-12 * domain.scale, 1e-6 * min(math.dist(p1, q1), math.dist(p2, q2)))
    for pt, _u, _v in hits:
        if all(math.dist(pt, e) > excl for e in (p1, q1, p2, q2)):
            return f"chords cross at {pt}"
    return None


def _ref_strip_chords(domain, region):
    """The chord check at the end of ``regions.validate_region`` for a strip."""
    problems = []
    pa = domain.point_at(region.inner.a)
    pb = domain.point_at(region.inner.b)
    qa = domain.point_at(region.outer.a)
    qb = domain.point_at(region.outer.b)
    hits, overlap = _seg_seg_intersections(pa, pb, qa, qb)
    excl = max(1e-12 * domain.scale, 1e-6 * min(math.dist(pa, pb), math.dist(qa, qb)))
    if overlap:
        problems.append("inner and outer chords overlap")
    else:
        for pt, _u, _v in hits:
            if all(math.dist(pt, q) > excl for q in (pa, pb, qa, qb)):
                problems.append("inner and outer chords cross")
                break
    return problems


def _ref_cuts_chords_ok(tables, cuts):
    """``search._cuts_chords_ok`` before the kernel (no absolute exclusion)."""
    m = tables.m
    pts = tables.pts
    k = len(cuts) // 2
    segs = []
    for j in range(k):
        p = tuple(pts[cuts[2 * j] % m])
        q = tuple(pts[cuts[2 * j + 1] % m])
        segs.append((p, q))
    for i in range(k):
        for j in range(i + 1, k):
            p1, q1 = segs[i]
            p2, q2 = segs[j]
            hits, overlap = _seg_seg_intersections(p1, q1, p2, q2)
            same = (p1 == p2 and q1 == q2) or (p1 == q2 and q1 == p2)
            if overlap and not same:
                return False
            excl = 1e-6 * min(math.dist(p1, q1), math.dist(p2, q2))
            for pt, _u, _v in hits:
                if all(math.dist(pt, e) > excl for e in (p1, q1, p2, q2)):
                    return False
    return True


def _ref_interval_overlap_mod(per, s0, l0, s1, l1) -> float:
    total = 0.0
    base = s0 % per
    for shift in (-per, 0.0, per):
        o = (s1 % per) + shift
        lo = max(base, o)
        hi = min(base + l0, o + l1)
        if hi > lo:
            total += hi - lo
    return total


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

_BASES = {
    "lshape": lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "star": star_hexagon,
    "half-disk": lambda: make_domain(
        [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
    ),
    "quad": lambda: make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)]),
}
_KEYS = [(name, f) for name in _BASES for f in (1e-6, 1.0, 1e6)]
_NEAR_VERTEX = [0.0, 1e-15, -1e-15, 1e-10, -1e-10, 1e-6, -1e-6]  # times the perimeter


@functools.cache
def _domain(name, factor):
    dom = _BASES[name]()
    return dom if factor == 1.0 else scaled(dom, factor)


@st.composite
def _chord_pairs(draw):
    """A domain and two chords as arclength pairs: random, sharing an end,
    collinear on one straight edge, meeting in a T-junction (an end of one
    inside the other, which runs along an edge), identical, or with ends at
    or near vertices."""
    dom = _domain(*draw(st.sampled_from(_KEYS)))
    per = dom.perimeter
    n = len(dom.edges)
    unit = st.floats(0.0, 1.0, exclude_max=True)

    def anywhere():
        return draw(unit) * per

    def on_edge(e, lo=0.0, hi=1.0):
        return (dom.cumlens[e] + draw(st.floats(lo, hi)) * dom.edge_lengths[e]) % per

    def near_vertex():
        j = draw(st.integers(0, n - 1))
        return (dom.vertex_arclength(j) + draw(st.sampled_from(_NEAR_VERTEX)) * per) % per

    kind = draw(st.sampled_from(
        ["random", "shared", "collinear", "t-junction", "identical", "vertex"]
    ))
    straight = [e for e in range(n) if isinstance(dom.edges[e], Segment)]
    if kind == "random":
        c1, c2 = (anywhere(), anywhere()), (anywhere(), anywhere())
    elif kind == "shared":
        c1 = (anywhere(), anywhere())
        c2 = (draw(st.sampled_from(c1)), anywhere())
    elif kind == "collinear":
        e = draw(st.sampled_from(straight))
        c1, c2 = (on_edge(e), on_edge(e)), (on_edge(e), on_edge(e))
    elif kind == "t-junction":
        e = draw(st.sampled_from(straight))
        c1 = (on_edge(e, 0.0, 0.4), on_edge(e, 0.6, 1.0))
        c2 = (on_edge(e, 0.4, 0.6), anywhere())
    elif kind == "identical":
        c1 = (anywhere(), anywhere())
        c2 = c1 if draw(st.booleans()) else c1[::-1]
    else:
        c1 = (near_vertex(), draw(st.sampled_from([near_vertex(), anywhere()])))
        c2 = (near_vertex(), draw(st.sampled_from([near_vertex(), anywhere()])))
    if draw(st.booleans()):
        c1, c2 = c2, c1
    return dom, c1, c2


def _ends(dom, c):
    return dom.point_at(c[0]), dom.point_at(c[1])


# ---------------------------------------------------------------------------
# the kernel and its callers against the retired copies
# ---------------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(case=_chord_pairs())
def test_chords_conflict_matches_retired_copy(case):
    """Same description string from end points found once."""
    dom, c1, c2 = case
    got = _chords_conflict(dom, _ends(dom, c1), _ends(dom, c2))
    assert got == _ref_chords_conflict(dom, c1, c2, tol=1e-9)


def _unscreened_chords_conflict(domain, c1, c2):
    """``regions._chords_conflict`` without its chord-pair box reject."""
    (p1, q1), (p2, q2) = c1, c2
    tol_abs = TAU_GEOM * domain.scale
    if (math.dist(p1, p2) <= tol_abs and math.dist(q1, q2) <= tol_abs) or (
        math.dist(p1, q2) <= tol_abs and math.dist(q1, p2) <= tol_abs
    ):
        return None
    return chords_cross(p1, q1, p2, q2, domain.scale)


@settings(max_examples=800, deadline=None)
@given(case=_chord_pairs(), shift=st.sampled_from([0.0, 0.0, 0.0, 2.0]),
       near_box=st.floats(0.0, 0.02))
def test_chords_conflict_box_reject_keeps_every_verdict(case, shift, near_box):
    """The chord-pair box reject answers only where ``chords_cross`` finds
    nothing: on the drawn pairs, on a second chord moved just past or just
    inside ``1e-2 S`` of the first's box, and on the domain shifted by twice
    its scale, where the reject is off."""
    dom, c1, c2 = case
    if shift:
        dom = make_polygon([(x + shift * dom.scale, y) for x, y in dom.vertices]) if all(
            isinstance(e, Segment) for e in dom.edges) else dom
    e1, e2 = _ends(dom, c1), _ends(dom, c2)
    # the second chord moved right of the first's box by near_box * S
    dx = max(e1[0][0], e1[1][0]) - min(e2[0][0], e2[1][0]) + near_box * dom.scale
    moved = tuple((x + dx, y) for x, y in e2)
    for a, b in ((e1, e2), (e2, e1), (e1, moved), (moved, e1)):
        got = _chords_conflict(dom, a, b)
        assert got == _unscreened_chords_conflict(dom, a, b)
    if dom._near_origin and near_box > 0.01:
        event("box reject fired")


@settings(max_examples=600, deadline=None)
@given(case=_chord_pairs())
def test_strip_chord_check_matches_retired_copy(case):
    """The kernel gives the old strip check's verdict: overlap, cross or clear."""
    dom, c1, c2 = case
    strip = Strip(Cap(*c1), Cap(*c2))
    (pa, pb), (qa, qb) = _pieces(dom, strip)[1]
    msg = chords_cross(pa, pb, qa, qb, dom.scale)
    kind = None if msg is None else msg.split()[1]
    expected = [{"overlap": "inner and outer chords overlap",
                 "cross": "inner and outer chords cross"}[kind]] if kind else []
    assert expected == _ref_strip_chords(dom, strip)


@settings(max_examples=600, deadline=None)
@given(case=_chord_pairs())
def test_cuts_chords_ok_matches_retired_copy(case):
    """Same verdict on two chords as grid cuts.  The kernel adds the absolute
    exclusion ``1e-12 scale``, which exceeds the old relative one only when
    the shorter chord is below ``1e-6 scale``; there it can only forgive a
    crossing the old copy reported (no grid of at most 5000 points has
    such a chord).  The old copy forgave only exactly identical chords;
    ``_chords_conflict`` forgives chords whose ends agree within
    ``TAU_GEOM`` times the scale, as ``validate_tuple`` does."""
    dom, c1, c2 = case
    tables = SimpleNamespace(domain=dom, m=4, pts=np.array([*_ends(dom, c1), *_ends(dom, c2)]))
    got = _cuts_chords_ok(tables, [0, 1, 2, 3])
    p1, q1, p2, q2 = tables.pts

    def near(x, y):
        return math.dist(x, y) <= TAU_GEOM * dom.scale

    if (near(p1, p2) and near(q1, q2)) or (near(p1, q2) and near(q1, p2)):
        assert got
        return
    expected = _ref_cuts_chords_ok(tables, [0, 1, 2, 3])
    shorter = min(math.dist(*tables.pts[:2]), math.dist(*tables.pts[2:]))
    if shorter >= 1e-6 * dom.scale:
        assert got == expected
    else:
        assert got or not expected


@settings(max_examples=300, deadline=None)
@given(
    period=st.sampled_from([2 * math.pi, 1.0, 7.3e-6, 4.1e6]),
    u=st.lists(st.floats(-1.5, 2.5), min_size=4, max_size=4),
)
def test_circular_interval_overlap_matches_retired_copy(period, u):
    """Bit for bit, for intervals anywhere on the circle and lengths up to
    one period."""
    s0, l0, s1, l1 = u[0] * period, abs(u[1]) % 1.0 * period, u[2] * period, abs(u[3]) % 1.0 * period
    got = _circular_interval_overlap(s0, l0, s1, l1, period)
    assert got.hex() == _ref_interval_overlap_mod(period, s0, l0, s1, l1).hex()


# ---------------------------------------------------------------------------
# mpmath oracle
# ---------------------------------------------------------------------------


# the clearance filter rejects hypothesis's boundary floats (t = 0 and the
# like) often enough to trip the filtering health check on some runs
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(
    scale=st.sampled_from([1e-6, 1.0, 1e6]),
    x=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
    angles=st.tuples(st.floats(0.0, math.pi), st.floats(1e-3, math.pi - 1e-3)),
    t=st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
)
def test_chords_cross_matches_mpmath(scale, x, angles, t):
    """Two chords through a common point X at an angle of at least 1e-3: at
    50 digits, their lines meet inside both chords or outside one.  Drawn
    so that the exact meeting point lies at least ten exclusion radii from
    every end, where the verdict cannot hinge on a tolerance."""
    mp = pytest.importorskip("mpmath")
    th1 = angles[0]
    th2 = th1 + angles[1]
    ends = []
    for th, (ta, tb) in ((th1, t[:2]), (th2, t[2:])):
        ux, uy = math.cos(th), math.sin(th)
        for tt in (ta, tb):
            ends.append(((x[0] + tt * ux) * scale, (x[1] + tt * uy) * scale))
    p1, q1, p2, q2 = ends
    assume(p1 != q1 and p2 != q2)

    with mp.workdps(50):
        P1, Q1, P2, Q2 = ([mp.mpf(c) for c in e] for e in ends)
        r = (Q1[0] - P1[0], Q1[1] - P1[1])
        s = (Q2[0] - P2[0], Q2[1] - P2[1])
        qp = (P2[0] - P1[0], P2[1] - P1[1])
        denom = r[0] * s[1] - r[1] * s[0]
        lr, ls = mp.sqrt(r[0] ** 2 + r[1] ** 2), mp.sqrt(s[0] ** 2 + s[1] ** 2)
        # the drawn angle, unless rounding the ends of a short chord tilted it
        assume(abs(denom) >= mp.mpf(1e-4) * lr * ls)
        u = (qp[0] * s[1] - qp[1] * s[0]) / denom
        v = (qp[0] * r[1] - qp[1] * r[0]) / denom
        meet = (P1[0] + u * r[0], P1[1] + u * r[1])
        shorter = min(lr, ls)
        excl = max(mp.mpf(1e-12) * scale, mp.mpf(1e-6) * shorter)
        clearance = min(mp.sqrt((meet[0] - e[0]) ** 2 + (meet[1] - e[1]) ** 2)
                        for e in (P1, Q1, P2, Q2))
        assume(clearance >= 10 * excl)
        crosses = 0 < u < 1 and 0 < v < 1

    got = chords_cross(p1, q1, p2, q2, scale)
    assert (got is not None) == crosses, (ends, got)
    if got is not None:
        assert got.startswith("chords cross at")


@pytest.mark.xfail(
    strict=True, reason="chords_cross accepts a hit up to its parameter slack past a chord's end"
)
def test_chords_cross_rejects_chords_that_stop_short():
    """Ends that the mpmath oracle above decides: the first chord stops
    1e-17 short of the second, so the chords do not cross."""
    scale, x = 1e-6, (0.0, 0.5)
    ends = []
    for th, ts in ((0.0, (1.0, 1e-11)), (1.0, (1e-11, -5.960464477539063e-08))):
        ux, uy = math.cos(th), math.sin(th)
        ends.extend(((x[0] + tt * ux) * scale, (x[1] + tt * uy) * scale) for tt in ts)
    assert chords_cross(*ends, scale) is None
