"""Differential oracle for eta of plain caps and strips (mpmath).

The oracle treats each cut position as an exact arclength and places the
cut point from the edge's own definition (segment end points; arc centre,
radius and angles) with mpmath at 50 digits: it finds the edge from the
exact cumulative edge lengths and walks the local arclength along it.  The
exterior length is the exact ccw distance between the cuts.  The package
computes the same ratio in float64 through ``point_at`` and ``(b - a) mod
P``; with every cut at least 1e-3 of the perimeter from the others, the
chords are long enough for the two to agree to float64 rounding.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escobar.geometry import Arc, Segment, make_disk, make_domain, make_polygon, scaled
from escobar.regions import Cap, Strip, eta_partial

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

REL_TOL = 1e-12
#: Least share of the perimeter between two cuts (and left outside a region).
MIN_GAP = 1e-3


def _chord_cut_disk(h=0.5):
    c = math.sqrt(1.0 - h * h)
    return make_domain(
        [
            Arc((0.0, 0.0), 1.0, math.atan2(h, -c), math.atan2(h, c) + 2.0 * math.pi),
            Segment((c, h), (-c, h)),
        ]
    )


_HALF_DISK = make_domain([Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)])
_QUAD = make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)])

DOMAINS = {
    "disk": make_disk(),
    "half-disk": _HALF_DISK,
    "half-disk@1e-06": scaled(_HALF_DISK, 1e-6),
    "half-disk@1e+06": scaled(_HALF_DISK, 1e6),
    "chord-cut": _chord_cut_disk(),
    "quad": _QUAD,
    "lshape": make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
}


def _mp_edge(edge):
    """(length, point at local arclength t) of an edge, in mpmath."""
    if isinstance(edge, Segment):
        sx, sy, ex, ey = (mp.mpf(c) for c in (*edge.start, *edge.end))
        length = mp.sqrt((ex - sx) ** 2 + (ey - sy) ** 2)
        return length, lambda t: (sx + t / length * (ex - sx), sy + t / length * (ey - sy))
    cx, cy, r = mp.mpf(edge.center[0]), mp.mpf(edge.center[1]), mp.mpf(edge.radius)
    start, end = mp.mpf(edge.start_angle), mp.mpf(edge.end_angle)
    sign = 1 if edge.ccw else -1
    sweep = (sign * (end - start)) % (2 * mp.pi) or 2 * mp.pi
    return r * sweep, lambda t: (
        cx + r * mp.cos(start + sign * t / r),
        cy + r * mp.sin(start + sign * t / r),
    )


def _mp_point(edges, per, s):
    s = mp.mpf(s) % per
    for length, point in edges:
        if s < length:
            return point(s)
        s -= length
    return edges[-1][1](edges[-1][0])


def oracle_eta(domain, region):
    """eta of a plain region, correct to far more than float64."""
    with mp.workdps(50):
        edges = [_mp_edge(e) for e in domain.edges]
        per = mp.fsum(length for length, _ in edges)
        caps = (region,) if isinstance(region, Cap) else (region.inner, region.outer)
        chords = mp.fsum(
            mp.sqrt(
                (_mp_point(edges, per, c.b)[0] - _mp_point(edges, per, c.a)[0]) ** 2
                + (_mp_point(edges, per, c.b)[1] - _mp_point(edges, per, c.a)[1]) ** 2
            )
            for c in caps
        )
        if isinstance(region, Cap):
            ext = (mp.mpf(region.b) - mp.mpf(region.a)) % per
        else:
            inner, outer = region.inner, region.outer
            ext = (mp.mpf(inner.a) - mp.mpf(outer.a)) % per + (
                (mp.mpf(outer.b) - mp.mpf(inner.b)) % per
            )
        return float(chords / ext)


def _cuts(data, domain, count):
    """``count`` ccw-ordered cut positions; each is at least MIN_GAP of the
    perimeter from the next, and the last from the first."""
    per = domain.perimeter
    weights = data.draw(st.lists(st.floats(1.0, 1e3), min_size=count, max_size=count))
    free = 1.0 - count * MIN_GAP
    s = data.draw(st.floats(0.0, 1.0, exclude_max=True)) * per
    out = []
    for w in weights:
        out.append(s % per)
        s += (MIN_GAP + free * w / sum(weights)) * per
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(DOMAINS)))
def test_plain_cap_eta_matches_oracle(data, key):
    domain = DOMAINS[key]
    a, b = _cuts(data, domain, 2)
    cap = Cap(a, b)
    assert oracle_eta(domain, cap) == pytest.approx(eta_partial(domain, cap), rel=REL_TOL)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), key=st.sampled_from(sorted(DOMAINS)))
def test_plain_strip_eta_matches_oracle(data, key):
    domain = DOMAINS[key]
    oa, ia, ib, ob = _cuts(data, domain, 4)
    strip = Strip(Cap(ia, ib), Cap(oa, ob))
    assert oracle_eta(domain, strip) == pytest.approx(eta_partial(domain, strip), rel=REL_TOL)
