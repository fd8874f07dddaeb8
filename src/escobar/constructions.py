"""Constructions of competitor tuples with known or controllable eta.

Each function builds a :class:`~escobar.regions.TupleCandidate` from scratch
and (by default) validates it, so the measured ``max_eta`` of the result is a
certified upper bound for I_k of the domain.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import (
    ConstructionFailedError,
    InvalidGeometryError,
    InvalidParameterError,
    NotApplicableError,
    _finite,
    _integer,
    _positive,
)
from .geometry import (
    TAU_GEOM,
    PlanarDomain,
    Segment,
    make_regular_polygon,
)
from .regions import Cap, Strip, TupleCandidate, corner_admits_anchor, validate_tuple

#: Times :func:`corner_tuple` halves the schedule's epsilon before giving up.
_MAX_HALVINGS = 60


def _raise_if_invalid(tc: TupleCandidate, what: str) -> TupleCandidate:
    violations = validate_tuple(tc)
    if violations:
        lines = "; ".join(
            f"[{v.first},{v.second}] {v.predicate}: {v.detail}" for v in violations[:4]
        )
        raise ConstructionFailedError(f"{what} produced an invalid tuple: {lines}")
    return tc


# ---------------------------------------------------------------------------
# Equal-boundary splits
# ---------------------------------------------------------------------------


def equal_boundary_tuple(
    domain: PlanarDomain,
    k: int,
    start_offset: Optional[float] = None,
) -> TupleCandidate:
    """k caps cutting the boundary into arcs of equal length.

    ``start_offset`` is the arclength of the first cut, which must be
    finite and is taken modulo the perimeter; by default the midpoint of the
    longest edge (ties broken towards the lowest index).
    """
    k = _integer("k", k, 2)
    per = domain.perimeter
    if start_offset is None:
        i = max(range(len(domain.edges)), key=lambda j: (domain.edge_lengths[j], -j))
        start_offset = float(domain.cumlens[i]) + domain.edge_lengths[i] / 2.0
    else:
        # reduced first: far offsets would round all k cuts to one float
        start_offset = _finite("start_offset", start_offset) % per
    cuts = [(start_offset + j * per / k) % per for j in range(k)]
    regions = tuple(Cap(cuts[j], cuts[(j + 1) % k]) for j in range(k))
    return _raise_if_invalid(
        TupleCandidate(domain, regions), f"equal-boundary split (k={k}, offset={start_offset:.6g})"
    )


def inscribed_kgon_tuple(n: int, k: int) -> TupleCandidate:
    """For k dividing n: caps of D_n cut along the inscribed k-gon.

    The cuts run through edge midpoints n/k edges apart; every region has
    eta = sin(pi/k) * k / (n * tan(pi/n)) exactly.
    """
    n, k = _integer("n", n, 3), _integer("k", k, 2)
    if n % k != 0:
        raise InvalidParameterError(f"inscribed split needs k dividing n, got k={k}, n={n}")
    dom = make_regular_polygon(n)
    return equal_boundary_tuple(dom, k, start_offset=dom.edge_lengths[0] / 2.0)


# ---------------------------------------------------------------------------
# Corner constructions
# ---------------------------------------------------------------------------


def _leg_offset(edge, t: float) -> Optional[float]:
    """Arclength from an end of ``edge`` to its point at distance ``t`` from
    that end, or None when the edge does not reach that distance first.

    Along a segment the two agree; along an arc the distance is the chord
    ``2R sin(u/2R)``, which grows with ``u`` up to the antipode.
    """
    if isinstance(edge, Segment):
        u = t
    elif t < 2.0 * edge.radius:
        u = 2.0 * edge.radius * math.asin(t / (2.0 * edge.radius))
    else:
        return None
    return u if u < edge.length else None


def corner_leg_reach(domain: PlanarDomain, corner_index: int) -> float:
    """Largest leg for which both edges at the corner hold the cut points.

    On an arc this is the chord to its far end, or the diameter when the
    arc runs past the antipode of the corner.
    """
    reach = []
    for edge in (domain.edges[corner_index - 1], domain.edges[corner_index]):
        if isinstance(edge, Segment):
            reach.append(edge.length)
        else:
            u = min(edge.length, math.pi * edge.radius)
            reach.append(2.0 * edge.radius * math.sin(u / (2.0 * edge.radius)))
    return min(reach)


def corner_chain_tuple(
    domain: PlanarDomain,
    corner_index: int,
    legs: Sequence[float],
    *,
    validate: bool = True,
) -> TupleCandidate:
    """Nested corner regions at one convex corner with prescribed legs.

    ``legs`` must be strictly increasing euclidean distances from the corner;
    the first region is the corner cap cut at ``legs[0]``, each further
    region the strip between consecutive cuts.  Every cut stays on the two
    edges adjacent to the corner, its points at euclidean distance ``t``
    from the vertex along each (:func:`_leg_offset`).  Between straight
    edges the cap has eta = sin(theta/2) and the strip between legs t' < t
    has eta = sin(theta/2) * (t + t') / (t - t').  A leg that either edge
    does not reach raises :class:`~escobar.errors.ConstructionFailedError`
    naming the vertex.

    When the corner admits anchored caps
    (:func:`~escobar.regions.corner_admits_anchor`), the caps are anchored
    at the corner, so legs may shrink to about 1e-290 of the edge length.
    Otherwise the same cut points are stored as boundary arclengths,
    resolved to about 1e-16 of the perimeter.
    """
    corner_index = _integer("corner_index", corner_index, 0)
    if corner_index >= len(domain.edges):
        raise InvalidParameterError(f"corner index {corner_index} out of range")
    if corner_index not in domain.convex_corners:
        theta = domain.interior_angles[corner_index]
        raise InvalidParameterError(
            f"vertex {corner_index} is not a strictly convex corner (angle {theta:.6g})"
        )
    legs = [_positive("legs", t) for t in legs]
    if not legs or any(b <= a for a, b in zip(legs, legs[1:])):
        raise InvalidParameterError(f"legs must be nonempty and strictly increasing, got {legs}")

    before, after = domain.edges[corner_index - 1], domain.edges[corner_index]
    offsets = [(_leg_offset(before, t), _leg_offset(after, t)) for t in legs]
    for t, (ua, ub) in zip(legs, offsets):
        if ua is None or ub is None:
            raise ConstructionFailedError(f"leg {t:.6g} runs off an edge at vertex {corner_index}")
    if corner_admits_anchor(domain, corner_index):
        caps = [Cap(-ua, ub, corner_index) for ua, ub in offsets]
    else:
        # the arclengths that regions.cap_arclengths gives the anchored caps
        v, per = domain.vertex_arclength(corner_index), domain.perimeter
        caps = [Cap((v - ua) % per, (v + ub) % per) for ua, ub in offsets]
    regions = [caps[0]]
    regions.extend(Strip(caps[j - 1], caps[j]) for j in range(1, len(caps)))
    tc = TupleCandidate(domain, tuple(regions))
    if validate:
        _raise_if_invalid(tc, f"corner chain at vertex {corner_index}")
    return tc


def corner_schedule_legs(k: int, epsilon: float) -> list[float]:
    """Leg distances t_1 < ... < t_k of the standard corner schedule.

    With delta_j = epsilon ** (-1/(k - j + 1)) for j = 0..k-1, the legs are
    the partial sums t_j = epsilon * (delta_0 + ... + delta_{j-1}).  The
    innermost strip then dominates the tuple with

        max eta = sin(theta/2) * (1 + 2 * epsilon ** (1/(k(k+1)))),

    an exact power law in epsilon (the remaining strips decay strictly
    faster), which is what the convergence-rate tests pin down.

    The values are dimensionless; :func:`corner_tuple` multiplies them by
    the domain perimeter so the construction is scale invariant (eta only
    depends on leg ratios, so the power law is unaffected).
    """
    k, epsilon = _integer("k", k, 1), _positive("epsilon", epsilon)
    if not epsilon < 1.0:
        raise InvalidParameterError(f"epsilon must lie in (0, 1), got {epsilon}")
    deltas = [epsilon ** (-1.0 / (k - j + 1)) for j in range(k)]
    legs = []
    acc = 0.0
    for j in range(k):
        acc += deltas[j]
        legs.append(epsilon * acc)
    return legs


def corner_tuple(
    domain: PlanarDomain, corner_index: int, k: int, epsilon: float = 1e-6
) -> TupleCandidate:
    """Corner chain of k regions at vertex ``corner_index`` with the
    geometric schedule, shrinking epsilon to fit.

    ``epsilon`` controls how tightly the k nested regions hug the corner;
    smaller epsilon pushes every region's eta closer to sin(theta/2).
    Schedule legs are measured in units of the domain perimeter, so the
    resulting tuple (and its eta values) is invariant under rescaling the
    domain.  If the requested epsilon produces a leg that runs off one of
    the two edges at the corner (see :func:`corner_chain_tuple`) or an
    invalid tuple, epsilon is halved up to ``_MAX_HALVINGS`` times before
    giving up.
    """
    epsilon = _positive("epsilon", epsilon)
    last_err: Exception | None = None
    for _ in range(_MAX_HALVINGS + 1):
        legs = [t * domain.perimeter for t in corner_schedule_legs(k, epsilon)]
        if legs[-1] <= 0.245 * domain.perimeter:
            try:
                return corner_chain_tuple(domain, corner_index, legs)
            except (ConstructionFailedError, InvalidGeometryError) as err:
                last_err = err
        epsilon /= 2.0
        if epsilon <= 0.0:
            break
    raise ConstructionFailedError(
        f"corner schedule at vertex {corner_index} (k={k}) "
        f"does not fit even after shrinking epsilon: {last_err}"
    )


def geometric_legs(t_min: float, t_max: float, k: int) -> list[float]:
    """k legs in geometric progression from t_min to t_max (inclusive)."""
    k = _integer("k", k, 1)
    t_min, t_max = _positive("t_min", t_min), _positive("t_max", t_max)
    if not t_min <= t_max:
        raise InvalidParameterError(f"need 0 < t_min <= t_max, got {t_min}, {t_max}")
    if k == 1:
        return [t_max]
    ratio = (t_max / t_min) ** (1.0 / (k - 1))
    return [t_min * ratio**j for j in range(k)]


# ---------------------------------------------------------------------------
# Stripes on a rectangle
# ---------------------------------------------------------------------------


def stripe_tuple(
    domain: PlanarDomain, k: int, stripe_height: Optional[float] = None
) -> TupleCandidate:
    """k parallel stripes across an axis-aligned rectangle.

    Stripes run perpendicular to the long axis, starting from the low end:
    the first region is an end cap of the given height, the rest are bands
    between consecutive cuts.  On a thin rectangle of width 2*eps, every band
    has eta = 2*eps / height.  The default height is 1 (the canonical unit
    stripes, giving eta = 2*eps) whenever k unit stripes fit; otherwise the
    stripes share the extent evenly with one stripe-height of slack.
    """
    k = _integer("k", k, 1)
    edges = domain.edges
    if len(edges) != 4 or not all(isinstance(e, Segment) for e in edges):
        raise NotApplicableError("stripe construction expects an axis-aligned rectangle")
    tol_abs = TAU_GEOM * domain.scale
    for e in edges:
        if abs(e.end[0] - e.start[0]) > tol_abs and abs(e.end[1] - e.start[1]) > tol_abs:
            raise NotApplicableError("stripe construction expects an axis-aligned rectangle")

    x0, y0, x1, y1 = domain.bbox
    axis = 1 if (y1 - y0) >= (x1 - x0) else 0
    lo_u, hi_u = (y0, y1) if axis == 1 else (x0, x1)
    height_total = hi_u - lo_u

    if stripe_height is None:
        slack = max(tol_abs, 1e-12 * height_total)
        stripe_height = 1.0 if k * 1.0 < height_total - slack else height_total / (k + 1)
    stripe_height = _positive("stripe height", stripe_height)
    if k * stripe_height >= height_total - max(tol_abs, 1e-12 * height_total):
        raise ConstructionFailedError(
            f"{k} stripes of height {stripe_height:.6g} do not fit in extent "
            f"{height_total:.6g} (the last cut must stay inside)"
        )

    # the two edges running parallel to the long axis, split by direction
    dec = inc = None
    for i, e in enumerate(edges):
        d = e.end[axis] - e.start[axis]
        if abs(d) > tol_abs:
            if d > 0:
                inc = (i, e)
            else:
                dec = (i, e)
    if inc is None or dec is None:
        raise NotApplicableError("could not identify the two long sides")

    per = domain.perimeter

    def cut(u: float) -> Cap:
        a = (float(domain.cumlens[dec[0]]) + (dec[1].start[axis] - u)) % per
        b = (float(domain.cumlens[inc[0]]) + (u - inc[1].start[axis])) % per
        return Cap(a, b)

    caps = [cut(lo_u + j * stripe_height) for j in range(1, k + 1)]
    regions = [caps[0]]
    regions.extend(Strip(caps[j - 1], caps[j]) for j in range(1, k))
    tc = TupleCandidate(domain, tuple(regions))
    return _raise_if_invalid(tc, f"stripe construction (k={k}, h={stripe_height:.6g})")
