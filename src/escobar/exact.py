"""Closed-form Escobar constants and certified comparisons.

The k-th Escobar constant of a bounded planar domain M is

    I_k(M) = inf max_j eta(Omega_j),

the infimum running over k-tuples of mutually disjoint boundary regions.
Closed forms are known for disks and regular polygons; for general polygons
the corner family of :mod:`escobar.search` reaches the sharpest corner's
``sin(theta_1/2)`` with validated witnesses.  Every returned value is tagged
with how much it certifies: ``exact``, ``upper-bound`` (a valid competitor
or a proven inequality), or ``estimate`` (numerical, uncertified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from . import constructions, regions
from .errors import (
    ConstructionFailedError,
    InvalidGeometryError,
    InvalidParameterError,
    NotApplicableError,
    _finite,
    _integer,
)
from .geometry import PlanarDomain, _regular_polygon, is_disk

#: Numeric tolerance for closed-form comparisons.
TAU_NUM = 1e-9

#: Relative margin of the screen of :func:`_equal_boundary_eta`.  A screened
#: max-eta differs from :func:`regions.max_eta`'s only where ``np.hypot``
#: replaces ``math.dist``, each within about 1 ulp of the true distance, so
#: by a relative 1e-15 at most.  An offset whose exact value is the least
#: then screens within twice that of the least screened value, and 1e-12 is
#: hundreds of times that: the screen cannot drop the winner or a tie.
_SCREEN_REL = 1e-12


class BoundKind(str, Enum):
    EXACT = "exact"
    UPPER_BOUND = "upper-bound"
    ESTIMATE = "estimate"


@dataclass(frozen=True)
class Bound:
    """A value for (or above) an Escobar constant, with its certification."""

    value: float
    kind: BoundKind
    provenance: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.value:.12g} [{self.kind.value}] ({self.provenance})"


def ik_disk(k: int) -> Bound:
    """I_k of the unit disk: sin(pi/k) / (pi/k), with I_1 = 0."""
    k = _integer("k", k, 1)
    if k == 1:
        return Bound(0.0, BoundKind.EXACT, "single region: shrink a cap, eta -> 0")
    x = math.pi / k
    return Bound(
        math.sin(x) / x,
        BoundKind.EXACT,
        "disk closed form sin(pi/k)/(pi/k), attained by k equal-arc caps",
    )


def ik_regular_polygon(n: int, k: int) -> Bound:
    """I_k of the regular n-gon D_n.

    Exact for k >= n (the saturation value cos(pi/n)) and for k dividing n
    (equal boundary split through edge midpoints); otherwise the best
    certified upper bound available in closed form/competitor form.
    """
    n, k = _integer("n", n, 3), _integer("k", k, 1)
    if k == 1:
        return Bound(0.0, BoundKind.EXACT, "single region: shrink a corner cap, eta -> 0")
    if k >= n:
        return Bound(
            math.cos(math.pi / n),
            BoundKind.EXACT,
            "saturation: corner regions force eta >= cos(pi/n) once k >= n",
        )
    if n % k == 0:
        value = math.sin(math.pi / k) * k / (n * math.tan(math.pi / n))
        return Bound(
            value,
            BoundKind.EXACT,
            "equal boundary split through edge midpoints, k | n",
        )
    # k < n, k does not divide n: compare the two certified competitors
    cos_bound = math.cos(math.pi / n)
    candidates = [(cos_bound, "monotonicity: I_k <= I_n = cos(pi/n)")]
    eb = _equal_boundary_eta(n, k)
    if eb is not None:
        candidates.append((eb, "measured equal-boundary competitor from an edge midpoint"))
    value, why = min(candidates, key=lambda t: t[0])
    return Bound(value, BoundKind.UPPER_BOUND, why)


#: What an equal-boundary split or its measurement raises on a bad split.
_CONSTRUCTION_ERRORS = (ConstructionFailedError, InvalidGeometryError, InvalidParameterError)


@lru_cache(maxsize=None)
def _equal_boundary_eta(n: int, k: int):
    """Best max-eta over start offsets of the k-fold equal-boundary split of D_n.

    The offset only matters modulo one symmetry period (perimeter/n).  The
    measured optima of this family sit on anchored cut patterns (cuts through
    vertices or through edge midpoints), both of which lie exactly on the
    sampling grid; in any case every sampled split is itself a competitor, so
    the minimum is a certified upper bound at any resolution.

    All 192 sampled splits are screened in one NumPy pass
    (``regions._screened_cap_etas`` of their 192 k caps).  Only the offsets
    whose screened max-eta lies within a relative ``_SCREEN_REL`` of the
    least are scored exactly, by ``regions.max_eta`` of their plain caps
    (unvalidated), in offset order; the winner is the first exact best
    offset, as a loop over every offset finds it.  Only the winner is built
    by ``constructions.equal_boundary_tuple``, validated and re-measured.
    """
    dom = _regular_polygon(n)
    per = dom.perimeter
    period = per / n
    samples = 192
    # the cuts of equal_boundary_tuple at offset j, one row each, as it computes them
    cuts = np.remainder(
        (np.arange(samples) * period / samples)[:, None] + np.arange(k) * per / k, per
    )
    screened = regions._screened_cap_etas(dom, cuts, np.roll(cuts, -1, axis=1)).max(axis=1)
    # a cap reads inf in both paths alike, when its exterior length is not positive
    near = np.flatnonzero(screened <= screened.min() * (1.0 + _SCREEN_REL)).tolist()
    best_off, best_val = None, math.inf
    for j in near:
        row = cuts[j].tolist()
        caps = tuple(regions.Cap(a, b) for a, b in zip(row, row[1:] + row[:1]))
        val = regions.max_eta(regions.TupleCandidate(dom, caps))
        if val < best_val:
            best_val, best_off = val, j * period / samples
    if best_off is None:
        return None
    try:
        tc = constructions.equal_boundary_tuple(dom, k, start_offset=best_off)
    except _CONSTRUCTION_ERRORS:
        return None
    return regions.max_eta(tc)


def ik_exact(domain: PlanarDomain, k: int) -> Bound:
    """Dispatch to the closed forms when the domain is recognised.

    Raises :class:`~escobar.errors.NotApplicableError` for domains without a
    known closed form (use the search module for those).
    """
    if is_disk(domain):
        return ik_disk(k)
    n = domain.regular_order
    if n is not None:
        return ik_regular_polygon(n, k)
    raise NotApplicableError(
        "no closed form for this domain; only disks and regular polygons are recognised"
    )


def disk_dominance_check(n: int, k: int, *, tol: float = TAU_NUM) -> tuple[bool, Bound, Bound]:
    """Compare I_k(D_n) against I_k(disk) for k < n.

    Returns ``(satisfied, dn_bound, disk_bound)`` where ``satisfied`` means
    the best certified value for D_n does not exceed the disk value (so the
    domination inequality holds for this pair).
    """
    if not 1 <= k < n:
        raise InvalidParameterError(f"comparison needs 1 <= k < n, got k={k}, n={n}")
    tol = _finite("tolerance", tol)
    dn = ik_regular_polygon(n, k)
    dk = ik_disk(k)
    return dn.value <= dk.value + tol, dn, dk
