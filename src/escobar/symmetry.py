"""Cap symmetrization on regular polygons.

For a cap on a regular n-gon whose exterior boundary has length lam <= L/2,
re-centering the cap so that its exterior arc is symmetric about either a
vertex or an edge midpoint can only lower eta.  The minimum of the two
symmetrized values is therefore a certified lower bound for the eta of
*every* cap with that exterior length, which is what turns finitely many
closed-form evaluations into statements about all caps at once.

Closed forms (side length s, n >= 3):

* edge-centered, lam <= s: the "cap" degenerates — its chord runs along the
  edge itself — and eta is reported as the limit value 1;
* edge-centered, s <= lam <= 3s: eta = (s + (lam - s) cos(2 pi/n)) / lam;
* vertex-centered, lam <= 2s: eta = cos(pi/n), independent of lam.

The two profiles cross at lam = s (1 - cos(2 pi/n)) / (cos(pi/n) -
cos(2 pi/n)), which lies in (s, 1.5 s] for every n.  At the equal-split
lengths lam = ell * s the smaller of the two is the one whose cut points
land on edge midpoints: vertex-centered for odd ell, edge-centered for even
ell, with value cos(pi/n) sin(pi ell/n) / (ell sin(pi/n)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidParameterError, NotApplicableError
from .geometry import PlanarDomain, make_regular_polygon
from .regions import Cap, eta_partial

_DEGENERATE_ETA = 1.0

_INEQUALITY_MARGIN = 1e-12  # slack of :func:`symmetrization_inequality_check`
_MONOTONE_SAMPLES = 160  # exterior lengths sampled by :func:`monotonicity_check`


@dataclass(frozen=True)
class SymmetrizedRegion:
    """A cap re-centered on a symmetry axis of the polygon."""

    kind: str  # "vertex-centered" or "edge-centered"
    cap: Cap
    exterior_length: float
    eta: float
    degenerate: bool


@dataclass(frozen=True)
class EnvelopeCheck:
    ok: bool
    ell: int
    expected_kind: str
    expected_value: float
    vertex_eta: float
    edge_eta: float


@dataclass(frozen=True)
class SymmetryAuditReport:
    n: int
    trials: int
    inequality_violations: int
    worst_slack: float  # min over trials of eta(cap) - min(symmetrized)
    crossover_ratio: float  # crossover length in units of the side
    crossover_in_range: bool
    monotone_ok: bool
    envelope_ok: bool

    @property
    def ok(self) -> bool:
        return (
            self.inequality_violations == 0
            and self.crossover_in_range
            and self.monotone_ok
            and self.envelope_ok
        )


def _require_regular(domain: PlanarDomain) -> int:
    n = domain.regular_order
    if n is None:
        raise NotApplicableError("symmetrization requires a regular polygon")
    return n


def symmetrize(domain: PlanarDomain, lam: float):
    """The vertex-centered and edge-centered caps of exterior length ``lam``.

    Returns ``(vertex, edge)`` as :class:`SymmetrizedRegion`.  The
    edge-centered cap with ``lam <= s`` is degenerate (its chord lies on the
    edge) and carries the limit value ``eta = 1``.
    """
    n = _require_regular(domain)
    per = domain.perimeter
    s = per / n
    if not 0.0 < lam <= per / 2.0 + 1e-12 * per:
        raise InvalidParameterError(
            f"exterior length must lie in (0, L/2], got {lam} (L={per})"
        )
    half = lam / 2.0
    vcap = Cap((per - half) % per, half)
    v_eta = eta_partial(domain, vcap)
    mid = domain.edge_lengths[0] / 2.0
    ecap = Cap((mid - half) % per, (mid + half) % per)
    degenerate = lam <= s * (1.0 + 1e-12)
    e_eta = _DEGENERATE_ETA if degenerate else eta_partial(domain, ecap)
    return (
        SymmetrizedRegion("vertex-centered", vcap, lam, v_eta, False),
        SymmetrizedRegion("edge-centered", ecap, lam, e_eta, degenerate),
    )


def crossover_threshold(n: int, side: float = 1.0) -> float:
    """Exterior length where the two symmetrized profiles exchange minima.

    Below it the vertex-centered value cos(pi/n) is the smaller one; above
    it the edge-centered profile wins.  Always lies in (side, 1.5 side].
    """
    if n < 3:
        raise InvalidParameterError(f"regular polygon needs n >= 3, got {n}")
    c1 = math.cos(math.pi / n)
    c2 = math.cos(2.0 * math.pi / n)
    return side * (1.0 - c2) / (c1 - c2)


def envelope_value(n: int, ell: int) -> float:
    """min over caps of eta at the equal-split length lam = ell * s."""
    if n < 3:
        raise InvalidParameterError(f"regular polygon needs n >= 3, got {n}")
    if not 1 <= ell <= n // 2:
        raise InvalidParameterError(f"need 1 <= ell <= n//2, got ell={ell}")
    return (
        math.cos(math.pi / n)
        * math.sin(math.pi * ell / n)
        / (ell * math.sin(math.pi / n))
    )


def symmetrization_inequality_check(domain: PlanarDomain, cap: Cap):
    """Check min(symmetrized etas) <= eta(cap) for a cap with lam <= L/2.

    Returns ``(ok, eta_cap, eta_symmetrized_min)``.
    """
    per = domain.perimeter
    lam = (cap.b - cap.a) % per
    if lam == 0.0 or lam > per / 2.0 + 1e-12 * per:
        raise InvalidParameterError(
            "inequality applies to caps with exterior length in (0, L/2]"
        )
    vertex, edge = symmetrize(domain, lam)
    bound = min(vertex.eta, edge.eta)
    eta = eta_partial(domain, cap)
    return eta >= bound - _INEQUALITY_MARGIN, eta, bound


def monotonicity_check(n: int) -> bool:
    """Both symmetrized profiles are nonincreasing in the exterior length."""
    domain = make_regular_polygon(n)
    per = domain.perimeter
    lams = np.linspace(per / (2.0 * _MONOTONE_SAMPLES), per / 2.0, _MONOTONE_SAMPLES)
    prev_v = prev_e = math.inf
    for lam in lams:
        vertex, edge = symmetrize(domain, float(lam))
        if vertex.eta > prev_v + 1e-11 or edge.eta > prev_e + 1e-11:
            return False
        prev_v, prev_e = vertex.eta, edge.eta
    return True


def lower_envelope_check(
    n: int, L0: float, domain: Optional[PlanarDomain] = None
) -> EnvelopeCheck:
    """Verify which symmetrized cap wins at an equal-split length ``L0``.

    ``L0`` must be a whole multiple ``ell * s`` of the side; the winner is
    vertex-centered for odd ``ell`` (its cut points are edge midpoints) and
    edge-centered for even ``ell``, with the closed-form envelope value.
    """
    if domain is None:
        domain = make_regular_polygon(n)
    elif domain.regular_order != n:
        raise InvalidParameterError("domain is not a regular n-gon of the given n")
    s = domain.perimeter / n
    ell = round(L0 / s)
    if abs(L0 - ell * s) > 1e-9 * domain.perimeter or not 1 <= ell <= n // 2:
        raise InvalidParameterError(
            f"L0 must be ell * s with 1 <= ell <= n//2; got L0={L0}, s={s:.12g}"
        )
    vertex, edge = symmetrize(domain, ell * s)
    expected_kind = "vertex-centered" if ell % 2 else "edge-centered"
    expected = envelope_value(n, ell)
    measured = min(vertex.eta, edge.eta)
    winner = "vertex-centered" if vertex.eta <= edge.eta else "edge-centered"
    ok = winner == expected_kind and abs(measured - expected) <= 1e-9
    return EnvelopeCheck(ok, ell, expected_kind, expected, vertex.eta, edge.eta)


def audit_symmetrization(
    n: int, trials: int = 400, seed: int = 0
) -> SymmetryAuditReport:
    """Monte-Carlo + structural audit of the symmetrization toolkit.

    Random caps with exterior length in (0, L/2] are tested against the
    symmetrized lower bound; the crossover ratio, monotonicity, and the
    equal-split envelope are checked structurally.
    """
    if trials < 1:
        raise InvalidParameterError("need at least one trial")
    domain = make_regular_polygon(n)
    per = domain.perimeter
    rng = np.random.default_rng(seed)
    violations = 0
    worst = math.inf
    for _ in range(trials):
        a = float(rng.uniform(0.0, per))
        lam = float(rng.uniform(1e-3 * per, per / 2.0))
        cap = Cap(a, (a + lam) % per)
        ok, eta, bound = symmetrization_inequality_check(domain, cap)
        worst = min(worst, eta - bound)
        if not ok:
            violations += 1

    ratio = crossover_threshold(n)
    in_range = 1.0 < ratio <= 1.5 + 1e-12
    monotone = monotonicity_check(n)
    envelope_ok = all(
        lower_envelope_check(n, ell * per / n, domain).ok
        for ell in range(1, n // 2 + 1)
    )
    return SymmetryAuditReport(
        n=n,
        trials=trials,
        inequality_violations=violations,
        worst_slack=worst,
        crossover_ratio=ratio,
        crossover_in_range=in_range,
        monotone_ok=monotone,
        envelope_ok=envelope_ok,
    )
