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

import numpy as np

from .errors import InvalidParameterError, NotApplicableError, _finite, _integer, _positive
from .geometry import PlanarDomain, _regular_polygon
from .regions import Cap, _screened_cap_etas, eta_partial, exterior_length

_DEGENERATE_ETA = 1.0

_INEQUALITY_MARGIN = 1e-12  # slack of :func:`symmetrization_inequality_check`
_MONOTONE_SAMPLES = 160  # exterior lengths sampled by :func:`monotonicity_check`
_MONOTONE_MARGIN = 1e-11  # rise that :func:`monotonicity_check` forgives

#: Absolute margin of the NumPy screens of :func:`audit_symmetrization` and
#: :func:`monotonicity_check`.  A screened eta differs from ``eta_partial``'s
#: only where ``np.hypot`` replaces ``math.dist`` (see
#: ``regions._screened_cap_etas``), each within about 1 ulp of the true
#: distance.  Every eta compared here is a cap's on a regular polygon, at
#: most 1 up to rounding, so a screened eta is within about 3 ulp of 1
#: (7e-16) of the exact one, and a slack or a rise, the difference of two
#: etas, within about 2e-15.  A trial whose screened value lies farther than
#: the margin from a threshold falls on the same side of it as its exact
#: value, and the trial of least exact slack lies within twice that error of
#: the least screened one.  1e-12 is several hundred times what either
#: argument needs, so the screen cannot drop the worst trial, a tie or a
#: borderline trial; those are re-measured exactly.
_SCREEN_MARGIN = 1e-12


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


def _degenerate(domain: PlanarDomain, lam):
    """Whether the edge-centered cap of exterior length ``lam`` (a float or
    an array) is degenerate: ``lam <= s``, up to ``1e-12 s``, for the side
    ``s`` of the regular polygon ``domain``."""
    return lam <= domain.perimeter / domain.regular_order * (1.0 + 1e-12)


def symmetrize(domain: PlanarDomain, lam: float):
    """The vertex-centered and edge-centered caps of exterior length ``lam``.

    Returns ``(vertex, edge)`` as :class:`SymmetrizedRegion`.  The
    edge-centered cap with ``lam <= s`` is degenerate (its chord lies on the
    edge) and carries the limit value ``eta = 1``.  An exterior length
    outside ``(0, L/2]``, up to ``1e-12 L``, raises
    :class:`~escobar.errors.InvalidParameterError`.
    """
    if domain.regular_order is None:
        raise NotApplicableError("symmetrization requires a regular polygon")
    per, lam = domain.perimeter, _positive("exterior length", lam)
    if not lam <= per / 2.0 + 1e-12 * per:
        raise InvalidParameterError(
            f"exterior length must lie in (0, L/2], got {lam} (L={per})"
        )
    half = lam / 2.0
    vcap = Cap((per - half) % per, half)
    v_eta = eta_partial(domain, vcap)
    mid = domain.edge_lengths[0] / 2.0
    ecap = Cap((mid - half) % per, (mid + half) % per)
    degenerate = _degenerate(domain, lam)
    e_eta = _DEGENERATE_ETA if degenerate else eta_partial(domain, ecap)
    return (
        SymmetrizedRegion("vertex-centered", vcap, lam, v_eta, False),
        SymmetrizedRegion("edge-centered", ecap, lam, e_eta, degenerate),
    )


def crossover_threshold(n: int) -> float:
    """Exterior length, in units of the side, where the two symmetrized
    profiles exchange minima.

    Below it the vertex-centered value cos(pi/n) is the smaller one; above
    it the edge-centered profile wins.  Always lies in (1, 1.5].
    """
    n = _integer("n", n, 3)
    c1 = math.cos(math.pi / n)
    c2 = math.cos(2.0 * math.pi / n)
    return (1.0 - c2) / (c1 - c2)


def envelope_value(n: int, ell: int) -> float:
    """min over caps of eta at the equal-split length lam = ell * s."""
    n, ell = _integer("n", n, 3), _integer("ell", ell, 1)
    if ell > n // 2:
        raise InvalidParameterError(f"need 1 <= ell <= n//2, got ell={ell}")
    return (
        math.cos(math.pi / n)
        * math.sin(math.pi * ell / n)
        / (ell * math.sin(math.pi / n))
    )


def symmetrization_inequality_check(domain: PlanarDomain, cap: Cap):
    """Check min(symmetrized etas) <= eta(cap) for a cap with lam <= L/2.

    Returns ``(ok, eta_cap, eta_symmetrized_min)``; :func:`symmetrize`
    refuses an exterior length outside its range.
    """
    vertex, edge = symmetrize(domain, exterior_length(domain, cap))
    bound = min(vertex.eta, edge.eta)
    eta = eta_partial(domain, cap)
    return eta >= bound - _INEQUALITY_MARGIN, eta, bound


def _screened_symmetrized(domain: PlanarDomain, lam: np.ndarray):
    """The etas of :func:`symmetrize` for an array of exterior lengths,
    screened (``regions._screened_cap_etas``): ``(vertex, edge)`` arrays."""
    per = domain.perimeter
    half = lam / 2.0
    v_eta = _screened_cap_etas(domain, np.remainder(per - half, per), half)
    mid = domain.edge_lengths[0] / 2.0
    e_eta = _screened_cap_etas(domain, np.remainder(mid - half, per), np.remainder(mid + half, per))
    return v_eta, np.where(_degenerate(domain, lam), _DEGENERATE_ETA, e_eta)


def monotonicity_check(n: int) -> bool:
    """Both symmetrized profiles of D_n are nonincreasing in the exterior
    length: no sampled eta exceeds the one before it by more than 1e-11.

    The profiles are screened in NumPy (:func:`_screened_symmetrized`); a
    rise within ``_SCREEN_MARGIN`` of 1e-11 is decided by :func:`symmetrize`.
    """
    domain = _regular_polygon(n)
    per = domain.perimeter
    lams = np.linspace(per / (2.0 * _MONOTONE_SAMPLES), per / 2.0, _MONOTONE_SAMPLES)
    prof = np.stack(_screened_symmetrized(domain, lams))
    limit = prof[:, :-1] + _MONOTONE_MARGIN
    rises = prof[:, 1:] > limit
    near = ~(np.abs(prof[:, 1:] - limit) > _SCREEN_MARGIN)
    if (rises & ~near).any():
        return False
    for j in np.flatnonzero(near.any(axis=0)).tolist():
        before, after = (symmetrize(domain, float(lam)) for lam in lams[j:j + 2])
        if (
            after[0].eta > before[0].eta + _MONOTONE_MARGIN
            or after[1].eta > before[1].eta + _MONOTONE_MARGIN
        ):
            return False
    return True


def lower_envelope_check(n: int, L0: float) -> EnvelopeCheck:
    """Verify which symmetrized cap of D_n wins at an equal-split length ``L0``.

    ``L0`` must be a whole multiple ``ell * s`` of the side; the winner is
    vertex-centered for odd ``ell`` (its cut points are edge midpoints) and
    edge-centered for even ``ell``, with the closed-form envelope value.
    """
    domain = _regular_polygon(n)
    s, L0 = domain.perimeter / n, _finite("L0", L0)
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


def _screened_audit(slack: np.ndarray, exact) -> tuple[int, float]:
    """``(violations, worst slack)`` of the random-cap trials from their
    screened slacks ``eta - min(symmetrized eta)``.

    ``exact(t)`` re-measures trial ``t`` and returns its exact ``(ok,
    slack)``.  It decides the trials within ``_SCREEN_MARGIN`` of the least
    screened slack, which give the worst slack, and those within it of the
    violation threshold ``-1e-12``, which it counts; every other trial's
    screened verdict is its exact one.
    """
    near_min = np.flatnonzero(slack <= slack.min() + _SCREEN_MARGIN).tolist()
    near_cut = np.abs(slack + _INEQUALITY_MARGIN) <= _SCREEN_MARGIN
    cut = np.flatnonzero(near_cut).tolist()
    checked = {t: exact(t) for t in sorted({*near_min, *cut})}
    violations = int(np.count_nonzero(slack[~near_cut] < -_INEQUALITY_MARGIN))
    violations += sum(not checked[t][0] for t in cut)
    return violations, min(checked[t][1] for t in near_min)


def audit_symmetrization(
    n: int, trials: int = 400, seed: int = 0
) -> SymmetryAuditReport:
    """Monte-Carlo + structural audit of the symmetrization toolkit.

    Random caps with exterior length in (0, L/2] are tested against the
    symmetrized lower bound; the crossover ratio, monotonicity, and the
    equal-split envelope are checked structurally.

    The caps' slacks are screened in NumPy (:func:`_screened_audit`), and
    :func:`symmetrization_inequality_check` re-measures the trials that the
    screen cannot decide, so the report is the one that checking every
    trial gives.  Every exterior length lies in ``[1e-3 L, L/2]``, up to
    rounding far inside :func:`symmetrize`'s ``1e-12 L``, so every slack is
    finite and no trial raises.
    """
    n = _integer("n", n, 3)
    trials, seed = _integer("trials", trials, 1), _integer("seed", seed, 0)
    domain = _regular_polygon(n)
    per = domain.perimeter
    rng = np.random.default_rng(seed)
    # row t is (a, lam): the stream of drawing a, then lam, trial by trial
    draws = rng.uniform([0.0, 1e-3 * per], [per, per / 2.0], size=(trials, 2))

    def exact(t: int) -> tuple[bool, float]:
        a, lam = draws[t].tolist()
        ok, eta, bound = symmetrization_inequality_check(domain, Cap(a, (a + lam) % per))
        return ok, eta - bound

    a, b = draws[:, 0], np.remainder(draws[:, 0] + draws[:, 1], per)
    bound = np.minimum(*_screened_symmetrized(domain, np.remainder(b - a, per)))
    violations, worst = _screened_audit(_screened_cap_etas(domain, a, b) - bound, exact)

    ratio = crossover_threshold(n)
    in_range = 1.0 < ratio <= 1.5 + 1e-12
    monotone = monotonicity_check(n)
    envelope_ok = all(
        lower_envelope_check(n, ell * per / n).ok for ell in range(1, n // 2 + 1)
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
