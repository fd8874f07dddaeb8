"""Numerical search for Escobar constants: enumeration, refinement, corners.

Three cooperating engines produce certified upper bounds (every reported
value is the measured max-eta of a validated tuple):

* :func:`enumerate_caps` — exhaustive minimax search over k caps whose cut
  points lie on a uniform m-point boundary grid, with feasibility and
  incumbent pruning and a combinatorial budget guard;
* :func:`refine_caps` — derivative-free local refinement of a cap tuple
  (SciPy's adaptive Nelder-Mead, ported to Python floats as
  :func:`_nelder_mead`, on a feasibility-penalised objective), never worse
  than its starting point;
* :func:`corner_family_bound` — nested corner caps/strips distributed over
  the convex corners by a greedy minimax allocation, plus, on domains with
  a concave arc, a golden-section sweep of the standard corner schedule.

:func:`estimate_ik` orchestrates all of the above, skipping the cap searches
where no cap tuple exists (:func:`_no_cap_tuple`).
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from math import comb
from typing import Optional, Sequence

import numpy as np

from .constructions import (
    corner_chain_tuple,
    corner_leg_reach,
    corner_schedule_legs,
    equal_boundary_tuple,
    geometric_legs,
)
from .errors import (
    BudgetExceededError,
    ConstructionFailedError,
    InvalidGeometryError,
    InvalidParameterError,
    NotApplicableError,
)
from .exact import Bound, BoundKind, ik_exact
from .geometry import (
    Arc,
    PlanarDomain,
    Segment,
    _interior_chord_ends,
    chord_is_interior,
    chords_cross,
    convex_corner_indices,
    is_disk,
    regular_ngon_order,
)
from .regions import (
    Cap,
    TupleCandidate,
    cap_arclengths,
    corner_admits_anchor,
    eta_partial,
    max_eta,
    tuple_to_json,
    validate_tuple,
)

#: Optimiser tolerance: refinement stops improving below this resolution.
TAU_OPT = 1e-7

# ceiling on enumeration work chosen automatically (explicit grids may go
# up to the configured budget instead)
_ENUM_SOFT_CAP = 3_000_000
_M_CAP_CONVEX = 480
_M_CAP_NONCONVEX = 144

# Anchored corner chains.  _LEG_SPAN_MAX bounds t_max / t_min, relative so
# that chains scale with the domain; _LEG_FLOOR bounds t_min for domains
# smaller than about 1e-9.  The innermost chord, about 2 sin(theta/2) t_min,
# then stays a normal float (above 2.2e-308) at every corner sharper than
# 1e-7 rad.  _LEG_RATIO_MAX bounds the ratio r of consecutive legs: a strip
# exceeds sin(theta/2) by about 2 sin(theta/2) / r, and float64 resolves that
# excess, keeping the measured eta strictly above sin(theta/2) as the exact
# one is, only while r stays far below 1e16.
_LEG_SPAN_MAX = 1e290
_LEG_FLOOR = 1e-300
_LEG_RATIO_MAX = 1e12


@dataclass
class SearchConfig:
    """Knobs for :func:`estimate_ik` and friends."""

    grid_points: Optional[int] = None
    families: tuple[str, ...] = ("caps", "corner-strips")
    restarts: int = 4
    seed: int = 0
    tolerance: float = TAU_OPT
    budget: float = 1e9
    offset_samples: int = 8

    def __post_init__(self):
        known = {"caps", "corner-strips"}
        bad = set(self.families) - known
        if bad:
            raise InvalidParameterError(f"unknown search families: {sorted(bad)}")
        if self.budget <= 0:
            raise InvalidParameterError("budget must be positive")


@dataclass(frozen=True)
class BoundReport:
    """Outcome of a search: a certified value plus its witness and cost."""

    value: float
    kind: BoundKind
    witness: Optional[TupleCandidate]
    method: str
    evaluations: int
    provenance: str
    cross_label: Optional[str] = None


def report_to_json(report: BoundReport) -> dict:
    out = {
        "value": report.value,
        "kind": report.kind.value,
        "method": report.method,
        "evaluations": report.evaluations,
        "provenance": report.provenance,
    }
    if report.cross_label:
        out["cross_label"] = report.cross_label
    if report.witness is not None:
        out["witness"] = tuple_to_json(report.witness)
    return out


# ---------------------------------------------------------------------------
# Grid enumeration
# ---------------------------------------------------------------------------


@dataclass
class _Grid:
    """The uniform m-point boundary grid and the validity data of its chords.

    One rule decides whether the chord from point i to point i + w is valid:
    on a convex domain it is invalid when ``w <= fwd[i]`` or
    ``m - w <= bwd[i]`` (both ends on one straight edge); with ``valid`` set
    it is valid when ``valid[i, (i + w) % m]``; otherwise (a nonconvex grid
    without full validity) every chord counts as valid.
    """

    m: int
    step: float
    svals: np.ndarray
    pts: np.ndarray
    period: int
    convex: bool
    full_validity: bool  # False while the validity mask is geometric-only
    fwd: Optional[np.ndarray]
    bwd: Optional[np.ndarray]
    valid: Optional[np.ndarray]


@dataclass
class _GridTables(_Grid):
    eta: list  # eta[i][w], validity folded in as +inf
    min_eta_by_width: list


def _grid_period(domain: PlanarDomain, m: int) -> int:
    if is_disk(domain):
        return 1
    n = regular_ngon_order(domain)
    if n is not None and m % n == 0:
        return m // n
    return m


def _edge_runs(domain: PlanarDomain, svals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Steps ``(fwd[i], bwd[i])`` from grid point i to the farthest point
    that shares a straight edge with it, going forward and backward.

    This is the flat-edge rule of :func:`chord_is_interior`, vectorised over
    the grid of a convex domain, with one difference: the rule puts a point
    on both edges at a vertex only when it sits exactly there, and this
    form does so within ``1e-12`` of the perimeter of the vertex on either
    side.  Otherwise a point lies on the edge
    :meth:`PlanarDomain.edge_index_at` gives it.  The points of one edge
    thus have arclengths in one interval and form a run of consecutive
    indices, which may wrap past index m - 1.
    """
    m, n = len(svals), len(domain.edges)
    cumlens = np.array(domain.cumlens)
    # edge_index_at for every point at once (svals lie in [0, perimeter))
    edge = np.clip(np.searchsorted(cumlens, svals, side="right") - 1, 0, n - 1)
    t = svals - cumlens[edge]
    near = 1e-12 * domain.perimeter
    after_vertex = t <= near
    before_vertex = np.array(domain.edge_lengths)[edge] - t <= near
    fwd = np.zeros(m, dtype=np.int64)
    bwd = np.zeros(m, dtype=np.int64)
    for e, piece in enumerate(domain.edges):
        if not isinstance(piece, Segment):
            continue
        on_e = (
            (edge == e)
            | (after_vertex & (edge == (e + 1) % n))
            | (before_vertex & (edge == (e - 1) % n))
        )
        idx = np.flatnonzero(on_e)
        if not len(idx):
            continue
        gap = np.flatnonzero(np.diff(idx) > 1)  # where a wrapping run restarts
        start = idx[gap[0] + 1] if len(gap) else idx[0]
        pos = (idx - start) % m
        fwd[idx] = np.maximum(fwd[idx], len(idx) - 1 - pos)
        bwd[idx] = np.maximum(bwd[idx], pos)
    return fwd, bwd


def _prepare_grid(domain: PlanarDomain, m: int, *, full_validity: bool) -> _Grid:
    """The m-point grid; its eta values come from :func:`_eta_block`.

    Convex domains always get their exact (geometric) validity rule.  On a
    nonconvex domain ``full_validity`` tests every chord with
    :func:`chord_is_interior`, O(m^2) calls.
    """
    per = domain.perimeter
    step = per / m
    svals = np.arange(m) * step
    pts = np.array([domain.point_at(float(s)) for s in svals])
    fwd = bwd = valid = None
    if domain.is_convex:
        fwd, bwd = _edge_runs(domain, svals)
    elif full_validity:
        valid = np.ones((m, m), dtype=bool)
        for i in range(m):
            for j in range(i + 1, m):
                ok = chord_is_interior(domain, float(svals[i]), float(svals[j]))
                valid[i, j] = valid[j, i] = ok
    return _Grid(
        m=m,
        step=step,
        svals=svals,
        pts=pts,
        period=_grid_period(domain, m),
        convex=domain.is_convex,
        full_validity=domain.is_convex or full_validity,
        fwd=fwd,
        bwd=bwd,
        valid=valid,
    )


def _eta_block(grid: _Grid, w0: int, w1: int) -> np.ndarray:
    """``eta[i, w - w0] = |P_i P_{i+w}| / (w * step)`` for widths w0 <= w < w1.

    Invalid chords and width 0 read +inf.  Over all widths this is the full
    table of :func:`_grid_tables`.
    """
    m = grid.m
    rows = np.arange(m)[:, None]
    widths = np.arange(w0, w1)
    jdx = (rows + widths) % m
    x, y = grid.pts[:, 0], grid.pts[:, 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = np.hypot(x[:, None] - x[jdx], y[:, None] - y[jdx]) / (widths * grid.step)
    if grid.fwd is not None:
        eta[(widths <= grid.fwd[:, None]) | (m - widths <= grid.bwd[:, None])] = np.inf
    elif grid.valid is not None:
        eta[~grid.valid[rows, jdx]] = np.inf
    if w0 == 0:
        eta[:, 0] = np.inf
    return eta


def _grid_tables(grid: _Grid, blocks: Sequence[np.ndarray] = ()) -> _GridTables:
    """The full eta table of ``grid``, reusing ``blocks`` of widths [1, w)."""
    done = 1 + sum(b.shape[1] for b in blocks)
    eta = np.hstack([_eta_block(grid, 0, 1), *blocks, _eta_block(grid, done, grid.m)])
    return _GridTables(
        **vars(grid), eta=eta.tolist(), min_eta_by_width=np.min(eta, axis=0).tolist()
    )


def _grid_seeds(domain: PlanarDomain, k: int, grid: _Grid):
    """Deterministic incumbent tuples on the grid (value, cuts) or (inf, None)."""
    m = grid.m
    if m % k == 0:
        w = m // k
        seeds = [
            [off + j * w + d for j in range(k) for d in (0, w)] for off in range(min(w, 64))
        ]
    else:
        bases = [round(j * m / k) for j in range(k + 1)]
        seeds = [
            [off + bases[j + d] for j in range(k) for d in (0, 1)] for off in range(min(4, m))
        ]
    # the seeds use at most two cap widths: read only those columns
    widths = {b - a for cuts in seeds for a, b in zip(cuts[::2], cuts[1::2]) if 0 < b - a < m}
    eta = {w: _eta_block(grid, w, w + 1)[:, 0].tolist() for w in widths}
    best = math.inf
    best_cuts = None

    def consider(cuts: list[int]) -> None:
        nonlocal best, best_cuts
        val = 0.0
        for j in range(k):
            a, b = cuts[2 * j], cuts[2 * j + 1]
            w = b - a
            if w <= 0 or w >= m:
                return
            e = eta[w][a % m]
            if e >= best:
                return
            val = max(val, e)
        if not grid.convex and not _cuts_chords_ok(grid, cuts, domain.scale):
            return
        if not grid.full_validity:
            # geometric table only: verify the candidate's chords for real
            for j in range(k):
                a, b = cuts[2 * j], cuts[2 * j + 1]
                if not chord_is_interior(
                    domain, float(grid.svals[a % m]), float(grid.svals[b % m])
                ):
                    return
        if val < best:
            best, best_cuts = val, list(cuts)

    for cuts in seeds:
        consider(cuts)
    return best, best_cuts


def _cuts_chords_ok(tables: _Grid, cuts: Sequence[int], scale: float) -> bool:
    """Whether no two chords of the cut list cross or overlap (needed on
    nonconvex domains only); identical chords may coexist."""
    pts = [tuple(tables.pts[c % tables.m]) for c in cuts]
    for (p1, q1), (p2, q2) in itertools.combinations(zip(pts[::2], pts[1::2]), 2):
        same = (p1 == p2 and q1 == q2) or (p1 == q2 and q1 == p2)
        if not same and chords_cross(p1, q1, p2, q2, scale):
            return False
    return True


def _w_min_for(tables: _GridTables, best: float) -> int:
    w = 1
    min_eta = tables.min_eta_by_width
    while w < tables.m and min_eta[w] >= best - 1e-12:
        w += 1
    return w


def _enum_estimate(m: int, k: int, period: int, w_min: int) -> int:
    slack = m - k * w_min
    if slack < 0:
        return 0
    return period * comb(slack + 2 * k - 1, 2 * k - 1)


def _budget_error(m: int, k: int, estimate: int, budget: float) -> BudgetExceededError:
    return BudgetExceededError(
        f"enumeration on m={m}, k={k} needs an estimated {estimate:.3g} nodes "
        f"(budget {budget:.3g})",
        estimate=float(estimate),
        budget=float(budget),
    )


def _scan_estimate(
    domain: PlanarDomain, k: int, grid: _Grid, budget: float
) -> tuple[int, list[np.ndarray]]:
    """The enumeration estimate of ``grid`` if it exceeds ``budget``, else a
    value at most ``budget``; and the eta blocks scanned to decide it.

    The estimate does not increase with ``w_min``, so it exceeds the budget
    exactly when some width below ``w_fit``, the least width whose estimate
    fits, has a column minimum that beats the seeds (``< best - 1e-12``).
    Blocks of doubling width ``[1, 2), [2, 4), ...`` are scanned up to
    ``w_fit`` and the scan stops at the first width that beats the seeds,
    which is then ``w_min`` exactly.
    """
    m = grid.m
    best, _cuts = _grid_seeds(domain, k, grid)
    w_fit = 1 + bisect.bisect_left(
        range(1, m + 1), True, key=lambda w: _enum_estimate(m, k, grid.period, w) <= budget
    )
    w_stop = min(w_fit, m)
    blocks: list[np.ndarray] = []
    w0 = 1
    while w0 < w_stop:
        block = _eta_block(grid, w0, min(2 * w0, w_stop))
        # not (>=): exactly where _w_min_for's loop would stop
        beats = np.flatnonzero(~(np.min(block, axis=0) >= best - 1e-12))
        if len(beats):
            return _enum_estimate(m, k, grid.period, w0 + int(beats[0])), blocks
        blocks.append(block)
        w0 += block.shape[1]
    return _enum_estimate(m, k, grid.period, w_stop), blocks


def enumerate_caps(
    domain: PlanarDomain, k: int, m: int, *, budget: float = 1e9
) -> BoundReport:
    """Minimax-optimal k caps with cut points on the uniform m-point grid.

    Cut points may be shared between adjacent caps but each cap's arc must
    have positive width.  Refuses to start (raising
    :class:`~escobar.errors.BudgetExceededError`) when a combinatorial
    estimate of the pruned search exceeds ``budget``; the estimate uses the
    minimum cap width ``w_min`` that could still improve on the
    deterministic seeds, and it does not increase as ``w_min`` grows.  On a
    convex domain the refusal comes before the O(m^2) eta table is built:
    it is enough that some width below the least fitting ``w_min`` beats
    the seeds, which a scan of a few columns decides.  On a nonconvex
    domain the scan's geometric-only columns would only bound the estimate
    from above (full validity can raise ``w_min``), so the table with every
    chord tested is built first.
    """
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if m < 2 * k:
        raise InvalidParameterError(f"grid needs at least 2k points, got m={m}, k={k}")
    if m > 5000:
        raise InvalidParameterError(f"grid too fine (m={m} > 5000)")
    grid = _prepare_grid(domain, m, full_validity=True)
    blocks: list[np.ndarray] = []
    if grid.convex:
        estimate, blocks = _scan_estimate(domain, k, grid, budget)
        if estimate > budget:
            raise _budget_error(m, k, estimate, budget)
    return _run_enumeration(domain, k, _grid_tables(grid, blocks), budget)


def _run_enumeration(
    domain: PlanarDomain, k: int, tables: _GridTables, budget: float
) -> BoundReport:
    m = tables.m
    period = tables.period
    eta = tables.eta
    need_cross = not tables.convex

    best, best_cuts = _grid_seeds(domain, k, tables)
    w_min = _w_min_for(tables, best)
    estimate = _enum_estimate(m, k, period, w_min)
    if estimate > budget:
        raise _budget_error(m, k, estimate, budget)

    nodes = 0
    end_abs = 0  # set per c0

    def dfs(cap_idx: int, pos: int, cuts: list[int], running: float) -> None:
        nonlocal nodes, best, best_cuts, w_min
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"enumeration stopped after {nodes} nodes (budget {budget:.3g})",
                estimate=float(nodes),
                budget=float(budget),
            )
        if cap_idx == k:
            if need_cross and not _cuts_chords_ok(tables, cuts, domain.scale):
                return
            best = running
            best_cuts = list(cuts)
            w_min = _w_min_for(tables, best)
            return
        remaining_after = k - cap_idx - 1
        if cap_idx == 0:
            starts = (pos,)
        else:
            starts = range(pos, end_abs - w_min * (remaining_after + 1) + 1)
        for start in starts:
            w_cap = end_abs - start - w_min * remaining_after
            row = eta[start % m]
            for w in range(w_min, w_cap + 1):
                e = row[w]
                if e < best:
                    cuts.append(start)
                    cuts.append(start + w)
                    dfs(cap_idx + 1, start + w, cuts, max(running, e))
                    cuts.pop()
                    cuts.pop()

    try:
        for c0 in range(period):
            end_abs = c0 + m
            if m - k * w_min >= 0:
                dfs(0, c0, [], 0.0)
    finally:
        # dfs reaches itself through its closure; emptying that cell frees
        # the table now instead of at the next run of the cycle collector
        del dfs

    if best_cuts is None:
        return BoundReport(
            math.inf, BoundKind.ESTIMATE, None, f"enumeration m={m}",
            nodes, "no valid tuple on this grid",
        )
    caps = tuple(
        Cap(
            float(tables.svals[best_cuts[2 * j] % m]),
            float(tables.svals[best_cuts[2 * j + 1] % m]),
        )
        for j in range(k)
    )
    witness = TupleCandidate(domain, caps)
    violations = validate_tuple(witness)
    if violations:
        raise ConstructionFailedError(
            f"enumeration produced an invalid witness: {violations[0].detail}"
        )
    value = max_eta(witness)
    return BoundReport(
        value, BoundKind.UPPER_BOUND, witness, f"enumeration m={m}",
        nodes, f"grid minimax over {k} caps, period {period}",
    )


# ---------------------------------------------------------------------------
# Local refinement
# ---------------------------------------------------------------------------


class _CallLimit(Exception):
    """Raised by :func:`_nelder_mead` in place of a call past ``maxfev``."""


def _nelder_mead(fun, x0: Sequence[float], xatol: float, fatol: float, maxfev: int):
    """Minimise ``fun`` over Python lists by SciPy 1.17's adaptive
    Nelder-Mead (``minimize(method="Nelder-Mead", options={"adaptive":
    True, "xatol", "fatol", "maxfev"})``, Gao & Han 2012), operation for
    operation: it evaluates the same points in the same order and returns
    its best vertex and value.  ``fun`` gets each point as a list, which it
    must not change.  The port keeps SciPy's semantics where they show:

    * the simplex is ordered by ``np.argsort`` of its scores, twice after
      the initial simplex and once per iteration; it is not stable on ties;
    * the centroid adds each column in row order and then divides (not
      ``sum()``, which compensates from Python 3.12 on);
    * a call past ``maxfev`` is refused, also within the initial simplex or
      a shrink, where the shrunk vertex then keeps its old score;
    * the convergence test is false when a difference is NaN.
    """
    n = len(x0)
    dim = float(n)
    rho = 1
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim
    c_expand, d_expand = 1 + rho * chi, rho * chi
    c_contract, d_contract = 1 + psi * rho, psi * rho
    calls = 0

    def f(x: list[float]) -> float:
        nonlocal calls
        if calls >= maxfev:
            raise _CallLimit
        calls += 1
        return fun(x)

    sim = [list(x0)]
    for i in range(n):
        y = list(x0)
        y[i] = (1 + 0.05) * y[i] if y[i] != 0 else 0.00025
        sim.append(y)
    fsim = [math.inf] * (n + 1)

    def order() -> None:
        ind = np.argsort(np.array(fsim, dtype=float)).tolist()
        sim[:] = [sim[i] for i in ind]
        fsim[:] = [fsim[i] for i in ind]

    try:
        for i in range(n + 1):
            fsim[i] = f(sim[i])
    except _CallLimit:
        pass
    order()
    order()

    while calls < maxfev:
        try:
            best, fbest = sim[0], fsim[0]
            if all(abs(v - b) <= xatol for x in sim[1:] for v, b in zip(x, best)) and all(
                abs(fbest - fv) <= fatol for fv in fsim[1:]
            ):
                break  # before the sort: SciPy's loop sorts after its try, not in a finally
            xbar = [functools.reduce(operator.add, col) / n for col in zip(*sim[:-1])]
            worst = sim[-1]
            xr = [(1 + rho) * a - rho * w for a, w in zip(xbar, worst)]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = [c_expand * a - d_expand * w for a, w in zip(xbar, worst)]
                fxe = f(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                doshrink = False
                if fxr < fsim[-1]:
                    xc = [c_contract * a - d_contract * w for a, w in zip(xbar, worst)]
                    fxc = f(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        doshrink = True
                else:
                    xcc = [(1 - psi) * a + psi * w for a, w in zip(xbar, worst)]
                    fxcc = f(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        doshrink = True
                if doshrink:
                    for j in range(1, n + 1):
                        sim[j] = [b + sigma * (v - b) for v, b in zip(sim[j], best)]
                        fsim[j] = f(sim[j])
        except _CallLimit:
            pass
        order()
    return sim[0], fsim[0]


def _cuts_of(tc: TupleCandidate) -> list[float]:
    cuts: list[float] = []
    for r in tc.regions:
        if not isinstance(r, Cap):
            raise NotApplicableError("refinement handles all-cap tuples only")
        cuts.extend(cap_arclengths(tc.domain, r))
    return cuts


def refine_caps(
    domain: PlanarDomain,
    initial: TupleCandidate | Sequence[float],
    config: Optional[SearchConfig] = None,
) -> BoundReport:
    """Nelder-Mead refinement of a cap tuple (never worse than ``initial``).

    The 2k cut positions are optimised directly; infeasible orderings and
    non-interior chords are pushed back by a large penalty, and the best
    *valid* tuple ever evaluated is what gets reported.  Each of
    ``config.restarts`` runs (the first from the start, the others from
    seeded normal draws around it) is SciPy's adaptive Nelder-Mead with
    ``xatol``, ``fatol`` and ``maxfev``, ported to Python floats as
    :func:`_nelder_mead`: it evaluates the points SciPy would, in its order,
    so values, evaluation counts and witnesses are SciPy's.

    The objective scores an ordered vector as ``1e3 + violation`` when the
    cuts are out of order, ``500 + bad`` when ``bad`` chords are not
    interior, ``400`` when a nonconvex domain's tuple fails
    :func:`validate_tuple` otherwise, and else the tuple's max eta.  It
    works on Python floats.  On a convex domain one call of
    the chord kernel behind :func:`chord_is_interior` per cap gives both the
    verdict and the chord's end points, and the cap's eta is their distance
    over ``(b - a) mod P``: the operations of :func:`eta_partial`, in its
    order, so the scores are bit-identical.  On a nonconvex domain it runs
    :func:`validate_tuple` first and re-tests only the chords of caps
    flagged ``region-invalid``, which gives the same scores with one chord
    test per cap.
    """
    config = config or SearchConfig()
    per = domain.perimeter
    cuts0 = _cuts_of(initial) if isinstance(initial, TupleCandidate) else initial
    x0 = [float(c) for c in cuts0]
    if len(x0) < 2 or len(x0) % 2:
        raise InvalidParameterError("need an even number of cut positions (2 per cap)")
    k = len(x0) // 2
    # unwrap into an increasing vector so the pattern test is linear
    for i in range(1, 2 * k):
        while x0[i] < x0[i - 1] - 1e-12 * per:
            x0[i] += per

    state = {"best": math.inf, "x": None, "evals": 0}
    min_w = 1e-9 * per

    def objective(xl: list[float]) -> float:
        state["evals"] += 1
        viol = 0.0
        for j in range(k):
            w = xl[2 * j + 1] - xl[2 * j]
            if w < min_w:
                viol += min_w - w
        for j in range(k - 1):
            g = xl[2 * j + 2] - xl[2 * j + 1]
            if g < 0.0:
                viol += -g
        wrap = (xl[0] + per) - xl[2 * k - 1]
        if wrap < 0.0:
            viol += -wrap
        if viol > 0.0:
            return 1e3 + viol / per
        bad = 0
        val = 0.0
        if domain.is_convex:
            for j in range(k):
                a = xl[2 * j] % per
                b = xl[2 * j + 1] % per
                ends = _interior_chord_ends(domain, a, b)
                if ends is None:
                    bad += 1
                    continue
                ext = (b - a) % per
                val = max(val, math.inf if ext <= 0.0 else math.dist(*ends) / ext)
            if bad:
                return 500.0 + bad
        else:
            caps = tuple(Cap(xl[2 * j] % per, xl[2 * j + 1] % per) for j in range(k))
            # Validate first, so each chord is tested once; the scores equal
            # those of testing every chord (500 + bad) before validating
            # (400).  validate_tuple makes the same chord_is_interior(domain,
            # a, b, tol=TAU_GEOM) call on every cap whose exterior length
            # passes: a cap it does not flag region-invalid has passed that
            # call, no violations at all means bad == 0, and a flagged cap is
            # tested again here.  It raises only from those chord calls, so
            # it raises only on tuples where testing every chord raises as
            # well.
            violations = validate_tuple(TupleCandidate(domain, caps))
            if violations:
                flagged = {v.first for v in violations if v.predicate == "region-invalid"}
                bad = sum(not chord_is_interior(domain, caps[i].a, caps[i].b) for i in flagged)
                return 500.0 + bad if bad else 400.0
            for c in caps:
                val = max(val, eta_partial(domain, c))
        if val < state["best"]:
            state["best"] = val
            state["x"] = list(xl)
        return val

    v0 = objective(x0)
    if not math.isfinite(v0) or v0 >= 400.0:
        raise InvalidParameterError("refinement needs a valid starting tuple")

    rng = np.random.default_rng(config.seed)
    sigma = 0.25 * per / (4 * k)
    maxfev = 300 + 150 * k
    for r in range(max(1, config.restarts)):
        xs = x0 if r == 0 else (np.array(x0) + rng.normal(0.0, sigma, size=2 * k)).tolist()
        _nelder_mead(
            objective, xs, 1e-3 * config.tolerance * per, 1e-2 * config.tolerance, maxfev
        )

    xb = state["x"]
    caps = tuple(Cap(xb[2 * j] % per, xb[2 * j + 1] % per) for j in range(k))
    witness = TupleCandidate(domain, caps)
    if validate_tuple(witness):
        # numerical edge: fall back to the starting tuple
        caps = tuple(Cap(x0[2 * j] % per, x0[2 * j + 1] % per) for j in range(k))
        witness = TupleCandidate(domain, caps)
    value = max_eta(witness)
    return BoundReport(
        value, BoundKind.UPPER_BOUND, witness, "nelder-mead",
        state["evals"], f"local refinement from {v0:.12g}",
    )


# ---------------------------------------------------------------------------
# Corner family
# ---------------------------------------------------------------------------


def _corner_geometry(domain: PlanarDomain, c: int) -> tuple[float, float, float]:
    """(theta, t_floor, t_max) for chains at convex corner ``c``.

    ``t_max`` is the outermost leg and ``t_floor`` the smallest leg a chain
    may use.  Chains at a corner that admits anchored caps keep their cut
    points as offsets from the vertex, so ``t_floor`` is bounded only by
    float64 (:data:`_LEG_SPAN_MAX`).  Elsewhere cut points are arclengths,
    resolved to about 1e-16 of the perimeter, and ``t_floor`` stays at 1e-8
    of it.
    """
    n = len(domain.edges)
    theta = domain.interior_angles[c]
    if corner_admits_anchor(domain, c):
        t_max = 0.45 * corner_leg_reach(domain, c)
        return theta, max(t_max / _LEG_SPAN_MAX, _LEG_FLOOR), t_max
    prev_len = domain.edge_lengths[(c - 1) % n]
    next_len = domain.edge_lengths[c]
    t_max = 0.45 * min(prev_len, next_len)
    t_min = max(1e-8 * domain.perimeter, 1e-9 * t_max)
    if t_min >= t_max:
        t_min = t_max / 4.0
    return theta, t_min, t_max


def _chain_legs(t_floor: float, t_max: float, d: int) -> list[float]:
    """Legs of a d-deep geometric chain ending at ``t_max``.

    The ratio between consecutive legs is as large as ``t_floor`` allows,
    but at most :data:`_LEG_RATIO_MAX`.
    """
    return geometric_legs(max(t_floor, t_max * _LEG_RATIO_MAX ** -(d - 1)), t_max, d)


def _chain_eta_model(theta: float, t_floor: float, t_max: float, d: int) -> float:
    """Predicted max eta of the d-deep chain :func:`_chain_legs` builds."""
    s = math.sin(theta / 2.0)
    if d <= 1:
        return s
    r = min((t_max / t_floor) ** (1.0 / (d - 1)), _LEG_RATIO_MAX)
    if r <= 1.0:
        return math.inf
    return s * (r + 1.0) / (r - 1.0)


def corner_family_bound(
    domain: PlanarDomain, k: int, config: Optional[SearchConfig] = None
) -> BoundReport:
    """Upper bound from nested corner regions spread over the convex corners.

    A greedy minimax allocation distributes the k regions over the corners
    (each corner receives a geometric chain of caps/strips).  On a domain
    with a concave arc, where a cap's ratio grows with its legs and the
    allocation's long legs can lose, a golden-section sweep of the
    single-corner schedule at the sharpest corner is also tried; elsewhere
    it never won.  At corners that admit anchored caps a chain's legs may
    span a factor 1e290, so a d-deep chain there comes within about
    2 sin(theta/2) / r of sin(theta/2), with leg ratio
    r = min(1e12, 1e290 ** (1/(d-1))).
    """
    config = config or SearchConfig()
    corners = convex_corner_indices(domain)
    if not corners:
        raise NotApplicableError("domain has no strictly convex corner")
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    evals = 0

    geom = {c: _corner_geometry(domain, c) for c in corners}

    # greedy minimax allocation: repeatedly give the next region to the
    # corner whose chain grows the least
    alloc = {c: 0 for c in corners}
    heap = []
    for c in corners:
        theta, t0, t1 = geom[c]
        heapq.heappush(heap, (_chain_eta_model(theta, t0, t1, 1), theta, c, 1))
    for _ in range(k):
        val, theta, c, d = heapq.heappop(heap)
        alloc[c] = d
        t0, t1 = geom[c][1], geom[c][2]
        heapq.heappush(heap, (_chain_eta_model(theta, t0, t1, d + 1), theta, c, d + 1))

    candidates: list[tuple[float, TupleCandidate, str]] = []

    regions = []
    try:
        shrink = 1.0
        for attempt in range(6):
            regions = []
            try:
                for c in corners:
                    if alloc[c] == 0:
                        continue
                    theta, t0, t1 = geom[c]
                    legs = _chain_legs(t0, t1 * shrink, alloc[c])
                    part = corner_chain_tuple(domain, c, legs, validate=False)
                    regions.extend(part.regions)
                tc = TupleCandidate(domain, tuple(regions))
                evals += 1
                if validate_tuple(tc):
                    raise ConstructionFailedError("allocation tuple invalid")
                candidates.append((max_eta(tc), tc, "corner-allocation"))
                break
            except (ConstructionFailedError, InvalidGeometryError):
                shrink *= 0.5
    except InvalidParameterError:
        pass

    sharpest = min(corners, key=lambda c: (geom[c][0], c))

    def sweep_objective(log_eps: float) -> float:
        nonlocal evals
        evals += 1
        try:
            scale = domain.perimeter
            legs = [t * scale for t in corner_schedule_legs(k, 10.0**log_eps)]
            tc = corner_chain_tuple(domain, sharpest, legs)
        except (ConstructionFailedError, InvalidGeometryError, InvalidParameterError):
            return 2.0  # finite plateau keeps the bounded minimiser stable
        val = max_eta(tc)
        sweep_results.append((val, tc))
        return val

    sweep_results: list[tuple[float, TupleCandidate]] = []
    if any(isinstance(e, Arc) and not e.ccw for e in domain.edges):
        from scipy.optimize import minimize_scalar

        minimize_scalar(
            sweep_objective,
            bounds=(-14.0, math.log10(0.2)),
            method="bounded",
            options={"xatol": 0.05, "maxiter": 40},
        )
    if sweep_results:
        val, tc = min(sweep_results, key=lambda t: t[0])
        candidates.append((val, tc, "corner-schedule"))

    if not candidates:
        raise ConstructionFailedError(
            f"no corner construction fits this domain for k={k}"
        )
    value, witness, method = min(candidates, key=lambda t: t[0])
    theta_min = geom[sharpest][0]
    return BoundReport(
        value, BoundKind.UPPER_BOUND, witness, method, evals,
        f"nested corner regions; sharpest corner angle {theta_min:.12g}",
    )


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def _grid_candidates(domain: PlanarDomain, k: int) -> list[int]:
    m_cap = _M_CAP_CONVEX if domain.is_convex else _M_CAP_NONCONVEX
    units = set()
    if is_disk(domain):
        units.add(2 * k)
    else:
        n = regular_ngon_order(domain)
        if n is not None:
            units.add(n)
            units.add(math.lcm(n, 2 * k))
        else:
            units.add(2 * k)
    out = set()
    for u in units:
        j = 1
        while j * u <= m_cap:
            if j * u >= 2 * k:
                out.add(j * u)
            j += 1
    return sorted(out, reverse=True)


def _auto_enumerate(
    domain: PlanarDomain, k: int, config: SearchConfig
) -> Optional[BoundReport]:
    """Pick the finest grid whose estimated cost fits, then enumerate.

    A grid size is skipped when its estimate exceeds the soft budget: the
    estimate does not increase with ``w_min``, so that happens exactly when
    some width below ``w_fit`` (the least ``w_min`` whose estimate fits)
    beats the seeds, and only those columns are computed
    (:func:`_scan_estimate`).  On a nonconvex domain the columns are
    geometric-only, so the estimate bounds the full-validity one from above
    and a grid may be skipped that full validity would have let through.
    Only a grid that fits gets its full table.
    """
    soft = min(config.budget, _ENUM_SOFT_CAP)
    for m in _grid_candidates(domain, k):
        light = _prepare_grid(domain, m, full_validity=False)
        estimate, blocks = _scan_estimate(domain, k, light, soft)
        if estimate > soft:
            continue
        if light.full_validity:
            tables = _grid_tables(light, blocks)
        else:
            tables = _grid_tables(_prepare_grid(domain, m, full_validity=True))
        try:
            return _run_enumeration(domain, k, tables, soft)
        except BudgetExceededError:
            continue
    return None


def _equal_boundary_report(
    domain: PlanarDomain, k: int, config: SearchConfig
) -> Optional[BoundReport]:
    per = domain.perimeter
    offsets = []
    for i in range(len(domain.edges)):
        offsets.append(float(domain.cumlens[i]) + domain.edge_lengths[i] / 2.0)
    offsets.extend(j * per / (k * max(1, config.offset_samples)) for j in range(config.offset_samples))
    best = None
    evals = 0
    for off in offsets:
        try:
            tc = equal_boundary_tuple(domain, k, off)
        except (ConstructionFailedError, InvalidGeometryError):
            continue
        evals += 1
        val = max_eta(tc)
        if best is None or val < best[0]:
            best = (val, tc, off)
    if best is None:
        return None
    return BoundReport(
        best[0], BoundKind.UPPER_BOUND, best[1], "equal-boundary", evals,
        f"equal boundary split, offset {best[2]:.12g}",
    )


def _cross_label(domain: PlanarDomain, k: int, value: float, tol: float) -> Optional[str]:
    try:
        known: Bound = ik_exact(domain, k)
    except (NotApplicableError, InvalidParameterError):
        return None
    diff = value - known.value
    if known.kind is BoundKind.EXACT:
        if abs(diff) <= tol:
            return f"matches closed form {known.value:.12g}"
        if diff < 0:
            return (
                f"below closed form {known.value:.12g} by {-diff:.3g} "
                "(numerical witness inconsistency)"
            )
        return f"above closed form {known.value:.12g} by {diff:.3g}"
    if diff <= tol:
        return f"at or below closed-form upper bound {known.value:.12g}"
    return f"above closed-form upper bound {known.value:.12g} by {diff:.3g}"


def _no_cap_tuple(domain: PlanarDomain, k: int) -> bool:
    """Whether no valid tuple of k caps exists: every edge is straight or a
    concave arc, and k exceeds the number of edges (and so of vertices).

    A cap whose exterior arc holds no vertex in its open interior has its
    chord along one straight edge or across one concave arc, outside the
    domain, and :func:`validate_tuple` flags it.  The open arcs of a tuple
    are disjoint, so distinct caps need distinct vertices.  (Validation lets
    two arcs overlap by ``TAU_GEOM`` times the perimeter, but the equal
    splits and the grids give neighbouring caps the same cut point, and
    refinement starts only from a tuple of theirs.)
    """
    return k > len(domain.edges) and all(
        isinstance(e, Segment) or not e.ccw for e in domain.edges
    )


def estimate_ik(
    domain: PlanarDomain, k: int, config: Optional[SearchConfig] = None
) -> BoundReport:
    """Best certified upper bound for I_k(domain) across all search families.

    Every finite result is the measured max-eta of a validated tuple; the
    report records which engine produced it and how much work was spent.
    ``config.grid_points`` forces a specific enumeration grid (budget errors
    then propagate); otherwise the grid is chosen automatically, and the
    cap family (equal splits, enumeration, refinement) is skipped where
    :func:`_no_cap_tuple` shows that it has no tuple to find.
    """
    config = config or SearchConfig()
    if k < 1:
        raise InvalidParameterError(f"k must be positive, got {k}")
    if k == 1:
        return BoundReport(
            0.0, BoundKind.EXACT, None, "closed-form", 0,
            "I_1 = 0: a single cap can shrink towards a boundary point",
        )

    reports: list[BoundReport] = []
    evals = 0

    if "caps" in config.families and (
        config.grid_points is not None or not _no_cap_tuple(domain, k)
    ):
        eq = _equal_boundary_report(domain, k, config)
        if eq is not None:
            reports.append(eq)
            evals += eq.evaluations

        if config.grid_points is not None:
            enum = enumerate_caps(domain, k, config.grid_points, budget=config.budget)
        else:
            enum = _auto_enumerate(domain, k, config)
        if enum is not None:
            evals += enum.evaluations
            if enum.witness is not None:
                reports.append(enum)

        seed_reports = [r for r in reports if r.witness is not None]
        if seed_reports:
            seed = min(seed_reports, key=lambda r: r.value)
            try:
                refined = refine_caps(domain, seed.witness, config)
                evals += refined.evaluations
                reports.append(refined)
            except (InvalidParameterError, NotApplicableError):
                pass

    if "corner-strips" in config.families:
        try:
            corner = corner_family_bound(domain, k, config)
            evals += corner.evaluations
            reports.append(corner)
        except (NotApplicableError, ConstructionFailedError):
            pass

    finite = [r for r in reports if math.isfinite(r.value)]
    if not finite:
        raise ConstructionFailedError(
            f"no search family produced a valid tuple for k={k} on this domain"
        )
    best = min(finite, key=lambda r: r.value)
    label = _cross_label(domain, k, best.value, config.tolerance)
    return BoundReport(
        best.value, best.kind, best.witness, best.method, evals,
        best.provenance, cross_label=label,
    )
