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
  the convex corners by a greedy minimax allocation.

:func:`estimate_ik` orchestrates all of the above.  It skips the cap
searches where no cap tuple can beat the corner family's value: every cap
tuple's max-eta is at least :func:`_cap_floor`, a bound from the corner
angles and the arc sweeps alone.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
import operator
import sys
from collections.abc import Iterable
from dataclasses import dataclass, field
from math import comb
from typing import Optional, Sequence

import numpy as np

from .constructions import (
    corner_chain_tuple,
    corner_leg_reach,
    equal_boundary_tuple,
    geometric_legs,
)
from .errors import (
    BudgetExceededError,
    ConstructionFailedError,
    InvalidGeometryError,
    InvalidParameterError,
    NotApplicableError,
    _finite,
    _integer,
    _positive,
)
from .exact import Bound, BoundKind, ik_exact
from .geometry import (
    _CONVEX_MIN_CHORD,
    Arc,
    PlanarDomain,
    Segment,
    _edge_lookup,
    _edge_points,
    _interior_chord_ends,
    chord_is_interior,
    is_disk,
)
from .regions import (
    Cap,
    TupleCandidate,
    _chords_conflict,
    _exterior_problem,
    cap_arclengths,
    corner_admits_anchor,
    max_eta,
    tuple_to_json,
    validate_tuple,
)

#: Optimiser tolerance: refinement stops improving below this resolution.
TAU_OPT = 1e-7

#: Equal splits tried at evenly spaced start offsets, besides edge midpoints.
_OFFSET_SAMPLES = 8

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
    """Knobs for :func:`estimate_ik` and friends.  Geometric tolerances are
    not among them: every predicate measures against ``TAU_GEOM`` times the
    domain scale."""

    grid_points: Optional[int] = None
    families: tuple[str, ...] = ("caps", "corner-strips")
    restarts: int = 4
    seed: int = 0
    tolerance: float = TAU_OPT
    budget: float = 1e9

    def __post_init__(self):
        if isinstance(self.families, str):
            raise InvalidParameterError(
                f"families must be a collection of family names, got the string {self.families!r}"
            )
        if not isinstance(self.families, Iterable):
            raise InvalidParameterError(
                f"families must be a collection of family names, got {self.families!r}"
            )
        self.families = tuple(self.families)
        if not self.families:
            raise InvalidParameterError("families must name at least one search family")
        if not all(isinstance(f, str) for f in self.families):
            raise InvalidParameterError(
                f"families must be a collection of family names, got {self.families!r}"
            )
        bad = set(self.families) - {"caps", "corner-strips"}
        if bad:
            raise InvalidParameterError(f"unknown search families: {sorted(bad)}")
        self.budget = _positive("budget", self.budget)
        self.tolerance = _finite("tolerance", self.tolerance)
        if self.tolerance < 0:
            raise InvalidParameterError(f"tolerance must be non-negative, got {self.tolerance}")
        if self.grid_points is not None:
            self.grid_points = _integer("grid_points", self.grid_points, 4)
        self.restarts = _integer("restarts", self.restarts, 1)
        self.seed = _integer("seed", self.seed, 0)


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


#: Most eta values :meth:`_Grid.w_min_for` computes in one block.
_BLOCK_CELLS = 1 << 16


@dataclass
class _Grid:
    """The uniform m-point boundary grid, the validity rule of its chords,
    and the least cap width worth searching on it.

    The chord from point i to point i + w has ``eta = |P_i P_{i+w}| / (w *
    step)`` (:meth:`eta`).  It reads +inf where :meth:`invalid` holds: at
    ``w <= 0`` or ``w >= m`` and, on a convex domain, exactly where ``w <=
    fwd[i]`` or ``m - w <= bwd[i]`` (both ends on one straight edge).  On a
    nonconvex domain ``fwd`` and ``bwd`` are None, the other eta values are
    geometric only, and a chord is tested when the search first needs its
    verdict (:func:`_chord_ok`, kept in ``valid``).

    Grid point i lies at arclength ``svals[i]``, at the point ``pts[i]``.

    ``w_min`` (:meth:`w_min_for`) is the least width whose column of the eta
    table holds a valid chord with eta below the incumbent less ``1e-12``,
    or m if none does; the columns that decide it are computed in blocks as
    they are needed.  Every width below ``clear`` is known to hold none.
    The incumbent never rises, so such a width never holds one later and is
    not read again; each query starts at ``clear``.  On a convex grid a
    column's minimum is its least valid eta.  On a nonconvex grid the eta
    values are geometric: a column whose minimum beats the threshold tests
    its chords (:func:`_chord_ok`) in increasing eta, ties in index order,
    and stops at the first valid one or once eta reaches the threshold.  So
    the answer is the one a table with every chord tested gives.
    """

    domain: PlanarDomain
    m: int
    step: float
    svals: np.ndarray
    pts: np.ndarray
    period: int
    fwd: Optional[np.ndarray]
    bwd: Optional[np.ndarray]
    # nonconvex: (i, j) with i < j -> chord_is_interior verdict
    valid: dict = field(default_factory=dict, init=False)
    clear: int = field(default=1, init=False)  # width 0 holds no chord
    # width -> column minimum, from ``clear`` on; on a nonconvex grid the
    # least eta not yet found invalid
    mins: dict = field(default_factory=dict, init=False)
    # nonconvex: width -> [order, sorted eta, position] of its column walk
    walks: dict = field(default_factory=dict, init=False)

    def invalid(self, i: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Where the chord from grid point ``i`` of width ``w`` reads +inf,
        from the widths and the edge runs alone.  On a nonconvex grid the
        mask has the shape of ``w``."""
        if self.fwd is None:
            return (w <= 0) | (w >= self.m)
        # fwd and bwd are non-negative, so this holds at w <= 0 and w >= m
        return (w <= self.fwd[i]) | (self.m - w <= self.bwd[i])

    def eta(self, i: np.ndarray, w: np.ndarray, invalid: np.ndarray) -> np.ndarray:
        """``|P_i P_{i+w}| / (w * step)`` elementwise, and +inf where
        ``invalid`` (:meth:`invalid`, broadcast to the result) holds."""
        x, y = self.pts[:, 0], self.pts[:, 1]
        j = (i + w) % self.m
        with np.errstate(divide="ignore", invalid="ignore"):
            eta = np.hypot(x[i] - x[j], y[i] - y[j]) / (w * self.step)
        np.copyto(eta, np.inf, where=invalid)
        return eta

    def w_min_for(self, best: float, limit: int) -> int:
        """``w_min`` for the incumbent ``best``, or ``limit`` if it is at
        least that; reads no column at or past ``limit``."""
        thr = best - 1e-12
        w = self.clear
        while w < limit and not self._beats(w, thr, limit):
            w += 1
        self.clear = w
        return w

    def _beats(self, w: int, thr: float, limit: int) -> bool:
        m = self.m
        if w not in self.mins:  # the next block of widths
            w1 = min(2 * w, limit, w + max(1, _BLOCK_CELLS // m))
            self.mins.update(enumerate(np.min(_eta_block(self, w, w1), axis=0).tolist(), w))
        if self.mins[w] >= thr:
            return False
        if self.fwd is not None:
            return True
        walk = self.walks.get(w)
        if walk is None:
            col = _eta_block(self, w, w + 1)[:, 0]
            order = np.argsort(col, kind="stable")
            walk = self.walks[w] = [order.tolist(), col[order].tolist(), 0]
        order, etas, pos = walk
        while pos < m and etas[pos] < thr:
            i = order[pos]
            if _chord_ok(self, i, (i + w) % m):
                break
            pos += 1
        walk[2] = pos
        self.mins[w] = etas[pos] if pos < m else math.inf
        return pos < m and etas[pos] < thr


def _grid_period(domain: PlanarDomain, m: int) -> int:
    if is_disk(domain):
        return 1
    n = domain.regular_order
    if n is not None and m % n == 0:
        return m // n
    return m


def _edge_runs(
    domain: PlanarDomain, edge: np.ndarray, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Steps ``(fwd[i], bwd[i])`` from grid point i to the farthest point
    that shares a straight edge with it, going forward and backward.  The
    grid point i lies at local arclength ``t[i]`` on edge ``edge[i]``, as
    :meth:`PlanarDomain.edge_index_at` gives them (:func:`_edge_lookup`).

    This is the flat-edge rule of :func:`chord_is_interior`, vectorised over
    the grid of a convex domain, with one difference: the rule puts a point
    on both edges at a vertex only when it sits exactly there, and this
    form does so within ``1e-12`` of the perimeter of the vertex on either
    side.  Otherwise a point lies on its edge ``edge[i]``.  The points of
    one edge thus have arclengths in one interval and form a run of
    consecutive indices, which may wrap past index m - 1.
    """
    m, n = len(edge), len(domain.edges)
    near = 1e-12 * domain.perimeter
    after_vertex = t <= near
    before_vertex = domain._edge_arrays.lengths[edge] - t <= near
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
    """The m-point grid: its edge lookup, its points, its period and, on a
    convex domain, its edge runs (:func:`_edge_runs`).  It holds no eta
    value and has tested no chord; :func:`_eta_block` computes eta values
    and :func:`_chord_ok` tests chords.

    Each grid point's edge is looked up once (:func:`_edge_lookup`) and
    serves both its point (:func:`_edge_points`, which is
    :func:`_points_at` bit for bit) and the edge runs.  Both read the
    domain's per-edge arrays (:attr:`PlanarDomain._edge_arrays`), built on
    the first grid and shared by every later one.

    ``full_validity`` must be False: a grid tests no chord up front.  The
    keyword stays because the benchmark tracer counts grids by it.
    """
    if full_validity:
        raise ValueError("grid chords are tested on demand: full_validity must be False")
    per = domain.perimeter
    step = per / m
    # in [0, P): (m - 1) * step stays below P
    svals = np.arange(m) * step
    edge, t = _edge_lookup(domain, svals)
    fwd = bwd = None
    if domain.is_convex:
        fwd, bwd = _edge_runs(domain, edge, t)
    return _Grid(
        domain=domain, m=m, step=step, svals=svals, pts=_edge_points(domain, edge, t),
        period=_grid_period(domain, m), fwd=fwd, bwd=bwd,
    )


def _eta_block(grid: _Grid, w0: int, w1: int, rows: slice = slice(None)) -> np.ndarray:
    """``eta[r, w - w0] = |P_i P_{i+w}| / (w * step)`` for widths w0 <= w < w1
    and the grid points ``i`` in ``rows`` (every point by default).

    Width 0 reads +inf, and so does, on a convex grid, every chord with both
    ends on one straight edge; on a nonconvex grid the values are geometric.
    """
    widths = np.arange(w0, w1)
    i = np.arange(grid.m)[rows, None]
    return grid.eta(i, widths, grid.invalid(i, widths))


def _eta_row(grid: _Grid, i: int) -> list[float]:
    """Row i of the eta table, ``eta(i, w)`` for ``0 <= w < m``, as Python
    floats: :func:`_eta_block` of the one point, so the block's values."""
    return _eta_block(grid, 0, grid.m, slice(i, i + 1))[0].tolist()


def _chord_ok(grid: _Grid, i: int, j: int) -> bool:
    """:func:`chord_is_interior` of grid points ``i != j`` on a nonconvex
    grid, from the lower index to the higher, tested once per pair.  The
    grid arclengths lie in ``[0, P)``, so the predicate's reduction leaves
    them as they are."""
    key = (i, j) if i < j else (j, i)
    ok = grid.valid.get(key)
    if ok is None:
        s = grid.svals
        ok = grid.valid[key] = chord_is_interior(grid.domain, float(s[key[0]]), float(s[key[1]]))
    return ok


def _grid_seeds(grid: _Grid, k: int) -> tuple:
    """The best deterministic incumbent tuple on the grid, ``(value,
    cuts)``, or ``(inf, None)``.

    The seeds are k caps of equal width ``m / k`` at the first ``min(m / k,
    64)`` offsets when k divides m, else the caps between the rounded
    points ``round(j m / k)`` at the first ``min(4, m)`` offsets.  Each is a
    row of one integer array ``offsets[:, None] + pattern``.  A seed's value
    is the max of its caps' eta values, by the grid's own rule
    (:meth:`_Grid.eta` and :meth:`_Grid.invalid`, so bit for bit the values
    of :func:`_eta_block`).

    The answer is the first valid seed by value, ties in offset order: the
    seeds are taken in a stable sort of their values, and a +inf seed is
    never taken.  On a convex grid every finite seed is valid.  On a
    nonconvex grid the values are geometric, and a seed is valid when no
    two of its chords conflict (:func:`_cuts_chords_ok`) and each chord is
    interior (:func:`_chord_ok`).  The test oracle ``_reference_seeds``
    takes the seeds in offset order from the whole eta table.
    """
    m = grid.m
    if m % k == 0:
        w = m // k
        offsets = np.arange(min(w, 64))
        pattern = [j * w + d for j in range(k) for d in (0, w)]
    else:
        bases = [round(j * m / k) for j in range(k + 1)]
        offsets = np.arange(min(4, m))
        pattern = [bases[j + d] for j in range(k) for d in (0, 1)]
    cuts = offsets[:, None] + np.array(pattern)
    i, widths = cuts[:, 0::2] % m, cuts[:, 1::2] - cuts[:, 0::2]
    values = grid.eta(i, widths, grid.invalid(i, widths)).max(axis=1)
    for s in np.argsort(values, kind="stable").tolist():
        if values[s] == math.inf:
            break
        seed = cuts[s].tolist()
        if grid.fwd is not None or (
            _cuts_chords_ok(grid, seed)
            # geometric eta values only: test the seed's chords
            and all(_chord_ok(grid, a % m, b % m) for a, b in zip(seed[::2], seed[1::2]))
        ):
            return float(values[s]), seed
    return math.inf, None


def _cuts_chords_ok(grid: _Grid, cuts: Sequence[int]) -> bool:
    """Whether no two chords of the cut list conflict by
    :func:`regions._chords_conflict` (needed on nonconvex domains only)."""
    pts = [tuple(grid.pts[c % grid.m].tolist()) for c in cuts]
    return not any(
        _chords_conflict(grid.domain, c1, c2)
        for c1, c2 in itertools.combinations(zip(pts[::2], pts[1::2]), 2)
    )


def _enum_estimate(m: int, k: int, period: int, w_min: int) -> int:
    slack = m - k * w_min
    if slack < 0:
        return 0
    return period * comb(slack + 2 * k - 1, 2 * k - 1)


def enumerate_caps(
    domain: PlanarDomain, k: int, m: int, *, budget: float = 1e9
) -> BoundReport:
    """Minimax-optimal k caps with cut points on the uniform m-point grid.

    Cut points may be shared between adjacent caps but each cap's arc must
    have positive width.  ``k`` is at least 2: ``I_1 = 0`` needs no grid.

    The refusal rule: the search's node count is estimated by
    :func:`_enum_estimate` from ``w_min``, the least cap width whose column
    holds a valid chord that beats the deterministic seeds
    (:func:`_grid_seeds`); the estimate does not increase with ``w_min``.  A
    grid whose estimate exceeds ``budget`` raises
    :class:`~escobar.errors.BudgetExceededError` before any row is read; an
    estimate past the float range is reported as ``math.inf``.  The grid
    decides ``w_min`` (:meth:`_Grid.w_min_for`) from the columns below
    ``w_fit``, the least width whose estimate fits, and the search
    (:func:`_run_enumeration`) resumes it and stops after ``budget`` nodes.
    """
    k, m = _integer("k", k, 2), _integer("m", m, 4)
    budget = _positive("budget", budget)
    if m < 2 * k:
        raise InvalidParameterError(f"grid needs at least 2k points, got m={m}, k={k}")
    if m > 5000:
        raise InvalidParameterError(f"grid too fine (m={m} > 5000)")
    grid = _prepare_grid(domain, m, full_validity=False)
    seeds = _grid_seeds(grid, k)
    w_fit = 1 + bisect.bisect_left(
        range(1, m + 1), True, key=lambda w: _enum_estimate(m, k, grid.period, w) <= budget
    )
    estimate = _enum_estimate(m, k, grid.period, grid.w_min_for(seeds[0], min(w_fit, m)))
    if estimate > budget:
        if estimate > sys.float_info.max:
            approx, shown = math.inf, f"more than {sys.float_info.max:.2g}"
        else:
            approx = float(estimate)
            shown = f"{approx:.3g}"
        raise BudgetExceededError(
            f"enumeration on m={m}, k={k} needs an estimated {shown} nodes "
            f"(budget {budget:.3g})",
            estimate=approx,
            budget=budget,
        )
    return _run_enumeration(grid, k, seeds, budget)


def _run_enumeration(grid: _Grid, k: int, seeds: tuple, budget: float) -> BoundReport:
    """The grid minimax search from the seeds, resuming the ``w_min`` scan
    that the refusal began, where every width below ``grid.clear`` is known
    not to beat them.

    The depth-first search reads row ``start`` of the eta table when it
    places a cap there, converted to Python floats on first read
    (:func:`_eta_row`).  On a nonconvex grid those values are geometric, and
    a chord whose eta beats the incumbent is tested (:func:`_chord_ok`)
    before it is placed, so the search places the caps, and counts the
    nodes, that a table with every invalid chord at +inf gives.  No search
    runs, and no row is read, when the seeds leave no room for k caps of
    width ``w_min``.
    """
    m = grid.m
    period = grid.period
    need_cross = grid.fwd is None
    best, best_cuts = seeds
    # k caps of a width past m // k do not fit: the search would not run
    w_min = grid.w_min_for(best, m // k + 1)
    rows: list[Optional[list[float]]] = [None] * m

    nodes = 0
    end_abs = 0  # set per c0

    def dfs(cap_idx: int, pos: int, cuts: list[int], running: float) -> None:
        nonlocal nodes, best, best_cuts, w_min
        nodes += 1
        if nodes > budget:
            raise BudgetExceededError(
                f"enumeration stopped after {nodes} nodes (budget {budget:.3g})",
                estimate=float(nodes),
                budget=budget,
            )
        if cap_idx == k:
            if need_cross and not _cuts_chords_ok(grid, cuts):
                return
            best = running
            best_cuts = list(cuts)
            w_min = grid.w_min_for(best, m)
            return
        remaining_after = k - cap_idx - 1
        if cap_idx == 0:
            starts = (pos,)
        else:
            starts = range(pos, end_abs - w_min * (remaining_after + 1) + 1)
        for start in starts:
            w_cap = end_abs - start - w_min * remaining_after
            i = start % m
            row = rows[i]
            if row is None:
                row = rows[i] = _eta_row(grid, i)
            for w in range(w_min, w_cap + 1):
                e = row[w]
                if e < best:
                    if need_cross and not _chord_ok(grid, i, (i + w) % m):
                        continue
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
        # the rows now instead of at the next run of the cycle collector
        del dfs

    if best_cuts is None:
        return BoundReport(
            math.inf, BoundKind.ESTIMATE, None, f"enumeration m={m}",
            nodes, "no valid tuple on this grid",
        )
    caps = tuple(
        Cap(
            float(grid.svals[best_cuts[2 * j] % m]),
            float(grid.svals[best_cuts[2 * j + 1] % m]),
        )
        for j in range(k)
    )
    witness = TupleCandidate(grid.domain, caps)
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


def _simplex_order(scores: list[float]) -> list[int]:
    """The indices of ``scores`` in increasing order, ties in index order:
    ``np.argsort(scores, kind="stable")`` on NaN-free scores, by a Python
    sort, so on every CPU."""
    return sorted(range(len(scores)), key=scores.__getitem__)


def _nelder_mead(fun, x0: Sequence[float], xatol: float, fatol: float, maxfev: int):
    """Minimise ``fun`` over Python lists by SciPy 1.17's adaptive
    Nelder-Mead (``minimize(method="Nelder-Mead", options={"adaptive":
    True, "xatol", "fatol", "maxfev"})``, Gao & Han 2012), operation for
    operation and without NumPy: it evaluates SciPy's points, with a stable
    tie order, in SciPy's order and returns its best vertex and value.
    ``fun`` gets each point as a list, which it must not change.  The port
    keeps SciPy's semantics where they show:

    * the simplex is kept in the order of a stable sort of its scores
      (:func:`_simplex_order`).  Distinct scores have one sorting
      permutation, SciPy's too; ties keep their index order on every CPU,
      where SciPy's ``np.argsort`` breaks them by the CPU's sort kernels.
      The initial simplex and a shrunk one are sorted (the initial one
      twice, as SciPy does).  Any other iteration leaves the n best
      vertices sorted and replaces the worst by one new vertex, or by
      none; the new vertex goes where the stable sort puts it, after the
      last of the n scores that is not greater (``bisect_right``).  No
      objective here returns NaN (refinement scores a penalty, a finite
      eta or ``inf``), so NaN gets no rule of its own;
    * the centroid adds each column in row order and then divides (not
      ``sum()``, which compensates from Python 3.12 on).  The running sums
      of rows ``0..i`` are kept, so an iteration adds again only the rows
      from the new vertex's place on, and a shrink all of them: the same
      additions in the same order;
    * each step is SciPy's expression, coefficient times vector; with
      ``rho`` the int 1, the reflection ``(1 + rho) * a - rho * w`` is
      ``a + a - w`` bit for bit;
    * a call past ``maxfev`` is refused, also within the initial simplex or
      a shrink, where the shrunk vertex then keeps its old score;
    * the convergence test is false when a difference is NaN.
    """
    add, sub, le, truediv = operator.add, operator.sub, operator.le, operator.truediv
    repeat = itertools.repeat
    n = len(x0)
    dim = float(n)
    rho = 1
    chi = 1 + 2 / dim
    psi = 0.75 - 1 / (2 * dim)
    sigma = 1 - 1 / dim
    # bound products coefficient * value, operands in SciPy's order
    expand_a, expand_w = (1 + rho * chi).__mul__, (rho * chi).__mul__
    contract_a, contract_w = (1 + psi * rho).__mul__, (psi * rho).__mul__
    inside_a, inside_w = (1 - psi).__mul__, psi.__mul__
    shrink = sigma.__mul__
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
        ind = _simplex_order(fsim)
        sim[:] = [sim[i] for i in ind]
        fsim[:] = [fsim[i] for i in ind]

    try:
        for i in range(n + 1):
            fsim[i] = f(sim[i])
    except _CallLimit:
        pass
    order()
    order()
    sums = [sim[0]] * n  # sums[i]: rows 0..i added in row order
    stale = 0  # sums[stale:] are out of date

    while calls < maxfev:
        new = None
        shrunk = False
        try:
            best, fbest = sim[0], fsim[0]
            # the worst score's test first: a part of the whole test, and
            # the part that fails on most iterations
            if (
                abs(fbest - fsim[-1]) <= fatol
                and all(
                    all(map(le, map(abs, map(sub, x, best)), repeat(xatol)))
                    for x in sim[1:]
                )
                and all(abs(fbest - fv) <= fatol for fv in fsim[1:])
            ):
                break  # before the sort: SciPy's loop sorts after its try, not in a finally
            for i in range(stale, n):
                sums[i] = list(map(add, sums[i - 1], sim[i])) if i else sim[0]
            stale = n
            xbar = list(map(truediv, sums[-1], repeat(n)))
            worst = sim[-1]
            xr = list(map(sub, map(add, xbar, xbar), worst))
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = list(map(sub, map(expand_a, xbar), map(expand_w, worst)))
                fxe = f(xe)
                new = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                new = xr, fxr
            elif fxr < fsim[-1]:
                xc = list(map(sub, map(contract_a, xbar), map(contract_w, worst)))
                fxc = f(xc)
                if fxc <= fxr:
                    new = xc, fxc
                else:
                    shrunk = True
            else:
                xcc = list(map(add, map(inside_a, xbar), map(inside_w, worst)))
                fxcc = f(xcc)
                if fxcc < fsim[-1]:
                    new = xcc, fxcc
                else:
                    shrunk = True
            if shrunk:
                for j in range(1, n + 1):
                    sim[j] = list(map(add, best, map(shrink, map(sub, sim[j], best))))
                    fsim[j] = f(sim[j])
        except _CallLimit:
            pass
        if shrunk:
            order()
            stale = 0
        elif new is not None:
            at = bisect.bisect_right(fsim, new[1], 0, n)
            del sim[n], fsim[n]
            sim.insert(at, new[0])
            fsim.insert(at, new[1])
            if at < stale:
                stale = at
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

    The 2k cut positions, which must be finite, are optimised directly,
    those outside ``[0, P]`` first reduced modulo ``P``; infeasible
    orderings and non-interior chords are pushed back by a large penalty,
    and the best *valid* tuple ever evaluated is what gets reported.  Each of
    ``config.restarts`` runs (the first from the start, the others from
    seeded normal draws around it) is SciPy's adaptive Nelder-Mead with
    ``xatol``, ``fatol`` and ``maxfev``, ported to Python floats as
    :func:`_nelder_mead`: it evaluates SciPy's points, with a stable tie
    order, in SciPy's order, so values, evaluation counts and witnesses are
    SciPy's wherever SciPy breaks no tie, and the same on every CPU.

    The objective scores a vector on Python floats: ``1e3 + violation``
    when the cuts are out of order or a width falls below ``1e-9 P``;
    otherwise ``500 + bad`` when ``bad`` chords are not interior;
    otherwise, on a nonconvex domain only, ``400`` when a cap breaks the
    exterior rule of :func:`validate_tuple` or two caps' chords conflict;
    and else the tuple's max eta.  The chord kernel behind
    :func:`chord_is_interior` (:func:`~escobar.geometry._interior_chord_ends`)
    gives each cap both the verdict and the chord's end points, and the
    cap's eta is their distance over ``(b - a) mod P``, the operations of
    :func:`~escobar.regions.eta_partial` in its order (``sum`` of one term is
    that term), so the max eta is bit-identical to the tuple's.

    On a domain that admits the kernel's convex verdict (its
    ``_convex_clearance`` is not ``None``), the objective reads the kernel's
    tables once per call and scores inline every cap that the verdict
    accepts: both ends off the vertices (``t != 0``), not both on one
    segment or one concave arc, each more than the clearance of boundary
    length from its edge's ends, and a chord of at least ``1e-3`` of the
    scale.  It finds the edges and end points with the kernel's operations
    in the kernel's order, so these caps get the kernel's verdict, ends and
    distance bit for bit, without a call per cap.  Every other cap, and
    every cap of a domain without a clearance, calls the kernel.

    On a nonconvex domain this equals the score of validating the tuple,
    ``500 + bad`` or ``400`` on any violation, which is how it was scored
    before.  The cuts ``a, b`` are reduced modulo ``P``, and a cut that
    rounds to ``P`` (``-1e-300 % P == P``) maps to 0 in the kernel's edge
    lookup as in ``point_at``.  So the end points the pair checks of
    :func:`validate_tuple` find with ``point_at`` are the kernel's, bit for
    bit, and its exterior intervals are ``[(a, b)]``.  Validation runs, per
    cap, the exterior rule (:func:`~escobar.regions._exterior_problem`) and
    then the same kernel call, and per pair of valid caps the arc-overlap
    and chord checks of :func:`~escobar.regions._check_pair`; the second,
    :func:`~escobar.regions._chords_conflict`, is called here.  Any
    bad chord scores ``500 + bad`` either way, and without one any
    violation scores 400.  The kernel runs once on every cap in both, so
    this raises exactly when validating did.  The chord check cannot raise:
    every chord that reaches it is longer than ``TAU_GEOM`` times the scale.

    The arc-overlap check never fires here, so it is not called.  Past the
    order and width penalty the cuts do not decrease and ``xl[last] <=
    fl(xl[0] + P)``: the signs of ``xl[j + 1] - xl[j]`` and of the wrap are
    exact, and the one rounded sum moves by half an ulp.  So the caps'
    exact arcs overlap by at most ``1.2e-16 (|xl[0]| + P)``, and the
    check's own ``%`` and ``-`` round by a few ulp of ``P``: below
    ``2e-10 P``, 5x inside ``TAU_GEOM * P``, while the cuts lie within
    ``1e6 P`` of 0.  Callers start from cuts in ``[0, 2P)``; no cut that
    ``estimate_ik`` evaluates on the L-shape (k = 2, 3) or the star
    hexagon (k = 2) lies beyond ``1.5 P``.
    """
    config = config or SearchConfig()
    per = domain.perimeter
    cuts0 = _cuts_of(initial) if isinstance(initial, TupleCandidate) else list(initial)
    if len(cuts0) < 2 or len(cuts0) % 2:
        raise InvalidParameterError("need an even number of cut positions (2 per cap)")
    x0 = [_finite("cut position", c) for c in cuts0]
    k = len(x0) // 2
    last = 2 * k - 1
    # unwrap into an increasing vector so the pattern test is linear; a cut
    # outside [0, P] is reduced first, so each adds P at most 2k times
    x0 = [c if 0.0 <= c <= per else c % per for c in x0]
    for i in range(1, 2 * k):
        while x0[i] < x0[i - 1] - 1e-12 * per:
            x0[i] += per

    best, best_x, evals = math.inf, None, 0
    min_w = 1e-9 * per
    convex = domain.is_convex
    chord_ends, dist, inf = _interior_chord_ends, math.dist, math.inf
    # the chord kernel's tables, for the caps its convex verdict accepts
    clear = domain._convex_clearance
    cum, rows, lens = domain.cumlens, domain._point_rows, domain.edge_lengths
    n_edges = len(lens)
    min_chord = _CONVEX_MIN_CHORD * domain.scale
    cos, sin, edge_at = math.cos, math.sin, bisect.bisect_right

    def objective(xl: list[float]) -> float:
        nonlocal best, best_x, evals
        evals += 1
        viol = 0.0
        for j in range(0, last, 2):
            w = xl[j + 1] - xl[j]
            if w < min_w:
                viol += min_w - w
        for j in range(1, last, 2):
            g = xl[j + 1] - xl[j]
            if g < 0.0:
                viol += -g
        wrap = (xl[0] + per) - xl[last]
        if wrap < 0.0:
            viol += -wrap
        if viol > 0.0:
            return 1e3 + viol / per
        bad = 0
        val = 0.0
        exts, chords = [], []
        for j in range(0, last, 2):
            a = xl[j] % per
            b = xl[j + 1] % per
            if clear is not None:
                # the kernel's lookup and convex verdict, spelled out
                s0 = 0.0 if a == per else a
                s1 = 0.0 if b == per else b
                i0 = edge_at(cum, s0, 0, n_edges) - 1
                i1 = edge_at(cum, s1, 0, n_edges) - 1
                t0 = s0 - cum[i0]
                t1 = s1 - cum[i1]
                arc, x, y, c, d, e = rows[i0]
                if (
                    t0 and t1
                    and (i0 != i1 or arc and e)
                    and clear < t0 < lens[i0] - clear
                    and clear < t1 < lens[i1] - clear
                ):
                    if arc:
                        ang = d + t0 / c if e else d - t0 / c
                        p = (x + c * cos(ang), y + c * sin(ang))
                    else:
                        u = t0 / e
                        p = (x + u * c, y + u * d)
                    arc, x, y, c, d, e = rows[i1]
                    if arc:
                        ang = d + t1 / c if e else d - t1 / c
                        q = (x + c * cos(ang), y + c * sin(ang))
                    else:
                        u = t1 / e
                        q = (x + u * c, y + u * d)
                    chord = dist(p, q)
                    if chord >= min_chord:
                        eta = chord / ((b - a) % per)  # positive: the ends differ
                        if eta > val:
                            val = eta
                        continue
            ends = chord_ends(domain, a, b)
            if ends is None:
                bad += 1
                continue
            ext = (b - a) % per
            eta = inf if ext <= 0.0 else dist(*ends) / ext
            if eta > val:  # max(val, eta), NaN included
                val = eta
            if not convex:
                exts.append(ext)
                chords.append(ends)
        if bad:
            return 500.0 + bad
        if not convex:
            if any(_exterior_problem(per, ext) for ext in exts) or any(
                _chords_conflict(domain, *pair) for pair in itertools.combinations(chords, 2)
            ):
                return 400.0
        if val < best:
            best = val
            best_x = list(xl)
        return val

    v0 = objective(x0)
    if not math.isfinite(v0) or v0 >= 400.0:
        raise InvalidParameterError("refinement needs a valid starting tuple")

    rng = np.random.default_rng(config.seed)
    sigma = 0.25 * per / (4 * k)
    maxfev = 300 + 150 * k
    for r in range(config.restarts):
        xs = x0 if r == 0 else (np.array(x0) + rng.normal(0.0, sigma, size=2 * k)).tolist()
        _nelder_mead(
            objective, xs, 1e-3 * config.tolerance * per, 1e-2 * config.tolerance, maxfev
        )

    caps = tuple(Cap(best_x[2 * j] % per, best_x[2 * j + 1] % per) for j in range(k))
    witness = TupleCandidate(domain, caps)
    if validate_tuple(witness):
        # numerical edge: fall back to the starting tuple
        caps = tuple(Cap(x0[2 * j] % per, x0[2 * j + 1] % per) for j in range(k))
        witness = TupleCandidate(domain, caps)
    value = max_eta(witness)
    return BoundReport(
        value, BoundKind.UPPER_BOUND, witness, "nelder-mead",
        evals, f"local refinement from {v0:.12g}",
    )


# ---------------------------------------------------------------------------
# Corner family
# ---------------------------------------------------------------------------


def _corner_geometry(domain: PlanarDomain, c: int) -> tuple[float, float, float, float]:
    """(theta, bend, t_floor, t_max) for chains at convex corner ``c``.

    ``bend`` is the sum of 1/(2R) over the clockwise arcs next to the
    corner (see :func:`_chain_eta_model`).  ``t_max`` is the outermost leg
    and ``t_floor`` the smallest leg a chain may use.  Chains at a corner
    that admits anchored caps keep their cut points as offsets from the
    vertex, so ``t_floor`` is bounded only by float64
    (:data:`_LEG_SPAN_MAX`).  Elsewhere cut points are arclengths, resolved
    to about 1e-16 of the perimeter, and ``t_floor`` stays at 1e-8 of it.
    """
    theta = domain.interior_angles[c]
    near = (domain.edges[c - 1], domain.edges[c])
    bend = sum(0.5 / e.radius for e in near if isinstance(e, Arc) and not e.ccw)
    if corner_admits_anchor(domain, c):
        t_max = 0.45 * corner_leg_reach(domain, c)
        return theta, bend, max(t_max / _LEG_SPAN_MAX, _LEG_FLOOR), t_max
    t_max = 0.45 * min(domain.edge_lengths[c - 1], domain.edge_lengths[c])
    t_min = max(1e-8 * domain.perimeter, 1e-9 * t_max)
    if t_min >= t_max:
        t_min = t_max / 4.0
    return theta, bend, t_min, t_max


def _chain_legs(t_floor: float, t_max: float, d: int) -> list[float]:
    """Legs of a d-deep geometric chain ending at ``t_max``.

    The ratio between consecutive legs is as large as ``t_floor`` allows,
    but at most :data:`_LEG_RATIO_MAX`.
    """
    return geometric_legs(max(t_floor, t_max * _LEG_RATIO_MAX ** -(d - 1)), t_max, d)


def _chain_eta_model(theta: float, bend: float, t_floor: float, t: float, d: int) -> float:
    """Predicted max eta of the d-deep chain :func:`_chain_legs` builds
    with outer leg ``t``.

    A chord from the corner to the point at distance t along a clockwise
    arc of radius R leaves the arc's tangent by about t/(2R), away from the
    other edge, so the corner cap sees the angle ``theta + bend * t``
    (capped at pi), with ``bend`` from :func:`_corner_geometry`.  Deeper
    chains multiply that cap's sin(angle/2) by (r + 1)/(r - 1), r being the
    chain's leg ratio.
    """
    s = math.sin(min(math.pi, theta + bend * t) / 2.0)
    if d <= 1:
        return s
    r = min((t / t_floor) ** (1.0 / (d - 1)), _LEG_RATIO_MAX)
    if r <= 1.0:
        return math.inf
    return s * (r + 1.0) / (r - 1.0)


def _chain_outer_leg(
    theta: float, bend: float, t_floor: float, t_max: float, d: int
) -> tuple[float, float]:
    """(model, leg): the outer leg among ``t_max * 2**-j`` above ``t_floor``
    that minimises :func:`_chain_eta_model`, the larger one on ties.  Without
    a bend the model does not increase in the leg, so that is ``t_max``."""
    best = (_chain_eta_model(theta, bend, t_floor, t_max, d), t_max)
    t = 0.5 * t_max
    while bend and t > t_floor:
        val = _chain_eta_model(theta, bend, t_floor, t, d)
        if val < best[0]:
            best = (val, t)
        t *= 0.5
    return best


def corner_family_bound(domain: PlanarDomain, k: int) -> BoundReport:
    """Upper bound from nested corner regions spread over the convex corners.

    A greedy minimax allocation distributes the k regions over the corners
    (each corner receives a geometric chain of caps/strips), by the
    predicted max eta of :func:`_chain_eta_model` at the outer leg of
    :func:`_chain_outer_leg`.  At corners that admit anchored caps a
    chain's legs may span a factor 1e290, so a d-deep chain there comes
    within about 2 sin(theta/2) / r of sin(theta/2), with leg ratio
    r = min(1e12, 1e290 ** (1/(d-1))).
    """
    k = _integer("k", k, 1)
    corners = domain.convex_corners
    if not corners:
        raise NotApplicableError("domain has no strictly convex corner")
    evals = 0

    geom = {c: _corner_geometry(domain, c) for c in corners}

    # greedy minimax allocation: repeatedly give the next region to the
    # corner whose chain grows the least
    alloc = {c: (0, 0.0) for c in corners}

    def entry(c: int, d: int) -> tuple:
        val, leg = _chain_outer_leg(*geom[c], d)
        return val, geom[c][0], c, d, leg

    heap = [entry(c, 1) for c in corners]
    heapq.heapify(heap)
    for _ in range(k):
        _, _, c, d, leg = heapq.heappop(heap)
        alloc[c] = (d, leg)
        heapq.heappush(heap, entry(c, d + 1))

    witness = None
    try:
        shrink = 1.0
        for _ in range(6):
            regions = []
            try:
                for c in corners:
                    d, leg = alloc[c]
                    if d == 0:
                        continue
                    legs = _chain_legs(geom[c][2], leg * shrink, d)
                    part = corner_chain_tuple(domain, c, legs, validate=False)
                    regions.extend(part.regions)
                tc = TupleCandidate(domain, tuple(regions))
                evals += 1
                if validate_tuple(tc):
                    raise ConstructionFailedError("allocation tuple invalid")
                witness = tc
                break
            except (ConstructionFailedError, InvalidGeometryError):
                shrink *= 0.5
    except InvalidParameterError:
        pass

    if witness is None:
        raise ConstructionFailedError(
            f"no corner construction fits this domain for k={k}"
        )
    theta_min = geom[domain.sharpest_corner][0]
    return BoundReport(
        max_eta(witness), BoundKind.UPPER_BOUND, witness, "corner-allocation", evals,
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
        n = domain.regular_order
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
    """Enumerate on the finest candidate grid that :func:`enumerate_caps`
    does not refuse or stop at the soft budget."""
    soft = min(config.budget, _ENUM_SOFT_CAP)
    for m in _grid_candidates(domain, k):
        try:
            return enumerate_caps(domain, k, m, budget=soft)
        except BudgetExceededError:
            continue
    return None


def _equal_boundary_report(domain: PlanarDomain, k: int) -> Optional[BoundReport]:
    """The best equal boundary split (:func:`equal_boundary_tuple`) over
    the start offsets at each edge's midpoint and at ``_OFFSET_SAMPLES``
    even steps of ``P / k``, or None when none is valid.  Only valid
    splits count as evaluations.
    """
    per = domain.perimeter
    offsets = []
    for i in range(len(domain.edges)):
        offsets.append(float(domain.cumlens[i]) + domain.edge_lengths[i] / 2.0)
    offsets.extend(j * per / (k * _OFFSET_SAMPLES) for j in range(_OFFSET_SAMPLES))
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


def _cap_floor(domain: PlanarDomain, k: int) -> float:
    """A lower bound on the max-eta of every valid tuple of k caps, from the
    corner angles and the sweeps of the convex arcs alone; +inf when no such
    tuple exists.

    A cap whose open exterior arc holds no vertex lies on one edge.  On a
    straight edge or a concave arc its chord lies outside the domain, and
    :func:`validate_tuple` flags it.  The open arcs of a tuple are disjoint,
    so distinct caps hold distinct vertices, at most V (the vertex count)
    caps hold one, and c >= k - V caps hold none and lie on convex arcs.

    * *Arc lemma.*  A cap on a convex arc with sweep alpha has ``eta =
      sin(alpha/2) / (alpha/2)``, which falls as alpha grows.  An arc of
      sweep A_i that holds c_i of the caps holds one of sweep at most
      ``A_i / c_i``.  So their max-eta is at least ``sin(x)/x`` for x half the
      least ``A_i / c_i``, and the least such bound over every way to share
      the c caps comes from D'Hondt's rule (each next cap goes to the arc
      with the largest ``A_i / (c_i + 1)``), which makes the least ``A_i /
      c_i`` as large as it can be: it is the quotient of the c-th cap.
    * *Vertex lemma.*  On a polygon a cap that holds only vertex j has ``eta
      >= sin(theta_j / 2)`` (``tests/test_cap_lemmas.py``).  The k - c caps
      that hold vertices hold at most V, so at least ``2(k - c) - V`` of
      them hold one each, and their max-eta is at least the
      ``(2(k - c) - V)``-th smallest ``sin(theta_j / 2)``.

    The floor is the least, over c from ``max(0, k - V)`` to k, of the
    larger of the two bounds.  (Validation lets two arcs overlap by
    ``TAU_GEOM`` times the perimeter, but the equal splits and the grids
    give neighbouring caps the same cut point, and refinement starts only
    from a tuple of theirs.)
    """
    edges = domain.edges
    n = len(edges)
    # arc[c]: the arc lemma's bound on c vertex-free caps
    arc = [0.0]
    heap = [(-e.sweep, e.sweep, 1) for e in edges if isinstance(e, Arc) and e.ccw]
    heapq.heapify(heap)
    for _ in range(k):
        if not heap:
            arc.append(math.inf)
            continue
        q, sweep, c = heapq.heappop(heap)
        x = -q / 2.0
        arc.append(math.sin(x) / x)
        heapq.heappush(heap, (-sweep / (c + 1), sweep, c + 1))
    # vertex[j]: the vertex lemma's bound on j one-vertex caps, j <= n
    vertex = [0.0] * (n + 1)
    if all(isinstance(e, Segment) for e in edges):
        vertex[1:] = sorted(math.sin(theta / 2.0) for theta in domain.interior_angles)
    return min(
        max(arc[c], vertex[max(0, 2 * (k - c) - n)]) for c in range(max(0, k - n), k + 1)
    )


def estimate_ik(
    domain: PlanarDomain, k: int, config: Optional[SearchConfig] = None
) -> BoundReport:
    """Best certified upper bound for I_k(domain) across all search families.

    Every finite result is the measured max-eta of a validated tuple; the
    report records which engine produced it and how much work was spent.
    ``config.grid_points`` forces a specific enumeration grid (budget errors
    then propagate); otherwise the grid is chosen automatically, and the
    cap family (equal splits, enumeration, refinement) is skipped where no
    cap tuple exists or the corner family's value lies strictly below
    :func:`_cap_floor`.  The corner family's report comes after the cap
    family's, so a tie goes to the cap family.
    """
    config = config or SearchConfig()
    k = _integer("k", k, 1)
    if k == 1:
        return BoundReport(
            0.0, BoundKind.EXACT, None, "closed-form", 0,
            "I_1 = 0: a single cap can shrink towards a boundary point",
        )

    reports: list[BoundReport] = []
    evals = 0
    corner = None
    if "corner-strips" in config.families:
        try:
            corner = corner_family_bound(domain, k)
        except (NotApplicableError, ConstructionFailedError):
            pass

    floor = _cap_floor(domain, k)
    skip = floor == math.inf or corner is not None and corner.value < floor
    if "caps" in config.families and (config.grid_points is not None or not skip):
        eq = _equal_boundary_report(domain, k)
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

    if corner is not None:
        evals += corner.evaluations
        reports.append(corner)

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
