"""Search engines: grid enumeration against the retired depth-first search
and the whole eta table, refinement, corner families, and the orchestration
of ``estimate_ik``."""

import dataclasses
import functools
import gc
import hashlib
import json
import math
import signal
import sys
import tracemalloc
import weakref
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escobar import geometry, search
from escobar.errors import (
    ConstructionFailedError,
    InvalidGeometryError,
    InvalidParameterError,
)
from escobar.exact import BoundKind, ik_disk
from escobar.geometry import (
    Arc,
    Segment,
    chord_is_interior,
    make_disk,
    make_domain,
    make_polygon,
    make_regular_polygon,
    scaled,
)
from escobar.regions import (
    Cap,
    TupleCandidate,
    eta_partial,
    max_eta,
    tuple_to_json,
    validate_tuple,
)
from escobar.search import (
    SearchConfig,
    _cuts_chords_ok,
    _eta_block,
    _grid_candidates,
    _grid_period,
    _prepare_grid,
    corner_family_bound,
    enumerate_caps,
    estimate_ik,
    refine_caps,
    report_to_json,
)
from tests.conftest import (
    NO_CAP_DOMAINS,
    chord_cut_disk,
    circular_slice,
    concave_square,
    rectangle,
    star_hexagon,
)


def brute_force_two_caps(domain, m):
    """Independent oracle: try every 2-cap tuple on the m-point grid.

    No canonicalisation, no pruning, no seeding — just raw iteration over
    all cut placements with weakly disjoint arcs, keeping tuples the
    package's own validator accepts.
    """
    per = domain.perimeter
    step = per / m
    best = math.inf
    for a in range(m):
        for w1 in range(1, m - 1):
            for c in range(a + w1, a + m):
                for w2 in range(1, a + m - c + 1):
                    caps = (
                        Cap((a * step) % per, ((a + w1) * step) % per),
                        Cap((c * step) % per, ((c + w2) * step) % per),
                    )
                    tc = TupleCandidate(domain, caps)
                    if validate_tuple(tc):
                        continue
                    best = min(best, max_eta(tc))
    return best


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


_GRID_DOMAINS = {
    "disk": make_disk,
    **{f"D{n}": functools.partial(make_regular_polygon, n) for n in (*range(3, 13), 200)},
    "half-disk": lambda: make_domain(
        [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
    ),
    # segment-arc joins with a common tangent
    "stadium": lambda: make_domain(
        [
            Segment((-1.0, -1.0), (1.0, -1.0)),
            Arc((1.0, 0.0), 1.0, -0.5 * math.pi, 0.5 * math.pi),
            Segment((1.0, 1.0), (-1.0, 1.0)),
            Arc((-1.0, 0.0), 1.0, 0.5 * math.pi, 1.5 * math.pi),
        ]
    ),
    "slice-90": lambda: circular_slice(math.pi / 2),
    "slice-60": lambda: circular_slice(math.pi / 3),
    "slice-72": lambda: circular_slice(2.0 * math.pi / 5),
    "chord-cut": lambda: chord_cut_disk(0.5),
    "quad": lambda: make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)]),
    "rect2x1": lambda: rectangle(2.0, 1.0),
    "lshape": lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "star": star_hexagon,
}


@pytest.mark.parametrize(
    "name",
    [f"D{n}" for n in range(3, 13)]
    + ["quad", "rect2x1", "disk", "half-disk", "stadium", "D200"],
)
def test_convex_grid_mask_matches_chord_predicate(name):
    # grid points whose arclength rounds to just below a vertex count on the
    # edge after it too, so the mask rejects chords along that edge; sizes
    # 97 and 101 are no multiple of any edge count, and on a polygon the
    # run of the last edge wraps from index m - 1 to the vertex at s = 0.
    # On the 200-gon (two grid points per edge at m = 400) only chords of
    # up to 8 steps can have both ends on one edge, and only those are tried.
    domain = _GRID_DOMAINS[name]()
    reach = 8 if name == "D200" else math.inf
    for m in (24, 48, 96, 97, 101, 120) + ((400,) if name == "D200" else ()):
        grid = _prepare_grid(domain, m, full_validity=False)
        eta = _eta_block(grid, 0, m)
        for i in range(m):
            for j in range(i + 1, m):
                if min(j - i, m - (j - i)) > reach:
                    continue
                ok = chord_is_interior(domain, float(grid.svals[i]), float(grid.svals[j]))
                assert math.isfinite(eta[i, j - i]) == ok, (m, i, j)
                assert math.isfinite(eta[j, m - (j - i)]) == ok, (m, i, j)


def test_edge_run_wraps_past_the_last_index():
    # square, m = 8: points 6, 7 and 0 lie on the last edge (6 and 0 are
    # vertices), so that edge's run wraps past index 7
    grid = _prepare_grid(make_regular_polygon(4), 8, full_validity=False)
    assert grid.fwd.tolist() == [2, 1, 2, 1, 2, 1, 2, 1]
    assert grid.bwd.tolist() == [2, 1, 2, 1, 2, 1, 2, 1]
    eta = _eta_block(grid, 0, 8)
    assert math.isinf(eta[6, 2]) and math.isinf(eta[7, 1]) and math.isinf(eta[0, 6])
    assert math.isfinite(eta[7, 2]) and math.isfinite(eta[6, 3])


def test_grids_test_no_chord_up_front(lshape):
    with pytest.raises(ValueError, match="full_validity"):
        _prepare_grid(lshape, 24, full_validity=True)
    assert _prepare_grid(lshape, 24, full_validity=False).valid == {}


# ---------------------------------------------------------------------------
# on-demand enumeration against the whole-table reference
# ---------------------------------------------------------------------------


def _segment_membership(domain, svals):
    """Indices of straight edges each grid point lies on (vertices on two)."""
    members = []
    n = len(domain.edges)
    near = 1e-12 * domain.perimeter
    for s in svals:
        i, t = domain.edge_index_at(float(s))
        out = [i]
        if t <= near:
            out.append((i - 1) % n)
        if domain.edge_lengths[i] - t <= near:
            out.append((i + 1) % n)
        members.append([j for j in out if isinstance(domain.edges[j], Segment)])
    return members


def _reference_grid(domain, m, full_validity):
    """The whole m x m eta table, built as grid preparation did before the
    search read single columns and rows: ``eta[i, w] = |P_i P_{i+w}| / (w
    step)`` with width 0 at +inf and, on a convex domain or with
    ``full_validity``, every invalid chord at +inf; on a nonconvex domain
    ``full_validity`` tests all m (m - 1) / 2 chords."""
    per = domain.perimeter
    step = per / m
    svals = np.arange(m) * step
    pts = np.array([domain.point_at(float(s)) for s in svals])
    diff = pts[:, None, :] - pts[None, :, :]
    chord = np.hypot(diff[..., 0], diff[..., 1])
    widx = (np.arange(m)[:, None] + np.arange(m)[None, :]) % m
    chord_w = chord[np.arange(m)[:, None], widx]  # [i, w] = |P_i P_{i+w}|
    with np.errstate(divide="ignore", invalid="ignore"):
        eta = chord_w / (np.arange(m)[None, :] * step)
    eta[:, 0] = np.inf
    full = True
    if domain.is_convex:
        # a chord is interior unless both ends lie on one common straight edge
        invalid = np.zeros((m, m), dtype=bool)
        edge_sets = {}
        for i, es in enumerate(_segment_membership(domain, svals)):
            for e in es:
                edge_sets.setdefault(e, np.zeros(m, dtype=bool))[i] = True
        for mask in edge_sets.values():
            invalid |= mask[:, None] & mask[None, :]
        eta = np.where(invalid[np.arange(m)[:, None], widx], np.inf, eta)
        eta[:, 0] = np.inf
    elif full_validity:
        valid = np.ones((m, m), dtype=bool)
        for i in range(m):
            for j in range(i + 1, m):
                ok = chord_is_interior(domain, float(svals[i]), float(svals[j]))
                valid[i, j] = valid[j, i] = ok
        eta = np.where(valid[np.arange(m)[:, None], widx], eta, np.inf)
        eta[:, 0] = np.inf
    else:
        full = False
    return SimpleNamespace(
        domain=domain, m=m, svals=svals, pts=pts, eta=eta,
        min_eta_by_width=np.min(eta, axis=0).tolist(), step=step,
        period=_grid_period(domain, m), convex=domain.is_convex, full_validity=full,
    )


def _reference_seeds(domain, k, ref):
    """The deterministic seed tuples' best value and cuts, read from the
    whole table."""
    m = ref.m
    best, best_cuts = math.inf, None

    def consider(cuts):
        nonlocal best, best_cuts
        val = 0.0
        for j in range(k):
            a, b = cuts[2 * j], cuts[2 * j + 1]
            w = b - a
            if w <= 0 or w >= m:
                return
            e = float(ref.eta[a % m, w])
            if e >= best:
                return
            val = max(val, e)
        if not ref.convex and not _cuts_chords_ok(ref, cuts):
            return
        if not ref.full_validity:
            for j in range(k):
                a, b = cuts[2 * j], cuts[2 * j + 1]
                if not chord_is_interior(
                    domain, float(ref.svals[a % m]), float(ref.svals[b % m])
                ):
                    return
        if val < best:
            best, best_cuts = val, list(cuts)

    if m % k == 0:
        w = m // k
        for off in range(min(w, 64)):
            consider([off + j * w + d for j in range(k) for d in (0, w)])
    else:
        bases = [round(j * m / k) for j in range(k + 1)]
        for off in range(min(4, m)):
            cuts = []
            for j in range(k):
                cuts.extend((off + bases[j], off + bases[j + 1]))
            consider(cuts)
    return best, best_cuts


def _reference_w_min(ref, best):
    w = 1
    while w < ref.m and ref.min_eta_by_width[w] >= best - 1e-12:
        w += 1
    return w


class _Unfinished(Exception):
    """The retired search passed its node cap."""


def _reference_enumeration(domain, k, ref, max_nodes=math.inf):
    """The retired depth-first grid search over the whole table ``ref``
    (with full validity), from the seeds: ``(value, cuts, nodes)``, its
    least table value and cuts, the seeds' when it beats none.  It places a
    cap only where eta lies below the incumbent, and prunes the widths below
    the least whose column beats the incumbent less 1e-12.  Past
    ``max_nodes`` nodes it raises :class:`_Unfinished`."""
    m, period = ref.m, ref.period
    eta = ref.eta.tolist()
    best, best_cuts = _reference_seeds(domain, k, ref)
    w_min = _reference_w_min(ref, best)
    nodes = 0
    end_abs = 0

    def dfs(cap_idx, pos, cuts, running):
        nonlocal nodes, best, best_cuts, w_min
        nodes += 1
        if nodes > max_nodes:
            raise _Unfinished
        if cap_idx == k:
            if not ref.convex and not _cuts_chords_ok(ref, cuts):
                return
            best, best_cuts = running, list(cuts)
            w_min = _reference_w_min(ref, best)
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
                    cuts.extend((start, start + w))
                    dfs(cap_idx + 1, start + w, cuts, max(running, e))
                    del cuts[-2:]

    for c0 in range(period):
        end_abs = c0 + m
        if m - k * w_min >= 0:
            dfs(0, c0, [], 0.0)
    return best, best_cuts, nodes


def _reference_minimax(domain, k, ref):
    """The bisection of :func:`enumerate_caps` over the whole table ``ref``
    with full validity, every eta value computed and every chord tested up
    front: ``(table value, cuts, steps)``."""
    m = ref.m
    best, cuts = _reference_seeds(domain, k, ref)
    w0 = _reference_w_min(ref, best)
    steps = 0
    if w0 <= m // k:
        band = ref.eta[:, w0:m - (k - 1) * w0 + 1].copy()
        values = np.unique(band[band < best])
        eager = SimpleNamespace(m=m, period=ref.period, fwd=())  # tests no chord
        lo, hi = 0, len(values)
        while lo < hi:
            mid = (lo + hi) // 2
            steps += 1
            got = search._greedy_caps(eager, band, w0, k, values[mid])
            if got is None:
                lo = mid + 1
            else:
                hi, best, cuts = mid, float(values[mid]), got
    return best, cuts, steps


def _table_value(ref, report):
    """The largest eta of the table ``ref`` over the caps of the report's
    witness."""
    m = ref.m
    value = 0.0
    for cap in report.witness.regions:
        i, j = round(cap.a / ref.step), round(cap.b / ref.step)
        value = max(value, float(ref.eta[i % m, (j - i) % m]))
    return value


def _witness_cuts(ref, cuts):
    """The arclength pairs of the caps of a grid cut list."""
    m = ref.m
    s = ref.svals
    return [(float(s[a % m]), float(s[b % m])) for a, b in zip(cuts[::2], cuts[1::2])]


def _report_key(report):
    if report is None:
        return None
    cuts = [(r.a, r.b) for r in report.witness.regions] if report.witness else None
    return repr(report.value), report.method, report.evaluations, cuts


class _Reads:
    """Records the eta blocks the search computes, with their rows, and the
    chords it tests."""

    def __init__(self, monkeypatch):
        self.blocks, self.chords = [], []
        monkeypatch.setattr(search, "_eta_block", self._block)
        monkeypatch.setattr(search, "chord_is_interior", self._chord)

    def _block(self, grid, w0, w1, rows=slice(None)):
        block = _eta_block(grid, w0, w1, rows)
        self.blocks.append((grid.m, w0, w1, rows, block))
        return block

    def _chord(self, domain, s0, s1):
        self.chords.append((s0, s1))
        return chord_is_interior(domain, s0, s1)

    def clear(self):
        self.blocks.clear()
        self.chords.clear()

    def check(self, reference):
        """Every block equals the whole table's: with the validity rule on a
        convex grid, geometric on a nonconvex one."""
        for m, w0, w1, rows, block in self.blocks:
            assert np.array_equal(block, reference(m, False).eta[rows, w0:w1]), (m, w0, w1)


def _check_against_reference(domain, k, report, ref):
    """The report gives the witness and value of :func:`_reference_minimax`,
    and on a convex grid its number of steps too."""
    value, cuts, steps = _reference_minimax(domain, k, ref)
    if cuts is None:
        assert report.witness is None and report.value == math.inf
        return
    assert [(c.a, c.b) for c in report.witness.regions] == _witness_cuts(ref, cuts)
    assert _table_value(ref, report) == value
    assert report.value == max_eta(report.witness)
    if domain.is_convex:
        assert report.evaluations == steps


@pytest.mark.parametrize("name", list(_GRID_DOMAINS))
def test_lazy_band_matches_whole_table_reference(name, monkeypatch):
    """At k = 2..10 the automatic enumeration prepares one grid, the finest
    candidate, computes only eta values equal to the whole table's, and finds
    the witness that the bisection over the whole table, with every chord
    tested up front, finds."""
    domain = _GRID_DOMAINS[name]()
    tables = functools.cache(functools.partial(_reference_grid, domain))

    def reference(m, full_validity):
        # a convex grid always has its full validity
        return tables(m, full_validity and not domain.is_convex)

    reads = _Reads(monkeypatch)
    for k in range(2, 11):
        reads.clear()
        m = _grid_candidates(domain, k)[0]
        got = search._auto_enumerate(domain, k)
        assert {b[0] for b in reads.blocks} == {m}, k
        reads.check(reference)
        _check_against_reference(domain, k, got, reference(m, True))


#: the grids on which the bisection is held against the retired search
_RETIRED_SEARCH_DOMAINS = [f"D{n}" for n in range(3, 10)] + [
    "disk", "lshape", "rect2x1", "quad", "star",
]
_RETIRED_SEARCH_SIZES = (12, 18, 24, 30, 36, 42, 48)


@pytest.mark.parametrize("name", _RETIRED_SEARCH_DOMAINS)
def test_grid_minimax_matches_the_retired_search(name):
    """On every grid (k = 2..4, m = 12..48) where the retired depth-first
    search finishes within 20 000 nodes, the bisection's table value is no
    higher than the search's and at most 1e-12 below it, and its witness is
    valid.  It can lie below: the search prunes each width whose column
    does not beat its latest incumbent less 1e-12, while the band keeps
    every width that beats the seeds so."""
    domain = _GRID_DOMAINS[name]()
    finished = 0
    for m in _RETIRED_SEARCH_SIZES:
        ref = _reference_grid(domain, m, True)
        for k in range(2, 5):
            try:
                want, _cuts, _nodes = _reference_enumeration(domain, k, ref, 20_000)
            except _Unfinished:
                continue
            finished += 1
            report = enumerate_caps(domain, k, m)
            if want == math.inf:  # no valid tuple, as on D3 at k = 4
                assert report.witness is None and report.value == math.inf, (k, m)
                continue
            assert validate_tuple(report.witness) == [], (k, m)
            got = _table_value(ref, report)
            assert want - 1e-12 <= got <= want, (k, m, got, want)
    assert finished >= 12


def _seed_grids(k):
    """Grid sizes for the seed oracle: k divides 5k and 2k (66k when k <=
    3, whose 66 equal-width offsets pass the cap of 64), and not 5k + 1 and
    7k - 1 unless k = 1."""
    return sorted({5 * k, 66 * k if k <= 3 else 2 * k, 5 * k + 1, 7 * k - 1})


@pytest.mark.parametrize("name", list(_GRID_DOMAINS))
def test_grid_seeds_match_the_retired_loop(name):
    """The one-pass seeds give the retired loop's value and cuts, by repr:
    the first valid seed, in offset order, with the least value.  On the
    disk and the D_n the equal-width seeds tie exactly, so the tie order
    is checked too; on the L-shape and the star the seeds are validated."""
    domain = _GRID_DOMAINS[name]()
    for k in range(1, 11):
        for m in _seed_grids(k):
            ref = _reference_grid(domain, m, False)
            want_best, want_cuts = _reference_seeds(domain, k, ref)
            grid = _prepare_grid(domain, m, full_validity=False)
            best, cuts = search._grid_seeds(grid, k)
            assert (repr(best), cuts) == (repr(want_best), want_cuts), (k, m)
            assert type(best) is float and (cuts is None or all(type(c) is int for c in cuts))


def test_grid_seeds_validate_in_value_order(lshape, monkeypatch):
    """L-shape, k = 4, m = 22: the seeds at offsets 0..3 are all validated,
    in increasing geometric value, and only the last passes."""
    m, k = 22, 4
    ref = _reference_grid(lshape, m, False)
    bases = [round(j * m / k) for j in range(k + 1)]
    seeds = [[off + bases[j + d] for j in range(k) for d in (0, 1)] for off in range(4)]
    values = [max(ref.eta[a % m, b - a] for a, b in zip(s[::2], s[1::2])) for s in seeds]
    validated = []
    monkeypatch.setattr(
        search, "_cuts_chords_ok",
        lambda grid, cuts: validated.append(cuts) or _cuts_chords_ok(grid, cuts),
    )
    best, cuts = search._grid_seeds(_prepare_grid(lshape, m, full_validity=False), k)
    order = sorted(range(4), key=values.__getitem__)
    assert validated == [seeds[s] for s in order]
    assert cuts == seeds[order[-1]] and best == values[order[-1]]
    assert min(values) < best
    want_best, want_cuts = _reference_seeds(lshape, k, ref)
    assert (repr(best), cuts) == (repr(want_best), want_cuts)


@pytest.mark.parametrize("m", [600, 1200])
def test_fine_explicit_grid_enumerates_in_bounded_memory(m):
    """The 2x1 rectangle at k = 3 on a fine grid: the band of widths holds
    most of the table, and the witness is still the whole table's."""
    dom = rectangle(2.0, 1.0)
    tracemalloc.start()
    try:
        report = enumerate_caps(dom, 3, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6
    assert validate_tuple(report.witness) == []
    _check_against_reference(dom, 3, report, _reference_grid(dom, m, True))


@pytest.mark.parametrize("name", ["lshape", "star"])
@pytest.mark.parametrize("m", [24, 48, 96, 144])
def test_explicit_nonconvex_grid_refusal_matches_valid_chord_estimate(name, m):
    """A nonconvex grid declines to search past its seeds, or searches the
    band of widths, as its full-validity table does: the column walk finds
    the least valid width, where counting every chord as valid could only
    lower it.  Its witness is the one the bisection over that table finds."""
    domain = _GRID_DOMAINS[name]()
    ref = _reference_grid(domain, m, True)
    for k in range(2, 7):
        grid = _prepare_grid(domain, m, full_validity=False)
        best = search._grid_seeds(grid, k)[0]
        want = min(_reference_w_min(ref, _reference_seeds(domain, k, ref)[0]), m // k + 1)
        assert grid.w_min_for(best, m // k + 1) == want, k
        _check_against_reference(domain, k, enumerate_caps(domain, k, m), ref)


@pytest.mark.parametrize("name", ["lshape", "star"])
@pytest.mark.parametrize("m", [24, 48, 144])
def test_explicit_nonconvex_grid_that_fits_enumerates_as_before(name, m, monkeypatch):
    """An explicit nonconvex grid at k = 2 gives the table value of the
    retired search over its full-validity table, and every eta value it
    computes is that table's geometric value."""
    domain = _GRID_DOMAINS[name]()
    ref = _reference_grid(domain, m, True)
    want, cuts, nodes = _reference_enumeration(domain, 2, ref)
    assert nodes > 0 and cuts is not None
    geometric = _reference_grid(domain, m, False)
    reads = _Reads(monkeypatch)
    report = enumerate_caps(domain, 2, m)
    assert want - 1e-12 <= _table_value(ref, report) <= want
    assert any(rows != slice(None) for _m, _w0, _w1, rows, _b in reads.blocks)
    reads.check(lambda *_: geometric)


def test_convex_search_reads_rows_as_the_whole_table(monkeypatch):
    # the 2x1 rectangle at k = 2, where the seeds leave room for a search
    domain = rectangle(2.0, 1.0)
    table = _reference_grid(domain, 468, True)
    want, _cuts, nodes = _reference_enumeration(domain, 2, table)
    assert nodes == 308
    reads = _Reads(monkeypatch)
    report = enumerate_caps(domain, 2, 468)
    assert want - 1e-12 <= _table_value(table, report) <= want
    assert reads.blocks and not reads.chords
    reads.check(lambda *_: table)
    _check_against_reference(domain, 2, report, table)


@pytest.mark.parametrize("name", ["lshape", "star"])
@pytest.mark.parametrize("m", [24, 48, 144])
def test_column_walk_gives_the_whole_table_w_min(name, m):
    """On a nonconvex grid a column's least valid eta comes from testing its
    chords in increasing eta.  Fed a falling incumbent, one grid answers as
    the full-validity table does at every step, and so does a fresh one."""
    domain = _GRID_DOMAINS[name]()
    ref = _reference_grid(domain, m, True)
    grid = _prepare_grid(domain, m, full_validity=False)
    finite = {v for v in ref.min_eta_by_width if math.isfinite(v)}
    bests = sorted({math.inf, 0.0, *finite, *(v + 1e-12 for v in finite)}, reverse=True)
    for best in bests:
        want = _reference_w_min(ref, best)
        assert grid.w_min_for(best, m) == want, best
        assert _prepare_grid(domain, m, full_validity=False).w_min_for(best, m) == want, best


def test_nonconvex_search_tests_few_chords(lshape, monkeypatch):
    # the whole-table search tested all 10 296 chords of this grid
    calls = []
    kernel = geometry._interior_chord_ends

    def spy(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(geometry, "_interior_chord_ends", spy)
    monkeypatch.setattr(search, "_interior_chord_ends", spy)
    report = enumerate_caps(lshape, 2, 144)
    assert report.evaluations == 10  # bisection steps
    assert 0 < len(calls) < 1000


@pytest.mark.parametrize(
    "name, k",
    [("disk", k) for k in range(2, 6)] + [("D4", 4), ("D5", 5), ("D6", 3), ("D8", 4)],
)
def test_regular_cases_convert_no_row(name, k, monkeypatch):
    # the seeds already leave no room for k caps: no bisection, no band of
    # rows, and no column past m // k + 1 is read
    domain = _GRID_DOMAINS[name]()
    reads = _Reads(monkeypatch)
    report = search._auto_enumerate(domain, k)
    assert report is not None and report.evaluations == 0
    assert reads.blocks
    for m, _w0, w1, rows, _block in reads.blocks:
        assert rows == slice(None) and w1 - 1 <= m // k + 1, (m, w1)


def test_nonconvex_enumeration_memory(lshape):
    # the column scan reads blocks of at most 1000 x 65 values, and the band
    # of widths it leaves at k = 2 is narrow
    tracemalloc.start()
    try:
        report = enumerate_caps(lshape, 2, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert validate_tuple(report.witness) == []


def test_half_disk_grid_at_k10_finds_caps_at_the_cap_floor(half_disk):
    """At k = 10 every equal split has a cap along the diameter, and none is
    valid.  The finest grid finds ten valid caps, eight on the arc and one
    around each corner, at or above the cap floor."""
    report = search._auto_enumerate(half_disk, 10)
    assert report.method == "enumeration m=480"
    assert validate_tuple(report.witness) == []
    assert report.value >= search._cap_floor(half_disk, 10)
    assert search._equal_boundary_report(half_disk, 10) is None


@pytest.mark.parametrize("name", ["D4", "rect2x1", "quad", "half-disk", "slice-60", "stadium"])
@pytest.mark.parametrize("m", [8, 24, 97])
def test_edge_run_w_min_is_the_column_scan(name, m):
    """With no incumbent, a convex grid's column scan stops at the least
    width that holds a finite eta, which the edge runs decide alone: the
    least ``w`` with a row i where ``fwd[i] < w < m - bwd[i]``.  So is the
    scan's answer at every limit, the top widths included, where the bound
    ``w < m - bwd[i]`` decides."""
    domain = _GRID_DOMAINS[name]()
    grid = _prepare_grid(domain, m, full_validity=False)
    lo = grid.fwd + 1
    for limit in range(1, m + 1):
        want = int(lo.min(initial=limit, where=lo < m - grid.bwd))
        scan = dataclasses.replace(grid)  # a fresh copy: no column read
        assert scan.w_min_for(math.inf, limit) == want, limit


@pytest.mark.parametrize(
    "name", [name for name, build in _GRID_DOMAINS.items() if build().is_convex]
)
def test_lazy_grid_refusals_match_an_eager_grid(name):
    """Every candidate grid at k = 2..12 declines to search past its seeds,
    or starts its band of widths, where the whole table does, whose points
    are all evaluated and whose columns are all read up front: at the least
    width whose column beats the seeds less 1e-12, and past ``m // k`` when
    no k caps of that width fit."""
    domain = _GRID_DOMAINS[name]()
    tables = functools.cache(functools.partial(_reference_grid, domain))
    for k in range(2, 13):
        for m in _grid_candidates(domain, k):
            ref = tables(m, True)
            want = min(_reference_w_min(ref, _reference_seeds(domain, k, ref)[0]), m // k + 1)
            grid = _prepare_grid(domain, m, full_validity=False)
            best = search._grid_seeds(grid, k)[0]
            assert grid.w_min_for(best, m // k + 1) == want, (k, m)


def test_enumerate_disk_half_split(unit_disk):
    """m=36, k=2: the optimum is two half circles sharing their endpoints."""
    report = enumerate_caps(unit_disk, 2, 36)
    assert report.value == pytest.approx(2 / math.pi, abs=1e-12)
    assert report.kind is BoundKind.UPPER_BOUND
    assert validate_tuple(report.witness) == []
    lengths = sorted(
        (r.b - r.a) % unit_disk.perimeter for r in report.witness.regions
    )
    assert lengths == pytest.approx([math.pi, math.pi], abs=1e-9)


def test_enumerate_matches_brute_force_on_square(square):
    oracle = brute_force_two_caps(square, 8)
    report = enumerate_caps(square, 2, 8)
    assert report.value == pytest.approx(oracle, abs=1e-12)
    assert report.value == pytest.approx(0.5, abs=1e-12)  # midpoint halves


def test_enumerate_matches_brute_force_on_disk(unit_disk):
    oracle = brute_force_two_caps(unit_disk, 12)
    report = enumerate_caps(unit_disk, 2, 12)
    assert report.value == pytest.approx(oracle, abs=1e-12)


def test_enumeration_frees_its_table_without_the_cycle_collector(lshape, monkeypatch):
    # nothing the enumeration returns keeps the grid and its band alive
    grids = []

    def spy(*args, **kwargs):
        grid = _prepare_grid(*args, **kwargs)
        grids.append(weakref.ref(grid))
        return grid

    monkeypatch.setattr(search, "_prepare_grid", spy)
    gc.disable()
    try:
        report = enumerate_caps(lshape, 2, 24)
        assert report.evaluations > 0
        assert [ref() for ref in grids] == [None]
    finally:
        gc.enable()


def test_enumerate_caps_refuses_a_grid_size_that_is_not_an_integer(square):
    # NumPy's IndexError came from the grid before
    with pytest.raises(InvalidParameterError, match=r"^m must be an integer, got 36\.5$"):
        enumerate_caps(square, 2, 36.5)


def test_enumerate_caps_refuses_a_bool_k(square):
    with pytest.raises(InvalidParameterError, match=r"^k must be an integer, got True$"):
        enumerate_caps(square, True, 8)


def test_enumerate_caps_accepts_numpy_integers(square):
    want = enumerate_caps(square, 2, 8)
    got = enumerate_caps(square, np.int64(2), np.int32(8))
    assert _report_key(got) == _report_key(want)


def test_enumerate_caps_grid_too_small(square):
    with pytest.raises(InvalidParameterError):
        enumerate_caps(square, 3, 4)  # needs m >= 2k


@pytest.mark.parametrize("budget", [0, -1.0, math.nan])
def test_enumerate_caps_refuses_a_budget_that_is_not_positive(budget):
    # a grid's cost is fixed by its size: there is no work limit to set,
    # at any value
    with pytest.raises(TypeError, match="budget"):
        enumerate_caps(make_regular_polygon(7), 3, 2100, budget=budget)


# ---------------------------------------------------------------------------
# estimate_ik end to end
# ---------------------------------------------------------------------------


def test_estimate_disk(unit_disk):
    report = estimate_ik(unit_disk, 3)
    assert report.value == pytest.approx(ik_disk(3).value, abs=1e-9)
    assert validate_tuple(report.witness) == []
    assert report.cross_label is not None and "closed form" in report.cross_label


@pytest.mark.parametrize(
    "domain,delta,start",
    [
        (make_disk(), 0.0, "matches closed form "),
        (make_disk(), -1e-3, "below closed form "),
        (make_disk(), 1e-3, "above closed form "),
        (make_regular_polygon(7), 0.0, "at or below closed-form upper bound "),
        (make_regular_polygon(7), -1e-3, "at or below closed-form upper bound "),
        (make_regular_polygon(7), 1e-3, "above closed-form upper bound "),
    ],
    ids=["disk-match", "disk-below", "disk-above", "D7-at", "D7-below", "D7-above"],
)
def test_cross_label_names_each_outcome(domain, delta, start):
    """An exact form (disk, k=3) and an upper-bound form (D_7, k=3), with a
    value on, below and above it by 1e-3 at tolerance 1e-9."""
    known = search.ik_exact(domain, 3)
    assert known.kind is (BoundKind.UPPER_BOUND if domain.regular_order else BoundKind.EXACT)
    label = search._cross_label(domain, 3, known.value + delta, 1e-9)
    assert label.startswith(start + f"{known.value:.12g}")
    assert ("numerical witness inconsistency" in label) == (start == "below closed form ")


def test_estimate_hexagon_saturated(hexagon):
    report = estimate_ik(hexagon, 6)
    assert report.value == pytest.approx(math.cos(math.pi / 6), abs=1e-9)


def test_estimate_hexagon_divisor(hexagon):
    report = estimate_ik(hexagon, 3)
    assert report.value == pytest.approx(0.75, abs=1e-9)


def test_estimate_k1_is_exact(square):
    report = estimate_ik(square, 1)
    assert report.value == 0.0
    assert report.kind is BoundKind.EXACT
    assert report.witness is None


def test_estimate_rejects_bad_k(square):
    with pytest.raises(InvalidParameterError):
        estimate_ik(square, 0)


def test_estimate_nonconvex(lshape):
    """On the L-shape a chord into the reflex corner beats all corner caps."""
    report = estimate_ik(lshape, 2)
    bound = math.sin(math.pi / 4)  # the sharpest convex corner's bound
    assert report.value <= bound + 1e-7
    assert report.value < 0.5  # far below sin(pi/4): the reflex chord wins
    assert validate_tuple(report.witness) == []


def _star_hexagon_unjittered():
    polar = [(0.239, 0.968), (1.505, 1.048), (2.364, 0.822),
             (2.582, 1.251), (3.579, 0.525), (5.505, 0.872)]
    return make_polygon([(r * math.cos(a), r * math.sin(a)) for a, r in polar])


# repr of the value, method, evaluations and witness cuts, recorded while the
# refinement objective still tested every chord and then ran validate_tuple,
# and the general chord test always ray-cast the midpoint; the objective now
# scores each cap with one chord kernel call and checks the exterior rule and
# the pairs itself, and the side test decides most inside verdicts.  The
# lshape-2 and star-2 rows were re-recorded when the simplex order became
# stable on ties.  All three were re-recorded when the grid minimax became a
# bisection, which enumerates the finest candidate grid (m = 144) and counts
# its steps, not nodes
_NONCONVEX_TRAJECTORIES = {
    ("lshape", 2): (
        "0.3162277660168379", "nelder-mead", 2373,
        [(4.0, 7.333333330769706), (7.333333348658151, 3.722222235916515)],
    ),
    ("lshape", 3): (
        "0.7071067811865475", "enumeration m=144", 3015,
        [(1.222222222222222, 3.0555555555555554), (4.055555555555555, 5.944444444444444),
         (5.944444444444444, 1.222222222222222)],
    ),
    ("star", 2): (
        "0.39200096198955564", "nelder-mead", 1907,
        [(2.033929360369685, 2.930270307905315), (2.9660836947929674, 0.8550361662852168)],
    ),
}


@pytest.mark.parametrize("name, k", sorted(_NONCONVEX_TRAJECTORIES))
def test_nonconvex_estimates_are_pinned(name, k, lshape):
    """Nonconvex refinement reproduces its recorded trajectory bit for bit."""
    domain = lshape if name == "lshape" else _star_hexagon_unjittered()
    report = estimate_ik(domain, k)
    value, method, evaluations, cuts = _NONCONVEX_TRAJECTORIES[name, k]
    assert repr(float(report.value)) == value
    assert report.method == method
    assert report.evaluations == evaluations
    assert [(float(c.a), float(c.b), c.anchor) for c in report.witness.regions] == [
        (a, b, None) for a, b in cuts
    ]


# the perfbench regular-refine cases: repr of the value, method, evaluations
# and witness cuts, recorded while the convex refinement objective still built
# a Cap from NumPy scalars per cut pair and scored it with chord_is_interior
# and eta_partial.  The D3-3 and D5-5 rows were re-recorded when the simplex
# order became stable on ties, and the D3-3 row again when the bisection
# began to enumerate the finest candidate grid (m = 480)
_REGULAR_TRAJECTORIES = {
    ("disk", 2): (
        "0.6366197723675814", "equal-boundary", 2321,
        [(3.141592653589793, 0.0), (0.0, 3.141592653589793)],
    ),
    ("disk", 3): (
        "0.8269933431326881", "equal-boundary", 3010,
        [(0.0, 2.0943951023931953), (2.0943951023931953, 4.1887902047863905),
         (4.1887902047863905, 0.0)],
    ),
    ("disk", 4): (
        "0.9003163161571062", "equal-boundary", 3610,
        [(3.141592653589793, 4.71238898038469), (4.71238898038469, 0.0),
         (0.0, 1.5707963267948966), (1.5707963267948966, 3.141592653589793)],
    ),
    ("disk", 5): (
        "0.935489283788639", "equal-boundary", 4210,
        [(0.3141592653589793, 1.5707963267948966), (1.5707963267948966, 2.827433388230814),
         (2.827433388230814, 4.084070449666731), (4.084070449666731, 5.340707511102648),
         (5.340707511102648, 0.3141592653589793)],
    ),
    ("D3", 3): (
        "0.5000000000000001", "equal-boundary", 3028,
        [(0.8660254037844386, 2.598076211353316), (2.598076211353316, 4.330127018922194),
         (4.330127018922194, 0.8660254037844386)],
    ),
    ("D4", 4): (
        "0.7071067811865476", "equal-boundary", 3613,
        [(4.949747468305833, 0.7071067811865479), (0.7071067811865479, 2.121320343559643),
         (2.121320343559643, 3.5355339059327378), (3.5355339059327378, 4.949747468305833)],
    ),
    ("D5", 5): (
        "0.8090169943749473", "nelder-mead", 4214,
        [(0.5877778072125251, 1.763363190357744), (1.7637862486004057, 2.9384957577873116),
         (2.939487713082429, 4.113935323932291), (4.115398812445313, 5.289165221928705),
         (5.291927849299197, 0.5859246589871008)],
    ),
    ("D6", 3): (
        "0.75", "equal-boundary", 3016,
        [(0.49999999999999994, 2.5), (2.5, 4.5), (4.5, 0.49999999999999994)],
    ),
    ("D8", 4): (
        "0.8535533905932738", "equal-boundary", 3618,
        [(0.3826834323650897, 1.913417161825449), (1.913417161825449, 3.444150891285808),
         (3.444150891285808, 4.974884620746167), (4.974884620746167, 0.3826834323650897)],
    ),
}


@pytest.mark.parametrize("name, k", sorted(_REGULAR_TRAJECTORIES))
def test_regular_estimates_are_pinned(name, k):
    """Convex refinement reproduces its recorded trajectory bit for bit."""
    domain = make_disk() if name == "disk" else make_regular_polygon(int(name[1:]))
    report = estimate_ik(domain, k)
    value, method, evaluations, cuts = _REGULAR_TRAJECTORIES[name, k]
    assert repr(float(report.value)) == value
    assert report.method == method
    assert report.evaluations == evaluations
    assert [(float(c.a), float(c.b), c.anchor) for c in report.witness.regions] == [
        (a, b, None) for a, b in cuts
    ]


@pytest.mark.parametrize("bad", [Cap(2.5, 5.5), Cap(3.5, 4.5)])
def test_validate_tuple_flags_a_chord_past_the_reflex_corner(lshape, bad):
    """A cap whose chord leaves the L-shape at the reflex corner (1, 1) comes
    back as ``region-invalid`` beside a valid cap, not as an exception; the
    refinement objective scores such a tuple ``500 + bad`` from the same
    chord test (see ``test_fused_objective_matches_validating_first``)."""
    good = Cap(7.5, 0.5)  # around the corner (0, 0)
    assert validate_tuple(TupleCandidate(lshape, (good,))) == []
    out = validate_tuple(TupleCandidate(lshape, (good, bad)))
    assert [(v.first, v.second, v.predicate) for v in out] == [(1, 1, "region-invalid")]
    assert "does not cut through the interior" in out[0].detail
    assert not chord_is_interior(lshape, bad.a, bad.b)


@pytest.mark.parametrize("factor", [3.0, 0.25])
def test_estimate_scale_invariant(hexagon, factor):
    base = estimate_ik(hexagon, 2).value
    scaled_val = estimate_ik(scaled(hexagon, factor), 2).value
    assert scaled_val == pytest.approx(base, abs=1e-9)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------


def test_refine_never_worse_than_start(unit_disk):
    per = unit_disk.perimeter
    # lopsided but valid 3-cap start
    caps = (Cap(0.0, 1.1), Cap(1.5, 3.0), Cap(3.4, 5.9))
    start = TupleCandidate(unit_disk, caps)
    start_val = max_eta(start)
    report = refine_caps(unit_disk, start, SearchConfig(restarts=2, seed=7))
    assert report.value <= start_val + 1e-12
    assert validate_tuple(report.witness) == []
    # refinement is local, but from this start it has plenty of room
    assert report.value < start_val - 0.05
    assert report.value >= ik_disk(3).value - 1e-9  # never below the truth


def test_refine_accepts_cut_list(square):
    per = square.perimeter
    # cuts at edge midpoints (corner-spanning caps; cuts at the quarter
    # points would put each chord flat on an edge, an invalid start)
    cuts = [per / 8, 3 * per / 8, 5 * per / 8, 7 * per / 8]
    start_val = max_eta(
        TupleCandidate(square, (Cap(cuts[0], cuts[1]), Cap(cuts[2], cuts[3])))
    )
    report = refine_caps(square, cuts)
    assert report.value <= start_val + 1e-12


# a valid start of one and of two caps on the regular pentagon
_FINITE_CUTS = {2: [1.0, 1.4], 4: [0.4, 1.6, 2.8, 4.0]}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n, at", [(2, 0), (2, 1), (4, 0), (4, 1), (4, 2), (4, 3)])
def test_refine_rejects_non_finite_cuts(n, at, bad):
    """A NaN or infinite cut position is refused before the first
    evaluation: the objective would score a NaN cap 0.0 (``max(0.0, nan)``),
    and unwrapping an infinite cut would add the perimeter forever.  A
    profile hook records every call of the objective's code, inline-scored
    caps included."""
    cuts = list(_FINITE_CUTS[n])
    cuts[at] = bad
    (code,) = [c for c in refine_caps.__code__.co_consts if getattr(c, "co_name", "") == "objective"]
    calls = []

    def hook(frame, event, _arg):
        if event == "call" and frame.f_code is code:
            calls.append(frame.f_lineno)

    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        with pytest.raises(InvalidParameterError, match="finite"):
            refine_caps(make_regular_polygon(5), cuts)
    finally:
        sys.setprofile(old)
    assert calls == []


@pytest.mark.parametrize("cuts", [[0.3, 1.0, 1e9, 3.0], [0.3, 1.0, 2.0, -1e17]])
def test_refine_returns_on_a_far_cut(cuts):
    """A cut outside ``[0, P]`` is reduced modulo ``P`` before the unwrap,
    which added ``P`` to a cut once per turn: about 1.7e8 turns after 1e9,
    and forever after -1e17, where ``x + P == x``.  Both starts reduce to
    invalid tuples and are refused at once; an alarm turns a hang into a
    failure after 10 s."""

    def expire(_signum, _frame):
        raise TimeoutError("refine_caps did not return within 10 s")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        with pytest.raises(InvalidParameterError, match="valid starting tuple"):
            refine_caps(make_regular_polygon(5), cuts)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def test_refine_reduces_a_far_cut_to_its_cap():
    pentagon = make_regular_polygon(5)
    cuts = list(_FINITE_CUTS[4])
    cuts[2] -= 1e6 * pentagon.perimeter
    report = refine_caps(pentagon, cuts)
    assert validate_tuple(report.witness) == []
    assert report.value <= max_eta(TupleCandidate(pentagon, (Cap(0.4, 1.6), Cap(2.8, 4.0)))) + 1e-9


def _refinement_stream(domain, k):
    """``estimate_ik(domain, k)``'s refinement: the number of points its
    optimiser evaluated, the report's evaluations (one more, the start), and
    the SHA-256 over the ``.hex()`` of every point and score in evaluation
    order, then the evaluations and the value's ``.hex()``."""
    lines, reports = [], []
    real_nelder_mead, real_refine = search._nelder_mead, search.refine_caps

    def nelder_mead(fun, x0, *args):
        def logged(x):
            score = fun(x)
            lines.append(" ".join([*(v.hex() for v in x), score.hex()]))
            return score

        return real_nelder_mead(logged, x0, *args)

    def refine(*args):
        reports.append(real_refine(*args))
        return reports[-1]

    with mock.patch.object(search, "_nelder_mead", nelder_mead), \
            mock.patch.object(search, "refine_caps", refine):
        estimate_ik(domain, k)
    (report,) = reports
    points = len(lines)
    lines += [str(report.evaluations), report.value.hex()]
    return points, report.evaluations, hashlib.sha256("\n".join(lines).encode()).hexdigest()


# recorded before the optimiser placed new vertices by bisection and kept
# running centroid sums; D8-k4, rect2x1-k2 and half-disk-k2 recorded before
# the objective scored convex caps inline; L-k2 and star-k2 re-recorded when
# the grid minimax became a bisection on the finest candidate grid
_REFINEMENT_STREAMS = {
    "D5-k5": (4200, 4201, "aba20a252ab5093c8e26ae76f53aff7aa474cce6b10e6f363251445cb0f11f1a"),
    "D8-k4": (3600, 3601, "cb89a32f00a8656f54dfeb3e1d2c08074f4ac877fc07c75e4ea3ed656ef84f8c"),
    "disk-k3": (3000, 3001, "9a777a6b534cf24ac4a649a1b94c81bc68abb43ed7e49b358c917d8b4c234e3a"),
    "rect2x1-k2": (2280, 2281, "09c9698ca3a03984a3f69f0a6c09e60a617d77a8b7b75d59c3d937e8275f39ae"),
    "half-disk-k2": (
        2316, 2317, "d9ad42d3deffc7f53ad6cfed7510a1844c5725ec6f328b9538630702932f01b3"
    ),
    "L-k2": (2356, 2357, "7bdd96d5f5a6b6e4cbee2f4a767ea01991db0c123af3baa425b7070dbf67f727"),
    "star-k2": (1879, 1880, "e54bcaafa6610c3914bfb5416e8c80a5c06011a326543c44bde1aa8c382321d8"),
}


@pytest.mark.parametrize("case", sorted(_REFINEMENT_STREAMS))
def test_refinement_stream_is_pinned(case, unit_disk, lshape, half_disk):
    """Every point refinement evaluates from the ``estimate_ik`` seed, and
    its score, bit for bit and in order, with the evaluations and value.
    The rectangle is the one of ``escobar optimize --rect 2 1``."""
    domain, k = {
        "D5-k5": (make_regular_polygon(5), 5),
        "D8-k4": (make_regular_polygon(8), 4),
        "disk-k3": (unit_disk, 3),
        "rect2x1-k2": (make_polygon([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)]), 2),
        "half-disk-k2": (half_disk, 2),
        "L-k2": (lshape, 2),
        "star-k2": (star_hexagon(), 2),
    }[case]
    assert _refinement_stream(domain, k) == _REFINEMENT_STREAMS[case]


@pytest.mark.parametrize("name, k", [("disk", 3), ("lshape", 2)])
def test_reports_carry_python_floats(name, k, unit_disk, lshape):
    report = estimate_ik(unit_disk if name == "disk" else lshape, k)
    assert type(report.value) is float
    assert all(type(c.a) is float and type(c.b) is float for c in report.witness.regions)


# repr of the value and the evaluations of estimate_ik(scaled(domain,
# factor), 2), recorded before refinement fused its chord tests and re-recorded
# when the simplex order became stable on ties and when the grid minimax
# became a bisection on the finest candidate grid
_SCALED_NONCONVEX = {
    ("lshape", 1e-6): ("0.3162277660168379", 2417),
    ("lshape", 1e6): ("0.31622776601683794", 2388),
    ("star", 1e-6): ("0.3920009619895556", 1912),
    ("star", 1e6): ("0.3920009619895557", 1972),
}


@pytest.mark.parametrize("name, factor", sorted(_SCALED_NONCONVEX))
def test_scaled_nonconvex_estimates_are_pinned(name, factor, lshape):
    """Nonconvex refinement at scales 1e-6 and 1e6, where the side test's
    guards and the exterior rule's ``1e-9 P`` scale with the domain."""
    domain = lshape if name == "lshape" else _star_hexagon_unjittered()
    report = estimate_ik(scaled(domain, factor), 2)
    assert (repr(report.value), report.evaluations) == _SCALED_NONCONVEX[name, factor]
    assert validate_tuple(report.witness) == []


# repr of the value and the evaluations of estimate_ik(L-shape shifted by
# (t, t), 2), recorded before the general chord test's box reject; the 10.0
# row re-recorded when the simplex order became stable on ties, and both
# when the grid minimax became a bisection on the finest candidate grid
_TRANSLATED_NONCONVEX = {
    10.0: ("0.3162277660168378", 2368),
    1e3: ("0.31622776601683616", 2413),
}


@pytest.mark.parametrize("shift", sorted(_TRANSLATED_NONCONVEX))
def test_translated_nonconvex_estimates_are_pinned(shift, lshape):
    """Nonconvex refinement on L-shapes whose bounding box reaches farther
    than the scale from the origin, where the side test and the box reject
    of the general chord test stand aside."""
    domain = make_polygon([(x + shift, y + shift) for x, y in lshape.vertices])
    assert not domain._near_origin
    report = estimate_ik(domain, 2)
    assert (repr(report.value), report.evaluations) == _TRANSLATED_NONCONVEX[shift]
    assert validate_tuple(report.witness) == []


def _moved(domain, angle, shift):
    """``domain`` rotated by ``angle`` about the origin, then moved by
    ``shift``."""
    c, s = math.cos(angle), math.sin(angle)

    def move(p):
        return (c * p[0] - s * p[1] + shift[0], s * p[0] + c * p[1] + shift[1])

    edges = []
    for e in domain.edges:
        if isinstance(e, Segment):
            edges.append(Segment(move(e.start), move(e.end)))
        else:
            edges.append(
                Arc(move(e.center), e.radius, e.start_angle + angle, e.end_angle + angle, e.ccw)
            )
    return make_domain(edges)


_INVARIANCE_CASES = {
    "lshape-k2": (lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 2),
    "lshape-k3": (lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]), 3),
    "star-k2": (star_hexagon, 2),
    "D5-k5": (lambda: make_regular_polygon(5), 5),
    "disk-k3": (make_disk, 3),
}


@pytest.mark.parametrize("case", sorted(_INVARIANCE_CASES))
def test_estimate_is_invariant_under_scaling_and_rigid_motion(case):
    """eta does not change under scaling or a rigid motion, so neither does
    I_k.  Copies scaled by 1e-6 and 1e6, moved by (10, 0) and (1e3, 1e3),
    and rotated by 1.1 rad each give a valid witness, with the value of the
    original within ``1e-14 + 4e-15 |shift| / scale`` relative.  The bound
    grows with the shift because ``point_at``'s error is absolute: about an
    ulp of the coordinates, which the chords, about ``scale`` long, turn
    into a relative error.  The largest move here is 6.1e-13, on D5 moved
    by (1e3, 1e3), 540 times its scale."""
    build, k = _INVARIANCE_CASES[case]
    domain = build()
    base = estimate_ik(domain, k).value
    copies = {
        "scaled 1e-6": (scaled(domain, 1e-6), 0.0),
        "scaled 1e6": (scaled(domain, 1e6), 0.0),
        "moved (10, 0)": (_moved(domain, 0.0, (10.0, 0.0)), 10.0),
        "moved (1e3, 1e3)": (_moved(domain, 0.0, (1e3, 1e3)), math.hypot(1e3, 1e3)),
        "rotated 1.1": (_moved(domain, 1.1, (0.0, 0.0)), 0.0),
    }
    for label, (copy, shift) in copies.items():
        report = estimate_ik(copy, k)
        assert validate_tuple(report.witness) == [], label
        bound = 1e-14 + 4e-15 * shift / domain.scale
        assert abs(report.value - base) <= bound * base, (label, report.value, base)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="stages that tie within rounding are ranked by the least float, which moves "
    "with the scale; ROADMAP item 10 (rank reports by what they certify) mends it",
)
@pytest.mark.parametrize(
    "case, factor",
    [
        ("disk-k2", 1e-3),  # equal-boundary -> enumeration m=480
        ("lshape-k2", 3.7),  # nelder-mead -> enumeration m=144
        ("lshape-k3", 1e-6),  # enumeration m=144 -> nelder-mead
    ],
)
def test_estimate_names_the_same_method_on_a_scaled_copy(case, factor):
    """The stage that gives I_k's bound does not depend on the domain's
    scale.  On each copy here two stages tie within rounding, and the least
    float names another stage than on the original."""
    build, k = {**_INVARIANCE_CASES, "disk-k2": (make_disk, 2)}[case]
    domain = build()
    assert estimate_ik(scaled(domain, factor), k).method == estimate_ik(domain, k).method


# ---------------------------------------------------------------------------
# the fused refinement objective against validating the tuple first
# ---------------------------------------------------------------------------

_OBJECTIVE_DOMAINS = {
    "lshape": lambda: make_polygon([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]),
    "star": _star_hexagon_unjittered,
    "concave-square": concave_square,
}


def _retired_objective(domain, xl):
    """The refinement objective as it scored a nonconvex domain before it
    fused its chord tests: the order and width penalties, then
    validate_tuple first and a chord re-test of the caps it flags
    ``region-invalid``, then the max of eta_partial."""
    per = domain.perimeter
    k = len(xl) // 2
    min_w = 1e-9 * per
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
    caps = tuple(Cap(xl[2 * j] % per, xl[2 * j + 1] % per) for j in range(k))
    violations = validate_tuple(TupleCandidate(domain, caps))
    if violations:
        flagged = {v.first for v in violations if v.predicate == "region-invalid"}
        bad = sum(not chord_is_interior(domain, caps[i].a, caps[i].b) for i in flagged)
        return 500.0 + bad if bad else 400.0
    val = 0.0
    for c in caps:
        val = max(val, eta_partial(domain, c))
    return val


@functools.cache
def _refinement_objective(name, k):
    """The domain and the objective refine_caps minimises on it with k caps,
    taken from its first optimiser call.  The start is the first of 64
    rotations of k adjacent equal caps that the retired objective scores
    below 400."""
    domain = _OBJECTIVE_DOMAINS[name]()
    per = domain.perimeter
    starts = (
        [(off / 64 + i // 2 / k + i % 2 / k) * per for i in range(2 * k)] for off in range(64)
    )
    x0 = next(x for x in starts if _retired_objective(domain, x) < 400.0)
    captured = []
    with mock.patch.object(search, "_nelder_mead", lambda fun, *args: captured.append(fun)):
        refine_caps(domain, x0)
    return domain, captured[0]


def _score(objective, *args):
    try:
        return repr(objective(*args))
    except InvalidGeometryError as err:
        return type(err)


# times the perimeter; a cap from -5e-10 holds its vertex at the width floor
_CUT_OFFSETS = [0.0, 1e-15, -1e-15, -5e-10, 1e-9, -1e-9, 1e-6, -1e-6]


@st.composite
def _cut_vectors(draw):
    """Ordered cut vectors: cuts at, next to and away from the vertices
    (the reflex ones among them), neighbouring caps sharing a cut point
    exactly, widths at ``1e-9 P`` or 1 ulp off it, shifted by up to 3
    perimeters."""
    name = draw(st.sampled_from(sorted(_OBJECTIVE_DOMAINS)))
    k = draw(st.integers(2, 3))
    domain, _ = _refinement_objective(name, k)
    per = domain.perimeter
    n = len(domain.edges)

    def cut():
        if draw(st.booleans()):
            return draw(st.floats(0.0, 1.0, exclude_max=True)) * per
        v = domain.vertex_arclength(draw(st.integers(0, n - 1)))
        c = v + draw(st.sampled_from(_CUT_OFFSETS)) * per
        for _ in range(draw(st.integers(0, 2))):
            c = math.nextafter(c, draw(st.sampled_from([-math.inf, math.inf])))
        return c % per

    cuts = sorted(cut() for _ in range(2 * k))
    r = draw(st.integers(0, 2 * k - 1))
    xl = cuts[r:] + [c + per for c in cuts[:r]]
    for j in range(k):
        if j and draw(st.booleans()):
            xl[2 * j] = xl[2 * j - 1]
        if draw(st.integers(0, 2)) == 0:
            b = xl[2 * j] + 1e-9 * per
            xl[2 * j + 1] = math.nextafter(b, draw(st.sampled_from([-math.inf, b, math.inf])))
    if draw(st.booleans()):
        xl[-1] = xl[0] + per
    shift = draw(st.integers(-3, 3)) * per
    return name, k, [x + shift for x in xl]


def _touching_arc_examples(test):
    """``@example``s on every domain: two equal caps whose arcs touch at
    both ends (``xl[-1] == xl[0] + per``), from a cut at ``-1e-300``, which
    reduces to ``P``, and shifted by 3 perimeters either way.  Their arcs
    meet within rounding, where the retired objective's arc-overlap check
    would fire on more than ``TAU_GEOM * P``."""
    for name in sorted(_OBJECTIVE_DOMAINS):
        per = _OBJECTIVE_DOMAINS[name]().perimeter
        for s in (-1e-300, 3.0 * per, -3.0 * per):
            test = example(case=(name, 2, [s, s + per / 2, s + per / 2, s + per]))(test)
    return test


@settings(max_examples=500, deadline=None)
@given(case=_cut_vectors())
# the exterior rule: widths of 1e-9 P that reduce below it after a shift
@example(case=("lshape", 2, [-3.0000000059999996, -2.9999999979999994, -0.5999999999999996,
                             1.8000000000000007]))
@example(case=("concave-square", 2, [-1.0000000020553603, -0.9999999979446396,
                                     0.23321622036187772, 1.4664324407237546]))
# the same first cap with a second whose chord crosses the notch: a bad chord
# scores 500 + bad before the exterior rule's 400
@example(case=("lshape", 2, [-3.0000000059999996, -2.9999999979999994, 2.5, 4.5]))
# two nearly complementary caps, their ends 1 ulp apart on one side and
# 1e-9 P apart on the other: their chords overlap along a stretch
@example(case=("star", 2, [4.7077820169756786, 5.607687777909786, 5.607687783517473,
                           10.315469800493151]))
# a cap of width 1e-9 P flat on an edge
@example(case=("lshape", 2, [8.301235943220092, 8.301235951220093, 12.999999992000001,
                             13.999999999999993]))
# the pinned L-shape witness, with a cut at the reflex vertex (1, 1)
@example(case=("lshape", 2, [0.6666666690881444, 4.0, 4.277777777203589, 8.666666645911924]))
@_touching_arc_examples
def test_fused_objective_matches_validating_first(case):
    """The fused objective scores every vector as the retired one did, bit
    for bit, or raises the same exception."""
    name, k, xl = case
    domain, objective = _refinement_objective(name, k)
    assert _score(objective, xl) == _score(_retired_objective, domain, xl)


# ---------------------------------------------------------------------------
# corner family
# ---------------------------------------------------------------------------


def test_corner_family_square_k4(square):
    # one equal-leg cap per corner: exactly sin(pi/4)
    report = corner_family_bound(square, 4)
    assert report.value == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
    assert validate_tuple(report.witness) == []


def test_corner_family_square_k8(square):
    # two regions per corner force depth-2 chains: tiny but positive excess
    report = corner_family_bound(square, 8)
    excess = report.value - math.sin(math.pi / 4)
    assert 0.0 < excess < 1e-6


@pytest.mark.parametrize("factor", [1e-6, 1e6])
def test_corner_family_deep_chain_is_scale_invariant(factor):
    # a 30-deep anchored chain spans legs over 1e290 at any domain scale
    quad = make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)])
    base = corner_family_bound(quad, 30)
    report = corner_family_bound(scaled(quad, factor), 30)
    assert validate_tuple(report.witness) == []
    assert report.value == pytest.approx(base.value, rel=1e-12)
    assert 0.0 < base.value - math.sin(min(quad.interior_angles) / 2.0) < 1e-9


def test_corner_family_needs_corners(unit_disk):
    from escobar.errors import NotApplicableError

    with pytest.raises(NotApplicableError):
        corner_family_bound(unit_disk, 2)


@pytest.mark.parametrize(
    "name", ["D3", "D5", "D8", "quad", "rect2x1", "lshape", "star", "half-disk", "slice-60"]
)
def test_corner_family_reports_the_allocation_only(name):
    """The corner family reports the allocation, built in at most six
    shrinks of its legs."""
    domain = _GRID_DOMAINS[name]()
    for k in (2, 3, 5, 8, 12):
        report = corner_family_bound(domain, k)
        assert report.method == "corner-allocation"
        assert 1 <= report.evaluations <= 6  # one per shrink of the legs
        assert validate_tuple(report.witness) == []


@pytest.mark.parametrize("k", range(1, 11))
def test_corner_allocation_halves_the_legs_of_an_invalid_chain(k, monkeypatch):
    """A spike from the right side reaches into the first chain's outer cap
    at the 20 degree corner, so the allocation tuple fails validation once
    and the chain with halved legs passes."""
    a = math.radians(20.0)
    domain = make_polygon(
        [(0, 0), (4, 0), (4, 0.6), (1.2, 0.2), (4, 0.9), (4 * math.cos(a), 4 * math.sin(a))]
    )
    found = []

    def spy(tc):
        violations = validate_tuple(tc)
        found.append(len(violations))
        return violations

    monkeypatch.setattr(search, "validate_tuple", spy)
    report = corner_family_bound(domain, k)
    assert found[0] > 0 and found[1:] == [0]
    assert (report.method, report.evaluations) == ("corner-allocation", 2)
    assert validate_tuple(report.witness) == []
    assert report.value == max_eta(report.witness)
    assert report.value == pytest.approx(math.sin(a / 2.0), abs=1e-12)


def _bowed_square(r):
    """The unit square whose top side bows inwards along an arc of radius r."""
    h = math.sqrt(r * r - 0.25)
    return make_domain([
        Segment((0.0, 0.0), (1.0, 0.0)),
        Segment((1.0, 0.0), (1.0, 1.0)),
        Arc((0.5, 1.0 + h), r, math.atan2(-h, 0.5), math.atan2(-h, -0.5), ccw=False),
        Segment((0.0, 1.0), (0.0, 0.0)),
    ])


def _bowed_triangle(r):
    """The triangle (0, 0), (1, 0), (0.5, 1) whose base bows inwards along
    an arc of radius r."""
    h = math.sqrt(r * r - 0.25)
    return make_domain([
        Arc((0.5, -h), r, math.atan2(h, -0.5), math.atan2(h, 0.5), ccw=False),
        Segment((1.0, 0.0), (0.5, 1.0)),
        Segment((0.5, 1.0), (0.0, 0.0)),
    ])


#: concave-arc domains and the corner family's values at k = 1..12 from
#: before the allocation saw the bend of a concave arc, when a sweep of the
#: standard corner schedule at the sharpest corner competed with it
_CONCAVE_ARC_DOMAINS = {
    "concave-square": (concave_square, [
        0.38268357037513384, 0.3863161853781286, 0.45377347251532224,
        0.5219965464684279, 0.5222675922530559, 0.5222675922530559,
        0.5260562116485662, 0.5260562116485665, 0.5379046372122462,
        0.5379046372122462, 0.5587015480073527, 0.5587015480073527,
    ]),
    "square-R0.6": (functools.partial(_bowed_square, 0.6), [
        0.28867530613538145, 0.291518768770704, 0.34316770053584283,
        0.4416839842879038, 0.46070109967164113, 0.4607010996716412,
        0.46384555136490857, 0.46384555136490907, 0.4736755113505438,
        0.47367551135054414, 0.4909561711305917, 0.4909561711305917,
    ]),
    "square-R3": (functools.partial(_bowed_square, 3.0), [
        0.645497250741708, 0.651621504167035, 0.6733875103476091,
        0.6733875103476091, 0.6737807738679233, 0.6737807738679233,
        0.6792999135459824, 0.679299913545983, 0.69656495161535,
        0.6965649516153504, 0.7267774761125277, 0.7267774761125277,
    ]),
    "triangle-R0.6": (functools.partial(_bowed_triangle, 0.6), [
        0.06098125492974069, 0.06191324208094725, 0.07499274719956388,
        0.09707049311543797, 0.11693661795897357, 0.1513806375769516,
        0.181067190743493, 0.2182601462918627, 0.2535039573326607,
        0.27488793223325464, 0.282224930371892, 0.2822249303718921,
    ]),
    "triangle-R2": (functools.partial(_bowed_triangle, 2.0), [
        0.41435526019375385, 0.4183403563145963, 0.46500589511186835,
        0.46500589511186874, 0.46524059272967744, 0.46524059272967827,
        0.46866579182471046, 0.46866579182471085, 0.4796163817191674,
        0.47961638171916765, 0.49903265757179593, 0.49903265757179643,
    ]),
}


@pytest.mark.parametrize("name", _CONCAVE_ARC_DOMAINS)
@pytest.mark.parametrize("k", range(1, 13))
def test_corner_allocation_takes_short_legs_next_to_a_concave_arc(name, k):
    """Next to a concave arc a cap's ratio grows with its legs.  The
    allocation's chain model sees that bend, so its chains come out valid
    and at or below what the schedule sweep and the long-legged allocation
    gave before."""
    build, before = _CONCAVE_ARC_DOMAINS[name]
    report = corner_family_bound(build(), k)
    assert validate_tuple(report.witness) == []
    assert report.value == max_eta(report.witness)
    assert report.method == "corner-allocation"
    assert report.value <= before[k - 1]


# ---------------------------------------------------------------------------
# equal splits screened by the cap floor
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(_GRID_DOMAINS))
def test_equal_split_screen_changes_no_report(name):
    """The cap floor screens the equal splits out of estimate_ik: where it
    is +inf no split is valid, and elsewhere the best split at k = 2..12
    lies at or above it, within the rounding of a measured eta, so no
    split the screen skips beats a corner value below the floor."""
    domain = _GRID_DOMAINS[name]()
    for k in range(2, 13):
        floor = search._cap_floor(domain, k)
        report = search._equal_boundary_report(domain, k)
        if floor == math.inf:
            assert report is None, k
        elif report is not None:
            assert report.value >= floor * (1.0 - 1e-12), (k, report.value, floor)


# ---------------------------------------------------------------------------
# the cap family where no cap tuple exists
# ---------------------------------------------------------------------------


def _full_key(report):
    witness = json.dumps(tuple_to_json(report.witness), sort_keys=True)
    return (
        repr(report.value), report.method, report.evaluations, report.provenance,
        report.cross_label, witness,
    )


_SKIP_DOMAINS = {
    **NO_CAP_DOMAINS,
    **{name: _GRID_DOMAINS[name] for name in ("half-disk", "slice-60", "chord-cut")},
}

_SKIP_CASES = [
    (name, k)
    for name, build in NO_CAP_DOMAINS.items()
    for k in range(len(build().edges) + 1, len(build().edges) + 4)
] + [("half-disk", 10), ("slice-60", 10), ("chord-cut", 10)]


@pytest.mark.parametrize("name, k", _SKIP_CASES)
def test_cap_family_skip_changes_no_result(name, k, monkeypatch):
    """With more caps than vertices on straight or concave edges no cap
    tuple exists, and on the curvilinear domains at k = 10 the corner
    family lies below the cap floor.  Either way the cap stages find no
    tuple below the floor, and estimate_ik answers as the corner family
    alone does without running them."""
    domain = _SKIP_DOMAINS[name]()
    config = SearchConfig()
    corner_only = estimate_ik(domain, k, SearchConfig(families=("corner-strips",)))
    floor = search._cap_floor(domain, k)
    assert floor == math.inf or corner_only.value < floor
    assert search._equal_boundary_report(domain, k) is None
    enum = search._auto_enumerate(domain, k)
    assert enum is None or enum.witness is None or enum.value >= floor

    def refuse(*args, **kwargs):
        raise AssertionError("a cap stage ran")

    for stage in ("_equal_boundary_report", "_auto_enumerate", "refine_caps"):
        monkeypatch.setattr(search, stage, refuse)
    assert _full_key(estimate_ik(domain, k, config)) == _full_key(corner_only)


def test_no_cap_tuple_needs_flat_edges_and_more_caps_than_vertices(
    square, lshape, unit_disk, half_disk
):
    floor = search._cap_floor
    assert floor(square, 5) == math.inf and floor(square, 4) < math.inf
    assert floor(lshape, 7) == math.inf and floor(lshape, 6) < math.inf
    assert floor(concave_square(), 5) == math.inf
    # a convex arc holds any number of caps
    assert floor(unit_disk, 5) < math.inf
    assert floor(half_disk, 5) < math.inf


def test_explicit_grid_still_runs_the_cap_family(square):
    """k = 5 caps on the square: the caller's grid is enumerated as asked,
    with its parameter errors."""
    with pytest.raises(InvalidParameterError, match="at least 2k points"):
        estimate_ik(square, 5, SearchConfig(grid_points=9))
    with pytest.raises(InvalidParameterError, match="too fine"):
        estimate_ik(square, 5, SearchConfig(grid_points=6000))
    skipped = estimate_ik(square, 5)
    gridded = estimate_ik(square, 5, SearchConfig(grid_points=12))
    assert repr(gridded.value) == repr(skipped.value)
    assert gridded.method == skipped.method == "corner-allocation"
    assert gridded.evaluations == skipped.evaluations + 3  # the bisection steps


def test_caps_alone_fail_as_before_where_no_cap_tuple_exists(square):
    with pytest.raises(
        ConstructionFailedError,
        match=r"^no search family produced a valid tuple for k=5 on this domain$",
    ):
        estimate_ik(square, 5, SearchConfig(families=("caps",)))


# ---------------------------------------------------------------------------
# config and reports
# ---------------------------------------------------------------------------


def test_search_config_validation():
    with pytest.raises(InvalidParameterError):
        SearchConfig(families=("caps", "moonbeams"))
    for tolerance in (math.nan, math.inf):
        with pytest.raises(InvalidParameterError, match="tolerance must be finite"):
            SearchConfig(tolerance=tolerance)
    for tolerance in (-1.0, -1e-300):
        with pytest.raises(InvalidParameterError, match="tolerance must be non-negative"):
            SearchConfig(tolerance=tolerance)
    SearchConfig(tolerance=0.0)
    for restarts in (0, -1):
        with pytest.raises(InvalidParameterError, match="restarts"):
            SearchConfig(restarts=restarts)


def test_estimate_ik_refuses_a_bool_k(square):
    # True was read as k = 1 and got the closed form I_1 = 0
    with pytest.raises(InvalidParameterError, match=r"^k must be an integer, got True$"):
        estimate_ik(square, True)


def test_search_config_refuses_fractional_restarts():
    # 2.5 restarts raised TypeError from range() in the middle of a search
    with pytest.raises(InvalidParameterError, match=r"^restarts must be an integer, got 2\.5$"):
        SearchConfig(restarts=2.5)


def test_search_config_refuses_a_negative_seed():
    # NumPy refused it only when refinement drew its restarts
    with pytest.raises(InvalidParameterError, match=r"^seed must be non-negative, got -1$"):
        SearchConfig(seed=-1)


def test_search_config_takes_integers_by_index():
    config = SearchConfig(grid_points=np.int64(12), restarts=np.int32(2), seed=np.uint8(7))
    assert (config.grid_points, config.restarts, config.seed) == (12, 2, 7)
    assert all(type(v) is int for v in (config.grid_points, config.restarts, config.seed))
    for field, value in (("grid_points", 12.0), ("seed", False), ("seed", "3")):
        with pytest.raises(InvalidParameterError, match=f"^{field} must be an integer"):
            SearchConfig(**{field: value})


def test_report_json(unit_disk):
    report = estimate_ik(unit_disk, 2)
    data = report_to_json(report)
    json.dumps(data, allow_nan=False)  # strict JSON, no NaN/inf leaks
    assert data["value"] == report.value
    assert data["kind"] == report.kind.value
    assert data["method"] == report.method
    assert "witness" in data
    assert "evaluations" in data
