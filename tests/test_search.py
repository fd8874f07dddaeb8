"""Search engines: enumeration, refinement, corner families, budgets."""

import itertools
import json
import math

import pytest

from escobar.errors import BudgetExceededError, InvalidParameterError
from escobar.exact import BoundKind, ik_disk, polygon_upper_bound
from escobar.geometry import (
    chord_is_interior,
    make_disk,
    make_polygon,
    make_regular_polygon,
    scaled,
)
from escobar.regions import Cap, TupleCandidate, eta_partial, max_eta, validate_tuple
from escobar.search import (
    SearchConfig,
    _prepare_grid,
    corner_family_bound,
    enumerate_caps,
    estimate_ik,
    refine_caps,
    report_to_json,
)
from tests.conftest import rectangle


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


@pytest.mark.parametrize(
    "domain",
    [make_regular_polygon(n) for n in range(3, 13)]
    + [make_polygon([(0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3)]), rectangle(2.0, 1.0)],
    ids=[f"D{n}" for n in range(3, 13)] + ["quad", "rect2x1"],
)
def test_convex_grid_mask_matches_chord_predicate(domain):
    # grid points whose arclength rounds to just below a vertex count on the
    # edge after it too, so the mask rejects chords along that edge
    for m in (24, 48, 96, 120):
        tables = _prepare_grid(domain, m, full_validity=True)
        for i in range(m):
            for j in range(i + 1, m):
                ok = chord_is_interior(domain, float(tables.svals[i]), float(tables.svals[j]))
                assert math.isfinite(tables.eta[i][j - i]) == ok, (m, i, j)
                assert math.isfinite(tables.eta[j][m - (j - i)]) == ok, (m, i, j)


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


def test_enumerate_grid_too_small(square):
    with pytest.raises(InvalidParameterError):
        enumerate_caps(square, 3, 4)  # needs m >= 2k


def test_enumerate_budget_refusal():
    dom = rectangle(1.0, 2.0)
    with pytest.raises(BudgetExceededError) as err:
        enumerate_caps(dom, 3, 100, budget=1000)
    assert err.value.estimate > err.value.budget
    assert err.value.budget == 1000


# ---------------------------------------------------------------------------
# estimate_ik end to end
# ---------------------------------------------------------------------------


def test_estimate_disk(unit_disk):
    report = estimate_ik(unit_disk, 3)
    assert report.value == pytest.approx(ik_disk(3).value, abs=1e-9)
    assert validate_tuple(report.witness) == []
    assert report.cross_label is not None and "closed form" in report.cross_label


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
    bound = polygon_upper_bound(lshape).value
    assert report.value <= bound + 1e-7
    assert report.value < 0.5  # far below sin(pi/4): the reflex chord wins
    assert validate_tuple(report.witness) == []


@pytest.mark.parametrize("factor", [3.0, 0.25])
def test_estimate_scale_invariant(hexagon, factor):
    base = estimate_ik(hexagon, 2).value
    scaled_val = estimate_ik(scaled(hexagon, factor), 2).value
    assert scaled_val == pytest.approx(base, abs=1e-9)


def test_estimate_respects_explicit_grid_budget():
    dom = rectangle(1.0, 2.0)
    cfg = SearchConfig(grid_points=100, budget=1000, families=("caps",))
    with pytest.raises(BudgetExceededError):
        estimate_ik(dom, 3, cfg)


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


# ---------------------------------------------------------------------------
# config and reports
# ---------------------------------------------------------------------------


def test_search_config_validation():
    with pytest.raises(InvalidParameterError):
        SearchConfig(families=("caps", "moonbeams"))
    with pytest.raises(InvalidParameterError):
        SearchConfig(budget=0)


def test_report_json(unit_disk):
    report = estimate_ik(unit_disk, 2)
    data = report_to_json(report)
    json.dumps(data, allow_nan=False)  # strict JSON, no NaN/inf leaks
    assert data["value"] == report.value
    assert data["kind"] == report.kind.value
    assert data["method"] == report.method
    assert "witness" in data
    assert "evaluations" in data
