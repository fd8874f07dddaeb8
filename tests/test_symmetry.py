"""Symmetrization: axis-centered caps, crossover, envelope, audits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escobar import symmetry
from escobar.errors import InvalidParameterError, NotApplicableError
from escobar.exact import ik_regular_polygon
from escobar.geometry import make_disk, make_regular_polygon
from escobar.regions import Cap, eta_partial
from escobar.symmetry import (
    SymmetryAuditReport,
    audit_symmetrization,
    crossover_threshold,
    envelope_value,
    lower_envelope_check,
    monotonicity_check,
    symmetrization_inequality_check,
    symmetrize,
)


# ---------------------------------------------------------------------------
# symmetrize: measured caps vs closed forms
# ---------------------------------------------------------------------------


def _cap_eta_limit(n, lam, kind, side=1.0):
    """Closed-form eta of a symmetrized cap of exterior length ``lam`` on
    D_n with side ``side``, as ``(eta, degenerate)``: edge-centered for
    ``lam <= 3 side``, vertex-centered for ``lam <= 2 side``."""
    s = side
    if kind == "edge-centered":
        assert lam <= 3.0 * s + 1e-12 * s
        if lam <= s:
            return 1.0, True
        return (s + (lam - s) * math.cos(2.0 * math.pi / n)) / lam, False
    assert kind == "vertex-centered" and lam <= 2.0 * s + 1e-12 * s
    return math.cos(math.pi / n), False


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8, 12])
def test_vertex_centered_plateau(n):
    """For lam <= 2s the vertex-centered cap has eta = cos(pi/n) exactly."""
    dom = make_regular_polygon(n)
    s = dom.perimeter / n
    for frac in (0.3, 1.0, 1.7):
        lam = frac * s
        if lam > dom.perimeter / 2:
            continue
        vertex, _ = symmetrize(dom, lam)
        expected, degenerate = _cap_eta_limit(n, lam, "vertex-centered", side=s)
        assert not degenerate
        assert vertex.eta == pytest.approx(expected, abs=1e-12)
        assert vertex.eta == pytest.approx(math.cos(math.pi / n), abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 6, 8, 12])
def test_edge_centered_formula(n):
    """For s < lam <= 3s the edge-centered eta follows the linear-chord law."""
    dom = make_regular_polygon(n)
    s = dom.perimeter / n
    for frac in (1.2, 1.8, 2.5):
        lam = frac * s
        if lam > dom.perimeter / 2:
            continue
        _, edge = symmetrize(dom, lam)
        expected, degenerate = _cap_eta_limit(n, lam, "edge-centered", side=s)
        assert not degenerate
        assert edge.eta == pytest.approx(expected, abs=1e-12)
        assert edge.eta == pytest.approx(
            (s + (lam - s) * math.cos(2 * math.pi / n)) / lam, abs=1e-12
        )


def test_edge_centered_degenerate():
    dom = make_regular_polygon(4)
    s = dom.perimeter / 4
    _, edge = symmetrize(dom, 0.5 * s)
    assert edge.degenerate
    assert edge.eta == 1.0
    eta, degenerate = _cap_eta_limit(4, 0.5, "edge-centered")
    assert degenerate and eta == 1.0


def test_symmetrize_and_the_screen_share_the_degenerate_rule():
    """The edge-centered cap is degenerate for ``lam <= s (1 + 1e-12)``, in
    :func:`symmetrize` and in the NumPy screen alike."""
    dom = make_regular_polygon(6)
    s = dom.perimeter / 6
    lams = [s * (1 - 1e-12), s, s * (1 + 5e-13), s * (1 + 2e-12), 1.5 * s]
    want = [True, True, True, False, False]
    assert [symmetrize(dom, lam)[1].degenerate for lam in lams] == want
    _, screened = symmetry._screened_symmetrized(dom, np.array(lams))
    assert (screened == 1.0).tolist() == want


def test_symmetrize_validation():
    dom = make_regular_polygon(5)
    with pytest.raises(InvalidParameterError):
        symmetrize(dom, 0.0)
    with pytest.raises(InvalidParameterError):
        symmetrize(dom, 0.51 * dom.perimeter)
    with pytest.raises(NotApplicableError):
        symmetrize(make_disk(), 1.0)


# ---------------------------------------------------------------------------
# crossover: bisection oracle on *measured* etas
# ---------------------------------------------------------------------------


def measured_crossover(n):
    """Bisect for the exterior length where the edge-centered cap catches up.

    Uses only measured etas from symmetrize(), so it is independent of the
    closed-form threshold it is checked against.
    """
    dom = make_regular_polygon(n)
    per = dom.perimeter
    s = per / n
    lo = s * (1.0 + 1e-9)  # just past degeneracy: edge eta near 1
    hi = min(2.0 * s, per / 2.0)

    def gap(lam):
        vertex, edge = symmetrize(dom, lam)
        return edge.eta - vertex.eta

    assert gap(lo) > 0.0
    assert gap(hi) <= 1e-12
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if gap(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
def test_crossover_matches_bisection(n):
    dom = make_regular_polygon(n)
    s = dom.perimeter / n
    assert s * crossover_threshold(n) == pytest.approx(
        measured_crossover(n), abs=1e-8 * dom.perimeter
    )


def test_crossover_known_values():
    assert crossover_threshold(3) == pytest.approx(1.5, abs=1e-12)
    assert crossover_threshold(4) == pytest.approx(math.sqrt(2), abs=1e-12)
    # decreasing toward the flat limit 4/3
    ratios = [crossover_threshold(n) for n in range(3, 41)]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert all(1.0 < r <= 1.5 + 1e-12 for r in ratios)
    assert 4 / 3 < crossover_threshold(100) < 1.34


# ---------------------------------------------------------------------------
# envelope at equal-split lengths
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "n,ell,k", [(6, 2, 3), (6, 3, 2), (8, 2, 4), (8, 4, 2), (12, 3, 4)]
)
def test_envelope_matches_equal_split_constant(n, ell, k):
    """At lam = ell*s with ell = n/k the envelope is the k-split constant."""
    assert envelope_value(n, ell) == pytest.approx(
        ik_regular_polygon(n, k).value, abs=1e-12
    )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_lower_envelope_all_ell(n):
    dom = make_regular_polygon(n)
    s = dom.perimeter / n
    for ell in range(1, n // 2 + 1):
        check = lower_envelope_check(n, ell * s)
        assert check.ok
        assert check.ell == ell
        assert check.expected_kind == (
            "vertex-centered" if ell % 2 else "edge-centered"
        )
        assert min(check.vertex_eta, check.edge_eta) == pytest.approx(
            envelope_value(n, ell), abs=1e-9
        )


def test_lower_envelope_rejects_off_grid():
    with pytest.raises(InvalidParameterError):
        lower_envelope_check(6, 1.37)
    with pytest.raises(InvalidParameterError):
        envelope_value(6, 4)  # ell > n//2


# ---------------------------------------------------------------------------
# inequality, monotonicity, audit
# ---------------------------------------------------------------------------


def test_inequality_check_simple(hexagon):
    per = hexagon.perimeter
    cap = Cap(0.13 * per, 0.52 * per)
    ok, eta, bound = symmetrization_inequality_check(hexagon, cap)
    assert ok
    assert eta == pytest.approx(eta_partial(hexagon, cap), abs=1e-15)
    assert bound <= eta + 1e-12


def test_inequality_check_measures_a_far_cap_as_its_reduced_cap(hexagon):
    # the check symmetrized (b - a) % P, which loses b next to a = 1e308,
    # while the cap's eta is that of its arclengths modulo P
    per = hexagon.perimeter
    a = 1e308 % per
    far, near = Cap(1e308, a + 1.0), Cap(a, a + 1.0)
    assert symmetrization_inequality_check(hexagon, far) == symmetrization_inequality_check(
        hexagon, near
    )


def test_inequality_check_rejects_long_caps(hexagon):
    per = hexagon.perimeter
    with pytest.raises(InvalidParameterError):
        symmetrization_inequality_check(hexagon, Cap(0.0, 0.75 * per))


@pytest.mark.parametrize("n", range(3, 9))
def test_monotonicity(n):
    assert monotonicity_check(n)


@pytest.mark.parametrize("n", [3, 5, 8])
def test_audit(n):
    report = audit_symmetrization(n, trials=120, seed=3)
    assert report.ok
    assert report.n == n and report.trials == 120
    assert report.inequality_violations == 0
    assert report.worst_slack >= -1e-12
    assert report.crossover_in_range and 1.0 < report.crossover_ratio <= 1.5
    assert report.monotone_ok and report.envelope_ok


def _ref_monotonicity_check(domain):
    """``monotonicity_check`` as it was before its NumPy screen: every
    sampled length through ``symmetrize``."""
    per = domain.perimeter
    lams = np.linspace(per / 320.0, per / 2.0, 160)
    prev_v = prev_e = math.inf
    for lam in lams:
        vertex, edge = symmetrize(domain, float(lam))
        if vertex.eta > prev_v + 1e-11 or edge.eta > prev_e + 1e-11:
            return False
        prev_v, prev_e = vertex.eta, edge.eta
    return True


def _ref_audit_symmetrization(n, trials, seed):
    """``audit_symmetrization`` as it was before its NumPy screen: two
    scalar draws and an exact ``symmetrization_inequality_check`` per
    trial."""
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
    return SymmetryAuditReport(
        n=n,
        trials=trials,
        inequality_violations=violations,
        worst_slack=worst,
        crossover_ratio=ratio,
        crossover_in_range=1.0 < ratio <= 1.5 + 1e-12,
        monotone_ok=_ref_monotonicity_check(domain),
        envelope_ok=all(
            lower_envelope_check(n, ell * per / n).ok for ell in range(1, n // 2 + 1)
        ),
    )


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(3, 16),
    seed=st.integers(0, 2**32 - 1),
    trials=st.integers(1, 600),
)
def test_audit_matches_the_scalar_loop(n, seed, trials):
    """The screened audit reports every field of checking each trial
    exactly, by repr, and its one array draw is the scalar draws' stream."""
    got = audit_symmetrization(n, trials=trials, seed=seed)
    want = _ref_audit_symmetrization(n, trials, seed)
    for field in SymmetryAuditReport.__dataclass_fields__:
        assert repr(getattr(got, field)) == repr(getattr(want, field)), field


@pytest.mark.parametrize("n", range(3, 17))
def test_monotonicity_matches_the_scalar_loop(n, monkeypatch):
    """Screened, and with an infinite screen margin, where every pair of
    neighbouring samples is re-decided by ``symmetrize``."""
    want = _ref_monotonicity_check(make_regular_polygon(n))
    assert monotonicity_check(n) == want
    monkeypatch.setattr(symmetry, "_SCREEN_MARGIN", math.inf)
    assert monotonicity_check(n) == want


def _screened_audit(screened, exact):
    """``symmetry._screened_audit`` of the screened slacks, with ``exact``
    (trial -> (ok, slack)) as the re-measurement; also the trials it
    re-measured."""
    measured = []

    def remeasure(t):
        measured.append(t)
        return exact[t]

    return symmetry._screened_audit(np.array(screened), remeasure), measured


def test_screened_audit_lets_the_exact_path_decide_near_its_thresholds():
    """A trial that screens 0.4 margins above the violation threshold is a
    violation when its exact slack lies below it; a trial that screens 0.4
    margins above the least slack gives the worst slack when its exact
    slack is the least.  Trials far from both thresholds are never
    re-measured, and one far below the violation threshold is counted by
    the screen."""
    m, cut = symmetry._SCREEN_MARGIN, -symmetry._INEQUALITY_MARGIN
    assert _screened_audit([0.3, cut + 0.4 * m, 0.2], {1: (False, cut - 0.1 * m)}) == (
        (1, cut - 0.1 * m), [1]
    )
    exact = {1: (True, 0.1), 2: (True, 0.1 - 0.1 * m)}
    assert _screened_audit([0.3, 0.1, 0.1 + 0.4 * m, 0.2], exact) == ((0, 0.1 - 0.1 * m), [1, 2])
    assert _screened_audit([0.3, -0.5, -0.2], {1: (False, -0.5)}) == ((2, -0.5), [1])


def test_audit_needs_trials():
    with pytest.raises(InvalidParameterError):
        audit_symmetrization(4, trials=0)


@given(
    start=st.floats(0.0, 1.0, allow_nan=False),
    frac=st.floats(0.01, 0.5, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_inequality_property_hexagon(start, frac):
    dom = make_regular_polygon(6)
    per = dom.perimeter
    cap = Cap(start * per, (start * per + frac * per) % per)
    ok, _, _ = symmetrization_inequality_check(dom, cap)
    assert ok
