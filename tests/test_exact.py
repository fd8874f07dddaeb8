"""Closed-form Escobar constants for the disk and regular polygons."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from escobar import constructions, exact, regions
from escobar.errors import ConstructionFailedError, InvalidParameterError, NotApplicableError
from escobar.exact import (
    TAU_NUM,
    BoundKind,
    disk_dominance_check,
    ik_disk,
    ik_exact,
    ik_regular_polygon,
)
from escobar.geometry import Arc, is_disk, make_domain, make_polygon, make_regular_polygon
from escobar.search import _grid_period, estimate_ik

# Frozen reference values (evaluated by hand from the closed forms):
#   I_2(disk) = sin(pi/2)/(pi/2) = 2/pi
#   I_3(disk) = sin(pi/3)/(pi/3) = 3*sqrt(3)/(2*pi)
I2_DISK = 0.6366197723675814
I3_DISK = 0.8269933431326881


def test_disk_values_frozen():
    assert ik_disk(2).value == pytest.approx(I2_DISK, abs=1e-15)
    assert ik_disk(3).value == pytest.approx(I3_DISK, abs=1e-15)


@pytest.mark.parametrize("k", range(2, 20))
def test_disk_formula(k):
    b = ik_disk(k)
    assert b.value == pytest.approx(math.sin(math.pi / k) / (math.pi / k), rel=1e-15)
    assert b.kind is BoundKind.EXACT


def test_disk_k1_is_zero():
    b = ik_disk(1)
    assert b.value == 0.0
    assert b.kind is BoundKind.EXACT


def test_disk_k_must_be_positive():
    with pytest.raises(InvalidParameterError):
        ik_disk(0)


# ---------------------------------------------------------------------------
# regular polygons
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", range(3, 13))
def test_saturation(n):
    """Once k >= n the constant freezes at cos(pi/n)."""
    want = math.cos(math.pi / n)
    for k in (n, n + 1, 2 * n, 50):
        b = ik_regular_polygon(n, k)
        assert b.value == pytest.approx(want, abs=1e-15)
        assert b.kind is BoundKind.EXACT


@pytest.mark.parametrize(
    "n,k,want",
    [
        (4, 2, 0.5),  # sin(pi/2)*2/(4*tan(pi/4)) = 1/2
        (6, 3, 0.75),  # 3/4
        (6, 2, math.sqrt(3) / 3),
        (8, 4, math.sin(math.pi / 4) / (2 * math.tan(math.pi / 8))),
        (9, 3, math.sin(math.pi / 3) / (3 * math.tan(math.pi / 9))),
        (10, 5, math.sin(math.pi / 5) / (2 * math.tan(math.pi / 10))),
        (12, 4, math.sin(math.pi / 4) / (3 * math.tan(math.pi / 12))),
    ],
)
def test_divisor_formula(n, k, want):
    b = ik_regular_polygon(n, k)
    assert b.value == pytest.approx(want, abs=1e-15)
    assert b.kind is BoundKind.EXACT


def test_nondivisor_is_upper_bound():
    b = ik_regular_polygon(5, 2)
    assert b.kind is BoundKind.UPPER_BOUND
    # never exceeds the saturated value
    assert b.value <= math.cos(math.pi / 5) + 1e-15
    assert b.value > 0


def test_regular_polygon_k1():
    assert ik_regular_polygon(7, 1).value == 0.0


def test_regular_polygon_validation():
    with pytest.raises(InvalidParameterError):
        ik_regular_polygon(2, 2)
    with pytest.raises(InvalidParameterError):
        ik_regular_polygon(5, 0)


# ---------------------------------------------------------------------------
# dispatch, bounds, checks
# ---------------------------------------------------------------------------


def test_ik_exact_dispatch(unit_disk, hexagon, lshape):
    assert ik_exact(unit_disk, 4).value == pytest.approx(ik_disk(4).value, abs=1e-15)
    assert ik_exact(hexagon, 6).value == pytest.approx(math.cos(math.pi / 6), abs=1e-15)
    with pytest.raises(NotApplicableError):
        ik_exact(lshape, 2)


def test_a_circle_that_make_domain_closes_is_a_disk():
    """``make_domain`` closes a single arc whose sweep is within 1e-9 of
    2 pi; ``is_disk`` asked for 1e-12, so this domain got no closed form,
    no cross-label and no disk grid period."""
    circle = make_domain([Arc((0.0, 0.0), 1.0, 0.0, 2 * math.pi - 5e-10)])
    assert is_disk(circle)
    assert ik_exact(circle, 3) == ik_disk(3)
    assert _grid_period(circle, 24) == 1
    report = estimate_ik(circle, 3)
    assert report.cross_label == f"matches closed form {I3_DISK:.12g}"


def test_rhombus_with_equal_sides_is_not_a_square():
    """Equal sides are not enough: the vertex radii differ, so the rhombus
    gets no closed form of D_4."""
    rhombus = make_polygon([(1, 0), (0, 0.5), (-1, 0), (0, -0.5)])
    assert rhombus.regular_order is None
    with pytest.raises(NotApplicableError):
        ik_exact(rhombus, 2)


def test_monotone_check():
    """The exactly known I_k(D_n) are nondecreasing in k."""
    for n, k_max in ((6, 50), (11, 40)):
        exact_k = [ik_regular_polygon(n, k) for k in range(1, k_max + 1)]
        values = [b.value for b in exact_k if b.kind is BoundKind.EXACT]
        assert all(b >= a - TAU_NUM for a, b in zip(values, values[1:])), n


# The disk-dominance inequality I_k(D_n) <= I_k(disk) fails at exactly these
# (n, k) pairs in the scan range: for k > n/2 the saturation value cos(pi/n)
# is exact (each region would need an arc holding two strictly interior
# vertices to beat it, and 2k > n makes that impossible), and at these pairs
# cos(pi/n) exceeds the disk value.  Confirmed independently by enumeration +
# refinement, which attain cos(pi/n) to 1e-15 and never go below.
DOMINANCE_COUNTEREXAMPLES = {(7, 4), (9, 5), (11, 6)}


@pytest.mark.parametrize(
    "n,k",
    [
        (n, k)
        for n in range(3, 13)
        for k in range(2, n)
        if (n, k) not in DOMINANCE_COUNTEREXAMPLES
    ],
)
def test_disk_dominance(n, k):
    ok, bound_dn, bound_disk = disk_dominance_check(n, k)
    assert ok
    assert bound_dn.value <= bound_disk.value + 1e-9


@pytest.mark.parametrize("n,k", sorted(DOMINANCE_COUNTEREXAMPLES))
def test_disk_dominance_counterexamples(n, k):
    """The three pairs where the polygon honestly beats the disk."""
    ok, bound_dn, bound_disk = disk_dominance_check(n, k)
    assert not ok
    # the reported bound is the (exact) extended saturation value cos(pi/n)
    assert bound_dn.value == pytest.approx(math.cos(math.pi / n), abs=1e-12)
    assert bound_dn.value > bound_disk.value + 1e-4


def test_disk_dominance_requires_k_below_n():
    with pytest.raises(InvalidParameterError):
        disk_dominance_check(5, 5)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
def test_disk_dominance_rejects_a_non_finite_tolerance(tol):
    # a NaN tolerance used to mark every pair unsatisfied
    with pytest.raises(InvalidParameterError, match="tolerance must be finite"):
        disk_dominance_check(7, 4, tol=tol)


def test_bound_str_uses_12_digits():
    text = str(ik_disk(3))
    assert "0.826993343133" in text
    assert "exact" in text


def test_bound_is_frozen():
    b = ik_disk(2)
    with pytest.raises(AttributeError):
        b.value = 0.0


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=200))
def test_disk_values_in_unit_interval(k):
    v = ik_disk(k).value
    assert 0.0 <= v < 1.0


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=199))
def test_disk_values_nondecreasing(k):
    assert ik_disk(k + 1).value >= ik_disk(k).value


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=24),
    k=st.integers(min_value=1, max_value=48),
)
def test_polygon_below_disk_where_proven(n, k):
    """Dominance holds wherever it is a theorem: k >= n and divisor pairs.

    (It is *false* in general: see DOMINANCE_COUNTEREXAMPLES above.)
    """
    if k >= n or n % k == 0:
        assert ik_regular_polygon(n, k).value <= ik_disk(k).value + 1e-12


@pytest.fixture
def fresh_equal_boundary_cache():
    exact._equal_boundary_eta.cache_clear()
    yield
    exact._equal_boundary_eta.cache_clear()


def test_equal_boundary_eta_skips_failed_splits(monkeypatch, fresh_equal_boundary_cache):
    def fails(*args, **kwargs):
        raise ConstructionFailedError("no split")

    monkeypatch.setattr(constructions, "equal_boundary_tuple", fails)
    assert exact._equal_boundary_eta(7, 3) is None


def test_equal_boundary_eta_lets_programming_errors_through(
    monkeypatch, fresh_equal_boundary_cache
):
    def broken(tc):
        raise TypeError("broken measurement")

    monkeypatch.setattr(regions, "max_eta", broken)
    with pytest.raises(TypeError, match="broken measurement"):
        exact._equal_boundary_eta(7, 3)


# ---------------------------------------------------------------------------
# the equal-split scan: one point per cut against the tuple-building loop
# ---------------------------------------------------------------------------


def _unvalidated_split(dom, k, offset):
    """The caps of ``constructions.equal_boundary_tuple(dom, k, offset)``,
    not validated."""
    per = dom.perimeter
    cuts = [(offset + j * per / k) % per for j in range(k)]
    caps = tuple(regions.Cap(cuts[j], cuts[(j + 1) % k]) for j in range(k))
    return regions.TupleCandidate(dom, caps)


def _ref_equal_boundary_eta(n, k):
    """The sampling loop ``exact._equal_boundary_eta`` replaced: a tuple and
    ``max_eta`` per sample.  Returns the value, or None, and the winning
    offset, or None."""
    dom = make_regular_polygon(n)
    period = dom.perimeter / n
    samples = 192
    best_off, best_val = None, math.inf
    for j in range(samples):
        off = j * period / samples
        try:
            val = regions.max_eta(_unvalidated_split(dom, k, off))
        except exact._CONSTRUCTION_ERRORS:
            continue
        if val < best_val:
            best_val, best_off = val, off
    if best_off is None:
        return None, None
    try:
        tc = constructions.equal_boundary_tuple(dom, k, start_offset=best_off)
    except exact._CONSTRUCTION_ERRORS:
        return None, best_off
    return regions.max_eta(tc), best_off


#: The pairs of ``conjecture-scan --n-range 3..20`` that reach the scan.
SCAN_PAIRS = [(n, k) for n in range(3, 21) for k in range(2, n) if n % k]


@pytest.mark.parametrize("n,k", SCAN_PAIRS)
def test_equal_boundary_eta_matches_the_tuple_loop_on_the_scan(n, k, monkeypatch):
    """Same value and the same winning offset, the first best one: both
    loops build the winner's tuple last, and the scan builds no other.  The
    scan re-measures only the offsets its NumPy screen puts near the least
    value, so the pairs up to n = 20 hold more ties to break."""
    offsets = []
    build = constructions.equal_boundary_tuple

    def recorded(*args, **kwargs):
        offsets.append(kwargs["start_offset"])
        return build(*args, **kwargs)

    monkeypatch.setattr(constructions, "equal_boundary_tuple", recorded)
    got = exact._equal_boundary_eta.__wrapped__(n, k)
    scan_offset = offsets[0]
    assert offsets == [scan_offset]
    want, ref_offset = _ref_equal_boundary_eta(n, k)
    assert offsets == [scan_offset, ref_offset]  # the reference builds its winner too
    assert repr(got) == repr(want)
    assert repr(scan_offset) == repr(ref_offset)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(min_value=3, max_value=60), data=st.data())
def test_equal_boundary_eta_matches_the_tuple_loop(n, data):
    k = data.draw(st.integers(min_value=2, max_value=n - 1).filter(lambda k: n % k))
    got = exact._equal_boundary_eta.__wrapped__(n, k)
    assert repr(got) == repr(_ref_equal_boundary_eta(n, k)[0])
