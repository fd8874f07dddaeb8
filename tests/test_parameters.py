"""Every count, every positive real and every finite real of the public
entry points is read by one rule (``errors._integer``, ``errors._positive``
and ``errors._finite``).

A count is taken by ``operator.index``: a bool, a fraction, NaN and a value
below its least raise :class:`InvalidParameterError` naming the parameter,
and a NumPy integer gives what the Python int gives.  A positive real
refuses a bool, NaN, zero, negative values and a value that rounds to 0.0
the same way, and a finite real a bool, NaN and both infinities, with
``Decimal`` NaNs among the NaNs; both refuse a string, None and a NumPy
array as no real number and a value past the float range, and take NumPy
scalars, ``Fraction`` and ``Decimal``.  A start offset is taken modulo the
perimeter, so a far one still gives k distinct cuts.
"""

import math
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from escobar.constructions import (
    corner_chain_tuple,
    corner_schedule_legs,
    corner_tuple,
    equal_boundary_tuple,
    geometric_legs,
    inscribed_kgon_tuple,
    stripe_tuple,
)
from escobar.errors import InvalidParameterError
from escobar.exact import disk_dominance_check, ik_disk, ik_exact, ik_regular_polygon
from escobar.geometry import make_disk, make_polygon, make_regular_polygon, scaled
from escobar.render import render_svg
from escobar.search import (
    SearchConfig,
    corner_family_bound,
    enumerate_caps,
    estimate_ik,
    refine_caps,
)
from escobar.symmetry import (
    audit_symmetrization,
    crossover_threshold,
    envelope_value,
    lower_envelope_check,
    symmetrize,
)

SQUARE = make_regular_polygon(4)  # side sqrt(2)
PENTAGON = make_regular_polygon(5)
DISK = make_disk()
RECT = make_polygon([(0.0, 0.0), (0.2, 0.0), (0.2, 5.0), (0.0, 5.0)])
CORNERS_ONLY = SearchConfig(families=("corner-strips",))

#: (entry point, parameter, least value, a valid value, the call with the count)
COUNTS = [
    ("enumerate_caps", "k", 2, 3, lambda v: enumerate_caps(SQUARE, v, 8)),
    ("enumerate_caps", "m", 4, 8, lambda v: enumerate_caps(SQUARE, 2, v)),
    ("estimate_ik", "k", 1, 2, lambda v: estimate_ik(SQUARE, v, CORNERS_ONLY)),
    ("corner_family_bound", "k", 1, 3, lambda v: corner_family_bound(SQUARE, v)),
    ("SearchConfig", "grid_points", 4, 12, lambda v: SearchConfig(grid_points=v)),
    ("SearchConfig", "restarts", 1, 2, lambda v: SearchConfig(restarts=v)),
    ("SearchConfig", "seed", 0, 7, lambda v: SearchConfig(seed=v)),
    ("equal_boundary_tuple", "k", 2, 3, lambda v: equal_boundary_tuple(SQUARE, v)),
    ("inscribed_kgon_tuple", "n", 3, 6, lambda v: inscribed_kgon_tuple(v, 2)),
    ("inscribed_kgon_tuple", "k", 2, 3, lambda v: inscribed_kgon_tuple(6, v)),
    ("corner_chain_tuple", "corner_index", 0, 1, lambda v: corner_chain_tuple(SQUARE, v, [0.1])),
    ("corner_tuple", "corner_index", 0, 2, lambda v: corner_tuple(SQUARE, v, 2)),
    ("corner_tuple", "k", 1, 3, lambda v: corner_tuple(SQUARE, 0, v)),
    ("corner_schedule_legs", "k", 1, 3, lambda v: corner_schedule_legs(v, 0.1)),
    ("geometric_legs", "k", 1, 3, lambda v: geometric_legs(0.1, 1.0, v)),
    ("stripe_tuple", "k", 1, 2, lambda v: stripe_tuple(RECT, v)),
    ("ik_disk", "k", 1, 3, ik_disk),
    ("ik_exact", "k", 1, 3, lambda v: ik_exact(DISK, v)),
    ("ik_regular_polygon", "n", 3, 6, lambda v: ik_regular_polygon(v, 4)),
    ("ik_regular_polygon", "k", 1, 4, lambda v: ik_regular_polygon(6, v)),
    ("make_regular_polygon", "n", 3, 5, make_regular_polygon),
    ("crossover_threshold", "n", 3, 5, crossover_threshold),
    ("envelope_value", "n", 3, 6, lambda v: envelope_value(v, 2)),
    ("envelope_value", "ell", 1, 2, lambda v: envelope_value(6, v)),
    ("audit_symmetrization", "n", 3, 5, lambda v: audit_symmetrization(v, 8)),
    ("audit_symmetrization", "trials", 1, 8, lambda v: audit_symmetrization(5, v)),
    ("audit_symmetrization", "seed", 0, 3, lambda v: audit_symmetrization(5, 8, v)),
    ("render_svg", "width", 1, 320, lambda v: render_svg(SQUARE, width=v)),
]

#: (entry point, parameter, a valid value, the call with the positive real)
REALS = [
    ("corner_chain_tuple", "legs", 1, lambda v: corner_chain_tuple(SQUARE, 0, [0.5, v])),
    ("corner_schedule_legs", "epsilon", 0.01, lambda v: corner_schedule_legs(3, v)),
    ("corner_tuple", "epsilon", 0.01, lambda v: corner_tuple(SQUARE, 0, 2, v)),
    ("geometric_legs", "t_min", 1, lambda v: geometric_legs(v, 2.0, 3)),
    ("geometric_legs", "t_max", 1, lambda v: geometric_legs(0.5, v, 3)),
    ("symmetrize", "exterior length", 1, lambda v: symmetrize(SQUARE, v)),
    ("stripe_tuple", "stripe height", 1, lambda v: stripe_tuple(RECT, 2, v)),
    ("make_disk", "disk radius", 2, make_disk),
    ("make_regular_polygon", "circumradius", 2, lambda v: make_regular_polygon(5, v)),
    ("scaled", "scale factor", 2, lambda v: scaled(SQUARE, v)),
]


#: (entry point, parameter, a valid value, the call with the finite real)
FINITES = [
    ("equal_boundary_tuple", "start_offset", 0.3, lambda v: equal_boundary_tuple(SQUARE, 3, v)),
    ("disk_dominance_check", "tolerance", 1e-9, lambda v: disk_dominance_check(5, 3, tol=v)),
    ("SearchConfig", "tolerance", 1e-9, lambda v: SearchConfig(tolerance=v)),
    # the side of the hexagon of circumradius 1
    ("lower_envelope_check", "L0", 1, lambda v: lower_envelope_check(6, v)),
    # a valid start of one cap on the regular pentagon
    ("refine_caps", "cut position", 1.0, lambda v: refine_caps(PENTAGON, [v, 1.4])),
]


def _ids(table):
    return [f"{row[0]}-{row[1]}" for row in table]


def _refusal(message: str):
    return pytest.raises(InvalidParameterError, match=f"^{re.escape(message)}$")


@pytest.mark.parametrize("bad", [True, False, 2.5, math.nan, "3"])
@pytest.mark.parametrize("entry, name, least, good, call", COUNTS, ids=_ids(COUNTS))
def test_a_count_must_be_an_integer(entry, name, least, good, call, bad):
    with _refusal(f"{name} must be an integer, got {bad!r}"):
        call(bad)


@pytest.mark.parametrize("entry, name, least, good, call", COUNTS, ids=_ids(COUNTS))
def test_a_count_below_its_least_is_refused(entry, name, least, good, call):
    word = {0: "non-negative", 1: "positive"}.get(least, f"at least {least}")
    with _refusal(f"{name} must be {word}, got {least - 1}"):
        call(least - 1)


@pytest.mark.parametrize("entry, name, least, good, call", COUNTS, ids=_ids(COUNTS))
def test_a_count_takes_numpy_integers(entry, name, least, good, call):
    assert repr(call(np.int64(good))) == repr(call(good))


# a Decimal NaN raised decimal.InvalidOperation from the comparison with 0
@pytest.mark.parametrize(
    "bad", [True, 0, 0.0, -1, -math.inf, math.nan, Decimal("NaN"), Decimal("sNaN")]
)
@pytest.mark.parametrize("entry, name, good, call", REALS, ids=_ids(REALS))
def test_a_positive_real_refuses_the_rest(entry, name, good, call, bad):
    with _refusal(f"{name} must be positive, got {bad}"):
        call(bad)


@pytest.mark.parametrize("entry, name, good, call", REALS, ids=_ids(REALS))
def test_a_positive_real_takes_numpy_numbers(entry, name, good, call):
    want = repr(call(float(good)))
    if isinstance(good, int):  # an epsilon below 1 has no integer value
        assert repr(call(np.int64(good))) == want
    assert repr(call(np.float64(good))) == want


@pytest.mark.parametrize(
    "call, message",
    [
        # each of these used to return a value or raise another error
        (lambda: ik_exact(make_disk(), True), "k must be an integer, got True"),  # I_1 = 0
        (lambda: ik_regular_polygon(6, 3.0), "k must be an integer, got 3.0"),  # 0.75 [exact]
        (lambda: ik_regular_polygon(6, 4.0), "k must be an integer, got 4.0"),  # TypeError
        (lambda: corner_chain_tuple(SQUARE, True, [0.1]),  # anchored at vertex 1
         "corner_index must be an integer, got True"),
        (lambda: make_regular_polygon(3.5), "n must be an integer, got 3.5"),
        (lambda: envelope_value(6, True), "ell must be an integer, got True"),
        (lambda: stripe_tuple(RECT, 2, math.nan), "stripe height must be positive, got nan"),
        (lambda: audit_symmetrization(5, seed=-1), "seed must be non-negative, got -1"),
        (lambda: enumerate_caps(SQUARE, 1, 8), "k must be at least 2, got 1"),  # IndexError
        # ValueError from the f-string: an int of more than 4 300 digits has no str
        (lambda: SearchConfig(seed=-10**5000), "seed must be non-negative, got -1e+5000"),
        # OverflowError from the angles, which divide by n as a float
        (lambda: make_regular_polygon(10**5000), "n must be at most 1.79769e+308 in magnitude"),
    ],
)
def test_parameters_that_used_to_slip_through(call, message):
    with _refusal(message):
        call()


def test_upper_bounds_keep_their_messages():
    with pytest.raises(InvalidParameterError, match=r"^need 1 <= ell <= n//2, got ell=4$"):
        envelope_value(6, 4)
    with pytest.raises(InvalidParameterError, match=r"^corner index 4 out of range$"):
        corner_chain_tuple(SQUARE, 4, [0.1])
    with pytest.raises(InvalidParameterError,
                       match=r"^inscribed split needs k dividing n, got k=4, n=6$"):
        inscribed_kgon_tuple(6, 4)


# a signaling Decimal NaN raised ValueError from math.isfinite
@pytest.mark.parametrize(
    "bad", [True, math.nan, math.inf, -math.inf, Decimal("NaN"), Decimal("sNaN")]
)
@pytest.mark.parametrize("entry, name, good, call", FINITES, ids=_ids(FINITES))
def test_a_finite_real_refuses_the_rest(entry, name, good, call, bad):
    with _refusal(f"{name} must be finite, got {bad}"):
        call(bad)


@pytest.mark.parametrize("entry, name, good, call", FINITES, ids=_ids(FINITES))
def test_a_finite_real_takes_numpy_numbers(entry, name, good, call):
    assert repr(call(np.float64(good))) == repr(call(float(good)))


#: Parameters where None asks for the default (the midpoint of the longest
#: edge, a stripe height that fits)
NONE_IS_DEFAULT = {("equal_boundary_tuple", "start_offset"), ("stripe_tuple", "stripe height")}


@pytest.mark.parametrize("bad", ["2", None, np.array([1.0, 2.0])])
@pytest.mark.parametrize("entry, name, good, call", REALS + FINITES, ids=_ids(REALS + FINITES))
def test_a_real_refuses_what_is_no_number(entry, name, good, call, bad):
    # each raised TypeError before, from a comparison or from math.isfinite,
    # and an array ValueError from the truth of its comparison with 0
    if bad is None and (entry, name) in NONE_IS_DEFAULT:
        call(None)  # the default, not a refusal
        return
    with _refusal(f"{name} must be a real number, got {bad!r}"):
        call(bad)


# each raised OverflowError, from float() or from math.isfinite
@pytest.mark.parametrize("bad", [10**400, Fraction(10**400)])
@pytest.mark.parametrize("entry, name, good, call", REALS + FINITES, ids=_ids(REALS + FINITES))
def test_a_real_past_the_float_range_is_refused(entry, name, good, call, bad):
    with _refusal(f"{name} must be at most 1.79769e+308 in magnitude"):
        call(bad)


# each was read as 0.0, a positive zero
@pytest.mark.parametrize("bad", [Fraction(1, 10**400), Decimal("1e-400")])
@pytest.mark.parametrize("entry, name, good, call", REALS, ids=_ids(REALS))
def test_a_positive_real_that_rounds_to_zero_is_refused(entry, name, good, call, bad):
    with _refusal(f"{name} must be positive as a float, got {bad}"):
        call(bad)


@pytest.mark.parametrize("entry, name, good, call", REALS + FINITES, ids=_ids(REALS + FINITES))
def test_a_real_takes_fractions_and_decimals(entry, name, good, call):
    want = repr(call(float(good)))
    assert repr(call(Fraction(good))) == want
    assert repr(call(Decimal(good))) == want


@pytest.mark.parametrize(
    "call, message",
    [
        # "chord between s=nan and s=nan ..." before
        (lambda: equal_boundary_tuple(SQUARE, 3, math.nan), "start_offset must be finite, got nan"),
        # a positive real first, so only +inf reaches the finite rule
        (lambda: scaled(SQUARE, math.inf), "scale factor must be finite, got inf"),
        # "cut positions must be finite, got [1.0, nan]" before
        (lambda: refine_caps(PENTAGON, [1.0, math.nan]), "cut position must be finite, got nan"),
    ],
)
def test_non_finite_reals_are_refused_by_name(call, message):
    with _refusal(message):
        call()


@pytest.mark.parametrize("bad", [-1.0, -1e-300, np.float64(-2.0), np.int64(-3)])
def test_a_negative_tolerance_is_refused(bad):
    # read as a float first, so a NumPy scalar is quoted as one
    with _refusal(f"tolerance must be non-negative, got {float(bad)}"):
        SearchConfig(tolerance=bad)


def test_a_tolerance_is_kept_as_a_float():
    # True was kept as True, and a NumPy scalar stayed one
    for value in (np.float64(1e-9), np.int64(0), 0):
        assert type(SearchConfig(tolerance=value).tolerance) is float
    with _refusal("tolerance must be finite, got True"):
        SearchConfig(tolerance=True)


@pytest.mark.parametrize(
    "families, message",
    [
        # reported "unknown search families: ['a', 'c', 'p', 's']" before
        ("caps", "families must be a collection of family names, got the string 'caps'"),
        # accepted before; estimate_ik then found "no search family produced a valid tuple"
        ((), "families must name at least one search family"),
        ([], "families must name at least one search family"),
        # "'NoneType' object is not iterable" before
        (None, "families must be a collection of family names, got None"),
        # "unhashable type: 'list'" before
        ([["caps"]], "families must be a collection of family names, got (['caps'],)"),
    ],
)
def test_search_families_must_be_a_nonempty_collection(families, message):
    with _refusal(message):
        SearchConfig(families=families)


def test_search_families_are_kept_as_a_tuple():
    assert SearchConfig(families=["corner-strips", "caps"]).families == ("corner-strips", "caps")
    assert SearchConfig(families=iter(["caps"])).families == ("caps",)
    with _refusal("unknown search families: ['moonbeams']"):
        SearchConfig(families=["caps", "moonbeams"])


@pytest.mark.parametrize(
    "dom, k, u",
    [*((DISK, k, u) for k in (2, 3, 5) for u in (0.0, 0.1, 0.25, 0.7, 1.0)),
     (SQUARE, 2, 0.125), (SQUARE, 2, 0.875), (RECT, 2, 0.01), (RECT, 2, 0.51)],
)
def test_offsets_below_the_perimeter_give_the_former_cuts(dom, k, u):
    """Reducing the offset first changes no cut of an offset in ``[0, P)``,
    up to the last float below ``P`` (``u = 1``)."""
    per = dom.perimeter
    off = math.nextafter(per, 0.0) if u == 1.0 else u * per
    want = [(off + j * per / k) % per for j in range(k)]
    got = equal_boundary_tuple(dom, k, off)
    assert [cap.a.hex() for cap in got.regions] == [c.hex() for c in want]


@pytest.mark.parametrize("off", [1e300, -1e300, 1e20, -3.5])
def test_a_far_offset_is_taken_modulo_the_perimeter(off):
    """A far offset used to round all k cuts to one float ("zero-length
    exterior boundary"); now it is the split at ``off % P``."""
    per = SQUARE.perimeter
    got = equal_boundary_tuple(SQUARE, 3, off)
    assert repr(got) == repr(equal_boundary_tuple(SQUARE, 3, off % per))
    assert len({cap.a for cap in got.regions}) == 3
