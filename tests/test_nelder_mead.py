"""The refinement optimiser: ``search._nelder_mead`` against SciPy's adaptive
Nelder-Mead, and SciPy off the import path of the package."""

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escobar.search import _nelder_mead

optimize = pytest.importorskip("scipy.optimize")


def _objective(kind, centre, q):
    """A deterministic objective of a list of floats.  ``quantised`` and
    ``constant`` have plateaus, so the simplex scores tie; ``penalty`` has
    the ``1e3 + violation`` and ``500 + bad`` steps of the refinement
    objective; ``inf`` returns ``inf`` over half the space."""

    def quadratic(x):
        acc = 0.0
        for i, (v, c) in enumerate(zip(x, centre)):
            acc += (i + 1) * (v - c) * (v - c)
        return acc

    def fun(x):
        if kind == "constant":
            return 1.0
        if kind == "quantised":
            return math.floor(quadratic(x) * q) / q
        if kind == "inf":
            return math.inf if x[0] > centre[0] + 0.5 else quadratic(x)
        if kind == "penalty":
            viol = 0.0
            for a, b in zip(x, x[1:]):
                if b < a:
                    viol += a - b
            if viol > 0.0:
                return 1e3 + viol
            bad = sum(abs(v) > 5.0 for v in x)
            if bad:
                return 500.0 + bad
        return quadratic(x)

    return fun


def _bits(points):
    return [[v.hex() for v in p] for p in points]


def _run_both(kind, centre, q, x0, xatol, fatol, maxfev):
    fun = _objective(kind, centre, q)
    ours, theirs = [], []

    def ours_fun(x):
        ours.append(list(x))
        return fun(x)

    def scipy_fun(x):
        theirs.append(x.tolist())
        return fun(x.tolist())

    x, fx = _nelder_mead(ours_fun, x0, xatol, fatol, maxfev)
    res = optimize.minimize(
        scipy_fun, x0, method="Nelder-Mead",
        options={"adaptive": True, "xatol": xatol, "fatol": fatol, "maxfev": maxfev},
    )
    return ours, theirs, (x, fx), res


_KINDS = ["quadratic", "quantised", "penalty", "inf", "constant"]


@st.composite
def _problems(draw):
    n = draw(st.integers(2, 16))
    coord = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))
    x0 = draw(st.lists(coord, min_size=n, max_size=n))
    centre = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    kind = draw(st.sampled_from(_KINDS))
    q = draw(st.sampled_from([0.5, 4.0, 100.0]))
    xatol = draw(st.sampled_from([1e-10, 1e-6, 1e-3, 1e-1]))
    fatol = draw(st.sampled_from([1e-10, 1e-6, 1e-3, 1e-1]))
    maxfev = draw(st.one_of(st.integers(1, n + 1), st.integers(n + 2, 600)))
    return kind, centre, q, x0, xatol, fatol, maxfev


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # SciPy's inf - inf
@settings(max_examples=300, deadline=None)
@given(problem=_problems())
@example(problem=("constant", [0.0] * 16, 1.0, [0.0] * 16, 1e-10, 1e-10, 40))
@example(problem=("penalty", [1.0, 2.0], 4.0, [3.0, 2.0], 1e-6, 1e-6, 200))
@example(problem=("inf", [0.0, 0.0], 1.0, [10.0, 10.0], 1e-1, 1e-1, 100))  # all scores inf
def test_port_evaluates_scipys_points_bit_for_bit(problem):
    """The same points, bit for bit and in the same order, the same number
    of calls, and the same final vertex and value as SciPy 1.17's
    ``minimize(method="Nelder-Mead", options={"adaptive": True, ...})``."""
    ours, theirs, (x, fx), res = _run_both(*problem)
    assert len(ours) == len(theirs) == res.nfev
    assert _bits(ours) == _bits(theirs)
    assert _bits([x]) == _bits([res.x.tolist()])
    assert fx == res.fun


@pytest.mark.parametrize("n", [2, 3, 8, 16])
@pytest.mark.parametrize("where", ["initial", "shrink"])
def test_port_stops_at_maxfev_where_scipy_does(n, where):
    """A constant objective ties every score, so each iteration reflects,
    contracts inside and shrinks.  The limit lands inside the initial
    simplex, or halfway through the first shrink: N + 1 initial calls,
    then the reflection and the contraction, then the shrunk vertices."""
    maxfev = n // 2 + 1 if where == "initial" else (n + 1) + 2 + n // 2
    ours, theirs, (x, fx), res = _run_both(
        "constant", [0.0] * n, 1.0, [float(i) for i in range(n)], 1e-10, 1e-10, maxfev
    )
    assert len(ours) == len(theirs) == maxfev
    assert _bits(ours) == _bits(theirs)
    assert _bits([x]) == _bits([res.x.tolist()])


def _fresh(code):
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True, cwd=Path(__file__).parents[1],
    )
    return out.stdout.split()


def test_importing_the_package_does_not_load_scipy_optimize():
    assert _fresh("""
        import sys
        import escobar, escobar.cli
        print("scipy.optimize" in sys.modules)
    """) == ["False"]


def test_concave_arc_sweep_imports_scipy_and_wins():
    """The golden-section sweep next to a concave arc imports SciPy when it
    runs, and still wins there (see ``tests/test_search.py``)."""
    assert _fresh("""
        import sys
        from escobar.search import corner_family_bound
        from tests.conftest import concave_square
        print("scipy.optimize" in sys.modules)
        report = corner_family_bound(concave_square(), 2)
        print("scipy.optimize" in sys.modules, report.method, repr(report.value))
    """) == ["False", "True", "corner-schedule", "0.3863161853781286"]
