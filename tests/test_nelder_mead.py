"""The refinement optimiser: ``search._nelder_mead`` evaluates SciPy's
adaptive Nelder-Mead points, with a stable tie order; its simplex order
against ``np.argsort(kind="stable")``; reports that do not depend on NumPy's
CPU dispatch; and SciPy off the import path of the package."""

import bisect
import functools
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from escobar.regions import tuple_to_json
from escobar.search import TAU_OPT, _nelder_mead, _simplex_order, estimate_ik
from perfbench import workloads

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
    with mock.patch.object(np, "argsort", functools.partial(np.argsort, kind="stable")):
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


def _refinement_shaped(n, kind):
    """A problem of refinement's shape: n = 2k cut positions spread over a
    perimeter of 2 pi, refinement's tolerances there and its ``maxfev = 300 +
    150 k``.  The n = 4 runs stop at the tolerances and the others at
    ``maxfev``; each shrinks 69 to 93 times among its insertions."""
    x0 = [2 * math.pi * (i + 0.5) / n for i in range(n)]
    centre = [2 * math.pi * i / n for i in range(n)]
    return kind, centre, 4.0, x0, 1e-3 * TAU_OPT * 2 * math.pi, 1e-2 * TAU_OPT, 300 + 75 * n


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # SciPy's inf - inf
@settings(max_examples=300, deadline=None)
@given(problem=_problems())
@example(problem=_refinement_shaped(4, "penalty"))
@example(problem=_refinement_shaped(4, "quantised"))
@example(problem=_refinement_shaped(6, "penalty"))
@example(problem=_refinement_shaped(6, "quantised"))
@example(problem=_refinement_shaped(8, "penalty"))
@example(problem=_refinement_shaped(8, "quantised"))
@example(problem=_refinement_shaped(10, "penalty"))
@example(problem=_refinement_shaped(10, "quantised"))
@example(problem=("constant", [0.0] * 16, 1.0, [0.0] * 16, 1e-10, 1e-10, 40))
@example(problem=("penalty", [1.0, 2.0], 4.0, [3.0, 2.0], 1e-6, 1e-6, 200))
@example(problem=("inf", [0.0, 0.0], 1.0, [10.0, 10.0], 1e-1, 1e-1, 100))  # all scores inf
def test_port_evaluates_scipys_points_bit_for_bit(problem):
    """The same points, bit for bit and in the same order, the same number
    of calls, and the same final vertex and value as SciPy 1.17's
    ``minimize(method="Nelder-Mead", options={"adaptive": True, ...})``
    with its ``np.argsort`` made stable."""
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


# the refinement objective's penalties: 400, 500 + bad, 1e3 + violation
_PENALTIES = [400.0, 501.0, 502.0, 1e3 + 1e-9, 1e3 + 0.5]
_score = st.one_of(
    st.sampled_from([*_PENALTIES, math.nan, 0.0, -0.0, math.inf, -math.inf]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=500, deadline=None)
@given(scores=st.lists(_score, min_size=3, max_size=17))
@example(scores=[501.0, 400.0, 1.0, 1.0])
@example(scores=[0.0, -0.0, 400.0])
@example(scores=[math.nan, 1.0, math.nan, -math.inf])
def test_simplex_order_is_argsort(scores):
    """The order is ``np.argsort(kind="stable")``'s, so ties, ``+-0.0``
    among them, keep their index order.  NaN, which no objective returns,
    still gives a permutation."""
    got = _simplex_order(scores)
    if any(math.isnan(v) for v in scores):
        assert sorted(got) == list(range(len(scores)))
    else:
        assert got == np.argsort(np.array(scores, dtype=float), kind="stable").tolist()


_ordered_score = st.one_of(
    st.sampled_from([*_PENALTIES, 0.0, -0.0, math.inf, -math.inf]),
    st.floats(allow_nan=False, allow_infinity=True),
)


@settings(max_examples=500, deadline=None)
@given(prefix=st.lists(_ordered_score, min_size=1, max_size=16), score=_ordered_score)
@example(prefix=[-0.0, 1.0], score=0.0)
@example(prefix=[0.0, 0.0, 400.0], score=-0.0)
@example(prefix=[400.0, 501.0, 501.0, math.inf], score=501.0)
@example(prefix=[-math.inf, math.inf], score=math.inf)
@example(prefix=[math.inf], score=-math.inf)
def test_insertion_is_where_the_stable_sort_puts_a_new_vertex(prefix, score):
    """After an iteration without a shrink the simplex holds its n best
    vertices in order and one new one.  ``bisect_right`` over the n scores
    puts the new vertex where ``_simplex_order`` does: after every score
    that is not greater, ``+-0.0`` and ties among them."""
    prefix = sorted(prefix)
    n = len(prefix)
    at = bisect.bisect_right(prefix, score)
    assert _simplex_order([*prefix, score]) == [*range(at), n, *range(at, n)]


def _fresh(code, env=None):
    """Run ``code`` in a new interpreter from the checkout, with ``src`` and
    the checkout on its path, and ``env`` added to this environment."""
    root = Path(__file__).parents[1]
    path = [str(root / "src"), str(root), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **(env or {}), "PYTHONPATH": os.pathsep.join(filter(None, path))}
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, check=True, cwd=root, env=env,
    )
    return out.stdout.split()


def test_importing_the_package_does_not_load_scipy_optimize():
    assert _fresh("""
        import sys
        import escobar, escobar.cli
        print("scipy.optimize" in sys.modules)
    """) == ["False"]


def test_corner_family_next_to_a_concave_arc_does_not_load_scipy_optimize():
    """The corner family runs without SciPy, also on a domain with a
    concave arc, where a sweep by SciPy's bounded Brent method once ran."""
    assert _fresh("""
        import sys
        from escobar.search import corner_family_bound
        from tests.conftest import concave_square
        for k in (1, 2, 3):
            corner_family_bound(concave_square(), k)
        print("scipy.optimize" in sys.modules)
    """) == ["False"]


# benchmark cases (seed 0) whose refinement breaks ties in the simplex order
_TIED_CASES = ["D3-k3", "D5-k5", "L-k2", "star-k2"]


def _workload_reports(names):
    """Value repr, evaluations and witness JSON of the seed-0 benchmark
    cases ``names``, one compact JSON line each."""
    cases = {
        case.name: case
        for workload in ("regular-refine", "nonconvex-refine")
        for case in workloads.make_cases(workload, 0)
    }
    lines = []
    for name in names:
        case = cases[name]
        report = estimate_ik(workloads.build_domain(case.domain), case.k)
        row = [name, repr(report.value), report.evaluations, tuple_to_json(report.witness)]
        lines.append(json.dumps(row, separators=(",", ":")))
    return lines


def test_reports_do_not_depend_on_numpys_cpu_dispatch():
    """The reports of a process whose NumPy dispatches only its baseline
    features, as on a CPU without AVX-512, equal this process's."""
    baseline = np.show_config(mode="dicts")["SIMD Extensions"]["baseline"]
    if not baseline:
        pytest.skip("this NumPy build has no baseline to limit its dispatch to")
    got = _fresh(f"""
        from tests.test_nelder_mead import _workload_reports
        print("\\n".join(_workload_reports({_TIED_CASES!r})))
    """, env={"NPY_ENABLE_CPU_FEATURES": " ".join(baseline)})
    assert got == _workload_reports(_TIED_CASES)
