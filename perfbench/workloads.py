"""The benchmark's four workloads: case lists, case execution and output checks.

A *case* is one `estimate_ik` call (one CLI invocation on `cli-pipeline`).
Case lists are plain data derived from the seed, so the same seed always
gives the same list; domains are built from that data, fresh for each pass,
because `PlanarDomain` fills its cached properties per instance.

Why each workload exists (later changes cite these names):

* ``regular-refine`` -- disk and regular polygons.  Nelder-Mead refinement
  holds nearly all the time and enumeration visits 0 nodes, so a convex
  chord-predicate speed-up shows here and an enumeration one should not.
* ``nonconvex-refine`` -- the L-shape and a jittered nonconvex star.
  Every refinement step runs `validate_tuple` and the grids need full
  validity masks: the convex fast path is bypassed.
* ``corner-chains`` -- the acceptance criterion 5 polygon set (jittered) and
  curvilinear domains at k=10 plus the criterion 6 quadrilateral.  No
  refinement; the time goes to the corner family and strip validation, and
  the bound quality has real headroom.
* ``cli-pipeline`` -- in-process `escobar.cli.main` calls covering `cli`,
  `manifest`, `render`, `symmetry` and `exact`, with output checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

import escobar
import escobar.cli
import escobar.search
from escobar import Arc, BoundKind, Segment

#: |max_eta(witness) - value| above this is a failed case.
WITNESS_TOL = 1e-12
#: A value below an EXACT closed form by more than this is a failed case.
BELOW_EXACT_TOL = 1e-9

# acceptance tolerances on the distance above a case's target value
_TOL_CLOSED_FORM = 1e-5  # criteria 1 and 2
_TOL_CORNER = 1e-6  # criterion 5
_TOL_QUAD = 1e-3  # criterion 6

# base seed of the acceptance criterion 5 polygon set; the run seed jitters it
_CRITERION5_SEED = 20260815
_JITTER_RADIUS = 0.01
_JITTER_ANGLE = 0.01

_QUAD = ((0.0, 0.0), (3.0, 0.0), (2.6, 1.8), (-0.4, 1.3))
_LSHAPE = ((0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2))
# polar vertices (angle, radius) of a star-shaped hexagon with a reflex
# vertex at angle 3.579 (a turn of 0.8 rad, far beyond what the jitter moves)
_STAR = (
    (0.239, 0.968), (1.505, 1.048), (2.364, 0.822),
    (2.582, 1.251), (3.579, 0.525), (5.505, 0.872),
)


@dataclass(frozen=True)
class Case:
    """One `estimate_ik` call: a domain spec, k, and an optional target."""

    name: str
    domain: tuple  # ("disk",), ("ngon", n), ("polygon", points), ("half-disk",), ...
    k: int
    target: Optional[float] = None  # bound_misses compares the value to this
    tol: float = 0.0


@dataclass(frozen=True)
class CliCase:
    """One `escobar.cli.main` invocation writing ``outputs`` into a directory."""

    name: str
    argv: tuple  # "{dir}" is replaced by the output directory
    outputs: tuple  # file names written; the first gets the manifest
    report: bool = False  # the first output is an `optimize` JSON report


@dataclass
class Outcome:
    name: str
    seconds: float
    value: Optional[float]  # certified value (None for CLI cases without one)
    problems: list  # failed_frac rules that fired; empty when the case passed
    miss: bool = False  # value above target by more than the tolerance
    digest: str = ""  # output bytes digest (CLI cases)
    ref_seconds: float = 0.0  # ``seconds`` scaled to the reference host speed
    start: float = 0.0  # perf_counter() when the timed call began
    evaluations: int = 0  # work the search reports (BoundReport.evaluations)


# ---------------------------------------------------------------------------
# case lists
# ---------------------------------------------------------------------------


def _polar_points(polar) -> tuple:
    return tuple((r * math.cos(a), r * math.sin(a)) for a, r in polar)


def _is_simple(points) -> bool:
    try:
        escobar.make_polygon(list(points))
    except escobar.InvalidGeometryError:
        return False
    return True


def _star_polygon(rng):
    """Polar vertices of a simple polygon: sorted angles with a gap floor.

    The same generator, and the same draws, as acceptance criterion 5.
    """
    n = int(rng.integers(3, 9))
    for _ in range(100):
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        gaps = np.diff(angles, append=angles[0] + 2.0 * np.pi)
        if gaps.min() < 0.15:
            continue
        radii = rng.uniform(0.5, 1.5, n)
        polar = [(float(a), float(r)) for a, r in zip(angles, radii)]
        if _is_simple(_polar_points(polar)):
            return polar
    raise RuntimeError("polygon generation failed")


def _jittered(polar, rng) -> tuple:
    """Points of a polar polygon after a small seeded jitter that keeps it simple."""
    for _ in range(100):
        moved = [
            (a + float(rng.uniform(-_JITTER_ANGLE, _JITTER_ANGLE)),
             r * (1.0 + float(rng.uniform(-_JITTER_RADIUS, _JITTER_RADIUS))))
            for a, r in polar
        ]
        points = _polar_points(moved)
        if _is_simple(points):
            return points
    raise RuntimeError("jitter kept breaking the polygon")


def _sharpest_target(domain_spec) -> float:
    return math.sin(min(build_domain(domain_spec).interior_angles) / 2.0)


def _regular_refine(seed: int) -> list[Case]:
    cases = [Case(f"disk-k{k}", ("disk",), k) for k in range(2, 6)]
    cases += [Case(f"D{n}-k{n}", ("ngon", n), n) for n in range(3, 6)]
    cases += [Case(f"D{n}-k{k}", ("ngon", n), k) for n, k in ((6, 3), (8, 4))]
    out = []
    for c in cases:
        exact = escobar.ik_exact(build_domain(c.domain), c.k)
        out.append(Case(c.name, c.domain, c.k, exact.value, _TOL_CLOSED_FORM))
    return out


def _nonconvex_refine(seed: int) -> list[Case]:
    cases = [Case(f"L-k{k}", ("polygon", _LSHAPE), k) for k in (2, 3)]
    star = _jittered(_STAR, np.random.default_rng(seed))
    cases.append(Case("star-k2", ("polygon", star), 2))
    return cases


def _corner_chains(seed: int) -> list[Case]:
    base = np.random.default_rng(_CRITERION5_SEED)
    jitter = np.random.default_rng(seed)
    specs = [
        (f"poly{i}", ("polygon", _jittered(_star_polygon(base), jitter)))
        for i in range(20)
    ]
    specs += [
        ("half-disk", ("half-disk",)),
        ("slice-90", ("slice", math.pi / 2)),
        ("slice-60", ("slice", math.pi / 3)),
        ("slice-72", ("slice", 2.0 * math.pi / 5)),
        ("chord-cut", ("chord-cut", 0.5)),
    ]
    cases = [
        Case(f"{name}-k10", spec, 10, _sharpest_target(spec), _TOL_CORNER)
        for name, spec in specs
    ]
    quad = ("polygon", _QUAD)
    cases += [
        Case(f"quad-k{k}", quad, k, _sharpest_target(quad), _TOL_QUAD) for k in (20, 30, 40)
    ]
    return cases


def _cli_pipeline(seed: int) -> list[CliCase]:
    s = str(seed)
    cases = [
        CliCase(
            f"optimize-{tag}",
            ("optimize", *dom, "--k", "2", "--seed", s,
             "--out", f"{{dir}}/opt-{tag}.json", "--render", f"{{dir}}/opt-{tag}.svg"),
            (f"opt-{tag}.json", f"opt-{tag}.svg"),
            report=True,
        )
        for tag, dom in (("disk", ("--disk",)), ("rect", ("--rect", "2", "1")))
    ]
    for fam, extra in (
        ("equal", ("--ngon", "6", "--k", "3")),
        ("inscribed", ("--ngon", "8", "--k", "4")),
        ("corner", ("--ngon", "5", "--k", "4")),
        ("stripe", ("--rect", "0.02", "8", "--k", "4")),
    ):
        cases.append(
            CliCase(
                f"construct-{fam}",
                ("construct", "--family", fam, *extra,
                 "--out", f"{{dir}}/con-{fam}.json", "--render", f"{{dir}}/con-{fam}.svg"),
                (f"con-{fam}.json", f"con-{fam}.svg"),
            )
        )
    for n in range(3, 9):
        cases.append(
            CliCase(
                f"symmetry-audit-{n}",
                ("symmetry-audit", "--ngon", str(n), "--seed", s,
                 "--out", f"{{dir}}/sym-{n}.json"),
                (f"sym-{n}.json",),
            )
        )
    cases.append(
        CliCase(
            "conjecture-scan",
            ("conjecture-scan", "--n-range", "3..12", "--k-range", "2..12",
             "--out", "{dir}/scan.csv"),
            ("scan.csv",),
        )
    )
    for tag, dom, ks in (("disk", ("--disk",), "2..8"), ("ngon6", ("--ngon", "6"), "2..6")):
        cases.append(
            CliCase(
                f"exact-{tag}",
                ("exact", *dom, "--k", ks, "--out", f"{{dir}}/exact-{tag}.csv"),
                (f"exact-{tag}.csv",),
            )
        )
    return cases


def make_cases(workload: str, seed: int) -> list:
    """The workload's case list for ``seed`` (plain data, deterministic)."""
    makers = {
        "regular-refine": _regular_refine,
        "nonconvex-refine": _nonconvex_refine,
        "corner-chains": _corner_chains,
        "cli-pipeline": _cli_pipeline,
    }
    return makers[workload](seed)


def build_domain(spec: tuple):
    kind = spec[0]
    if kind == "disk":
        return escobar.make_disk()
    if kind == "ngon":
        return escobar.make_regular_polygon(spec[1])
    if kind == "polygon":
        return escobar.make_polygon(list(spec[1]))
    if kind == "half-disk":
        return escobar.make_domain(
            [Segment((-1.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, math.pi)]
        )
    if kind == "slice":
        theta = spec[1]
        tip = (math.cos(theta), math.sin(theta))
        return escobar.make_domain(
            [Segment((0.0, 0.0), (1.0, 0.0)), Arc((0.0, 0.0), 1.0, 0.0, theta),
             Segment(tip, (0.0, 0.0))]
        )
    if kind == "chord-cut":
        h = spec[1]
        c = math.sqrt(1.0 - h * h)
        return escobar.make_domain(
            [Arc((0.0, 0.0), 1.0, math.atan2(h, -c), math.atan2(h, c) + 2.0 * math.pi),
             Segment((c, h), (-c, h))]
        )
    raise ValueError(f"unknown domain spec {spec!r}")


def build_domains(cases: list) -> list:
    """Fresh domains for a pass (None for CLI cases, which build their own)."""
    return [build_domain(c.domain) if isinstance(c, Case) else None for c in cases]


# ---------------------------------------------------------------------------
# running and checking
# ---------------------------------------------------------------------------


def clear_package_caches() -> None:
    """Empty the package's memo caches, as a fresh process would have them.

    Every case then does the same work in every pass, and a CLI case pays
    what one command invocation pays.
    """
    for name, module in list(sys.modules.items()):
        if name == "escobar" or name.startswith("escobar."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def check_value(domain, k: int, value: float, witness) -> list[str]:
    """The failed_frac rules for one certified value; empty when it passes."""
    if not math.isfinite(value):
        return [f"non-finite value {value!r}"]
    if witness is None:
        return ["no witness tuple"]
    problems = []
    violations = escobar.validate_tuple(witness)
    if violations:
        problems.append(f"witness invalid: {violations[0].predicate}")
    measured = escobar.max_eta(witness)
    if abs(measured - value) > WITNESS_TOL:
        problems.append(f"max_eta(witness) {measured!r} != value {value!r}")
    try:
        known = escobar.ik_exact(domain, k)
    except (escobar.NotApplicableError, escobar.InvalidParameterError):
        known = None
    if known is not None and known.kind is BoundKind.EXACT:
        if value < known.value - BELOW_EXACT_TOL:
            problems.append(f"value {value!r} below closed form {known.value!r}")
    return problems


def run_case(case: Case, domain, paused) -> Outcome:
    """Time one `estimate_ik` call, then check its output outside the timing.

    ``paused`` is a context manager that keeps the checks out of a trace.
    The search runs with the default `SearchConfig` (seed 0): the run seed
    only makes domains.  Refinement restarts drawn from the run seed moved the
    L-shape k=3 case between 1.8 s and 3.0 s at equal evaluation counts,
    which would make the spread across seeds measure the draw, not the code.
    """
    config = escobar.SearchConfig()
    clear_package_caches()
    t0 = time.perf_counter()
    try:
        report = escobar.search.estimate_ik(domain, case.k, config)
    except Exception as exc:  # a raising case is a failed case, not a crash
        return Outcome(case.name, time.perf_counter() - t0, None,
                       [f"raised {type(exc).__name__}: {exc}"], start=t0)
    seconds = time.perf_counter() - t0
    with paused():
        problems = check_value(domain, case.k, report.value, report.witness)
    value = float(report.value)
    miss = case.target is not None and bool(value - case.target > case.tol)
    return Outcome(case.name, seconds, value, problems, miss,
                   evaluations=report.evaluations, start=t0)


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _check_cli_report(path: str) -> tuple[Optional[float], list[str]]:
    with open(path) as f:
        data = json.load(f)
    domain = escobar.domain_from_json(data["domain"])
    witness = escobar.tuple_from_json(domain, data["witness"]) if "witness" in data else None
    value = float(data["value"])
    return value, check_value(domain, int(data["k"]), value, witness)


def run_cli_case(case: CliCase, out_dir: str, paused) -> Outcome:
    """Time one in-process CLI call, then check exit code, manifest and outputs."""
    argv = [a.replace("{dir}", out_dir) for a in case.argv]
    sink = io.StringIO()
    clear_package_caches()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = escobar.cli.main(argv)
    except Exception as exc:  # a raising call is a failed case, not a crash
        return Outcome(case.name, time.perf_counter() - t0, None,
                       [f"raised {type(exc).__name__}: {exc}"], start=t0)
    seconds = time.perf_counter() - t0
    if rc != 0:
        return Outcome(case.name, seconds, None, [f"exit code {rc}"], start=t0)
    with paused():
        problems = []
        paths = [os.path.join(out_dir, name) for name in case.outputs]
        digests = {os.path.basename(p): _sha256(p) for p in paths}
        with open(paths[0] + ".manifest.json") as f:
            manifest = json.load(f)
        if manifest.get("digests") != digests:
            problems.append("manifest digests do not match the output files")
        value = None
        if case.report:
            value, report_problems = _check_cli_report(paths[0])
            problems += report_problems
    joined = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    return Outcome(case.name, seconds, value, problems, digest=joined, start=t0)


def value_digest(workload: str, outcomes: list) -> str:
    """SHA-256 over (workload, case, repr(value)) lines of one pass."""
    h = hashlib.sha256()
    for o in outcomes:
        h.update(f"{workload}\t{o.name}\t{o.value!r}\n".encode())
    return h.hexdigest()
