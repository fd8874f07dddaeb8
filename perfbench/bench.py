"""The measuring side of ``run.py``: passes, checks, metrics and the record."""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy
import scipy

import reference
import tracing
import workloads
from run import BENCH_DIR, ROOT, THREAD_VARS

OUT = BENCH_DIR / "out"

#: Fresh processes that each import `escobar` and build the domains; the
#: median of their times is `setup_s`.
SETUP_PROBES = 5
SETUP_TIMEOUT_S = 120

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("case_s_p50", "s"),
    ("bound_mean", "eta"),
    ("peak_rss_mb", "MB"),
)


def _setup_seconds(workload: str, seed: int) -> list[dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "reference_chunk_nominal_s": reference.NOMINAL_CHUNK_S,
        "reference_tick_s": reference.TICK_S,
    }


def run_pass(cases, out_dir, paused, case_span=None):
    """One closed-loop pass over ``cases``; returns their outcomes.

    A `reference.SpeedMeter` samples the host speed throughout; each case's
    seconds exclude its ticks, and ``ref_seconds`` is scaled by them.
    """
    domains = workloads.build_domains(cases)
    outcomes = []
    with reference.SpeedMeter() as meter:
        for case, domain in zip(cases, domains):
            with case_span() if case_span else contextlib.nullcontext():
                if domain is None:
                    outcomes.append(workloads.run_cli_case(case, out_dir, paused))
                else:
                    outcomes.append(workloads.run_case(case, domain, paused))
    for o in outcomes:
        o.seconds, o.ref_seconds = meter.scale(o.start, o.seconds)
    return outcomes


def _mark_repeats(passes: list) -> None:
    """A case whose value or output bytes differ from the first pass fails."""
    for outcomes in passes[1:]:
        for ref, o in zip(passes[0], outcomes):
            if ref.value != o.value:
                o.problems.append(f"value {o.value!r} differs from first pass {ref.value!r}")
            if ref.digest != o.digest:
                o.problems.append("output bytes differ from first pass")


def tally(passes: list) -> tuple[list, list]:
    """All outcomes of the run and the failed ones (failed_frac's numerator)."""
    _mark_repeats(passes)
    outcomes = [o for p in passes for o in p]
    return outcomes, [o for o in outcomes if o.problems]


def _walls(passes: list, field: str = "ref_seconds") -> list[float]:
    return [sum(getattr(o, field) for o in outcomes) for outcomes in passes]


def _end_to_end(passes: list, setup: list[dict]) -> tuple[dict, dict]:
    samples = [o.ref_seconds for outcomes in passes for o in outcomes]
    values = [o.value for o in passes[0] if o.value is not None]
    metrics = {
        "setup_s": statistics.median(s["ref"] for s in setup),
        "wall_s": statistics.median(_walls(passes)),
        "case_s_p50": statistics.median(samples),
        "bound_mean": statistics.fmean(values) if values else math.nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "case_samples": len(samples),
        "passes": len(passes),
        "raw_wall_s": _walls(passes, "seconds"),
        "raw_case_s_p50": statistics.median(o.seconds for p in passes for o in p),
        "setup_samples": setup,
    }
    if len(samples) >= 10 * TAIL_SAMPLES_BEYOND:
        extra["case_s_p90"] = statistics.quantiles(samples, n=10)[8]
    return metrics, extra


def run(args) -> int:
    setup = [] if args.trace else _setup_seconds(args.workload, args.seed)
    env = _environment()
    cases = workloads.make_cases(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="cli-", dir=OUT)
    tracer = tracing.Tracer()
    try:
        t_start = time.perf_counter()
        passes = []
        while True:
            t_pass = time.perf_counter()
            passes.append(run_pass(cases, out_dir, tracer.paused))
            now = time.perf_counter()
            if args.trace or now - t_start + (now - t_pass) > args.seconds:
                break
        if args.trace:
            tracer.install()
            try:
                passes.append(run_pass(cases, out_dir, tracer.paused,
                                       lambda: tracer.span("bench.case")))
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    outcomes, failed = tally(passes)
    misses = sum(o.miss for o in passes[0])
    digest = workloads.value_digest(args.workload, passes[0])

    if args.trace:
        walls = _walls(passes)
        metrics = tracer.layer_metrics(walls[0], walls[1])
        units = {name: unit for name, unit, _better in tracing.PER_LAYER}
        tracer.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"))
        extra = {"untraced_wall_s": walls[0], "traced_wall_s": walls[1]}
    else:
        metrics, extra = _end_to_end(passes, setup)
        units = dict(END_TO_END)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "value_digest": digest,
        "bound_misses": misses,
        "failed_frac": len(failed) / len(outcomes),
        "metrics": metrics,
        "extra": extra,
        "cases": [
            {"name": o.name, "value": repr(o.value), "miss": o.miss,
             "seconds": [p[i].seconds for p in passes],
             "ref_seconds": [p[i].ref_seconds for p in passes],
             "evaluations": o.evaluations,
             "problems": sorted({q for p in passes for q in p[i].problems})}
            for i, o in enumerate(passes[0])
        ],
    }
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# environment: {json.dumps(env, sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed}: {len(passes)} passes of "
          f"{len(cases)} cases, {len(outcomes)} samples; {json.dumps(extra)}")
    print(f"# failed_frac {len(failed)}/{len(outcomes)}; bound_misses {misses}/{len(cases)}; "
          f"value digest {digest}")
    for o in failed:
        print(f"# FAILED {o.name}: {'; '.join(o.problems)}")
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    print(f"# record: {record_path.relative_to(ROOT)}")
    result = {
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0
