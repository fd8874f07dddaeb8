"""Self-tests of the benchmark.  Run: python3 -m pytest perfbench/tests -q"""

import contextlib
import dataclasses
import json
import subprocess
import sys

import pytest

import escobar
import escobar.search
import bench
import compare
import run
import tracing
import workloads

BENCHMARK_JSON = run.ROOT / "BENCHMARK.json"


def _bench(workload, trace, seed=3):
    """One run at the smallest size (--seconds 0: a single pass)."""
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=run.ROOT,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_each_workload_runs_with_every_end_to_end_metric(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.make_cases(workload, 3))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == dict(bench.END_TO_END) == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    result = _bench("cli-pipeline", trace=1)
    assert result["correct"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {name: unit for name, unit, _better in tracing.PER_LAYER}
    assert got == declared == _declared("per_layer")
    assert result["metrics"]["cli.main.busy_s"]["value"] > 0
    assert result["metrics"]["manifest.write_manifest.bytes_hashed"]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_case_list(workload):
    assert workloads.make_cases(workload, 11) == workloads.make_cases(workload, 11)


@pytest.mark.parametrize("workload", ["nonconvex-refine", "corner-chains"])
def test_seed_changes_random_domains(workload):
    assert workloads.make_cases(workload, 11) != workloads.make_cases(workload, 12)


def _pass(cases):
    return bench.run_pass(cases, None, contextlib.nullcontext)


def test_same_seed_same_digest():
    cases = workloads.make_cases("corner-chains", 5)[:3]
    first = workloads.value_digest("corner-chains", _pass(cases))
    again = workloads.value_digest("corner-chains", _pass(workloads.make_cases("corner-chains", 5)[:3]))
    assert first == again


def test_corrupted_witness_counts_as_failed(monkeypatch):
    original = escobar.search.estimate_ik

    def corrupted(domain, k, config=None):
        report = original(domain, k, config)
        cap = report.witness.regions[0]
        shrunk = escobar.Cap(cap.a, cap.a + 0.5 * ((cap.b - cap.a) % domain.perimeter))
        witness = escobar.TupleCandidate(domain, (shrunk,) + report.witness.regions[1:])
        return dataclasses.replace(report, witness=witness)

    monkeypatch.setattr(escobar.search, "estimate_ik", corrupted)
    passes = [_pass(workloads.make_cases("corner-chains", 5)[:2])]
    outcomes, failed = bench.tally(passes)
    assert len(outcomes) == 2 and len(failed) == 2
    assert all("max_eta(witness)" in " ".join(o.problems) for o in failed)


def test_tracer_restores_every_wrapped_function():
    before = escobar.search.chord_is_interior, escobar.geometry.PlanarDomain.point_at
    tracer = tracing.Tracer()
    tracer.install()
    assert escobar.search.chord_is_interior is not before[0]
    assert escobar.regions.chord_is_interior is escobar.search.chord_is_interior
    tracer.uninstall()
    assert (escobar.search.chord_is_interior, escobar.geometry.PlanarDomain.point_at) == before


def test_compare_reports_moved_values_only():
    before = {"cases": [{"name": "a", "value": "0.5"}, {"name": "b", "value": "0.25"}]}
    after = {"cases": [{"name": "a", "value": repr(0.5 + 5e-13)}, {"name": "b", "value": "0.2501"}]}
    assert compare.changed(before, before) == []
    assert [line.split(":")[0] for line in compare.changed(before, after)] == ["b"]
