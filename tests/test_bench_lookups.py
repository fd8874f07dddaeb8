"""The package names the benchmark's tracer looks up, and one untraced
pass of every benchmark workload.

``perfbench/tracing.py`` wraps package functions by module and attribute
name, relies on ``search`` and ``regions`` sharing one chord predicate, and
counts the grids prepared inside ``search._auto_enumerate`` by the
``full_validity=False`` keyword that ``search.enumerate_caps``, which it
calls per grid, passes to ``search._prepare_grid``.  The
workloads call package functions by signature (``make_polygon``,
``validate_tuple``, the CLI).  A rename or signature change there breaks
only benchmark runs and the benchmark's own self-tests; these tests catch
it in the main suite.  They read ``perfbench`` and change nothing in it.
"""

import contextlib
import importlib

import pytest

import escobar.regions
import escobar.search
from escobar import SearchConfig, estimate_ik, make_disk
from perfbench import tracing, workloads


def test_every_traced_target_resolves_to_a_callable():
    for mod_name, attr, _span, _hook in tracing.TARGETS:
        target = getattr(importlib.import_module(mod_name), attr, None)
        assert callable(target), (mod_name, attr)


def test_search_and_regions_share_one_chord_predicate():
    assert escobar.search.chord_is_interior is escobar.regions.chord_is_interior


def test_auto_enumeration_prepares_light_grids(monkeypatch):
    calls = []
    prepare = escobar.search._prepare_grid

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return prepare(*args, **kwargs)

    monkeypatch.setattr(escobar.search, "_prepare_grid", spy)
    estimate_ik(make_disk(), 2, SearchConfig(families=("caps",), restarts=1))
    assert any(tracing._light_grid(args, kwargs, None, None) for args, kwargs in calls)


@pytest.mark.parametrize(
    "workload", ["regular-refine", "nonconvex-refine", "corner-chains", "cli-pipeline"]
)
def test_every_workload_case_runs_without_problems(workload, tmp_path):
    cases = workloads.make_cases(workload, 0)
    outcomes = []
    for case, domain in zip(cases, workloads.build_domains(cases)):
        if domain is None:
            outcomes.append(workloads.run_cli_case(case, str(tmp_path), contextlib.nullcontext))
        else:
            outcomes.append(workloads.run_case(case, domain, contextlib.nullcontext))
    assert len(outcomes) == len(cases)
    assert [(o.name, o.problems) for o in outcomes if o.problems] == []
