"""The package names the benchmark's tracer looks up.

``perfbench/tracing.py`` wraps package functions by module and attribute
name, relies on ``search`` and ``regions`` sharing one chord predicate, and
counts the grids ``search._auto_enumerate`` prepares by the
``full_validity=False`` keyword it passes to ``search._prepare_grid``.  A
rename there breaks only traced benchmark runs and the benchmark's own
self-tests; these tests catch it in the main suite.  They read
``perfbench`` and change nothing in it.
"""

import importlib

import escobar.regions
import escobar.search
from escobar import SearchConfig, estimate_ik, make_disk
from perfbench import tracing


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
