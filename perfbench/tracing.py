"""Spans around the functions each `escobar` layer exposes, added from outside.

`Tracer.install` replaces each traced function in **every** `escobar` module
namespace that holds it, because most callers import functions by name
(`search` holds its own `chord_is_interior`, `validate_tuple`, `eta_partial`,
...).  Each call records a span (name, start, end, parent, outcome flags) in
compact arrays kept in memory; `Tracer.uninstall` restores the originals.
`PlanarDomain.point_at` is only counted: it is called far too often for a
span each.

Self time is a span's duration minus the time its child spans cover.  The
wrappers make the hot primitives slower, so per-call microseconds are traced
numbers, and no end-to-end metric is ever taken from a traced pass.

`estimate_ik` reaches enumeration only through the private
`search._auto_enumerate`; the enumeration node count is read from the
`BoundReport.evaluations` it returns, and grid sizes tried are the
geometric-only `search._prepare_grid` calls made inside it.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import escobar
import escobar.geometry

_RAISED = 1
_POSITIVE = 2


def _truthy(args, kwargs, result, tracer):
    return result is True


def _empty(args, kwargs, result, tracer):
    return not result


def _light_grid(args, kwargs, result, tracer):
    return kwargs.get("full_validity") is False


def _enumerated(args, kwargs, result, tracer):
    tracer.counters["search.enumerate.nodes"] += result.evaluations if result else 0
    return result is not None


def _refined(args, kwargs, result, tracer):
    tracer.counters["search.refine.evals"] += result.evaluations
    initial = args[1]
    if isinstance(initial, escobar.TupleCandidate):
        return result.value < escobar.max_eta(initial)
    return False


def _corner(args, kwargs, result, tracer):
    tracer.counters["search.corner.evals"] += result.evaluations


def _audit(args, kwargs, result, tracer):
    tracer.counters["symmetry.trials"] += result.trials


def _svg_bytes(args, kwargs, result, tracer):
    tracer.counters["render.render_svg.bytes"] += len(result.encode())


def _hashed_bytes(args, kwargs, result, tracer):
    tracer.counters["manifest.write_manifest.bytes_hashed"] += sum(
        os.path.getsize(p) for p in kwargs["outputs"]
    )


#: (defining module, attribute, span name, outcome hook).  The hook runs after
#: the span has ended, with tracing paused; it may add counters, and a true
#: return value flags the call's outcome as positive.
TARGETS = (
    ("escobar.search", "estimate_ik", "search.estimate_ik", None),
    ("escobar.search", "_equal_boundary_report", "search.equal", None),
    ("escobar.search", "_auto_enumerate", "search.enumerate", _enumerated),
    ("escobar.search", "_prepare_grid", "search.grid", _light_grid),
    ("escobar.search", "refine_caps", "search.refine", _refined),
    ("escobar.search", "corner_family_bound", "search.corner", _corner),
    ("escobar.geometry", "chord_is_interior", "geometry.chord_is_interior", _truthy),
    ("escobar.geometry", "contains_point", "geometry.contains_point", _truthy),
    ("escobar.geometry", "project_to_boundary", "geometry.project_to_boundary", None),
    ("escobar.regions", "validate_tuple", "regions.validate_tuple", _empty),
    ("escobar.regions", "region_contains_point", "regions.region_contains_point", _truthy),
    ("escobar.regions", "eta_partial", "regions.eta_partial", None),
    ("escobar.constructions", "corner_chain_tuple", "constructions.corner_chain_tuple", None),
    ("escobar.constructions", "equal_boundary_tuple", "constructions.equal_boundary_tuple", None),
    ("escobar.symmetry", "audit_symmetrization", "symmetry.audit", _audit),
    ("escobar.exact", "ik_exact", "exact.ik_exact", None),
    ("escobar.render", "render_svg", "render.render_svg", _svg_bytes),
    ("escobar.manifest", "write_manifest", "manifest.write_manifest", _hashed_bytes),
    ("escobar.cli", "main", "cli.main", None),
)

#: (metric name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("search.refine.busy_s", "s", "lower"),
    ("search.refine.evals", "count", "lower"),
    ("search.refine.improved_ratio", "ratio", "higher"),
    ("search.enumerate.busy_s", "s", "lower"),
    ("search.enumerate.nodes", "count", "lower"),
    ("search.enumerate.grids", "count", "lower"),
    ("search.enumerate.budget_skips", "count", "lower"),
    ("search.equal.busy_s", "s", "lower"),
    ("search.equal.ok_ratio", "ratio", "higher"),
    ("search.corner.busy_s", "s", "lower"),
    ("search.corner.evals", "count", "lower"),
    ("geometry.chord_is_interior.calls", "count", "lower"),
    ("geometry.chord_is_interior.self_s", "s", "lower"),
    ("geometry.chord_is_interior.us_per_call", "us", "lower"),
    ("geometry.chord_is_interior.true_ratio", "ratio", "higher"),
    ("geometry.contains_point.calls", "count", "lower"),
    ("geometry.contains_point.self_s", "s", "lower"),
    ("geometry.project_to_boundary.calls", "count", "lower"),
    ("geometry.project_to_boundary.self_s", "s", "lower"),
    ("geometry.point_at.calls", "count", "lower"),
    ("regions.validate_tuple.calls", "count", "lower"),
    ("regions.validate_tuple.self_s", "s", "lower"),
    ("regions.validate_tuple.us_per_call", "us", "lower"),
    ("regions.validate_tuple.valid_ratio", "ratio", "higher"),
    ("regions.region_contains_point.calls", "count", "lower"),
    ("regions.region_contains_point.self_s", "s", "lower"),
    ("regions.eta_partial.calls", "count", "lower"),
    ("regions.eta_partial.self_s", "s", "lower"),
    ("constructions.corner_chain_tuple.calls", "count", "lower"),
    ("constructions.corner_chain_tuple.self_s", "s", "lower"),
    ("constructions.corner_chain_tuple.failed", "count", "lower"),
    ("constructions.equal_boundary_tuple.calls", "count", "lower"),
    ("constructions.equal_boundary_tuple.self_s", "s", "lower"),
    ("constructions.equal_boundary_tuple.failed", "count", "lower"),
    ("symmetry.audit.busy_s", "s", "lower"),
    ("symmetry.trials_per_s", "1/s", "higher"),
    ("exact.ik_exact.calls", "count", "lower"),
    ("exact.ik_exact.busy_s", "s", "lower"),
    ("render.render_svg.busy_s", "s", "lower"),
    ("render.render_svg.bytes", "B", "lower"),
    ("manifest.write_manifest.busy_s", "s", "lower"),
    ("manifest.write_manifest.bytes_hashed", "B", "lower"),
    ("cli.main.busy_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.case = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flags = array("b")
        self.counters: defaultdict = defaultdict(float)
        self.active = False
        self._stack = [-1]
        self._case_id = -1
        self._saved: list = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def paused(self):
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (one per case)."""
        self._case_id += 1
        idx = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1])
        self.case.append(self._case_id)
        self.flags.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, outcome):
        tracer = self
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx)
                tracer.flags[idx] = _RAISED
                raise
            tracer._close(idx)
            if outcome is not None:
                tracer.active = False
                try:
                    if outcome(args, kwargs, result, tracer):
                        tracer.flags[idx] = _POSITIVE
                finally:
                    tracer.active = True
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _replace_everywhere(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "escobar" or mod_name.startswith("escobar.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        for mod_name, attr, name, outcome in TARGETS:
            original = getattr(sys.modules[mod_name], attr)
            self._replace_everywhere(original, self._wrap(original, name, outcome))
        cls = escobar.geometry.PlanarDomain
        point_at = cls.point_at
        tracer = self

        def counted_point_at(domain, s):
            if tracer.active:
                tracer.counters["geometry.point_at.calls"] += 1
            return point_at(domain, s)

        self._saved.append((cls, "point_at", point_at))
        cls.point_at = counted_point_at
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results ---------------------------------------------------------

    def arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "case": np.frombuffer(self.case, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "flags": np.frombuffer(self.flags, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, **self.arrays())

    def layer_metrics(self, untraced_wall_s: float, traced_wall_s: float) -> dict:
        """Every per-layer metric of :data:`PER_LAYER` for the recorded pass."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        ids = {name: i for i, name in enumerate(self.names)}

        def sel(name):
            return a["name"] == ids[name] if name in ids else np.zeros(len(dur), bool)

        def calls(name):
            return int(sel(name).sum())

        def busy(name):
            return float(dur[sel(name)].sum())

        def self_s(name):
            return float(own[sel(name)].sum())

        def flagged(name, flag):
            return int((a["flags"][sel(name)] == flag).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        out = {}
        for stage in ("refine", "enumerate", "equal", "corner"):
            out[f"search.{stage}.busy_s"] = busy(f"search.{stage}")
        out["search.refine.evals"] = int(self.counters["search.refine.evals"])
        out["search.refine.improved_ratio"] = ratio(
            flagged("search.refine", _POSITIVE), calls("search.refine")
        )
        out["search.enumerate.nodes"] = int(self.counters["search.enumerate.nodes"])
        enum_spans = np.flatnonzero(sel("search.enumerate"))
        grid_mask = sel("search.grid") & (a["flags"] == _POSITIVE)
        grids = int((grid_mask & np.isin(a["parent"], enum_spans)).sum())
        out["search.enumerate.grids"] = grids
        out["search.enumerate.budget_skips"] = grids - flagged("search.enumerate", _POSITIVE)
        equal_spans = np.flatnonzero(sel("search.equal"))
        in_equal = sel("constructions.equal_boundary_tuple") & np.isin(a["parent"], equal_spans)
        out["search.equal.ok_ratio"] = ratio(
            int((in_equal & (a["flags"] != _RAISED)).sum()), int(in_equal.sum())
        )
        out["search.corner.evals"] = int(self.counters["search.corner.evals"])

        for layer, fn in (("geometry", "chord_is_interior"), ("regions", "validate_tuple")):
            name = f"{layer}.{fn}"
            n = calls(name)
            out[f"{name}.calls"] = n
            out[f"{name}.self_s"] = self_s(name)
            out[f"{name}.us_per_call"] = ratio(busy(name) * 1e6, n)
        out["geometry.chord_is_interior.true_ratio"] = ratio(
            flagged("geometry.chord_is_interior", _POSITIVE), calls("geometry.chord_is_interior")
        )
        out["regions.validate_tuple.valid_ratio"] = ratio(
            flagged("regions.validate_tuple", _POSITIVE), calls("regions.validate_tuple")
        )
        for name in (
            "geometry.contains_point",
            "geometry.project_to_boundary",
            "regions.region_contains_point",
            "regions.eta_partial",
            "constructions.corner_chain_tuple",
            "constructions.equal_boundary_tuple",
        ):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.self_s"] = self_s(name)
        for name in ("constructions.corner_chain_tuple", "constructions.equal_boundary_tuple"):
            out[f"{name}.failed"] = flagged(name, _RAISED)
        out["geometry.point_at.calls"] = int(self.counters["geometry.point_at.calls"])

        out["symmetry.audit.busy_s"] = busy("symmetry.audit")
        out["symmetry.trials_per_s"] = ratio(
            self.counters["symmetry.trials"], busy("symmetry.audit")
        )
        out["exact.ik_exact.calls"] = calls("exact.ik_exact")
        out["exact.ik_exact.busy_s"] = busy("exact.ik_exact")
        out["render.render_svg.busy_s"] = busy("render.render_svg")
        out["render.render_svg.bytes"] = int(self.counters["render.render_svg.bytes"])
        out["manifest.write_manifest.busy_s"] = busy("manifest.write_manifest")
        out["manifest.write_manifest.bytes_hashed"] = int(
            self.counters["manifest.write_manifest.bytes_hashed"]
        )
        out["cli.main.busy_s"] = busy("cli.main")
        out["trace.overhead_frac"] = traced_wall_s / untraced_wall_s - 1.0
        return {name: out[name] for name, _unit, _better in PER_LAYER}
