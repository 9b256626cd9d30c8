"""Span tracing from outside the program, and the per-layer metrics built
from the spans.

The traced run wraps confmod's public names at their module and class
attributes, including names another module imported by value (such as
cli.sample_region).  Each call records a span: name, start, end, parent span
and run id.  Spans stay in compact arrays in memory and are saved at the end.
"""

from __future__ import annotations

import dataclasses
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

LADDER_L = (64, 128, 256, 512, 1024)
SUITES = ("group", "flows", "modular", "bw", "duality", "pct")


class Tracer:
    """In-memory span recorder; spans are appended in start order, so a
    parent always precedes its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.run = array("l")
        self.start = array("d")
        self.end = array("d")
        self.run_id = 0
        self._stack = [-1]
        self.plane_counts: dict[int, tuple[int, int]] = {}

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.run.append(self.run_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def wrap(self, fn, name, on_result=None):
        """fn recording one span per call; name is a string or a function of
        the call arguments giving the span name."""
        def traced(*args, **kwargs):
            i = self._open(name if isinstance(name, str) else name(*args, **kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if on_result is not None:
                on_result(result, *args, **kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def arrays(self) -> dict:
        return {"name": np.asarray(self.name, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "run": np.asarray(self.run, dtype=np.int64),
                "start": np.asarray(self.start, dtype=float),
                "end": np.asarray(self.end, dtype=float)}

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# --- instrumentation ---------------------------------------------------------------

class _Patches:
    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value):
        self._undo.append((mapping, key, mapping[key]))
        mapping[key] = value

    def restore(self):
        for owner, key, old in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)
        self._undo.clear()


def _count_planes(tracer, confmod):
    ch = confmod.chiral
    clip = math.sin(ch.LATTICE_CLIP_ANGLE)

    def on_result(data, subspace, *args, clip_angle=None, **kwargs):
        # Only the lattice (clip-angle) Tomita operators have clipped planes.
        if clip_angle is None:
            return
        L = 2 * (data.ambient_dim + 1)
        tracer.plane_counts[L] = (
            int(np.sum(data.sines <= clip)),
            int(np.sum(np.arcsin(data.sines) > ch.RESOLVABLE_WINDOW)))
    return on_result


@contextmanager
def instrument(tracer: Tracer, confmod):
    """Wrap confmod's public names with span recorders for the duration of
    the block, and restore them afterwards."""
    geo, cg, fl = confmod.geometry, confmod.confgroup, confmod.flows
    md, ch, cli = confmod.modular, confmod.chiral, confmod.cli
    p = _Patches()
    w = tracer.wrap
    try:
        for suite, runner in list(cli.SUITE_RUNNERS.items()):
            p.set_item(cli.SUITE_RUNNERS, suite, w(runner, f"cli.suite.{suite}"))
        p.set(cli, "run", w(cli.run, "cli.run"))
        sample = w(geo.sample_region, "geometry.sample_region")
        p.set(geo, "sample_region", sample)
        p.set(cli, "sample_region", sample)
        p.set(geo.PoincareMap, "inverse",
              w(geo.PoincareMap.inverse, "geometry.PoincareMap.inverse"))
        for cls in (geo.DoubleCone, geo.Wedge, geo.FutureCone, geo.TransformedRegion,
                    geo.SpacelikeComplementOfDoubleCone,
                    geo.TimelikeComplementOfDoubleCone):
            p.set(cls, "contains", w(cls.contains, "geometry.contains"))

        p.set(cg.GroupElement, "__init__",
              w(cg.GroupElement.__init__, "confgroup.GroupElement.init"))
        p.set(cg, "act", w(cg.act, "confgroup.act"))
        p.set(cg, "act_array", w(cg.act_array, "confgroup.act_array"))

        # closed_form is a field of each CanonicalFlow, so trace it on the
        # flows the factories return.
        def traced_flow(factory):
            def make(*args, **kwargs):
                flow = factory(*args, **kwargs)
                return dataclasses.replace(
                    flow, closed_form=w(flow.closed_form, "flows.closed_form"))
            return make
        for fname in ("wedge_flow", "doublecone_flow", "cone_flow", "conjugate_flow"):
            p.set(fl, fname, traced_flow(getattr(fl, fname)))

        p.set(md, "tomita_operators", w(md.tomita_operators, "modular.tomita_operators",
                                        on_result=_count_planes(tracer, confmod)))
        p.set(md.StandardSubspace, "__init__",
              w(md.StandardSubspace.__init__, "modular.StandardSubspace.init"))
        p.set(md.ModularData, "flow_real", w(md.ModularData.flow_real, "modular.flow_real"))
        for fname in ("subspace_angle", "symplectic_complement", "svd", "subspace_angles"):
            p.set(md, fname, w(getattr(md, fname), f"modular.{fname}"))

        p.set(ch, "build_model", w(ch.build_model, lambda L: f"chiral.build_model.L{L}"))
        p.set(ch, "bw_defect", w(ch.bw_defect,
                                 lambda model, *a, **k: f"chiral.bw_defect.L{model.L}"))
        for fname in ("mobius_flow_unitary", "interval_subspace", "duality_defect",
                      "pct_geometry_defect"):
            p.set(ch, fname, w(getattr(ch, fname), f"chiral.{fname}"))
        yield tracer
    finally:
        p.restore()


# --- span statistics -----------------------------------------------------------------

def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover.

    Spans come from one thread, so children of a span are disjoint and lie
    inside it, and the time they cover is the sum of their durations."""
    dur = end - start
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    return dur - child


def inside(parent: np.ndarray, is_ancestor: np.ndarray) -> np.ndarray:
    """Mask of spans that have an ancestor in is_ancestor."""
    out = np.zeros(parent.shape, dtype=bool)
    has_parent = parent >= 0
    while True:
        nxt = np.zeros_like(out)
        p = parent[has_parent]
        nxt[has_parent] = is_ancestor[p] | out[p]
        if np.array_equal(nxt, out):
            return out
        out = nxt


def span_stats(names: list, a: dict) -> dict:
    """{span name: (calls, total_s, self_s)}."""
    self_s = self_times(a["parent"], a["start"], a["end"])
    dur = a["end"] - a["start"]
    n = len(names)
    calls = np.bincount(a["name"], minlength=n)
    total = np.bincount(a["name"], weights=dur, minlength=n)
    own = np.bincount(a["name"], weights=self_s, minlength=n)
    return {names[i]: (int(calls[i]), float(total[i]), float(own[i])) for i in range(n)}


def accept_ratios(names: list, a: dict, points: dict) -> dict:
    """Accepted points over top-level contains calls, per sampled region;
    0 for a region that was not sampled.

    points maps a region label to the points requested from it; the
    benchmark labels each sample_region call with a span
    bench.sample.<label>, and the contains calls made directly by that
    sample_region span are the region's membership tests."""
    ids = {name: i for i, name in enumerate(names)}
    out = {}
    sample_id = ids.get("geometry.sample_region", -1)
    contains_id = ids.get("geometry.contains", -1)
    parent = a["parent"]
    for label, n in points.items():
        label_id = ids.get(f"bench.sample.{label}", -1)
        labels = np.flatnonzero(a["name"] == label_id)
        samplers = np.flatnonzero((a["name"] == sample_id) & np.isin(parent, labels))
        calls = int(np.sum((a["name"] == contains_id) & np.isin(parent, samplers)))
        out[label] = n * len(labels) / calls if calls else 0.0
    return out


def descendant_calls(names: list, a: dict, children, ancestors) -> int:
    """Calls of spans named in children made, directly or not, inside a
    span named in ancestors."""
    def ids(wanted):
        return [i for i, name in enumerate(names) if name in wanted]
    within = inside(a["parent"], np.isin(a["name"], ids(ancestors)))
    return int(np.sum(within & np.isin(a["name"], ids(children))))


def layer_metrics(tracer: Tracer, points: dict) -> dict:
    """Every per-layer metric by name, as (value, unit); a layer the
    workload does not reach reads 0.  points maps each region label of
    workloads.REGION_LABELS to the points requested from it."""
    names, a = tracer.names, tracer.arrays()
    stats = span_stats(names, a)

    def st(name, k):
        return stats.get(name, (0, 0.0, 0.0))[k]

    out = {}
    for suite in SUITES:
        out[f"cli.suite.{suite}.total_s"] = (st(f"cli.suite.{suite}", 1), "s")

    bw_names = [n for n in names if n.startswith("chiral.bw_defect.L")]
    bw_calls = sum(st(n, 0) for n in bw_names)
    out["chiral.bw_defect.calls"] = (bw_calls, "count")
    out["chiral.bw_defect.total_s"] = (sum(st(n, 1) for n in bw_names), "s")
    for L in LADDER_L:
        out[f"chiral.bw_defect.L{L}.self_s"] = (st(f"chiral.bw_defect.L{L}", 2), "s")
    out["chiral.mobius_flow_unitary.calls"] = (st("chiral.mobius_flow_unitary", 0), "count")
    out["chiral.mobius_flow_unitary.self_s"] = (st("chiral.mobius_flow_unitary", 2), "s")
    dense = descendant_calls(names, a, ("modular.flow_real", "chiral.mobius_flow_unitary"),
                             bw_names)
    out["chiral.dense_products_per_bw"] = (dense / bw_calls if bw_calls else 0.0, "ratio")
    for L in LADDER_L:
        out[f"chiral.build_model.L{L}.self_s"] = (st(f"chiral.build_model.L{L}", 2), "s")
    for fname in ("interval_subspace", "duality_defect", "pct_geometry_defect"):
        out[f"chiral.{fname}.self_s"] = (st(f"chiral.{fname}", 2), "s")

    tomita = "modular.tomita_operators"
    for span in (tomita, "modular.StandardSubspace.init", "modular.flow_real"):
        out[f"{span}.calls"] = (st(span, 0), "count")
        out[f"{span}.self_s"] = (st(span, 2), "s")
    out["modular.subspace_angle.self_s"] = (st("modular.subspace_angle", 2), "s")
    out["modular.symplectic_complement.self_s"] = (
        st("modular.symplectic_complement", 2), "s")
    factorizations = descendant_calls(names, a, ("modular.svd", "modular.subspace_angles"),
                                      (tomita,))
    out["modular.factorizations_per_tomita"] = (
        factorizations / st(tomita, 0) if st(tomita, 0) else 0.0, "ratio")
    for L in LADDER_L:
        clipped, window = tracer.plane_counts.get(L, (0, 0))
        out[f"modular.clipped_planes.L{L}"] = (clipped, "count")
        out[f"modular.window_planes.L{L}"] = (window, "count")

    out["geometry.sample_region.total_s"] = (st("geometry.sample_region", 1), "s")
    out["geometry.contains.calls"] = (st("geometry.contains", 0), "count")
    out["geometry.contains.self_s"] = (st("geometry.contains", 2), "s")
    for label, ratio in accept_ratios(names, a, points).items():
        out[f"geometry.accept_ratio.{label}"] = (ratio, "ratio")
    out["geometry.PoincareMap.inverse.calls"] = (
        st("geometry.PoincareMap.inverse", 0), "count")

    for span in ("confgroup.GroupElement.init", "confgroup.act"):
        out[f"{span}.calls"] = (st(span, 0), "count")
        out[f"{span}.self_s"] = (st(span, 2), "s")
    out["confgroup.act_array.self_s"] = (st("confgroup.act_array", 2), "s")
    out["flows.closed_form.calls"] = (st("flows.closed_form", 0), "count")
    out["flows.closed_form.self_s"] = (st("flows.closed_form", 2), "s")
    return out
