"""Instrumentation installed around navgraph's public functions from outside.

Nothing under ``src/`` knows it is measured: every probe replaces a public
function (or method) in each module namespace that refers to it, and puts
the original back when its ``with`` block ends.  The probes:

* :class:`CallTimer` times every call to ``route``, the builders and
  ``thin_edges``.  With :class:`BuildCapture`, which keeps built graphs
  for the output checks, it is the only probe of an untraced run, so the
  end-to-end figures carry just two clock reads per call.
* :class:`Tracer` records a span at each wrapped call of the six layers
  (``spaces``, ``construction``, ``routing``, ``harness``, ``cli``,
  ``oracle``) and counts work at the same boundaries.  Space kernels are
  called millions of times by the exhaustive oracles, so they are counted
  (calls, time, elements) instead of kept as spans; their time is charged
  to the innermost open span so that self times stay exact.
"""

from __future__ import annotations

import math
import os
import time
from array import array

import numpy as np

import navgraph
from navgraph import cli, construction, harness, oracle, routing, spaces

MODULES = (navgraph, spaces, construction, routing, oracle, harness, cli)
SPACE_CLASSES = (spaces.Space, spaces.DirectedCycle, spaces.UndirectedCycle,
                 spaces.Grid, spaces.TreeLeaves, spaces.Euclidean)

SPACE_FUNCTIONS = ("distances_from", "distances_to", "shell_order_from",
                   "distance", "base_neighbors")
GRAPH_BUILDERS = ("build_double_clustering", "build_kleinberg",
                  "build_independent_interest")
BUILDERS = GRAPH_BUILDERS + ("thin_edges",)
ROUTE_MODES = ("greedy-1", "greedy-2", "half-greedy-1", "combined")
LAYERS = ("spaces", "construction", "routing", "harness", "cli", "oracle")

_perf = time.perf_counter
_MISSING = object()


class Patches:
    """Replaces attributes and restores them in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def function(self, name: str, make_wrapper) -> None:
        """Wrap function ``name`` in every module namespace that refers to
        the same object; a name no module has is left alone."""
        current = next((getattr(mod, name) for mod in MODULES
                        if getattr(mod, name, None) is not None), None)
        if current is None:
            return
        wrapper = make_wrapper(current)
        for mod in MODULES:
            if getattr(mod, name, None) is current:
                self.set(mod, name, wrapper)

    def set(self, obj, name: str, value) -> None:
        self._saved.append((obj, name, obj.__dict__.get(name, _MISSING)))
        setattr(obj, name, value)

    def close(self) -> None:
        while self._saved:
            obj, name, old = self._saved.pop()
            if old is _MISSING:
                delattr(obj, name)
            else:
                setattr(obj, name, old)


class _Probe:
    """Installed on ``with`` entry, removed on exit."""

    def __init__(self):
        self._patches = Patches()

    def __enter__(self):
        self._install(self._patches)
        return self

    def __exit__(self, *exc):
        self._patches.close()

    def _install(self, p: Patches) -> None:
        raise NotImplementedError


TIMED = ("route",) + BUILDERS


class CallTimer(_Probe):
    """Wall time of every call to ``route``, the builders and ``thin_edges``,
    in call order, split into passes by ``take()``.  None of these calls
    another, so their times never overlap."""

    def __init__(self):
        super().__init__()
        self.kind = array("b")       # index into TIMED
        self.seconds = array("d")
        self.raised = array("b")

    def _install(self, p: Patches) -> None:
        kinds, times, raised = self.kind, self.seconds, self.raised

        def wrap(kind):
            def make(fn):
                def timed(*args, **kwargs):
                    t0 = _perf()
                    try:
                        result = fn(*args, **kwargs)
                    except Exception:
                        times.append(_perf() - t0)
                        kinds.append(kind)
                        raised.append(1)
                        raise
                    times.append(_perf() - t0)
                    kinds.append(kind)
                    raised.append(0)
                    return result
                return timed
            return make

        for kind, name in enumerate(TIMED):
            p.function(name, wrap(kind))

    def take(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(kind, seconds, raised) of each call since the last take."""
        out = (np.array(self.kind, dtype=np.int8), np.array(self.seconds),
               np.array(self.raised, dtype=bool))
        for column in (self.kind, self.seconds, self.raised):
            del column[:]
        return out


class FastestRepeat:
    """Each timed call's fastest time over the passes, plus the fastest
    time of the rest of a pass.

    Every pass repeats the same calls in the same order.  On a shared host,
    other tenants' load changes how fast every instruction runs, for tens
    of seconds at a time; a run's median follows that load, while a call's
    fastest repeat follows the program.
    """

    def __init__(self):
        self.kind = self.seconds = self.raised = None
        self.wall = self.rest = math.inf

    def add(self, wall: float, kind, seconds, raised) -> None:
        rest = wall - float(seconds.sum())
        if (self.kind is not None and kind.shape == self.kind.shape
                and (kind == self.kind).all() and (raised == self.raised).all()):
            np.minimum(self.seconds, seconds, out=self.seconds)
            self.rest = min(self.rest, rest)
        elif wall < self.wall:
            # the first pass, or passes that made different calls: the
            # faster pass stands whole
            self.kind, self.seconds, self.raised, self.rest = kind, seconds, raised, rest
        self.wall = min(self.wall, wall)

    def figures(self) -> dict:
        routes = self.kind == 0
        completed = routes & ~self.raised
        p50, p99 = 1e3 * np.percentile(self.seconds[completed], (50, 99))
        return {"wall_s": float(self.seconds.sum()) + self.rest,
                "routes_per_s": int(completed.sum()) / float(self.seconds[routes].sum()),
                "route_ms_p50": float(p50), "route_ms_p99": float(p99)}


def pass_figures(wall: float, kind, seconds, raised) -> dict:
    """One pass's own figures, for the run record."""
    completed = (kind == 0) & ~raised
    return {"wall_s": wall, "completed_routes": int(completed.sum()),
            "raised_routes": int(((kind == 0) & raised).sum()),
            "timed_calls_s": float(seconds.sum())}


class BuildCapture(_Probe):
    """Keeps every graph the three builders return, with their arguments,
    so that outputs can be checked once the timed work is over."""

    def __init__(self):
        super().__init__()
        self.builds: list[tuple[str, tuple, object]] = []

    def _install(self, p: Patches) -> None:
        builds = self.builds

        def wrap(name):
            def make(fn):
                def captured(*args, **kwargs):
                    graph = fn(*args, **kwargs)
                    builds.append((name, args, graph))
                    return graph
                return captured
            return make

        for name in GRAPH_BUILDERS:
            p.function(name, wrap(name))


class _KernelStat:
    __slots__ = ("calls", "s", "elems")

    def __init__(self):
        self.calls = self.elems = 0
        self.s = 0.0


class _ModeStat:
    __slots__ = ("calls", "s", "steps", "successes", "stuck", "step_limit",
                 "raised")

    def __init__(self):
        self.calls = self.steps = self.successes = 0
        self.stuck = self.step_limit = self.raised = 0
        self.s = 0.0


class Tracer(_Probe):
    """Spans and counters for one traced stretch of work.

    A span is (name, start, end, parent span, request id).  All spans of
    one route or one trial share a request id: a trial starts at each
    ``harness.build_model`` call and at each ``Assignment`` an oracle
    builds, and a call made outside any span is a request of its own.
    Each span also carries the time its body spent in space kernels and in
    the tracer's own bookkeeping (counting edges, reading outcomes), so
    neither inflates a layer's self time.
    """

    def __init__(self):
        super().__init__()
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.kernel_s = array("d")
        self.bench_s = array("d")
        self._stack: list[int] = []
        self._requests = 0
        self._kernel_depth = 0
        self.kernels = {fn: _KernelStat() for fn in SPACE_FUNCTIONS}
        self.builds = dict.fromkeys(BUILDERS, 0)
        self.edges = 0
        self.thin_candidates = 0
        self.thin_kept = 0
        self.modes: dict[str, _ModeStat] = {}
        self.csv_bytes = 0

    # -- span recording ------------------------------------------------------

    def _open(self, name: str, new_request: bool) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        if new_request or not stack:
            self._requests += 1
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.request.append(self._requests)
        self.kernel_s.append(0.0)
        self.bench_s.append(0.0)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(_perf())
        return idx

    def _span(self, name: str, fn, after=None, request=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result, seconds)``
        runs once it returns (``result`` is None if it raised)."""
        def wrapped(*args, **kwargs):
            idx = self._open(name, request is not None and request(self))
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = self.end[idx] = _perf()
                self._stack.pop()
                if after is not None:
                    after(args, kwargs, result, end - self.start[idx])
                    if self._stack:
                        self.bench_s[self._stack[-1]] += _perf() - end
        return wrapped

    def _in_oracle(self) -> bool:
        stack = self._stack
        return bool(stack) and self.names[self.name[stack[-1]]].startswith("oracle.")

    # -- kernel counters -----------------------------------------------------

    def _kernel(self, stat: _KernelStat, fn, count_elems: bool):
        def counted(*args, **kwargs):
            self._kernel_depth += 1
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                self._kernel_depth -= 1
            stat.calls += 1
            stat.s += dt
            if count_elems:
                stat.elems += len(result)
            if self._kernel_depth == 0 and self._stack:
                self.kernel_s[self._stack[-1]] += dt
            return result
        return counted

    # -- installation --------------------------------------------------------

    def _install(self, p: Patches) -> None:
        original_base = {cls: cls.__dict__.get("base_neighbors")
                         for cls in SPACE_CLASSES}
        for fn_name in SPACE_FUNCTIONS:
            for cls in SPACE_CLASSES:
                if fn_name in cls.__dict__:
                    p.set(cls, fn_name, self._kernel(
                        self.kernels[fn_name], cls.__dict__[fn_name],
                        fn_name == "distances_from"))

        def count_build(fn_name):
            def after(args, kwargs, graph, seconds):
                self.builds[fn_name] += 1
                if graph is not None:
                    self.edges += graph.edge_count()
            return after

        for fn_name in GRAPH_BUILDERS:
            p.function(fn_name, lambda fn, name=fn_name: self._span(
                "construction." + name, fn, count_build(name)))

        count_thin = count_build("thin_edges")

        def after_thin(args, kwargs, thinned, seconds):
            count_thin(args, kwargs, thinned, seconds)
            if thinned is None:
                return
            graph, space = args[0], args[1]
            base_of = next(original_base[c] for c in type(space).__mro__
                           if original_base.get(c) is not None)
            base = sum(len(base_of(space, x)) for x in range(graph.n))
            self.thin_candidates += graph.edge_count() - base
            self.thin_kept += thinned.edge_count() - base

        p.function("thin_edges", lambda fn: self._span(
            "construction.thin_edges", fn, after_thin))

        p.set(construction.Assignment, "__init__", self._span(
            "construction.Assignment", construction.Assignment.__init__,
            request=Tracer._in_oracle))

        def after_route(args, kwargs, outcome, seconds):
            label = (kwargs["mode"] if "mode" in kwargs else args[2]).label
            stat = self.modes.get(label)
            if stat is None:
                stat = self.modes[label] = _ModeStat()
            stat.calls += 1
            stat.s += seconds
            if outcome is None:
                stat.raised += 1
                return
            stat.steps += outcome.steps
            stat.successes += bool(outcome.success)
            failure = outcome.failure.value
            stat.stuck += failure == "stuck"
            stat.step_limit += failure == "step-limit"

        p.function("route", lambda fn: self._span(
            "routing.route", fn, after_route))

        p.function("build_model", lambda fn: self._span(
            "harness.build_model", fn, request=lambda tracer: True))
        p.function("run_experiment", lambda fn: self._span(
            "harness.run_experiment", fn))

        def after_export(args, kwargs, result, seconds):
            paths = list(args[1:]) + [kwargs.get("path"), kwargs.get("raw_path")]
            self.csv_bytes += sum(os.path.getsize(path) for path in paths
                                  if path is not None and os.path.exists(path))

        p.function("export_csv", lambda fn: self._span(
            "harness.export_csv", fn, after_export))
        p.function("main", lambda fn: self._span("cli.main", fn))
        for fn_name in ("marginal_edge_law", "monotonicity_check"):
            p.function(fn_name, lambda fn, name=fn_name: self._span(
                "oracle." + name, fn))

    # -- reduction -------------------------------------------------------------

    def _columns(self):
        names = np.array(self.name, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        return names, dur, parent

    def span_times(self) -> tuple[dict[str, float], dict[str, float]]:
        """Inclusive and self time per span name.

        Self time is a span's duration minus its child spans, the kernel
        calls it made directly and the tracer's bookkeeping inside it.
        Calls are strictly nested on one thread, so children never overlap.
        """
        names, dur, parent = self._columns()
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested],
                            minlength=len(dur))
        own = dur - child - np.array(self.kernel_s) - np.array(self.bench_s)
        size = len(self.names)
        total = np.bincount(names, weights=dur, minlength=size)
        own_total = np.bincount(names, weights=own, minlength=size)
        return ({n: float(total[i]) for i, n in enumerate(self.names)},
                {n: float(own_total[i]) for i, n in enumerate(self.names)})

    def span_count(self) -> int:
        return len(self.start)

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        spans, own = self.span_times()
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in own.items():
            layer_self[name.split(".")[0]] += seconds
        # kernels are leaves: the layer's self time is its outermost calls
        layer_self["spaces"] = float(sum(self.kernel_s))

        m: dict[str, tuple[float, str]] = {}
        for fn in SPACE_FUNCTIONS:
            m[f"spaces.{fn}.calls"] = (self.kernels[fn].calls, "count")
            m[f"spaces.{fn}.s"] = (self.kernels[fn].s, "s")
        elems = self.kernels["distances_from"].elems
        m["spaces.distances_from.elems"] = (elems, "count")
        m["spaces.distances_from.computed_bytes"] = (8 * elems, "B")
        for fn in BUILDERS:
            m[f"construction.{fn}.s"] = (spans.get(f"construction.{fn}", 0.0), "s")
            m[f"construction.{fn}.calls"] = (self.builds[fn], "count")
        m["construction.Assignment.s"] = (spans.get("construction.Assignment", 0.0), "s")
        m["construction.Assignment.calls"] = (self._count("construction.Assignment"), "count")
        m["construction.edges"] = (self.edges, "count")
        m["construction.thin_edges.keep_ratio"] = (
            self.thin_kept / self.thin_candidates if self.thin_candidates else 0.0,
            "ratio")
        for label in ROUTE_MODES:
            st = self.modes.get(label, _ModeStat())
            m[f"routing.{label}.s"] = (st.s, "s")
            m[f"routing.{label}.calls"] = (st.calls, "count")
            m[f"routing.{label}.steps"] = (st.steps, "count")
            m[f"routing.{label}.us_per_step"] = (
                1e6 * st.s / st.steps if st.steps else 0.0, "us")
            m[f"routing.{label}.success_ratio"] = (
                st.successes / st.calls if st.calls else 0.0, "ratio")
            m[f"routing.{label}.stuck"] = (st.stuck, "count")
            m[f"routing.{label}.step_limit"] = (st.step_limit, "count")
            m[f"routing.{label}.raised"] = (st.raised, "count")
        m["harness.run_experiment.s"] = (spans.get("harness.run_experiment", 0.0), "s")
        m["harness.export_csv.s"] = (spans.get("harness.export_csv", 0.0), "s")
        m["harness.export_csv.bytes"] = (self.csv_bytes, "B")
        m["cli.main.s"] = (spans.get("cli.main", 0.0), "s")
        m["oracle.marginal_edge_law.s"] = (spans.get("oracle.marginal_edge_law", 0.0), "s")
        m["oracle.monotonicity_check.s"] = (spans.get("oracle.monotonicity_check", 0.0), "s")
        # harness self time is the run itself; export_csv is reported apart
        layer_self["harness"] -= own.get("harness.export_csv", 0.0)
        for layer in LAYERS:
            m[f"{layer}.self.s"] = (layer_self[layer], "s")
        return m

    def _count(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return 0 if nid is None else self.name.tolist().count(nid)

    def write(self, path) -> None:
        """Write every span as columns of an ``.npz`` file."""
        np.savez(path, names=np.array(self.names, dtype=str),
                 name=np.array(self.name, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 request=np.array(self.request, dtype=np.int64),
                 kernel_s=np.array(self.kernel_s),
                 bench_s=np.array(self.bench_s))
