"""Declarative, seeded experiment runner.

An :class:`ExperimentSpec` names a graph model, a list of sizes and master
seeds, and a list of routing modes.  For every (size, seed) the harness
samples positions/permutation from dedicated seed streams, builds the
graph once, routes a fixed number of uniformly sampled (source != target)
pairs under every mode, and aggregates per (size, seed, mode).

Identical spec + seeds reproduce identical CSV bytes (the thin_ms,
build_ms and wall_ms timing columns excluded); trials are independent,
so results do not depend on worker scheduling.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .construction import (Assignment, NavGraph, Seed, build_double_clustering,
                           build_independent_interest, build_kleinberg,
                           thin_edges, write_edge_list)
from .routing import RoutingMode, route
from .spaces import (DirectedCycle, Euclidean, Grid, Space, TreeLeaves,
                     UndirectedCycle)

__all__ = [
    "MODELS",
    "MAX_SIZE",
    "ExperimentSpec",
    "AggregateRow",
    "RouteRecord",
    "ExperimentResult",
    "ScalingFit",
    "run_experiment",
    "fit_scaling",
    "export_csv",
    "load_experiment_config",
    "experiment_spec_from_dict",
    "check_model",
    "build_space",
    "build_assignment",
    "build_model",
    "AGGREGATE_HEADER",
    "RAW_HEADER",
]

# One size ceiling for every model: double-clustering builds read bounded
# balls on every space kind, but the kleinberg and independent-interest
# baselines still do O(n) work per vertex, so their builds are O(n^2).
MAX_SIZE = 2**16


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one study.

    ``params`` carries the knobs that the model's entry in the model table
    reads: ``grid_dims``, ``toric`` and ``branching`` (grid-tree),
    ``box1``/``box2`` extents (continuum), a ``space`` descriptor
    (baselines) and ``alpha``/``links`` (kleinberg).  A field of the
    wrong type (a list may be a tuple), params keys the model does not
    read, and params, sizes and modes that the model's spaces cannot take
    or that exceed :data:`MAX_SIZE` (through :func:`check_model`), are
    refused here, before any trial runs; no value is coerced.
    """

    model: str
    sizes: tuple[int, ...]
    seeds: tuple[int, ...]
    routes_per_size: int = 1000
    routing_modes: tuple[RoutingMode, ...] = (RoutingMode("greedy-1"),)
    thinning: bool = False
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        # each field's type, in the words of the config it mirrors
        def listed(valid):
            return lambda v: isinstance(v, (list, tuple)) and all(map(valid, v))
        for key, valid, expected in (
                ("model", lambda v: isinstance(v, str), "a string"),
                ("sizes", listed(_is_int), "a list of integers"),
                ("seeds", listed(_is_int), "a list of integers"),
                ("routes_per_size", _is_int, "an integer"),
                ("routing_modes", listed(lambda m: isinstance(m, RoutingMode)),
                 "a list of mode labels"),
                ("thinning", lambda v: isinstance(v, bool), "true or false"),
                ("params", lambda v: isinstance(v, dict), "an object")):
            _config_value(vars(self), key, None, valid, expected)
        for key in ("sizes", "seeds", "routing_modes"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        # the params are refused before the sizes, the sizes' spaces after
        _preset(self.model, self.params)
        if not self.sizes or list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be nonempty and strictly ascending")
        # a trial needs a route pair
        if self.sizes[0] < 2:
            raise ValueError("sizes must be >= 2")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.routes_per_size < 1:
            raise ValueError("routes_per_size must be >= 1")
        if not self.routing_modes:
            raise ValueError("routing_modes must be nonempty")
        check_model(self.model, self.params, self.sizes, self.routing_modes,
                    thinning=self.thinning)


def check_model(model: str, params: dict, sizes, modes=(), *,
                thinning: bool = False,
                explicit_pi: bool = False) -> tuple[str, list, tuple]:
    """The model's preset, ``(builder, space descriptors, builder
    arguments)``, once every check that needs no build has passed.

    ``thinning`` and ``explicit_pi`` say whether the graphs are to be
    thinned and whether the caller pairs the spaces by a permutation of
    its own.  Refused, in this order: params that the model does not read
    or that do not describe its spaces, a size below 1 in the nonempty
    ``sizes``, a size above :data:`MAX_SIZE`, a size below 3 with thinning,
    a size that one of its spaces cannot take, a kleinberg space without a
    base graph, a mode in ``modes`` that is half-greedy in a space without
    one, and an explicit permutation for a model that draws none.
    """
    preset = builder, descriptors, _ = _preset(model, params)
    smallest = min(sizes)
    if smallest < 1:
        raise ValueError(f"n must be >= 1, got {smallest}")
    if max(sizes) > MAX_SIZE:
        raise ValueError(f"sizes {[n for n in sizes if n > MAX_SIZE]} "
                         f"exceed the n <= {MAX_SIZE} ceiling")
    # thinning keeps edges with probability 1/ln(n), which needs ln(n) > 1
    if thinning and smallest < 3:
        raise ValueError("sizes must be >= 3 with thinning")
    for n in sizes:
        classes = _space_classes(descriptors, n)
    # kleinberg augments a base graph, and half-greedy steps along one;
    # tree leaves and point clouds have none
    if builder == "kleinberg" and not classes[0].is_graph_kind:
        raise ValueError(f"model {model!r} needs a graph-kind space; its "
                         f"params 'space' is {classes[0].kind!r}, which has "
                         f"no base graph")
    # a baseline routes in its one space as both
    graph_kind = [c.is_graph_kind for c in classes] * 2
    for mode in modes:
        if mode.kind == "half-greedy" and not graph_kind[mode.space - 1]:
            raise ValueError(f"{mode.label} needs a graph-kind space {mode.space}; "
                             f"model {model!r} has no base graph there")
    if explicit_pi and not _pairs_by_pi(descriptors):
        raise ValueError(f"model {model!r} takes no explicit permutation")
    return preset


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _refuse_unread(data: dict, reads: tuple, what: str) -> None:
    """Refuse the first key of ``data`` that is not among ``reads``."""
    for key in data:
        if key not in reads:
            raise ValueError(f"{what} {key!r} is not read; it reads "
                             + (", ".join(map(repr, reads)) or "no keys"))


def _refuse_empty(**paths) -> None:
    """Refuse an empty string given for a path, which names no file and
    which ``Path`` would read as the working directory."""
    for name, value in paths.items():
        if value == "":
            raise ValueError(f"{name} must name a path, got an empty value")


def _config_value(data: dict, key: str, default, valid, expected: str,
                  where: str = "config key"):
    value = data.get(key, default)
    if not valid(value):
        raise ValueError(f"{where} {key!r} must be {expected}, got {value!r}")
    return value


def experiment_spec_from_dict(data: dict) -> ExperimentSpec:
    """The spec a JSON config describes: the keys it gives, with the mode
    labels parsed, passed to :class:`ExperimentSpec`, which refuses a value
    of the wrong JSON type and never coerces one."""
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {data!r}")
    known = {"model", "sizes", "seeds", "routes_per_size", "routing_modes",
             "thinning", "params"}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    missing = {"model", "sizes", "seeds"} - set(data)
    if missing:
        raise ValueError(f"missing config keys: {sorted(missing)}")
    data = dict(data)
    modes = data.get("routing_modes")
    if isinstance(modes, list) and all(isinstance(m, str) for m in modes):
        data["routing_modes"] = [RoutingMode.parse(m) for m in modes]
    return ExperimentSpec(**data)


def load_experiment_config(path: str | Path) -> ExperimentSpec:
    """Read an experiment spec from a JSON config file (keys mirror
    :class:`ExperimentSpec`; see README for the documented key set).  A
    file that is not UTF-8 or not JSON is refused with its path."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ValueError(f"{path}: {exc}") from None
    return experiment_spec_from_dict(data)


@dataclass(frozen=True)
class AggregateRow:
    """One (size, seed, mode) aggregate.  ``build_ms`` times the trial's
    build and thinning, and ``thin_ms`` the thinning alone (None without
    thinning), both repeated on each of its mode rows; ``wall_ms`` times
    this mode's routes alone."""

    model: str
    n: int
    seed: int
    mode: str
    routes: int
    successes: int
    success_rate: float
    mean_len: float | None
    median_len: float | None
    mean_outdeg: float
    thin_ms: float | None
    build_ms: float
    wall_ms: float


class RouteRecord(NamedTuple):
    """One routed pair: one line of the raw CSV."""

    n: int
    seed: int
    mode: str
    source: int
    target: int
    steps: int
    success: bool
    failure: str


# each CSV's header is its row type's fields, in order
AGGREGATE_HEADER = ",".join(f.name for f in fields(AggregateRow))
RAW_HEADER = ",".join(RouteRecord._fields)
# one raw line from a RouteRecord; %d writes the success flag as 0 or 1
_RAW_ROW = "%d,%d,%s,%d,%d,%d,%d,%s"


@dataclass
class ExperimentResult:
    spec: ExperimentSpec
    rows: list[AggregateRow]
    raw: list[RouteRecord]


# ---------------------------------------------------------------------------
# model instantiation


def _near_square_dims(n: int) -> tuple[int, int]:
    best = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            best = d
    return (n // best, best)


# the keys of a space descriptor that each kind reads
_SPACE_KEYS = {
    "directed-cycle": ("kind",),
    "undirected-cycle": ("kind",),
    "grid": ("kind", "dims", "toric"),
    "tree": ("kind", "branching"),
    "tree-leaves": ("kind", "branching"),
}


def build_space(descriptor: dict, n: int) -> Space:
    """Instantiate a space descriptor at size n.

    Descriptor keys: kind (directed-cycle | undirected-cycle | grid | tree),
    plus dims/toric for grids and branching for trees; a key that the kind
    does not read is refused.  Grid dims default to the most square
    factorization of n; tree height is derived from n.
    """
    if not isinstance(descriptor, dict):
        raise ValueError(f"space descriptor must be an object, got {descriptor!r}")
    kind = descriptor.get("kind", "undirected-cycle")
    reads = _SPACE_KEYS.get(kind) if isinstance(kind, str) else None
    if reads is None:
        raise ValueError(f"unknown space kind {kind!r}")
    _refuse_unread(descriptor, reads, f"space kind {kind!r}: descriptor key")
    if kind == "directed-cycle":
        return DirectedCycle(n)
    if kind == "undirected-cycle":
        return UndirectedCycle(n)
    if kind == "grid":
        dims = _config_value(
            descriptor, "dims", None,
            lambda v: v is None or (isinstance(v, (list, tuple))
                                    and all(map(_is_int, v))),
            "a list of integers or null", "grid")
        dims = tuple(dims or _near_square_dims(n))
        if math.prod(dims) != n:
            raise ValueError(f"grid dims {dims} do not multiply to n={n}")
        return Grid(dims, toric=_config_value(
            descriptor, "toric", False, lambda v: isinstance(v, bool),
            "true or false", "grid"))
    branching = _config_value(descriptor, "branching", 2,
                              lambda v: _is_int(v) and v >= 2,
                              "an integer >= 2", "tree")
    height = round(math.log(n, branching))
    if branching**height != n:
        raise ValueError(f"n={n} is not a power of branching={branching}")
    return TreeLeaves(branching, height)


@dataclass(frozen=True)
class _Cloud:
    """A point cloud of n points drawn uniformly from ``box``.  Only the
    model table makes one; configs describe their spaces for
    :func:`build_space`, which has no cloud kind."""

    box: tuple[float, ...]


def _space_classes(descriptors: list, n: int) -> list[type[Space]]:
    """The class of each described space, each descriptor checked against
    size n; a cloud takes any size, and no point is drawn."""
    return [Euclidean if isinstance(d, _Cloud) else type(build_space(d, n))
            for d in descriptors]


def _pairs_by_pi(descriptors: list) -> bool:
    """Whether the described spaces are paired by a permutation: point
    clouds, whose points are drawn at random already, are paired by
    identity, and a baseline's one space with itself."""
    return len(descriptors) == 2 and not any(isinstance(d, _Cloud)
                                             for d in descriptors)


def _spaces(descriptors: list, n: int, seed: Seed) -> list[Space]:
    """The described spaces at size n.  Equal descriptors share one space
    object, with its one id table and cached views; a cloud that is the
    k-th space draws its own points from the seed's ("points", k) stream."""
    spaces: list[Space] = []
    for k, d in enumerate(descriptors, 1):
        if isinstance(d, _Cloud):
            spaces.append(Euclidean(seed.rng("points", k).random((n, len(d.box)))
                                    * np.asarray(d.box), d.box))
        elif d in descriptors[:k - 1]:
            spaces.append(spaces[descriptors.index(d)])
        else:
            spaces.append(build_space(d, n))
    return spaces


def _boxes(params: dict) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The continuum model's sampling boxes: each a nonempty list of
    finite, positive extents, one per coordinate."""
    boxes = []
    for key, default in (("box1", (1.33, 1.0)), ("box2", (1.0, 1.0, 1.0))):
        box = params.get(key, default)
        if not (isinstance(box, (list, tuple)) and box
                and all(isinstance(b, (int, float)) and not isinstance(b, bool)
                        and 0 < b < math.inf for b in box)):
            raise ValueError(f"{key} must be a nonempty list of finite, "
                             f"positive numbers, got {box!r}")
        boxes.append(tuple(float(b) for b in box))
    return boxes[0], boxes[1]


def _kleinberg_args(params: dict) -> tuple[float, int]:
    """The kleinberg model's ``alpha`` (a finite number >= 0) and ``links``
    (an integer >= 1)."""
    alpha = _config_value(
        params, "alpha", 0.0,
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
        and 0 <= v < math.inf, "a finite number >= 0", "kleinberg")
    links = _config_value(params, "links", 1, lambda v: _is_int(v) and v >= 1,
                          "an integer >= 1", "kleinberg")
    return float(alpha), links


# The model table: each model is one of three builders over the spaces its
# params describe.  An entry names the params keys the model reads, and
# maps params to (builder, space descriptors, the builder's own
# arguments), each read and checked from params.
_PRESETS = {
    "two-directed-cycles": ((), lambda p: (
        "double-clustering", [{"kind": "directed-cycle"}] * 2, ())),
    "two-undirected-cycles": ((), lambda p: (
        "double-clustering", [{"kind": "undirected-cycle"}] * 2, ())),
    "grid-tree": (("grid_dims", "toric", "branching"), lambda p: (
        "double-clustering", [
            {"kind": "grid", "dims": p.get("grid_dims"),
             "toric": p.get("toric", False)},
            {"kind": "tree", "branching": p.get("branching", 2)}], ())),
    "continuum": (("box1", "box2"), lambda p: (
        "double-clustering", [_Cloud(box) for box in _boxes(p)], ())),
    "independent-interest": (("space",), lambda p: (
        "independent-interest",
        [p.get("space", {"kind": "undirected-cycle"})], ())),
    "kleinberg": (("space", "alpha", "links"), lambda p: (
        "kleinberg", [p.get("space", {"kind": "grid"})], _kleinberg_args(p))),
}
MODELS = tuple(_PRESETS)


def _preset(model: str, params: dict) -> tuple[str, list, tuple]:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}; expected one of {MODELS}")
    reads, make = _PRESETS[model]
    _refuse_unread(params, reads, f"model {model!r}: params key")
    return make(params)


def build_assignment(model: str, params: dict, n: int, seed: Seed,
                     pi: np.ndarray | None = None) -> Assignment:
    """Instantiate the model's spaces at size n and pair them as
    :func:`build_model` does, once :func:`check_model` has passed the model
    at that size.

    Double clustering pairs its two spaces by a permutation from the seed's
    stream, or by ``pi`` where given (to replay explicit permutations).
    Point clouds, whose points are drawn at random already, are paired by
    identity, and a baseline's one space with itself: neither takes a
    ``pi``.
    """
    _, descriptors, _ = check_model(model, params, (n,),
                                    explicit_pi=pi is not None)
    spaces = _spaces(descriptors, n, seed)
    if pi is not None:
        return Assignment(*spaces, pi)
    if _pairs_by_pi(descriptors):
        return Assignment.random(*spaces, seed)
    return Assignment.identity(*spaces)


def build_model(model: str, params: dict, n: int, seed: Seed,
                pi: np.ndarray | None = None) -> tuple[Assignment, NavGraph]:
    """The model's assignment, from :func:`build_assignment`, and the graph
    its builder builds on it."""
    assignment = build_assignment(model, params, n, seed, pi)
    builder, _, args = _preset(model, params)
    if builder == "double-clustering":
        return assignment, build_double_clustering(assignment)
    if builder == "kleinberg":
        return assignment, build_kleinberg(assignment.space1, *args, seed)
    return assignment, build_independent_interest(assignment.space1, seed)


def _build_trial(spec: ExperimentSpec, n: int, seed: Seed
                 ) -> tuple[Assignment, NavGraph, float | None]:
    """The trial's assignment and graph, and the thinning's milliseconds
    (None without thinning)."""
    assignment, graph = build_model(spec.model, spec.params, n, seed)
    if not spec.thinning:
        return assignment, graph, None
    t0 = time.perf_counter()
    graph = thin_edges(graph, assignment.space1, seed)
    return assignment, graph, (time.perf_counter() - t0) * 1000.0


def _sample_route_pairs(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """``count`` distinct (source != target) pairs, capped at n(n-1), in
    the order of first draw: each round draws one (source, target) per
    missing pair and drops self-pairs and repeats."""
    count = min(count, n * (n - 1))
    pairs: dict[tuple[int, int], None] = {}
    while len(pairs) < count:
        draws = rng.integers(n, size=(count - len(pairs), 2)).tolist()
        pairs.update(((s, t), None) for s, t in draws if s != t)
    return list(pairs)


def _run_trial(spec: ExperimentSpec, n: int, master: int,
               dump_edges_dir: str | None = None) -> tuple[list[AggregateRow], list[RouteRecord]]:
    seed = Seed(master)
    t0 = time.perf_counter()
    assignment, graph, thin_ms = _build_trial(spec, n, seed)
    build_ms = (time.perf_counter() - t0) * 1000.0
    if dump_edges_dir is not None:
        out = Path(dump_edges_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_edge_list(graph, out / f"{spec.model}-n{n}-seed{master}.edges")
    pairs = _sample_route_pairs(n, spec.routes_per_size, seed.rng("routes"))
    mean_outdeg = graph.mean_out_degree()
    rows: list[AggregateRow] = []
    raw: list[RouteRecord] = []
    for mode in spec.routing_modes:
        t1 = time.perf_counter()
        for source, target in pairs:
            outcome = route(graph, assignment, mode, source, target)
            raw.append(RouteRecord(n, master, mode.label, source, target,
                                   outcome.steps, outcome.success,
                                   outcome.failure.value))
        mode_ms = (time.perf_counter() - t1) * 1000.0
        # the aggregate of this mode's records, as the raw CSV lists them
        lengths = [r.steps for r in raw[-len(pairs):] if r.success]
        rows.append(AggregateRow(
            model=spec.model, n=n, seed=master, mode=mode.label,
            routes=len(pairs), successes=len(lengths),
            success_rate=len(lengths) / len(pairs),
            mean_len=(sum(lengths) / len(lengths)) if lengths else None,
            median_len=float(statistics.median(lengths)) if lengths else None,
            mean_outdeg=mean_outdeg, thin_ms=thin_ms, build_ms=build_ms,
            wall_ms=mode_ms))
    return rows, raw


def run_experiment(spec: ExperimentSpec, *, workers: int = 1,
                   dump_edges_dir: str | None = None) -> ExperimentResult:
    """Run every (size, seed) trial of the spec and aggregate.

    Failed routes are excluded from length means but counted in the
    success rate.  Trials are independent; with workers > 1 they fan out
    across at most one process per trial and are reduced in (size, seed)
    order, so the result is identical for any worker count.  ``workers``
    must be >= 1, and an empty ``dump_edges_dir`` is refused before the
    first trial.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _refuse_empty(dump_edges_dir=dump_edges_dir)
    tasks = [(n, master) for n in spec.sizes for master in spec.seeds]
    workers = min(workers, len(tasks))
    rows: list[AggregateRow] = []
    raw: list[RouteRecord] = []
    # one trial loop: in this process for one worker, else over a pool
    with (ProcessPoolExecutor(max_workers=workers) if workers > 1
          else nullcontext()) as pool:
        trials = (pool.map if pool else map)(
            _run_trial, [spec] * len(tasks), [n for n, _ in tasks],
            [m for _, m in tasks], [dump_edges_dir] * len(tasks))
        for trial_rows, trial_raw in trials:
            rows.extend(trial_rows)
            raw.extend(trial_raw)
    return ExperimentResult(spec, rows, raw)


# ---------------------------------------------------------------------------
# scaling fit


@dataclass(frozen=True)
class ScalingFit:
    slope: float
    intercept: float
    r_squared: float


def fit_scaling(result: ExperimentResult) -> dict[str, ScalingFit]:
    """Per-mode OLS of mean path length against log2(n), pooled over seeds."""
    sizes = {r.n for r in result.rows}
    if len(sizes) < 3:
        raise ValueError(f"scaling fit needs >= 3 sizes, got {len(sizes)}")
    fits: dict[str, ScalingFit] = {}
    for mode in [m.label for m in result.spec.routing_modes]:
        points = [(math.log2(r.n), r.mean_len) for r in result.rows
                  if r.mode == mode and r.mean_len is not None]
        if len({x for x, _ in points}) < 3:
            raise ValueError(f"scaling fit for {mode} needs >= 3 sizes with successes")
        x = np.array([p[0] for p in points])
        y = np.array([p[1] for p in points])
        xc = x - x.mean()
        slope = float((xc * (y - y.mean())).sum() / (xc * xc).sum())
        intercept = float(y.mean() - slope * x.mean())
        residuals = y - (slope * x + intercept)
        ss_res = float((residuals**2).sum())
        ss_tot = float(((y - y.mean())**2).sum())
        if ss_tot == 0.0:
            r2 = 1.0 if ss_res == 0.0 else 0.0
        else:
            r2 = 1.0 - ss_res / ss_tot
        fits[mode] = ScalingFit(slope, intercept, r2)
    return fits


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def aggregate_csv_text(result: ExperimentResult) -> str:
    fields = attrgetter(*AGGREGATE_HEADER.split(","))
    lines = [AGGREGATE_HEADER]
    lines += [",".join(map(_fmt, fields(row))) for row in result.rows]
    return "\n".join(lines) + "\n"


def raw_csv_text(result: ExperimentResult) -> str:
    lines = [RAW_HEADER]
    lines += [_RAW_ROW % record for record in result.raw]
    return "\n".join(lines) + "\n"


def export_csv(result: ExperimentResult, path: str | Path,
               raw_path: str | Path | None = None) -> None:
    """Aggregate CSV (one row per size/seed/mode); optional raw per-route CSV.
    An empty path is refused before either file is written."""
    _refuse_empty(path=path, raw_path=raw_path)
    Path(path).write_text(aggregate_csv_text(result))
    if raw_path is not None:
        Path(raw_path).write_text(raw_csv_text(result))

