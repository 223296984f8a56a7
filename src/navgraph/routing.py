"""Decentralized routing over a built graph.

Three algorithms, all using only each visited vertex's outgoing edges plus
global space geometry:

* greedy: move to the out-neighbor closest to the target in one chosen
  space, requiring strict improvement (ties broken by smallest id).
* half-greedy: either a "very big step" to an out-neighbor that more than
  halves the remaining distance, or one base-graph step, along an
  out-edge, that decreases it by exactly one.
* combined: greedy over both spaces at once, at each step preferring the
  space whose best neighbor leaves the smaller ball around the target.

Greedy and half-greedy read each distance through the space's scalar
kernel toward the target (:meth:`~navgraph.spaces.Space.distance_to`), so
a route costs its path length times the out-degree, at every size.
Combined routing also counts balls around the target; it reads distances
and ball sizes through each space's per-target preparation
(:meth:`~navgraph.spaces.Space.prepare_target`).  On cycles, grids and
tree leaves that is the scalar kernel plus a closed-form count, so the
route cost follows the path there too; a point cloud enumerates and
sorts the target's distances once per route.

Plateau moves (equal-distance steps to vertices not already on the path)
are allowed when enabled; they default on for tree-distance and combined
routing, where huge equal-distance shells otherwise strand most routes,
and off elsewhere.  :func:`route` is the one entry point; a
:class:`RoutingMode` selects the algorithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .construction import Assignment, NavGraph
from .spaces import TreeLeaves

__all__ = [
    "Failure",
    "RoutingMode",
    "RouteOutcome",
    "PHASE_AT_ZERO",
    "phase_index",
    "route",
    "MODE_LABELS",
]

MODE_LABELS = ("greedy-1", "greedy-2", "half-greedy-1", "half-greedy-2",
               "combined", "combined-literal-m")


class Failure(str, Enum):
    NONE = "none"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class RoutingMode:
    """Algorithm selector.

    ``plateau=None`` resolves at routing time: on for combined routing and
    for greedy over a tree-distance space, off otherwise.  ``max_steps=None``
    resolves to 10*n, a termination backstop reported as a failure rather
    than silently truncated.  ``literal_m`` switches combined routing to
    comparing raw best distances instead of ball counts (for side-by-side
    study; the ball-count rule is the default).
    """

    kind: str = "greedy"
    space: int = 1
    plateau: bool | None = None
    max_steps: int | None = None
    literal_m: bool = False

    def __post_init__(self):
        if self.kind not in ("greedy", "half-greedy", "combined"):
            raise ValueError(f"unknown routing kind {self.kind!r}")
        if self.space not in (1, 2):
            raise ValueError("space must be 1 or 2")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.literal_m and self.kind != "combined":
            raise ValueError("literal_m applies to combined routing only")

    @property
    def label(self) -> str:
        if self.kind == "combined":
            return "combined-literal-m" if self.literal_m else "combined"
        return f"{self.kind}-{self.space}"

    @classmethod
    def parse(cls, label: str) -> "RoutingMode":
        label = label.strip().lower()
        if label == "greedy":
            label = "greedy-1"
        if label == "half-greedy":
            label = "half-greedy-1"
        if label not in MODE_LABELS:
            raise ValueError(
                f"unknown routing mode {label!r}; expected one of {MODE_LABELS}")
        if label == "combined":
            return cls(kind="combined")
        if label == "combined-literal-m":
            return cls(kind="combined", literal_m=True)
        kind, space = label.rsplit("-", 1)
        return cls(kind=kind, space=int(space))


@dataclass
class RouteOutcome:
    """Result of one route attempt.

    ``phase_steps`` maps phase index i to the number of steps taken from
    vertices whose distance d to the target satisfied 2^(i-1) < d <= 2^i,
    measured in the algorithm's primary space; it always sums to ``steps``.
    Steps taken from a vertex at distance 0 that is not the target (it
    coincides with the target in a point cloud) are counted under
    :data:`PHASE_AT_ZERO`, ``-math.inf``, which sorts below every phase
    index, as the limit of ``phase_index(d)`` for d -> 0.
    """

    source: int
    target: int
    path: list[int]
    steps: int
    success: bool
    failure: Failure = Failure.NONE
    phase_steps: dict[int | float, int] = field(default_factory=dict)


PHASE_AT_ZERO = -math.inf


def phase_index(d) -> int:
    """Smallest integer i with d <= 2^i (phase_index(1) == 0)."""
    d = float(d)
    if d <= 0:
        raise ValueError(f"phase is defined for d > 0, got {d}")
    if d.is_integer():
        return (int(d) - 1).bit_length()
    return math.ceil(math.log2(d))


def resolved_plateau(mode: RoutingMode, assignment: Assignment) -> bool:
    if mode.plateau is not None:
        return mode.plateau
    if mode.kind == "combined":
        return True
    space = assignment.space1 if mode.space == 1 else assignment.space2
    return isinstance(space, TreeLeaves)


# ---------------------------------------------------------------------------
# distance-to-target accessors


def _dist_getter(a: Assignment, space_sel: int, target: int):
    """``v -> distance(v, target)`` in the selected space."""
    if space_sel == 1:
        return a.space1.distance_to(target)
    pos = a.pi_list
    to_target = a.space2.distance_to(pos[target])
    return lambda v: to_target(pos[v])


def _target_view(a: Assignment, space_sel: int, target: int):
    """``(v -> distance(v, target), r -> ball size around target)`` in the
    selected space."""
    if space_sel == 1:
        return a.space1.prepare_target(target)
    pos = a.pi_list
    to_target, count = a.space2.prepare_target(pos[target])
    return (lambda v: to_target(pos[v])), count


def _argmin_neighbor(nbrs, get):
    """(neighbor, distance) minimizing distance, smallest id on ties."""
    best_w = -1
    best_d = None
    for w in nbrs:
        dw = get(w)
        if best_d is None or dw < best_d:
            best_w, best_d = w, dw
    return best_w, best_d


def _plateau_pick(nbrs, get, level, visited):
    for w in nbrs:  # ascending ids: first hit is the tie-break winner
        if w not in visited and get(w) == level:
            return w
    return -1


# ---------------------------------------------------------------------------
# algorithms


def _check_endpoints(graph: NavGraph, a: Assignment, source: int, target: int):
    if graph.n != a.n:
        raise ValueError("graph and assignment sizes differ")
    for v in (source, target):
        if not 0 <= v < graph.n:
            raise ValueError(f"vertex id {v} out of range [0, {graph.n})")


def _finish(source, target, path, phase, failure):
    steps = len(path) - 1
    return RouteOutcome(source, target, path, steps,
                        success=(path[-1] == target and failure is Failure.NONE),
                        failure=failure, phase_steps=phase)


def _bump(phase: dict[int | float, int], d) -> None:
    i = phase_index(d) if d > 0 else PHASE_AT_ZERO
    phase[i] = phase.get(i, 0) + 1


def _greedy(graph, a, space_sel, plateau, max_steps, source, target):
    get = _dist_getter(a, space_sel, target)
    path = [source]
    visited = {source} if plateau else None
    phase: dict[int | float, int] = {}
    x = source
    dx = get(x)
    while x != target:
        if len(path) - 1 >= max_steps:
            return _finish(source, target, path, phase, Failure.STEP_LIMIT)
        nbrs = graph.out_edges[x]
        w, dw = _argmin_neighbor(nbrs, get)
        if w < 0 or not dw < dx:
            if plateau:
                w = _plateau_pick(nbrs, get, dx, visited)
                dw = dx
            else:
                w = -1
            if w < 0:
                return _finish(source, target, path, phase, Failure.STUCK)
        _bump(phase, dx)
        path.append(w)
        if visited is not None:
            visited.add(w)
        x, dx = w, dw
    return _finish(source, target, path, phase, Failure.NONE)


def _half_greedy(graph, a, space_sel, max_steps, source, target):
    space = a.space1 if space_sel == 1 else a.space2
    if not space.is_graph_kind:
        raise ValueError(
            "half-greedy routing needs a graph-kind space (no base neighbors "
            f"on {space.kind})")
    get = _dist_getter(a, space_sel, target)
    if space_sel == 1:
        base_of = space.base_neighbors
    else:
        base_of = a.base_neighbors2
    path = [source]
    phase: dict[int | float, int] = {}
    x = source
    while x != target:
        if len(path) - 1 >= max_steps:
            return _finish(source, target, path, phase, Failure.STEP_LIMIT)
        dx = get(x)
        nbrs = graph.out_edges[x]
        # very big step: the closest out-neighbor, if dx > 2 d(w)
        w, dw = _argmin_neighbor(nbrs, get)
        if w < 0 or not dx > 2 * dw:
            # small step: the smallest-id base neighbor exactly one closer
            # that is an out-neighbor too (thinning keeps only space-1 base
            # edges)
            w = next((b for b in base_of(x) if b in nbrs and get(b) == dx - 1), -1)
        if w < 0:
            return _finish(source, target, path, phase, Failure.STUCK)
        _bump(phase, dx)
        path.append(w)
        x = w
    return _finish(source, target, path, phase, Failure.NONE)


def _combined(graph, a, plateau, max_steps, literal_m, source, target):
    get1, count1 = _target_view(a, 1, target)
    get2, count2 = _target_view(a, 2, target)
    path = [source]
    visited = {source}
    phase: dict[int | float, int] = {}
    x = source
    while x != target:
        if len(path) - 1 >= max_steps:
            return _finish(source, target, path, phase, Failure.STEP_LIMIT)
        if plateau:
            nbrs = [w for w in graph.out_edges[x] if w not in visited]
        else:
            nbrs = graph.out_edges[x]
        d1x, d2x = get1(x), get2(x)
        w = -1
        if nbrs:
            w1, m1 = _argmin_neighbor(nbrs, get1)
            w2, m2 = _argmin_neighbor(nbrs, get2)
            improving1 = m1 < d1x
            improving2 = m2 < d2x
            if improving1 and improving2:
                if literal_m:
                    w = w2 if m2 < m1 else w1
                else:
                    w = w2 if count2(m2) < count1(m1) else w1
            elif improving1:
                w = w1
            elif improving2:
                w = w2
            elif plateau:
                w = _plateau_pick(nbrs, get1, d1x, visited)
                if w < 0:
                    w = _plateau_pick(nbrs, get2, d2x, visited)
        if w < 0:
            return _finish(source, target, path, phase, Failure.STUCK)
        _bump(phase, d1x)
        path.append(w)
        visited.add(w)
        x = w
    return _finish(source, target, path, phase, Failure.NONE)


def route(graph: NavGraph, assignment: Assignment, mode: RoutingMode,
          source: int, target: int) -> RouteOutcome:
    """Route from source to target under the given mode.

    Deterministic given (graph, mode, endpoints): all tie-breaking is by
    smallest vertex id.  Success requires reaching the target vertex
    identity; routing source == target succeeds with zero steps.
    """
    _check_endpoints(graph, assignment, source, target)
    if source == target:
        return RouteOutcome(source, target, [source], 0, True)
    plateau = resolved_plateau(mode, assignment)
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * graph.n
    if mode.kind == "greedy":
        return _greedy(graph, assignment, mode.space, plateau, max_steps,
                       source, target)
    if mode.kind == "half-greedy":
        return _half_greedy(graph, assignment, mode.space, max_steps,
                            source, target)
    return _combined(graph, assignment, plateau, max_steps, mode.literal_m,
                     source, target)
