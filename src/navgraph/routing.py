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

Greedy and half-greedy read either space one way: space s is
``Assignment.spaces[s - 1]``, and a vertex is read there at its position in
the tuple ``Assignment.positions[s - 1]``, which the assignment builds once.
Heads and positions are the spaces' id objects
(:attr:`~navgraph.spaces.Space.ids`); a route's source becomes space 1's,
so every vertex on a path is one, and greedy-1's ``pos[v]`` is ``v`` itself.
They read each distance through the space's scalar kernel toward the
target (:meth:`~navgraph.spaces.Space.distance_to`), so a route costs its
path length times the out-degree, at every size.  In space 1 of a cycle
they read the heads through the cycle's ordered search
(:attr:`~navgraph.spaces.Space.nearest`): out-lists ascend and a vertex's
position there is its id, so one bisection finds the head nearest the
target among the one or two that bracket it, and a route costs its path
length times the log of the out-degree.  Greedy routing scans every head
there only when none improves and plateau moves are on; a half-greedy
small step reads x's base neighbors in order and takes the first exactly
one closer that is a head.  Every other step
makes one kernel read per out-neighbor (combined routing one per space)
and nothing else: the distance of the vertex a route stands on comes from
the step that chose it.  A route returns those distances of the vertices
its steps left as :attr:`RouteOutcome.trace`, and its step count, success
and per-phase step counts are derived from the outcome's fields when read;
beyond its steps a route pays for its endpoint checks, its distance
kernels and one outcome.
Combined routing also counts balls around the target; it reads distances
and ball sizes through each space's per-target preparation
(:meth:`~navgraph.spaces.Space.prepare_target`).  On cycles, grids and
tree leaves that is the scalar kernel plus a closed-form count, so the
route cost follows the path there too; a point cloud computes the
target's distance array once per route, reads its distances from it and
counts a ball by comparing the array with the radius.

Plateau moves (equal-distance steps to vertices not already on the path)
are allowed when enabled; they default on for combined routing and for
greedy routing in a space whose kind says so
(:attr:`~navgraph.spaces.Space.plateau_default`, tree leaves, where huge
equal-distance shells otherwise strand most routes), and off elsewhere.  :func:`route` is the one entry point; a
:class:`RoutingMode` selects the algorithm.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass, field
from enum import Enum

from .construction import Assignment, NavGraph

__all__ = [
    "Failure",
    "RoutingMode",
    "RouteOutcome",
    "PHASE_AT_ZERO",
    "route",
    "MODE_LABELS",
]

# the mode table: each label's (kind, space, literal_m); combined routing
# reads both spaces and counts its phases in space 1
_MODES = {
    "greedy-1": ("greedy", 1, False),
    "greedy-2": ("greedy", 2, False),
    "half-greedy-1": ("half-greedy", 1, False),
    "half-greedy-2": ("half-greedy", 2, False),
    "combined": ("combined", 1, False),
    "combined-literal-m": ("combined", 1, True),
}
_ALIASES = {"greedy": "greedy-1", "half-greedy": "half-greedy-1"}
MODE_LABELS = tuple(_MODES)


class Failure(str, Enum):
    NONE = "none"
    STUCK = "stuck"
    STEP_LIMIT = "step-limit"


@dataclass(frozen=True)
class RoutingMode:
    """Algorithm selector, named by its label: one of :data:`MODE_LABELS`,
    or ``greedy`` or ``half-greedy`` for the space-1 mode, in any case and
    with surrounding whitespace.  The label is stored normalized, and
    ``kind``, ``space`` and ``literal_m`` are read from its row of the mode
    table; they cannot be passed in.

    ``plateau=None`` resolves at routing time: on for combined routing and,
    for greedy routing, the routed space's ``plateau_default``; half-greedy
    routing makes no plateau moves and refuses an explicit ``plateau``.
    ``max_steps=None`` resolves to 10*n, a termination backstop reported as
    a failure rather than silently truncated.  ``literal_m`` (the
    ``combined-literal-m`` mode) switches combined routing to comparing
    raw best distances instead of ball counts (for side-by-side study; the
    ball-count rule is the default).
    """

    label: str
    _: KW_ONLY
    plateau: bool | None = None
    max_steps: int | None = None
    kind: str = field(init=False, repr=False, compare=False)
    space: int = field(init=False, repr=False, compare=False)
    literal_m: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        label = self.label.strip().lower()
        label = _ALIASES.get(label, label)
        if label not in _MODES:
            raise ValueError(
                f"unknown routing mode {label!r}; expected one of {MODE_LABELS}")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        kind, space, literal_m = _MODES[label]
        if self.plateau is not None and kind == "half-greedy":
            raise ValueError("plateau applies to greedy and combined routing only")
        for name, value in (("label", label), ("kind", kind), ("space", space),
                            ("literal_m", literal_m)):
            object.__setattr__(self, name, value)

    @classmethod
    def parse(cls, label: str) -> "RoutingMode":
        return cls(label)


@dataclass(slots=True)
class RouteOutcome:
    """Result of one route attempt.

    ``trace[i]`` is the distance to the target of ``path[i]``, the vertex
    step i left, in the algorithm's primary space (space 1 for combined
    routing).  ``steps``, ``success`` and ``phase_steps`` are derived from
    the stored fields each time they are read.

    ``phase_steps`` maps phase index i to the number of steps taken from
    vertices whose distance d to the target satisfied 2^(i-1) < d <= 2^i;
    it always sums to ``steps``.  Steps taken from a vertex at distance 0
    that is not the target (it coincides with the target in a point cloud)
    are counted under :data:`PHASE_AT_ZERO`, ``-math.inf``, which sorts
    below every phase index, as the limit of the phase of d for d -> 0.
    """

    source: int
    target: int
    path: list[int]
    trace: list[int | float]
    failure: Failure = Failure.NONE

    @property
    def steps(self) -> int:
        return len(self.trace)

    @property
    def success(self) -> bool:
        return self.path[-1] == self.target and self.failure is Failure.NONE

    @property
    def phase_steps(self) -> dict[int | float, int]:
        phase: dict[int | float, int] = {}
        for i in map(_phase, self.trace):
            phase[i] = phase.get(i, 0) + 1
        return phase


PHASE_AT_ZERO = -math.inf


def _phase(d) -> int | float:
    """The phase of a distance d > 0, the smallest integer i with
    d <= 2^i (1 is in phase 0), and PHASE_AT_ZERO at 0.  A d that is not
    an int is read exactly as a float d = m * 2^e with 1/2 <= m < 1: phase
    e, or e - 1 when d is the power of two 2^(e - 1)."""
    if type(d) is int:
        return (d - 1).bit_length() if d else PHASE_AT_ZERO
    m, e = math.frexp(d)
    if not m:
        return PHASE_AT_ZERO
    return e - 1 if m == 0.5 else e


# ---------------------------------------------------------------------------
# algorithms
#
# Each router carries the distance of the vertex it stands on from the step
# that chose it, and reads each out-neighbor's distance once per step; it
# appends that distance to ``trace`` as it leaves the vertex.  The minimum
# over a step's neighbors is the first strict one in list order, which is
# the smallest id on ties since out-neighbor lists ascend.  In space 1 of a
# kind with an ordered search (:attr:`~navgraph.spaces.Space.nearest`),
# where a head's position is its id, the search finds that minimum and
# reads only the heads it needs.


def _greedy(graph, a, s, plateau, max_steps, source, target):
    space, pos = a.spaces[s - 1], a.positions[s - 1]
    if plateau is None:
        plateau = space.plateau_default
    y = pos[target]
    to = space.distance_to(y)
    nearest = space.nearest if s == 1 else None
    scan = plateau or nearest is None
    out = graph.out_edges
    path, trace = [source], []
    visited = {source} if plateau else None
    x, dx = source, to(pos[source])
    while x != target:
        if len(trace) >= max_steps:
            return RouteOutcome(source, target, path, trace, Failure.STEP_LIMIT)
        heads = out[x]
        w = -1
        if nearest and heads:
            w, dw = nearest(heads, y, to)
            if not dw < dx:
                w = -1
        if w < 0 and scan:
            # the closest neighbor if it improves, else the first unvisited
            # one level with x; every visited vertex is at least as far as
            # x, so only a plateau move could revisit one
            w, dw, level = -1, dx, -1
            for v in heads:
                dv = to(pos[v])
                if dv < dw:
                    w, dw = v, dv
                elif plateau and dv == dx and level < 0 and v not in visited:
                    level = v
            if w < 0:
                w = level
        if w < 0:
            return RouteOutcome(source, target, path, trace, Failure.STUCK)
        trace.append(dx)
        path.append(w)
        if plateau:
            visited.add(w)
        x, dx = w, dw
    return RouteOutcome(source, target, path, trace)


def _half_greedy(graph, a, s, max_steps, source, target):
    space, pos = a.spaces[s - 1], a.positions[s - 1]
    if not space.is_graph_kind:
        raise ValueError(
            "half-greedy routing needs a graph-kind space (no base neighbors "
            f"on {space.kind})")
    y = pos[target]
    to = space.distance_to(y)
    nearest = space.nearest if s == 1 else None
    base_of = space.base_neighbors
    out = graph.out_edges
    path, trace = [source], []
    x, dx = source, to(pos[source])
    while x != target:
        if len(trace) >= max_steps:
            return RouteOutcome(source, target, path, trace, Failure.STEP_LIMIT)
        heads = out[x]
        if nearest:
            # the closest neighbor; a small step reads x's base neighbors
            w, dw = nearest(heads, y, to) if heads else (-1, dx)
            one_closer = None
        else:
            # the closest neighbor, and the neighbors exactly one closer
            w, dw, one_closer = -1, dx, []
            for v in heads:
                dv = to(pos[v])
                if dv < dw:
                    w, dw = v, dv
                if dv == dx - 1:
                    one_closer.append(v)
        # very big step to the closest neighbor if dx > 2 d(w); otherwise a
        # small step to the smallest-id out-neighbor exactly one closer
        # whose position is a base neighbor of x's (thinning keeps only
        # space-1 base edges)
        if not dx > 2 * dw:
            dw = dx - 1
            base = base_of(pos[x])
            if one_closer is None:
                w = -1
                for v in base:
                    if to(v) == dw and v in heads:
                        w = v
                        break
            else:
                w = next((v for v in one_closer if pos[v] in base), -1)
            if w < 0:
                return RouteOutcome(source, target, path, trace, Failure.STUCK)
        trace.append(dx)
        path.append(w)
        x, dx = w, dw
    return RouteOutcome(source, target, path, trace)


def _combined(graph, a, plateau, max_steps, literal_m, source, target):
    # space 1 is read at each vertex's id, which is its position there
    pos = a.positions[1]
    to1, count1 = a.space1.prepare_target(target)
    to2, count2 = a.space2.prepare_target(pos[target])
    out = graph.out_edges
    path, trace = [source], []
    visited = {source}
    x, d1x, d2x = source, to1(source), to2(pos[source])
    while x != target:
        if len(trace) >= max_steps:
            return RouteOutcome(source, target, path, trace, Failure.STEP_LIMIT)
        # one pass: the first strict minimum in each space, and the other
        # space's distance there
        w1 = w2 = -1
        for v in out[x]:
            if plateau and v in visited:
                continue
            e1, e2 = to1(v), to2(pos[v])
            if w1 < 0 or e1 < m1:
                w1, m1, o1 = v, e1, e2
            if w2 < 0 or e2 < m2:
                w2, m2, o2 = v, e2, e1
        if w1 < 0:
            return RouteOutcome(source, target, path, trace, Failure.STUCK)
        improving1, improving2 = m1 < d1x, m2 < d2x
        if improving1 and improving2:
            take2 = m2 < m1 if literal_m else count2(m2) < count1(m1)
        elif improving1 or improving2:
            take2 = improving2
        elif plateau and (m1 == d1x or m2 == d2x):
            # a plateau move, to the first neighbor level with x in space 1,
            # else in space 2: neither minimum improves, so the first
            # neighbor level with x is the one that attains it
            take2 = m1 != d1x
        else:
            return RouteOutcome(source, target, path, trace, Failure.STUCK)
        trace.append(d1x)
        if take2:
            x, d1x, d2x = w2, o2, m2
        else:
            x, d1x, d2x = w1, m1, o1
        path.append(x)
        visited.add(x)
    return RouteOutcome(source, target, path, trace)


def route(graph: NavGraph, assignment: Assignment, mode: RoutingMode,
          source: int, target: int) -> RouteOutcome:
    """Route from source to target under the given mode.

    Deterministic given (graph, mode, endpoints): all tie-breaking is by
    smallest vertex id.  Success requires reaching the target vertex
    identity; routing source == target succeeds with zero steps.
    """
    positions = assignment.positions[0]
    n = len(positions)
    if graph.n != n:
        raise ValueError("graph and assignment sizes differ")
    if not 0 <= source < n > target >= 0:
        v = target if 0 <= source < n else source
        raise ValueError(f"vertex id {v} out of range [0, {n})")
    # a path starts at space 1's id object, as the heads it steps to are
    source = positions[source]
    if source == target:
        return RouteOutcome(source, target, [source], [])
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * n
    if mode.kind == "half-greedy":
        return _half_greedy(graph, assignment, mode.space, max_steps,
                            source, target)
    if mode.kind == "greedy":
        return _greedy(graph, assignment, mode.space, mode.plateau, max_steps,
                       source, target)
    plateau = True if mode.plateau is None else mode.plateau
    return _combined(graph, assignment, plateau, max_steps, mode.literal_m,
                     source, target)
