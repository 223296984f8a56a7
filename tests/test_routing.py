import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import routing as rt
from navgraph.construction import (Assignment, NavGraph, Seed,
                                   build_double_clustering, build_kleinberg,
                                   read_edge_list, thin_edges,
                                   write_edge_list)
from navgraph.harness import build_model
from navgraph.routing import (MODE_LABELS, PHASE_AT_ZERO, Failure,
                              RouteOutcome, RoutingMode, route)
from navgraph.spaces import (DirectedCycle, Euclidean, Grid, TreeLeaves,
                             UndirectedCycle)


def double_cycle(n, pi):
    s = DirectedCycle(n)
    return Assignment(s, DirectedCycle(n), np.asarray(pi))


def custom_graph(n, edges):
    out = [[] for _ in range(n)]
    for tail, head in edges:
        out[tail].append(head)
    return NavGraph(n, [sorted(h) for h in out])


def ring(n):
    """The base edges of an undirected n-cycle, n >= 3."""
    return [(x, (x + step) % n) for x in range(n) for step in (1, -1)]


def plateau_of(mode, a):
    """Whether a route under ``mode`` makes plateau moves: as the mode says,
    else always for combined routing and, for greedy routing, by the
    routed space's default."""
    if mode.plateau is not None:
        return mode.plateau
    return mode.kind == "combined" or a.spaces[mode.space - 1].plateau_default


# ---------------------------------------------------------------------------
# phase bookkeeping


def phase_by_definition(d):
    """The phase of a distance d >= 0 by its definition: the smallest
    integer i with d <= 2^i, found by stepping i over exact powers of two,
    and PHASE_AT_ZERO at 0."""
    if d == 0:
        return PHASE_AT_ZERO
    d, i = Fraction(np.asarray(d).item()), 0  # exact, for numpy scalars too
    while d > Fraction(2) ** i:
        i += 1
    while d <= Fraction(2) ** (i - 1):
        i -= 1
    return i


def test_phase_index_examples():
    # 4 < 5 <= 8 and 8 is in phase 3: the boundary is inclusive above
    # just above a power of two is the next phase, where log2 rounds down
    for d, i in ((1, 0), (5, 3), (8, 3), (2, 1), (0.3, -1), (1.0, 0),
                 (4.5, 3), (0, PHASE_AT_ZERO), (0.0, PHASE_AT_ZERO),
                 (16.000000000000004, 5), (2**-10 * (1 + 2**-52), -9),
                 (16.0, 4), (2.0**-10, -10)):
        assert phase_by_definition(d) == i
        assert rt._phase(d) == i


def test_phase_index_brackets_distance():
    # the routers' phase of integer and float distances, of numpy's scalar
    # types too, and of 0, against the definition
    rng = np.random.default_rng(0)
    distances = [*range(300), *rng.uniform(0.01, 50, 100), 0.0,
                 *np.arange(0, 70, dtype=np.int64),
                 *rng.uniform(0, 3, 20).astype(np.float32), 2.0**-30, 1e9]
    for d in distances:
        i = phase_by_definition(d)
        assert rt._phase(d) == i
        if d > 0:
            assert d <= 2.0**i
            assert d > 2.0 ** (i - 1)


def test_coincident_points_route_under_every_mode():
    # vertices 0 and 1 coincide in space 1: a step taken at space-1
    # distance 0 is counted under PHASE_AT_ZERO, never raised
    a = Assignment.identity(Euclidean([[0, 0], [0, 0], [1, 0]]),
                            Euclidean([[0, 0], [1, 1], [2, 2]]))
    g = build_double_clustering(a)
    edges = set(g.iter_edges())
    for label in ("greedy-1", "greedy-2", "combined", "combined-literal-m"):
        for plateau in (None, True, False):
            mode = RoutingMode(label, plateau=plateau)
            for s in range(3):
                for t in range(3):
                    out = route(g, a, mode, s, t)
                    assert out.steps == len(out.path) - 1
                    assert sum(out.phase_steps.values()) == out.steps
                    sorted(out.phase_steps)  # keys sort together, or this raises
                    assert all(step in edges for step in zip(out.path, out.path[1:]))
                    assert out.success == (out.path[-1] == t
                                           and out.failure is Failure.NONE)
    out = route(g, a, RoutingMode.parse("combined"), 0, 1)
    assert out.success and out.phase_steps == {rt.PHASE_AT_ZERO: 1}
    out = route(g, a, RoutingMode("greedy", plateau=True), 0, 1)
    assert out.success and out.phase_steps == {rt.PHASE_AT_ZERO: 1}
    with pytest.raises(ValueError, match="graph-kind"):
        route(g, a, RoutingMode("half-greedy"), 0, 1)


# ---------------------------------------------------------------------------
# greedy


def test_source_equals_target():
    a = double_cycle(4, [0, 2, 1, 3])
    g = build_double_clustering(a)
    for mode in ("greedy-1", "greedy-2", "half-greedy-1", "combined"):
        out = route(g, a, RoutingMode.parse(mode), 2, 2)
        assert out.success and out.steps == 0 and out.path == [2]
        assert out.phase_steps == {}


def test_greedy_reaches_adjacent_target_in_one_step():
    a = double_cycle(4, [0, 2, 1, 3])
    g = build_double_clustering(a)
    out = route(g, a, RoutingMode("greedy"), 0, 2)
    assert out.path == [0, 2]
    assert out.steps == 1
    assert out.success


def test_greedy_monotone_in_routing_distance():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(4, 40))
        a = double_cycle(n, rng.permutation(n))
        g = build_double_clustering(a)
        for _ in range(10):
            s, t = int(rng.integers(n)), int(rng.integers(n))
            if s == t:
                continue
            for space in (1, 2):
                out = route(g, a, RoutingMode(f"greedy-{space}"), s, t)
                assert out.success
                dist = target_distances(a, space, t)
                trace = [dist[v] for v in out.path]
                assert all(b < x for x, b in zip(trace, trace[1:]))


def test_phase_steps_sum_to_steps():
    rng = np.random.default_rng(4)
    grid, tree = Grid((4, 4)), TreeLeaves(2, 4)
    for trial in range(10):
        a = Assignment(grid, tree, rng.permutation(16))
        g = build_double_clustering(a)
        for mode in ("greedy-1", "greedy-2", "combined"):
            s, t = int(rng.integers(16)), int(rng.integers(16))
            out = route(g, a, RoutingMode.parse(mode), s, t)
            assert sum(out.phase_steps.values()) == out.steps
            assert out.steps == len(out.path) - 1


def test_outcome_is_slotted_and_derives_its_counts():
    # stuck after one step: 1 has no out-edge toward target 3
    a = Assignment.identity(UndirectedCycle(6))
    stuck = route(custom_graph(6, [(0, 1)]), a, RoutingMode("greedy"), 0, 3)
    assert stuck.failure is Failure.STUCK and stuck.path == [0, 1]
    assert stuck.trace == [3] and stuck.phase_steps == {2: 1}
    b = Assignment.identity(DirectedCycle(8))
    limited = route(build_double_clustering(b), b,
                    RoutingMode("greedy", max_steps=3), 0, 7)
    assert limited.failure is Failure.STEP_LIMIT
    for out in (stuck, limited):
        assert not hasattr(out, "__dict__")
        assert out.steps == len(out.path) - 1 == len(out.trace)
        assert not out.success
        with pytest.raises(AttributeError):
            out.steps = 0
    assert limited.steps == 3


def test_greedy_stuck_without_outgoing_improvement():
    a = Assignment.identity(UndirectedCycle(6))
    g = custom_graph(6, [(0, 5)])  # only a worsening edge toward target 2
    out = route(g, a, RoutingMode("greedy", plateau=False), 0, 2)
    assert not out.success
    assert out.failure is Failure.STUCK
    assert out.path == [0]


def test_step_limit_reported():
    a = Assignment.identity(DirectedCycle(8))
    g = build_double_clustering(a)
    out = route(g, a, RoutingMode("greedy", max_steps=3), 0, 7)
    assert not out.success
    assert out.failure is Failure.STEP_LIMIT
    assert out.steps == 3


def test_plateau_moves_rescue_tree_routing():
    # 0's only edge keeps the tree distance flat; footnote behavior takes it
    a = Assignment.identity(UndirectedCycle(4), TreeLeaves(2, 2))
    g = custom_graph(4, [(0, 1), (1, 3)])
    stuck = route(g, a, RoutingMode("greedy-2", plateau=False), 0, 3)
    assert stuck.failure is Failure.STUCK
    saved = route(g, a, RoutingMode("greedy-2", plateau=True), 0, 3)
    assert saved.success
    assert saved.path == [0, 1, 3]
    assert len(set(saved.path)) == len(saved.path)


def test_plateau_tie_in_a_cloud_is_exact():
    # 0 = (0, 2/3) and 2 = (1/3, 1/3) lie at one distance from 1 = (2/3, 1):
    # the plateau step 0 -> 2 is taken at every size, then 2 -> 1
    a = Assignment.identity(Euclidean([[0, 2 / 3], [2 / 3, 1], [1 / 3, 1 / 3]]))
    g = custom_graph(3, [(0, 2), (2, 1)])
    out = route(g, a, RoutingMode("greedy", plateau=True), 0, 1)
    assert out.success and out.path == [0, 2, 1]
    assert route(g, a, RoutingMode("greedy"), 0, 1).failure is Failure.STUCK


def test_plateau_paths_never_revisit():
    rng = np.random.default_rng(5)
    grid, tree = Grid((4, 8)), TreeLeaves(2, 5)
    for _ in range(8):
        a = Assignment(grid, tree, rng.permutation(32))
        g = build_double_clustering(a)
        for _ in range(10):
            s, t = int(rng.integers(32)), int(rng.integers(32))
            for label in ("greedy-2", "combined"):
                out = route(g, a, RoutingMode.parse(label), s, t)
                assert len(set(out.path)) == len(out.path)


# ---------------------------------------------------------------------------
# half-greedy


def test_half_greedy_takes_big_step_when_distance_more_than_halves():
    # d1(x, z) = 7 and a neighbor at 3: 7 > 6, so jump
    a = Assignment.identity(UndirectedCycle(15))
    g = custom_graph(15, [(0, 4)] + ring(15))
    out = route(g, a, RoutingMode("half-greedy"), 0, 7)
    assert out.path[1] == 4
    assert out.success


def test_half_greedy_strictness_forces_small_step():
    # d1(x, z) = 4 and best neighbor at 2: 4 > 4 is false, so walk the base
    a = Assignment.identity(UndirectedCycle(9))
    g = custom_graph(9, [(0, 2)] + ring(9))
    out = route(g, a, RoutingMode("half-greedy"), 0, 4)
    assert out.path[1] == 1
    assert out.success
    assert out.path == [0, 1, 2, 3, 4]


def test_half_greedy_steps_halve_or_decrement():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(8, 64))
        s = UndirectedCycle(n)
        a = Assignment(s, UndirectedCycle(n), rng.permutation(n))
        g = build_double_clustering(a)
        for _ in range(10):
            src, tgt = int(rng.integers(n)), int(rng.integers(n))
            if src == tgt:
                continue
            out = route(g, a, RoutingMode("half-greedy"), src, tgt)
            assert out.success
            to_tgt = a.space1.distance_to(tgt)
            trace = [to_tgt(v) for v in out.path]
            for before, after in zip(trace, trace[1:]):
                assert before > 2 * after or after == before - 1
            assert out.steps <= 2 * to_tgt(src)


def test_half_greedy_in_second_space():
    rng = np.random.default_rng(7)
    n = 32
    a = Assignment(UndirectedCycle(n), UndirectedCycle(n), rng.permutation(n))
    g = build_double_clustering(a)
    for _ in range(20):
        src, tgt = int(rng.integers(n)), int(rng.integers(n))
        if src == tgt:
            continue
        out = route(g, a, RoutingMode("half-greedy-2"), src, tgt)
        assert out.success
        to_tgt = a.space2.distance_to(a.positions[1][tgt])
        trace = [to_tgt(a.positions[1][v]) for v in out.path]
        for before, after in zip(trace, trace[1:]):
            assert before > 2 * after or after == before - 1


def test_half_greedy_2_stays_on_a_thinned_graph():
    # thinning keeps the space-1 base edges only, so a space-2 small step
    # must also be an out-edge
    a, graph = build_model("two-undirected-cycles", {}, 256, Seed(1))
    thinned = thin_edges(graph, a.space1, Seed(1))
    edges = set(thinned.iter_edges())
    rng = np.random.default_rng(1)
    outcomes = []
    for _ in range(100):
        s, t = (int(v) for v in rng.choice(256, size=2, replace=False))
        out = route(thinned, a, RoutingMode("half-greedy-2"), s, t)
        assert all(step in edges for step in zip(out.path, out.path[1:]))
        assert out.success == (out.failure is Failure.NONE)
        outcomes.append(out.failure)
    assert Failure.NONE in outcomes and Failure.STUCK in outcomes


def test_half_greedy_small_step_needs_an_out_edge():
    # 1 is the base neighbor one closer to 3, but 0 has no edge to it
    a = Assignment.identity(UndirectedCycle(8))
    assert route(custom_graph(8, [(0, 7)]), a, RoutingMode("half-greedy"),
                 0, 3).failure is Failure.STUCK
    out = route(custom_graph(8, [(0, 1), (0, 7)]), a, RoutingMode("half-greedy"), 0, 3)
    assert out.path[:2] == [0, 1]


def test_half_greedy_needs_graph_kind_space():
    pts = np.random.default_rng(0).random((8, 2))
    a = Assignment.identity(Euclidean(pts), Euclidean(pts))
    g = custom_graph(8, [(0, 1)])
    with pytest.raises(ValueError):
        route(g, a, RoutingMode("half-greedy"), 0, 3)


# ---------------------------------------------------------------------------
# combined


def test_combined_ball_count_tie_prefers_first_space():
    # equal best distances in equal-sized spaces: n1 == n2, so w1 wins
    a = Assignment(UndirectedCycle(8), UndirectedCycle(8),
                   np.array([5, 3, 4, 1, 0, 6, 7, 2]))
    g = custom_graph(8, [(0, 2), (0, 7), (2, 4), (7, 4)])
    out = route(g, a, RoutingMode("combined"), 0, 4)
    assert out.path[1] == 2


def test_combined_ball_rule_differs_from_literal_distance_rule():
    # equal best distances but the tree ball is smaller: the ball rule takes
    # the second-space step, the literal distance comparison stays in space 1
    a = Assignment(UndirectedCycle(8), TreeLeaves(2, 3),
                   np.array([5, 1, 4, 3, 0, 6, 7, 2]))
    g = custom_graph(8, [(0, 2), (0, 7), (2, 4), (7, 4)])
    by_balls = route(g, a, RoutingMode("combined"), 0, 4)
    literal = route(g, a, RoutingMode("combined-literal-m"), 0, 4)
    assert by_balls.path[1] == 7
    assert literal.path[1] == 2


def test_combined_jumps_to_target_when_adjacent():
    rng = np.random.default_rng(8)
    n = 32
    a = Assignment(UndirectedCycle(n), UndirectedCycle(n), rng.permutation(n))
    g = build_double_clustering(a)
    for x in range(n):
        for t in g.out_edges[x]:
            out = route(g, a, RoutingMode("combined"), x, t)
            assert out.path == [x, t]


def test_combined_succeeds_on_double_cycles():
    rng = np.random.default_rng(9)
    n = 64
    a = Assignment(UndirectedCycle(n), UndirectedCycle(n), rng.permutation(n))
    g = build_double_clustering(a)
    for _ in range(30):
        s, t = int(rng.integers(n)), int(rng.integers(n))
        out = route(g, a, RoutingMode("combined"), s, t)
        assert out.success


# ---------------------------------------------------------------------------
# modes and determinism


# each label's row of the mode table, written out
MODE_ROWS = {
    "greedy-1": ("greedy", 1, False),
    "greedy-2": ("greedy", 2, False),
    "half-greedy-1": ("half-greedy", 1, False),
    "half-greedy-2": ("half-greedy", 2, False),
    "combined": ("combined", 1, False),
    "combined-literal-m": ("combined", 1, True),
}


def test_mode_parse_and_label_round_trip():
    assert MODE_LABELS == tuple(MODE_ROWS)
    for label, row in MODE_ROWS.items():
        mode = RoutingMode.parse(label)
        assert (mode.label, mode.kind, mode.space, mode.literal_m) == (label, *row)
        assert (mode.plateau, mode.max_steps) == (None, None)
        assert mode == RoutingMode(label) == RoutingMode(mode.label)
        assert hash(mode) == hash(RoutingMode(label))
    # half-greedy routing makes no plateau moves, so the flag would do nothing
    for label in ("half-greedy-1", "half-greedy-2", "half-greedy"):
        for plateau in (True, False):
            with pytest.raises(ValueError, match="plateau applies to greedy "
                                                 "and combined routing only"):
                RoutingMode(label, plateau=plateau)


@pytest.mark.parametrize("alias,label", [
    ("greedy", "greedy-1"), ("Greedy", "greedy-1"), (" GREEDY-2 ", "greedy-2"),
    ("half-greedy", "half-greedy-1"), ("\tHalf-Greedy\n", "half-greedy-1"),
    ("Combined-Literal-M", "combined-literal-m"), ("  COMBINED\t", "combined"),
])
def test_mode_aliases_case_and_whitespace_normalize(alias, label):
    assert RoutingMode(alias) == RoutingMode.parse(alias) == RoutingMode(label)
    assert RoutingMode(alias).label == label
    assert RoutingMode(alias, max_steps=4) == RoutingMode(label, max_steps=4)


@pytest.mark.parametrize("label", ["quantum", "", "greedy-3", "half-greedy-0",
                                   "combined-1", "greedy 1", "literal-m"])
def test_unknown_mode_label_is_refused(label):
    with pytest.raises(ValueError, match="unknown routing mode"):
        RoutingMode(label)
    with pytest.raises(ValueError, match="unknown routing mode"):
        RoutingMode.parse(label)


def test_mode_fields_come_from_the_table():
    # only the label, and keyword-only plateau and max_steps, are settable
    with pytest.raises(TypeError):
        RoutingMode("combined", space=2)
    with pytest.raises(TypeError):
        RoutingMode("greedy-1", literal_m=True)
    with pytest.raises(TypeError):
        RoutingMode("greedy-1", kind="combined")
    with pytest.raises(TypeError):
        RoutingMode("greedy-1", True)
    with pytest.raises(TypeError):
        RoutingMode("greedy-1", None, 5)
    assert [f.name for f in dataclasses.fields(RoutingMode) if f.init] == [
        "label", "plateau", "max_steps"]
    mode = RoutingMode("greedy-2", plateau=True, max_steps=7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        mode.space = 1
    with pytest.raises(ValueError, match="max_steps must be >= 1"):
        RoutingMode("combined", max_steps=0)


def test_replacing_plateau_keeps_the_label():
    for label in ("greedy-2", "combined-literal-m"):
        mode = dataclasses.replace(RoutingMode(label), plateau=False)
        assert (mode.label, mode.plateau) == (label, False)
        assert (mode.kind, mode.space, mode.literal_m) == MODE_ROWS[label]
        assert mode == RoutingMode(label, plateau=False)
    mode = dataclasses.replace(RoutingMode("half-greedy-2"), max_steps=3)
    assert (mode.label, mode.space, mode.max_steps) == ("half-greedy-2", 2, 3)
    with pytest.raises(ValueError, match="plateau applies to greedy "
                                         "and combined routing only"):
        dataclasses.replace(mode, plateau=True)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(mode, space=1)


def test_plateau_defaults():
    # toward 0, vertex 2's one out-neighbor 6 is level with it in cycle
    # distance, and vertex 5's one out-neighbor 6 in tree distance: only a
    # plateau move leaves either
    graph = custom_graph(8, [(2, 6), (5, 6), (6, 1), (6, 7), (1, 0), (7, 0)])
    tree_a = Assignment.identity(UndirectedCycle(8), TreeLeaves(2, 3))
    cyc_a = Assignment.identity(UndirectedCycle(8))
    assert TreeLeaves.plateau_default
    assert not any(kind.plateau_default for kind in (
        DirectedCycle, UndirectedCycle, Grid, Euclidean))

    def routes(a, label, plateau=None):
        mode = RoutingMode(label, plateau=plateau)
        return [route(graph, a, mode, s, 0) for s in range(8)]
    for a, label, default in ((cyc_a, "combined", True),
                              (tree_a, "greedy-2", True),
                              (tree_a, "greedy-1", False),
                              (cyc_a, "greedy-1", False)):
        assert routes(a, label) == routes(a, label, default)
        assert routes(a, label) != routes(a, label, not default)
    # an explicit plateau overrides the space's default
    assert routes(cyc_a, "greedy-1", True)[2].path == [2, 6, 1, 0]


def test_routing_is_deterministic():
    rng = np.random.default_rng(10)
    n = 48
    a = Assignment(UndirectedCycle(n), UndirectedCycle(n), rng.permutation(n))
    g = build_double_clustering(a)
    for label in ("greedy-1", "greedy-2", "half-greedy-1", "combined"):
        mode = RoutingMode.parse(label)
        first = route(g, a, mode, 3, 40)
        second = route(g, a, mode, 3, 40)
        assert first == second


def test_endpoint_validation():
    a = Assignment.identity(DirectedCycle(4))
    g = build_double_clustering(a)
    with pytest.raises(ValueError, match=r"^vertex id 4 out of range \[0, 4\)$"):
        route(g, a, RoutingMode("greedy"), 0, 4)
    with pytest.raises(ValueError, match=r"^vertex id -1 out of range \[0, 4\)$"):
        route(g, a, RoutingMode("greedy"), -1, 2)
    # the source is named first when both are out of range
    with pytest.raises(ValueError, match=r"^vertex id 5 out of range"):
        route(g, a, RoutingMode("half-greedy"), 5, -1)
    # a graph routes only with an assignment of its own size
    with pytest.raises(ValueError, match="^graph and assignment sizes differ$"):
        route(g, Assignment.identity(DirectedCycle(5)), RoutingMode("greedy"), 0, 2)


# ---------------------------------------------------------------------------
# route invariants on random instances of every family


@st.composite
def routing_instances(draw):
    """Random small assignment of one family, tie-heavy ones included, and
    a graph over it: double clustering, thinned or not, or Kleinberg's
    lattice augmentation."""
    family = draw(st.sampled_from(("directed-cycles", "undirected-cycles",
                                   "toric-grids", "clipped-grids",
                                   "tree-leaves", "snapped-clouds",
                                   "kleinberg")))
    seed = Seed(draw(st.integers(0, 2**16)))
    if family == "kleinberg":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 6))
        space = draw(st.sampled_from((
            Grid((rows, cols)), Grid((rows, cols), toric=True),
            UndirectedCycle(rows * cols), DirectedCycle(rows * cols))))
        graph = build_kleinberg(space, draw(st.sampled_from((0.0, 1.0, 2.0))),
                                draw(st.integers(1, 2)), seed)
        return Assignment.identity(space), graph
    if family == "directed-cycles":
        n = draw(st.integers(2, 24))
        s1, s2 = DirectedCycle(n), DirectedCycle(n)
    elif family == "undirected-cycles":
        n = draw(st.integers(2, 24))
        s1, s2 = UndirectedCycle(n), UndirectedCycle(n)
    elif family == "toric-grids":  # even sides: antipodal ties on each axis
        rows, cols = 2 * draw(st.integers(1, 3)), 2 * draw(st.integers(1, 4))
        s1, s2 = Grid((rows, cols), toric=True), Grid((cols, rows), toric=True)
    elif family == "clipped-grids":
        rows, cols = draw(st.integers(1, 4)), draw(st.integers(2, 6))
        s1, s2 = Grid((rows, cols)), UndirectedCycle(rows * cols)
    elif family == "tree-leaves":
        branching = draw(st.integers(2, 3))
        tree = TreeLeaves(branching, draw(st.integers(1, 4 if branching == 2 else 2)))
        other = draw(st.sampled_from((UndirectedCycle(tree.n), DirectedCycle(tree.n))))
        s1, s2 = (tree, other) if draw(st.booleans()) else (other, tree)
    else:  # coordinates on a coarse lattice, so points coincide
        n, cells = draw(st.integers(2, 16)), draw(st.integers(1, 3))
        coords = st.lists(st.lists(st.integers(0, cells), min_size=2, max_size=2),
                          min_size=n, max_size=n)
        s1 = Euclidean(np.array(draw(coords)) / cells)
        s2 = Euclidean(np.array(draw(coords)) / cells)
    pi = draw(st.permutations(range(s1.n)))
    a = Assignment(s1, s2, np.array(pi))
    graph = build_double_clustering(a)
    if a.n >= 3 and draw(st.booleans()):
        graph = thin_edges(graph, a.space1, seed)
    return a, graph


def admitted_modes(a):
    """Every routing mode the assignment's spaces admit."""
    modes = [RoutingMode.parse(label) for label in MODE_LABELS]
    return [m for m in modes if m.kind != "half-greedy"
            or a.spaces[m.space - 1].is_graph_kind]


def check_route_invariants(graph, a, mode, s, t, out):
    edges = set(graph.iter_edges())
    assert isinstance(out, RouteOutcome)
    assert (out.source, out.target, out.path[0]) == (s, t, s)
    assert all(step in edges for step in zip(out.path, out.path[1:]))
    assert out.steps == len(out.path) - 1
    assert sum(out.phase_steps.values()) == out.steps
    assert out.success == (out.path[-1] == t) == (out.failure is Failure.NONE)
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * a.n
    assert out.steps <= max_steps
    if out.failure is Failure.STEP_LIMIT:
        assert out.steps == max_steps
    if mode.kind == "greedy" and not plateau_of(mode, a):
        # distances from the array kernels, not the router's scalar one
        dist = target_distances(a, mode.space, t)
        trace = [dist[v] for v in out.path]
        assert all(after < before for before, after in zip(trace, trace[1:]))


@given(routing_instances(), st.data())
@settings(max_examples=300, deadline=None)
def test_routers_keep_invariants_on_random_instances(instance, data):
    a, graph = instance
    pairs = data.draw(st.lists(st.tuples(st.integers(0, a.n - 1),
                                         st.integers(0, a.n - 1)),
                               min_size=1, max_size=3))
    max_steps = data.draw(st.none() | st.integers(1, 6))
    for base in admitted_modes(a):
        # half-greedy routing refuses an explicit plateau
        plateaus = (None,) if base.kind == "half-greedy" else (None, True, False)
        for plateau in plateaus:
            mode = dataclasses.replace(base, plateau=plateau, max_steps=max_steps)
            for s, t in pairs:
                out = route(graph, a, mode, s, t)
                check_route_invariants(graph, a, mode, s, t, out)


@pytest.mark.parametrize("model", ["two-undirected-cycles", "grid-tree",
                                   "continuum"])
def test_routing_leaves_the_assignment_as_built(model):
    # routers read the positions the assignment built once, in either
    # space, and store nothing on it
    a, graph = build_model(model, {}, 64, Seed(3))
    built = dict(vars(a))
    for mode in admitted_modes(a):
        for s, t in ((0, 63), (17, 5), (40, 41)):
            route(graph, a, mode, s, t)
    assert vars(a).keys() == built.keys()
    assert all(vars(a)[key] is value for key, value in built.items())
    assert a.positions == (tuple(range(a.n)), tuple(a.pi.tolist()))


def target_distances(a, space, target):
    """Every vertex's distance toward the target in the selected space,
    from the array kernels."""
    if space == 1:
        return a.space1.distances_between(np.arange(a.n), target)
    return a.space2.distances_between(a.pi, int(a.pi[target]))


def oracle_outcome(source, target, path, d, failure):
    """The outcome of an oracle's path: each step's trace entry is the
    primary distance d of the vertex it left."""
    return RouteOutcome(source, target, path, [d[v] for v in path[:-1]], failure)


def phases_by_definition(path, d):
    """Steps per phase: each step counted under the phase of the primary
    distance d of the vertex it left."""
    phase = {}
    for v in path[:-1]:
        key = phase_by_definition(d[v])
        phase[key] = phase.get(key, 0) + 1
    return phase


def greedy_oracle(graph, a, mode, source, target):
    """Greedy routing by its definition, over whole arrays: the closest
    out-neighbor if it is strictly closer, smallest id on ties; otherwise,
    with plateau moves, the smallest-id unvisited out-neighbor at x's own
    distance."""
    if source == target:
        return RouteOutcome(source, target, [source], [])
    plateau = plateau_of(mode, a)
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * a.n
    d = target_distances(a, mode.space, target)
    path, failure = [source], Failure.NONE
    x = source
    while x != target:
        if len(path) - 1 >= max_steps:
            failure = Failure.STEP_LIMIT
            break
        nbrs = graph.out_edges[x]
        closer = [v for v in nbrs if d[v] < d[x]]
        level = [v for v in nbrs if d[v] == d[x] and v not in path]
        if closer:
            x = min(closer, key=lambda v: (d[v], v))
        elif plateau and level:
            x = min(level)
        else:
            failure = Failure.STUCK
            break
        path.append(x)
    return oracle_outcome(source, target, path, d, failure)


def half_greedy_oracle(graph, a, mode, source, target):
    """Half-greedy routing by its definition, over whole arrays: the
    closest out-neighbor if it is less than half as far, smallest id on
    ties; otherwise the smallest-id out-neighbor that is a base neighbor
    (at distance 1 in the routing space) and exactly one closer."""
    if source == target:
        return RouteOutcome(source, target, [source], [])
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * a.n
    d = target_distances(a, mode.space, target)
    path, failure = [source], Failure.NONE
    x = source
    while x != target:
        if len(path) - 1 >= max_steps:
            failure = Failure.STEP_LIMIT
            break
        if mode.space == 1:
            step = a.space1.distances_from(x)
        else:
            step = a.space2.distances_from(int(a.pi[x]))[a.pi]
        nbrs = graph.out_edges[x]
        best = min(nbrs, key=lambda v: (d[v], v), default=None)
        small = [v for v in nbrs if step[v] == 1 and d[v] == d[x] - 1]
        if best is not None and d[x] > 2 * d[best]:
            x = best
        elif small:
            x = min(small)
        else:
            failure = Failure.STUCK
            break
        path.append(x)
    return oracle_outcome(source, target, path, d, failure)


@given(routing_instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_greedy_and_half_greedy_match_array_oracles(instance, data):
    a, graph = instance
    pairs = data.draw(st.lists(st.tuples(st.integers(0, a.n - 1),
                                         st.integers(0, a.n - 1)),
                               min_size=1, max_size=3))
    max_steps = data.draw(st.none() | st.integers(1, 6))
    for base in admitted_modes(a):
        if base.kind == "greedy":
            oracle, plateaus = greedy_oracle, (None, True, False)
        elif base.kind == "half-greedy":
            oracle, plateaus = half_greedy_oracle, (None,)
        else:
            continue
        for plateau in plateaus:
            mode = dataclasses.replace(base, plateau=plateau, max_steps=max_steps)
            for s, t in pairs:
                out = route(graph, a, mode, s, t)
                assert out == oracle(graph, a, mode, s, t)
                assert out.phase_steps == phases_by_definition(
                    out.path, target_distances(a, mode.space, t))


def combined_oracle(graph, a, mode, source, target):
    """Combined routing by its quantified definition, over whole arrays:
    distances toward the target in each space, and ball sizes counted on
    the sorted distance multiset around the target."""
    if source == target:
        return RouteOutcome(source, target, [source], [])
    plateau = plateau_of(mode, a)
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * a.n
    d1, d2 = target_distances(a, 1, target), target_distances(a, 2, target)
    sorted1 = np.sort(a.space1.distances_from(target))
    sorted2 = np.sort(a.space2.distances_from(int(a.pi[target])))
    path, failure = [source], Failure.NONE
    x = source
    while x != target:
        if len(path) - 1 >= max_steps:
            failure = Failure.STEP_LIMIT
            break
        nbrs = [w for w in graph.out_edges[x] if not (plateau and w in path)]
        w = -1
        if nbrs:
            m1, w1 = min((d1[v], v) for v in nbrs)
            m2, w2 = min((d2[v], v) for v in nbrs)
            if m1 < d1[x] and m2 < d2[x]:
                if mode.literal_m:
                    w = w2 if m2 < m1 else w1
                else:
                    n1 = np.searchsorted(sorted1, m1, side="right")
                    n2 = np.searchsorted(sorted2, m2, side="right")
                    w = w2 if n2 < n1 else w1
            elif m1 < d1[x]:
                w = w1
            elif m2 < d2[x]:
                w = w2
            elif plateau:
                level = ([v for v in nbrs if d1[v] == d1[x]]
                         + [v for v in nbrs if d2[v] == d2[x]])
                w = level[0] if level else -1
        if w < 0:
            failure = Failure.STUCK
            break
        path.append(w)
        x = w
    return oracle_outcome(source, target, path, d1, failure)


@given(routing_instances(), st.data())
@settings(max_examples=200, deadline=None)
def test_combined_matches_array_oracle(instance, data):
    a, graph = instance
    pairs = data.draw(st.lists(st.tuples(st.integers(0, a.n - 1),
                                         st.integers(0, a.n - 1)),
                               min_size=1, max_size=3))
    max_steps = data.draw(st.none() | st.integers(1, 6))
    for literal_m in (False, True):
        for plateau in (None, True, False):
            mode = RoutingMode("combined-literal-m" if literal_m else "combined",
                               plateau=plateau, max_steps=max_steps)
            for s, t in pairs:
                out = route(graph, a, mode, s, t)
                assert out == combined_oracle(graph, a, mode, s, t)
                assert out.phase_steps == phases_by_definition(
                    out.path, target_distances(a, 1, t))


# ---------------------------------------------------------------------------
# greedy and half-greedy in space 1 of a cycle: the ordered search against
# the scan over every out-neighbor that the routers ran before it


def scan_greedy(graph, a, mode, source, target):
    """Greedy routing that reads every out-neighbor at every step."""
    if source == target:
        return RouteOutcome(source, target, [source], [])
    plateau = plateau_of(mode, a)
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * a.n
    pos = a.positions[mode.space - 1]
    to = a.spaces[mode.space - 1].distance_to(pos[target])
    path, trace = [source], []
    visited = {source}
    x, dx = source, to(pos[source])
    while x != target:
        if len(trace) >= max_steps:
            return RouteOutcome(source, target, path, trace, Failure.STEP_LIMIT)
        w, dw, level = -1, dx, -1
        for v in graph.out_edges[x]:
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
        visited.add(w)
        x, dx = w, dw
    return RouteOutcome(source, target, path, trace)


def scan_half_greedy(graph, a, mode, source, target):
    """Half-greedy routing that reads every out-neighbor at every step."""
    if source == target:
        return RouteOutcome(source, target, [source], [])
    max_steps = mode.max_steps if mode.max_steps is not None else 10 * a.n
    space, pos = a.spaces[mode.space - 1], a.positions[mode.space - 1]
    to = space.distance_to(pos[target])
    path, trace = [source], []
    x, dx = source, to(pos[source])
    while x != target:
        if len(trace) >= max_steps:
            return RouteOutcome(source, target, path, trace, Failure.STEP_LIMIT)
        w, dw, one_closer = -1, dx, []
        for v in graph.out_edges[x]:
            dv = to(pos[v])
            if dv < dw:
                w, dw = v, dv
            if dv == dx - 1:
                one_closer.append(v)
        if not dx > 2 * dw:
            dw = dx - 1
            base = space.base_neighbors(pos[x])
            w = next((v for v in one_closer if pos[v] in base), -1)
            if w < 0:
                return RouteOutcome(source, target, path, trace, Failure.STUCK)
        trace.append(dx)
        path.append(w)
        x, dx = w, dw
    return RouteOutcome(source, target, path, trace)


SEARCHED_MODES = [(RoutingMode("greedy-1", plateau=plateau), scan_greedy)
                  for plateau in (None, True, False)]
SEARCHED_MODES.append((RoutingMode("half-greedy-1"), scan_half_greedy))


def cycle_graphs(model, form, n, tmp_path):
    """The model's assignment at size n, seed n, and its graph as built,
    thinned, or written to an edge list and read back."""
    a, graph = build_model(model, {}, n, Seed(n))
    if form == "thinned":
        graph = thin_edges(graph, a.space1, Seed(n + 1))
    elif form == "read":
        path = tmp_path / f"{n}.edges"
        write_edge_list(graph, path)
        graph = read_edge_list(path, a.space1)
    return a, graph


@pytest.mark.parametrize("form", ["built", "thinned", "read"])
@pytest.mark.parametrize("model", ["two-directed-cycles",
                                   "two-undirected-cycles"])
def test_search_routes_as_the_scan_did(model, form, tmp_path):
    # every ordered pair up to 16 vertices, and 300 seeded pairs at 2^12
    cases = []
    for n in range(3 if form == "thinned" else 2, 17):
        cases.append((n, [(s, t) for s in range(n) for t in range(n)]))
    rng = np.random.default_rng(12)
    cases.append((4096, rng.integers(0, 4096, size=(300, 2)).tolist()))
    for n, pairs in cases:
        a, graph = cycle_graphs(model, form, n, tmp_path)
        for mode, scan in SEARCHED_MODES:
            for s, t in pairs:
                assert route(graph, a, mode, s, t) == scan(graph, a, mode, s, t)


def test_search_routes_sparse_out_lists_as_the_scan_did():
    # hand-built out-lists of zero to three heads, so that routes stand on
    # vertices with no head, or with none closer and some level (plateau
    # moves), or with no base neighbor among them (half-greedy gets stuck)
    rng = np.random.default_rng(5)
    for n in (6, 11, 12):
        for _ in range(20):
            graph = NavGraph(n, [sorted(rng.choice(n, rng.integers(0, 4),
                                                   replace=False).tolist())
                                 for _ in range(n)])
            for space in (UndirectedCycle(n), DirectedCycle(n)):
                a = Assignment.identity(space, UndirectedCycle(n))
                for mode, scan in SEARCHED_MODES:
                    for s in range(n):
                        for t in range(n):
                            assert (route(graph, a, mode, s, t)
                                    == scan(graph, a, mode, s, t))
