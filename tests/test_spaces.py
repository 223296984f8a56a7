import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph.harness import build_space
from navgraph.spaces import (DirectedCycle, Euclidean, Grid, TreeLeaves,
                             UndirectedCycle)


def small_spaces(rng=None):
    rng = rng or np.random.default_rng(12345)
    return [
        DirectedCycle(8),
        UndirectedCycle(9),
        Grid((4, 4)),
        Grid((3, 5), toric=True),
        TreeLeaves(2, 3),
        TreeLeaves(3, 2),
        Euclidean(rng.random((10, 2))),
    ]


space_strategy = st.sampled_from(small_spaces())


def ball_count(space, center, radius):
    """|{y : distance(center, y) <= radius}|, through the prepared target."""
    return space.prepare_target(center)[1](radius)


def distance(space, x, y):
    """The kernel for one pair, through the scalar form."""
    return space.distance_to(y)(x)


def diameter(space):
    """The largest distance between any two points, read from the rows:
    the closed forms' oracle, and the only diameter a cloud has."""
    return space.distances_from(np.arange(space.n)).max().item()


def space_id(space):
    if isinstance(space, Euclidean):
        return f"Euclidean(n={space.n})"
    return repr(space)


def lattice_cloud(seed, n, dim, cells):
    """n points floored to a lattice of spacing 1 / cells: many coincide,
    and many lie at exactly the radius of another's ball."""
    rng = np.random.default_rng(seed)
    return Euclidean(np.floor(rng.random((n, dim)) * cells) / cells)


def cell_index_clouds():
    """Clouds whose balls span many cells of the cloud's cell index: the
    2-D and 3-D lattices put points on cell boundaries or within an ulp of
    them (the cell side, half the prefix radius, is a whole number of
    lattice steps or half of one), and spacings 1/5 and 1/7 make the cell
    arithmetic round; the 1-D lattice has a prefix radius of 0; a tight
    cluster with one far point, whose prefix radius would cut the extent
    into over 10^30 cells; then a cloud of coincident points, nine
    coordinates, and a single point."""
    cluster = np.random.default_rng(3).random((40, 2)) * 1e-9
    return [
        lattice_cloud(1, 150, 2, 5),
        lattice_cloud(0, 150, 3, 7),
        lattice_cloud(0, 150, 1, 7),
        Euclidean(np.concatenate([cluster, [[1e6, 2e6]]])),
        Euclidean(np.zeros((6, 2))),
        Euclidean(np.random.default_rng(9).random((60, 9))),
        Euclidean([[0.5, 0.25]]),
    ]


def tie_heavy_spaces():
    """Every space kind, with the tie patterns that closed forms and the
    cloud's cell index must get right: even and odd cycles, even-sided
    toric and non-square clipped grids, degenerate axes, and point clouds
    with coincident points."""
    rng = np.random.default_rng(54321)
    return small_spaces() + [
        DirectedCycle(1),
        UndirectedCycle(1),
        UndirectedCycle(2),
        UndirectedCycle(10),
        Grid((4, 6), toric=True),
        Grid((2, 2), toric=True),
        Grid((3, 7)),
        Grid((1, 6)),
        Grid((3, 2, 4)),
        Grid((2, 3, 4), toric=True),
        TreeLeaves(2, 0),
        TreeLeaves(4, 2),
        TreeLeaves(8, 2),
        Euclidean(np.floor(rng.random((24, 2)) * 3) / 3),
    ] + cell_index_clouds()


# ---------------------------------------------------------------------------
# distance kernels


def test_directed_cycle_distance():
    s = DirectedCycle(8)
    assert distance(s, 2, 5) == 3
    assert distance(s, 5, 2) == 5
    assert distance(s, 3, 3) == 0


def test_undirected_cycle_distance():
    s = UndirectedCycle(8)
    assert distance(s, 0, 6) == 2
    assert distance(s, 6, 0) == 2
    assert distance(s, 0, 4) == 4


def test_tree_distance_examples():
    s = TreeLeaves(2, 3)
    assert s.n == 8
    assert distance(s, 0, 1) == 1
    assert distance(s, 0, 7) == 3
    assert distance(s, 4, 4) == 0
    assert distance(s, 0, 2) == 2


def test_grid_distance_and_coords():
    # row-major ids: (row, col) is vertex 4 * row + col
    g = Grid((4, 4))
    assert distance(g, 0, 14) == 5  # (0, 0) to (3, 2)
    t = Grid((4, 4), toric=True)
    assert distance(t, 0, 15) == 2  # (0, 0) to (3, 3), both axes wrap


def test_euclidean_distance_matches_math_dist():
    pts = np.array([[0.0, 0.0], [3.0, 4.0], [1.0, 1.0]])
    s = Euclidean(pts)
    assert distance(s, 0, 1) == pytest.approx(5.0)
    assert distance(s, 0, 2) == pytest.approx(math.dist(pts[0], pts[2]))


def test_vertex_range_errors():
    s = UndirectedCycle(5)
    with pytest.raises(ValueError):
        s.distance_to(5)
    with pytest.raises(ValueError):
        s.distance_to(0)(5)
    with pytest.raises(ValueError):
        s.distances_from(-1)
    with pytest.raises(ValueError):
        s.prepare_target(7)
    with pytest.raises(ValueError):
        s.prepare_target(0)[0](5)


@given(space_strategy, st.data())
@settings(max_examples=120, deadline=None)
def test_triangle_inequality(space, data):
    ids = st.integers(0, space.n - 1)
    x, y, z = data.draw(ids), data.draw(ids), data.draw(ids)
    assert distance(space, x, y) + distance(space, y, z) >= distance(space, x, z)


@given(space_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_symmetry_and_directed_antisymmetry(space, data):
    ids = st.integers(0, space.n - 1)
    x, y = data.draw(ids), data.draw(ids)
    if not isinstance(space, DirectedCycle):
        assert distance(space, x, y) == distance(space, y, x)
    elif x != y:
        assert distance(space, x, y) + distance(space, y, x) == space.n


@given(space_strategy, st.data())
@settings(max_examples=80, deadline=None)
def test_scalar_matches_vectorized(space, data):
    ids = st.integers(0, space.n - 1)
    x, y = data.draw(ids), data.draw(ids)
    assert distance(space, x, y) == space.distances_from(x)[y]
    assert distance(space, x, y) == space.distances_between([x], [y])[0]
    assert distance(space, x, y) == space.distances_between(x, y)


def kernel_spaces():
    """Every tie-heavy space, plus clouds whose coordinate sums round
    differently under different summation orders: random offsets,
    offsets mirrored about a center, and nine coordinates per point."""
    rng = np.random.default_rng(2718)
    center, offsets = rng.random(2), rng.random((8, 2)) / 3
    mirrored = np.concatenate([center + offsets, center - offsets,
                               center + offsets * [1, -1]])
    return tie_heavy_spaces() + [
        Euclidean([[0, 2 / 3], [2 / 3, 1], [1 / 3, 1 / 3]]),
        Euclidean(rng.random((40, 3)) * 7.3),
        Euclidean(mirrored),
        Euclidean(rng.random((20, 9))),
    ]


def grid_shapes():
    """Clipped and toric grids of one to three axes, with axes of length
    1 and 2 and of odd and even length."""
    dims = [(1,), (2,), (7,), (8,), (1, 1), (1, 5), (2, 2), (2, 7), (6, 4),
            (3, 1, 4), (2, 2, 2), (3, 4, 5)]
    return [Grid(d, toric=t) for t in (False, True) for d in dims]


def scalar_form_spaces():
    """Spaces whose scalar forms take each of their branches: 2-D grids
    read unrolled and the other axis counts by the loop, clipped and
    toric, with axes of length 1 and 2; trees read by bit length whose
    distances span several digits of 1, 2 and 3 bits, and a branching
    that is not a power of 2, read level by level; those that
    :func:`tie_heavy_spaces` already lists are left out."""
    known = tie_heavy_spaces()
    return [s for s in grid_shapes() + [TreeLeaves(2, 6), TreeLeaves(4, 3),
                                        TreeLeaves(8, 3), TreeLeaves(3, 4)]
            if s not in known]


@pytest.mark.parametrize("space", kernel_spaces() + scalar_form_spaces(),
                         ids=space_id)
def test_scalar_kernel_equals_arrays_bit_for_bit(space):
    # routers read the scalar kernel, builders the arrays: one distance
    # per pair, to the last bit, or greedy ties break differently
    n = space.n
    for y in range(n):
        to_y = space.distance_to(y)
        assert [to_y(v) for v in range(n)] == \
            space.distances_between(np.arange(n), y).tolist()
        if not isinstance(space, Euclidean):
            assert all(type(to_y(v)) is int for v in range(n))
        assert [distance(space, y, v) for v in range(n)] == space.distances_from(y).tolist()
    for bad in (-1, n):
        with pytest.raises(ValueError):
            space.distance_to(bad)
        with pytest.raises(ValueError):
            space.distance_to(0)(bad)


def test_cloud_kernel_reads_one_value_for_equal_distances():
    # (0, 2/3) and (1/3, 1/3) lie at the same distance from (2/3, 1), but
    # np.linalg.norm of the one difference vector reads 0.74535599249993
    # for the second: a last-bit difference that decides plateau ties
    s = Euclidean([[0, 2 / 3], [2 / 3, 1], [1 / 3, 1 / 3]])
    to_1 = s.distance_to(1)
    assert to_1(0) == to_1(2) == 0.7453559924999299


@pytest.mark.parametrize("space", tie_heavy_spaces(), ids=space_id)
def test_distances_between_matches_distances_from(space):
    # equal entry for entry, floats included: builders mix the two kernels
    n = space.n
    xs = np.repeat(np.arange(n), n)
    ys = np.tile(np.arange(n), n)
    rows = np.concatenate([space.distances_from(x) for x in range(n)])
    assert np.array_equal(space.distances_between(xs, ys), rows)
    # the array form: one row per source, in the order given
    sources = np.arange(n)[::-1]
    assert np.array_equal(space.distances_from(sources).ravel(),
                          space.distances_between(sources.repeat(n), ys))
    assert space.distances_from(sources[:0]).shape == (0, n)
    with pytest.raises(ValueError):
        space.distances_between([0], [n])
    with pytest.raises(ValueError):
        space.distances_from(np.array([0, n]))


@pytest.mark.parametrize("space", tie_heavy_spaces(), ids=space_id)
def test_distances_between_broadcasts(space):
    # a column of sources against a row of targets: every row's distances
    n = space.n
    ids = np.arange(n)
    rows = np.stack([space.distances_from(x) for x in range(n)])
    assert np.array_equal(space.distances_between(ids[:, None], ids), rows)
    assert np.array_equal(space.distances_between(ids[:, None], ids[::-1]),
                          rows[:, ::-1])


@pytest.mark.parametrize("grid", grid_shapes(), ids=repr)
def test_grid_kernels_equal_the_coordinate_row_form(grid):
    # the distances that the (n, dims) coordinate array gave, one row per
    # vertex summed across its axes, against the per-axis column kernels
    n = grid.n
    coords = np.stack(np.unravel_index(np.arange(n), grid.dims), axis=1)
    xs = np.repeat(np.arange(n), n)
    ys = np.tile(np.arange(n), n)
    diff = np.abs(coords[ys] - coords[xs])
    if grid.toric:
        diff = np.minimum(diff, np.asarray(grid.dims) - diff)
    expected = diff.sum(axis=1)
    between = grid.distances_between(xs, ys)
    assert between.dtype == np.int64
    assert np.array_equal(between, expected)
    rows = expected.reshape(n, n)
    for x in range(n):
        assert np.array_equal(grid.distances_from(x), rows[x])
        to_x = grid.distance_to(x)
        assert [to_x(v) for v in range(n)] == rows[:, x].tolist()
    # rows of a block of sources, broadcast from per-axis offset tables:
    # unordered, repeated and empty blocks
    ids = np.arange(n)
    for sources in (ids, ids[::-1], np.array([n - 1, 0, n // 2, n // 2]), ids[:0]):
        block = grid.distances_from(sources)
        assert block.dtype == np.int64 and block.shape == (len(sources), n)
        assert np.array_equal(block, rows[sources])
    assert grid._coord_rows == coords.tolist()


# ---------------------------------------------------------------------------
# balls


def test_ball_count_examples():
    assert ball_count(UndirectedCycle(8), 0, 2) == 5  # {6,7,0,1,2}
    assert ball_count(DirectedCycle(8), 0, 3) == 4    # forward only
    assert ball_count(Grid((3, 4)), 0, 1) == 3        # a corner
    assert ball_count(TreeLeaves(2, 3), 5, 2.5) == 4  # the subtree {4..7}
    for space in small_spaces():
        assert ball_count(space, 0, 0) == 1


def test_ball_members():
    owner, member, d = UndirectedCycle(8).ball_members(0, 2)
    assert owner.tolist() == [0] * 4
    assert member.tolist() == [7, 1, 6, 2]  # nearest first, center left out
    assert d.tolist() == [1, 1, 2, 2]
    owner, member, d = DirectedCycle(8).ball_members([6, 1], [3, 0.5])
    assert owner.tolist() == [0, 0, 0]
    assert member.tolist() == [7, 0, 1]  # forward arc; center 1's is empty
    assert d.tolist() == [1, 2, 3]
    owner, member, d = TreeLeaves(3, 2).ball_members(4, 1)
    assert member.tolist() == [5, 3] and d.tolist() == [1, 1]
    assert all(a.size == 0 for a in UndirectedCycle(8).ball_members([], 1))
    # coincident points are other vertices at distance 0, in each other's
    # balls at radius 0
    owner, member, d = Euclidean([[0.5, 0.5], [1.0, 0.0], [0.5, 0.5]]
                                 ).ball_members([0, 1, 2], 0)
    assert owner.tolist() == [0, 2] and member.tolist() == [2, 0]
    assert d.tolist() == [0.0, 0.0]


def assert_nearest_first(space, centers, owner, member, d):
    """Each member's distance is the array kernel's, bit for bit, and each
    owner's distances never decrease."""
    assert np.array_equal(d, space.distances_between(centers[owner], member))
    assert d.dtype == space.distances_between(0, 0).dtype
    same = owner[1:] == owner[:-1]
    assert np.all(d[1:][same] >= d[:-1][same])


def enumerated_ball(space, center, radius):
    """The ball read verbatim from the array kernel, its center left out:
    the test oracle."""
    inside = space.distances_from(center) <= radius
    inside[center] = False
    return np.flatnonzero(inside).tolist()


@pytest.mark.parametrize("space", tie_heavy_spaces(), ids=space_id)
def test_ball_members_matches_enumeration(space):
    # radius 0, every radius at which a ball changes, the values between
    # them, beyond the diameter and infinity, several centers in one call
    n = space.n
    beyond = diameter(space) + 3
    for x in range(n):
        d = space.distances_from(x)
        shells = np.unique(d)
        radii = np.concatenate([[0], shells, (shells[1:] + shells[:-1]) / 2,
                                shells + 0.5, [beyond, np.inf]])
        centers = np.full(len(radii), x)
        owner, member, d = space.ball_members(centers, radii)
        assert np.all(np.diff(owner) >= 0)
        assert_nearest_first(space, centers, owner, member, d)
        for k, r in enumerate(radii):
            got = member[owner == k]
            assert len(got) == len(set(got.tolist()))
            assert sorted(got.tolist()) == enumerated_ball(space, x, r)


@pytest.mark.parametrize("space", cell_index_clouds(), ids=space_id)
def test_ball_members_of_many_centers_match_enumeration(space):
    # every center at once, each at a radius of its own: one call
    n = space.n
    rng = np.random.default_rng(n)
    centers = rng.permutation(np.repeat(np.arange(n), 2))
    radii = np.array([rng.choice(space.distances_from(c)) for c in centers])
    owner, member, d = space.ball_members(centers, radii)
    assert np.all(np.diff(owner) >= 0)
    assert_nearest_first(space, centers, owner, member, d)
    for k, (c, r) in enumerate(zip(centers, radii)):
        assert sorted(member[owner == k].tolist()) == enumerated_ball(space, c, r)


def enumerated_base(space, x):
    """x's base neighbors read verbatim from the array kernel, the test
    oracle: the other vertices at distance 1 on the kinds with integer
    distances, the distance-minimal other points on a cloud."""
    d = space.distances_from(x).astype(np.float64)
    d[x] = np.inf
    if not isinstance(space, Euclidean):
        return np.flatnonzero(d == 1).tolist()
    return [] if space.n == 1 else np.flatnonzero(d == d.min()).tolist()


def assert_base_adjacency_enumerated(space):
    # every vertex's base_neighbors, ascending, and base_codes listing
    # them all in turn as ascending codes x * n + y with no self-loop,
    # against the enumeration
    n = space.n
    expected = [enumerated_base(space, x) for x in range(n)]
    assert [space.base_neighbors(x) for x in range(n)] == expected
    codes = space.base_codes
    assert codes.dtype == np.int64
    assert np.all(np.diff(codes) > 0)
    assert not np.any(codes // n == codes % n)
    assert codes.tolist() == [x * n + y for x in range(n) for y in expected[x]]


@pytest.mark.parametrize("space", cell_index_clouds() + small_spaces()[-1:],
                         ids=space_id)
def test_cloud_base_neighbors_match_enumeration(space):
    # the distance-minimal other points, ties all kept
    assert_base_adjacency_enumerated(space)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cloud_rejects_non_finite_coordinates(bad):
    with pytest.raises(ValueError, match="finite"):
        Euclidean([[0.0, 0.0], [1.0, bad]])


@pytest.mark.parametrize("points", [
    [[1e308, 0.0], [-1e308, 0.0], [0.0, 0.0]],   # the span overflows
    [[1e154, 1e154], [-1e154, -1e154]],          # the diagonal overflows
])
def test_cloud_rejects_coordinates_whose_differences_overflow(points):
    with pytest.raises(ValueError, match="finite box"):
        Euclidean(points)


@pytest.mark.parametrize("make,message", [
    (lambda: DirectedCycle(0), "cycle needs n >= 1"),
    (lambda: UndirectedCycle(0), "cycle needs n >= 1"),
    (lambda: Grid(()), "grid dims must be positive"),
    (lambda: Grid((3, 0)), "grid dims must be positive"),
    (lambda: TreeLeaves(1, 3), "branching must be >= 2"),
    (lambda: TreeLeaves(2, -1), "height must be >= 0"),
    # past 2^53 leaves the 2^s array kernel would read x ^ y rounded
    # through float64: (2, 60) gave 61 at leaves 0 and 2^60 - 1
    (lambda: TreeLeaves(2, 60), "at most 2\\^53 leaves, got 2\\^60"),
    (lambda: TreeLeaves(4, 30), "at most 2\\^53 leaves, got 4\\^30"),
    (lambda: TreeLeaves(3, 34), "at most 2\\^53 leaves"),
    (lambda: Euclidean(np.zeros(3)), "nonempty \\(n, dim\\) array"),
    (lambda: Euclidean(np.zeros((0, 2))), "nonempty \\(n, dim\\) array"),
], ids=["directed-cycle-0", "undirected-cycle-0", "grid-no-axes",
        "grid-empty-axis", "tree-branching-1", "tree-height-negative",
        "tree-2^60", "tree-4^30", "tree-3^34", "cloud-1-d", "cloud-empty"])
def test_constructors_refuse_what_they_cannot_hold(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("branching,height", [(2, 53), (8, 17), (3, 33)])
def test_the_largest_trees_read_equal_kernels(branching, height):
    # at most 2^53 leaves, x ^ y is exact in float64: the array kernel
    # agrees with the scalar one on the two farthest-apart leaves
    tree = TreeLeaves(branching, height)
    last = tree.n - 1
    assert tree.distances_between(0, last) == height
    assert tree.distance_to(last)(0) == height
    assert tree.distances_between(last - 1, last) == 1 == tree.distance_to(last)(last - 1)


def test_cloud_with_a_wide_finite_box_is_accepted():
    cloud = Euclidean([[1e153, 1e153], [-1e153, -1e153], [0.0, 0.0]])
    assert cloud.ball_members(2, 1.0)[1].tolist() == []
    assert sorted(cloud.ball_members(2, 1.5e153)[1].tolist()) == [0, 1]


@pytest.mark.parametrize("space", tie_heavy_spaces() + scalar_form_spaces(),
                         ids=space_id)
def test_prepared_target_matches_enumeration(space):
    # the prepared distances equal the array kernel toward the target bit
    # for bit, and the counts equal the enumerated balls around it at 0,
    # at every shell, between shells, at and beyond the diameter and at
    # infinity
    n = space.n
    for x in range(n):
        dist, count = space.prepare_target(x)
        assert [dist(v) for v in range(n)] == \
            space.distances_between(np.arange(n), x).tolist()
        d = space.distances_from(x)
        shells = np.unique(d)
        largest = diameter(space)
        for r in [0, *shells.tolist(), *(shells + 0.25).tolist(), largest,
                  largest + 0.5, largest + 3, math.inf]:
            assert count(r) == np.count_nonzero(d <= r)
            assert type(count(r)) is int
        for bad in (-0.5, -1, -math.inf, math.nan):
            with pytest.raises(ValueError, match="radius must be >= 0"):
                count(bad)
    for bad in (-1, n):
        with pytest.raises(ValueError, match="out of range"):
            space.prepare_target(bad)
        with pytest.raises(ValueError, match="out of range"):
            space.prepare_target(0)[0](bad)


@pytest.mark.parametrize(
    "space", [s for s in tie_heavy_spaces() + grid_shapes()
              if not isinstance(s, Euclidean)], ids=space_id)
def test_closed_form_diameter_is_the_largest_distance(space):
    # the closed-form balls cap their radii at the diameter
    assert space.diameter() == diameter(space)


def test_ball_members_rejects_bad_arguments():
    for space in (UndirectedCycle(8), Grid((3, 3)), TreeLeaves(2, 3),
                  Euclidean(np.zeros((4, 2)))):
        with pytest.raises(ValueError):
            space.ball_members([0, 1], [1, -1])
        with pytest.raises(ValueError):
            space.ball_members([0], np.nan)
        with pytest.raises(ValueError):
            space.ball_members([space.n], 1)


def test_ball_negative_radius_rejected():
    for space in small_spaces():
        with pytest.raises(ValueError):
            ball_count(space, 0, -1)


@given(space_strategy, st.data())
@settings(max_examples=60, deadline=None)
def test_ball_monotone_and_saturates(space, data):
    x = data.draw(st.integers(0, space.n - 1))
    r1 = data.draw(st.floats(0, 10))
    r2 = data.draw(st.floats(0, 10))
    lo, hi = sorted((r1, r2))
    assert ball_count(space, x, lo) <= ball_count(space, x, hi)
    assert ball_count(space, x, diameter(space)) == space.n


# ---------------------------------------------------------------------------
# base neighbors


def test_base_neighbors_examples():
    assert DirectedCycle(5).base_neighbors(4) == [0]
    assert UndirectedCycle(5).base_neighbors(0) == [1, 4]
    g = Grid((4, 4))  # row-major: (row, col) is vertex 4 * row + col
    assert g.base_neighbors(0) == [1, 4]  # (0, 1) and (1, 0)
    assert g.base_neighbors(5) == [1, 4, 6, 9]


def test_base_neighbors_toric_wraps():
    g = Grid((4, 4), toric=True)
    # (0, 1), (0, 3), (1, 0) and (3, 0)
    assert g.base_neighbors(0) == [1, 3, 4, 12]


def test_base_neighbors_tree_is_sibling_set():
    t = TreeLeaves(2, 3)
    assert t.base_neighbors(0) == [1]
    assert t.base_neighbors(5) == [4]
    t3 = TreeLeaves(3, 2)
    assert t3.base_neighbors(4) == [3, 5]


def test_base_neighbors_euclidean_minimal_set():
    pts = np.array([[0.0], [1.0], [3.0], [1.0]])
    s = Euclidean(pts)
    assert s.base_neighbors(0) == [1, 3]  # equidistant tie kept


@pytest.mark.parametrize("space", tie_heavy_spaces() + grid_shapes(), ids=space_id)
def test_base_edges_list_every_base_neighbor(space):
    # tree leaves, one- and two-vertex cycles, toric axes of length 1 and
    # 2 and single-row grids among them
    assert_base_adjacency_enumerated(space)


def test_base_neighbors_view_is_lazy_and_hands_out_new_lists():
    # builders read base_codes alone and pay nothing for the per-vertex
    # view; a caller that edits its list leaves the space as it was
    g = Grid((3, 4))
    g.base_codes
    assert "_base_view" not in g.__dict__
    first = g.base_neighbors(5)
    first.append(0)
    assert g.base_neighbors(5) == [1, 4, 6, 9]


@given(space_strategy, st.data())
@settings(max_examples=60, deadline=None)
def test_base_neighbors_within_unit_ball_for_graph_kinds(space, data):
    x = data.draw(st.integers(0, space.n - 1))
    neighbors = space.base_neighbors(x)
    assert x not in neighbors
    assert neighbors == sorted(neighbors)
    if space.is_graph_kind:
        for w in neighbors:
            assert distance(space, x, w) == 1


# ---------------------------------------------------------------------------
# doubling constant


def doubling_ratio(space, radii):
    """Max over centers u and radii r of |B_2r(u)| / |B_r(u)|."""
    return max(ball_count(space, u, 2 * r) / ball_count(space, u, r)
               for u in range(space.n) for r in radii)


def test_doubling_cycle_bounded_by_two():
    # exact cycle balls: |B_r| = 2r + 1 while 2r < n
    radii = [1, 2, 4, 8]
    expected = max((4 * r + 1) / (2 * r + 1) for r in radii)
    got = doubling_ratio(UndirectedCycle(64), radii)
    assert got == pytest.approx(expected)
    assert got <= 2.0


def test_doubling_toric_grid_bounded_by_four():
    grid = Grid((16, 16), toric=True)
    radii = [1, 2, 4]

    def brute_ball(r):
        # L1 ball size on the 16x16 torus, by coordinate enumeration
        count = 0
        for dx in range(16):
            for dy in range(16):
                if min(dx, 16 - dx) + min(dy, 16 - dy) <= r:
                    count += 1
        return count

    expected = max(brute_ball(2 * r) / brute_ball(r) for r in radii)
    got = doubling_ratio(grid, radii)
    assert got == pytest.approx(expected)
    assert got <= 4.0


def test_doubling_saturated_radius_contributes_one():
    s = UndirectedCycle(10)
    assert doubling_ratio(s, [s.diameter()]) == pytest.approx(1.0)


def test_descriptor_round_trips_through_config_builder():
    for descriptor, space in (
            ({"kind": "directed-cycle"}, DirectedCycle(8)),
            ({"kind": "undirected-cycle"}, UndirectedCycle(9)),
            ({"kind": "grid", "dims": [4, 4], "toric": False}, Grid((4, 4))),
            ({"kind": "grid", "dims": [2, 8], "toric": True}, Grid((2, 8), toric=True)),
            ({"kind": "tree-leaves", "branching": 2}, TreeLeaves(2, 3))):
        assert build_space(descriptor, space.n) == space
