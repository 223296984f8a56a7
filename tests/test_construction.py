import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from navgraph import construction as cons
from navgraph.construction import (Assignment, Seed, build_double_clustering,
                                   build_independent_interest, build_kleinberg,
                                   edge_keep_probability, load_permutation,
                                   read_edge_list, thin_edges,
                                   write_edge_list)
from navgraph.spaces import (DirectedCycle, Euclidean, Grid, TreeLeaves,
                             UndirectedCycle)


def double_cycle(n, pi):
    s = DirectedCycle(n)
    return Assignment(s, DirectedCycle(n), np.asarray(pi))


def random_assignment(rng, n=None):
    """Random small assignment over a random mix of space kinds."""
    n = n or int(rng.integers(2, 48))
    pick = int(rng.integers(4))
    if pick == 0:
        s1, s2 = DirectedCycle(n), DirectedCycle(n)
    elif pick == 1:
        s1, s2 = UndirectedCycle(n), UndirectedCycle(n)
    elif pick == 2:
        n = 16
        s1, s2 = Grid((4, 4)), TreeLeaves(2, 4)
    else:
        n = 12
        s1 = Euclidean(rng.random((n, 2)))
        s2 = Euclidean(rng.random((n, 3)))
    return Assignment(s1, s2, rng.permutation(n))


# ---------------------------------------------------------------------------
# assignment and seed plumbing


def test_assignment_validates_permutation():
    s = DirectedCycle(4)
    with pytest.raises(ValueError):
        Assignment(s, s, np.array([0, 1, 2, 2]))
    with pytest.raises(ValueError):
        Assignment(s, DirectedCycle(5), np.arange(4))


def test_assignment_inverse_and_swap():
    a = double_cycle(5, [2, 0, 4, 1, 3])
    swapped = Assignment(a.space2, a.space1, np.argsort(a.pi))
    assert list(swapped.pi[a.pi]) == list(range(5))


def test_seed_streams_are_stable_and_distinct():
    seed = Seed(42)
    a = seed.rng("ii", 3).random(4)
    b = seed.rng("ii", 3).random(4)
    c = seed.rng("ii", 4).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert np.array_equal(seed.permutation(10), seed.permutation(10))


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1])
def test_seed_streams_match_plain_int_entropy(master):
    # Seed.rng hands SeedSequence its entropy as uint32 words; the stream
    # must stay the one that the plain list of masked ints gives, with
    # string labels read as little-endian ints
    def plain(*labels):
        entropy = [master & (2**64 - 1)]
        for label in labels:
            entropy.append(int.from_bytes(label.encode("utf-8"), "little")
                           if isinstance(label, str) else label & (2**64 - 1))
        return np.random.default_rng(np.random.SeedSequence(entropy))

    seed = Seed(master)
    for label in ("a", "thin", "ii\x00\x00x", "kleinberg", "twelve-bytes"):
        for vertex in (0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, -1):
            assert np.array_equal(seed.rng(label, vertex).random(3),
                                  plain(label, vertex).random(3))
    assert len("twelve-bytes".encode()) == 12
    assert np.array_equal(seed.rng().random(3), plain().random(3))
    assert np.array_equal(seed.rng("pi").permutation(20), plain("pi").permutation(20))
    assert np.array_equal(seed.permutation(20), plain("pi").permutation(20))


def stream_draws(seed, label, ids, counts):
    """The first counts[k] uniforms of stream ids[k] for every k, in one
    array, from Seed.streams."""
    streams = seed.streams(label, ids)
    return np.concatenate([streams.random(k, np.empty(c))
                           for k, c in enumerate(counts)] + [np.empty(0)])


def rng_draws(seed, label, ids, counts):
    """The same uniforms, one Seed.rng generator per stream."""
    return np.concatenate([seed.rng(label, v).random(c)
                           for v, c in zip(ids, counts)] + [np.empty(0)])


@pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1,
                                    2**70 + 5])
@pytest.mark.parametrize("label", ["ii", "thin", "kleinberg", "thirteen-byte",
                                   12345])
def test_streams_equal_one_generator_per_vertex(master, label):
    # Seed.rng is the oracle: every word count of master and label, so
    # vertex ids fall inside the pool and past it
    assert len("thirteen-byte".encode()) == 13
    seed = Seed(master)
    n = 9
    ids = [5, 0, 3, 3, 2**32 - 1, 8, 1, 5]  # unsorted, repeated, the largest
    counts = [0, 1, n, 1, 3, 0, n, 2]
    want = rng_draws(seed, label, ids, counts)
    assert np.array_equal(stream_draws(seed, label, ids, counts), want)
    # the array draws, PCG64 stepped over uint64 halves: ragged counts, and
    # one count for every stream
    streams = seed.streams(label, ids)
    assert np.array_equal(streams.uniforms(counts), want)
    for k in (0, 1, 3):
        assert np.array_equal(streams.uniforms(k),
                              rng_draws(seed, label, ids, [k] * len(ids)))
    # drawing leaves every stream at its start
    assert np.array_equal(streams.random(4, np.empty(n)),
                          seed.rng(label, 2**32 - 1).random(n))
    want = rng_draws(seed, label, range(n), [n] * n)
    assert np.array_equal(stream_draws(seed, label, np.arange(n), [n] * n), want)
    assert np.array_equal(seed.streams(label, np.arange(n)).uniforms(n), want)
    assert stream_draws(seed, label, [], []).size == 0
    assert seed.streams(label, []).uniforms(2).size == 0


@settings(max_examples=60, deadline=None)
@given(master=st.integers(-2**70, 2**70),
       label=st.one_of(st.text(max_size=20), st.integers(-2**66, 2**66)),
       drawn=st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 6)),
                      max_size=8),
       fixed=st.integers(0, 4))
def test_streams_property(master, label, drawn, fixed):
    seed = Seed(master)
    ids, counts = [v for v, _ in drawn], [c for _, c in drawn]
    want = rng_draws(seed, label, ids, counts)
    assert np.array_equal(stream_draws(seed, label, ids, counts), want)
    streams = seed.streams(label, ids)
    assert np.array_equal(streams.uniforms(counts), want)
    assert np.array_equal(streams.uniforms(fixed),
                          rng_draws(seed, label, ids, [fixed] * len(ids)))


def test_streams_refuse_ids_outside_one_word():
    seed = Seed(3)
    for ids in ([2**32], [0, 2**32 + 5], [-1], [2**64]):
        with pytest.raises(ValueError, match="stream ids"):
            seed.streams("thin", ids)


def test_streams_own_their_generator():
    # two stream sets read in turn each give their own draws: no generator
    # is shared between them
    seed = Seed(11)
    ii, thin = seed.streams("ii", [4, 2]), seed.streams("thin", [4, 2])
    draws = [ii.random(0, np.empty(3)), thin.random(0, np.empty(3)),
             ii.random(1, np.empty(2)), thin.random(1, np.empty(2))]
    assert all(np.array_equal(got, want) for got, want in zip(draws, [
        seed.rng("ii", 4).random(3), seed.rng("thin", 4).random(3),
        seed.rng("ii", 2).random(2), seed.rng("thin", 2).random(2)]))


def test_builders_seed_their_streams_once(monkeypatch):
    calls = []
    original = Seed.streams

    def counting(self, label, ids):
        calls.append(label)
        return original(self, label, ids)
    monkeypatch.setattr(Seed, "streams", counting)
    seed = Seed(2)
    build_kleinberg(Grid((40, 40)), 2.0, 1, seed)
    build_independent_interest(UndirectedCycle(600), seed)
    assignment = Assignment.random(UndirectedCycle(600), UndirectedCycle(600), seed)
    thin_edges(build_double_clustering(assignment), assignment.space1, seed)
    assert calls == ["kleinberg", "ii", "thin"]


# ---------------------------------------------------------------------------
# double clustering


def test_identity_permutation_gives_successor_graph():
    a = Assignment.identity(DirectedCycle(4))
    g = build_double_clustering(a)
    assert g.out_edges == [[1], [2], [3], [0]]


def test_hand_enumerated_example():
    # pi(0)=0, pi(1)=2, pi(2)=1, pi(3)=3: vertex 2 admitted, vertex 3 not
    g = build_double_clustering(double_cycle(4, [0, 2, 1, 3]))
    assert g.out_edges[0] == [1, 2]


def test_nearest_shell_always_fully_linked():
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = random_assignment(rng)
        g = build_double_clustering(a)
        for x in range(a.n):
            d1 = [(a.space1.distance_to(j)(x), j) for j in range(a.n) if j != x]
            lo = min(d1)[0]
            nearest = {j for d, j in d1 if d == lo}
            assert nearest <= set(g.out_edges[x])


def test_second_space_minimum_always_receives_edge():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = random_assignment(rng)
        g = build_double_clustering(a)
        for x in range(a.n):
            d2 = [(a.space2.distance_to(a.positions[1][j])(a.positions[1][x]), j) for j in range(a.n) if j != x]
            lo = min(d2)[0]
            for d, j in d2:
                if d == lo:
                    assert j in g.out_edges[x]


def test_space_swap_symmetry_up_to_relabeling():
    # edge (i, j) with (space1, space2, pi) iff edge (pi[i], pi[j]) with
    # (space2, space1, pi^-1): the defining rule is its own contrapositive
    rng = np.random.default_rng(9)
    for _ in range(15):
        a = random_assignment(rng)
        g = build_double_clustering(a)
        inverse = np.argsort(a.pi)
        g_swapped = build_double_clustering(
            Assignment(a.space2, a.space1, inverse))
        relabeled = [set() for _ in range(a.n)]
        for i in range(a.n):
            for j in g_swapped.out_edges[int(a.pi[i])]:
                relabeled[i].add(int(inverse[j]))
        assert [sorted(s) for s in relabeled] == g.out_edges


# ---------------------------------------------------------------------------
# production builders against the quantified rule on tie-heavy families


def rule_heads(n, d1_row, value_row):
    """Heads by the record rule read verbatim: j != i is kept iff
    value(i, j) <= value(i, k) for every k != i with d1(i, k) < d1(i, j)."""
    out = []
    for i in range(n):
        d1 = d1_row(i)
        value = np.asarray(value_row(i), dtype=np.float64)
        others = np.where(np.arange(n) == i, np.inf, value)
        closer = d1[None, :] < d1[:, None]  # closer[j, k]: k strictly closer than j
        bound = np.where(closer, others[None, :], np.inf).min(axis=1)
        keep = value <= bound
        keep[i] = False
        out.append(np.flatnonzero(keep).tolist())
    return out


def rule_double_clustering(a):
    return rule_heads(a.n, a.space1.distances_from,
                      lambda i: a.space2.distances_from(int(a.pi[i]))[a.pi])


def test_builder_small_and_large_paths_agree():
    # random assignments from a single vertex to a hundred, each against
    # the rule read verbatim
    rng = np.random.default_rng(10)
    cases = [random_assignment(rng) for _ in range(10)]
    for n in (1, 2, 3, 64, 101):
        for s1, s2 in ((DirectedCycle(n), DirectedCycle(n)),
                       (UndirectedCycle(n), UndirectedCycle(n)),
                       (Euclidean(rng.random((n, 2))), Euclidean(rng.random((n, 3))))):
            cases.append(Assignment(s1, s2, rng.permutation(n)))
    for a in cases:
        assert build_double_clustering(a).out_edges == rule_double_clustering(a)


def snapped_cloud(rng, n, dim, cells):
    # coordinates floored to a coarse lattice, so many points coincide
    return Euclidean(np.floor(rng.random((n, dim)) * cells) / cells)


TIE_HEAVY_FAMILIES = ("toric-grids", "clipped-grids", "tree-first",
                      "tree-second", "directed-cycles", "undirected-cycles",
                      "snapped-clouds", "lattice-clouds")


def tie_heavy_pair(family, large, rng):
    """(space1, space2) of one family, small enough for one block of rows
    or large enough for several."""
    if family == "toric-grids":  # even sides: antipodal ties on each axis
        return ((Grid((16, 20), toric=True), Grid((10, 32), toric=True)) if large
                else (Grid((4, 6), toric=True), Grid((2, 12), toric=True)))
    if family == "clipped-grids":
        return ((Grid((12, 27)), Grid((18, 18))) if large
                else (Grid((3, 8)), Grid((4, 6))))
    if family == "tree-first":
        return ((TreeLeaves(2, 9), UndirectedCycle(512)) if large
                else (TreeLeaves(3, 3), UndirectedCycle(27)))
    if family == "tree-second":
        return ((Grid((16, 32)), TreeLeaves(2, 9)) if large
                else (Grid((4, 4)), TreeLeaves(2, 4)))
    if family == "directed-cycles":
        n = 300 if large else 20
        return DirectedCycle(n), DirectedCycle(n)
    if family == "undirected-cycles":
        n = 301 if large else 22
        return UndirectedCycle(n), UndirectedCycle(n)
    if family == "snapped-clouds":
        n = 300 if large else 24
        return snapped_cloud(rng, n, 2, 4), snapped_cloud(rng, n, 3, 3)
    # lattice spacings 1/5 and 1/7, whose cell arithmetic rounds, over
    # many cells of each cloud's cell index
    n = 400 if large else 30
    return snapped_cloud(rng, n, 2, 5), snapped_cloud(rng, n, 3, 7)


def check_size_class(space, large):
    n = space.n
    _, block = cons._prefix_plan(space)
    if large:
        # several blocks of rows with a ragged last one
        assert block < n and n % block
    else:
        # every row in one block, so one record-kernel call
        assert n <= block


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
@pytest.mark.parametrize("family", TIE_HEAVY_FAMILIES)
def test_double_clustering_matches_rule_on_tie_heavy_families(family, large):
    rng = np.random.default_rng(TIE_HEAVY_FAMILIES.index(family))
    space1, space2 = tie_heavy_pair(family, large, rng)
    check_size_class(space1, large)
    for _ in range(1 if large else 3):
        a = Assignment(space1, space2, rng.permutation(space1.n))
        assert build_double_clustering(a).out_edges == rule_double_clustering(a)


@pytest.mark.parametrize("family", TIE_HEAVY_FAMILIES)
def test_chunked_small_graphs_match_single_builds(family):
    # many permutations per record-kernel call: two whole chunks and a
    # ragged third, each graph equal to its own build and to the rule
    rng = np.random.default_rng(TIE_HEAVY_FAMILIES.index(family))
    space1, space2 = tie_heavy_pair(family, False, rng)
    n = space1.n
    per_chunk = cons._prefix_plan(space1)[1] // n
    assert per_chunk > 1
    perms = [rng.permutation(n) for _ in range(2 * per_chunk + 3)]
    graphs = list(cons._graphs(space1, space2, iter(perms)))
    assert len(graphs) == len(perms)
    for pi, graph in zip(perms, graphs):
        a = Assignment(space1, space2, pi)
        assert graph.out_edges == build_double_clustering(a).out_edges
        assert graph.out_edges == rule_double_clustering(a)


def test_large_graphs_take_one_permutation_per_chunk():
    # past one block of rows, each permutation is a chunk of its own,
    # spread over several blocks
    rng = np.random.default_rng(11)
    space1, space2 = tie_heavy_pair("snapped-clouds", True, rng)
    check_size_class(space1, True)
    perms = [rng.permutation(space1.n) for _ in range(3)]
    graphs = list(cons._graphs(space1, space2, perms))
    assert len(graphs) == len(perms)
    for pi, graph in zip(perms, graphs):
        assert graph.out_edges == rule_double_clustering(
            Assignment(space1, space2, pi))


def test_small_graphs_read_permutations_one_chunk_at_a_time():
    # the divergence scan stops at its first witness without building the
    # graphs of every later permutation
    space = DirectedCycle(8)
    taken = []

    def enumerated():
        for pi in itertools.permutations(range(8)):
            taken.append(pi)
            yield pi

    graphs = cons._graphs(space, space, enumerated())
    first = next(graphs)
    per_chunk = cons._prefix_plan(space)[1] // 8
    assert len(taken) == per_chunk < math.factorial(8)
    assert first.out_edges == build_double_clustering(
        Assignment.identity(space)).out_edges


@pytest.mark.parametrize("large", [False, True], ids=["small", "large"])
@pytest.mark.parametrize("family", TIE_HEAVY_FAMILIES)
def test_interest_matches_rule_on_tie_heavy_families(family, large):
    rng = np.random.default_rng(TIE_HEAVY_FAMILIES.index(family))
    space, _ = tie_heavy_pair(family, large, rng)
    check_size_class(space, large)
    n = space.n
    for master in range(1 if large else 3):
        seed = Seed(master)
        expected = rule_heads(n, space.distances_from,
                              lambda i: -seed.rng("ii", i).random(n))
        assert build_independent_interest(space, seed).out_edges == expected


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4),
                          st.integers(-3, 3)), max_size=60),
       st.booleans())
@settings(max_examples=300, deadline=None)
def test_record_keep_against_bruteforce(entries, integer):
    # the kernel over entries of several owners in (owner, key) order must
    # match the quantified rule verbatim: entry t kept iff its value is <=
    # every value of its owner at a strictly smaller key; few keys and
    # values, so both tie often, as integers or as floats
    entries.sort(key=lambda e: e[:2])
    owner = np.array([o for o, _, _ in entries], dtype=np.int64)
    key = np.array([k for _, k, _ in entries], dtype=np.int64)
    value = np.array([v if integer else v / 3 for _, _, v in entries])
    assert value.dtype == (np.int64 if integer and entries else np.float64)
    keep = cons._record_keep(owner, key, value)
    assert keep.dtype == bool and keep.shape == (len(entries),)
    for t, (o, k, v) in enumerate(entries):
        earlier = [w for p, q, w in entries if p == o and q < k]
        assert keep[t] == (v <= min(earlier) if earlier else True)


@pytest.mark.parametrize("space", [DirectedCycle(6), UndirectedCycle(6)],
                         ids=["directed", "undirected"])
def test_every_permutation_matches_rule(space):
    # every permutation at n = 6, many to a record-kernel block, against
    # the rule read verbatim
    perms = list(itertools.permutations(range(6)))
    assert cons._prefix_plan(space)[1] // 6 > 1
    graphs = list(cons._graphs(space, space, perms))
    assert len(graphs) == len(perms)
    for pi, graph in zip(perms, graphs):
        assert graph.out_edges == rule_double_clustering(
            Assignment(space, space, np.array(pi)))


def chosen_rows_cases():
    for n in range(2, 7):
        perms = list(itertools.permutations(range(n)))
        for space in DirectedCycle(n), UndirectedCycle(n):
            yield pytest.param(space, space, perms, id=f"{space.kind}-{n}")
    rng = np.random.default_rng(3)
    yield pytest.param(Grid((4, 4)), TreeLeaves(2, 4),
                       [rng.permutation(16) for _ in range(5)], id="grid-tree")


@pytest.mark.parametrize("rows", [2, 7])
@pytest.mark.parametrize("space1,space2,perms", chosen_rows_cases())
def test_chosen_rows_are_rows_of_whole_graphs(monkeypatch, space1, space2,
                                              perms, rows):
    # blocks of 2 rows spread a permutation's chosen rows over several
    # blocks; blocks of 7 hold rows of several permutations, the last
    # ragged where 7 does not divide the count
    n = space1.n
    graphs = [g.out_edges for g in cons._graphs(space1, space2, perms)]
    monkeypatch.setattr(cons, "_BLOCK_ENTRIES",
                        2 * (math.isqrt(n - 1) + 1) * rows)
    assert cons._prefix_plan(space1)[1] == rows
    assert [g.out_edges for g in cons._graphs(space1, space2, perms)] == graphs
    for chosen in [0], list(range(n - 1, -1, -2)):
        assert list(cons._chosen_rows(space1, space2, perms, chosen)) == [
            [heads[v] for v in chosen] for heads in graphs]


def test_no_self_loops_or_duplicates():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = random_assignment(rng)
        g = build_double_clustering(a)
        for x, heads in enumerate(g.out_edges):
            assert x not in heads
            assert heads == sorted(set(heads))


# ---------------------------------------------------------------------------
# independent interest


def test_interest_single_candidate():
    g = build_independent_interest(DirectedCycle(2), Seed(0))
    assert g.out_edges[0] == [1]
    assert g.out_edges[1] == [0]


def test_interest_deterministic():
    s = UndirectedCycle(50)
    g1 = build_independent_interest(s, Seed(123))
    g2 = build_independent_interest(s, Seed(123))
    g3 = build_independent_interest(s, Seed(124))
    assert g1.out_edges == g2.out_edges
    assert g1.out_edges != g3.out_edges


def test_interest_expected_degree_record_law():
    # singleton shells on the directed cycle: P(edge to shell k) = 1/k,
    # so E[out-degree] at n=4 is 1 + 1/2 + 1/3 = 11/6
    n, trials = 4, 10000
    total = 0
    for master in range(trials):
        g = build_independent_interest(DirectedCycle(n), Seed(master))
        total += g.edge_count()
    mean = total / (n * trials)
    assert mean == pytest.approx(11 / 6, rel=0.02)


def test_interest_paths_agree():
    # undirected cycles from a single vertex to a hundred
    seed = Seed(5)
    for n in (1, 2, 3, 40, 104):
        s = UndirectedCycle(n)
        expected = rule_heads(n, s.distances_from,
                              lambda i: -seed.rng("ii", i).random(n))
        assert build_independent_interest(s, seed).out_edges == expected


def test_interest_mean_degree_near_harmonic():
    n = 256
    expected = sum(1 / k for k in range(1, n))
    means = [build_independent_interest(DirectedCycle(n), Seed(m)).mean_out_degree()
             for m in range(8)]
    assert sum(means) / len(means) == pytest.approx(expected, rel=0.05)


# ---------------------------------------------------------------------------
# lattice augmentation baseline


def long_range_row(space, x, alpha):
    """One vertex's law written out from its distance row: d^-alpha over
    every y != x in ascending order, normalized by its exact sum."""
    n = space.n
    d = space.distances_from(x).astype(np.float64)
    cand = np.flatnonzero(np.arange(n) != x)
    weights = d[cand] ** (-alpha) if alpha != 0 else np.ones(len(cand))
    return cand, weights / weights.sum()


def test_long_range_distribution_examples():
    cand, probs = long_range_row(DirectedCycle(2), 0, 1.0)
    assert list(cand) == [1] and probs[0] == pytest.approx(1.0)

    cand, probs = long_range_row(UndirectedCycle(5), 0, 0.0)
    assert np.allclose(probs, 0.25)

    # distances {1,1,2,2}: h = 1 + 1 + 1/2 + 1/2 = 3
    cand, probs = long_range_row(UndirectedCycle(5), 0, 1.0)
    by_vertex = dict(zip(cand.tolist(), probs.tolist()))
    assert by_vertex[1] == pytest.approx(1 / 3)
    assert by_vertex[2] == pytest.approx(1 / 6)

    # 3x3 lattice at alpha=2.  From the centre: four vertices at distance 1
    # and four corners at 2, h = 4 + 4/4 = 5.
    grid = Grid((3, 3))
    cand, probs = long_range_row(grid, 4, 2.0)
    assert cand.tolist() == [0, 1, 2, 3, 5, 6, 7, 8]
    by_vertex = dict(zip(cand.tolist(), probs.tolist()))
    for y in (1, 3, 5, 7):
        assert by_vertex[y] == pytest.approx(1 / 5)
    for y in (0, 2, 6, 8):
        assert by_vertex[y] == pytest.approx(1 / 20)

    # From corner 0: distances 1,1 (vertices 1,3), 2,2,2 (2,4,6), 3,3 (5,7)
    # and 4 (8), h = 2 + 3/4 + 2/9 + 1/16 = 437/144.
    cand, probs = long_range_row(grid, 0, 2.0)
    assert cand.tolist() == [1, 2, 3, 4, 5, 6, 7, 8]
    by_vertex = dict(zip(cand.tolist(), probs.tolist()))
    for ys, weight in (((1, 3), 144), ((2, 4, 6), 36), ((5, 7), 16), ((8,), 9)):
        for y in ys:
            assert by_vertex[y] == pytest.approx(weight / 437)


def kleinberg_per_vertex(space, alpha, links, seed):
    """build_kleinberg as a loop over vertices: each vertex's base
    neighbors, and Generator.choice from its stream ("kleinberg", x) on
    the law of long_range_row (no draws at n = 1)."""
    out = []
    for x in range(space.n):
        heads = set(space.base_neighbors(x))
        if space.n > 1:
            cand, probs = long_range_row(space, x, alpha)
            draws = seed.rng("kleinberg", x).choice(cand, size=links, p=probs)
            heads.update(int(y) for y in np.atleast_1d(draws))
        heads.discard(x)
        out.append(sorted(heads))
    return out


def lattice_shapes():
    """Clipped and toric grids of one to three axes, with axes of length
    1 and 2, and cycles of one to three vertices; the last grid and cycles
    of each kind end in a ragged block of rows."""
    dims = [(1,), (2,), (7,), (1, 1), (1, 5), (2, 2), (2, 7), (3, 1, 4),
            (2, 2, 2), (9, 11)]
    spaces = [Grid(d, toric=t) for t in (False, True) for d in dims]
    for n in (1, 2, 3, 100):
        spaces += [DirectedCycle(n), UndirectedCycle(n)]
    return spaces


@pytest.mark.parametrize("space", lattice_shapes(), ids=repr)
def test_long_range_law_equals_its_rows_written_out(space):
    # every row of one block of all vertices, each row normalized by its
    # own sum; a single vertex has no candidates and no long-range link
    n = space.n
    if n == 1:
        assert build_kleinberg(space, 2.0, 1, Seed(0)).out_edges == [[]]
        return
    for alpha in (0.0, 1.0, 1.5, 2.0, 50.0):
        block = cons._link_probabilities(
            cons._candidate_distances(space, np.arange(n)),
            cons._link_weights(space, alpha))
        for x in range(n):
            _, want_probs = long_range_row(space, x, alpha)
            assert np.array_equal(block[x], want_probs)


@pytest.mark.parametrize("space", lattice_shapes(), ids=repr)
def test_kleinberg_matches_per_vertex_choice(monkeypatch, space):
    # blocks of 2^13 entries, so that n = 100 takes several and a ragged last
    monkeypatch.setattr(cons, "_KLEINBERG_ENTRIES", 1 << 13)
    n = space.n
    if n == 100:
        block = cons._KLEINBERG_ENTRIES // n
        assert 1 < block < n and n % block  # several blocks, a ragged last
    for alpha in (0.0, 1.5, 2.0, 50.0):
        for links in (1, 2, 3, 4):
            seed = Seed(int(10 * alpha) + links)
            graph = build_kleinberg(space, alpha, links, seed)
            assert graph.out_edges == kleinberg_per_vertex(space, alpha, links, seed)


@pytest.mark.parametrize("space", [Grid((91, 91)), UndirectedCycle(8193)], ids=repr)
def test_kleinberg_rows_longer_than_a_block_match_per_vertex_choice(space):
    # a few rows per block, each longer than numpy's summation blocks: the
    # sampled vertices' heads equal the per-vertex loop's
    n = space.n
    assert 1 <= cons._KLEINBERG_ENTRIES // n < 4
    seed = Seed(4)
    graph = build_kleinberg(space, 2.0, 2, seed)
    picked = np.random.default_rng(0).choice(n, 40, replace=False)
    for x in sorted({0, n - 1, *picked.tolist()}):
        heads = set(space.base_neighbors(x))
        cand, probs = long_range_row(space, x, 2.0)
        heads.update(seed.rng("kleinberg", x).choice(cand, size=2, p=probs).tolist())
        assert graph.out_edges[x] == sorted(heads)


@pytest.mark.parametrize("space, ragged", [
    (UndirectedCycle(1000), True), (Grid((33, 31)), True),
    (Grid((16, 16), toric=True), False)], ids=repr)
def test_kleinberg_blocks_of_many_rows_match_per_vertex_choice(space, ragged):
    # the production block size: many rows per block, and a ragged last
    # block where the rows do not divide n
    n = space.n
    block = cons._KLEINBERG_ENTRIES // n
    assert 16 <= block < n and (n % block != 0) == ragged
    for alpha in (0.0, 1.3, 2.0):
        for links in (1, 2, 3):
            seed = Seed(int(10 * alpha) + links)
            graph = build_kleinberg(space, alpha, links, seed)
            assert graph.out_edges == kleinberg_per_vertex(space, alpha, links, seed)


@pytest.mark.parametrize("entries", [1, 40, 300])
def test_baselines_do_not_depend_on_block_size(monkeypatch, entries):
    # one row per block, and blocks of a few rows with a ragged last one:
    # the heads of each row never depend on the rows it is batched with
    spaces = (UndirectedCycle(57), Grid((5, 7), toric=True), TreeLeaves(3, 3))
    expected = [(build_independent_interest(s, Seed(6)).out_edges,
                 build_kleinberg(s, 2.0, 2, Seed(6)).out_edges
                 if s.is_graph_kind else None) for s in spaces]
    monkeypatch.setattr(cons, "_BLOCK_ENTRIES", entries)
    monkeypatch.setattr(cons, "_KLEINBERG_ENTRIES", entries)
    for s, (interest, kleinberg) in zip(spaces, expected):
        assert build_independent_interest(s, Seed(6)).out_edges == interest
        if s.is_graph_kind:
            assert build_kleinberg(s, 2.0, 2, Seed(6)).out_edges == kleinberg


def test_kleinberg_builder_basics():
    g = build_kleinberg(Grid((4, 4)), alpha=2.0, links=1, seed=Seed(3))
    grid = Grid((4, 4))
    for x in range(16):
        assert set(grid.base_neighbors(x)) <= set(g.out_edges[x])
        assert x not in g.out_edges[x]
    again = build_kleinberg(Grid((4, 4)), alpha=2.0, links=1, seed=Seed(3))
    assert again.out_edges == g.out_edges


def test_kleinberg_single_vertex_is_empty():
    g = build_kleinberg(DirectedCycle(1), alpha=1.0, links=1, seed=Seed(0))
    assert g.out_edges == [[]]


def test_kleinberg_rejects_point_clouds():
    with pytest.raises(ValueError):
        build_kleinberg(Euclidean(np.zeros((4, 2))), 1.0, 1, Seed(0))


@pytest.mark.parametrize("alpha,links,message", [
    (-0.5, 1, "alpha must be >= 0"), (2.0, 0, "links must be >= 1"),
    (2.0, -1, "links must be >= 1")])
def test_kleinberg_refuses_negative_alpha_and_no_links(alpha, links, message):
    with pytest.raises(ValueError, match=message):
        build_kleinberg(Grid((4, 4)), alpha, links, Seed(0))


# ---------------------------------------------------------------------------
# thinning


def test_keep_probability_formula():
    assert edge_keep_probability(math.e**3) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        edge_keep_probability(2)


def test_thinning_preserves_base_only_graph():
    a = Assignment.identity(DirectedCycle(16))
    g = build_double_clustering(a)
    thinned = thin_edges(g, a.space1, Seed(77))
    assert thinned.out_edges == g.out_edges


def test_thinning_rejects_tiny_graphs():
    a = Assignment.identity(DirectedCycle(2))
    g = build_double_clustering(a)
    with pytest.raises(ValueError):
        thin_edges(g, a.space1, Seed(0))


def test_thinning_refuses_a_base_space_of_another_size():
    a = Assignment.identity(DirectedCycle(16))
    g = build_double_clustering(a)
    with pytest.raises(ValueError, match="base space size does not match graph"):
        thin_edges(g, DirectedCycle(15), Seed(0))


@pytest.mark.parametrize("space", [
    UndirectedCycle(40), Grid((6, 5), toric=True), TreeLeaves(3, 3),
    snapped_cloud(np.random.default_rng(5), 60, 2, 4)],
    ids=lambda s: repr(s)[:40])
def test_every_base_graph_reader_shares_one_computation(monkeypatch, space):
    # Kleinberg, thinning and half-greedy's base_neighbors read one cached
    # array: the radius-1 balls, or a cloud's nearest-point search, run
    # for the first reader only
    graph = build_independent_interest(space, Seed(1))
    cloud, searches = isinstance(space, Euclidean), []
    if not cloud:
        method, ball = "ball_members", type(space).ball_members

        def counted(self, centers, radii):
            if np.all(np.equal(radii, 1)):
                searches.append(1)
            return ball(self, centers, radii)
    else:
        method, near = "_near", Euclidean._near

        def counted(self, centers, radii):
            searches.append(1)
            return near(self, centers, radii)
    monkeypatch.setattr(type(space), method, counted)
    readers = [lambda: thin_edges(graph, space, Seed(3)),
               lambda: [space.base_neighbors(x) for x in range(space.n)],
               lambda: thin_edges(graph, space, Seed(4))]
    if space.is_graph_kind:
        readers.insert(0, lambda: build_kleinberg(space, 2.0, 1, Seed(2)))
    readers[0]()
    first = len(searches)
    assert first >= 1 if cloud else first == 1
    for read in readers[1:]:
        read()
    assert len(searches) == first


def test_thinned_mean_nonbase_degree():
    # pre-thinning non-base degree averages H_{n-1} - 1 (marginal law);
    # each survives with probability 1/ln(n)
    n = 1024
    expected = (sum(1 / k for k in range(1, n)) - 1) / math.log(n)
    space = DirectedCycle(n)
    total = 0
    seeds = 20
    for master in range(seeds):
        a = Assignment.random(space, DirectedCycle(n), Seed(master))
        thinned = thin_edges(build_double_clustering(a), space, Seed(master))
        total += sum(len(h) - 1 for h in thinned.out_edges)  # base edge always kept
    assert total / (seeds * n) == pytest.approx(expected, rel=0.10)


def thin_per_vertex(graph, base_space, seed):
    """thin_edges as a loop over vertices: each vertex draws one uniform
    per non-base head, in list order, from its stream ("thin", x)."""
    keep_p = edge_keep_probability(graph.n)
    out = []
    for x in range(graph.n):
        base = set(base_space.base_neighbors(x))
        extras = [h for h in graph.out_edges[x] if h not in base]
        kept = set(h for h in graph.out_edges[x] if h in base)
        if extras:
            u = seed.rng("thin", x).random(len(extras))
            kept.update(h for h, uh in zip(extras, u) if uh < keep_p)
        out.append(sorted(kept))
    return out


def thinning_bases():
    rng = np.random.default_rng(17)
    return [DirectedCycle(3), DirectedCycle(64), UndirectedCycle(4),
            UndirectedCycle(301), Grid((3, 1, 4)), Grid((12, 9)),
            Grid((2, 7), toric=True), Grid((10, 10), toric=True),
            TreeLeaves(2, 2), TreeLeaves(3, 4), snapped_cloud(rng, 24, 2, 3),
            snapped_cloud(rng, 300, 2, 4)]


@pytest.mark.parametrize("base", thinning_bases(), ids=lambda s: repr(s)[:40])
def test_thinning_matches_per_vertex_loop(base):
    n = base.n
    graphs = [build_independent_interest(base, Seed(2))]
    for master in (0, 1):
        graphs.append(build_double_clustering(
            Assignment(base, base, Seed(master).permutation(n))))
    if base.is_graph_kind:
        graphs.append(build_kleinberg(base, 1.5, 3, Seed(3)))
    # lists in reverse order: the draws follow each list's order
    graphs.append(cons.NavGraph(n, [heads[::-1] for heads in graphs[0].out_edges]))
    for master, graph in enumerate(graphs):
        thinned = thin_edges(graph, base, Seed(master))
        assert thinned.out_edges == thin_per_vertex(graph, base, Seed(master))


def test_thinning_deterministic():
    a = Assignment.random(UndirectedCycle(64), UndirectedCycle(64), Seed(5))
    g = build_double_clustering(a)
    t1 = thin_edges(g, a.space1, Seed(9))
    t2 = thin_edges(g, a.space1, Seed(9))
    assert t1.out_edges == t2.out_edges


# ---------------------------------------------------------------------------
# text formats


def test_edge_list_round_trip(tmp_path):
    g = build_double_clustering(double_cycle(6, [3, 1, 4, 0, 5, 2]))
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    text = path.read_text()
    lines = [tuple(map(int, line.split("\t"))) for line in text.splitlines()]
    assert lines == sorted(lines)
    back = read_edge_list(path, DirectedCycle(6))
    assert back.out_edges == g.out_edges


@pytest.mark.parametrize("text,message", [
    ("0\t99\n1\t2\n3\tx\n",
     "{path}:3: expected 'tail<TAB>head' integers, got '3\\tx'"),
    ("0\t99\n1\t2\n-3\t4\n", "edge (0, 99) out of range for n=16"),
    (f"1\t2\n{2**70}\t1\n0\t16\n", f"edge ({2**70}, 1) out of range for n=16"),
    ("0\t1\x0c2\tx\n", "{path}:2: expected 'tail<TAB>head' integers, got '2\\tx'"),
], ids=["syntax-after-range", "first-range", "beyond-int64", "form-feed-line"])
def test_edge_list_refuses_every_syntax_error_before_any_range_error(
        tmp_path, text, message):
    # every line parses before an edge is checked against n, and the first
    # edge out of range in file order is named; lines are numbered as
    # str.splitlines numbers them
    path = tmp_path / "g.edges"
    path.write_text(text)
    with pytest.raises(ValueError) as refused:
        read_edge_list(path, DirectedCycle(16))
    assert str(refused.value) == message.format(path=path)


def test_permutation_parsing(tmp_path):
    path = tmp_path / "pi.txt"
    path.write_text("2 0 1")
    assert list(load_permutation(path)) == [2, 0, 1]
    path.write_text("0 0 1")
    with pytest.raises(ValueError):
        load_permutation(path)
    path.write_text("3 2 1 0\n")
    assert list(load_permutation(path)) == [3, 2, 1, 0]
    # an entry beyond int64 is refused as a non-permutation, never overflows
    path.write_text(f"0 {2**70} 1")
    with pytest.raises(ValueError, match="not a permutation"):
        load_permutation(path)


@pytest.mark.parametrize("text,token", [("0 x 1", "x"), ("0 1.0 2", "1.0"),
                                        ("1 0\n2 -", "-")])
def test_permutation_refuses_a_token_with_its_path(tmp_path, text, token):
    path = tmp_path / "pi.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as refused:
        load_permutation(path)
    assert str(refused.value) == (f"{path}: expected whitespace-separated "
                                  f"integers, got {token!r}")
