from fractions import Fraction

import numpy as np
import pytest

from navgraph.construction import Assignment, Seed, build_double_clustering
from navgraph.harness import build_model
from navgraph.oracle import (DivergenceWitness, MonotonicityViolation,
                             find_divergent_permutation, marginal_edge_law,
                             monotonicity_check, random_disjoint_sets, tau_tail)
from navgraph.routing import Failure, RouteOutcome, RoutingMode, route
from navgraph.spaces import DirectedCycle, Grid, TreeLeaves, UndirectedCycle


# ---------------------------------------------------------------------------
# marginal edge law


def test_marginal_law_exact_at_n6():
    report = marginal_edge_law(6)
    assert report.all_exact
    by_head = {r.head: r for r in report.rows}
    assert by_head[1].probability == Fraction(1, 1)  # nearest always linked
    assert by_head[2].probability == Fraction(1, 2)
    assert by_head[5].probability == Fraction(1, 5)


def test_marginal_law_exact_at_n5():
    report = marginal_edge_law(5)
    for row in report.rows:
        assert row.probability == Fraction(1, row.distance)


def test_marginal_law_refuses_large_n():
    with pytest.raises(ValueError):
        marginal_edge_law(9)
    with pytest.raises(ValueError):
        marginal_edge_law(1)


def test_marginal_law_report_output(tmp_path):
    report = marginal_edge_law(4)
    assert "empirical" in report.table()
    csv_path = tmp_path / "marginal.csv"
    report.write_csv(csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("head,")
    assert len(lines) == 4  # header + heads 1..3


# ---------------------------------------------------------------------------
# monotonicity


def test_monotonicity_n4_exhaustive():
    report = monotonicity_check(4)
    assert report.violations == 0
    assert report.permutations == 24
    assert report.paths_checked == 24 * 12 * 2


def test_monotonicity_n5_exhaustive():
    assert monotonicity_check(5).violations == 0


def test_monotonicity_n6_exhaustive_counts():
    report = monotonicity_check(6)
    assert (report.permutations, report.paths_checked, report.violations) == \
        (720, 43200, 0)


def test_monotonicity_counts_stuck_and_rising_paths(monkeypatch):
    # the double cycle never violates the law, so two routes are replaced:
    # a stuck greedy-2 route under the identity, and a greedy-1 path under
    # pi = (0, 2, 1, 3) that descends in cycle 1 but whose cycle-2
    # distances to pi(3) = 3 read 3, 1, 2, 0
    faked = {((0, 1, 2, 3), "greedy-2", 1, 0): ([1], [], Failure.STUCK),
             ((0, 2, 1, 3), "greedy-1", 0, 3): ([0, 1, 2, 3], [3, 2, 1],
                                                Failure.NONE)}

    def routed(graph, a, mode, source, target):
        key = (tuple(a.pi.tolist()), mode.label, source, target)
        if key in faked:
            return RouteOutcome(source, target, *faked[key])
        return route(graph, a, mode, source, target)

    monkeypatch.setattr("navgraph.oracle.route", routed)
    report = monotonicity_check(4)
    assert (report.permutations, report.paths_checked, report.violations) == \
        (24, 24 * 12 * 2, 2)
    assert report.examples == [
        MonotonicityViolation((0, 1, 2, 3), 1, 0, 2, (1,)),
        MonotonicityViolation((0, 2, 1, 3), 0, 3, 1, (0, 1, 2, 3))]


def test_monotonicity_identity_permutation_follows_cycle():
    a = Assignment.identity(DirectedCycle(6))
    g = build_double_clustering(a)
    out = route(g, a, RoutingMode("greedy-1"), 1, 4)
    assert out.path == [1, 2, 3, 4]


def test_monotonicity_refuses_large_n():
    with pytest.raises(ValueError):
        monotonicity_check(8)


# ---------------------------------------------------------------------------
# divergence witness


def test_no_divergence_at_n3():
    assert find_divergent_permutation(3) is None


def test_divergence_witness_is_the_first_in_lexicographic_order():
    # the first witness scanning n upward and permutations in order
    assert find_divergent_permutation(8) == DivergenceWitness(
        n=4, pi=(0, 1, 3, 2), source=1, target=0,
        path_d=(1, 3, 0), path_dpi=(1, 2, 0))


def test_divergence_witness_found_and_replays():
    witness = find_divergent_permutation(8)
    assert witness is not None
    assert witness.n <= 8
    space = DirectedCycle(witness.n)
    a = Assignment(space, DirectedCycle(witness.n), np.array(witness.pi))
    g = build_double_clustering(a)
    p1 = route(g, a, RoutingMode("greedy-1"), witness.source, witness.target)
    p2 = route(g, a, RoutingMode("greedy-2"), witness.source, witness.target)
    assert tuple(p1.path) == witness.path_d
    assert tuple(p2.path) == witness.path_dpi
    assert p1.path != p2.path
    assert p1.success and p2.success


# ---------------------------------------------------------------------------
# tau tail


def test_tau_is_one_whenever_a_is_singleton():
    report = tau_tail(50, [7], [1, 2, 3], samples=200, seed=Seed(0))
    assert report.tail == [1.0]
    assert report.tau1_probability == 1.0
    assert report.passed


def test_tau_rejects_overlapping_sets():
    with pytest.raises(ValueError):
        tau_tail(50, [1, 2], [2, 3], samples=10, seed=Seed(0))
    with pytest.raises(ValueError):
        tau_tail(50, [1, 1], [3], samples=10, seed=Seed(0))


@pytest.mark.parametrize("a_order,b_set,samples,message", [
    ([], [3], 10, "A and B must be nonempty"),
    ([2], [], 10, "A and B must be nonempty"),
    ([2], [3], 0, "samples must be >= 1"),
    ([2], [3], -5, "samples must be >= 1")])
def test_tau_refuses_empty_sets_and_no_samples(a_order, b_set, samples, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        tau_tail(10, a_order, b_set, samples=samples, seed=Seed(0))


def test_tau_tail_monte_carlo_bounds():
    set_a, set_b = random_disjoint_sets(1000, 100, 100, Seed(5))
    report = tau_tail(1000, set_a, set_b, samples=2000, seed=Seed(5))
    # q = 1 gives p >= 1/2; allow the 3 sigma binomial band
    assert report.q == 1.0
    assert report.tau1_probability >= 0.5 - 3 * report.sigma
    assert report.tail_nonincreasing
    assert report.tail[0] == 1.0


def test_tau_tail_reproducible():
    set_a, set_b = random_disjoint_sets(200, 20, 30, Seed(9))
    r1 = tau_tail(200, set_a, set_b, samples=500, seed=Seed(9))
    r2 = tau_tail(200, set_a, set_b, samples=500, seed=Seed(9))
    assert r1.tail == r2.tail


def test_random_disjoint_sets_disjoint():
    set_a, set_b = random_disjoint_sets(100, 40, 40, Seed(1))
    assert len(set_a) == len(set_b) == 40
    assert not set(set_a) & set(set_b)
    with pytest.raises(ValueError):
        random_disjoint_sets(10, 6, 6, Seed(1))


@pytest.mark.parametrize("sizes", [(-1, 3), (3, -1)])
def test_random_disjoint_sets_refuses_a_negative_size(sizes):
    # a negative size used to shorten the other set: (10, -1, 3) gave
    # ([1], [2])
    with pytest.raises(ValueError, match="set sizes must be >= 0"):
        random_disjoint_sets(10, *sizes, Seed(1))


@pytest.mark.parametrize("a_order,b_set,bad", [
    ([-1, 2], [3], -1), ([2, 10], [3], 10), ([2], [3, -4], -4),
    ([2], [10], 10)])
def test_tau_refuses_ids_outside_the_cycle(a_order, b_set, bad):
    # -1 used to read the permutation's last entry, and n died in numpy's
    # bare IndexError
    with pytest.raises(ValueError) as refused:
        tau_tail(10, a_order, b_set, samples=50, seed=Seed(0))
    assert str(refused.value) == f"vertex id {bad} out of range [0, 10)"


# ---------------------------------------------------------------------------
# mean out-degree


def test_degree_stats_identity_double_cycle():
    # identity pairing: each vertex links to its successor alone
    g = build_double_clustering(Assignment.identity(DirectedCycle(4)))
    assert g.mean_out_degree() == 1.0
    assert g.out_edges == [[1], [2], [3], [0]]


def test_degree_stats_interest_matches_harmonic():
    n = 256
    harmonic = sum(1.0 / k for k in range(1, n))
    means = []
    for master in range(6):
        _, g = build_model("independent-interest",
                           {"space": {"kind": "directed-cycle"}}, n, Seed(master))
        means.append(g.mean_out_degree())
    assert sum(means) / len(means) == pytest.approx(harmonic, rel=0.05)


def test_tree_second_space_inflates_degree():
    # equal-distance tree shells admit whole groups, so grid+tree clustering
    # is denser than grid+cycle at the same size
    n = 256
    seed = Seed(4)
    grid = Grid((16, 16))
    pi = seed.permutation(n)
    with_tree = build_double_clustering(Assignment(grid, TreeLeaves(2, 8), pi))
    with_cycle = build_double_clustering(Assignment(grid, UndirectedCycle(n), pi))
    assert with_tree.mean_out_degree() > with_cycle.mean_out_degree()
