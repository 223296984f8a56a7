"""Brute-force verifiers for the exact small-instance laws.

These run the production builders and routers over exhaustively enumerated
permutations (or seeded Monte Carlo samples) and compare the outcome
against independently stated expectations, using exact integer/rational
arithmetic wherever the claim is exact.  They are cheap enough to run
before trusting any large-scale simulation.  Each exhaustive oracle
computes only what it checks, through the one block loop of
:func:`~navgraph.construction.build_double_clustering`, which puts the
rows of many permutations in one record-kernel call: the marginal law
lists vertex 0's row of each permutation and no other, and the greedy
checks build whole graphs and route on them through
:func:`~navgraph.routing.route`, reading each path's distances from
tables filled once per permutation.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .construction import Assignment, Seed, _chosen_rows, _graphs
from .routing import RoutingMode, route
from .spaces import DirectedCycle, UndirectedCycle, _out_of_range

__all__ = [
    "MarginalLawReport",
    "MonotonicityReport",
    "DivergenceWitness",
    "TauTailReport",
    "marginal_edge_law",
    "monotonicity_check",
    "find_divergent_permutation",
    "tau_tail",
    "random_disjoint_sets",
]

_MAX_MARGINAL_N = 8
_MAX_MONOTONE_N = 7
_MAX_DIVERGENCE_N = 9


def _write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# exact marginal edge law on the double cycle


@dataclass(frozen=True)
class MarginalLawRow:
    head: int
    distance: int
    count: int
    total: int
    probability: Fraction
    expected: Fraction

    @property
    def exact(self) -> bool:
        return self.probability == self.expected


@dataclass
class MarginalLawReport:
    n: int
    rows: list[MarginalLawRow]

    @property
    def all_exact(self) -> bool:
        return all(row.exact for row in self.rows)

    def table(self) -> str:
        lines = [f"double cycle n={self.n}: edge frequency of 0 ~> y over "
                 f"{self.rows[0].total} permutation classes",
                 f"{'y':>3} {'d':>3} {'count':>8} {'empirical':>12} "
                 f"{'expected':>10} ok"]
        for r in self.rows:
            lines.append(f"{r.head:>3} {r.distance:>3} {r.count:>8} "
                         f"{str(r.probability):>12} {str(r.expected):>10} "
                         f"{'yes' if r.exact else 'NO'}")
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, ["head", "distance", "count", "total",
                          "probability", "expected", "exact"],
                   [[r.head, r.distance, r.count, r.total,
                     str(r.probability), str(r.expected), int(r.exact)]
                    for r in self.rows])


def marginal_edge_law(n: int) -> MarginalLawReport:
    """Exhaustively count how often 0 links to each y on the double cycle.

    The edge set is invariant under rotating all permuted positions, so
    enumeration fixes pi(0) = 0 and covers (n-1)! rotation classes; the
    returned frequencies are exact rationals that must equal 1/d(0, y).
    Only vertex 0's row is built for each class, many classes to a
    record-kernel call.
    """
    if not 2 <= n <= _MAX_MARGINAL_N:
        raise ValueError(
            f"exhaustive enumeration supports 2 <= n <= {_MAX_MARGINAL_N}, got {n}")
    space = DirectedCycle(n)
    total = math.factorial(n - 1)
    counts = [0] * n
    perms = ((0,) + tail for tail in itertools.permutations(range(1, n)))
    for (heads,) in _chosen_rows(space, space, perms, [0]):
        for head in heads:
            counts[head] += 1
    rows = [MarginalLawRow(head=y, distance=y, count=counts[y], total=total,
                           probability=Fraction(counts[y], total),
                           expected=Fraction(1, y))
            for y in range(1, n)]
    return MarginalLawReport(n, rows)


# ---------------------------------------------------------------------------
# path monotonicity in both distances


@dataclass(frozen=True)
class MonotonicityViolation:
    pi: tuple[int, ...]
    source: int
    target: int
    routed_space: int
    path: tuple[int, ...]


@dataclass
class MonotonicityReport:
    n: int
    permutations: int
    paths_checked: int
    violations: int
    examples: list[MonotonicityViolation]

    def table(self) -> str:
        head = (f"double cycle n={self.n}: {self.paths_checked} greedy paths over "
                f"{self.permutations} permutations -> {self.violations} "
                "monotonicity violations")
        lines = [head]
        for ex in self.examples[:10]:
            lines.append(f"  pi={ex.pi} {ex.source}->{ex.target} "
                         f"space={ex.routed_space} path={list(ex.path)}")
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, ["n", "permutations", "paths_checked", "violations"],
                   [[self.n, self.permutations, self.paths_checked,
                     self.violations]])


def _double_cycles(space: DirectedCycle):
    """``(pi, assignment, graph)`` for every permutation of ``space``'s ids,
    lexicographically, on the double cycle over ``space``.  The graphs are
    built lazily, chunk by chunk."""
    mine, built = itertools.tee(itertools.permutations(range(space.n)))
    for pi, graph in zip(mine, _graphs(space, space, built)):
        yield pi, Assignment(space, space, np.array(pi, dtype=np.int64)), graph


def _translations(d: np.ndarray) -> list[bytes]:
    """Column t of the distance table ``d[v, t]`` as a ``bytes.translate``
    table, for each t: byte v of a path becomes d[v, t]."""
    table = np.zeros((d.shape[1], 256), dtype=np.uint8)
    table[:, :d.shape[0]] = d.T
    return [row.tobytes() for row in table]


def monotonicity_check(n: int) -> MonotonicityReport:
    """Walk every greedy path of every permutation of the double cycle and
    count violations of strict descent in the *other* cycle's distance
    (full enumeration over all n! permutations).

    Each path is read against a table of the other cycle's distances to
    its target: d(v, t) for greedy-2 paths, one table for every
    permutation, and d(pi v, pi t) for greedy-1 paths, read from the first
    once per permutation.  Ids and distances are below n < 256, so a path's
    distances are its bytes translated through the table's column, and
    they descend strictly iff they spell one of the 2^n strictly
    descending strings over 0..n-1.
    """
    if not 2 <= n <= _MAX_MONOTONE_N:
        raise ValueError(
            f"exhaustive enumeration supports 2 <= n <= {_MAX_MONOTONE_N}, got {n}")
    space = DirectedCycle(n)
    ids = np.arange(n)
    descending = frozenset(
        bytes(c) for k in range(1, n + 1)
        for c in itertools.combinations(range(n - 1, -1, -1), k))
    d = space.distances_between(ids[:, None], ids)
    own = _translations(d)
    mode1, mode2 = RoutingMode("greedy-1"), RoutingMode("greedy-2")
    pairs = list(itertools.permutations(range(n), 2))
    violations = 0
    examples: list[MonotonicityViolation] = []
    for pi, a, graph in _double_cycles(space):
        pos = np.array(pi)
        other = _translations(d[pos[:, None], pos])
        for source, target in pairs:
            for routed, mode, table in (1, mode1, other), (2, mode2, own):
                outcome = route(graph, a, mode, source, target)
                path = outcome.path
                if not (outcome.success and bytes(path).translate(
                        table[target]) in descending):
                    violations += 1
                    if len(examples) < 100:
                        examples.append(MonotonicityViolation(
                            pi, source, target, routed, tuple(path)))
    paths = 2 * len(pairs) * math.factorial(n)
    return MonotonicityReport(n, math.factorial(n), paths, violations, examples)


# ---------------------------------------------------------------------------
# divergence of the two greedy paths


@dataclass(frozen=True)
class DivergenceWitness:
    n: int
    pi: tuple[int, ...]
    source: int
    target: int
    path_d: tuple[int, ...]
    path_dpi: tuple[int, ...]

    def table(self) -> str:
        return (f"n={self.n} pi={list(self.pi)} route {self.source}->{self.target}\n"
                f"  greedy-1 path: {list(self.path_d)}\n"
                f"  greedy-2 path: {list(self.path_dpi)}")

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, ["n", "pi", "source", "target", "path_d", "path_dpi"],
                   [[self.n, " ".join(map(str, self.pi)), self.source,
                     self.target, " ".join(map(str, self.path_d)),
                     " ".join(map(str, self.path_dpi))]])


def find_divergent_permutation(n_max: int) -> DivergenceWitness | None:
    """First (n, pi, source, target) where greedy paths under the two
    distances differ, scanning n upward and permutations lexicographically.

    A witness exists once two intermediate vertices can sit between source
    and target in both cycles with their order swapped, which first happens
    at small n; at n = 3 there is provably none.
    """
    if n_max < 2:
        raise ValueError(f"exhaustive search needs n_max >= 2, got {n_max}")
    if n_max > _MAX_DIVERGENCE_N:
        raise ValueError(f"exhaustive search supports n_max <= {_MAX_DIVERGENCE_N}")
    mode1, mode2 = RoutingMode("greedy-1"), RoutingMode("greedy-2")
    for n in range(2, n_max + 1):
        pairs = list(itertools.permutations(range(n), 2))
        for pi, a, graph in _double_cycles(DirectedCycle(n)):
            for source, target in pairs:
                one = route(graph, a, mode1, source, target).path
                two = route(graph, a, mode2, source, target).path
                if one != two:
                    return DivergenceWitness(n, pi, source, target,
                                             tuple(one), tuple(two))
    return None


# ---------------------------------------------------------------------------
# tail of the first-escape statistic over random circular permutations


@dataclass
class TauTailReport:
    n: int
    k: int
    q: float
    samples: int
    tail: list[float]       # tail[t-1] = P(tau >= t), t = 1..k
    tau1_probability: float
    p_lower: float          # q/(1+q) minus 3 binomial sigma
    sigma: float

    @property
    def tau1_ok(self) -> bool:
        return self.tau1_probability >= self.p_lower

    @property
    def tail_nonincreasing(self) -> bool:
        return all(b <= a for a, b in zip(self.tail, self.tail[1:]))

    @property
    def passed(self) -> bool:
        return self.tau1_ok and self.tail_nonincreasing

    def table(self) -> str:
        lines = [f"tau tail: n={self.n} |A|={self.k} q={self.q:g} "
                 f"samples={self.samples}",
                 f"P(tau=1) = {self.tau1_probability:.4f} "
                 f"(needs >= {self.p_lower:.4f}): "
                 f"{'ok' if self.tau1_ok else 'VIOLATED'}",
                 f"tail nonincreasing: "
                 f"{'ok' if self.tail_nonincreasing else 'VIOLATED'}",
                 "t  P(tau >= t)"]
        for t, p in enumerate(self.tail[:12], start=1):
            lines.append(f"{t:<2} {p:.5f}")
        return "\n".join(lines)

    def write_csv(self, path: str | Path) -> None:
        _write_csv(path, ["t", "tail_probability"],
                   [[t, repr(p)] for t, p in enumerate(self.tail, start=1)])


def random_disjoint_sets(n: int, size_a: int, size_b: int,
                         seed: Seed) -> tuple[list[int], list[int]]:
    """Disjoint vertex samples drawn from the seed's "sets" stream."""
    if size_a < 0 or size_b < 0:
        raise ValueError(f"set sizes must be >= 0, got {size_a} and {size_b}")
    if size_a + size_b > n:
        raise ValueError("set sizes exceed the universe")
    chosen = seed.rng("sets").choice(n, size=size_a + size_b, replace=False)
    return [int(v) for v in chosen[:size_a]], [int(v) for v in chosen[size_a:]]


def tau_tail(n: int, a_order, b_set, samples: int, seed: Seed) -> TauTailReport:
    """Empirical tail of tau over uniform random circular permutations.

    tau is the first index t (in the supplied enumeration a_1..a_k) whose
    permuted position is at least as close to B as to the rest of A, or k
    if that never happens.  Distances are wrap-around on a cycle of n
    positions, read from :class:`~navgraph.spaces.UndirectedCycle`'s kernel.
    Every id must lie in [0, n); the ids are checked once, so each sample
    reads the unchecked kernel at a permutation's entries.
    """
    a_idx = [int(v) for v in a_order]
    b_idx = [int(v) for v in b_set]
    if set(a_idx) & set(b_idx):
        raise ValueError("A and B must be disjoint")
    if not a_idx or not b_idx:
        raise ValueError("A and B must be nonempty")
    if len(set(a_idx)) != len(a_idx) or len(set(b_idx)) != len(b_idx):
        raise ValueError("A and B must not contain duplicates")
    for v in a_idx + b_idx:
        if not 0 <= v < n:
            raise _out_of_range(v, n)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    k = len(a_idx)
    q = len(b_idx) / k
    rng = seed.rng("tau")
    a_arr = np.array(a_idx)
    b_arr = np.array(b_idx)
    circ = UndirectedCycle(n)._between

    tau_counts = np.zeros(k + 1, dtype=np.int64)
    for _ in range(samples):
        perm = rng.permutation(n)
        pos_a = perm[a_arr]
        pos_b = perm[b_arr]
        if k > 1:
            d_aa = circ(pos_a[:, None], pos_a).astype(np.float64)
            np.fill_diagonal(d_aa, np.inf)
            min_a = d_aa.min(axis=1)
        else:
            min_a = np.array([np.inf])
        min_b = circ(pos_a[:, None], pos_b).min(axis=1)
        hits = np.flatnonzero(min_a >= min_b)
        tau = int(hits[0]) + 1 if hits.size else k
        tau_counts[tau] += 1
    # tail[t-1] = P(tau >= t) = 1 - cumulative frequency below t
    tail = [float(p) for p in (samples - np.cumsum(tau_counts)[:-1]) / samples]
    p = q / (1 + q)
    sigma = math.sqrt(p * (1 - p) / samples)
    return TauTailReport(n=n, k=k, q=q, samples=samples, tail=tail,
                         tau1_probability=1.0 - tail[1] if k > 1 else 1.0,
                         p_lower=p - 3 * sigma, sigma=sigma)

