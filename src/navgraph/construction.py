"""Directed graph builders over paired metric spaces.

The central rule links a vertex to every candidate that is at least as
close in the second space as all candidates strictly closer in the first
space.  Ties in the first space form one unordered shell: members of a
shell never constrain each other, and the running second-space minimum is
updated only after the whole shell has been scanned.  One kernel,
``_record_keep``, applies the rule for every builder and size.  Each row's
candidates form two sets, its space-1 prefix ball and the second ball that
the prefix bounds (less the prefix), and each comes nearest first from its
own ball as :meth:`Space.ball_members` lists it, without the row itself,
so no row is its own candidate.  The rule is the same with the two spaces
swapped, so the kernel reads each set in that order and sorts nothing.
Rows go to the kernel in blocks.  A double-clustering row is one chosen
vertex under one permutation: a build lists every vertex of its
permutation, and the exhaustive oracles' enumerations put the rows of many
permutations in one block, every vertex of each for the graphs they route
on and only vertex 0 of each for the marginal law.

All builders are pure functions of their parameters and a :class:`Seed`;
randomness is drawn from per-vertex streams derived from (master seed,
stream label, vertex id), so edge sets do not depend on evaluation order.
The baselines and thinning seed all the streams of their label at once,
in one array pass of :meth:`Seed.streams` that gives each vertex exactly
the draws of ``Seed.rng(label, v)``.  Kleinberg and thinning, which draw
a few uniforms per vertex, draw them from those arrays too: PCG64's step
and output over uint64 halves, one array step per draw index for every
vertex that still draws (:meth:`Streams.uniforms`).  The rest of their
work is array passes over blocks of vertices: Kleinberg's d^-alpha law,
read from a table indexed by the integer distance, its running sums and
one ``searchsorted`` per row; the interest values (held one block of rows
at a time) and their bounds; and the base and kept edges of thinning,
the base edges found by search in their ascending codes.  The Kleinberg
and independent-interest baselines still do O(n) work per vertex.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .spaces import Space, _owner_order

__all__ = [
    "Seed",
    "Streams",
    "Assignment",
    "NavGraph",
    "build_double_clustering",
    "build_independent_interest",
    "build_kleinberg",
    "thin_edges",
    "edge_keep_probability",
    "load_permutation",
    "write_edge_list",
    "read_edge_list",
]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence (pool size and hash constants) and PCG64 (its
# 128-bit LCG multiplier), which Seed.streams reproduces word for word
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI = np.uint64(_PCG_MULT >> 64)
_PCG_MULT_LO = np.uint64(_PCG_MULT & _MASK64)

# candidate entries per block of rows, whichever permutations they belong
# to.  Kleinberg's blocks hold four times as many: its few temporaries per
# entry stay near 1 MiB a block, and fewer blocks cost less per row; the
# other builders hold more temporaries per entry, and 2^15 raised their
# peak memory by 15% on 1024-vertex studies for no clear gain in time
_BLOCK_ENTRIES = 1 << 13
_KLEINBERG_ENTRIES = 1 << 15


def _entropy_words(labels) -> list[int]:
    """The uint32 entropy words of a stream: each string label read as a
    little-endian integer and each integer label masked to 64 bits, each
    split into little-endian uint32 words (0 is one word), as SeedSequence
    splits the plain list of those ints."""
    words: list[int] = []
    for label in labels:
        if isinstance(label, str):
            value = int.from_bytes(label.encode("utf-8"), "little")
        else:
            value = int(label) & _MASK64
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


@dataclass(frozen=True)
class Seed:
    """Master seed plus derived, labelled generator streams.

    Identical (master, labels) always yield the same generator, so any
    computation keyed on per-vertex streams is reproducible regardless of
    scheduling.  :meth:`rng` gives one stream; :meth:`streams` seeds the
    streams (label, v) of many vertices in one array pass, with the same
    draws.
    """

    master: int

    def rng(self, *labels: int | str) -> np.random.Generator:
        # handing SeedSequence the words as an array gives the same pool,
        # and the same stream, without its per-int coercion
        words = _entropy_words((self.master, *labels))
        return np.random.default_rng(
            np.random.SeedSequence(np.array(words, dtype=np.uint32)))

    def streams(self, label: int | str, ids) -> "Streams":
        """The streams ``rng(label, v)`` of every vertex id v in ``ids``.

        Ids must lie in [0, 2^32), so each is one entropy word.
        """
        ids = np.ravel(ids)
        if ids.size and not (0 <= ids.min() and ids.max() <= _MASK32):
            raise ValueError("stream ids must lie in [0, 2^32)")
        return Streams(*_pcg64_seeds(_entropy_words((self.master, label)),
                                     ids.astype(np.uint32)))

    def permutation(self, n: int) -> np.ndarray:
        """The permutation stream used by all double-clustering models."""
        return self.rng("pi").permutation(n)


def _mulhi64(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """The high 64 bits of each 128-bit product ``a * b``, from 32-bit
    halves."""
    low = np.uint64(_MASK32)
    a0, a1 = a & low, a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> np.uint64(32)) + (p01 & low) + (p10 & low)
    return (a1 * b1 + (p01 >> np.uint64(32)) + (p10 >> np.uint64(32))
            + (mid >> np.uint64(32)))


def _pcg64_seeds(prefix: list[int], ids: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The PCG64 state and inc that ``SeedSequence(prefix + [id])`` seeds,
    for each uint32 ``id`` in ``ids``, as uint64 halves: (state high,
    state low, inc high, inc low).

    Every step is fixed uint32 or uint128 arithmetic, so it runs over all
    ids at once: SeedSequence's pool mixing, including the loop for the
    entropy words past the pool, then ``generate_state(4, uint64)``, then
    PCG64's two seeding LCG steps.  Words that do not depend on the id are
    1-element arrays and broadcast.
    """
    entropy = [np.array([w], dtype=np.uint32) for w in prefix] + [ids]
    hash_a = _INIT_A

    def hashmix(value):
        nonlocal hash_a
        value = value ^ np.uint32(hash_a)
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * np.uint32(hash_a)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
        return result ^ (result >> np.uint32(16))

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(entropy)):
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(entropy[src]))
    # generate_state(4, uint64): eight uint32 words, read in little-endian
    # pairs as the 128-bit seed (high word first) and sequence
    hash_b, state = _INIT_B, []
    for i in range(8):
        word = pool[i % _POOL] ^ np.uint32(hash_b)
        hash_b = hash_b * _MULT_B & _MASK32
        word = word * np.uint32(hash_b)
        word ^= word >> np.uint32(16)
        state.append(np.broadcast_to(word, ids.shape).astype(np.uint64))
    seed_hi, seed_lo, seq_hi, seq_lo = (
        state[k] | state[k + 1] << np.uint64(32) for k in range(0, 8, 2))
    # inc = 2 * seq + 1; state = 0 * mult + inc, then + seed, then one
    # more step: (inc + seed) * mult + inc, all mod 2^128
    one = np.uint64(1)
    inc_hi = seq_hi << one | seq_lo >> np.uint64(63)
    inc_lo = seq_lo << one | one
    sum_lo = inc_lo + seed_lo
    sum_hi = inc_hi + seed_hi + (sum_lo < inc_lo)
    return (*_pcg64_step(sum_hi, sum_lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_step(hi, lo, inc_hi, inc_lo) -> tuple[np.ndarray, np.ndarray]:
    """PCG64's LCG step, ``state * mult + inc`` mod 2^128, on uint64
    halves."""
    prod_lo = lo * _PCG_MULT_LO
    prod_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + _mulhi64(lo, _PCG_MULT_LO)
    new_lo = prod_lo + inc_lo
    return prod_hi + inc_hi + (new_lo < prod_lo), new_lo


def _pcg64_double(hi, lo) -> np.ndarray:
    """The uniform that PCG64 outputs from a stepped state: XSL-RR, the
    xor of the halves rotated right by the state's top 6 bits, then its
    top 53 bits times 2^-53, as ``Generator.random`` reads it."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    x = x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))
    return (x >> np.uint64(11)) * (1.0 / (1 << 53))


class Streams:
    """Per-vertex streams of one label, seeded together by
    :meth:`Seed.streams`: each stream's PCG64 state and increment, held
    as uint64 halves.

    ``uniforms(counts)`` draws the first ``counts[k]`` uniforms of every
    stream k at once, in one array step of PCG64 per draw index over the
    streams that still draw.  ``random(k, out)`` fills ``out`` with the
    first uniforms of the k-th stream, exactly as
    ``Seed.rng(label, ids[k]).random(out=out)`` would, through one PCG64
    owned by this object that is set to that stream's start; it serves
    the streams that draw many uniforms each.
    """

    def __init__(self, state_hi, state_lo, inc_hi, inc_lo):
        self._halves = state_hi, state_lo, inc_hi, inc_lo
        self._bits = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bits)

    def uniforms(self, counts) -> np.ndarray:
        """The first ``counts[k]`` uniforms of every stream k, stream after
        stream in one array; an int count holds for every stream."""
        counts = np.broadcast_to(np.asarray(counts, dtype=np.int64),
                                 self._halves[0].shape)
        out = np.empty(int(counts.sum()))
        # the streams in descending order of count, so that those still
        # drawing at each draw index are a prefix
        order = np.argsort(-counts, kind="stable")
        ranked = counts[order]
        starts = (np.cumsum(counts) - counts)[order]
        hi, lo, inc_hi, inc_lo = (half[order] for half in self._halves)
        most = int(ranked[0]) if ranked.size else 0
        active = np.searchsorted(-ranked, -np.arange(most)).tolist()
        for j, a in enumerate(active):
            hi, lo = _pcg64_step(hi[:a], lo[:a], inc_hi[:a], inc_lo[:a])
            out[starts[:a] + j] = _pcg64_double(hi, lo)
        return out

    def random(self, k: int, out: np.ndarray) -> np.ndarray:
        state_hi, state_lo, inc_hi, inc_lo = (
            int(half[k]) for half in self._halves)
        self._bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state_hi << 64 | state_lo,
                      "inc": inc_hi << 64 | inc_lo},
            "has_uint32": 0, "uinteger": 0}
        return self._generator.random(out=out)


@dataclass(frozen=True, eq=False)
class Assignment:
    """Pairing of each vertex with a position in two spaces.

    Vertex ``v`` sits at position ``v`` in ``space1`` and position
    ``pi[v]`` in ``space2``; ``pi`` must be a bijection on [0, n).
    ``spaces[s - 1]`` is space s and ``positions[s - 1][v]`` is ``v``'s
    position there, as a tuple built once with the assignment, so a router
    reads either space the same way.  Each position is the entry of its
    space's id table (:attr:`Space.ids`): space 1's table itself, and space
    2's table read at ``pi``.
    """

    space1: Space
    space2: Space
    pi: np.ndarray
    spaces: tuple[Space, Space] = field(init=False, repr=False)
    positions: tuple[tuple[int, ...], tuple[int, ...]] = field(
        init=False, repr=False)

    def __post_init__(self):
        pi = np.asarray(self.pi, dtype=np.int64).copy()
        n = self.space1.n
        if self.space2.n != n:
            raise ValueError(
                f"space sizes differ: {n} vs {self.space2.n}")
        if pi.shape != (n,) or not np.array_equal(np.sort(pi), np.arange(n)):
            raise ValueError("pi must be a permutation of 0..n-1")
        pi.setflags(write=False)
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "spaces", (self.space1, self.space2))
        object.__setattr__(self, "positions",
                           (tuple(self.space1.ids.tolist()),
                            tuple(self.space2.ids[pi].tolist())))

    @property
    def n(self) -> int:
        return self.space1.n

    @classmethod
    def identity(cls, space1: Space, space2: Space | None = None) -> "Assignment":
        return cls(space1, space2 or space1, np.arange(space1.n))

    @classmethod
    def random(cls, space1: Space, space2: Space, seed: Seed) -> "Assignment":
        return cls(space1, space2, seed.permutation(space1.n))


@dataclass(eq=False)
class NavGraph:
    """Directed adjacency: per-vertex sorted lists of head ids.

    Every builder, :func:`thin_edges` and :func:`read_edge_list` list each
    head as the entry of space 1's id table (:attr:`Space.ids`), so a head
    costs one list slot and refers to the int object that the assignment's
    positions hold too.
    """

    n: int
    out_edges: list[list[int]]

    def edge_count(self) -> int:
        return sum(len(heads) for heads in self.out_edges)

    def mean_out_degree(self) -> float:
        return self.edge_count() / self.n if self.n else 0.0

    def iter_edges(self):
        for tail, heads in enumerate(self.out_edges):
            for head in heads:
                yield tail, head


# ---------------------------------------------------------------------------
# record-selection core shared by the clustering and interest builders


def _runs(first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Starts and lengths of the runs of entries whose first entries
    ``first`` flags (``first[0]`` set)."""
    starts = np.flatnonzero(first)
    lengths = np.empty_like(starts)
    lengths[:-1] = starts[1:] - starts[:-1]
    lengths[-1] = first.size - starts[-1]
    return starts, lengths


def _record_keep(owner: np.ndarray, key: np.ndarray, value: np.ndarray
                 ) -> np.ndarray:
    """The record rule over entries listed in (owner, key) order: entry t
    is kept iff ``value[t]`` is <= the value of every entry of the same
    owner at a strictly smaller key.  The entries of one key form one
    shell, which never constrains itself, so an owner's first shell is
    kept whole."""
    m = owner.size
    if m == 0:
        return np.zeros(0, dtype=bool)
    new_owner = np.empty(m, dtype=bool)
    new_owner[0] = True
    np.not_equal(owner[1:], owner[:-1], out=new_owner[1:])
    new_shell = new_owner.copy()
    new_shell[1:] |= key[1:] != key[:-1]
    shells, shell_lengths = _runs(new_shell)
    if value.dtype.kind == "f":
        # a running minimum per owner, along the rows of a table padded with
        # inf: column p of an owner's row holds the minimum of its first p
        # values, and entry t sits one column past its cell
        firsts, counts = _runs(new_owner)
        width = int(counts.max()) + 1
        cell = np.arange(m) + np.repeat(np.arange(len(firsts)) * width - firsts,
                                        counts)
        table = np.full((len(firsts), width), np.inf)
        table.ravel()[cell + 1] = value
        np.minimum.accumulate(table, axis=1, out=table)
        before = table.ravel()[cell[shells]]
    else:
        # integers: each owner's values shifted wholly below those of the
        # owners before it, so that one running minimum restarts at every
        # owner; the first shell sees a sentinel that no value exceeds
        value = value - owner * (int(value.max()) - int(value.min()) + 1)
        before = np.minimum.accumulate(value)[shells - 1]
        before[0] = value.max()
    return value <= np.repeat(before, shell_lengths)


def _prefix_plan(space: Space) -> tuple[float, int]:
    """Prefix radius and rows per block for the builds.

    The radius is :attr:`Space.prefix_radius`, so each prefix ball holds
    about sqrt(n) candidates and bounds a second ball of about
    n / sqrt(n).  A block holds as many rows as keep its candidate arrays
    near ``_BLOCK_ENTRIES`` entries.
    """
    k = math.isqrt(space.n - 1) + 1
    return space.prefix_radius, max(1, _BLOCK_ENTRIES // (2 * k))


def _block_heads(space1: Space, rows: np.ndarray, radius, prefix, bounded
                 ) -> list[list[int]]:
    """Sorted heads of a block of rows from its two candidate sets, each
    listed per row in its own order.

    ``prefix`` is (owner, member, d1, value): each row's prefix P, the other
    vertices of its space-1 ball, nearest first.  ``bounded`` is (owner,
    member, value): the vertices whose value is within the bound that P
    sets, ascending in value.  Those inside the prefix ball, members of P or
    the row itself (whose interest value is listed, though no ball holds
    it), are dropped; the rest, L, lie farther in space 1 than all of P and
    no farther in value, so only L can block L.  "No candidate is both
    strictly closer and of strictly lower value" reads the same with the two
    orders swapped, so the rule keeps a member of P whose value is <= that
    of every closer member, and a member of L whose d1 is <= that of every
    member of lower value.
    """
    owner1, member1, d1, value1 = prefix
    owner2, member2, value2 = bounded
    d1_2 = space1.distances_between(rows[owner2], member2)
    later = d1_2 > radius
    owner2, member2 = owner2[later], member2[later]
    keep1 = _record_keep(owner1, d1, value1)
    keep2 = _record_keep(owner2, value2[later], d1_2[later])
    n = space1.n
    codes = np.concatenate((owner1[keep1] * n + member1[keep1],
                            owner2[keep2] * n + member2[keep2]))
    return _split_rows(np.sort(codes), len(rows), space1.ids)


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct codes, ascending: one sort, then the first of each run
    of equal codes.  (numpy 2's ``np.unique`` hashes the codes before it
    sorts them, which costs many times the sort.)"""
    codes = np.sort(codes)
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


def _split_rows(codes: np.ndarray, rows: int, ids: np.ndarray
                ) -> list[list[int]]:
    """The lists of ``rows`` rows from ascending codes ``row * n + head``,
    each head the entry of the id table ``ids`` of n ids."""
    # row bounds once, the heads read from the table, then a list slice
    # per row
    span = len(ids)
    ends = np.searchsorted(codes, np.arange(rows + 1) * span).tolist()
    flat = ids[codes % span].tolist()
    return [flat[ends[k]:ends[k + 1]] for k in range(rows)]


def _chosen_rows(space1: Space, space2: Space, perms, vertices):
    """The sorted heads of each vertex in ``vertices`` on the
    double-clustering graph of each permutation in ``perms``, in order:
    one list of rows per permutation, from the pruned candidates of
    :func:`build_double_clustering`.

    Row ``p*m + k`` is ``vertices[k]`` under permutation p (m vertices);
    each block of rows from :func:`_prefix_plan` is one record-kernel
    call, however many permutations it spans.  ``perms`` is read a
    block's worth of whole permutations at a time, so a caller that stops
    early pays only for the chunks it took.
    """
    n = space1.n
    chosen = np.asarray(vertices, dtype=np.int64)
    m = len(chosen)
    radius, block = _prefix_plan(space1)
    perms = iter(perms)
    while chunk := list(itertools.islice(perms, max(1, block // m))):
        pis = np.array(chunk, dtype=np.int64).reshape(len(chunk), n)
        # a vertex's space-2 position, and a position's vertex (the inverse)
        pos, vertex = pis.ravel(), np.argsort(pis, axis=1).ravel()
        out = []
        for start in range(0, len(chunk) * m, block):
            rows = np.arange(start, min(len(chunk) * m, start + block))
            verts = chosen[rows % m]
            base = rows // m * n  # entry of each row's permutation's vertex 0
            here = pos[base + verts]  # each row's own space-2 position
            owner1, member1, d1 = space1.ball_members(verts, radius)
            value1 = space2.distances_between(here[owner1],
                                              pos[base[owner1] + member1])
            bound = np.full(len(rows), np.inf)
            # (float values: ufunc.at scatters them far faster than int64)
            np.minimum.at(bound, owner1, value1.astype(np.float64))
            owner2, pos2, value2 = space2.ball_members(here, bound)
            out += _block_heads(space1, verts, radius,
                                (owner1, member1, d1, value1),
                                (owner2, vertex[base[owner2] + pos2], value2))
        for p in range(len(chunk)):
            yield out[p * m:(p + 1) * m]


def _graphs(space1: Space, space2: Space, perms):
    """The double-clustering graph of each permutation in ``perms``, in
    order: :func:`_chosen_rows` over every vertex."""
    n = space1.n
    for rows in _chosen_rows(space1, space2, perms, range(n)):
        yield NavGraph(n, rows)


# ---------------------------------------------------------------------------
# builders


def build_double_clustering(assignment: Assignment) -> NavGraph:
    """Link i -> j iff j is at least as close in space 2 as every vertex
    strictly closer than j in space 1 (vacuously true for the nearest
    shell, so the base adjacency of both spaces is always contained).

    Each row needs only a few candidates.  Let P be the whole space-1 ball
    of the prefix radius around i (i left out) and M the smallest space-2
    distance from i over P.  Every j outside P has all of P strictly closer
    in space 1, so it is kept only if d2(i, j) <= M; and a vertex outside
    both P and the space-2 ball of radius M is never kept and, at d2 > M,
    never lowers the minimum that decides another candidate.  The rule
    applied to P and that ball therefore gives the same heads as applied
    to all n vertices.
    """
    return next(_graphs(assignment.space1, assignment.space2, [assignment.pi]))


def build_independent_interest(space: Space, seed: Seed) -> NavGraph:
    """Link x -> y iff x's i.i.d. Uniform(0,1) interest in y beats its
    interest in every strictly closer vertex.

    Uniform values are the simplest exchangeable family with no ties; each
    vertex draws its n values from its own stream ("ii", x).  Candidates
    are pruned as in :func:`build_double_clustering`, with the space-2 ball
    replaced by the vertices whose interest is at least the prefix's
    largest, which are sorted on their interest, the order in which the
    record kernel reads them.  Values are held one block of rows at a
    time, the block that :func:`_prefix_plan` sizes for the record kernel:
    (block rows x n) floats, 1 MiB at n = 2^10 and 8 MiB at 2^16.
    """
    n = space.n
    radius, block = _prefix_plan(space)
    streams = seed.streams("ii", np.arange(n))
    out = []
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        owner1, member1, d1 = space.ball_members(rows, radius)
        values = np.empty((len(rows), n))
        for k, i in enumerate(rows.tolist()):
            streams.random(i, values[k])
        # keep iff interest >= running max  <=>  -interest <= running min
        np.negative(values, out=values)
        value1 = values[owner1, member1]
        bound = np.zeros(len(rows))
        np.minimum.at(bound, owner1, value1)
        kept = np.flatnonzero(values <= bound[:, None])
        owner2, member2, value2 = kept // n, kept % n, values.ravel()[kept]
        order = _owner_order(owner2, value2)
        out += _block_heads(space, rows, radius, (owner1, member1, d1, value1),
                            (owner2[order], member2[order], value2[order]))
    return NavGraph(n, out)


def _candidate_distances(space: Space, rows: np.ndarray) -> np.ndarray:
    """(len(rows), n - 1) array: each row's distances to every y != x in
    ascending order of y, for the row's vertex x."""
    d = space.distances_from(rows)
    # column j is y = j below x and y = j + 1 from x on
    return np.where(np.arange(space.n - 1) < rows[:, None], d[:, :-1], d[:, 1:])


def _link_weights(space: Space, alpha: float) -> np.ndarray:
    """d^-alpha at every integer distance d up to the diameter, indexed by
    d; entry 0 is never read, since no vertex is its own candidate."""
    weights = np.zeros(space.diameter() + 1)
    weights[1:] = np.arange(1, len(weights), dtype=np.float64) ** -alpha
    return weights


def _link_probabilities(d: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Rows of d^-alpha, read from the table ``weights``, each normalized
    by its exact sum."""
    probs = weights[d]
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def build_kleinberg(space: Space, alpha: float, links: int, seed: Seed) -> NavGraph:
    """Base-graph edges plus `links` long-range heads per vertex, sampled
    independently with probability proportional to distance^-alpha.
    Duplicate draws collapse.

    Vertex x's draws are ``Generator.choice(cand, size=links, p=probs)``
    on its stream ("kleinberg", x), where ``cand`` lists every y != x in
    ascending order and ``probs`` their d(x, y)^-alpha normalized by exact
    summation.  Every stream's uniforms are drawn at once
    (:meth:`Streams.uniforms`), and a block of rows, as many as keep their
    candidates near ``_KLEINBERG_ENTRIES``, computes the rest as
    ``choice`` does: the running sums of the probabilities divided by
    their last, and each uniform's candidate the number of those sums at
    most it, found by ``searchsorted``.
    """
    if not space.is_graph_kind:
        raise ValueError("lattice augmentation needs a graph-kind space")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if links < 1:
        raise ValueError("links must be >= 1")
    n = space.n
    if n == 1:
        return NavGraph(n, [[]])
    base = space.base_codes
    weights = _link_weights(space, alpha)
    u = seed.streams("kleinberg", np.arange(n)).uniforms(links).reshape(n, links)
    block = max(1, _KLEINBERG_ENTRIES // n)
    out: list[list[int]] = []
    for start in range(0, n, block):
        rows = np.arange(start, min(n, start + block))
        cdf = _link_probabilities(_candidate_distances(space, rows), weights)
        np.cumsum(cdf, axis=1, out=cdf)
        cdf /= cdf[:, -1:]
        draws = np.array([row.searchsorted(v, side="right")
                          for row, v in zip(cdf, u[start:start + len(rows)])])
        # candidate -> id
        draws += draws >= rows[:, None]
        lo, hi = np.searchsorted(base, (start * n, (start + len(rows)) * n))
        codes = np.concatenate((base[lo:hi], (rows[:, None] * n + draws).ravel()))
        out += _split_rows(_distinct(codes) - start * n, len(rows), space.ids)
    return NavGraph(n, out)


def edge_keep_probability(n) -> float:
    """Thinning keep probability 1/ln(n)."""
    if n <= math.e:
        raise ValueError("thinning needs n with ln(n) > 1")
    return 1.0 / math.log(n)


def thin_edges(graph: NavGraph, base_space: Space, seed: Seed) -> NavGraph:
    """Keep each non-base edge independently with probability 1/ln(n).

    Base-neighbor edges are always kept: thinning is meant to bound degree,
    and removing base edges would break greedy termination guarantees.
    Vertex x draws one uniform from its stream ("thin", x) per non-base
    head, in the order of its list, and keeps the heads whose uniform is
    below the keep probability, which refuses n <= 2.  Every vertex that
    draws draws at once (:meth:`Streams.uniforms`).
    """
    n = graph.n
    if base_space.n != n:
        raise ValueError("base space size does not match graph")
    keep_p = edge_keep_probability(n)
    degrees = np.fromiter(map(len, graph.out_edges), dtype=np.int64, count=n)
    # each edge's code tail * n + head: the heads, then each row's tail * n
    codes = np.fromiter(itertools.chain.from_iterable(graph.out_edges),
                        dtype=np.int64, count=int(degrees.sum()))
    codes += np.repeat(np.arange(0, n * n, n), degrees)
    # base edges by search in their ascending codes
    base = np.append(base_space.base_codes, -1)
    keep = base[np.searchsorted(base[:-1], codes)] == codes
    extras = np.flatnonzero(~keep)
    counts = np.bincount(codes[extras] // n, minlength=n)
    drawing = np.flatnonzero(counts)
    u = seed.streams("thin", drawing).uniforms(counts[drawing])
    keep[extras[u < keep_p]] = True
    return NavGraph(n, _split_rows(_distinct(codes[keep]), n, base_space.ids))


# ---------------------------------------------------------------------------
# text formats


def _plain(text: str) -> bool:
    """Whether ``int`` reads each whitespace-separated token of ``text``
    only as ASCII digits with an optional leading '-': ``text`` is ASCII
    and holds no '+' and no '_'.  Any other token ``int`` refuses."""
    return text.isascii() and "+" not in text and "_" not in text


def load_permutation(path: str | Path) -> np.ndarray:
    """The permutation a file of whitespace-separated integers lists, each
    ASCII digits with an optional leading '-'; any other token is refused
    with the file's path."""
    # compared as Python ints, so that no entry overflows int64 unchecked
    values = []
    for tok in Path(path).read_text(encoding="utf-8", errors="replace").split():
        try:
            if not _plain(tok):
                raise ValueError
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"{path}: expected whitespace-separated "
                             f"integers, got {tok!r}") from None
    if sorted(values) != list(range(len(values))):
        raise ValueError("input is not a permutation of 0..n-1")
    return np.array(values, dtype=np.int64)


def write_edge_list(graph: NavGraph, path: str | Path) -> None:
    """One `tail<TAB>head` line per edge, sorted by (tail, head), written
    a vertex's lines at a time."""
    with open(path, "w") as fh:
        for tail, heads in enumerate(graph.out_edges):
            fh.writelines(f"{tail}\t{head}\n" for head in heads)


def read_edge_list(path: str | Path, space: Space) -> NavGraph:
    """The graph over ``space``'s ids of a file of `tail<TAB>head` lines.

    Blank lines are skipped, and a line of any other form than two ASCII
    integers (digits with an optional leading '-') is refused with its path
    and number; a byte that is not UTF-8 reads as U+FFFD, refused so.  Once
    every line has parsed, the first edge out of range for ``space.n`` is
    refused; self-loops and repeated edges are dropped.
    The file is read 2^20 characters at a time into one int64 array of
    edge codes ``tail * n + head``, whose heads become entries of the
    space's id table (:attr:`Space.ids`).
    """
    n = space.n
    codes, outside, number, rest = array("q"), None, 0, ""
    append = codes.append
    with open(path, encoding="utf-8", errors="replace") as fh:
        while True:
            chunk = fh.read(1 << 20)
            # the whole lines read so far, split as str.splitlines splits
            # the file (vertical tabs and form feeds end lines too); a
            # partial last line waits for the next chunk
            text = rest + chunk
            end = text.rfind("\n") + 1 if chunk else len(text)
            text, rest = text[:end], text[end:]
            # a plain chunk needs no check per line
            plain = _plain(text)
            for line in text.splitlines():
                number += 1
                fields = line.split()
                if not fields:
                    continue
                try:
                    if not (plain or _plain(line)):
                        raise ValueError
                    tail, head = map(int, fields)
                except ValueError:
                    raise ValueError(f"{path}:{number}: expected "
                                     "'tail<TAB>head' integers, got "
                                     f"{line.strip()!r}") from None
                if 0 <= tail < n and 0 <= head < n:
                    append(tail * n + head)
                elif outside is None:
                    outside = tail, head
            if not chunk:
                break
    if outside is not None:
        raise ValueError(f"edge ({outside[0]}, {outside[1]}) out of range "
                         f"for n={n}")
    codes = np.frombuffer(codes, dtype=np.int64)
    codes = _distinct(codes[codes // n != codes % n])
    return NavGraph(n, _split_rows(codes, n, space.ids))
