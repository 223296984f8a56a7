"""Finite metric spaces used as routing substrates.

Every space is a universe of ``n`` points addressed by integer ids
``0..n-1`` and exposes a distance kernel ``d(x, y)``.  The kernel is
nonnegative, zero exactly on the diagonal, and satisfies the triangle
inequality, but it is *not* required to be symmetric (the directed cycle
is the canonical asymmetric case).  Graph-like kinds (cycles and grids)
return exact integer distances; the point-cloud kind returns floats.

Each kind computes the kernel in two forms that agree bit for bit: the
pairwise array form, :meth:`Space.distances_between`, for builders and
balls, and one scalar form, :meth:`Space.distance_to`, which prepares a
target once and then reads one distance per call, for routers that visit
a few vertices per step.  Rows, :meth:`Space.distances_from`, are the
pairwise kernel broadcast over every id, for one source or for a 1-D array
of sources (one row each), so that builders read a block of rows in one
call.  Euclidean overrides rows to read whole coordinate columns with no
gather, and Grid to broadcast-add each source's per-axis distances over
the grid's shape, one pass over the rows.

The grid states its axis metric once, in one table per axis: the
distance along the axis across a coordinate difference k, k on a clipped
axis and min(k, L - k) on a toric one.  Every kernel form, the ball sizes
and the diameter read those tables; only balls, which enumerate a window
of each axis, state the wrap again.

Each scalar read is Python arithmetic on Python numbers, with no numpy
call and no nested call: a cycle reads one difference; a grid adds one
entry per axis of its lists of distances from the target's coordinate,
unrolled on a 2-D grid; a 2-D or 3-D point cloud reads its coordinates
unrolled and other clouds loop over their axes; tree leaves read the bit
length of ``v ^ y`` over s bits a digit, rounded up, when the branching
is 2^s (a tree holds at most 2^53 leaves, so float64 reads ``x ^ y``
exactly), and compare subtrees level by level for any other branching.

Each space holds one table of its ids as Python ints, :attr:`Space.ids`,
built once, and every id list the program holds reads its entries from
that table: the heads of every graph over the space, the positions an
assignment reads there and the base neighbours listed below.  An id list
then costs one pointer per entry, and the process holds n int objects per
space however many edges refer to them.

Ids are checked once per call, where they enter: the pairwise form checks
both of its arguments and rows check their sources, then call each kind's
unchecked pairwise kernel, ``_between``; balls check their centers, and
the scalar forms check the target when they prepare it and each vertex
they are asked about.

Base adjacency is stated once per kind, by :attr:`Space.base_codes`: every
base edge, computed once, as ascending codes ``tail * n + head``; the ball
of radius 1 on the kinds with integer distances, each point's nearest
other points on a point cloud.  Builders and thinning read the codes as
they are; :meth:`Space.base_neighbors` reads one vertex's run of them, for
the half-greedy router's small steps.

Balls are listed by :meth:`Space.ball_members`, exactly in every kind,
each nearest first, with every member's distance and without its center:
no vertex is its own candidate or base neighbour, and coincident cloud
points, other vertices at distance 0, lie in each other's balls.  The
cycles (an arc), the grid (an L1 diamond, wrapped or clipped per axis) and
tree leaves (the leaves of one subtree) list them in closed form: their
distances are integers, so a radius r reaches exactly the vertices at
distance <= floor(r), and the closed form generates exactly those
vertices rather than estimating a volume.  Point clouds have no such
form; their balls are read through a uniform cell index (Bentley, Stanat
and Williams, 1977): the points bucketed into cubes whose side is half
the cloud's prefix radius, so a ball reads only the cells its bounding box
touches and decides membership on the exact distances of their points.
The cycles and tree leaves generate each ball nearest first; the grid and
point clouds sort each ball on the distances they computed.

Ball sizes around one center are counted by :meth:`Space.prepare_target`,
which prepares a target once for combined routing: it returns the scalar
kernel toward the target and a counter ``r -> |ball of radius r|`` around
it, center counted, the size the combined rule compares.  The integer
kinds share one counter, stated once on the base class, so a route pays
nothing per vertex of the space: it checks and floors the radius and reads
the kind's table of ball sizes at each integer radius up to the target's
largest distance, and counts every vertex from there on.
Each kind supplies only its table: the arc lengths 1, 2, 3, ... on the
directed cycle and 1, 3, 5, ... on the undirected one, the subtree widths
b^k on tree leaves (one table per tree), and on the grid the running sum
of the shell counts: per axis, how many coordinates lie at each distance
from the target's (a bincount of the list its scalar read uses),
convolved across axes.  A point cloud computes the target's row once,
reads its distances from that array and counts a ball by comparing the
array with the radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, reduce
import numpy as np

__all__ = [
    "Space",
    "DirectedCycle",
    "UndirectedCycle",
    "Grid",
    "TreeLeaves",
    "Euclidean",
]


# points per call of the cell index when every point's nearest are found
_NEAREST_BLOCK = 256


def _out_of_range(x, n: int) -> ValueError:
    return ValueError(f"vertex id {x} out of range [0, {n})")


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, value) listing starts[k], ..., starts[k] + counts[k] - 1 for
    every k in turn, each value tagged with its k."""
    owner = np.repeat(np.arange(len(counts)), counts)
    # entry t, of k, is starts[k] + t - (the index of k's first entry)
    shift = np.cumsum(counts) - counts - starts
    return owner, np.arange(owner.size) - shift[owner]


def _owner_order(owner: np.ndarray, key: np.ndarray) -> np.ndarray:
    """The order that lists entries by owner, then by key, ties in any
    order: one sort on the keys, then a stable one on the owners in the
    smallest dtype that holds them, which numpy sorts by radix up to 16
    bits."""
    order = np.argsort(key)
    small = owner[order].astype(np.min_scalar_type(owner.max(initial=0)))
    return order[np.argsort(small, kind="stable")]


def _bad_radius(r) -> ValueError:
    return ValueError(f"radius must be >= 0, got {r}")


def _norms(diffs) -> np.ndarray:
    """L2 norms from one fresh array (or scalar) of differences per
    coordinate, their squares summed in coordinate order: the arithmetic of
    :meth:`Euclidean.distance_to`, at every dimension.  Arrays are squared
    in place and summed into the first square; 0.0 + s is s for any square
    s, so the sum starting there changes no bit."""
    total = None
    for diff in diffs:
        diff *= diff
        if total is None:
            total = diff
        else:
            total += diff
    return np.sqrt(0.0 if total is None else total)


class Space:
    """Base interface: a distance kernel plus ball counting over ids."""

    kind: str = "abstract"
    is_graph_kind: bool = False

    n: int

    # -- kernel -----------------------------------------------------------

    def distance_to(self, y: int):
        """The kernel toward ``y``: a function ``v -> distance(v, y)``.

        Each call equals ``distances_from(v)[y]`` bit for bit (an int for
        the kinds with integer distances) and raises ValueError for an
        out-of-range ``v``; the work that depends only on ``y`` is done
        once, here.
        """
        raise NotImplementedError

    def distances_from(self, x) -> np.ndarray:
        """Vector of ``distance(x, y)`` for every ``y``; for a 1-D array of
        sources, one such row per source: the pairwise kernel broadcast
        over every id."""
        return self._between(self._sources(x), np.arange(self.n))

    def distances_between(self, xs, ys) -> np.ndarray:
        """Array of ``distance(xs[k], ys[k])`` for every k, each entry
        equal, bit for bit, to the matching entry of :meth:`distances_from`;
        ``xs`` and ``ys`` broadcast against each other."""
        return self._between(self._check_vertices(xs), self._check_vertices(ys))

    def _between(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The pairwise kernel on int64 arrays of checked ids."""
        raise NotImplementedError

    # -- adjacency and balls ----------------------------------------------

    @cached_property
    def ids(self) -> np.ndarray:
        """Every id as a Python int, in an object array built once:
        ``ids[idx].tolist()`` lists the ids at ``idx`` as the table's own
        int objects, so every id list built that way shares them.  The
        table is read-only."""
        ids = np.arange(self.n).astype(object)
        ids.setflags(write=False)
        return ids

    def base_neighbors(self, x: int) -> list[int]:
        """Base-graph neighbors of ``x``, ascending: its run of
        :attr:`base_codes`, as a new list of entries of :attr:`ids`."""
        self._check_vertex(x)
        bounds, heads = self._base_view
        return heads[bounds[x]:bounds[x + 1]]

    @cached_property
    def _base_view(self) -> tuple[list[int], list[int]]:
        # base_codes as Python lists, built on the first base_neighbors
        # call: vertex x's heads are heads[bounds[x]:bounds[x + 1]]
        n, codes = self.n, self.base_codes
        bounds = np.searchsorted(codes, np.arange(0, n * n + 1, n))
        return bounds.tolist(), self.ids[codes % n].tolist()

    @cached_property
    def base_codes(self) -> np.ndarray:
        """Every base-graph edge at once, computed once: ascending codes
        ``tail * n + head``, with no self-loop.

        This version serves the kinds with integer distances, whose base
        neighbors are the other vertices at distance 1: the ball of
        radius 1.
        """
        n = self.n
        owner, member, _ = self.ball_members(np.arange(n), 1)
        return np.sort(owner * n + member)

    def ball_members(self, centers, radii
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every ``y != centers[k]`` with ``distance(centers[k], y) <=
        radii[k]``, for every k (another id at distance 0 included).

        Returns ``(owner, member, distance)`` arrays: ``member[t]`` lies in
        the ball around ``centers[owner[t]]``, and ``distance[t]`` equals
        ``distances_between(centers[owner[t]], member[t])`` bit for bit.
        Owners ascend, and each owner's members come nearest first;
        members at equal distance come in no promised order.  ``radii``
        broadcasts against ``centers`` and may be infinite.
        """
        raise NotImplementedError

    @cached_property
    def prefix_radius(self):
        """Distance from vertex n // 2 to its ceil(sqrt(n))-th nearest other
        vertex, so that a ball of this radius holds about sqrt(n) vertices."""
        n = self.n
        k = min(n - 1, math.isqrt(n - 1) + 1)
        return np.partition(self.distances_from(n // 2), k)[k]

    def prepare_target(self, y: int):
        """Distances toward ``y`` and ball sizes around it, prepared once.

        Returns ``(dist, count)``: ``dist(v)`` equals ``distance_to(y)(v)``
        bit for bit, and ``count(r)`` is ``|{u : distance(y, u) <= r}|``,
        the closed ball with y counted, for any ``r >= 0``, infinity
        included; a negative or NaN ``r`` raises ValueError.

        This version serves the kinds with integer distances: one counter
        reads the kind's table of ball sizes, :meth:`_ball_sizes`, at
        floor(r), and counts all n vertices from y's largest distance on.
        """
        dist, sizes, n = self.distance_to(y), self._ball_sizes(y), self.n
        last = len(sizes) - 1

        def count(r) -> int:
            if not r >= 0:
                raise _bad_radius(r)
            return sizes[int(r)] if r < last else n
        return dist, count

    def _ball_sizes(self, y: int):
        """``sizes[k]``, the size of the ball of radius k around the
        checked ``y``, for every integer k up to y's largest distance."""
        raise NotImplementedError

    def diameter(self):
        """Maximum kernel distance between any ordered pair, in closed form
        on the kinds with integer distances; a point cloud has none."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def _check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise _out_of_range(x, self.n)

    def _sources(self, x) -> np.ndarray:
        """``x`` checked, as int64: an id as a 0-d array, or a 1-D array of
        ids as a column, against which a row of every id broadcasts."""
        if np.ndim(x) == 0:
            self._check_vertex(x)
            return np.asarray(x, dtype=np.int64)
        return self._check_vertices(x)[:, None]

    def _check_vertices(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and not (0 <= xs.min() and xs.max() < self.n):
            raise _out_of_range(xs[(xs < 0) | (xs >= self.n)][0], self.n)
        return xs

    def _ball_args(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        centers = self._check_vertices(np.atleast_1d(centers))
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), centers.shape)
        if not np.all(radii >= 0):
            raise _bad_radius(radii[~(radii >= 0)][0])
        return centers, radii

    def _ball_steps(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """Centers and, for integer distances, the largest distance each
        radius reaches, capped at the diameter."""
        centers, radii = self._ball_args(centers, radii)
        return centers, np.floor(np.minimum(radii, self.diameter())).astype(np.int64)


@dataclass(frozen=True)
class DirectedCycle(Space):
    """n vertices on a cycle with forward distance (y - x) mod n.

    The kernel is asymmetric: d(x, y) + d(y, x) = n for x != y.
    """

    n: int

    kind = "directed-cycle"
    is_graph_kind = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cycle needs n >= 1")

    def distance_to(self, y: int):
        self._check_vertex(y)
        n = self.n

        def d(v: int) -> int:
            if not 0 <= v < n:
                raise _out_of_range(v, n)
            return (y - v) % n
        return d

    def _between(self, xs, ys) -> np.ndarray:
        return (ys - xs) % self.n

    def ball_members(self, centers, radii):
        # the forward arc x+1, ..., x+r, nearest first as it stands
        centers, steps = self._ball_steps(centers, radii)
        owner, ahead = _ranges(np.ones_like(steps), steps)
        return owner, (centers[owner] + ahead) % self.n, ahead

    def _ball_sizes(self, y: int):
        # the forward arc y, ..., y + k
        return range(1, self.n + 1)

    def diameter(self) -> int:
        return self.n - 1


@dataclass(frozen=True)
class UndirectedCycle(Space):
    """n vertices on a cycle with wrap-around distance min(|x-y|, n-|x-y|)."""

    n: int

    kind = "undirected-cycle"
    is_graph_kind = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cycle needs n >= 1")

    def distance_to(self, y: int):
        self._check_vertex(y)
        n, half = self.n, self.n // 2

        def d(v: int) -> int:
            if not 0 <= v < n:
                raise _out_of_range(v, n)
            a = v - y if v >= y else y - v
            return a if a <= half else n - a
        return d

    def _between(self, xs, ys) -> np.ndarray:
        a = np.abs(xs - ys)
        return np.minimum(a, self.n - a)

    def ball_members(self, centers, radii):
        # the arc x-r, ..., x+r nearest first: x-1, x+1, x-2, x+2, ...,
        # entry t at (t + 1) // 2 steps, behind x for odd t; entries 1 to
        # n - 1 cover the rest of the cycle once 2r+1 >= n
        centers, steps = self._ball_steps(centers, radii)
        owner, t = _ranges(np.ones_like(steps), np.minimum(2 * steps, self.n - 1))
        d = (t + 1) >> 1
        return owner, (centers[owner] + np.where(t & 1, -d, d)) % self.n, d

    def _ball_sizes(self, y: int):
        # the arc y - k, ..., y + k; at the half cycle it covers the whole
        # cycle, counted as n rather than read (2k + 1 is n + 1 for even n)
        return range(1, 2 * (self.n // 2) + 2, 2)

    def diameter(self) -> int:
        return self.n // 2


@dataclass(frozen=True)
class Grid(Space):
    """Axis-aligned lattice with L1 distance, optionally toric per axis."""

    dims: tuple[int, ...]
    toric: bool = False

    kind = "grid"
    is_graph_kind = True

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"grid dims must be positive, got {self.dims}")

    @cached_property
    def n(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        # one array of coordinates per axis, row-major: vertex id =
        # np.ravel_multi_index(coord, dims); gathers read these far faster
        # than rows of an (n, dims) array
        return tuple(c.astype(np.int64)
                     for c in np.unravel_index(np.arange(self.n), self.dims))

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        # row-major: vertex id = sum of coord[axis] * _strides[axis]
        return tuple(math.prod(self.dims[axis + 1:]) for axis in range(len(self.dims)))

    @cached_property
    def _coord_rows(self) -> list[list[int]]:
        return np.column_stack(self._columns).tolist()

    @cached_property
    def _offsets(self) -> tuple[np.ndarray, ...]:
        """Per axis, the distance along it across each coordinate
        difference k = 0..L-1: k on a clipped axis, min(k, L - k) on a
        toric one."""
        return tuple(np.minimum(k, len(k) - k) if self.toric else k
                     for k in map(np.arange, self.dims))

    def _axis_distances(self, y: int) -> list[list[int]]:
        """Per axis, the distance along it from y's coordinate c to each
        coordinate: the axis's offset table read back from c to 1, then
        forward from 0."""
        return [t[c:0:-1] + t[:len(t) - c]
                for t, c in zip(map(np.ndarray.tolist, self._offsets),
                                self._coord_rows[y])]

    def distance_to(self, y: int):
        self._check_vertex(y)
        n, rows, tables = self.n, self._coord_rows, self._axis_distances(y)
        if len(tables) == 2:
            t0, t1 = tables

            def d(v: int) -> int:
                if not 0 <= v < n:
                    raise _out_of_range(v, n)
                v0, v1 = rows[v]
                return t0[v0] + t1[v1]
            return d

        def d(v: int) -> int:
            if not 0 <= v < n:
                raise _out_of_range(v, n)
            return sum(map(list.__getitem__, tables, rows[v]))
        return d

    def distances_from(self, x) -> np.ndarray:
        # per axis, each source's offset table read at its difference from
        # every coordinate of the axis; the rows are those tables
        # broadcast-added over the grid's shape
        x = self._sources(x)
        sources = x.reshape(-1, 1)
        shape = [len(sources)] + [1] * len(self.dims)
        total = None
        for axis, (table, column) in enumerate(zip(self._offsets, self._columns)):
            offset = table[np.abs(np.arange(len(table)) - column[sources])]
            shape[axis + 1] = len(table)
            offset = offset.reshape(shape)
            shape[axis + 1] = 1
            total = offset if total is None else total + offset
        return total.reshape(x.shape[:-1] + (self.n,))

    def _between(self, xs, ys) -> np.ndarray:
        return sum(table[np.abs(column[ys] - column[xs])]
                   for table, column in zip(self._offsets, self._columns))

    def ball_members(self, centers, radii):
        # the L1 diamond, one axis at a time: each partial member spends
        # part of its remaining budget on an offset along the next axis
        centers, steps = self._ball_steps(centers, radii)
        owner, budget = np.arange(len(centers)), steps
        member = np.zeros(len(centers), dtype=np.int64)
        for axis, (length, stride) in enumerate(zip(self.dims, self._strides)):
            c = self._columns[axis][centers[owner]]
            if self.toric:
                # an arc of the axis cycle, as on UndirectedCycle
                reach = np.minimum(budget, length // 2)
                lo, count = -reach, np.minimum(2 * reach + 1, length)
            else:
                lo = -np.minimum(budget, c)
                count = np.minimum(budget, length - 1 - c) - lo + 1
            entry, offset = _ranges(lo, count)
            coord = (c[entry] + offset) % length
            owner = owner[entry]
            member = member[entry] + coord * stride
            budget = budget[entry] - np.abs(offset)
        # nearest first, on the budget each member spent; the center alone
        # spent none, and is left out
        d = steps[owner] - budget
        other = np.flatnonzero(d)
        order = other[_owner_order(owner[other], d[other])]
        return owner[order], member[order], d[order]

    def _ball_sizes(self, y: int):
        # the L1 shells around y: per axis, the number of coordinates at
        # each distance from y's, convolved across the axes; their running
        # sums are the ball sizes
        shells = reduce(np.convolve, map(np.bincount, self._axis_distances(y)))
        return shells.cumsum().tolist()

    def diameter(self) -> int:
        return sum(int(table.max()) for table in self._offsets)


@dataclass(frozen=True)
class TreeLeaves(Space):
    """Leaves of a complete b-ary tree with lowest-common-ancestor distance.

    d(x, y) is the number of edges from a leaf up to the smallest subtree
    containing both, so d(x, x) = 0 and the maximum distance equals the
    tree height.  Distances take only the values 0..height, which makes
    equal-distance shells very large.
    """

    branching: int
    height: int

    kind = "tree-leaves"
    is_graph_kind = False

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if self.height < 0:
            raise ValueError("height must be >= 0")
        # the 2^s kernel reads x ^ y through float64, exact below 2^53
        if self.height > 53 or self.branching**self.height > 2**53:
            raise ValueError(f"a tree holds at most 2^53 leaves, got "
                             f"{self.branching}^{self.height}")

    @cached_property
    def n(self) -> int:
        return self.branching**self.height

    def distance_to(self, y: int):
        self._check_vertex(y)
        n, height, s = self.n, self.height, self._bits
        if s:
            # the bit length of v ^ y over s bits a digit, rounded up, as
            # _between reads it
            def d(v: int) -> int:
                if not 0 <= v < n:
                    raise _out_of_range(v, n)
                return -(-(v ^ y).bit_length() // s)
            return d
        widths = self._widths
        subtree = [y // w for w in widths]  # y's subtree at each level

        def d(v: int) -> int:
            if not 0 <= v < n:
                raise _out_of_range(v, n)
            # the lowest level whose subtree holds both, searched from the
            # root down: most leaves part from y near the root
            level = height
            while level and v // widths[level - 1] == subtree[level - 1]:
                level -= 1
            return level
        return d

    @cached_property
    def _widths(self) -> list[int]:
        """b^k, the leaves of a subtree of height k, for k = 0..height."""
        return [self.branching**k for k in range(self.height + 1)]

    def _ball_sizes(self, y: int):
        # the leaves of y's subtree of height k
        return self._widths

    @cached_property
    def _bits(self) -> int:
        """s when the branching is 2^s, else 0: then a leaf's base-b digits
        are its bits in groups of s."""
        b = self.branching
        return b.bit_length() - 1 if b & (b - 1) == 0 else 0

    def _between(self, xs, ys) -> np.ndarray:
        if self._bits:
            # the bit length of x ^ y, the exponent that frexp reads, over
            # s bits a digit, rounded up: the digits up to the highest one
            # that differs, the height of the smallest common subtree
            bits = np.frexp((xs ^ ys).astype(np.float64))[1]
            return (-(-bits // self._bits)).astype(np.int64)
        d = np.zeros(np.broadcast_shapes(xs.shape, ys.shape), dtype=np.int64)
        for _ in range(self.height):
            d += xs != ys
            xs, ys = xs // self.branching, ys // self.branching
        return d

    def ball_members(self, centers, radii):
        # the leaves of x's subtree of height r, nearest first, x left out:
        # member k >= 1 of a ball is x with each digit combined with k's,
        # so that exactly the digits where k's is nonzero change (xor when
        # b = 2^s, else addition mod b); it parts from x at k's highest
        # nonzero digit, as many levels up as k has digits
        centers, steps = self._ball_steps(centers, radii)
        b = self.branching
        owner, k = _ranges(np.ones_like(steps), b ** steps - 1)
        x = centers[owner]
        if self._bits:
            member = x ^ k
        else:
            member = x.copy()
            width = 1
            for _ in range(int(steps.max(initial=0))):
                digit = x // width % b
                member += ((digit + k // width % b) % b - digit) * width
                width *= b
        d = np.searchsorted(b ** np.arange(self.height), k, side="right")
        return owner, member, d

    def diameter(self) -> int:
        return self.height


@dataclass(frozen=True, eq=False)
class Euclidean(Space):
    """Explicit point cloud with L2 distance.

    ``box`` records the sampling extents (upper bounds per coordinate) for
    provenance; distances depend only on the stored points.
    """

    points: np.ndarray
    box: tuple[float, ...] = ()

    kind = "euclidean"
    is_graph_kind = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (n, dim) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("point coordinates must be finite")
        # the cell index divides per-axis offsets, and every distance sums
        # squared differences: both must stay finite across the whole cloud
        with np.errstate(over="ignore"):
            diagonal = _norms(pts.max(axis=0) - pts.min(axis=0))
        if not np.isfinite(diagonal):
            raise ValueError("point coordinates must span a finite box "
                             "whose diagonal is finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "box", tuple(float(b) for b in self.box))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _rows(self) -> list[list[float]]:
        return self.points.tolist()

    @cached_property
    def _columns(self) -> np.ndarray:
        # one contiguous array per coordinate: gathers read them far faster
        # than rows of ``points``
        return self.points.T.copy()

    @cached_property
    def _cells(self):
        """The uniform cell index: ``(scaled, side, shape, order, starts)``.

        Cells are cubes of the given side: half the prefix radius, so that
        a ball of that radius reads a box 2.5 radii wide rather than 3,
        doubled until the grid has at most 2n cells (the side of one cell
        when the radius is 0).  ``scaled`` is each point's offset from the
        cloud's minimum corner in units of the side, and its floor is the
        point's cell.  ``order`` lists the point ids by row-major cell id,
        and ``order[starts[c]:starts[c + 1]]`` are the points of cell c.
        """
        pts = self.points
        corner = pts.min(axis=0)
        extent = pts.max(axis=0) - corner
        side = float(self.prefix_radius) / 2 or float(extent.max()) or 1.0
        while np.prod(np.floor(extent / side) + 1) > 2 * self.n:
            side *= 2
        scaled = (pts - corner) / side
        cell = np.floor(scaled).astype(np.int64)
        shape = cell.max(axis=0) + 1
        ids = np.ravel_multi_index(cell.T, shape)
        order = np.argsort(ids, kind="stable")
        starts = np.append(0, np.cumsum(np.bincount(ids, minlength=shape.prod())))
        return scaled, side, shape, order, starts

    def _near(self, centers, radii) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`ball_members` with each member's distance from its center.

        Each ball reads the cells its bounding box touches.  The box is
        widened by (dim + 8) ulps of the magnitudes involved, which covers
        the rounding of the distance sum and of the cell arithmetic, so a
        point at exactly the radius on a cell boundary is never cut off;
        the exact distances then decide membership.
        """
        centers, radii = self._ball_args(centers, radii)
        scaled, side, shape, order, starts = self._cells
        t = scaled[centers]
        reach = (radii / side)[:, None]
        slack = (t.shape[1] + 8) * np.finfo(float).eps * (1 + np.abs(t) + reach)
        first = np.clip(np.floor(t - reach - slack), 0, shape - 1).astype(np.int64)
        last = np.clip(np.floor(t + reach + slack), 0, shape - 1).astype(np.int64)
        # the box row by row: every cell of the leading axes, then along the
        # last axis one run of cells, whose points are one run of ``order``
        owner = np.arange(len(centers))
        row = np.zeros(len(centers), dtype=np.int64)
        for axis in range(len(shape) - 1):
            entry, cell = _ranges(first[owner, axis],
                                  last[owner, axis] - first[owner, axis] + 1)
            owner = owner[entry]
            row = (row[entry] + cell) * shape[axis + 1]
        lo = starts[row + first[owner, -1]]
        entry, pos = _ranges(lo, starts[row + last[owner, -1] + 1] - lo)
        owner, member = owner[entry], order[pos]
        d = self._between(centers[owner], member)
        inside = (d <= radii[owner]) & (member != centers[owner])
        return owner[inside], member[inside], d[inside]

    def ball_members(self, centers, radii):
        # nearest first, on the distances that decided membership
        owner, member, d = self._near(centers, radii)
        order = _owner_order(owner, d)
        return owner[order], member[order], d[order]

    def distance_to(self, y: int):
        self._check_vertex(y)
        n, rows = self.n, self._rows
        py = rows[y]
        # the squares summed left to right, as _norms sums them; 0.0 + s
        # is s for any square s, so the unpacked sums start at the first
        if len(py) == 2:
            y0, y1 = py

            def d(v: int) -> float:
                if not 0 <= v < n:
                    raise _out_of_range(v, n)
                v0, v1 = rows[v]
                d0, d1 = v0 - y0, v1 - y1
                return math.sqrt(d0 * d0 + d1 * d1)
            return d
        if len(py) == 3:
            y0, y1, y2 = py

            def d(v: int) -> float:
                if not 0 <= v < n:
                    raise _out_of_range(v, n)
                v0, v1, v2 = rows[v]
                d0, d1, d2 = v0 - y0, v1 - y1, v2 - y2
                return math.sqrt(d0 * d0 + d1 * d1 + d2 * d2)
            return d

        def d(v: int) -> float:
            if not 0 <= v < n:
                raise _out_of_range(v, n)
            total = 0.0
            for a, b in zip(rows[v], py):
                diff = a - b
                total += diff * diff
            return math.sqrt(total)
        return d

    def distances_from(self, x) -> np.ndarray:
        x = self._sources(x)
        return _norms(column - column[x] for column in self._columns)

    def prepare_target(self, y: int):
        # no closed form: y's distances enumerated once, ``dist`` read
        # from that array and ``count`` by comparison with it
        to_y = self.distances_from(y)
        # a memoryview reads Python scalars without copying the array
        n, values = self.n, memoryview(to_y)

        def dist(v):
            if not 0 <= v < n:
                raise _out_of_range(v, n)
            return values[v]

        def count(r) -> int:
            if not r >= 0:
                raise _bad_radius(r)
            return int(np.count_nonzero(to_y <= r))
        return dist, count

    def _between(self, xs, ys) -> np.ndarray:
        return _norms(column[ys] - column[xs] for column in self._columns)

    @cached_property
    def base_codes(self) -> np.ndarray:
        """Every point's nearest other points, as ascending codes
        ``x * n + y``, found a block of points at a time: balls of doubling
        radius around each point until one holds another point, whose
        nearest are then the nearest of all."""
        n = self.n
        codes = [np.zeros(0, dtype=np.int64)]
        todo, radius = np.arange(n if n > 1 else 0), self._cells[1]
        while todo.size:
            found = []
            for start in range(0, todo.size, _NEAREST_BLOCK):
                centers = todo[start:start + _NEAREST_BLOCK]
                owner, member, d = self._near(centers, radius)
                best = np.full(len(centers), np.inf)
                np.minimum.at(best, owner, d)
                nearest = d == best[owner]
                codes.append(centers[owner[nearest]] * n + member[nearest])
                found.append(np.isfinite(best))
            todo = todo[~np.concatenate(found)]
            radius *= 2
        return np.sort(np.concatenate(codes))
