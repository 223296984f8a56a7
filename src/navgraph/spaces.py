"""Finite metric spaces used as routing substrates.

Every space is a universe of ``n`` points addressed by integer ids
``0..n-1`` and exposes a distance kernel ``d(x, y)``.  The kernel is
nonnegative, zero exactly on the diagonal, and satisfies the triangle
inequality, but it is *not* required to be symmetric (the directed cycle
is the canonical asymmetric case).  Graph-like kinds (cycles and grids)
return exact integer distances; the point-cloud kind returns floats.

Balls are listed by :meth:`Space.ball_members`, exactly in every kind.
The cycles (an arc), the grid (an L1 diamond, wrapped or clipped per axis)
and tree leaves (the leaves of one subtree) list them in closed form:
their distances are integers, so a radius r reaches exactly the vertices
at distance <= floor(r), and the closed form generates exactly those
vertices rather than estimating a volume.  Point clouds have no such
form; their balls are enumerated over the point set, so heterogeneous
densities and coincident points are handled uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Space",
    "DirectedCycle",
    "UndirectedCycle",
    "Grid",
    "TreeLeaves",
    "Euclidean",
    "doubling_constant_estimate",
]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(owner, value) listing starts[k], ..., starts[k] + counts[k] - 1 for
    every k in turn, each value tagged with its k."""
    owner = np.repeat(np.arange(len(counts)), counts)
    firsts = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - firsts[owner] + starts[owner]


class Space:
    """Base interface: a distance kernel plus ball counting over ids."""

    kind: str = "abstract"
    is_graph_kind: bool = False
    is_symmetric: bool = True

    n: int

    # -- kernel -----------------------------------------------------------

    def distance(self, x: int, y: int):
        """Kernel distance from ``x`` to ``y`` (int for graph kinds)."""
        raise NotImplementedError

    def distances_from(self, x: int) -> np.ndarray:
        """Vector of ``distance(x, y)`` for every ``y``."""
        raise NotImplementedError

    def distances_to(self, x: int) -> np.ndarray:
        """Vector of ``distance(y, x)`` for every ``y``.

        Coincides with :meth:`distances_from` for symmetric kernels.
        """
        if self.is_symmetric:
            return self.distances_from(x)
        raise NotImplementedError

    def distances_between(self, xs, ys) -> np.ndarray:
        """Vector of ``distance(xs[k], ys[k])`` for every k, each entry
        equal, bit for bit, to the matching entry of :meth:`distances_from`."""
        raise NotImplementedError

    # -- adjacency and balls ----------------------------------------------

    def base_neighbors(self, x: int) -> list[int]:
        """Base-graph neighbors of ``x``: the vertices at distance exactly
        1 for graph kinds, the distance-minimal other vertices otherwise.
        """
        raise NotImplementedError

    def ball_members(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """Every y with ``distance(centers[k], y) <= radii[k]``, for every k.

        Returns ``(owner, member)`` arrays: ``member[t]`` lies in the ball
        around ``centers[owner[t]]``.  Owners ascend; the members of one
        owner come in no promised order.  ``radii`` broadcasts against
        ``centers`` and may be infinite.  This base version enumerates
        :meth:`distances_from` per center; kinds with integer distances
        override it with a closed form.
        """
        centers, radii = self._ball_args(centers, radii)
        members = [np.flatnonzero(self.distances_from(int(c)) <= r)
                   for c, r in zip(centers, radii)]
        owner = np.repeat(np.arange(len(members)), [len(m) for m in members])
        return owner, np.concatenate([np.empty(0, dtype=np.int64)] + members)

    def ball_count(self, center: int, radius) -> int:
        """|{y : distance(center, y) <= radius}|."""
        return len(self.ball_members([center], radius)[1])

    def diameter(self):
        """Maximum kernel distance between any ordered pair."""
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------

    def _check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise ValueError(f"vertex id {x} out of range [0, {self.n})")

    def _check_vertices(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=np.int64)
        if xs.size and not (0 <= xs.min() and xs.max() < self.n):
            bad = xs[(xs < 0) | (xs >= self.n)][0]
            raise ValueError(f"vertex id {bad} out of range [0, {self.n})")
        return xs

    def _ball_args(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        centers = self._check_vertices(np.atleast_1d(centers))
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), centers.shape)
        if not np.all(radii >= 0):
            raise ValueError(f"radius must be >= 0, got {radii[~(radii >= 0)][0]}")
        return centers, radii

    def _ball_steps(self, centers, radii) -> tuple[np.ndarray, np.ndarray]:
        """Centers and, for integer distances, the largest distance each
        radius reaches, capped at the diameter."""
        centers, radii = self._ball_args(centers, radii)
        return centers, np.floor(np.minimum(radii, self.diameter())).astype(np.int64)

    def descriptor(self) -> dict:
        """Config-format description of this space (see harness docs)."""
        raise NotImplementedError


@dataclass(frozen=True)
class DirectedCycle(Space):
    """n vertices on a cycle with forward distance (y - x) mod n.

    The kernel is asymmetric: d(x, y) + d(y, x) = n for x != y.
    """

    n: int

    kind = "directed-cycle"
    is_graph_kind = True
    is_symmetric = False

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cycle needs n >= 1")

    def distance(self, x: int, y: int) -> int:
        self._check_vertex(x)
        self._check_vertex(y)
        return (y - x) % self.n

    def distances_from(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        return (np.arange(self.n, dtype=np.int64) - x) % self.n

    def distances_to(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        return (x - np.arange(self.n, dtype=np.int64)) % self.n

    def distances_between(self, xs, ys) -> np.ndarray:
        return (self._check_vertices(ys) - self._check_vertices(xs)) % self.n

    def ball_members(self, centers, radii):
        # the forward arc x, x+1, ..., x+r
        centers, steps = self._ball_steps(centers, radii)
        owner, ahead = _ranges(np.zeros_like(steps), steps + 1)
        return owner, (centers[owner] + ahead) % self.n

    def base_neighbors(self, x: int) -> list[int]:
        self._check_vertex(x)
        return [] if self.n == 1 else [(x + 1) % self.n]

    def diameter(self) -> int:
        return self.n - 1

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n}


@dataclass(frozen=True)
class UndirectedCycle(Space):
    """n vertices on a cycle with wrap-around distance min(|x-y|, n-|x-y|)."""

    n: int

    kind = "undirected-cycle"
    is_graph_kind = True
    is_symmetric = True

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("cycle needs n >= 1")

    def distance(self, x: int, y: int) -> int:
        self._check_vertex(x)
        self._check_vertex(y)
        a = abs(x - y)
        return min(a, self.n - a)

    def distances_from(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        a = np.abs(np.arange(self.n, dtype=np.int64) - x)
        return np.minimum(a, self.n - a)

    def distances_between(self, xs, ys) -> np.ndarray:
        a = np.abs(self._check_vertices(xs) - self._check_vertices(ys))
        return np.minimum(a, self.n - a)

    def ball_members(self, centers, radii):
        # the arc x-r, ..., x+r, which covers the whole cycle once 2r+1 >= n
        centers, steps = self._ball_steps(centers, radii)
        owner, offset = _ranges(-steps, np.minimum(2 * steps + 1, self.n))
        return owner, (centers[owner] + offset) % self.n

    def base_neighbors(self, x: int) -> list[int]:
        self._check_vertex(x)
        if self.n == 1:
            return []
        return sorted({(x + 1) % self.n, (x - 1) % self.n})

    def diameter(self) -> int:
        return self.n // 2

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n}


@dataclass(frozen=True)
class Grid(Space):
    """Axis-aligned lattice with L1 distance, optionally toric per axis."""

    dims: tuple[int, ...]
    toric: bool = False

    kind = "grid"
    is_graph_kind = True
    is_symmetric = True

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"grid dims must be positive, got {self.dims}")

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @cached_property
    def _coords(self) -> np.ndarray:
        # row-major: vertex id = np.ravel_multi_index(coord, dims)
        idx = np.unravel_index(np.arange(self.n), self.dims)
        return np.stack(idx, axis=1).astype(np.int64)

    @cached_property
    def _strides(self) -> tuple[int, ...]:
        # row-major: vertex id = sum of coord[axis] * _strides[axis]
        return tuple(math.prod(self.dims[axis + 1:]) for axis in range(len(self.dims)))

    def coord_of(self, x: int) -> tuple[int, ...]:
        self._check_vertex(x)
        return tuple(int(c) for c in self._coords[x])

    def vertex_at(self, coord: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(coord), self.dims))

    def distance(self, x: int, y: int) -> int:
        self._check_vertex(x)
        self._check_vertex(y)
        total = 0
        for cx, cy, length in zip(self._coords[x], self._coords[y], self.dims):
            a = abs(int(cx) - int(cy))
            total += min(a, length - a) if self.toric else a
        return total

    def distances_from(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        diff = np.abs(self._coords - self._coords[x])
        if self.toric:
            diff = np.minimum(diff, np.asarray(self.dims) - diff)
        return diff.sum(axis=1)

    def distances_between(self, xs, ys) -> np.ndarray:
        coords = self._coords
        diff = np.abs(coords[self._check_vertices(ys)] - coords[self._check_vertices(xs)])
        if self.toric:
            diff = np.minimum(diff, np.asarray(self.dims) - diff)
        return diff.sum(axis=1)

    def ball_members(self, centers, radii):
        # the L1 diamond, one axis at a time: each partial member spends
        # part of its remaining budget on an offset along the next axis
        centers, budget = self._ball_steps(centers, radii)
        owner = np.arange(len(centers))
        member = np.zeros(len(centers), dtype=np.int64)
        for axis, (length, stride) in enumerate(zip(self.dims, self._strides)):
            c = self._coords[centers[owner], axis]
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
        return owner, member

    def base_neighbors(self, x: int) -> list[int]:
        self._check_vertex(x)
        coord = self._coords[x].tolist()
        out: set[int] = set()
        for axis, (length, stride) in enumerate(zip(self.dims, self._strides)):
            if length == 1:
                continue
            for delta in (-1, 1):
                c = coord[axis] + delta
                if self.toric:
                    c %= length
                elif not 0 <= c < length:
                    continue
                out.add(x + (c - coord[axis]) * stride)
        out.discard(x)
        return sorted(out)

    def diameter(self) -> int:
        if self.toric:
            return sum(d // 2 for d in self.dims)
        return sum(d - 1 for d in self.dims)

    def descriptor(self) -> dict:
        return {"kind": self.kind, "dims": list(self.dims), "toric": self.toric}


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
    is_symmetric = True

    def __post_init__(self):
        if self.branching < 2:
            raise ValueError("branching must be >= 2")
        if self.height < 0:
            raise ValueError("height must be >= 0")

    @property
    def n(self) -> int:
        return self.branching**self.height

    @cached_property
    def _level_codes(self) -> list[np.ndarray]:
        # _level_codes[l][y] identifies the depth-(height-l) subtree of leaf y
        ids = np.arange(self.n, dtype=np.int64)
        codes = [ids]
        for _ in range(self.height):
            ids = ids // self.branching
            codes.append(ids)
        return codes

    def distance(self, x: int, y: int) -> int:
        self._check_vertex(x)
        self._check_vertex(y)
        level = 0
        while x != y:
            x //= self.branching
            y //= self.branching
            level += 1
        return level

    def distances_from(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        d = np.full(self.n, self.height, dtype=np.int64)
        codes = self._level_codes
        for level in range(self.height - 1, 0, -1):
            d[codes[level] == (x // self.branching**level)] = level
        d[x] = 0
        return d

    def distances_between(self, xs, ys) -> np.ndarray:
        xs, ys = self._check_vertices(xs), self._check_vertices(ys)
        d = np.zeros(xs.shape, dtype=np.int64)
        for _ in range(self.height):
            d += xs != ys
            xs, ys = xs // self.branching, ys // self.branching
        return d

    def ball_members(self, centers, radii):
        # the leaves of x's subtree of height r: an aligned range of b^r ids
        centers, steps = self._ball_steps(centers, radii)
        width = self.branching ** steps
        return _ranges(centers // width * width, width)

    def base_neighbors(self, x: int) -> list[int]:
        self._check_vertex(x)
        if self.height == 0:
            return []
        parent = x // self.branching
        return [parent * self.branching + i
                for i in range(self.branching)
                if parent * self.branching + i != x]

    def diameter(self) -> int:
        return self.height

    def descriptor(self) -> dict:
        return {"kind": self.kind, "branching": self.branching, "height": self.height}


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
    is_symmetric = True

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (n, dim) array")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "box", tuple(float(b) for b in self.box))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    def distance(self, x: int, y: int) -> float:
        self._check_vertex(x)
        self._check_vertex(y)
        return float(np.linalg.norm(self.points[x] - self.points[y]))

    def distances_from(self, x: int) -> np.ndarray:
        self._check_vertex(x)
        return np.linalg.norm(self.points - self.points[x], axis=1)

    def distances_between(self, xs, ys) -> np.ndarray:
        pts = self.points
        return np.linalg.norm(pts[self._check_vertices(ys)] - pts[self._check_vertices(xs)],
                              axis=1)

    def base_neighbors(self, x: int) -> list[int]:
        self._check_vertex(x)
        if self.n == 1:
            return []
        d = self.distances_from(x)
        d[x] = np.inf
        return [int(v) for v in np.flatnonzero(d == d.min())]

    def diameter(self) -> float:
        return max(float(self.distances_from(x).max()) for x in range(self.n))

    def descriptor(self) -> dict:
        return {"kind": self.kind, "n": self.n, "box": list(self.box)}


def doubling_constant_estimate(space: Space, radii: Sequence[float]) -> float:
    """Max over centers u and radii r of |B_2r(u)| / |B_r(u)|.

    Same-center reading of the doubling condition; exact enumeration, so
    O(n^2 * len(radii)) and intended for n up to a few thousand.
    """
    radii = list(radii)
    if not radii:
        raise ValueError("radii must be nonempty")
    if any(r < 0 for r in radii):
        raise ValueError("radii must be nonnegative")
    worst = 0.0
    for u in range(space.n):
        d = space.distances_from(u)
        for r in radii:
            small = int(np.count_nonzero(d <= r))
            big = int(np.count_nonzero(d <= 2 * r))
            worst = max(worst, big / small)
    return worst
