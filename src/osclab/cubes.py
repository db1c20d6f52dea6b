"""Half-open cubes on the unit torus, dyadic subcubes, Whitney decompositions.

All geometry lives on the torus [0,1)^n.  A cube is the product of half-open
intervals [a_i, a_i + side) taken mod 1; its cell set on an m-per-axis grid is
well defined whenever anchor and side are multiples of the cell width h = 1/m.
Because every resolution in play is a power of two, those coordinates are
exactly representable in binary floating point and snapping is loss-free.

Below the config and report codec a list of cubes is an integer
``(count, 1 + n)`` array of lattice rows (c, a_1, ..., a_n): c cells per
axis at the anchor cells a of the 1/m lattice.  ``Cube.to_row`` and
``Cube.from_row`` convert one cube, and ``cube_blocks`` groups the rows by
size into ``CubeBlock``s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from osclab._support import (
    ALIGN_TOL,
    DataError,
    DomainError,
    ParameterError,
    rng_from_seed,
)


def _to_cells(x: float, m: int, what: str) -> int:
    """Convert a coordinate (multiple of 1/m) to an integer cell count/index."""
    c = int(round(x * m))
    if abs(x * m - c) > ALIGN_TOL * m:
        raise ParameterError(f"{what}={x!r} is not aligned to the 1/{m} cell lattice")
    return c


@dataclass(frozen=True)
class Cube:
    """Axis-aligned half-open cube ``prod_i [anchor_i, anchor_i + side)`` mod 1."""

    anchor: tuple[float, ...]
    side: float

    def __post_init__(self):
        if not (0.0 < self.side <= 1.0):
            raise ParameterError(f"cube side must lie in (0, 1], got {self.side}")
        for a in self.anchor:
            if not (0.0 <= a < 1.0):
                raise ParameterError(f"cube anchor components must lie in [0, 1), got {a}")

    @property
    def dimension(self) -> int:
        return len(self.anchor)

    @property
    def volume(self) -> float:
        return self.side ** self.dimension

    def cells_per_axis(self, m: int) -> int:
        c = _to_cells(self.side, m, "side")
        if c < 1:
            raise ParameterError(f"cube of side {self.side} has no cells at resolution {m}")
        return c

    def anchor_cells(self, m: int) -> tuple[int, ...]:
        return tuple(_to_cells(a, m, "anchor") % m for a in self.anchor)

    def to_row(self, m: int) -> tuple[int, ...]:
        """The lattice row (c, a_1, ..., a_n) of the cube on the 1/m lattice."""
        return (self.cells_per_axis(m), *self.anchor_cells(m))

    @staticmethod
    def from_row(row: Sequence[int], m: int) -> "Cube":
        """The cube of the lattice row (c, a_1, ..., a_n) of the 1/m lattice:
        the same floats as any other route to it, since m is a power of two."""
        c, *anchor = row
        return Cube(tuple([int(a) / m for a in anchor]), int(c) / m)

    def cell_arrays(self, m: int) -> tuple[np.ndarray, ...]:
        """Per-axis wrapped cell-index arrays; feed to ``np.ix_`` to slice fields."""
        c = self.cells_per_axis(m)
        return tuple((np.arange(c) + a) % m for a in self.anchor_cells(m))

    def index(self, m: int) -> tuple:
        """Index of the cube's cells in an ``(m,) * n`` array, in C order.

        Basic slices (a view) when no axis crosses the seam, else
        ``np.ix_(*self.cell_arrays(m))`` (a copy).  Assign through it,
        ``ravel()`` it or take an order-free reduction such as ``max``: a sum
        over a strided multi-axis view runs in another order than over a
        copy, so its last bits differ.
        """
        c = self.cells_per_axis(m)
        lo = self.anchor_cells(m)
        if all(a + c <= m for a in lo):
            return tuple(slice(a, a + c) for a in lo)
        return np.ix_(*self.cell_arrays(m))

    def mask(self, m: int) -> np.ndarray:
        """Boolean ``(m,) * n`` array, True on the cube's cells."""
        out = np.zeros((m,) * self.dimension, dtype=bool)
        out[self.index(m)] = True
        return out

    def contains_cube(self, other: "Cube") -> bool:
        """Torus interval containment per axis (exact up to lattice tolerance)."""
        if other.side > self.side + ALIGN_TOL:
            return False
        if self.side >= 1.0 - ALIGN_TOL:
            return True
        for a, b in zip(self.anchor, other.anchor):
            d = (b - a) % 1.0
            if d > 1.0 - ALIGN_TOL:
                d = 0.0
            if d + other.side > self.side + ALIGN_TOL:
                return False
        return True

    def to_dict(self) -> dict:
        return {"anchor": list(self.anchor), "side": self.side}

    @staticmethod
    def from_dict(d: dict) -> "Cube":
        return Cube(tuple(float(a) for a in d["anchor"]), float(d["side"]))


def full_torus(dimension: int) -> Cube:
    return Cube((0.0,) * dimension, 1.0)


@dataclass(frozen=True)
class Dilation:
    """Result of a concentric dilation: the snapped cube plus a saturation flag."""

    cube: Cube
    saturated: bool


def _snapped(c: int, lam: float) -> tuple[int, int]:
    """(first cell relative to the cube's own, cell count) of the concentric
    ``lam``-dilate of c cells, rounded outward to whole cells.

    The dilate grows by (lam - 1) c / 2 cells on each side, rounded up
    exactly (``lam`` as its integer ratio), so the result is the least cell
    interval containing the exact dilate.
    """
    num, den = lam.as_integer_ratio()
    grow = -(c * (den - num) // (2 * den))
    return -grow, c + 2 * grow


def dilate(q: Cube, lam: float, m: int) -> Dilation:
    """Concentric dilation ``lam * q`` of a cube on the 1/m lattice, snapped outward.

    The returned cube is the least lattice cube containing the exact
    concentric cube of side lam * side (``_snapped``); ``saturated`` is set,
    and the cube is the full torus, when that covers an axis.
    """
    if lam < 1.0:
        raise ParameterError(f"dilation factor must be >= 1, got {lam}")
    first, size = _snapped(int(q.side * m), lam)
    if size >= m:
        return Dilation(full_torus(q.dimension), True)
    h = 1.0 / m
    return Dilation(Cube(tuple([((int(a * m) + first) % m) * h for a in q.anchor]), size * h), False)


# ---------------------------------------------------------------------------
# Cube samples as arrays
# ---------------------------------------------------------------------------

# Rows of cells are gathered in parts of at most this many cells (or one cube,
# when a single cube is larger), so memory stays bounded when many cubes, or
# their dilates, cover much of the torus.
ROW_CELLS = 1 << 16


class CubeBlock(NamedTuple):
    """The cubes of a sample with ``c`` cells per axis, as arrays: ``members``
    their positions in the sample and ``anchors`` their (count, n) anchor cells."""

    c: int
    members: np.ndarray
    anchors: np.ndarray

    def dilate(self, lam: float, m: int) -> tuple[np.ndarray, int, bool]:
        """(anchor cells, cells per axis, saturated) of the snapped dilates lam Q,
        as ``dilate`` gives them: the torus, anchored at cell 0, when saturated."""
        first, size = _snapped(self.c, lam)
        if size >= m:
            return np.zeros_like(self.anchors), m, True
        return (self.anchors + first) % m, size, False

    def parts(self, width: int, n: int) -> Iterator["CubeBlock"]:
        """The block in consecutive sub-blocks whose rows of ``width`` cells
        per axis fit in ROW_CELLS, or one cube each when one row is larger."""
        step = max(1, ROW_CELLS // width ** n)
        for i in range(0, len(self.members), step):
            yield CubeBlock(self.c, self.members[i:i + step], self.anchors[i:i + step])

    def dyadic_dilations(self, m: int, k_max: int) -> Iterator[tuple[int, np.ndarray, int, bool]]:
        """Yield (k, anchor cells, cells per axis, saturated) of the dyadic
        dilates 2^k Q of the block's cubes: Q itself at k = 0, unsaturated
        even when it is the torus, then ``dilate``'s 2^k Q up to k_max or the
        first saturated dilate, the same k for all."""
        yield 0, self.anchors, self.c, False
        for k in range(1, k_max + 1):
            anchors, size, saturated = self.dilate(float(2 ** k), m)
            yield k, anchors, size, saturated
            if saturated:
                return


def cube_blocks(rows: np.ndarray) -> list[CubeBlock]:
    """The lattice rows (c, a_1, ..., a_n) grouped by cells per axis, coarsest
    first, as ``CubeBlock``s; members keep their row order."""
    sides = rows[:, 0]
    return [CubeBlock(c, np.flatnonzero(sides == c), rows[sides == c, 1:])
            for c in sorted(set(sides.tolist()), reverse=True)]


def _axis_cells(anchors: np.ndarray, size: int, m: int) -> list[np.ndarray]:
    """Per axis, the (count, size) wrapped cells of the cubes at ``anchors``.

    The anchors lie in [0, m) and size is at most m, so a cell wraps by one
    subtraction of m, where it reaches m.
    """
    out = []
    for ax in range(anchors.shape[1]):
        x = anchors[:, ax, None] + np.arange(size)
        out.append(np.subtract(x, m, out=x, where=x >= m))
    return out


def _outer(per_axis: list[np.ndarray], combine) -> np.ndarray:
    """``combine`` of the per-axis arrays over the cells of each cube, broadcast
    axis by axis and flattened in C order to one row per cube: O(size) work
    per axis before the one pass over the size^n cells."""
    count, n = len(per_axis[0]), len(per_axis)
    out = None
    for ax, x in enumerate(per_axis):
        x = x.reshape((count,) + (1,) * ax + (-1,) + (1,) * (n - 1 - ax))
        out = x if out is None else combine(out, x)
    return out.reshape(count, -1)


def cell_rows(anchors: np.ndarray, size: int, m: int) -> np.ndarray:
    """(count, size^n) flat cell indices of the cubes of ``size`` cells per axis
    at the anchor cells ``anchors``: each row in the C order of its cube, as
    ``Cube.index`` reads it, so a row gathers that cube's ``restrict``."""
    return _outer(_axis_cells(anchors, size, m), lambda a, b: a * m + b)


def cell_membership(anchors: np.ndarray, size: int, inner: np.ndarray, inner_size: int, m: int) -> np.ndarray:
    """Boolean rows matching ``cell_rows(anchors, size, m)``: True where the
    cell lies in the cube of ``inner_size`` cells at the anchor cells of the
    same row of ``inner``."""
    per_axis = [(cells - inner[:, ax, None]) % m < inner_size
                for ax, cells in enumerate(_axis_cells(anchors, size, m))]
    return _outer(per_axis, np.logical_and)


# ---------------------------------------------------------------------------
# Whitney decomposition
# ---------------------------------------------------------------------------


class SummedAreaTable:
    """Exact sums of a periodic cell array over wrapped boxes (Crow, SIGGRAPH 1984).

    The table holds the cumulative sums of ``values`` along every axis with a
    leading zero slice, so a box that does not cross the seam costs 2^n reads
    and a wrapped box splits into at most 2^n such pieces.  Boolean and
    integer arrays are summed in int64 and give exact Python ints; real arrays
    are summed in float64 and give Python floats.
    """

    def __init__(self, values: np.ndarray):
        values = np.asarray(values)
        dtype = np.result_type(values.dtype, np.int64)
        sums = values
        for ax in range(values.ndim):
            sums = np.cumsum(sums, axis=ax, dtype=dtype)
        self.m = values.shape[0]
        self.table = np.zeros(tuple(s + 1 for s in values.shape), dtype=dtype)
        self.table[(slice(1, None),) * values.ndim] = sums

    def box_sum(self, lo: Sequence[int], size: int):
        """Sum over the wrapped box prod_i [lo_i, lo_i + size) mod m, for size <= m.

        Each unwrapped piece is summed over its corners before the pieces are
        added, which fixes the floating-point summation order.
        """
        m = self.m
        runs = []
        for l in lo:
            l %= m
            runs.append([(l, m), (0, l + size - m)] if l + size > m else [(l, l + size)])
        n = len(runs)
        total = 0
        for piece in itertools.product(*runs):
            part = 0
            for corner in itertools.product((0, 1), repeat=n):
                idx = tuple(run[c] for run, c in zip(piece, corner))
                part += (-1) ** (n - sum(corner)) * self.table[idx].item()
            total += part
        return total


def _refined(nodes: np.ndarray) -> np.ndarray:
    """A boolean array over the dyadic nodes of one generation, repeated onto
    their children: twice along every axis."""
    for ax in range(nodes.ndim):
        nodes = nodes.repeat(2, axis=ax)
    return nodes


def whitney_decompose(omega: np.ndarray, q: Cube) -> list[Cube]:
    """Decompose an open cell-set into disjoint dyadic cubes sized by boundary distance.

    The cubes are dyadic for the grid of the torus adapted to ``q``: the
    lattice of ``q.anchor_cells(m)``, refined down to single cells.  Phase 1
    collects the maximal dyadic cubes Q whose concentric dilation 4Q still
    lies inside omega.  Cells of omega left uncovered (those hugging the
    boundary, where no dyadic cube can keep its 4-dilation inside) are
    covered in phase 2 by the maximal dyadic cubes contained in the
    remainder.  Phase 2 cubes necessarily have 4Q meeting the complement, so
    every returned cube touches the complement of omega within its concentric
    10-dilation; the union is exactly omega and the cubes are pairwise
    disjoint.  The cubes come sorted by (-side, anchor).

    Generation by generation, every node at once: phase 1 counts each
    node's 4-dilate on one int64 summed-area table of omega tiled twice per
    axis, where every box of at most m cells per axis anchored in [0, m) is
    one inclusion-exclusion over its 2^n corners, wrapped or not; it takes
    the nodes whose dilate is inside and no ancestor's is, that running OR
    refined onto the children from one generation to the next.  Phase 2
    takes the nodes inside the remainder whose parent is not, the remainder
    coarsened one generation at a time by an AND over the children.
    """
    m = omega.shape[0]
    n = omega.ndim
    if omega.shape != (m,) * q.dimension or m & (m - 1):
        raise ParameterError(
            f"omega shape {omega.shape} is not a power-of-two grid of dimension {q.dimension}"
        )
    if omega.dtype != np.bool_:
        raise DataError("omega must be a boolean cell mask")
    total = int(omega.sum())
    if total == 0:
        return []
    if total == m ** n:
        raise DomainError("Whitney decomposition undefined for the full torus")

    anchor_cells = q.anchor_cells(m)
    rolled = np.roll(omega, [-a for a in anchor_cells], axis=tuple(range(n)))
    table = np.tile(rolled, (2,) * n).astype(np.int64)
    for ax in range(n):
        np.cumsum(table, axis=ax, out=table)
    table = np.pad(table, [(1, 0)] * n)
    depth = m.bit_length() - 1
    taken = []  # per generation g, the taken nodes of (2^g,) * n
    above = np.zeros((1,) * n, dtype=bool)  # per node: some strict ancestor's 4-dilate is inside
    for g in range(depth + 1):
        c = m >> g
        first, size = _snapped(c, 4.0)
        inside = np.zeros((1 << g,) * n, dtype=bool)  # a dilate of m cells or more is never inside
        if size < m:
            lo = np.ix_(*[(np.arange(1 << g) * c + first) % m] * n)
            count = sum((-1) ** (n - sum(corner)) * table[tuple(l + size * i for l, i in zip(lo, corner))]
                        for corner in itertools.product((0, 1), repeat=n))
            inside = count == size ** n
        taken.append(inside & ~above)
        above = above | inside
        if g < depth:
            above = _refined(above)
    full = [rolled & ~above]  # phase 2: the remainder, from the cells up
    for g in range(depth, 0, -1):
        full.append(full[-1].reshape((1 << g - 1, 2) * n).all(axis=tuple(range(1, 2 * n, 2))))
    full.reverse()
    for g in range(1, depth + 1):
        taken[g] |= full[g] & ~_refined(full[g - 1])

    rows = []
    for g, nodes in enumerate(taken):
        k = np.argwhere(nodes)
        rows.append(np.column_stack([np.full(len(k), m >> g), (k * (m >> g) + anchor_cells) % m]))
    rows = np.concatenate(rows)
    rows = rows[np.lexsort(np.column_stack([-rows[:, 0], rows[:, 1:]]).T[::-1])]
    return [Cube.from_row(row, m) for row in rows.tolist()]


def whitney_check(omega: np.ndarray, cubes: Sequence[Cube], m: int) -> dict:
    """Verify the decomposition invariants by cell enumeration.

    Returns booleans for pairwise disjointness, exact covering and the
    10Q-touches-complement property, plus the count of cubes whose concentric
    4-dilation stays inside omega (boundary cubes cannot satisfy it).  Each
    block of equal cubes reads the cells of the cubes and of their dilates
    as ``cell_rows``.
    """
    n, flat = omega.ndim, omega.ravel()
    rows = np.array([q.to_row(m) for q in cubes], dtype=np.int64).reshape(-1, 1 + n)
    count = np.zeros(flat.size, dtype=np.int64)
    dilated_inside = 0
    ten_q_ok = True
    for block in cube_blocks(rows):
        for part in block.parts(block.c, n):
            count += np.bincount(cell_rows(part.anchors, part.c, m).ravel(), minlength=flat.size)
        anchors4, size4, saturated4 = block.dilate(4.0, m)
        if not saturated4:
            for part in CubeBlock(size4, block.members, anchors4).parts(size4, n):
                dilated_inside += int(np.count_nonzero(flat[cell_rows(part.anchors, size4, m)].all(axis=1)))
        anchors10, size10, _ = block.dilate(10.0, m)
        for part in CubeBlock(size10, block.members, anchors10).parts(size10, n):
            if flat[cell_rows(part.anchors, size10, m)].all(axis=1).any():
                ten_q_ok = False
    disjoint = bool((count <= 1).all())
    cover = bool(((count == 1) == flat).all())
    return {
        "disjoint": disjoint,
        "cover": cover,
        "cubes": len(cubes),
        "dilated_inside": dilated_inside,
        "boundary_cubes": len(cubes) - dilated_inside,
        "ten_q_touches_complement": ten_q_ok,
    }


# ---------------------------------------------------------------------------
# Disjoint-family sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DisjointFamily:
    """A family of pairwise-disjoint dyadic subcubes of a parent cube, held as
    nodes: row i of ``nodes`` is (g, k_1, ..., k_n), and member i is
    ``descendant(parent, g, k)``."""

    parent: Cube
    nodes: np.ndarray

    def __eq__(self, other) -> bool:
        return (isinstance(other, DisjointFamily) and self.parent == other.parent
                and np.array_equal(self.nodes, other.nodes))


def descendant(q: Cube, g: int, k: Sequence[int]) -> Cube:
    """Generation-g dyadic descendant of q at per-axis offsets k (each in 0..2^g - 1).

    The one child rule: side l(q) / 2^g and anchor (a + k l(q) / 2^g) mod 1,
    exact on lattice cubes, so every caller gets the same floats for the
    same node.
    """
    side = q.side / 2 ** g
    return Cube(tuple([(a + int(ki) * side) % 1.0 for a, ki in zip(q.anchor, k)]), side)


def _doubles(rng: np.random.Generator, size: int = 4096) -> Iterator[float]:
    """The doubles of successive ``rng.random()`` calls, read from buffers that
    ``rng.random(size)`` fills with the same stream."""
    while True:
        yield from rng.random(size).tolist()


def _random_packing(draws: Iterator[float], n: int, max_depth: int) -> list[int]:
    """Heap ids of random disjoint dyadic nodes of a root in n dimensions, down
    to generation ``max_depth``, in the order the walk takes them; the root
    alone when it takes none.

    The root's id is 1 and a child's is its parent's times 2^n plus the C-order
    index of its corner.  Depth first from the root: a node below the root
    is kept when its draw is below 0.35 or it lies at ``max_depth``, else
    each child, in C order, is visited when its draw is below 0.75.
    ``max_depth`` may not exceed the number of times the root's cell count
    halves evenly, so that every node split is a whole number of cells.
    """
    chosen: list[int] = []
    fan = 1 << n

    def walk(g: int, node: int) -> None:
        if g >= 1 and next(draws) < 0.35:
            chosen.append(node)
            return
        if g >= max_depth:
            if g >= 1:
                chosen.append(node)
            return
        for child in range(node * fan, (node + 1) * fan):
            if next(draws) < 0.75:
                walk(g + 1, child)

    walk(0, 1)
    return chosen or [1]


def _generation_means(block: np.ndarray) -> list[np.ndarray]:
    """Means of every dyadic node of a ``(c,) * n`` block, one array per generation.

    Generation g holds the ``(2^g,) * n`` node means, for as long as the node
    side stays a whole number of cells.  The transpose lays each node's cells
    out as one contiguous row in C order, as the node's own copy would be, so
    each row mean is the same pairwise sum as the mean of that copy.
    """
    n = block.ndim
    c = block.shape[0]
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    means = []
    b = 1
    while True:
        s = c // b
        rows = block.reshape((b, s) * n).transpose(order).reshape(b ** n, s ** n)
        means.append(rows.mean(axis=1).reshape((b,) * n))
        if s % 2:
            return means
        b *= 2


class _NodeTable(NamedTuple):
    """The dyadic nodes of a root from generation 0, in the (-side, anchor)
    order of their cubes: by generation, then by wrapped anchor cells.
    ``nodes`` holds their (g, k) rows and ``rank`` the row of each heap id
    (``_random_packing``'s) down to the packing depth.  With a field,
    ``means`` holds each node's mean of |values| and ``covered`` the largest
    mean of its strict ancestors of generation >= 1; both read -inf where
    there are none, and at the root, which is never chosen."""

    nodes: np.ndarray
    rank: list
    means: Optional[np.ndarray]
    covered: Optional[np.ndarray]

    def packing(self, ids: Sequence[int]) -> np.ndarray:
        """The (g, k) rows of the nodes of heap ids ``ids``, in family order."""
        return self.nodes[sorted([self.rank[i] for i in ids])]

    def stopping_time(self, tau: float) -> np.ndarray:
        """The maximal nodes below the root whose mean exceeds tau, in family
        order: a node is taken when its mean exceeds tau and no ancestor's
        below the root does.  That is the walk down the generations that takes
        each node above tau and skips the nodes under a taken one; a mean
        equal to tau is not above it, so the choice passes to the children."""
        return self.nodes[(self.means > tau) & ~(self.covered > tau)]


def _node_table(q: Cube, m: int, depth: int, means: Optional[list[np.ndarray]] = None) -> _NodeTable:
    """The ``_NodeTable`` of q on the 1/m lattice down to generation ``depth``
    or, given the node means ``means`` of ``_generation_means``, down to their
    last generation, which is no shallower."""
    c, anchor, n = q.cells_per_axis(m), q.anchor_cells(m), q.dimension
    corners = np.indices((2,) * n).reshape(n, -1).T
    ids, k = np.ones(1, dtype=np.int64), np.zeros((1, n), dtype=np.int64)
    mean = covered = np.full(1, -np.inf)
    gens = [(ids, k, mean, covered)]
    for g in range(1, depth + 1 if means is None else len(means)):
        ids = (ids[:, None] * (1 << n) + np.arange(1 << n)).ravel()  # children follow their parent
        k = (2 * k[:, None] + corners).reshape(-1, n)
        if means is not None:
            mean, covered = means[g][tuple(k.T)], np.repeat(np.fmax(covered, mean), 1 << n)
        gens.append((ids, k, mean, covered))
    g = np.concatenate([np.full(len(x[0]), i) for i, x in enumerate(gens)])
    ids, k = (np.concatenate([x[j] for x in gens]) for j in (0, 1))
    order = np.lexsort(np.column_stack([g, (np.asarray(anchor) + k * (c >> g)[:, None]) % m]).T[::-1])
    rank = np.zeros(1 << (depth + 1) * n, dtype=np.int64)
    top = np.flatnonzero(ids[order] < len(rank))
    rank[ids[order][top]] = top
    nodes = np.column_stack([g, k])[order]
    if means is None:
        return _NodeTable(nodes, rank.tolist(), None, None)
    mean, covered = (np.concatenate([x[j] for x in gens])[order] for j in (2, 3))
    return _NodeTable(nodes, rank.tolist(), mean, covered)


def sample_disjoint_families(
    q: Cube,
    count: int,
    seed: int,
    m: int,
    field_values: Optional[np.ndarray] = None,
) -> list[DisjointFamily]:
    """Seeded families of pairwise-disjoint dyadic subcubes of ``q``.

    Family #1 is always the singleton {q}; family #2 (when requested) the full
    generation-1 tiling, in C order of the offsets.  Further families
    alternate random dyadic packings at mixed generations (``_random_packing``,
    down to generation 4 or as deep as q halves evenly) with stopping-time
    families driven by ``field_values`` (packings only, when no field is
    supplied): the maximal nodes whose mean of |values| exceeds
    tau = mean_q |values| x uniform(1.05, 3), or a random packing two
    generations deep when no node does.  Every draw reads one seeded stream
    in turn, and the families read q's node table; members other than #2's
    are sorted by (-side, anchor).
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    draws = _doubles(rng_from_seed(seed))
    c, n = q.cells_per_axis(m), q.dimension
    halvings = (c & -c).bit_length() - 1
    max_depth = min(4, halvings)

    families = [DisjointFamily(q, np.zeros((1, n + 1), dtype=np.int64))]
    if count >= 2 and max_depth >= 1:
        tiling = np.indices((2,) * n).reshape(n, -1).T
        families.append(DisjointFamily(q, np.column_stack([np.ones(len(tiling), dtype=np.int64), tiling])))
    table = base = None
    i = 0
    while len(families) < count:
        if table is None:
            means = None if field_values is None else _generation_means(np.abs(field_values[q.index(m)]))
            base = None if means is None else float(means[0].item())
            table = _node_table(q, m, max_depth, means)
        if field_values is not None and i % 2 == 1:
            nodes = table.stopping_time(base * (1.05 + (3.0 - 1.05) * next(draws)))
            if not len(nodes):
                nodes = table.packing(_random_packing(draws, n, min(2, halvings)))
        else:
            nodes = table.packing(_random_packing(draws, n, max_depth))
        families.append(DisjointFamily(q, nodes))
        i += 1
    return families[:count]
