"""Half-open cubes on the unit torus, dyadic grids, Whitney decompositions.

All geometry lives on the torus [0,1)^n.  A cube is the product of half-open
intervals [a_i, a_i + side) taken mod 1; its cell set on an m-per-axis grid is
well defined whenever anchor and side are multiples of the cell width h = 1/m.
Because every resolution in play is a power of two, those coordinates are
exactly representable in binary floating point and snapping is loss-free.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

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

    @property
    def center(self) -> tuple[float, ...]:
        return tuple((a + self.side / 2.0) % 1.0 for a in self.anchor)

    def cells_per_axis(self, m: int) -> int:
        c = _to_cells(self.side, m, "side")
        if c < 1:
            raise ParameterError(f"cube of side {self.side} has no cells at resolution {m}")
        return c

    def anchor_cells(self, m: int) -> tuple[int, ...]:
        return tuple(_to_cells(a, m, "anchor") % m for a in self.anchor)

    def cell_arrays(self, m: int) -> tuple[np.ndarray, ...]:
        """Per-axis wrapped cell-index arrays; feed to ``np.ix_`` to slice fields."""
        c = self.cells_per_axis(m)
        return tuple((np.arange(c) + a) % m for a in self.anchor_cells(m))

    def cell_count(self, m: int) -> int:
        return self.cells_per_axis(m) ** self.dimension

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

    def disjoint_from(self, other: "Cube") -> bool:
        """True when the two cubes share no torus volume."""
        if self.side >= 1.0 or other.side >= 1.0:
            return False
        for a, b in zip(self.anchor, other.anchor):
            d = (b - a) % 1.0
            overlap = d < self.side - ALIGN_TOL or d + other.side > 1.0 + ALIGN_TOL
            if not overlap:
                return True
        return False

    def sort_key(self):
        return (-self.side, self.anchor)

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


def dilate(q: Cube, lam: float, m: int) -> Dilation:
    """Concentric dilation ``lam * q`` with torus saturation and outward snapping.

    The exact concentric cube has side min(lam * side, 1); its anchor is then
    rounded outward to the cell lattice so the returned cube always contains
    the exact one (conservative for upper bounds).  ``saturated`` is set when
    the side was clipped at the full torus.
    """
    if lam < 1.0:
        raise ParameterError(f"dilation factor must be >= 1, got {lam}")
    n = q.dimension
    h = 1.0 / m
    target = lam * q.side
    if target >= 1.0 - ALIGN_TOL:
        return Dilation(full_torus(n), True)
    anchors = []
    side_cells = 0
    for a in q.anchor:
        ctr = a + q.side / 2.0
        lo = ctr - target / 2.0
        hi = ctr + target / 2.0
        lo_c = int(np.floor(lo * m + ALIGN_TOL * m))
        hi_c = int(np.ceil(hi * m - ALIGN_TOL * m))
        side_cells = max(side_cells, hi_c - lo_c)
        anchors.append(lo_c)
    if side_cells >= m:
        return Dilation(full_torus(n), True)
    cube = Cube(tuple((lo_c % m) * h for lo_c in anchors), side_cells * h)
    return Dilation(cube, False)


def dyadic_dilations(q: Cube, m: int, k_max: Optional[int] = None) -> Iterator[tuple[int, Dilation]]:
    """Yield (k, 2^k q) for k = 0, 1, ... stopping after the first saturated cube."""
    k = 0
    while True:
        d = Dilation(q, False) if k == 0 else dilate(q, float(2 ** k), m)
        yield k, d
        if d.saturated or (k_max is not None and k >= k_max):
            return
        k += 1


@dataclass(frozen=True)
class DyadicGrid:
    """Dyadic children of a root cube, level g holding 2^{g n} disjoint cubes."""

    root: Cube
    depth: int
    resolution: int

    def __post_init__(self):
        c = self.root.cells_per_axis(self.resolution)
        if c % (2 ** self.depth) != 0:
            raise ParameterError(
                f"root of {c} cells per axis cannot be refined {self.depth} times"
            )

    def level(self, g: int) -> list[Cube]:
        if not (0 <= g <= self.depth):
            raise ParameterError(f"level {g} outside 0..{self.depth}")
        side = self.root.side / (2 ** g)
        n = self.root.dimension
        out = []
        for idx in np.ndindex(*(2 ** g,) * n):
            anchor = tuple((a + i * side) % 1.0 for a, i in zip(self.root.anchor, idx))
            out.append(Cube(anchor, side))
        return out


def dyadic_adapted_grid(q: Cube, depth: int, m: int) -> DyadicGrid:
    """Levels 0..depth of the dyadic children of ``q``; tiling is exact by construction."""
    if depth < 0:
        raise ParameterError("depth must be >= 0")
    cells = q.cells_per_axis(m)
    if cells % (2 ** depth) != 0 or cells // (2 ** depth) < 1:
        raise ParameterError(
            f"depth {depth} too deep: side of {cells} cells is not divisible by 2^{depth}"
        )
    return DyadicGrid(q, depth, m)


def torus_grid_adapted_to(q: Cube, m: int) -> DyadicGrid:
    """Dyadic grid of the whole torus translated so ``q`` sits on its lattice."""
    depth = int(round(np.log2(m)))
    root = Cube(q.anchor, 1.0)
    return DyadicGrid(root, depth, m)


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


def _dilated4_bounds(lo: int, c: int) -> tuple[int, int]:
    """Cell bounds of the outward-snapped concentric 4-dilation of [lo, lo+c)."""
    if c == 1:
        return lo - 2, 5
    return lo - (3 * c) // 2, 4 * c


def whitney_decompose(omega: np.ndarray, grid: DyadicGrid) -> list[Cube]:
    """Decompose an open cell-set into disjoint dyadic cubes sized by boundary distance.

    Phase 1 collects the maximal dyadic cubes Q of ``grid`` whose concentric
    dilation 4Q still lies inside omega.  Cells of omega left uncovered (those
    hugging the boundary, where no dyadic cube can keep its 4-dilation inside)
    are covered in phase 2 by the maximal dyadic cubes contained in the
    remainder.  Phase 2 cubes necessarily have 4Q meeting the complement, so
    every returned cube touches the complement of omega within its concentric
    10-dilation; the union is exactly omega and the cubes are pairwise
    disjoint.
    """
    m = grid.resolution
    n = omega.ndim
    if omega.shape != (m,) * n:
        raise ParameterError(f"omega shape {omega.shape} does not match resolution {m}")
    if omega.dtype != np.bool_:
        raise DataError("omega must be a boolean cell mask")
    total = int(omega.sum())
    if total == 0:
        return []
    if total == m ** n:
        raise DomainError("Whitney decomposition undefined for the full torus")
    if grid.root.side < 1.0 - ALIGN_TOL:
        raise ParameterError("Whitney decomposition expects a grid rooted at the torus")

    anchor_cells = grid.root.anchor_cells(m)
    rolled = omega
    for ax, a in enumerate(anchor_cells):
        rolled = np.roll(rolled, -a, axis=ax)
    table = SummedAreaTable(rolled)

    min_cells = max(1, m // (2 ** grid.depth))
    collected: list[tuple[tuple[int, ...], int]] = []

    def descend_dilated(lo: tuple[int, ...], c: int) -> None:
        inside = table.box_sum(lo, c)
        if inside == 0:
            return
        if 4 * c < m:
            d_lo_hi = [_dilated4_bounds(l, c) for l in lo]
            size = d_lo_hi[0][1]
            d_lo = tuple(x[0] for x in d_lo_hi)
            if table.box_sum(d_lo, size) == size ** n:
                collected.append((lo, c))
                return
        if c > min_cells:
            half = c // 2
            for idx in np.ndindex(*(2,) * n):
                child_lo = tuple(l + half * i for l, i in zip(lo, idx))
                descend_dilated(child_lo, half)

    descend_dilated((0,) * n, m)

    covered = np.zeros_like(rolled)
    for lo, c in collected:
        covered[tuple(slice(l, l + c) for l in lo)] = True
    remainder = rolled & ~covered

    if remainder.any():
        rem_table = SummedAreaTable(remainder)

        def descend_plain(lo: tuple[int, ...], c: int) -> None:
            inside = rem_table.box_sum(lo, c)
            if inside == 0:
                return
            if inside == c ** n:
                collected.append((lo, c))
                return
            if c > min_cells:
                half = c // 2
                for idx in np.ndindex(*(2,) * n):
                    descend_plain(tuple(l + half * i for l, i in zip(lo, idx)), half)

        descend_plain((0,) * n, m)

    h = 1.0 / m
    cubes = []
    for lo, c in collected:
        anchor = tuple(((l + a) % m) * h for l, a in zip(lo, anchor_cells))
        cubes.append(Cube(anchor, c * h))
    cubes.sort(key=Cube.sort_key)
    return cubes


def whitney_check(omega: np.ndarray, cubes: Sequence[Cube], m: int) -> dict:
    """Verify the decomposition invariants by cell enumeration.

    Returns booleans for pairwise disjointness, exact covering and the
    10Q-touches-complement property, plus the count of cubes whose concentric
    4-dilation stays inside omega (boundary cubes cannot satisfy it).
    """
    n = omega.ndim
    count = np.zeros_like(omega, dtype=np.int64)
    dilated_inside = 0
    ten_q_ok = True
    for q in cubes:
        ix = np.ix_(*q.cell_arrays(m))
        count[ix] += 1
        d4 = dilate(q, 4.0, m)
        if not d4.saturated and bool(omega[np.ix_(*d4.cube.cell_arrays(m))].all()):
            dilated_inside += 1
        d10 = dilate(q, 10.0, m)
        region = np.ones_like(omega) if d10.saturated else np.zeros_like(omega)
        if not d10.saturated:
            region[np.ix_(*d10.cube.cell_arrays(m))] = True
        if not bool((region & ~omega).any()):
            ten_q_ok = False
    disjoint = bool((count <= 1).all())
    cover = bool(((count == 1) == omega).all())
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


@dataclass(frozen=True)
class DisjointFamily:
    """A family of pairwise-disjoint subcubes of a parent cube."""

    parent: Cube
    members: tuple[Cube, ...]

    def to_dict(self) -> dict:
        return {
            "parent": self.parent.to_dict(),
            "members": [c.to_dict() for c in self.members],
        }

    @staticmethod
    def from_dict(d: dict) -> "DisjointFamily":
        return DisjointFamily(
            Cube.from_dict(d["parent"]),
            tuple(Cube.from_dict(c) for c in d["members"]),
        )


def cube_wraps(q: Cube) -> bool:
    """True when some axis interval crosses the torus seam."""
    if q.side >= 1.0:
        return False
    return any(a + q.side > 1.0 + ALIGN_TOL for a in q.anchor)


def _dyadic_children(q: Cube, m: int) -> list[Cube]:
    cells = q.cells_per_axis(m)
    if cells % 2 != 0:
        return []
    half = q.side / 2.0
    n = q.dimension
    out = []
    for idx in np.ndindex(*(2,) * n):
        anchor = tuple((a + i * half) % 1.0 for a, i in zip(q.anchor, idx))
        out.append(Cube(anchor, half))
    return out


def _random_packing(q: Cube, m: int, rng: np.random.Generator, max_depth: int) -> list[Cube]:
    chosen: list[Cube] = []

    def walk(node: Cube, depth: int) -> None:
        if depth >= 1 and rng.random() < 0.35:
            chosen.append(node)
            return
        children = _dyadic_children(node, m) if depth < max_depth else []
        if not children:
            if depth >= 1:
                chosen.append(node)
            return
        for child in children:
            if rng.random() < 0.75:
                walk(child, depth + 1)

    walk(q, 0)
    if not chosen:
        chosen = [q]
    chosen.sort(key=Cube.sort_key)
    return chosen


def _stopping_time_family(
    q: Cube, m: int, rng: np.random.Generator, values: np.ndarray
) -> list[Cube]:
    """Maximal dyadic subcubes where the local average of |values| exceeds a threshold."""
    base = float(np.abs(values[np.ix_(*q.cell_arrays(m))]).mean())
    tau = base * float(rng.uniform(1.05, 3.0))
    out: list[Cube] = []

    def walk(node: Cube) -> None:
        avg = float(np.abs(values[np.ix_(*node.cell_arrays(m))]).mean())
        if avg > tau and node.side < q.side:
            out.append(node)
            return
        for child in _dyadic_children(node, m):
            walk(child)

    walk(q)
    if not out:
        out = _random_packing(q, m, rng, max_depth=2)
    out.sort(key=Cube.sort_key)
    return out


def sample_disjoint_families(
    q: Cube,
    count: int,
    seed: int,
    m: int,
    strategy: str = "mixed",
    field_values: Optional[np.ndarray] = None,
) -> list[DisjointFamily]:
    """Seeded families of pairwise-disjoint subcubes of ``q``.

    Family #1 is always the singleton {q}; family #2 (when requested) the full
    generation-1 tiling.  Further families alternate random dyadic packings at
    mixed generations with stopping-time families driven by ``field_values``
    (packings only, when no field is supplied).
    """
    if count < 1:
        raise ParameterError("count must be >= 1")
    if strategy not in ("mixed", "dyadic-packing", "stopping-time"):
        raise ParameterError(f"unknown strategy {strategy!r}")
    rng = rng_from_seed(seed)
    cells = q.cells_per_axis(m)
    max_depth = 0
    while cells % 2 == 0 and max_depth < 4:
        cells //= 2
        max_depth += 1

    families: list[DisjointFamily] = [DisjointFamily(q, (q,))]
    if count >= 2 and max_depth >= 1:
        families.append(DisjointFamily(q, tuple(_dyadic_children(q, m))))
    want_stop = strategy in ("mixed", "stopping-time") and field_values is not None
    i = 0
    while len(families) < count:
        if want_stop and (strategy == "stopping-time" or i % 2 == 1):
            members = _stopping_time_family(q, m, rng, field_values)
        else:
            members = _random_packing(q, m, rng, max_depth)
        families.append(DisjointFamily(q, tuple(members)))
        i += 1
    return families[:count]
