"""Geometry: dilation, dyadic subcubes, Whitney decompositions, family sampling."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from osclab._support import DomainError, ParameterError, rng_from_seed
from osclab.cubes import (
    Cube,
    DisjointFamily,
    SummedAreaTable,
    _doubles,
    _generation_means,
    _node_table,
    _random_packing,
    _snapped,
    cell_membership,
    cell_rows,
    cube_blocks,
    descendant,
    dilate,
    full_torus,
    sample_disjoint_families,
    whitney_check,
    whitney_decompose,
)
from osclab.functionals import (
    Coeffs,
    Functional,
    bar_expand,
    estimate_condition,
    expanded_poincare,
    tilde_expand,
)
from osclab.grid import Field, maximal_function
from osclab.operators import OffDiagonalProfile
from osclab.weights import Weight


def sort_key(q: Cube) -> tuple:
    """The order of a family's members: coarsest first, then by anchor."""
    return (-q.side, q.anchor)


def generation(q, g) -> list:
    """The 2^{g n} generation-g descendants of q, in C order of their offsets."""
    return [descendant(q, g, k) for k in itertools.product(range(2 ** g), repeat=q.dimension)]


def rows_of(cubes, m) -> np.ndarray:
    """The lattice rows (c, a_1, ..., a_n) of ``cubes`` on the 1/m lattice."""
    return np.array([q.to_row(m) for q in cubes])


def disjoint(x, y, m) -> bool:
    """True when the cubes share no cell of the 1/m lattice, by their cell masks."""
    return not (x.mask(m) & y.mask(m)).any()


def family_cubes(fam) -> list:
    """The members of a disjoint family as cubes, in member order:
    ``descendant(parent, g, k)`` of each node (g, k) of ``fam.nodes``."""
    return [descendant(fam.parent, g, k) for g, *k in fam.nodes.tolist()]


def cell_mask(cubes, m, dim) -> np.ndarray:
    mask = np.zeros((m,) * dim, dtype=bool)
    for q in cubes:
        mask[np.ix_(*q.cell_arrays(m))] = True
    return mask


# ---------------------------------------------------------------------------
# dilate
# ---------------------------------------------------------------------------


def test_dilate_identity():
    q = Cube((0.25,), 0.25)
    d = dilate(q, 1.0, 16)
    assert d.cube == q
    assert not d.saturated


def test_dilate_doubling():
    q = Cube((0.25,), 0.25)
    d = dilate(q, 2.0, 16)
    assert d.cube.side == pytest.approx(0.5)
    assert d.cube.anchor[0] == pytest.approx(0.125)
    assert not d.saturated


def test_dilate_saturates_to_full_torus():
    q = Cube((0.5,), 0.25)
    d = dilate(q, 8.0, 16)
    assert d.saturated
    assert d.cube.cells_per_axis(16) ** d.cube.dimension == 16


def test_dilate_saturation_2d_cell_count():
    q = Cube((0.0, 0.5), 0.25)
    d = dilate(q, 8.0, 8)
    assert d.saturated and d.cube.cells_per_axis(8) ** d.cube.dimension == 64


def test_dilate_contains_exact_concentric_cube():
    # outward snapping: the result always contains the exact concentric cube
    m = 32
    q = Cube((3 / 32,), 4 / 32)
    d = dilate(q, 3.0, m)
    ctr = q.anchor[0] + q.side / 2
    lo, hi = ctr - 1.5 * q.side, ctr + 1.5 * q.side
    got = set(int(i) for i in d.cube.cell_arrays(m)[0])
    want = set(int(np.floor(x * m)) % m for x in np.arange(lo + 1e-9, hi - 1e-9, 1 / (4 * m)))
    assert want <= got


def test_dilate_monotone_in_lambda():
    m = 64
    q = Cube((17 / 64,), 4 / 64)
    prev = None
    for lam in (1.0, 1.5, 2.0, 3.0, 5.0, 9.0, 17.0):
        d = dilate(q, lam, m)
        cells = set(int(i) for i in d.cube.cell_arrays(m)[0])
        if prev is not None:
            assert prev <= cells
        prev = cells


def test_dilate_rejects_shrinking():
    with pytest.raises(ParameterError):
        dilate(Cube((0.0,), 0.5), 0.5, 16)


def per_cube_dilates(q: Cube, m: int, k_max: int) -> list:
    """(k, 2^k q, saturated): q itself at k = 0, then ``dilate``'s 2^k q up
    to k_max or the first saturated one."""
    out = [(0, q, False)]
    for k in range(1, k_max + 1):
        d = dilate(q, float(2 ** k), m)
        out.append((k, d.cube, d.saturated))
        if d.saturated:
            break
    return out


def test_block_dyadic_dilations_stop_at_saturation():
    # 2^3 * 1/8 = 1 saturates; a side-1 cube off the origin is itself,
    # unsaturated and anchored at its own cell, at k = 0, and the saturated
    # torus, anchored at cell 0, at k = 1
    m = 64
    block, = cube_blocks(np.array([[8, 0], [8, 32]]))
    walk = list(block.dyadic_dilations(m, 10))
    assert [(k, size, saturated) for k, _a, size, saturated in walk] == [
        (0, 8, False), (1, 16, False), (2, 32, False), (3, m, True)]
    assert walk[-1][1].tolist() == [[0], [0]]
    side_one, = cube_blocks(np.array([[m, 24]]))
    walk = list(side_one.dyadic_dilations(m, 10))
    assert [(k, anchors.tolist(), size, saturated) for k, anchors, size, saturated in walk] == [
        (0, [[24]], m, False), (1, [[0]], m, True)]


def lattice_cubes(dim, m):
    """Every cube on the 1/m lattice: each anchor cell and each side of 1..m cells."""
    for c in range(1, m + 1):
        for lo in itertools.product(range(m), repeat=dim):
            yield Cube(tuple(i / m for i in lo), c / m)


def least_lattice_dilate(q, lam, m):
    """The least 1/m-lattice cube containing the exact concentric lam * q, in
    exact arithmetic, and whether it covers an axis."""
    lam, side = Fraction(lam), Fraction(q.side)
    if lam * side >= 1:
        return full_torus(q.dimension), True
    anchor, cells = [], 0
    for a in q.anchor:
        center = Fraction(a) + side / 2
        lo = math.floor((center - lam * side / 2) * m)
        hi = math.ceil((center + lam * side / 2) * m)
        anchor.append(Fraction(lo % m, m))
        cells = hi - lo
    if cells >= m:
        return full_torus(q.dimension), True
    return Cube(tuple(float(a) for a in anchor), cells / m), False


DILATION_FACTORS = sorted({1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 10.0} | {2.0 ** k for k in range(8)})


@pytest.mark.parametrize("dim, ms", [(1, (1, 2, 4, 8, 16, 32, 64)), (2, (1, 2, 4, 8, 16))])
def test_dilate_is_the_least_lattice_cube_containing_the_exact_dilate(dim, ms):
    # the one snap rule, against exact rational arithmetic; Whitney's 4Q test
    # uses the same rule, so this pins it too
    for m in ms:
        for q in lattice_cubes(dim, m):
            for lam in DILATION_FACTORS:
                want, saturated = least_lattice_dilate(q, lam, m)
                d = dilate(q, lam, m)
                assert (d.cube, d.saturated) == (want, saturated), (q, lam, m)


# ---------------------------------------------------------------------------
# dyadic subcubes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim, m, anchor, cells", [
    (1, 64, (0.75,), 32), (1, 64, (0.3125,), 16), (2, 16, (0.75, 0.5), 8), (2, 16, (0.0, 0.875), 4),
])
def test_dyadic_generation_tiles_its_cube(dim, m, anchor, cells):
    # seam-crossing and plain cubes: each generation covers q once, cell by cell
    q = Cube(anchor, cells / m)
    for g in range(cells.bit_length()):
        kids = generation(q, g)
        assert len(kids) == 2 ** (g * dim)
        assert np.array_equal(sum(k.mask(m).astype(int) for k in kids), q.mask(m).astype(int)), g
        # offset k of generation g: cells >> g cells per axis, at q's anchor plus k of them, mod m
        offsets = itertools.product(range(2 ** g), repeat=dim)
        side, corner = cells >> g, q.anchor_cells(m)
        assert [kid.to_row(m) for kid in kids] == [
            (side, *[(a + ki * side) % m for a, ki in zip(corner, k)]) for k in offsets], g


def test_dyadic_children_2d_tile():
    q = Cube((0.0, 0.5), 0.5)
    kids = generation(q, 1)
    assert len(kids) == 4
    assert [k.anchor for k in kids] == [(0.0, 0.5), (0.0, 0.75), (0.25, 0.5), (0.25, 0.75)]  # C order
    mask = cell_mask(kids, 16, 2)
    assert mask.sum() == q.cells_per_axis(16) ** q.dimension
    assert bool(mask[np.ix_(*q.cell_arrays(16))].all())
    for i, a in enumerate(kids):
        for b in kids[i + 1 :]:
            assert disjoint(a, b, 16)
        assert q.contains_cube(a)


def test_descendants_1d_depth3_cells_match():
    q = Cube((0.5,), 0.5)
    level = [descendant(q, 3, (k,)) for k in range(8)]
    assert all(c.side == 0.5 / 8 for c in level)
    mask = cell_mask(level, 64, 1)
    qmask = cell_mask([q], 64, 1)
    assert np.array_equal(mask, qmask)


# ---------------------------------------------------------------------------
# Wrapped box sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
def test_box_sums_match_brute_force(dim, m):
    # anchors range over [-2m, 2m): box_sum reads any anchor mod m, and
    # Weight.mass passes anchors in [0, m)
    rng = np.random.default_rng(dim)
    arrays = {
        "bool": rng.random((m,) * dim) < 0.4,
        "int": rng.integers(0, 4, size=(m,) * dim),
        "float": rng.random((m,) * dim) + 0.1,
    }
    tables = {kind: SummedAreaTable(values) for kind, values in arrays.items()}
    seen = set()
    for _ in range(300):
        size = int(rng.integers(1, m + 1))
        lo = tuple(int(v) for v in rng.integers(-2 * m, 2 * m, size=dim))
        seen.update({"neg" for l in lo if l < 0} | {"high" for l in lo if l >= m}
                    | {"seam" for l in lo if l % m + size > m})
        ix = np.ix_(*[(np.arange(size) + l) % m for l in lo])
        for kind, values in arrays.items():
            got = tables[kind].box_sum(lo, size)
            want = values[ix].sum()
            if kind == "float":
                assert isinstance(got, float) and abs(got - want) <= 1e-12 * want, (lo, size)
            else:
                assert isinstance(got, int) and got == int(want), (kind, lo, size)
    assert seen == {"neg", "high", "seam"}


# ---------------------------------------------------------------------------
# Whitney decomposition
# ---------------------------------------------------------------------------


def test_whitney_empty_and_full():
    m = 32
    q = Cube((0.0,), 0.25)
    assert whitney_decompose(np.zeros(m, dtype=bool), q) == []
    with pytest.raises(DomainError):
        whitney_decompose(np.ones(m, dtype=bool), q)


def test_whitney_rejects_a_grid_it_cannot_halve_or_of_another_dimension():
    omega = np.zeros(48, dtype=bool)
    omega[5:9] = True
    with pytest.raises(ParameterError, match="power-of-two"):
        whitney_decompose(omega, Cube((0.0,), 0.25))
    with pytest.raises(ParameterError, match="dimension 2"):
        whitney_decompose(np.zeros(32, dtype=bool), Cube((0.0, 0.0), 0.25))


@pytest.mark.parametrize("dim,m", [(1, 64), (2, 32)])
def test_whitney_of_dyadic_cube(dim, m):
    # The decomposition of a dyadic cube covers it exactly with disjoint
    # cubes, every cube's concentric 10-dilation meets the complement, and
    # interior (non-boundary) cubes keep their 4-dilation inside.
    r = Cube((0.25,) * dim, 0.25)
    omega = cell_mask([r], m, dim)
    cubes = whitney_decompose(omega, Cube((0.0,) * dim, 0.25))
    chk = whitney_check(omega, cubes, m)
    assert chk["disjoint"]
    assert chk["cover"]
    assert chk["ten_q_touches_complement"]
    assert chk["dilated_inside"] >= 1
    assert chk["boundary_cubes"] < chk["cubes"]


def test_whitney_single_cell_set():
    m = 32
    omega = np.zeros(m, dtype=bool)
    omega[7] = True
    cubes = whitney_decompose(omega, Cube((0.0,), 0.25))
    chk = whitney_check(omega, cubes, m)
    assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    assert len(cubes) == 1 and cubes[0].side == pytest.approx(1 / m)


def test_whitney_level_set_like_region_2d():
    m = 32
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    omega = ((xx - 0.5) ** 2 + (yy - 0.5) ** 2) < 0.11
    cubes = whitney_decompose(omega, Cube((0.0, 0.0), 0.5))
    chk = whitney_check(omega, cubes, m)
    assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    sides = {q.side for q in cubes}
    assert len(sides) > 1  # genuinely multiscale


def test_whitney_respects_grid_anchor():
    # cubes must be dyadic with respect to the grid adapted to the supplied cube
    m = 64
    q_anchor = 3 / 64
    omega = np.zeros(m, dtype=bool)
    omega[10:30] = True
    for q in whitney_decompose(omega, Cube((q_anchor,), 0.25)):
        c = q.cells_per_axis(m)
        rel = (round(q.anchor[0] * m) - round(q_anchor * m)) % m
        assert rel % c == 0


def recursive_whitney(omega: np.ndarray, q: Cube) -> list[Cube]:
    """The Whitney decomposition by a depth-first walk of the dyadic tree, one
    ``SummedAreaTable.box_sum`` per visited node: the reference of
    ``whitney_decompose``, which decides every node of a generation at once."""
    m, n = omega.shape[0], omega.ndim
    anchor_cells = q.anchor_cells(m)
    rolled = omega
    for ax, a in enumerate(anchor_cells):
        rolled = np.roll(rolled, -a, axis=ax)
    table = SummedAreaTable(rolled)
    collected = []

    def descend(sums, accept, lo, c):
        inside = sums.box_sum(lo, c)
        if inside == 0:
            return
        if accept(lo, c, inside):
            collected.append((lo, c))
        elif c > 1:
            half = c // 2
            for idx in itertools.product((0, 1), repeat=n):
                descend(sums, accept, tuple(l + half * i for l, i in zip(lo, idx)), half)

    def dilated_inside(lo, c, inside):
        first, size = _snapped(c, 4.0)
        return size < m and table.box_sum(tuple(l + first for l in lo), size) == size ** n

    descend(table, dilated_inside, (0,) * n, m)
    covered = np.zeros_like(rolled)
    for lo, c in collected:
        covered[tuple(slice(l, l + c) for l in lo)] = True
    remainder = rolled & ~covered
    if remainder.any():
        descend(SummedAreaTable(remainder), lambda lo, c, inside: inside == c ** n, (0,) * n, m)
    cubes = [Cube(tuple(((l + a) % m) / m for l, a in zip(lo, anchor_cells)), c / m) for lo, c in collected]
    return sorted(cubes, key=sort_key)


def per_cube_whitney_check(omega: np.ndarray, cubes: list, m: int) -> dict:
    """``whitney_check`` one cube at a time, on ``Cube.index``: its reference."""
    count = np.zeros_like(omega, dtype=np.int64)
    dilated_inside, ten_q_ok = 0, True
    for q in cubes:
        count[q.index(m)] += 1
        d4 = dilate(q, 4.0, m)
        if not d4.saturated and bool(omega[d4.cube.index(m)].all()):
            dilated_inside += 1
        if bool(omega[dilate(q, 10.0, m).cube.index(m)].all()):
            ten_q_ok = False
    return {"disjoint": bool((count <= 1).all()), "cover": bool(((count == 1) == omega).all()),
            "cubes": len(cubes), "dilated_inside": dilated_inside, "boundary_cubes": len(cubes) - dilated_inside,
            "ten_q_touches_complement": ten_q_ok}


def assert_whitney_equals_the_recursive_walk(omega: np.ndarray, q: Cube) -> list[Cube]:
    """The decomposition equals the recursive walk's, as a list in order, and
    the check equals the per-cube check on it and on a broken cube list."""
    m = omega.shape[0]
    got = whitney_decompose(omega, q)
    assert got == recursive_whitney(omega, q)
    assert whitney_check(omega, got, m) == per_cube_whitney_check(omega, got, m)
    broken = got[1:] + got[:2]  # the first cube twice when there are two
    assert whitney_check(omega, broken, m) == per_cube_whitney_check(omega, broken, m)
    return got


def random_walk_level_sets(dim: int, m: int, seed: int) -> list[np.ndarray]:
    """Superlevel sets of a periodic-free random walk (summed along each axis)
    at five quantiles."""
    walk = np.random.default_rng(seed).normal(size=(m,) * dim)
    for ax in range(dim):
        walk = np.cumsum(walk, axis=ax)
    return [walk > np.quantile(walk, t) for t in (0.05, 0.3, 0.5, 0.8, 0.97)]


@pytest.mark.parametrize("dim, ms", [(1, (8, 64, 1024)), (2, (4, 16, 32))])
def test_whitney_by_generation_equals_the_recursive_walk_on_random_level_sets(dim, ms):
    # Q anchored so that its dyadic grid crosses the seam, on random-walk level
    # sets and on random cell sets
    rng = np.random.default_rng(dim)
    crossing = 0
    for m in ms:
        for seed in range(3):
            sets = random_walk_level_sets(dim, m, seed) + [rng.random((m,) * dim) < 0.6]
            for omega in sets:
                anchor = tuple(int(a) / m for a in rng.integers(0, m, size=dim))
                q = Cube(anchor, 2.0 ** -int(rng.integers(0, m.bit_length())))
                if omega.any() and not omega.all():
                    got = assert_whitney_equals_the_recursive_walk(omega, q)
                    crossing += any(a + w.side > 1.0 for w in got for a in w.anchor)
    assert crossing > 0


#: the 2-D good-lambda run of ROADMAP item 14 (classical-jn overrides)
JN_2D = ("dimension=2", "resolution_ladder=[32,64]", 'good_lambda.cube={"anchor":[0.25,0.25],"side":0.25}')


@pytest.mark.parametrize("overrides, rung", [((), 0), ((), 1), ((), 2), (JN_2D, 0), (JN_2D, 1)])
def test_whitney_by_generation_equals_the_recursive_walk_on_good_lambda_level_sets(overrides, rung):
    # every rung of classical-jn and of the 2-D run, at every t good-lambda
    # probes there: the level sets {M_{p0} G > t}, G = |B_Q^2 f| on 2Q
    from osclab.cli import ExperimentConfig, build_rung, bundled_config_path
    from osclab.verify import verify_good_lambda

    cfg = ExperimentConfig.load(bundled_config_path("classical-jn"), list(overrides))
    r = build_rung(cfg, cfg.resolution_ladder[rung])[0]
    q_cube = cfg.good_lambda["cube"]
    rep = verify_good_lambda(r, q_cube, s_mult=4.0, lam=0.5, q_exp=2.0, t_points=20)
    bq2 = r.family.apply_B(r.family.apply_B(r.field, q_cube), q_cube)
    g = np.where(dilate(q_cube, 2.0, r.m).cube.mask(r.m), np.abs(bq2.values), 0.0)
    mg = maximal_function(Field(g), r.family.p0).values
    decomposed = 0
    for t, *_ in rep.rows:
        omega = mg > t
        if omega.any() and not omega.all():
            assert_whitney_equals_the_recursive_walk(omega, q_cube)
            decomposed += 1
    assert decomposed >= 10


# ---------------------------------------------------------------------------
# disjoint family sampling
# ---------------------------------------------------------------------------


def test_families_first_two_are_canonical():
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 4, seed=5, m=64)
    assert family_cubes(fams[0]) == [q]
    assert len(fams[1].nodes) == 2  # generation-1 tiling in 1-D
    mask = cell_mask(family_cubes(fams[1]), 64, 1)
    assert np.array_equal(mask, cell_mask([q], 64, 1))


def test_families_reproducible_and_disjoint():
    q = Cube((0.25, 0.25), 0.5)
    a = sample_disjoint_families(q, 6, seed=9, m=32)
    b = sample_disjoint_families(q, 6, seed=9, m=32)
    assert a == b
    assert a != sample_disjoint_families(q, 6, seed=10, m=32)
    for fam in a:
        members = family_cubes(fam)
        for i, x in enumerate(members):
            assert q.contains_cube(x)
            for y in members[i + 1 :]:
                assert disjoint(x, y, 32)


def test_families_stopping_time_strategy():
    # with a field, every second draw after the first two is a stopping-time family
    rng = np.random.Generator(np.random.Philox(2))
    vals = np.abs(rng.normal(size=64)) + 0.05
    q = Cube((0.0,), 1.0)
    fams = sample_disjoint_families(q, 5, seed=3, m=64, field_values=vals)
    assert len(fams) == 5
    for fam in fams[2:]:
        members = family_cubes(fam)
        for i, x in enumerate(members):
            for y in members[i + 1 :]:
                assert disjoint(x, y, 64)


def test_family_count_one_is_singleton():
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 1, seed=0, m=16)
    assert fams == [DisjointFamily(q, np.zeros((1, 2), dtype=np.int64))]
    assert family_cubes(fams[0]) == [q]


def reference_random_packing(q, rng, max_depth):
    """The per-node Cube walk: random disjoint dyadic subcubes of q down to
    generation ``max_depth``, one ``rng.random()`` per decision."""
    chosen = []

    def walk(node, depth):
        if depth >= 1 and rng.random() < 0.35:
            chosen.append(node)
            return
        if depth >= max_depth:
            if depth >= 1:
                chosen.append(node)
            return
        for child in generation(node, 1):
            if rng.random() < 0.75:
                walk(child, depth + 1)

    walk(q, 0)
    if not chosen:
        chosen = [q]
    chosen.sort(key=sort_key)
    return chosen


def reference_stopping_time_family(q, m, rng, values):
    """The per-node walk: one fancy-indexed copy and one mean per visited node."""
    base = float(np.abs(values[np.ix_(*q.cell_arrays(m))]).mean())
    tau = base * float(rng.uniform(1.05, 3.0))
    out = []

    def walk(node):
        avg = float(np.abs(values[np.ix_(*node.cell_arrays(m))]).mean())
        if avg > tau and node.side < q.side:
            out.append(node)
            return
        if node.cells_per_axis(m) % 2 == 0:
            for child in generation(node, 1):
                walk(child)

    walk(q)
    if not out:
        # a random packing two generations deep, or as deep as q halves evenly
        cells = q.cells_per_axis(m)
        out = reference_random_packing(q, rng, max_depth=min(2, (cells & -cells).bit_length() - 1))
    out.sort(key=sort_key)
    return out


class FixedUniform:
    """A generator whose ``uniform`` returns one chosen factor; other draws pass through."""

    def __init__(self, seed, factor):
        self.rng = rng_from_seed(seed)
        self.factor = factor

    def uniform(self, lo, hi):
        return self.factor

    def random(self):
        return self.rng.random()


def node_means(q, m, values, g):
    """Per-node means of |values| at generation g in C order, each from the node's own copy."""
    side = q.cells_per_axis(m) // 2 ** g
    nodes = [
        Cube(tuple((a + k * side) % m / m for a, k in zip(q.anchor_cells(m), idx)), side / m)
        for idx in np.ndindex(*(2 ** g,) * q.dimension)
    ]
    return np.array([np.abs(values[np.ix_(*node.cell_arrays(m))]).mean() for node in nodes])


def walk_fields(dim, m):
    rng = np.random.default_rng(100 * dim + m)
    spiky = np.abs(rng.normal(size=(m,) * dim)) ** 3 + 0.01
    blocks = np.kron(rng.integers(1, 4, size=(m // 8,) * dim), np.ones((8,) * dim)).astype(float)
    return {"spiky": spiky, "blocks": blocks}


# (dim, m, anchor, side in cells): seam-crossing and not, odd-side roots
# (3 * 2^k cells), a rotated full torus, and a root with no children
WALK_CASES = [
    (1, 64, (0.0,), 64),
    (1, 256, (0.875,), 64),
    (1, 128, (0.8125,), 48),
    (1, 1024, (0.5,), 384),
    (1, 32, (0.25,), 3),
    (2, 32, (0.75, 0.5), 16),
    (2, 64, (0.875, 0.125), 24),
    (2, 16, (0.25, 0.5), 16),
    (2, 64, (0.0, 0.0), 32),
]


def halvings(cells):
    return (cells & -cells).bit_length() - 1


def stopping_time_cubes(q, table, tau, draws, cells):
    """The stopping-time family at tau from the node table, or its fallback
    packing from ``draws``, as cubes."""
    nodes = table.stopping_time(tau)
    if not len(nodes):
        nodes = table.packing(_random_packing(draws, q.dimension, min(2, halvings(cells))))
    return family_cubes(DisjointFamily(q, nodes))


@pytest.mark.parametrize("dim, m, anchor, cells", WALK_CASES)
def test_stopping_time_walk_matches_per_node_walk(dim, m, anchor, cells):
    q = Cube(anchor, cells / m)
    assert q.cells_per_axis(m) == cells
    for name, values in walk_fields(dim, m).items():
        for seed in (0, 7):
            got = sample_disjoint_families(q, 10, seed, m, field_values=values)
            # after the two canonical families, draws alternate a random
            # packing and a stopping-time family on one sequential generator
            rng = rng_from_seed(seed)
            want = [[q]] + ([generation(q, 1)] if cells % 2 == 0 else [])
            max_depth = min(4, halvings(cells))
            for i in range(10 - len(want)):
                want.append(reference_stopping_time_family(q, m, rng, values) if i % 2
                            else reference_random_packing(q, rng, max_depth))
            assert all(fam.parent == q for fam in got)
            assert [family_cubes(fam) for fam in got] == want, (name, seed)
            # the same draws in the same order: the next draw agrees
            draws, rng_b = _doubles(rng_from_seed(seed)), rng_from_seed(seed)
            means = _generation_means(np.abs(values[q.index(m)]))
            table = _node_table(q, m, max_depth, means)
            tau = float(means[0].item()) * (1.05 + (3.0 - 1.05) * next(draws))
            got = stopping_time_cubes(q, table, tau, draws, cells)
            assert got == reference_stopping_time_family(q, m, rng_b, values)
            assert next(draws) == rng_b.random()


@pytest.mark.parametrize("dim, m, anchor, cells", WALK_CASES)
def test_node_table_is_in_family_order(dim, m, anchor, cells):
    # every node down to the packing depth, sorted as sort_key sorts the
    # cubes, and each heap id (root 1, child id * 2^n + corner) ranks its node
    q = Cube(anchor, cells / m)
    depth = min(4, halvings(cells))
    table = _node_table(q, m, depth)
    want = sorted((descendant(q, g, k) for g in range(depth + 1)
                   for k in itertools.product(range(2 ** g), repeat=dim)), key=sort_key)
    assert family_cubes(DisjointFamily(q, table.nodes)) == want
    for g in range(depth + 1):
        for k in itertools.product(range(2 ** g), repeat=dim):
            heap = 1
            for j in range(g - 1, -1, -1):
                heap = heap * 2 ** dim + sum(((ki >> j) & 1) << (dim - 1 - ax) for ax, ki in enumerate(k))
            assert table.nodes[table.rank[heap]].tolist() == [g, *k]


class MassRatio(Functional):
    """a(Q) = l(Q)^0.1 mu(Q) / |Q|: large on small cubes at the spikes of mu."""

    def __init__(self, mu):
        self.mu, self.resolution = mu, mu.resolution

    def _values(self, c, anchors, m):
        side = c / m
        return np.array([side ** 0.1 * self.mu.mass(c, a) / side ** len(a) for a in anchors.tolist()])


def reference_ratios(a, m, r, families, mu=None, partner=None):
    """The defining ratio of each family member by member: a(Q) of each
    member and parent from its own one-row ``values`` call, its measure from
    its own cube."""
    def term(f, q):
        return f.values(q.cells_per_axis(m), np.array([q.anchor_cells(m)]), m).tolist()[0]

    def measure(q):
        return q.volume if mu is None else mu.mass(q.cells_per_axis(m), q.anchor_cells(m))

    return [sum(term(a, qi) ** r * measure(qi) for qi in family_cubes(fam)) ** (1.0 / r)
            / (term(partner or a, fam.parent) * measure(fam.parent) ** (1.0 / r)) for fam in families]


@pytest.mark.parametrize("dim, m, anchor, cells", WALK_CASES)
def test_conditions_read_per_node_equal_per_member_reference(dim, m, anchor, cells):
    # each distinct member is evaluated once, on blocks by size, and each
    # family sums its terms in member order: the same floats as member by
    # member, for every family alone and for all of them, over two parents
    q = Cube(anchor, cells / m)
    values = walk_fields(dim, m)["spiky"]
    h, mu = Field(np.sqrt(values)), Weight(Field(values))
    fams = sample_disjoint_families(q, 12, 3, m, field_values=values)
    fams += sample_disjoint_families(Cube((0.0,) * dim, 0.5), 4, 5, m)
    profile = OffDiagonalProfile(alpha={k: 2.0 ** -k for k in range(2, 9)}, beta=None,
                                 exponents=(1.0, math.inf), probe_spec={"kind": "averaging", "dimension": dim})
    tilde = tilde_expand(expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0)), profile).collapse()
    spiky = MassRatio(mu)
    beaten = []
    for condition, a, r, weight, partner in (("Dr", spiky, 1.0, None, None), ("Dr", spiky, 1.7, mu, None),
                                             ("pair", spiky, 1.5, None, tilde),
                                             ("pair", tilde, 1.5, mu, bar_expand(tilde, q=1.5))):
        want = reference_ratios(a, m, r, fams, mu=weight, partner=partner)
        got = [estimate_condition(a, condition, m, r=r, mu=weight, families=[fam], partner=partner)
               for fam in fams]
        assert [rep.measured_constant for rep in got] == want, condition
        rep = estimate_condition(a, condition, m, r=r, mu=weight, families=fams, partner=partner)
        assert rep.measured_constant == max(want), condition
        beaten.append(max(want) > want[0])
    assert any(beaten)  # some constant is not the singleton's


def test_buffered_doubles_equal_sequential_draws():
    # the stream crosses buffer refills; uniform(1.05, 3.0) is numpy's low + (high - low) u
    for seed in (0, 4242, 2 ** 40 + 3):
        rng, draws = rng_from_seed(seed), _doubles(rng_from_seed(seed))
        pattern = np.random.default_rng(seed).random(10_000) < 0.2
        for uniform in pattern.tolist():
            if uniform:
                assert 1.05 + (3.0 - 1.05) * next(draws) == float(rng.uniform(1.05, 3.0))
            else:
                assert next(draws) == rng.random()


@pytest.mark.parametrize("dim, m, anchor, cells", WALK_CASES)
def test_generation_means_equal_per_node_means(dim, m, anchor, cells):
    # bit-identical to the mean of each node's own copy, not merely close
    q = Cube(anchor, cells / m)
    values = walk_fields(dim, m)["spiky"]
    means = _generation_means(np.abs(values[q.index(m)]))
    assert len(means) == (cells & -cells).bit_length()  # generations 0..v, 2^v the largest power dividing cells
    for g, got in enumerate(means):
        assert got.shape == (2 ** g,) * dim
        assert np.array_equal(got.ravel(), node_means(q, m, values, g)), g


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 32)])
def test_stopping_time_walk_with_ties_at_tau(dim, m):
    # a block-constant field, with tau set to exactly the mean of one node:
    # nodes whose mean equals tau are not chosen, their children are visited,
    # and a tau above every mean leaves no node, so the family falls back to
    # the random packing
    q = Cube((0.0,) * dim, 1.0)
    values = walk_fields(dim, m)["blocks"]
    base = float(np.abs(values).mean())
    means = _generation_means(np.abs(values))
    table = _node_table(q, m, 4, means)
    ties = 0
    for g in (1, 2, 3):
        for level in np.unique(means[g]):
            target = float(level)
            factor = target / base
            for candidate in (factor, np.nextafter(factor, 0.0), np.nextafter(factor, 2.0 * factor)):
                if base * float(candidate) == target:
                    factor = float(candidate)
                    break
            else:
                continue
            ties += 1
            got = stopping_time_cubes(q, table, base * factor, _doubles(rng_from_seed(3)), m)
            want = reference_stopping_time_family(q, m, FixedUniform(3, factor), values)
            assert got == want, (g, target)
    assert ties >= 3
    over = float(values.max()) / base * 2.0
    assert not len(table.stopping_time(base * over))
    draws, rng_b = _doubles(rng_from_seed(5)), FixedUniform(5, over)
    fallback = stopping_time_cubes(q, table, base * over, draws, m)
    assert fallback == reference_stopping_time_family(q, m, rng_b, values)
    assert next(draws) == rng_b.random()


# ---------------------------------------------------------------------------
# cube index
# ---------------------------------------------------------------------------


# (anchor, side, crosses the seam)
INDEX_CASES = {
    1: [((0.25,), 0.5, False), ((0.75,), 0.5, True), ((0.0,), 1.0, False), ((0.5,), 1.0, True),
        ((0.96875,), 0.0625, True)],
    2: [((0.25, 0.5), 0.25, False), ((0.875, 0.25), 0.25, True), ((0.5, 0.875), 0.5, True),
        ((0.0, 0.0), 1.0, False), ((0.25, 0.0), 1.0, True), ((0.75, 0.75), 0.5, True)],
}


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
def test_cube_index_matches_ix(dim, m):
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(m,) * dim)
    field = Field(values.copy())
    for anchor, side, crosses in INDEX_CASES[dim]:
        q = Cube(anchor, side)
        ix = np.ix_(*q.cell_arrays(m))
        index = q.index(m)
        assert all(isinstance(i, slice) for i in index) == (not crosses), q
        # reads: the same values in the same C order, so the same sums
        got = field.restrict(q)
        assert np.array_equal(got, values[ix].ravel()), q
        assert got.mean() == values[ix].mean(), q
        # writes: in-place updates and assignment hit the same cells
        a, b = values.copy(), values.copy()
        a[index] -= 0.375
        b[ix] -= 0.375
        assert np.array_equal(a, b), q
        mask = np.zeros((m,) * dim, dtype=bool)
        mask[index] = True
        assert int(mask.sum()) == q.cells_per_axis(m) ** q.dimension, q
        assert np.array_equal(mask, cell_mask([q], m, dim)), q
    assert np.array_equal(field.values, values)


@pytest.mark.parametrize("dim, m", [(1, 16), (2, 8)])
def test_cube_mask_is_assignment_through_index(dim, m):
    # every lattice cube, those crossing the seam included
    for q in lattice_cubes(dim, m):
        want = np.zeros((m,) * dim, dtype=bool)
        want[q.index(m)] = True
        got = q.mask(m)
        assert got.dtype == np.bool_ and np.array_equal(got, want), q


# ---------------------------------------------------------------------------
# cube serialization
# ---------------------------------------------------------------------------


def test_cube_json_roundtrip():
    q = Cube((0.125, 0.75), 0.25)
    assert Cube.from_dict(q.to_dict()) == q


def test_full_torus_contains_everything():
    t = full_torus(2)
    assert t.contains_cube(Cube((0.3125, 0.0), 0.0625))
    assert not disjoint(t, Cube((0.5, 0.5), 0.25), 16)


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
def test_cube_blocks_match_the_per_cube_geometry(dim, m):
    # every dyadic cube and random lattice cubes of every side, seam-crossing
    # and side-1 ones among them: a block's rows gather each cube's cells in
    # the order of Cube.index, its dilates are dilate's, with the same
    # saturation, and membership in 2Q is 2Q's mask
    rng = np.random.Generator(np.random.Philox(3))
    cubes = [q for g in range(m.bit_length()) for q in generation(full_torus(dim), g)]
    cubes += [Cube(tuple(int(a) / m for a in rng.integers(0, m, dim)), 2 ** int(rng.integers(0, m.bit_length())) / m)
              for _ in range(40)]
    cells = np.arange(m ** dim).reshape((m,) * dim)
    blocks = cube_blocks(rows_of(cubes, m))
    assert sorted(i for b in blocks for i in b.members.tolist()) == list(range(len(cubes)))
    for block in blocks:
        two_q, two_size, _ = block.dilate(2.0, m)
        walk = list(block.dyadic_dilations(m, 4))
        for j, i in enumerate(block.members.tolist()):
            q = cubes[i]
            assert q.cells_per_axis(m) == block.c
            want = per_cube_dilates(q, m, 4)
            assert [(k, saturated) for k, _a, _s, saturated in walk] == [(k, saturated) for k, _d, saturated in want]
            for (k, anchors, size, _saturated), (_k, d, _sat) in zip(walk, want):
                assert np.array_equal(cell_rows(anchors, size, m)[j], cells[d.index(m)].ravel())
                assert (tuple(anchors[j].tolist()), size) == (d.anchor_cells(m), d.cells_per_axis(m))
                inside = cell_membership(anchors, size, two_q, two_size, m)[j]
                assert np.array_equal(inside, dilate(q, 2.0, m).cube.mask(m)[d.index(m)].ravel())


@pytest.mark.parametrize("dim, width, row_cells, sizes", [
    (1, 4, 10, [2, 2, 2, 1]),  # 10 // 4 rows of 4 cells per part
    (2, 3, 20, [2, 2, 2, 1]),  # 20 // 9
    (2, 8, 20, [1] * 7),  # one row of 64 cells is larger: one cube each
])
def test_block_parts_split_in_order_within_the_row_budget(monkeypatch, dim, width, row_cells, sizes):
    monkeypatch.setattr("osclab.cubes.ROW_CELLS", row_cells)
    rng = np.random.Generator(np.random.Philox(1))
    cubes = [Cube(tuple(int(a) / 16 for a in rng.integers(0, 16, dim)), 0.125) for _ in range(sum(sizes))]
    block, = cube_blocks(rows_of(cubes, 16))
    parts = list(block.parts(width, dim))
    assert [len(p.members) for p in parts] == sizes
    assert all(p.c == block.c for p in parts)
    assert np.array_equal(np.concatenate([p.members for p in parts]), block.members)
    assert np.array_equal(np.concatenate([p.anchors for p in parts]), block.anchors)


@pytest.mark.parametrize("dim, m", [(1, 16), (2, 8)])
def test_cell_rows_wrap_as_the_modulo_does(dim, m):
    # the largest wrap: anchors at m - 1 and at 0 on each axis, cubes of every
    # size up to m; the rows and the membership are those of the % m form
    anchors = np.array(list(itertools.product((0, m - 1, m // 2), repeat=dim)))
    inner = np.roll(anchors, 1, axis=0)
    for size in range(1, m + 1):
        per_axis = [(anchors[:, ax, None] + np.arange(size)) % m for ax in range(dim)]
        rows = per_axis[0]
        for cells in per_axis[1:]:
            rows = (rows[:, :, None] * m + cells[:, None, :]).reshape(len(anchors), -1)
        assert np.array_equal(cell_rows(anchors, size, m), rows), size
        for inner_size in (1, m // 2, m):
            member = [(cells - inner[:, ax, None]) % m < inner_size for ax, cells in enumerate(per_axis)]
            inside = member[0]
            for more in member[1:]:
                inside = (inside[:, :, None] & more[:, None, :]).reshape(len(anchors), -1)
            assert np.array_equal(cell_membership(anchors, size, inner, inner_size, m), inside), (size, inner_size)
