"""Geometry: dilation, dyadic grids, Whitney decompositions, family sampling."""

from __future__ import annotations

import numpy as np
import pytest

from osclab._support import DomainError, ParameterError
from osclab.cubes import (
    Cube,
    DisjointFamily,
    SummedAreaTable,
    dilate,
    dyadic_adapted_grid,
    dyadic_dilations,
    full_torus,
    sample_disjoint_families,
    torus_grid_adapted_to,
    whitney_check,
    whitney_decompose,
)


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
    assert d.cube.cell_count(16) == 16


def test_dilate_saturation_2d_cell_count():
    q = Cube((0.0, 0.5), 0.25)
    d = dilate(q, 8.0, 8)
    assert d.saturated and d.cube.cell_count(8) == 64


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


def test_dyadic_dilations_stop_at_saturation():
    q = Cube((0.0,), 0.125)
    ks = [k for k, d in dyadic_dilations(q, 64)]
    assert ks == [0, 1, 2, 3]  # 2^3 * 1/8 = 1 saturates


# ---------------------------------------------------------------------------
# dyadic grids
# ---------------------------------------------------------------------------


def test_adapted_grid_depth_zero():
    q = Cube((0.25,), 0.5)
    g = dyadic_adapted_grid(q, 0, 16)
    assert g.level(0) == [q]


def test_adapted_grid_2d_children_tile():
    q = Cube((0.0, 0.5), 0.5)
    g = dyadic_adapted_grid(q, 1, 16)
    kids = g.level(1)
    assert len(kids) == 4
    mask = cell_mask(kids, 16, 2)
    assert mask.sum() == q.cell_count(16)
    assert bool(mask[np.ix_(*q.cell_arrays(16))].all())
    for i, a in enumerate(kids):
        for b in kids[i + 1 :]:
            assert a.disjoint_from(b)
        assert q.contains_cube(a)


def test_adapted_grid_1d_depth3_cells_match():
    q = Cube((0.5,), 0.5)
    g = dyadic_adapted_grid(q, 3, 64)
    level = g.level(3)
    assert len(level) == 8
    assert all(c.side == pytest.approx(0.5 / 8) for c in level)
    mask = cell_mask(level, 64, 1)
    qmask = cell_mask([q], 64, 1)
    assert np.array_equal(mask, qmask)


def test_adapted_grid_rejects_overdeep():
    with pytest.raises(ParameterError):
        dyadic_adapted_grid(Cube((0.0,), 0.25), 3, 16)  # 4 cells / 2^3 < 1


# ---------------------------------------------------------------------------
# Wrapped box sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
def test_box_sums_match_brute_force(dim, m):
    # anchors range over [-2m, 2m), as whitney_decompose passes them for
    # dilated boxes near the seam and Weight.mass for anchors in [0, m)
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
    grid = torus_grid_adapted_to(Cube((0.0,), 0.25), m)
    assert whitney_decompose(np.zeros(m, dtype=bool), grid) == []
    with pytest.raises(DomainError):
        whitney_decompose(np.ones(m, dtype=bool), grid)


@pytest.mark.parametrize("dim,m", [(1, 64), (2, 32)])
def test_whitney_of_dyadic_cube(dim, m):
    # The decomposition of a dyadic cube covers it exactly with disjoint
    # cubes, every cube's concentric 10-dilation meets the complement, and
    # interior (non-boundary) cubes keep their 4-dilation inside.
    r = Cube((0.25,) * dim, 0.25)
    omega = cell_mask([r], m, dim)
    grid = torus_grid_adapted_to(Cube((0.0,) * dim, 0.25), m)
    cubes = whitney_decompose(omega, grid)
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
    grid = torus_grid_adapted_to(Cube((0.0,), 0.25), m)
    cubes = whitney_decompose(omega, grid)
    chk = whitney_check(omega, cubes, m)
    assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    assert len(cubes) == 1 and cubes[0].side == pytest.approx(1 / m)


def test_whitney_level_set_like_region_2d():
    m = 32
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    omega = ((xx - 0.5) ** 2 + (yy - 0.5) ** 2) < 0.11
    grid = torus_grid_adapted_to(Cube((0.0, 0.0), 0.5), m)
    cubes = whitney_decompose(omega, grid)
    chk = whitney_check(omega, cubes, m)
    assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    sides = {q.side for q in cubes}
    assert len(sides) > 1  # genuinely multiscale


def test_whitney_respects_grid_anchor():
    # cubes must be dyadic with respect to the supplied adapted grid
    m = 64
    q_anchor = 3 / 64
    omega = np.zeros(m, dtype=bool)
    omega[10:30] = True
    grid = torus_grid_adapted_to(Cube((q_anchor,), 0.25), m)
    for q in whitney_decompose(omega, grid):
        c = q.cells_per_axis(m)
        rel = (round(q.anchor[0] * m) - round(q_anchor * m)) % m
        assert rel % c == 0


# ---------------------------------------------------------------------------
# disjoint family sampling
# ---------------------------------------------------------------------------


def test_families_first_two_are_canonical():
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 4, seed=5, m=64)
    assert fams[0].members == (q,)
    assert len(fams[1].members) == 2  # generation-1 tiling in 1-D
    mask = cell_mask(fams[1].members, 64, 1)
    assert np.array_equal(mask, cell_mask([q], 64, 1))


def test_families_reproducible_and_disjoint():
    q = Cube((0.25, 0.25), 0.5)
    a = sample_disjoint_families(q, 6, seed=9, m=32)
    b = sample_disjoint_families(q, 6, seed=9, m=32)
    assert a == b
    for fam in a:
        for i, x in enumerate(fam.members):
            assert q.contains_cube(x)
            for y in fam.members[i + 1 :]:
                assert x.disjoint_from(y)


def test_families_stopping_time_strategy():
    rng = np.random.Generator(np.random.Philox(2))
    vals = np.abs(rng.normal(size=64)) + 0.05
    q = Cube((0.0,), 1.0)
    fams = sample_disjoint_families(q, 5, seed=3, m=64, strategy="stopping-time", field_values=vals)
    assert len(fams) == 5
    for fam in fams[2:]:
        for i, x in enumerate(fam.members):
            for y in fam.members[i + 1 :]:
                assert x.disjoint_from(y)


def test_family_count_one_is_singleton():
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 1, seed=0, m=16)
    assert fams == [DisjointFamily(q, (q,))]


# ---------------------------------------------------------------------------
# cube serialization
# ---------------------------------------------------------------------------


def test_cube_json_roundtrip():
    q = Cube((0.125, 0.75), 0.25)
    assert Cube.from_dict(q.to_dict()) == q


def test_full_torus_contains_everything():
    t = full_torus(2)
    assert t.contains_cube(Cube((0.3125, 0.0), 0.0625))
    assert not t.disjoint_from(Cube((0.5, 0.5), 0.25))


def test_disjoint_family_json_roundtrip():
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 3, seed=1, m=32)
    for fam in fams:
        assert DisjointFamily.from_dict(fam.to_dict()) == fam


def test_cube_wraps_detection():
    from osclab.cubes import cube_wraps

    assert cube_wraps(Cube((0.875,), 0.25))
    assert not cube_wraps(Cube((0.5,), 0.25))
    assert not cube_wraps(Cube((0.0,), 1.0))
