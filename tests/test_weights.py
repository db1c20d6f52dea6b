"""Muckenhoupt / reverse-Holder diagnostics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from osclab._support import DataError, ParameterError, report_tree, rng_from_seed
from osclab.cubes import Cube, cell_rows, cube_blocks
from osclab.grid import Field, make_field
from osclab.verify import make_cube_sample
from osclab.weights import (
    AINF_PROBE_R,
    Weight,
    ap_ratios,
    ones_weight,
    rh_ratios,
    rh_subset_check,
    weight_report,
)


def power_weight(m: int, gamma: float = -0.5, dimension: int = 1) -> Weight:
    return Weight(make_field("power-distance", dimension, m, center=0.5, gamma=gamma))


def spike_weight(m: int, dimension: int = 1) -> Weight:
    return Weight(make_field("spike", dimension, m, amp=10.0, cell=(m // 3,) * dimension))


# ---------------------------------------------------------------------------
# per-cube reference: the defining ratios on one cube's restriction at a time
# ---------------------------------------------------------------------------


def ap_constant_on_cube(w: Weight, q: Cube, p: float) -> float:
    """Defining A_p ratio on a single cube (ess-inf form when p = 1)."""
    vals = w.density.restrict(q)
    mean = float(vals.mean())
    if p == 1.0:
        return mean / float(vals.min())
    pprime = p / (p - 1.0)
    dual = float(np.power(vals, 1.0 - pprime).mean()) ** (p - 1.0)
    return mean * dual


def rh_constant_on_cube(w: Weight, q: Cube, p: float) -> float:
    """Defining reverse-Holder ratio on a single cube."""
    vals = w.density.restrict(q)
    return float(np.power(vals, p).mean()) ** (1.0 / p) / float(vals.mean())


def cubes_of(sample: np.ndarray, m: int) -> list[Cube]:
    """The cubes of the lattice rows ``sample`` of the 1/m lattice."""
    return [Cube.from_row(row, m) for row in sample.tolist()]


def mass(w: Weight, q: Cube) -> float:
    """w(Q) through the cube's lattice row."""
    c, *anchor = q.to_row(w.resolution)
    return w.mass(c, anchor)


def rh_subset_check_on(w: Weight, q: Cube, subset_mask: np.ndarray, p: float) -> tuple[float, float]:
    """``rh_subset_check`` on the cube q, through its lattice row."""
    c, *anchor = q.to_row(w.resolution)
    return rh_subset_check(w, c, anchor, subset_mask, p)


def theta_on_cubes(w: Weight, cubes, seed: int) -> float:
    """The theta fit with each cube's cells read through its own index."""
    rng = rng_from_seed(seed)
    m, log4, theta = w.resolution, math.log(4.0), 1.0
    for q in cubes:
        wq, count = mass(w, q), q.cells_per_axis(m) ** q.dimension
        flat_density = w.density.values[q.index(m)].ravel()
        for frac in (0.5, 0.25, 0.0625):
            k = max(1, int(round(count * frac)))
            if k >= count:
                continue
            for _ in range(2):
                pick = rng.choice(count, size=k, replace=False)
                ws = float(flat_density[pick].sum()) * w.density.cell_volume
                x, y = math.log(k / count), math.log(ws / wq)
                if x < -1e-12:
                    theta = min(theta, (y - log4) / x)
    return max(min(theta, 1.0), 1e-9)


def weight_case(case: str):
    """(weight, sample): 1-D m = 64 and 2-D m = 16, off-dyadic cubes across the seam."""
    dimension, m, kind = {"1d-power": (1, 64, "power"), "1d-spike": (1, 64, "spike"),
                          "2d-power": (2, 16, "power"), "2d-spike": (2, 16, "spike")}[case]
    w = power_weight(m, -1.5, dimension) if kind == "power" else spike_weight(m, dimension)
    sample = make_cube_sample(dimension, m, min_cells=2, off_dyadic=24, seed=4)
    assert np.any(sample[:, 1:] + sample[:, :1] > m)  # some cubes cross the seam
    return w, sample


@pytest.mark.parametrize("row_cells", [None, 20])
@pytest.mark.parametrize("case", ["1d-power", "1d-spike", "2d-power", "2d-spike"])
def test_block_weight_report_equals_the_per_cube_reference(monkeypatch, case, row_cells):
    # row_cells = 20: every block of more than a few cells is gathered in parts
    if row_cells is not None:
        monkeypatch.setattr("osclab.cubes.ROW_CELLS", row_cells)
    w, sample = weight_case(case)
    cubes = cubes_of(sample, w.resolution)
    ps = [1.0, 1.5, 2.0, 4.0]
    rep = weight_report(w, ps, sample, seed=7)
    assert rep.ap == {p: max(ap_constant_on_cube(w, q, p) for q in cubes) for p in ps}
    assert rep.rh == {p: max(rh_constant_on_cube(w, q, p) for q in cubes) for p in ps[1:]}
    assert rep.ainf_probe_constant == rep.rh[AINF_PROBE_R]
    assert rep.theta == theta_on_cubes(w, cubes, seed=7)
    assert rep.cubes_sampled == len(sample)


@pytest.mark.parametrize("case", ["1d-power", "2d-power"])
def test_row_kernels_equal_the_per_cube_ratios_row_by_row(case):
    w, sample = weight_case(case)
    m = w.resolution
    for block in cube_blocks(sample):
        rows = w.density.values.ravel()[cell_rows(block.anchors, block.c, m)]
        cubes = cubes_of(sample[block.members], m)
        for p in (1.0, 1.5, 2.0, 4.0):
            assert ap_ratios(rows, p) == [ap_constant_on_cube(w, q, p) for q in cubes]
            if p > 1.0:
                assert rh_ratios(rows, p) == [rh_constant_on_cube(w, q, p) for q in cubes]


@pytest.mark.parametrize("case", ["1d-spike", "2d-power"])
def test_theta_fit_binds_below_one(case):
    # the comparison is not clamped on these cases, so the draws are compared
    w, sample = weight_case(case)
    assert weight_report(w, [2.0], sample, seed=7).theta < 1.0


def test_weight_requires_positive_density():
    with pytest.raises(DataError):
        Weight(Field(np.array([1.0, 0.0, 2.0, 1.0])))


def test_mass_additivity_and_cache():
    w = power_weight(64)
    q = Cube((0.25,), 0.5)
    left = Cube((0.25,), 0.25)
    right = Cube((0.5,), 0.25)
    assert mass(w, q) == pytest.approx(mass(w, left) + mass(w, right), rel=1e-12)
    # mass equals the direct cell sum
    direct = w.density.restrict(q).sum() * w.density.cell_volume
    assert mass(w, q) == pytest.approx(direct, rel=1e-12)


def test_mass_wraps_around_torus():
    w = spike_weight(16)
    q = Cube((0.75,), 0.5)  # wraps through 0
    direct = w.density.restrict(q).sum() * w.density.cell_volume
    assert mass(w, q) == pytest.approx(direct, rel=1e-12)


def test_unit_weight_constants_are_one():
    w = ones_weight(1, 32)
    sample = make_cube_sample(1, 32, min_cells=4, off_dyadic=16, seed=1)
    rep = weight_report(w, [1.0, 2.0, 3.0], sample, seed=2)
    for v in rep.ap.values():
        assert v == pytest.approx(1.0, abs=1e-12)
    for v in rep.rh.values():
        assert v == pytest.approx(1.0, abs=1e-12)
    assert rep.theta == pytest.approx(1.0, abs=1e-12)


def test_power_weight_a1_stable_under_refinement():
    consts = []
    for m in (128, 256):
        w = power_weight(m)
        sample = make_cube_sample(1, m, min_cells=8, off_dyadic=16, seed=0)
        consts.append(weight_report(w, [1.0], sample).ap[1.0])
    assert all(np.isfinite(c) for c in consts)
    assert max(consts) / min(consts) < 2.0


def test_spike_ap_constants_decreasing_in_p():
    w = spike_weight(32)
    sample = make_cube_sample(1, 32, min_cells=4, off_dyadic=16, seed=3)
    rep = weight_report(w, [1.0, 1.5, 2.0, 4.0], sample, seed=3)
    ps = sorted(rep.ap)
    vals = [rep.ap[p] for p in ps]
    assert all(v >= 1.0 - 1e-12 for v in vals)
    for lo, hi in zip(vals[1:], vals[:-1]):
        assert lo <= hi * (1 + 1e-12)


def test_rh_constants_nondecreasing_in_p():
    w = spike_weight(32)
    sample = make_cube_sample(1, 32, min_cells=4, off_dyadic=16, seed=3)
    rep = weight_report(w, [1.5, 2.0, 4.0], sample, seed=3)
    ps = sorted(rep.rh)
    vals = [rep.rh[p] for p in ps]
    for a, b in zip(vals[:-1], vals[1:]):
        assert b >= a * (1 - 1e-12)


def test_a1_left_comparison_inequality():
    # |S|/|Q| <= A1 * w(S)/w(Q) on sampled subcubes of sampled cubes
    w = power_weight(64)
    sample = make_cube_sample(1, 64, min_cells=8, off_dyadic=16, seed=5)
    a1 = weight_report(w, [1.0], sample).ap[1.0]
    m = 64
    for q in cubes_of(sample[:12], m):
        c = q.cells_per_axis(m)
        if c < 4:
            continue
        sub = Cube(q.anchor, (c // 4) / m)
        lhs = sub.cells_per_axis(m) ** sub.dimension / q.cells_per_axis(m) ** q.dimension
        rhs = a1 * mass(w, sub) / mass(w, q)
        assert lhs <= rhs * (1 + 1e-12)


def test_rh_subset_check_trivial_and_unit():
    m = 32
    w = ones_weight(1, m)
    q = Cube((0.0,), 0.5)
    full = np.zeros(m, dtype=bool)
    full[np.ix_(*q.cell_arrays(m))] = True
    lhs, rhs = rh_subset_check_on(w, q, full, 2.0)
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert rhs >= 1.0 - 1e-12
    small = np.zeros(m, dtype=bool)
    small[0:4] = True
    lhs, rhs = rh_subset_check_on(w, q, small, 2.0)
    assert lhs == pytest.approx(4 / 16, rel=1e-13)
    assert rhs == pytest.approx((4 / 16) ** 0.5, rel=1e-13)
    assert lhs <= rhs


def test_rh_subset_check_spike_direct_masses():
    m = 32
    w = spike_weight(m)
    q = Cube((0.25,), 0.5)
    spike_cell = m // 3
    e = np.zeros(m, dtype=bool)
    e[spike_cell] = True
    lhs, rhs = rh_subset_check_on(w, q, e, 2.0)
    direct = w.density.values[spike_cell] / w.density.restrict(q).sum()
    assert lhs == pytest.approx(direct, rel=1e-12)
    assert lhs <= rhs * (1 + 1e-12)


def test_rh_subset_check_rejects_outside_subset():
    m = 32
    w = ones_weight(1, m)
    q = Cube((0.0,), 0.25)
    e = np.zeros(m, dtype=bool)
    e[m - 1] = True
    with pytest.raises(ParameterError):
        rh_subset_check_on(w, q, e, 2.0)


def test_rh_subset_holds_across_random_subsets():
    rng = np.random.Generator(np.random.Philox(7))
    m = 64
    w = power_weight(m)
    q = Cube((0.25,), 0.5)
    qmask = np.zeros(m, dtype=bool)
    qmask[np.ix_(*q.cell_arrays(m))] = True
    idx = np.flatnonzero(qmask)
    for _ in range(50):
        k = int(rng.integers(1, idx.size))
        pick = rng.choice(idx, size=k, replace=False)
        e = np.zeros(m, dtype=bool)
        e[pick] = True
        lhs, rhs = rh_subset_check_on(w, q, e, 2.0)
        assert lhs <= rhs * (1 + 1e-12)


def test_report_serialization():
    w = ones_weight(1, 16)
    rep = weight_report(w, [2.0], make_cube_sample(1, 16, min_cells=4, off_dyadic=16, seed=0), seed=0)
    d = report_tree(rep)
    assert set(d) >= {"ap", "rh", "theta", "cubes_sampled", "seed"}


@pytest.mark.parametrize("ps", [[1.0, 1.5, 2.0, 4.0], [1.0, 3.0]])
def test_ainf_probe_reads_the_rh_constant_at_its_exponent(monkeypatch, ps):
    # RH at AINF_PROBE_R is measured once, one row per cube: the probe reads
    # rh[2.0] when ps holds 2, and is measured for itself otherwise
    from osclab import weights

    w = power_weight(64)
    sample = make_cube_sample(1, 64, min_cells=4, off_dyadic=8, seed=1)
    rows = {}
    rh_ratios = weights.rh_ratios

    def counting(block_rows, p):
        rows[p] = rows.get(p, 0) + len(block_rows)
        return rh_ratios(block_rows, p)

    monkeypatch.setattr(weights, "rh_ratios", counting)
    rep = weight_report(w, ps, sample, seed=0)
    assert rows[AINF_PROBE_R] == len(sample)
    assert rep.ainf_probe_constant == max(rh_constant_on_cube(w, q, AINF_PROBE_R) for q in cubes_of(sample, 64))
    assert set(rep.rh) == {p for p in ps if p > 1.0}
