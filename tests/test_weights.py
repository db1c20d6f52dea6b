"""Muckenhoupt / reverse-Holder diagnostics."""

from __future__ import annotations

import numpy as np
import pytest

from osclab._support import DataError, ParameterError, report_tree
from osclab.cubes import Cube, full_torus
from osclab.grid import Field, make_field
from osclab.verify import make_cube_sample
from osclab.weights import (
    AINF_PROBE_R,
    Weight,
    ap_constant_on_cube,
    ones_weight,
    rh_constant_on_cube,
    rh_subset_check,
    weight_report,
)


def power_weight(m: int, gamma: float = -0.5) -> Weight:
    return Weight(make_field("power-distance", 1, m, center=0.5, gamma=gamma))


def spike_weight(m: int) -> Weight:
    return Weight(make_field("spike", 1, m, amp=10.0, cell=(m // 3,)))


def test_weight_requires_positive_density():
    with pytest.raises(DataError):
        Weight(Field(np.array([1.0, 0.0, 2.0, 1.0])))


def test_mass_additivity_and_cache():
    w = power_weight(64)
    q = Cube((0.25,), 0.5)
    left = Cube((0.25,), 0.25)
    right = Cube((0.5,), 0.25)
    assert w.mass(q) == pytest.approx(w.mass(left) + w.mass(right), rel=1e-12)
    # mass equals the direct cell sum
    direct = w.restrict(q).sum() * w.density.cell_volume
    assert w.mass(q) == pytest.approx(direct, rel=1e-12)


def test_mass_wraps_around_torus():
    w = spike_weight(16)
    q = Cube((0.75,), 0.5)  # wraps through 0
    direct = w.restrict(q).sum() * w.density.cell_volume
    assert w.mass(q) == pytest.approx(direct, rel=1e-12)


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
        consts.append(max(ap_constant_on_cube(w, q, 1.0) for q in sample))
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
    a1 = max(ap_constant_on_cube(w, q, 1.0) for q in sample)
    m = 64
    for q in sample[:12]:
        c = q.cells_per_axis(m)
        if c < 4:
            continue
        sub = Cube(q.anchor, (c // 4) / m)
        lhs = sub.cell_count(m) / q.cell_count(m)
        rhs = a1 * w.mass(sub) / w.mass(q)
        assert lhs <= rhs * (1 + 1e-12)


def test_rh_subset_check_trivial_and_unit():
    m = 32
    w = ones_weight(1, m)
    q = Cube((0.0,), 0.5)
    full = np.zeros(m, dtype=bool)
    full[np.ix_(*q.cell_arrays(m))] = True
    lhs, rhs = rh_subset_check(w, q, full, 2.0)
    assert lhs == pytest.approx(1.0, abs=1e-14)
    assert rhs >= 1.0 - 1e-12
    small = np.zeros(m, dtype=bool)
    small[0:4] = True
    lhs, rhs = rh_subset_check(w, q, small, 2.0)
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
    lhs, rhs = rh_subset_check(w, q, e, 2.0)
    direct = w.density.values[spike_cell] / w.restrict(q).sum()
    assert lhs == pytest.approx(direct, rel=1e-12)
    assert lhs <= rhs * (1 + 1e-12)


def test_rh_subset_check_rejects_outside_subset():
    m = 32
    w = ones_weight(1, m)
    q = Cube((0.0,), 0.25)
    e = np.zeros(m, dtype=bool)
    e[m - 1] = True
    with pytest.raises(ParameterError):
        rh_subset_check(w, q, e, 2.0)


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
        lhs, rhs = rh_subset_check(w, q, e, 2.0)
        assert lhs <= rhs * (1 + 1e-12)


def test_report_serialization():
    w = ones_weight(1, 16)
    rep = weight_report(w, [2.0], make_cube_sample(1, 16, min_cells=4, off_dyadic=16, seed=0), seed=0)
    d = report_tree(rep)
    assert set(d) >= {"ap", "rh", "theta", "cubes_sampled", "seed"}


@pytest.mark.parametrize("ps", [[1.0, 1.5, 2.0, 4.0], [1.0, 3.0]])
def test_ainf_probe_reads_the_rh_constant_at_its_exponent(monkeypatch, ps):
    # RH at AINF_PROBE_R is measured once: the probe reads rh[2.0] when ps
    # holds 2, and sweeps the sample itself otherwise
    from osclab import weights

    w = power_weight(64)
    sample = make_cube_sample(1, 64, min_cells=4, off_dyadic=8, seed=1)
    calls = []
    rh_on_cube = weights.rh_constant_on_cube

    def counting(w, q, p):
        calls.append(p)
        return rh_on_cube(w, q, p)

    monkeypatch.setattr(weights, "rh_constant_on_cube", counting)
    rep = weight_report(w, ps, sample, seed=0)
    assert calls.count(AINF_PROBE_R) == len(sample)
    assert rep.ainf_probe_constant == max(rh_on_cube(w, q, AINF_PROBE_R) for q in sample)
