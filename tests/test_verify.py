"""Theorem harnesses on small configurations."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from osclab._support import ParameterError, ratio, rng_from_seed
from osclab.cubes import Cube, descendant, dilate, full_torus, sample_disjoint_families, whitney_decompose
from osclab.functionals import ConstantFunctional, estimate_condition, tilde_expand
from osclab.grid import (
    Field,
    exp_luxemburg_norms,
    make_field,
    maximal_function,
    power_means,
    weak_lq_norms,
)
from osclab.operators import EllipticOperator, make_family, measure_offdiagonal, sharp_maximal
from osclab.verify import (
    BmoRung,
    Rung,
    check_hypothesis,
    exponential_denominator,
    make_cube_sample,
    measured_oscillation,
    two_q_functional,
    verify_bmo_equivalence,
    verify_exponential,
    verify_good_lambda,
    verify_strong,
    verify_weak_improvement,
)


def cubes_of(sample: np.ndarray, m: int) -> list[Cube]:
    """The cubes of the lattice rows ``sample`` of the 1/m lattice."""
    return [Cube.from_row(row, m) for row in sample.tolist()]


def rows_of(cubes, m: int) -> np.ndarray:
    """The lattice rows of ``cubes`` on the 1/m lattice."""
    return np.array([q.to_row(m) for q in cubes])


def identity_op(m: int, dim: int = 1) -> EllipticOperator:
    return EllipticOperator(np.ones((m,) * dim), dimension=dim)


def probe_set(m: int) -> list[Field]:
    rng = np.random.Generator(np.random.Philox(5))
    return [make_field("constant", 1, m, value=1.0), Field(np.sign(rng.normal(size=m)) + 0.0)]


def classical_jn_rung(m: int, scale: float = 1.0) -> tuple[Rung, object]:
    """Extended-average family on the 1-D log-distance field."""
    f = make_field("log-distance", 1, m, center=0.5)
    if scale != 1.0:
        f = Field(scale * f.values)
    fam = make_family("extended-average", (1.0, math.inf))
    cubes = make_cube_sample(1, m, min_cells=8, off_dyadic=8, seed=3)
    a = measured_oscillation(f, cubes)
    prof = measure_offdiagonal(fam, probe_set(m), [Cube((0.25,), 1 / 16)], k_max=4, pair_levels=1)
    denom = two_q_functional(tilde_expand(a, prof))
    rung = Rung(m=m, field=f, family=fam, hypothesis=a, denominator=denom, cube_sample=cubes)
    return rung, prof


def dinf_report_for(a) -> object:
    pairs = [((8, 16), (16, 16)), ((16, 0), (32, 0))]  # (1/8 at 1/4, 1/4 at 1/4), (1/4 at 0, 1/2 at 0) of 1/64
    return estimate_condition(a, "Dinf", 64, cube_pairs=pairs)


def dq_report_for(a, m: int, r: float) -> object:
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 6, seed=2, m=m)
    return estimate_condition(a, "Dr", m, r=r, families=fams)


# ---------------------------------------------------------------------------
# hypothesis check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim, m, min_cells", [(1, 64, 8), (1, 16, 1), (2, 16, 4)])
def test_cube_sample_enumerates_the_dyadic_cubes_coarsest_first(dim, m, min_cells):
    # the dyadic part is every node of >= min_cells cells, by generation, each
    # anchor in C order as i * step; the seeded off-dyadic cubes follow
    want = [[step, *(i * step for i in idx)]
            for step in (m >> g for g in range(m.bit_length())) if step >= min_cells
            for idx in np.ndindex(*(m // step,) * dim)]
    rows = make_cube_sample(dim, m, min_cells, 5, seed=2)
    assert rows.dtype == np.int64 and rows.shape == (len(want) + 5, 1 + dim)
    assert rows[:len(want)].tolist() == want
    assert np.all(rows[:, 0] >= min_cells) and np.all((rows[:, 1:] >= 0) & (rows[:, 1:] < m))


def float_cube_sample(dimension: int, m: int, min_cells: int, off_dyadic: int, seed: int) -> list[Cube]:
    """The sample as float cubes: the generations of the torus from
    ``descendant``, coarsest first, then the seeded off-dyadic cubes, drawn
    side first and then the anchor axis by axis."""
    cubes = []
    torus = full_torus(dimension)
    for g in range(m.bit_length()):
        if m >> g < min_cells:
            break
        cubes += [descendant(torus, g, k) for k in np.ndindex(*(2 ** g,) * dimension)]
    rng = rng_from_seed(seed)
    lo = int(math.log2(min_cells))
    hi = max(lo + 1, int(math.log2(m)))
    for _ in range(off_dyadic):
        c = 2 ** int(rng.integers(lo, hi))
        anchor = tuple(int(rng.integers(0, m)) / m for _ in range(dimension))
        cubes.append(Cube(anchor, c / m))
    return cubes


@pytest.mark.parametrize("dim, m", [(1, 2 ** k) for k in range(3, 11)] + [(2, 2 ** k) for k in range(3, 7)])
def test_integer_sample_writes_the_float_sample(dim, m):
    # through the codec the rows are the float cubes, the same Python floats
    # in the same order, for every min_cells, off_dyadic count and seed
    for min_cells in (1, 2, 4, 8):
        for off_dyadic in (0, 8, 32):
            for seed in range(4):
                rows = make_cube_sample(dim, m, min_cells, off_dyadic, seed)
                got = [Cube.from_row(row, m).to_dict() for row in rows.tolist()]
                assert all(type(x) is float for d in got for x in (*d["anchor"], d["side"]))
                want = [q.to_dict() for q in float_cube_sample(dim, m, min_cells, off_dyadic, seed)]
                assert got == want, (min_cells, off_dyadic, seed)


def test_hypothesis_zero_for_constant_field_semigroup():
    m = 64
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_op(m))
    f = make_field("constant", 1, m, value=7.0)
    a = ConstantFunctional(1.0)
    rep = check_hypothesis(Rung(m, f, fam, a, a, make_cube_sample(1, m, 8, 4, seed=0)), k_max=3)
    assert rep.constant < 1e-7
    assert rep.side_reduction


def test_hypothesis_local_variant_bounded_by_1_plus_2n():
    m = 256
    rung, _ = classical_jn_rung(m)
    rep = check_hypothesis(rung, k_max=1)
    rows = rung.hypothesis_rows(1)
    assert rep.rows == len(rows)
    k1 = [row for row in rows if row[1] == 1]
    assert k1
    assert max(row[4] for row in k1) <= (1 + 2) * (1 + 1e-9)


def test_hypothesis_infinite_when_functional_vanishes():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=1, band=3)
    zero = ConstantFunctional(0.0)
    rep = check_hypothesis(Rung(m, f, fam, zero, zero, np.array([[8, 0]])), k_max=0)
    assert math.isinf(rep.constant)


def test_replaced_rung_with_other_field_reads_its_own_b_rows():
    # a sidelength-only family's rows gather from the B fields in the memo of
    # the rung's material; a rung replaced with another field shares the
    # cache, gets a memo of its own and reads B_Q of its own field
    m = 64
    fam = make_family("semigroup", (1.0, math.inf), operator=identity_op(m))
    f = make_field("log-distance", 1, m, center=0.5)
    g = make_field("random-smooth", 1, m, seed=1, band=3)
    a = ConstantFunctional(1.0)
    rung = Rung(m, f, fam, a, a, make_cube_sample(1, m, 8, 4, seed=0))

    def rows(r):
        return [r.b_rows(block)(block.anchors, block.c) for block in r.blocks()]

    own = rows(rung)
    other = dataclasses.replace(rung, field=g)
    theirs = rows(other)
    assert other.cache is rung.cache and len(rung.cache) == 2
    for block, got in zip(other.blocks(), theirs):
        for j, i in enumerate(block.members.tolist()):
            q = Cube.from_row(other.cube_sample[i].tolist(), m)
            assert np.array_equal(got[j], fam.apply_B(g, q).restrict(q)), q
    assert all(np.array_equal(x, y) for x, y in zip(rows(rung), own))
    assert not all(np.array_equal(x, y) for x, y in zip(theirs, own))


def test_replaced_rung_with_other_denominator_or_weight_shares_the_memo():
    from osclab.weights import ones_weight

    m = 64
    rung, _ = classical_jn_rung(m)
    walk = rung.hypothesis_rows(3)
    for other in (dataclasses.replace(rung, denominator=ConstantFunctional(1.0)),
                  dataclasses.replace(rung, weight=ones_weight(1, m))):
        assert other.hypothesis_rows(3) is not walk and other.hypothesis_rows(3) == walk
        assert other.blocks() is rung.blocks()
    assert len(rung.cache) == 1


def hypothesis_walk(rung, k_max) -> tuple:
    rep = check_hypothesis(rung, k_max)
    return rung.hypothesis_rows(k_max), rep.constant, rep.k0_constant, rep.saturated_cubes


@pytest.mark.parametrize("first, then", [(3, 2), (1, 3), (3, 0)])
def test_cached_hypothesis_walk_equals_a_fresh_walk(first, then):
    m = 64
    rung, _ = classical_jn_rung(m)
    check_hypothesis(rung, first)
    fresh_rung = classical_jn_rung(m)[0]
    fresh = check_hypothesis(fresh_rung, then)
    assert fresh.saturated_cubes > 0 or then == 0
    assert hypothesis_walk(rung, then) == hypothesis_walk(fresh_rung, then)


@pytest.mark.parametrize(
    "key, value",
    [("hypothesis", lambda rung: ConstantFunctional(1.0)),
     ("cube_sample", lambda rung: rung.cube_sample[::2])],
)
def test_replaced_rung_with_other_material_reads_its_own_hypothesis_walk(key, value):
    m = 64
    rung, _ = classical_jn_rung(m)
    own = hypothesis_walk(rung, 3)
    other = dataclasses.replace(rung, **{key: value(rung)})
    assert other.cache is rung.cache
    fresh = dataclasses.replace(other, cache={})
    assert hypothesis_walk(other, 3) == hypothesis_walk(fresh, 3)
    assert hypothesis_walk(other, 3) != own
    assert hypothesis_walk(rung, 3) == own


# ---------------------------------------------------------------------------
# weak / strong / exponential
# ---------------------------------------------------------------------------


def test_weak_improvement_constant_field_zero():
    m = 64
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("constant", 1, m, value=2.0)
    a = ConstantFunctional(1.0)
    rung = Rung(m, f, fam, a, two_q_functional(a), make_cube_sample(1, m, 8, 4, seed=0))
    rep, _rows = verify_weak_improvement([rung], 2.0, dq_report_for(a, m, 2.0))
    assert rep.conclusion_constant == 0.0
    assert rep.passed


def test_weak_improvement_log_field_ladder_stable():
    rungs = []
    report = None
    for m in (128, 256):
        rung, _ = classical_jn_rung(m)
        rungs.append(rung)
    report, _rows = verify_weak_improvement(rungs, 2.0, dq_report_for(rungs[0].hypothesis, 128, 2.0))
    assert math.isfinite(report.conclusion_constant)
    assert report.conclusion_constant > 0
    assert report.passed, report.per_resolution


def test_weak_improvement_requires_condition_report():
    m = 64
    rung, _ = classical_jn_rung(m)
    with pytest.raises(ParameterError):
        verify_weak_improvement([rung], 2.0, None)


def test_weak_conclusion_scaling_invariance():
    # doubling f doubles the measured oscillation functional, so the
    # conclusion constant is unchanged to full precision
    m = 128
    r1, _ = classical_jn_rung(m, scale=1.0)
    r2, _ = classical_jn_rung(m, scale=2.0)
    rep1, _rows = verify_weak_improvement([r1], 2.0, dq_report_for(r1.hypothesis, m, 2.0))
    rep2, _rows = verify_weak_improvement([r2], 2.0, dq_report_for(r2.hypothesis, m, 2.0))
    assert rep2.conclusion_constant == pytest.approx(rep1.conclusion_constant, rel=1e-10)


def test_strong_improvement_and_kolmogorov_link():
    m = 256
    rung, _ = classical_jn_rung(m)
    rep = verify_strong([rung], q=2.0, r=1.5, condition_report=dq_report_for(rung.hypothesis, m, 2.0))
    assert rep.extras["kolmogorov_ok"]
    assert math.isfinite(rep.conclusion_constant)
    assert rep.passed


def test_strong_rejects_r_not_below_q():
    m = 64
    rung, _ = classical_jn_rung(m)
    with pytest.raises(ParameterError):
        verify_strong([rung], q=2.0, r=2.0, condition_report=dq_report_for(rung.hypothesis, m, 2.0))


def test_exponential_constant_field_zero_and_dinf_gate():
    m = 64
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("constant", 1, m, value=3.0)
    a = ConstantFunctional(1.0)
    prof = measure_offdiagonal(fam, probe_set(m), [Cube((0.25,), 1 / 16)], k_max=4, pair_levels=1)
    rung = Rung(m, f, fam, a, exponential_denominator(a, prof), make_cube_sample(1, m, 8, 4, seed=0))
    rep = verify_exponential([rung], dinf_report_for(a))
    assert rep.conclusion_constant == 0.0
    bad = estimate_condition(a, "Dr", m, r=2.0, families=sample_disjoint_families(Cube((0.0,), 0.5), 3, seed=0, m=m))
    with pytest.raises(ParameterError):
        verify_exponential([rung], bad)


def test_exponential_log_field_finite():
    m = 256
    rung, prof = classical_jn_rung(m)
    rung_exp = Rung(
        rung.m, rung.field, rung.family, rung.hypothesis,
        exponential_denominator(rung.hypothesis, prof), rung.cube_sample,
    )
    rep = verify_exponential([rung_exp], dinf_report_for(rung.hypothesis))
    assert math.isfinite(rep.conclusion_constant)
    assert rep.conclusion_constant > 0


def test_weighted_unit_weight_reproduces_unweighted_exactly():
    from osclab.weights import ones_weight

    m = 128
    rung, _ = classical_jn_rung(m)
    rung_w = Rung(
        rung.m, rung.field, rung.family, rung.hypothesis, rung.denominator,
        rung.cube_sample, weight=ones_weight(1, m),
    )
    cond = dq_report_for(rung.hypothesis, m, 2.0)
    rep, _rows = verify_weak_improvement([rung], 2.0, cond)
    rep_w, _rows = verify_weak_improvement([rung_w], 2.0, cond)
    assert rep_w.conclusion_constant == rep.conclusion_constant  # bitwise


# ---------------------------------------------------------------------------
# row blocks against the per-cube path
# ---------------------------------------------------------------------------


def per_cube_dilates(q: Cube, m: int, k_max: int) -> list:
    """(k, 2^k Q, saturated): Q itself at k = 0, then ``dilate``'s 2^k Q up to
    k_max or the first saturated one."""
    out = [(0, q, False)]
    for k in range(1, k_max + 1):
        d = dilate(q, float(2 ** k), m)
        out.append((k, d.cube, d.saturated))
        if d.saturated:
            break
    return out


def one_row(bf: Field, cube: Cube, weight=None) -> tuple[np.ndarray, np.ndarray]:
    """|B_Q f| on the cells of ``cube`` and their measures, one row each."""
    vals = np.abs(bf.restrict(cube))[None]
    dens = np.ones(vals.shape) if weight is None else weight.density.restrict(cube)[None]
    return vals, dens * bf.cell_volume


def per_cube_walk(rung: Rung, k_max: int) -> list:
    """The hypothesis walk one cube at a time, on the field B_Q f of each cube."""
    rows, m = [], rung.m
    for q in cubes_of(rung.cube_sample, m):
        bf = rung.family.apply_B(rung.field, q)
        for k, cube, saturated in per_cube_dilates(q, m, k_max):
            num = float(power_means(*one_row(bf, cube), rung.family.p0)[0])
            den = rung.hypothesis.values(cube.cells_per_axis(m), np.array([cube.anchor_cells(m)]), m).tolist()[0]
            rows.append((q.to_row(m), k, num, den, ratio(num, den), saturated))
    return rows


def assert_rows_equal_per_cube(rung: Rung, q: float = 2.0, r: float = 1.5, k_max: int = 3) -> None:
    """The block walk and the weak, strong and exponential row kernels on the
    gathered |B_Q f| of each block give, bit for bit, what the kernels give
    on one row of the field B_Q f of each sampled cube; so do the weak
    sweep's rows."""
    assert rung.hypothesis_rows(k_max) == per_cube_walk(rung, k_max)
    seen = []
    for block in rung.blocks():
        cubes = cubes_of(rung.cube_sample[block.members], rung.m)
        ones = [one_row(rung.family.apply_B(rung.field, cube), cube, rung.weight) for cube in cubes]
        vals = np.abs(rung.b_rows(block)(block.anchors, block.c))
        mu = ones[0][1] if rung.weight is None else np.concatenate([one[1] for one in ones])
        weak = weak_lq_norms(vals, mu, q).tolist()
        strong = power_means(vals, mu, r).tolist()
        lux = exp_luxemburg_norms(vals, mu).tolist()
        for j, (i, cube, one) in enumerate(zip(block.members.tolist(), cubes, ones)):
            assert weak[j] == weak_lq_norms(*one, q)[0], cube
            assert strong[j] == power_means(*one, r)[0], cube
            assert lux[j] == exp_luxemburg_norms(*one)[0], cube
            seen.append(i)
    assert sorted(seen) == list(range(len(rung.cube_sample)))
    _rep, rows = verify_weak_improvement([rung], q, dq_report_for(ConstantFunctional(1.0), rung.m, q))
    assert [row[2] for row in rows] == [
        weak_lq_norms(*one_row(rung.family.apply_B(rung.field, cube), cube, rung.weight), q)[0]
        for cube in cubes_of(rung.cube_sample, rung.m)]


def bundled_rung(config: str, overrides=(), rung: int = 0) -> Rung:
    from osclab.cli import ExperimentConfig, build_rung, bundled_config_path

    cfg = ExperimentConfig.load(bundled_config_path(config), list(overrides))
    return build_rung(cfg, cfg.resolution_ladder[rung])[0]


@pytest.mark.parametrize("config", ["classical-jn", "weighted-power", "epi-pair"])
def test_block_rows_equal_the_per_cube_path_on_bundled_rungs(config):
    rung = bundled_rung(config)
    assert rung.family.sidelength_only == (config == "epi-pair")
    assert (rung.weight is not None) == (config == "weighted-power")
    assert_rows_equal_per_cube(rung)
    if rung.family.sidelength_only:  # its rows gather from the B field per side
        with pytest.raises(ParameterError, match="per side"):
            rung.family.b_rows(rung.field, rung.blocks()[0])


def test_block_rows_equal_the_per_cube_path_with_the_unit_weight():
    from osclab.weights import ones_weight

    rung = bundled_rung("weighted-power")
    assert_rows_equal_per_cube(dataclasses.replace(rung, weight=ones_weight(1, rung.m)))


@pytest.mark.parametrize("row_cells", [None, 40])
@pytest.mark.parametrize("kind", ["classical-average", "extended-average"])
def test_block_rows_equal_the_per_cube_path_on_2d_seam_crossing_cubes(monkeypatch, kind, row_cells):
    # row_cells = 40: every block is gathered in parts of a cube or two
    if row_cells is not None:
        monkeypatch.setattr("osclab.cubes.ROW_CELLS", row_cells)
    m = 32
    cubes = make_cube_sample(2, m, 4, 16, seed=5)
    assert np.any(cubes[:, 1:] + cubes[:, :1] > m)  # some cubes cross the seam
    f = make_field("random-smooth", 2, m, seed=3, band=3)
    a = measured_oscillation(f, cubes)
    assert a.value == max(float(np.abs(f.restrict(q) - f.restrict(q).mean()).mean()) for q in cubes_of(cubes, m))
    rung = Rung(m, f, make_family(kind, (1.0, math.inf)), a, two_q_functional(a), cubes)
    assert_rows_equal_per_cube(rung, k_max=4)


def test_block_walk_of_a_side_one_cube_off_the_origin():
    # k = 0 is the cube itself, its cells in the order from its anchor across
    # the seam and not saturated; k = 1 is the saturated torus
    m = 64
    q = (m, 24)  # side 1 at 0.375
    f = make_field("log-distance", 1, m, center=0.5)
    fam = make_family("extended-average", (1.0, math.inf))
    rung = Rung(m, f, fam, ConstantFunctional(1.0), ConstantFunctional(1.0), np.array([(16, 16), q]))
    rows = rung.hypothesis_rows(3)
    assert [(row[1], row[5]) for row in rows if row[0] == q] == [(0, False), (1, True)]
    assert_rows_equal_per_cube(rung)


def test_zero_rows_have_zero_weak_and_exponential_norms():
    m = 64
    f = make_field("constant", 1, m, value=2.0)
    cubes = make_cube_sample(1, m, 8, 4, seed=0)
    rung = Rung(m, f, make_family("classical-average", (1.0, math.inf)), ConstantFunctional(1.0),
                ConstantFunctional(1.0), cubes)
    for block in rung.blocks():
        vals = np.abs(rung.b_rows(block)(block.anchors, block.c))
        assert not vals.any()
        mu = np.full((1, vals.shape[1]), f.cell_volume)
        assert weak_lq_norms(vals, mu, 2.0).tolist() == [0.0] * len(vals)
        assert exp_luxemburg_norms(vals, mu).tolist() == [0.0] * len(vals)
    assert_rows_equal_per_cube(rung)


def test_sweep_flags_mark_a_saturated_or_seam_crossing_two_q():
    # bit 0: 2Q is the torus; bit 1: 2Q crosses the seam on some axis
    m = 32
    cubes = [Cube((0.0, 0.0), 0.5), Cube((0.875, 0.25), 0.125), Cube((0.25, 0.96875), 0.125),
             Cube((0.25, 0.5), 0.125), Cube((0.0, 0.0), 0.25)]
    f = make_field("random-smooth", 2, m, seed=3, band=3)
    a = ConstantFunctional(1.0)
    rung = Rung(m, f, make_family("extended-average", (1.0, math.inf)), a, a, rows_of(cubes, m))
    _rep, rows = verify_weak_improvement([rung], 2.0, dq_report_for(a, m, 2.0))
    assert [row[5] for row in rows] == [1, 2, 2, 0, 2]


# ---------------------------------------------------------------------------
# good-lambda
# ---------------------------------------------------------------------------


def test_good_lambda_constant_field_all_zero():
    m = 128
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("constant", 1, m, value=5.0)
    a = ConstantFunctional(1.0)
    rung = Rung(m, f, fam, a, two_q_functional(a), make_cube_sample(1, m, 8, 4, seed=0))
    rep = verify_good_lambda(rung, Cube((0.25,), 0.25), s_mult=4.0, lam=0.5, q_exp=2.0, t_points=8)
    assert all(r[2] == 0.0 for r in rep.rows)
    assert rep.c0 == 0.0


def test_good_lambda_log_field_full_run():
    m = 256
    rung, _ = classical_jn_rung(m)
    rep = verify_good_lambda(rung, Cube((0.25,), 0.25), s_mult=4.0, lam=0.5, q_exp=2.0, t_points=12)
    assert rep.identity_defect < 1e-12
    branches = {r[1] for r in rep.rows}
    assert branches == {"trivial", "whitney"}
    assert len(rep.whitney) >= 1
    for chk in rep.whitney:
        assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    assert all(math.isfinite(r[5]) for r in rep.rows)
    assert math.isfinite(rep.whitney_prop_constant)
    assert rep.passed


def per_cube_whitney_constant(rung: Rung, q_cube: Cube, rows: list, k_max: int) -> tuple[float, int]:
    """Good-lambda's Whitney constant one cube at a time: the largest L^{p0}
    average of G = |B_Q^2 f| chi_{2Q}, over t, on every dyadic dilate, up to
    k_max or saturation, of each Whitney cube of {M_{p0} G > t} that meets
    Q, for the t of the Whitney ``rows`` of a report; and how many of those
    Whitney cubes cross the seam."""
    fam, m, p0 = rung.family, rung.m, rung.family.p0
    bq2 = fam.apply_B(fam.apply_B(rung.field, q_cube), q_cube)
    g = Field(np.where(dilate(q_cube, 2.0, m).cube.mask(m), np.abs(bq2.values), 0.0))
    mg = maximal_function(g, p0).values
    best, crossing = 0.0, 0
    for t, branch, *_ in rows:
        omega = mg > t
        if branch != "whitney" or not omega.any() or omega.all():
            continue
        for w in whitney_decompose(omega, q_cube):
            if not (w.mask(m) & q_cube.mask(m)).any():
                continue
            crossing += any(a + w.side > 1.0 for a in w.anchor)
            for _k, cube, _saturated in per_cube_dilates(w, m, k_max):
                best = max(best, float(power_means(*one_row(g, cube), p0)[0]) / t)
    return best, crossing


def whitney_case(case: str) -> tuple[Rung, Cube]:
    if case == "classical-jn-1024":
        rung = bundled_rung("classical-jn", rung=2)
        assert rung.m == 1024
        return rung, Cube((0.25,), 0.25)
    if case == "2d-seam":
        # Q sits at an odd cell, so the Whitney cubes of its dyadic grid that
        # straddle cell 0 cross the seam
        dim, m, f = 2, 32, make_field("indicator", 2, 32, cube={"anchor": [0.9375, 0.9375], "side": 0.125})
        q_cube = Cube((29 / 32, 29 / 32), 0.5)
    else:
        # a spike in 2Q two cells beyond Q: the Whitney cubes that meet Q
        # reach it first with their 2^3 dilates
        return spike_rung(34), Cube((0.25,), 0.25)
    cubes = make_cube_sample(dim, m, 4, 8, seed=0)
    a = measured_oscillation(f, cubes)
    return Rung(m, f, make_family("extended-average", (1.0, math.inf)), a, two_q_functional(a), cubes), q_cube


def spike_rung(cell: int) -> Rung:
    """A 1-D m = 64 extended-average rung on a spike at ``cell``."""
    m, f = 64, make_field("spike", 1, 64, amp=10.0, cell=[cell])
    cubes = make_cube_sample(1, m, 4, 8, seed=0)
    a = measured_oscillation(f, cubes)
    return Rung(m, f, make_family("extended-average", (1.0, math.inf)), a, two_q_functional(a), cubes)


@pytest.mark.parametrize("case", ["classical-jn-1024", "2d-seam", "1d-spike-beside-q"])
def test_good_lambda_whitney_constant_equals_the_per_cube_walk(case):
    rung, q_cube = whitney_case(case)
    rep = verify_good_lambda(rung, q_cube, s_mult=4.0, lam=0.5, q_exp=2.0, t_points=20)
    want, crossing = per_cube_whitney_constant(rung, q_cube, rep.rows, k_max=rung.m)  # to saturation
    assert rep.passed and want > 0.0
    assert rep.whitney_prop_constant == want
    if case == "2d-seam":
        assert crossing > 0
    if case == "1d-spike-beside-q":
        assert per_cube_whitney_constant(rung, q_cube, rep.rows, k_max=2)[0] == 0.0


@pytest.mark.parametrize("cell", [35, 37, 39])
def test_good_lambda_does_not_pass_when_no_whitney_cube_meets_q(cell):
    # a spike in 2Q three or more cells beyond Q = [1/4, 1/2): the level sets
    # are Whitney-decomposed, but no Whitney cube meets Q, so the branch
    # measured nothing
    rep = verify_good_lambda(spike_rung(cell), Cube((0.25,), 0.25), s_mult=4.0, lam=0.5, q_exp=2.0, t_points=20)
    assert rep.whitney and {r[1] for r in rep.rows} == {"trivial", "whitney"}
    assert rep.whitney_prop_constant == 0.0
    assert not rep.passed
    assert any("no Whitney cube meets Q" in w for w in rep.warnings)


def test_good_lambda_parameter_validation():
    m = 64
    rung, _ = classical_jn_rung(m)
    with pytest.raises(ParameterError):
        verify_good_lambda(rung, Cube((0.0,), 0.25), s_mult=0.5, lam=0.5, q_exp=2.0, t_points=20)
    with pytest.raises(ParameterError):
        verify_good_lambda(rung, Cube((0.0,), 0.25), s_mult=4.0, lam=1.5, q_exp=2.0, t_points=20)


# ---------------------------------------------------------------------------
# BMO equivalence
# ---------------------------------------------------------------------------


def bmo_fields(m: int, dim: int = 1) -> list[Field]:
    return [
        make_field("log-distance", dim, m, center=0.5),
        make_field("random-smooth", dim, m, seed=21, band=6),
    ]


def test_bmo_equivalence_heat_identity():
    rungs = [
        BmoRung(m, make_family("semigroup", (1.0, math.inf), operator=identity_op(m)), bmo_fields(m))
        for m in (64, 128)
    ]
    rep = verify_bmo_equivalence(rungs, ps=[1.0, 2.0, 4.0], s_exp=8.0, alpha=0.0)
    assert rep.situation == "sidelength-only"
    assert rep.monotone_ok
    assert math.isfinite(rep.jn2_constant)
    assert rep.passed


def test_bmo_equivalence_extended_average_local_route():
    m = 64
    rungs = [BmoRung(m, make_family("extended-average", (1.0, math.inf)), bmo_fields(m))]
    rep = verify_bmo_equivalence(rungs, ps=[1.0, 2.0], s_exp=4.0, alpha=0.0)
    assert rep.situation == "local-replacement"
    assert rep.monotone_ok


def test_bmo_equivalence_refuses_classical_average():
    m = 32
    rungs = [BmoRung(m, make_family("classical-average", (1.0, math.inf)), bmo_fields(m))]
    with pytest.raises(ParameterError):
        verify_bmo_equivalence(rungs, ps=[1.0, 2.0], s_exp=4.0, alpha=0.0)


def test_bmo_constant_field_all_zero_seminorms():
    m = 64
    fam = make_family("semigroup", (1.0, math.inf), operator=identity_op(m))
    rep = verify_bmo_equivalence(
        [BmoRung(m, fam, [make_field("constant", 1, m, value=2.0)])], ps=[1.0, 2.0], s_exp=4.0, alpha=0.0
    )
    vals = rep.seminorms[m][0]
    assert all(v < 1e-8 for v in vals.values())
    assert rep.ratios[m][0] == 1.0


def test_bmo_equivalence_lipschitz_scale_variant():
    # alpha > 0 weights small cubes up; the harness still runs and the
    # monotone direction survives the common |Q|^{-alpha/n} factor
    m = 64
    fam = make_family("semigroup", (1.0, math.inf), operator=identity_op(m))
    rep = verify_bmo_equivalence(
        [BmoRung(m, fam, bmo_fields(m))], ps=[1.0, 2.0], s_exp=4.0, alpha=0.3
    )
    assert rep.monotone_ok
    for vals in rep.seminorms[m].values():
        assert all(math.isfinite(v) and v > 0 for v in vals.values())


def per_exponent_bmo_reference(rungs, ps, s_exp, alpha):
    """Seminorms, ratios and jn2 from one sharp_maximal call per exponent, with
    the pointwise comparison at alpha = 0 on the smallest rung."""
    seminorms, ratios = {}, {}
    for rung in rungs:
        seminorms[rung.m] = {}
        ratios[rung.m] = {}
        for i, f in enumerate(rung.fields):
            vals = {p: float(np.max(sharp_maximal(rung.family, [f], [p], alpha)[0][0].values)) for p in ps}
            seminorms[rung.m][i] = vals
            ratios[rung.m][i] = max(vals.values()) / min(vals.values())
    target = min(rungs, key=lambda r: r.m)
    jn2 = 0.0
    for f in target.fields:
        maj = maximal_function(sharp_maximal(target.family, [f], [target.family.p0], 0.0)[0][0], s_exp).values
        for p in ps:
            if p != target.family.p0:
                num = sharp_maximal(target.family, [f], [p], 0.0)[0][0].values
                jn2 = max(jn2, float(np.max(num / maj)))
    return seminorms, ratios, jn2


@pytest.mark.parametrize("ps", [[2.0, 4.0], [1.0, 2.0, 4.0]])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_bmo_equivalence_matches_per_exponent_sweeps(alpha, ps):
    # ps without p0 = 1 and alpha != 0: the pointwise comparison needs its own
    # alpha = 0 sweep, including p0, and must not reuse the seminorm sweep
    rungs = [
        BmoRung(m, make_family("semigroup", (1.0, math.inf), operator=identity_op(m)), bmo_fields(m))
        for m in (64, 32)
    ]
    assert_bmo_matches_per_exponent_sweeps(rungs, ps, alpha)


def assert_bmo_matches_per_exponent_sweeps(rungs, ps, alpha):
    rep = verify_bmo_equivalence(rungs, ps=ps, s_exp=8.0, alpha=alpha)
    seminorms, ratios, jn2 = per_exponent_bmo_reference(rungs, ps, 8.0, alpha)
    assert rep.seminorms == seminorms
    assert rep.ratios == ratios
    assert rep.jn2_constant == jn2


@pytest.mark.parametrize("dim, ladder", [(1, (256, 64)), (2, (32, 16))])
@pytest.mark.parametrize("ps", [[1.5, 3.0, 4.0], [1.0, 2.0, 4.0]])
@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_bmo_equivalence_matches_per_exponent_sweeps_on_extended_averages(alpha, ps, dim, ladder):
    # the larger rung reads sharp_seminorms, whose pruned window sup must
    # give the bits of the full sweep's max
    rungs = [BmoRung(m, make_family("extended-average", (1.0, math.inf)), bmo_fields(m, dim)) for m in ladder]
    assert_bmo_matches_per_exponent_sweeps(rungs, ps, alpha)
