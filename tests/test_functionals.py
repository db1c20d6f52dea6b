"""Functionals, expansion recipes, and condition estimation."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from osclab._support import ParameterError, report_tree
from osclab.cubes import (
    Cube,
    DisjointFamily,
    descendant,
    dilate,
    full_torus,
    sample_disjoint_families,
)
from osclab.functionals import (
    HORIZON,
    Coeffs,
    ConstantFunctional,
    DilationSeries,
    Functional,
    PowerFunctional,
    ReducedPoincare,
    bar_expand,
    estimate_condition,
    eta_alternative,
    eta_exponential,
    expanded_poincare,
    gamma_tilde_from_profile,
    tilde_expand,
)
from osclab.grid import Field, lp_average, make_field
from osclab.operators import EllipticOperator, OffDiagonalProfile, make_family, measure_offdiagonal
from osclab.verify import two_q_functional
from osclab.weights import Weight, ones_weight


def gauss_profile(rate: float = 1.0, p0: float = 1.0, n: int = 1, kind: str = "semigroup") -> OffDiagonalProfile:
    ks = range(2, 9)
    alpha = {k: math.exp(-rate * 4.0 ** k) for k in ks}
    beta = {k: math.exp(-rate * 4.0 ** k) for k in ks}
    return OffDiagonalProfile(
        alpha=alpha,
        beta=beta,
        exponents=(p0, math.inf),
        probe_spec={"kind": kind, "dimension": n},
    )


def family_cubes(fam) -> list:
    """The members of a disjoint family as cubes, in member order:
    ``descendant(parent, g, k)`` of each node (g, k) of ``fam.nodes``."""
    return [descendant(fam.parent, g, k) for g, *k in fam.nodes.tolist()]


def value(a: Functional, q: Cube, m: int) -> float:
    """a(q) on one cube of the 1/m lattice."""
    return a.values(q.cells_per_axis(m), np.array([q.anchor_cells(m)]), m).tolist()[0]


# ---------------------------------------------------------------------------
# basic kinds
# ---------------------------------------------------------------------------


def test_bmo_lipschitz_values():
    assert value(PowerFunctional(0.0), Cube((0.5,), 0.25), 64) == 1.0
    # alpha = n on a cube of side 1/4 gives |Q| = 4^{-n}
    assert value(PowerFunctional(1.0), Cube((0.5,), 0.25), 64) == pytest.approx(0.25)
    assert value(PowerFunctional(2.0), Cube((0.25, 0.25), 0.25), 64) == pytest.approx(1 / 16)


def test_reduced_poincare_unit_average():
    h = make_field("constant", 1, 32, value=1.0)
    a = ReducedPoincare(h, 1.0)
    q = Cube((0.25,), 0.25)
    assert value(a, q, 32) == pytest.approx(q.side)


def test_constant_functional_tilde_is_summed_sequence():
    prof = gauss_profile()
    a = ConstantFunctional(1.0)
    at = tilde_expand(a, prof)
    gam = gamma_tilde_from_profile(prof)
    expected = gam.tail_sum(1)
    assert value(at, Cube((0.0,), 0.25), 64) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# block values against the definitions
# ---------------------------------------------------------------------------


def reference(a: Functional, q: Cube, m: int) -> float:
    """a(q) from the definitions, one cube at a time: the exact side for a power
    or constant base, the cells of ``Cube.index`` (through ``lp_average``) for
    a grid-backed one, and a series summed in k order over
    ``dilate``'s 2^k q, or over the exact 2^k q when its base has no grid."""
    if isinstance(a, ConstantFunctional):
        return a.value
    if isinstance(a, PowerFunctional):
        return q.side ** a.alpha
    if isinstance(a, ReducedPoincare):
        return q.side * lp_average(a.h, q, a.s, a.weight)
    torus = full_torus(q.dimension)
    total = 0.0
    for k in itertools.count(a.start):
        if k == 0:
            cube, saturated = q, q.side >= 1.0
        elif a.resolution is None:
            side = 2 ** k * q.side
            cube, saturated = (torus, True) if side >= 1.0 else (Cube(q.anchor, side), False)
        else:
            d = dilate(q, float(2 ** k), m)
            cube, saturated = d.cube, d.saturated
        if saturated:
            return total + a.coeffs.tail_sum(k) * reference(a.base, torus, m)
        total += a.coeffs.at(k) * reference(a.base, cube, m)


def every_kind(dimension: int, m: int) -> dict:
    """One functional of each kind, and nested series, at resolution m."""
    h = Field(np.abs(make_field("random-smooth", dimension, m, seed=5, band=3).values) + 0.05)
    w = Weight(make_field("power-distance", dimension, m, gamma=-0.5, center=0.5))
    prof = gauss_profile(rate=0.05, p0=1.0, n=dimension)
    ep = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    collapsed = tilde_expand(ep, prof).collapse()
    power = PowerFunctional(0.5)
    return {
        "constant": ConstantFunctional(0.7),
        "bmo-lipschitz": power,
        "reduced-poincare": ReducedPoincare(h, 2.0),
        "weighted reduced-poincare": ReducedPoincare(h, 1.5, w),
        "expanded-poincare": ep,
        "2Q of tilde over expanded-poincare": two_q_functional(tilde_expand(ep, prof)),
        "collapse": collapsed,
        "bar_expand": bar_expand(collapsed, q=1.5),
        "2Q of tilde over bmo-lipschitz": two_q_functional(tilde_expand(power, prof)),
        "eta series over a constant": DilationSeries(ConstantFunctional(1.0), eta_exponential(prof), start=1),
    }


@pytest.mark.parametrize("dimension, m", [(1, 32), (2, 16)])
@pytest.mark.parametrize("c", [1, 2, 3, 5, 8, "m"])
def test_block_values_equal_the_definitions(dimension, m, c):
    # odd and even c (c = 1 under bmo-lipschitz reads the exact dilates 2, 4,
    # ... cells, where the snapped ones have 3, 7, ...), the anchor cell m - 1,
    # whose cube (c > 1) and dilates cross the seam, and the torus, which
    # saturates at k = 0
    c = m if c == "m" else c
    rng = np.random.Generator(np.random.Philox(7))
    anchors = np.vstack([np.zeros((1, dimension), dtype=np.int64), np.full((1, dimension), m - 1),
                         rng.integers(0, m, (6, dimension))])
    cubes = [Cube(tuple(a / m for a in row), c / m) for row in anchors.tolist()]
    for name, a in every_kind(dimension, m).items():
        got = a.values(c, anchors, m)
        assert got.tolist() == [reference(a, q, m) for q in cubes], name


def test_conditions_evaluate_each_distinct_cube_once():
    # the members, the parents and the Dinf pairs are evaluated once per
    # distinct cube, one values call per size, in (c, anchor) order: the
    # same cube reached by a dilation, by a descent across the seam and from
    # JSON is one row, and so is a parent that 16 families share
    m, rows = 64, []

    class Counting(PowerFunctional):
        def _values(self, c, anchors, m):
            rows.extend([c, *anchor] for anchor in anchors.tolist())
            return super()._values(c, anchors, m)

    a = Counting(1.0)
    same = [dilate(Cube((0.25, 0.5), 0.125), 2.0, m).cube, descendant(Cube((0.9375, 0.1875), 0.5), 1, (1, 1)),
            Cube.from_dict({"anchor": [0.1875, 0.4375], "side": 0.25})]
    big = Cube((0.125, 0.375), 0.5)
    pairs = [(q.to_row(m), big.to_row(m)) for q in same + [Cube((0.125, 0.375), 0.25)]]
    rep = estimate_condition(a, "Dinf", m, cube_pairs=pairs)
    assert rows == [[16, 8, 24], [16, 12, 28], [32, 8, 24]]
    assert rep.measured_constant == 0.5
    rows.clear()
    parent = Cube((0.9375, 0.1875), 0.5)
    fams = sample_disjoint_families(parent, 8, 1, m) + sample_disjoint_families(parent, 8, 2, m)
    members = [q.to_row(m) for fam in fams for q in family_cubes(fam)]
    assert len(members) > len(set(members))
    for condition, partner in (("Dr", None), ("pair", PowerFunctional(1.0))):
        estimate_condition(a, condition, m, r=2.0, families=fams, partner=partner)
        want = sorted(set(members)) + ([parent.to_row(m)] if partner is None else [])
        assert rows == [list(row) for row in want], condition
        rows.clear()


@pytest.mark.parametrize(
    "build, key",
    [
        (lambda: ConstantFunctional(math.nan), "value"),
        (lambda: ConstantFunctional(math.inf), "value"),
        (lambda: PowerFunctional(math.nan), "alpha"),
        (lambda: expanded_poincare(make_field("constant", 1, 16, value=1.0), math.nan,
                                   Coeffs("geometric", sigma=2.0)), "s"),
        (lambda: Coeffs("geometric", sigma=math.nan), "sigma"),
        (lambda: Coeffs("geometric", sigma=math.inf), "sigma"),
        (lambda: Coeffs("table", values=[1.0, math.nan]), "each of values"),
    ],
)
def test_builders_reject_non_finite_parameters(build, key):
    with pytest.raises(ParameterError, match=f"{key} must be a finite number"):
        build()


def test_values_reject_nan_and_another_lattice():
    class Nan(ConstantFunctional):
        def _values(self, c, anchors, m):
            return np.full(len(anchors), math.nan)

    anchors = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(ParameterError, match="NaN"):
        Nan(1.0).values(2, anchors, 32)
    # a weight of another resolution is rejected when the functional is built,
    # not read at the wrong cells
    h = make_field("constant", 1, 32, value=1.0)
    with pytest.raises(ParameterError, match="resolution"):
        ReducedPoincare(h, 1.0, ones_weight(1, 64))
    # a grid-backed functional is evaluated on its own lattice only
    a = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    for grid_backed in (a, a.base, ReducedPoincare(h, 1.0, ones_weight(1, 32))):
        assert grid_backed.values(2, anchors, 32) >= 0.0
        with pytest.raises(ParameterError, match="1/32 lattice"):
            grid_backed.values(2, anchors, 64)
    assert PowerFunctional(1.0).values(2, anchors, 64) == 2 / 64


def test_supified_table_keeps_every_entry():
    # sup_{j >= k} gamma_j over the whole table, however long: 60 zeros then
    # ten ones supify to seventy ones, with the same zero tail beyond
    gamma = Coeffs("table", values=[0.0] * 60 + [1.0] * 10)
    sup = gamma.supified()
    assert gamma.tail_sum(0) == 10.0
    assert sup.tail_sum(0) == 70.0
    assert all(sup.at(k) >= gamma.at(k) for k in range(80))
    assert [sup.at(k) for k in (0, 65, 69, 70)] == [1.0, 1.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# tilde expansion recipe
# ---------------------------------------------------------------------------


def test_gamma_tilde_recipe_direct_arithmetic():
    # alpha_k = beta_k = e^{-4^k}, p0 = 1, n = 1:
    # gamma~_5 = max{a3, 2^5 a4, 2^5 a5, a6, b2, b3}
    prof = gauss_profile(rate=1.0, p0=1.0, n=1)
    gam = gamma_tilde_from_profile(prof)
    a = lambda k: math.exp(-(4.0 ** k))
    expected5 = max(a(3), 32 * a(4), 32 * a(5), a(6), a(2), a(3))
    assert gam.at(5) == pytest.approx(expected5, rel=1e-12)
    assert gam.at(1) == 1.0
    assert gam.at(2) == pytest.approx(max(1.0, a(2), a(3)), rel=1e-12)
    assert gam.at(3) == pytest.approx(max(a(2), a(3), a(4)), rel=1e-12)
    assert gam.at(4) == pytest.approx(max(a(3), a(4), a(5), a(2)), rel=1e-12)


def test_gamma_tilde_requires_beta_for_semigroup_kind():
    prof = gauss_profile()
    prof.beta = None
    with pytest.raises(ParameterError):
        gamma_tilde_from_profile(prof)


def test_a_measured_profile_carries_its_dimension():
    # the heat profile of a 2-D cube of 2 cells at m = 64 reaches alpha_4 > 0
    m = 64
    fam = make_family("semigroup", (1.0, math.inf), operator=EllipticOperator(np.ones((m, m)), 2))
    signs = Field(np.sign(np.random.default_rng(3).normal(size=(m, m))) + 0.0)
    probes = [make_field("constant", 2, m, value=1.0), signs]
    prof = measure_offdiagonal(fam, probes, [Cube((0.25, 0.25), 2 / m)], k_max=4, pair_levels=1)
    assert prof.probe_spec["dimension"] == 2
    explicit = OffDiagonalProfile(alpha=prof.alpha, beta=prof.beta, exponents=prof.exponents,
                                  probe_spec={"kind": "semigroup", "dimension": 2})
    gam, want = gamma_tilde_from_profile(prof), gamma_tilde_from_profile(explicit)
    assert [gam.at(k) for k in range(HORIZON)] == [want.at(k) for k in range(HORIZON)]
    # gamma~_5 = 2^{5 n / p0} alpha_4 with n = 2, not the 1-D 2^5 alpha_4
    assert prof.alpha_at(4) > 0
    assert gam.at(5) == 2.0 ** 10 * prof.alpha_at(4)


def test_gamma_tilde_local_family_without_beta():
    prof = gauss_profile(kind="extended-average")
    prof.beta = None
    gam = gamma_tilde_from_profile(prof)
    assert gam.at(1) == 1.0  # beta entries contribute zero


def test_doubling_base_tilde_comparable():
    # for a doubling functional, a <= tilde a <= (sum gamma~ doubling^k) a
    a = PowerFunctional(0.5)
    prof = gauss_profile()
    at = tilde_expand(a, prof)
    q = Cube((0.0,), 1 / 64)
    va, vat = value(a, q, 64), value(at, q, 64)
    assert vat >= value(a, Cube((0.0,), 1 / 32), 64) * 0.99
    assert vat <= 50 * va  # crude comparability bound on the sample cube


def test_eta_sequences():
    prof = gauss_profile(p0=2.0, n=1)
    eta_e = eta_exponential(prof)
    assert eta_e.at(1) == 1.0
    assert eta_e.at(3) == pytest.approx(prof.alpha_at(3))
    assert eta_e.at(6) == pytest.approx(max(prof.alpha_at(6), prof.alpha_at(3)))
    eta_a = eta_alternative(prof)
    assert eta_a.at(2) == pytest.approx(prof.alpha_at(2) * 2.0 ** (2 / 2.0))


# ---------------------------------------------------------------------------
# bar expansion
# ---------------------------------------------------------------------------


def test_bar_geometric_rate_preserved():
    # gamma_j = 2^{-sigma j} with sigma > n(1/s - 1/q)+ keeps the rate
    m, n, s, q = 32, 2, 1.0, 1.5
    h = Field(np.abs(make_field("random-smooth", n, m, seed=5, band=3).values) + 0.1)
    sigma = 2.0
    a = expanded_poincare(h, s, Coeffs("geometric", sigma=sigma))
    bar = bar_expand(a, q)
    ratios = [bar.coeffs.at(j) / 2.0 ** (-sigma * j) for j in range(2, 8)]
    assert max(ratios) / min(ratios) < 1.001  # constant multiple of 2^{-sigma j}


def test_bar_theta_one_exponent_collapse():
    # theta = 1 and q = s: E = 0, gamma-bar_k = sum_{l >= k-1} gamma_l
    m = 16
    h = make_field("constant", 1, m, value=1.0)
    gam = Coeffs("geometric", sigma=1.0)
    a = expanded_poincare(h, 1.0, gam)
    bar = bar_expand(a, q=1.0, theta=1.0)
    for k in (1, 2, 5):
        assert bar.coeffs.at(k) == pytest.approx(gam.tail_sum(k - 1), rel=1e-12)


def test_bar_gauss_becomes_exponential_in_2j():
    # gamma_j = e^{-c 4^j} collapses to about e^{-c' 2^j}
    m = 16
    h = make_field("constant", 2, m, value=1.0)
    a = expanded_poincare(h, 1.0, Coeffs("table", values=[math.exp(-0.02 * 4.0 ** j) for j in range(HORIZON)]))
    bar = bar_expand(a, q=1.5)
    # exhibit C, c' > 0 with gamma-bar_j <= C e^{-c' 2^j} over the tail
    big_c = math.exp(5.0)
    rates = [(5.0 - math.log(bar.coeffs.at(j))) / 2.0 ** j for j in range(4, 8)]
    cprime = min(rates)
    assert cprime > 0.05
    for j in range(4, 8):
        assert bar.coeffs.at(j) <= big_c * math.exp(-cprime * 2.0 ** j) * (1 + 1e-9)


def test_bar_requires_q_below_sobolev():
    m = 16
    h = make_field("constant", 2, m, value=1.0)
    a = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    with pytest.raises(ParameterError):
        bar_expand(a, q=2.0)  # s* = 2 in n=2, s=1
    with pytest.raises(ParameterError):
        bar_expand(a, q=1.5, theta=0.0)


def test_bar_divergent_inner_sum_names_k():
    m = 16
    h = make_field("constant", 2, m, value=1.0)
    # sigma = 0.4 < n(1/s - 1/q)+ = 2*(1 - 2/3) = 0.666...: divergent
    a = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=0.4))
    with pytest.raises(ParameterError, match="k=1"):
        bar_expand(a, q=1.5)


def test_collapse_matches_direct_series():
    m = 32
    h = Field(np.abs(make_field("random-smooth", 2, m, seed=9, band=2).values) + 0.05)
    a = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    prof = gauss_profile(p0=1.0, n=2)
    at = tilde_expand(a, prof)
    collapsed = at.collapse()
    for q in (Cube((0.25, 0.25), 0.25), Cube((0.5, 0.0), 0.125)):
        assert value(collapsed, q, m) == pytest.approx(value(at, q, m), rel=1e-10)


def test_collapse_and_bar_expand_keep_the_reduced_poincare_base():
    # a~, a-bar and a are series over one ReducedPoincare
    h = Field(np.abs(make_field("random-smooth", 2, 32, seed=9, band=2).values) + 0.05)
    a = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    assert isinstance(a, DilationSeries) and isinstance(a.base, ReducedPoincare) and a.start == 0
    collapsed = tilde_expand(a, gauss_profile(p0=1.0, n=2)).collapse()
    bar = bar_expand(collapsed, q=1.5)
    for series in (collapsed, bar):
        assert series.base is a.base and series.start == 0


def test_collapse_needs_an_expanded_poincare_base():
    h = make_field("constant", 1, 16, value=1.0)
    for base in (PowerFunctional(1.0), ReducedPoincare(h, 1.0),
                 DilationSeries(ReducedPoincare(h, 1.0), Coeffs("geometric", sigma=2.0), start=1)):
        with pytest.raises(ParameterError, match="expanded-poincare"):
            tilde_expand(base, gauss_profile()).collapse()
        with pytest.raises(ParameterError, match="expanded-poincare"):
            bar_expand(base, q=1.5)


# ---------------------------------------------------------------------------
# condition estimation
# ---------------------------------------------------------------------------


def test_constant_functional_dr_is_one():
    a = ConstantFunctional(1.0)
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 6, seed=4, m=64)
    for r in (1.0, 2.0, 4.0):
        rep = estimate_condition(a, "Dr", 64, r=r, families=fams)
        assert rep.measured_constant == pytest.approx(1.0, abs=1e-12)
        assert rep.passed


def test_bmo_functional_dinf_is_one():
    a = PowerFunctional(0.7)
    pairs = [
        (Cube((0.0,), 0.125).to_row(64), Cube((0.0,), 0.5).to_row(64)),
        (Cube((0.25,), 0.25).to_row(64), Cube((0.0,), 0.5).to_row(64)),
    ]
    rep = estimate_condition(a, "Dinf", 64, cube_pairs=pairs)
    assert rep.measured_constant <= 1.0 + 1e-12


def test_dr_monotone_in_r_on_shared_families():
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=6, band=5).values) + 0.02)
    a = ReducedPoincare(h, 1.0)
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 12, seed=8, m=m)
    consts = [
        estimate_condition(a, "Dr", m, r=r, families=fams).measured_constant
        for r in (1.0, 2.0, 3.0, 5.0)
    ]
    for lo, hi in zip(consts, consts[1:]):
        assert lo <= hi * (1 + 1e-12)


def test_dinf_bounds_dr_on_matched_probes():
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=2, band=3).values) + 0.1)
    a = ReducedPoincare(h, 1.0)
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 8, seed=3, m=m)
    pairs = [(qi.to_row(m), fam.parent.to_row(m)) for fam in fams for qi in family_cubes(fam)]
    dinf = estimate_condition(a, "Dinf", m, cube_pairs=pairs).measured_constant
    dr = estimate_condition(a, "Dr", m, r=2.0, families=fams).measured_constant
    assert dr <= dinf * (1 + 1e-12)


def test_d1_implies_d0_chain_on_matched_probes():
    # measured D0 ratio <= D1-singleton constant x mu(8Q)/mu(Q), samplewise
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=11, band=4).values) + 0.05)
    a = ReducedPoincare(h, 1.0)
    small = Cube((0.125,), 0.125)
    big = Cube((0.0,), 0.25)  # l(big) <= 4 l(small), small inside big
    assert big.contains_cube(small)
    family = DisjointFamily(big, np.array([[1, 1]]))  # generation 1, offset 1
    assert family_cubes(family) == [small]
    d1 = estimate_condition(a, "Dr", m, r=1.0, families=[family]).measured_constant
    ratio_d0 = value(a, small, m) / value(a, big, m)
    eight_small = Cube((0.0,), 1.0)  # 8 * 0.125 saturates the torus
    vol_ratio = eight_small.volume / small.volume
    assert ratio_d0 <= d1 * vol_ratio * (1 + 1e-12)


def test_pair_condition_singleton_sanity():
    # singleton family gives tilde a(Q) <= C bar a(Q)
    m = 32
    h = Field(np.abs(make_field("random-smooth", 2, m, seed=7, band=2).values) + 0.1)
    a = expanded_poincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    prof = gauss_profile(p0=1.0, n=2)
    at = tilde_expand(a, prof).collapse()
    bar = bar_expand(at, q=1.5)
    q = Cube((0.25, 0.25), 0.25)
    fams = [DisjointFamily(q, np.zeros((1, 3), dtype=np.int64))]
    rep = estimate_condition(at, "pair", m, r=1.5, families=fams, partner=bar)
    assert rep.measured_constant >= value(at, q, m) / value(bar, q, m) * (1 - 1e-12)
    assert math.isfinite(rep.measured_constant)


def test_zero_denominator_reports_infinite_constant():
    zero = ConstantFunctional(0.0)
    one = ConstantFunctional(1.0)

    class Mixed(ConstantFunctional):
        def _values(self, c, anchors, m):
            return np.full(len(anchors), 1.0 if c / m < 0.5 else 0.0)

    mixed = Mixed(0.0)
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 2, seed=0, m=32)
    rep = estimate_condition(mixed, "Dr", 32, r=2.0, families=fams)
    assert math.isinf(rep.measured_constant)
    assert not rep.passed
    rep0 = estimate_condition(zero, "Dr", 32, r=2.0, families=fams)
    assert rep0.measured_constant == 0.0
    assert value(one, q, 32) == 1.0


def test_reduced_poincare_below_sobolev_finite():
    m = 64
    h = Field(np.abs(make_field("random-smooth", 2, m, seed=13, band=3).values) + 0.02)
    a = ReducedPoincare(h, 1.0)  # s* = 2 in two dimensions
    fams = sample_disjoint_families(Cube((0.0, 0.0), 0.5), 30, seed=5, m=m)
    rep = estimate_condition(a, "Dr", m, r=1.9, families=fams)
    assert math.isfinite(rep.measured_constant)
    assert rep.measured_constant >= 1.0 - 1e-12


def test_condition_report_serializes():
    a = ConstantFunctional(1.0)
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 3, seed=1, m=16)
    rep = estimate_condition(a, "Dr", 16, r=2.0, families=fams, seed=1)
    d = report_tree(rep)
    assert d["families"] == {"seed": 1, "count": 3}
    assert d["passed"] is True


def test_reduced_poincare_quasi_increasing_when_s_at_least_n():
    # s >= n: a(R) <= a(Q) for nested cubes with constant exactly 1, because
    # a(R)/a(Q) <= (l(R)/l(Q))^{1 - n/s}
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=17, band=5).values) + 0.01)
    a = ReducedPoincare(h, 2.0)  # s = 2 >= n = 1
    pairs = []
    for anchor in (0.0, 0.25, 0.5):
        big = Cube((anchor,), 0.25)
        pairs.append((Cube((anchor,), 0.0625).to_row(m), big.to_row(m)))
        pairs.append((Cube(((anchor + 0.125) % 1.0,), 0.125).to_row(m), big.to_row(m)))
    rep = estimate_condition(a, "Dinf", m, cube_pairs=pairs)
    assert rep.measured_constant <= 1.0 + 1e-12
