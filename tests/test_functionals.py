"""Functionals, expansion recipes, and condition estimation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from osclab._support import ParameterError
from osclab.cubes import Cube, DisjointFamily, full_torus, sample_disjoint_families
from osclab.functionals import (
    Coeffs,
    ConstantFunctional,
    DilationSeries,
    ExpandedPoincare,
    FractionalFunctional,
    PowerFunctional,
    ReducedPoincare,
    bar_expand,
    estimate_condition,
    eta_alternative,
    eta_exponential,
    gamma_tilde_from_profile,
    tilde_expand,
)
from osclab.grid import Field, make_field
from osclab.operators import OffDiagonalProfile
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


# ---------------------------------------------------------------------------
# basic kinds
# ---------------------------------------------------------------------------


def test_bmo_lipschitz_values():
    assert PowerFunctional(0.0).eval(Cube((0.5,), 0.25)) == 1.0
    # alpha = n on a cube of side 1/4 gives |Q| = 4^{-n}
    assert PowerFunctional(1.0).eval(Cube((0.5,), 0.25)) == pytest.approx(0.25)
    assert PowerFunctional(2.0).eval(Cube((0.25, 0.25), 0.25)) == pytest.approx(1 / 16)


def test_reduced_poincare_unit_average():
    h = make_field("constant", 1, 32, value=1.0)
    a = ReducedPoincare(h, 1.0)
    q = Cube((0.25,), 0.25)
    assert a.eval(q) == pytest.approx(q.side)


def test_fractional_functional_value():
    u = ones_weight(1, 32)
    a = FractionalFunctional(0.5, 2.0, u)
    q = Cube((0.0,), 0.25)
    # u(Q)/|Q| = 1 for the unit weight
    assert a.eval(q) == pytest.approx(0.25 ** 0.5)


def test_constant_functional_tilde_is_summed_sequence():
    prof = gauss_profile()
    a = ConstantFunctional(1.0)
    at = tilde_expand(a, prof)
    gam = gamma_tilde_from_profile(prof)
    expected = gam.tail_sum(1)
    assert at.eval(Cube((0.0,), 0.25)) == pytest.approx(expected, rel=1e-12)


def test_memoization_is_deterministic():
    h = make_field("random-smooth", 1, 64, seed=3, band=4)
    a = ReducedPoincare(Field(np.abs(h.values)), 2.0)
    q = Cube((0.125,), 0.25)
    assert a.eval(q) == a.eval(q)


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
    va, vat = a.eval(q), at.eval(q)
    assert vat >= a.eval(Cube((0.0,), 1 / 32)) * 0.99
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
    a = ExpandedPoincare(h, s, Coeffs("geometric", sigma=sigma))
    bar = bar_expand(a, q)
    ratios = [bar.gamma.at(j) / 2.0 ** (-sigma * j) for j in range(2, 8)]
    assert max(ratios) / min(ratios) < 1.001  # constant multiple of 2^{-sigma j}


def test_bar_theta_one_exponent_collapse():
    # theta = 1 and q = s: E = 0, gamma-bar_k = sum_{l >= k-1} gamma_l
    m = 16
    h = make_field("constant", 1, m, value=1.0)
    gam = Coeffs("geometric", sigma=1.0)
    a = ExpandedPoincare(h, 1.0, gam)
    bar = bar_expand(a, q=1.0, theta=1.0)
    for k in (1, 2, 5):
        assert bar.gamma.at(k) == pytest.approx(gam.tail_sum(k - 1), rel=1e-12)


def test_bar_gauss_becomes_exponential_in_2j():
    # gamma_j = e^{-c 4^j} collapses to about e^{-c' 2^j}
    m = 16
    h = make_field("constant", 2, m, value=1.0)
    a = ExpandedPoincare(h, 1.0, Coeffs("gauss", rate=0.02))
    bar = bar_expand(a, q=1.5)
    # exhibit C, c' > 0 with gamma-bar_j <= C e^{-c' 2^j} over the tail
    big_c = math.exp(5.0)
    rates = [(5.0 - math.log(bar.gamma.at(j))) / 2.0 ** j for j in range(4, 8)]
    cprime = min(rates)
    assert cprime > 0.05
    for j in range(4, 8):
        assert bar.gamma.at(j) <= big_c * math.exp(-cprime * 2.0 ** j) * (1 + 1e-9)


def test_bar_requires_q_below_sobolev():
    m = 16
    h = make_field("constant", 2, m, value=1.0)
    a = ExpandedPoincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    with pytest.raises(ParameterError):
        bar_expand(a, q=2.0)  # s* = 2 in n=2, s=1
    with pytest.raises(ParameterError):
        bar_expand(a, q=1.5, theta=0.0)


def test_bar_divergent_inner_sum_names_k():
    m = 16
    h = make_field("constant", 2, m, value=1.0)
    # sigma = 0.4 < n(1/s - 1/q)+ = 2*(1 - 2/3) = 0.666...: divergent
    a = ExpandedPoincare(h, 1.0, Coeffs("geometric", sigma=0.4))
    with pytest.raises(ParameterError, match="k=1"):
        bar_expand(a, q=1.5)


def test_collapse_matches_direct_series():
    m = 32
    h = Field(np.abs(make_field("random-smooth", 2, m, seed=9, band=2).values) + 0.05)
    a = ExpandedPoincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    prof = gauss_profile(p0=1.0, n=2)
    at = tilde_expand(a, prof)
    collapsed = at.collapse()
    for q in (Cube((0.25, 0.25), 0.25), Cube((0.5, 0.0), 0.125)):
        assert collapsed.eval(q) == pytest.approx(at.eval(q), rel=1e-10)


# ---------------------------------------------------------------------------
# condition estimation
# ---------------------------------------------------------------------------


def test_constant_functional_dr_is_one():
    a = ConstantFunctional(1.0)
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 6, seed=4, m=64)
    for r in (1.0, 2.0, 4.0):
        rep = estimate_condition(a, "Dr", r=r, families=fams)
        assert rep.measured_constant == pytest.approx(1.0, abs=1e-12)
        assert rep.passed


def test_bmo_functional_dinf_is_one():
    a = PowerFunctional(0.7)
    pairs = [
        (Cube((0.0,), 0.125), Cube((0.0,), 0.5)),
        (Cube((0.25,), 0.25), Cube((0.0,), 0.5)),
    ]
    rep = estimate_condition(a, "Dinf", cube_pairs=pairs)
    assert rep.measured_constant <= 1.0 + 1e-12


def test_dr_monotone_in_r_on_shared_families():
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=6, band=5).values) + 0.02)
    a = ReducedPoincare(h, 1.0)
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 12, seed=8, m=m)
    consts = [
        estimate_condition(a, "Dr", r=r, families=fams).measured_constant
        for r in (1.0, 2.0, 3.0, 5.0)
    ]
    for lo, hi in zip(consts, consts[1:]):
        assert lo <= hi * (1 + 1e-12)


def test_dinf_bounds_dr_on_matched_probes():
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=2, band=3).values) + 0.1)
    a = ReducedPoincare(h, 1.0)
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 8, seed=3, m=m)
    pairs = [(qi, fam.parent) for fam in fams for qi in fam.members]
    dinf = estimate_condition(a, "Dinf", cube_pairs=pairs).measured_constant
    dr = estimate_condition(a, "Dr", r=2.0, families=fams).measured_constant
    assert dr <= dinf * (1 + 1e-12)


def test_d1_implies_d0_chain_on_matched_probes():
    # measured D0 ratio <= D1-singleton constant x mu(8Q)/mu(Q), samplewise
    m = 64
    h = Field(np.abs(make_field("random-smooth", 1, m, seed=11, band=4).values) + 0.05)
    a = ReducedPoincare(h, 1.0)
    small = Cube((0.125,), 0.125)
    big = Cube((0.0,), 0.25)  # l(big) <= 4 l(small), small inside big
    assert big.contains_cube(small)
    d1 = estimate_condition(
        a, "Dr", r=1.0, families=[DisjointFamily(big, (small,))]
    ).measured_constant
    ratio_d0 = a.eval(small) / a.eval(big)
    eight_small = Cube((0.0,), 1.0)  # 8 * 0.125 saturates the torus
    vol_ratio = eight_small.volume / small.volume
    assert ratio_d0 <= d1 * vol_ratio * (1 + 1e-12)


def test_pair_condition_singleton_sanity():
    # singleton family gives tilde a(Q) <= C bar a(Q)
    m = 32
    h = Field(np.abs(make_field("random-smooth", 2, m, seed=7, band=2).values) + 0.1)
    a = ExpandedPoincare(h, 1.0, Coeffs("geometric", sigma=2.0))
    prof = gauss_profile(p0=1.0, n=2)
    at = tilde_expand(a, prof).collapse()
    bar = bar_expand(at, q=1.5)
    q = Cube((0.25, 0.25), 0.25)
    fams = [DisjointFamily(q, (q,))]
    rep = estimate_condition(at, "pair", r=1.5, families=fams, partner=bar)
    assert rep.measured_constant >= at.eval(q) / bar.eval(q) * (1 - 1e-12)
    assert math.isfinite(rep.measured_constant)


def test_zero_denominator_reports_infinite_constant():
    zero = ConstantFunctional(0.0)
    one = ConstantFunctional(1.0)

    class Mixed(ConstantFunctional):
        def _eval(self, q):
            return 1.0 if q.side < 0.5 else 0.0

    mixed = Mixed(0.0)
    q = Cube((0.0,), 0.5)
    fams = sample_disjoint_families(q, 2, seed=0, m=32)
    rep = estimate_condition(mixed, "Dr", r=2.0, families=fams)
    assert math.isinf(rep.measured_constant)
    assert not rep.passed
    rep0 = estimate_condition(zero, "Dr", r=2.0, families=fams)
    assert rep0.measured_constant == 0.0
    assert one.eval(q) == 1.0


def test_reduced_poincare_below_sobolev_finite():
    m = 64
    h = Field(np.abs(make_field("random-smooth", 2, m, seed=13, band=3).values) + 0.02)
    a = ReducedPoincare(h, 1.0)  # s* = 2 in two dimensions
    fams = sample_disjoint_families(Cube((0.0, 0.0), 0.5), 30, seed=5, m=m)
    rep = estimate_condition(a, "Dr", r=1.9, families=fams)
    assert math.isfinite(rep.measured_constant)
    assert rep.measured_constant >= 1.0 - 1e-12


def test_condition_report_serializes():
    a = ConstantFunctional(1.0)
    fams = sample_disjoint_families(Cube((0.0,), 0.5), 3, seed=1, m=16)
    rep = estimate_condition(a, "Dr", r=2.0, families=fams, cap=4.0, seed=1)
    d = rep.to_dict()
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
        pairs.append((Cube((anchor,), 0.0625), big))
        pairs.append((Cube(((anchor + 0.125) % 1.0,), 0.125), big))
    rep = estimate_condition(a, "Dinf", cube_pairs=pairs)
    assert rep.measured_constant <= 1.0 + 1e-12
