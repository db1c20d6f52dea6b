"""Norm computations against independent oracles and closed forms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osclab._support import DataError, ParameterError
from osclab.cubes import Cube, full_torus
from osclab.grid import (
    Field,
    exp_luxemburg_norm,
    kolmogorov_check,
    lp_average,
    make_field,
    maximal_function,
    weak_lq_norm,
)
from osclab.weights import Weight


def rnd_field(seed: int, m: int = 16, dim: int = 1) -> Field:
    rng = np.random.Generator(np.random.Philox(seed))
    return Field(rng.normal(size=(m,) * dim))


# ---------------------------------------------------------------------------
# lp_average
# ---------------------------------------------------------------------------


def test_lp_average_constant():
    f = make_field("constant", 1, 16, value=3.0)
    q = Cube((0.25,), 0.5)
    for p in (1.0, 2.0, 3.5, math.inf):
        assert lp_average(f, q, p) == pytest.approx(3.0, rel=1e-14)


def test_lp_average_indicator_half_mass():
    # f = chi_E with |E cap Q| = |Q|/2, p = 2 -> sqrt(1/2)
    m = 16
    f = make_field("indicator", 1, m, cube={"anchor": [0.0], "side": 0.25})
    q = Cube((0.0,), 0.5)
    assert lp_average(f, q, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)


def test_lp_average_linear_field_direct_summation_oracle():
    # f(x) = x on m = 8, Q = [0, 1/2), p = 1: oracle is the plain python mean
    # of the cell-center coordinates.
    m = 8
    centers = [(i + 0.5) / m for i in range(m)]
    f = Field(np.array(centers))
    q = Cube((0.0,), 0.5)
    oracle = sum(centers[:4]) / 4.0
    assert oracle == pytest.approx(0.25, abs=1e-15)
    assert lp_average(f, q, 1.0) == pytest.approx(oracle, rel=1e-14)


def test_lp_average_rejects_bad_inputs():
    f = rnd_field(0)
    with pytest.raises(ParameterError):
        lp_average(f, Cube((0.0,), 0.5), 0.5)
    with pytest.raises(ParameterError):
        lp_average(f, Cube((1.0 / 3.0,), 0.5), 1.0)  # unaligned anchor
    with pytest.raises(DataError):
        Field(np.array([1.0, np.nan, 0.0, 0.0]))


def test_constant_integral_exact():
    f = make_field("constant", 2, 8, value=2.5)
    assert f.integral() == pytest.approx(2.5, abs=0)


# ---------------------------------------------------------------------------
# weak_lq_norm
# ---------------------------------------------------------------------------


def test_weak_norm_constant():
    f = make_field("constant", 1, 8, value=4.0)
    assert weak_lq_norm(f, full_torus(1), 2.0) == pytest.approx(4.0, rel=1e-14)


def test_weak_norm_indicator():
    m = 16
    f = make_field("indicator", 1, m, cube={"anchor": [0.0], "side": 0.25})
    q = Cube((0.0,), 0.5)
    assert weak_lq_norm(f, q, 2.0) == pytest.approx(math.sqrt(0.5), rel=1e-14)


def brute_force_weak(vals: np.ndarray, q: float) -> float:
    # sup over the finite set of attained thresholds, measure of strict
    # superlevel sets evaluated by counting
    best = 0.0
    n = vals.size
    for t in np.unique(np.abs(vals)):
        frac = np.count_nonzero(np.abs(vals) > t * (1 - 1e-12)) / n
        best = max(best, t * frac ** (1.0 / q))
    return best


def test_weak_norm_matches_brute_force():
    for seed in range(25):
        f = rnd_field(seed, m=32)
        got = weak_lq_norm(f, full_torus(1), 1.5)
        want = brute_force_weak(f.values, 1.5)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# exp_luxemburg_norm
# ---------------------------------------------------------------------------


def test_exp_norm_constant_closed_form():
    c = 2.0
    f = make_field("constant", 1, 16, value=c)
    got = exp_luxemburg_norm(f, full_torus(1))
    assert got == pytest.approx(c / math.log(2.0), rel=1e-9)


def test_exp_norm_half_indicator_closed_form():
    # (1/2)(e^{c/lam} - 1) = 1 -> lam = c / ln 3
    c = 3.0
    m = 16
    f = Field(c * np.concatenate([np.ones(m // 2), np.zeros(m // 2)]))
    got = exp_luxemburg_norm(f, full_torus(1))
    assert got == pytest.approx(c / math.log(3.0), rel=1e-9)


def test_exp_norm_zero_field():
    f = make_field("constant", 1, 8, value=0.0)
    assert exp_luxemburg_norm(f, full_torus(1)) == 0.0


def test_exp_norm_gauge_residual():
    # at the returned lambda the gauge integral sits in [1 - tol, 1]
    for seed in range(5):
        f = rnd_field(seed, m=32)
        lam = exp_luxemburg_norm(f, full_torus(1))
        vals = np.abs(f.values)
        gauge = np.mean(np.expm1(vals / lam))
        assert gauge <= 1.0 + 1e-9
        assert gauge >= 1.0 - 1e-6


@pytest.mark.parametrize("dim, m", [(1, 64), (2, 16)])
@pytest.mark.parametrize("gamma", [-0.5, 0.0, 0.5, 1.5])
def test_exp_norm_two_level_weighted_closed_form(dim, m, gamma):
    # c on E, 0 elsewhere: nu(E) e^{c/lam} + 1 - nu(E) = 2, so
    # lam = c / ln(1 + 1/nu(E)); the root is exact to rounding
    c = 3.0
    w = Weight(make_field("power-distance", dim, m, gamma=gamma, center=0.3))
    on_e = make_field("indicator", dim, m, cube={"anchor": [0.25] * dim, "side": 0.25}).values == 1.0
    density = w.density.values
    nu_e = math.fsum(density[on_e]) / math.fsum(density.ravel())
    got = exp_luxemburg_norm(Field(c * on_e), full_torus(dim), w)
    assert got == pytest.approx(c / math.log1p(1.0 / nu_e), rel=1e-13)


@pytest.mark.parametrize("f", [make_field("constant", 1, 16, value=2.0),
                               make_field("fourier-mode", 2, 16, k=[1, 2])])
def test_exp_norm_constant_modulus_is_its_starting_point(f):
    # |f| = c: the Jensen start log 2 / mean|f| is already the root c / ln 2
    got = exp_luxemburg_norm(f, full_torus(f.dimension))
    assert got == pytest.approx(float(np.max(np.abs(f.values))) / math.log(2.0), rel=1e-14)


def test_exp_norm_spike_far_above_its_mean():
    # max/mean = 1e6 under a weight that nearly vanishes on the spike cell:
    # the root lam = 0.0104 sits below max|f|/64, and the start
    # s0 = log 2 / mean|f| = 6.9e5 is 7e3 times the root 1/lam; the gauge
    # is evaluated without overflow or warning
    m = 64
    vals = np.full(m, 1e-6)
    vals[0] = 1.0
    density = np.ones(m)
    density[0] = 1e-40
    nu = density / density.sum()
    assert 1.0 / np.sum(nu * vals) == pytest.approx(1e6)
    lam = exp_luxemburg_norm(Field(vals), full_torus(1), density)
    assert lam < 1.0 / 64.0
    assert abs(np.sum(nu * np.expm1(vals / lam)) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# maximal function
# ---------------------------------------------------------------------------


def brute_force_maximal(vals: np.ndarray, p: float) -> np.ndarray:
    m = vals.shape[0]
    n = vals.ndim
    g = np.abs(vals) ** p
    out = np.zeros_like(g, dtype=float)
    c = 1
    while c <= m:
        for anchor in np.ndindex(*(m,) * n):
            idx = np.ix_(*[(np.arange(c) + a) % m for a in anchor])
            mean = g[idx].mean()
            cells = np.ix_(*[(np.arange(c) + a) % m for a in anchor])
            out[cells] = np.maximum(out[cells], mean)
        c *= 2
    return out ** (1.0 / p)


@pytest.mark.parametrize("dim,m", [(1, 16), (2, 8)])
def test_maximal_matches_brute_force(dim, m):
    f = rnd_field(7, m=m, dim=dim)
    got = maximal_function(f, 1.0).values
    want = brute_force_maximal(f.values, 1.0)
    assert np.allclose(got, want, rtol=1e-12)


def test_maximal_constant():
    f = make_field("constant", 1, 16, value=2.0)
    assert np.allclose(maximal_function(f, 1.0).values, 2.0)


def test_maximal_single_cell_indicator():
    m = 16
    vals = np.zeros(m)
    vals[5] = 1.0
    got = maximal_function(Field(vals), 1.0).values
    want = brute_force_maximal(vals, 1.0)
    assert np.allclose(got, want, rtol=1e-12)


def test_maximal_dominates_field():
    for seed in range(10):
        f = rnd_field(seed, m=32)
        for p in (1.0, 2.0):
            mp = maximal_function(f, p).values
            assert np.all(mp >= np.abs(f.values) * (1 - 1e-12))


def test_maximal_weak_1_1_constant_finite_and_stable():
    # measured constant sup_t t |{Mf > t}| / ||f||_1 stays bounded as the
    # grid refines
    consts = []
    for m in (64, 128):
        f = make_field("random-smooth", 1, m, seed=3, band=6)
        mf = maximal_function(f, 1.0).values
        l1 = np.abs(f.values).mean()
        best = 0.0
        for t in np.unique(mf):
            frac = np.count_nonzero(mf > t * (1 - 1e-12)) / m
            best = max(best, t * frac)
        consts.append(best / l1)
    assert all(np.isfinite(c) for c in consts)
    assert max(consts) / min(consts) < 2.0


# ---------------------------------------------------------------------------
# kolmogorov_check
# ---------------------------------------------------------------------------


def test_kolmogorov_constant():
    f = make_field("constant", 1, 8, value=5.0)
    lhs, rhs = kolmogorov_check(f, full_torus(1), 1.0, 2.0)
    assert lhs == pytest.approx(5.0, rel=1e-14)
    assert rhs == pytest.approx(10.0, rel=1e-14)


def test_kolmogorov_indicator_closed_form():
    m = 16
    frac = 0.25
    f = make_field("indicator", 1, m, cube={"anchor": [0.0], "side": frac})
    r, q = 1.0, 2.0
    lhs, rhs = kolmogorov_check(f, full_torus(1), r, q)
    assert lhs == pytest.approx(frac, rel=1e-13)
    assert rhs == pytest.approx(2.0 * math.sqrt(frac), rel=1e-13)
    assert lhs <= rhs


def test_kolmogorov_rejects_bad_exponents():
    f = rnd_field(0)
    with pytest.raises(ParameterError):
        kolmogorov_check(f, full_torus(1), 2.0, 2.0)


# ---------------------------------------------------------------------------
# shared invariants
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(1.0, 6.0), st.floats(1.0, 6.0))
def test_jensen_monotonicity(seed, p1, p2):
    f = rnd_field(seed)
    lo, hi = min(p1, p2), max(p1, p2)
    q = Cube((0.25,), 0.5)
    assert lp_average(f, q, lo) <= lp_average(f, q, hi) * (1 + 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.5, 6.0))
def test_weak_below_strong(seed, q):
    f = rnd_field(seed)
    cube = Cube((0.0,), 0.5)
    strong = (
        lp_average(f, cube, q)
        if q >= 1
        else float((np.abs(f.restrict(cube)) ** q).mean() ** (1 / q))
    )
    assert weak_lq_norm(f, cube, q) <= strong * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 50.0))
def test_homogeneity(seed, c):
    f = rnd_field(seed)
    q = full_torus(1)
    scaled = Field(c * f.values)
    assert lp_average(scaled, q, 2.0) == pytest.approx(c * lp_average(f, q, 2.0), rel=1e-12)
    assert weak_lq_norm(scaled, q, 2.0) == pytest.approx(c * weak_lq_norm(f, q, 2.0), rel=1e-12)
    assert exp_luxemburg_norm(scaled, q) == pytest.approx(
        c * exp_luxemburg_norm(f, q), rel=1e-8
    )


def test_complex_fields_use_modulus():
    f = make_field("fourier-mode", 1, 16, k=2)
    assert f.is_complex
    assert lp_average(f, full_torus(1), 2.0) == pytest.approx(1.0, rel=1e-12)
