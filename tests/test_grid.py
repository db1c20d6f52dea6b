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
    exp_luxemburg_norms,
    kolmogorov_factor,
    lp_average,
    make_field,
    maximal_function,
    power_means,
    weak_lq_norms,
)
from osclab.weights import Weight


def rnd_field(seed: int, m: int = 16, dim: int = 1) -> Field:
    rng = np.random.Generator(np.random.Philox(seed))
    return Field(rng.normal(size=(m,) * dim))


def one_row(f: Field, q: Cube, w: Weight = None) -> tuple[np.ndarray, np.ndarray]:
    """|f| on the cells of q and their measures (w dx, or dx without w), one
    row each: the row kernels' input for the one cube q."""
    vals = np.abs(f.restrict(q))[None]
    dens = np.ones(vals.shape) if w is None else w.density.restrict(q)[None]
    return vals, dens * f.cell_volume


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
# weak_lq_norms on one row
# ---------------------------------------------------------------------------


def test_weak_norm_constant():
    f = make_field("constant", 1, 8, value=4.0)
    assert weak_lq_norms(*one_row(f, full_torus(1)), 2.0)[0] == pytest.approx(4.0, rel=1e-14)


def test_weak_norm_indicator():
    m = 16
    f = make_field("indicator", 1, m, cube={"anchor": [0.0], "side": 0.25})
    q = Cube((0.0,), 0.5)
    assert weak_lq_norms(*one_row(f, q), 2.0)[0] == pytest.approx(math.sqrt(0.5), rel=1e-14)


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
        got = weak_lq_norms(*one_row(f, full_torus(1)), 1.5)[0]
        want = brute_force_weak(f.values, 1.5)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# exp_luxemburg_norms on one row
# ---------------------------------------------------------------------------


def test_exp_norm_constant_closed_form():
    c = 2.0
    f = make_field("constant", 1, 16, value=c)
    got = exp_luxemburg_norms(*one_row(f, full_torus(1)))[0]
    assert got == pytest.approx(c / math.log(2.0), rel=1e-9)


def test_exp_norm_half_indicator_closed_form():
    # (1/2)(e^{c/lam} - 1) = 1 -> lam = c / ln 3
    c = 3.0
    m = 16
    f = Field(c * np.concatenate([np.ones(m // 2), np.zeros(m // 2)]))
    got = exp_luxemburg_norms(*one_row(f, full_torus(1)))[0]
    assert got == pytest.approx(c / math.log(3.0), rel=1e-9)


def test_exp_norm_zero_field():
    f = make_field("constant", 1, 8, value=0.0)
    assert exp_luxemburg_norms(*one_row(f, full_torus(1)))[0] == 0.0


def test_exp_norm_gauge_residual():
    # at the returned lambda the gauge integral sits in [1 - tol, 1]
    for seed in range(5):
        f = rnd_field(seed, m=32)
        lam = exp_luxemburg_norms(*one_row(f, full_torus(1)))[0]
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
    got = exp_luxemburg_norms(*one_row(Field(c * on_e), full_torus(dim), w))[0]
    assert got == pytest.approx(c / math.log1p(1.0 / nu_e), rel=1e-13)


@pytest.mark.parametrize("f", [make_field("constant", 1, 16, value=2.0),
                               make_field("fourier-mode", 2, 16, k=[1, 2])])
def test_exp_norm_constant_modulus_is_its_starting_point(f):
    # |f| = c: the Jensen start log 2 / mean|f| is already the root c / ln 2
    got = exp_luxemburg_norms(*one_row(f, full_torus(f.dimension)))[0]
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
    lam = exp_luxemburg_norms(*one_row(Field(vals), full_torus(1), Weight(Field(density))))[0]
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
# row kernels
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("width", [1, 7, 64, 300])
@pytest.mark.parametrize("weighted", [False, True])
def test_row_kernels_give_each_row_what_it_gives_alone(width, weighted):
    # each row of a block reduces as that row alone does, bit for bit, with
    # zero rows (norm 0) and rows that stop Newton at different steps mixed in
    rng = np.random.Generator(np.random.Philox(11))
    vals = np.abs(rng.standard_cauchy(size=(9, width)))
    vals[2] = 0.0
    vals[5] = 3.0
    vals[7, : width // 2] = 0.0
    mu = rng.uniform(0.5, 2.0, size=(9, width)) / width if weighted else np.full((1, width), 1.0 / width)
    rows = {"weak": weak_lq_norms(vals, mu, 1.5), "exp": exp_luxemburg_norms(vals, mu),
            "p2": power_means(vals, mu, 2.0), "p0.75": power_means(vals, mu, 0.75),
            "inf": power_means(vals, mu, math.inf)}
    for i in range(len(vals)):
        one, one_mu = vals[i:i + 1].copy(), mu[i:i + 1].copy() if weighted else mu
        alone = {"weak": weak_lq_norms(one, one_mu, 1.5), "exp": exp_luxemburg_norms(one, one_mu),
                 "p2": power_means(one, one_mu, 2.0), "p0.75": power_means(one, one_mu, 0.75),
                 "inf": power_means(one, one_mu, math.inf)}
        for name, got in rows.items():
            assert got[i] == alone[name][0], (name, i)
    assert rows["weak"][2] == rows["exp"][2] == rows["p2"][2] == 0.0


# ---------------------------------------------------------------------------
# Kolmogorov's inequality on one row
# ---------------------------------------------------------------------------


def kolmogorov_sides(f: Field, q_cube: Cube, r: float, q: float) -> tuple[float, float]:
    """(L^r average, kolmogorov_factor(r, q) x weak-L^q norm) of f on q_cube."""
    vals, mu = one_row(f, q_cube)
    return float(power_means(vals, mu, r)[0]), kolmogorov_factor(r, q) * float(weak_lq_norms(vals, mu, q)[0])


def test_kolmogorov_constant():
    f = make_field("constant", 1, 8, value=5.0)
    lhs, rhs = kolmogorov_sides(f, full_torus(1), 1.0, 2.0)
    assert lhs == pytest.approx(5.0, rel=1e-14)
    assert rhs == pytest.approx(10.0, rel=1e-14)


def test_kolmogorov_indicator_closed_form():
    m = 16
    frac = 0.25
    f = make_field("indicator", 1, m, cube={"anchor": [0.0], "side": frac})
    r, q = 1.0, 2.0
    lhs, rhs = kolmogorov_sides(f, full_torus(1), r, q)
    assert lhs == pytest.approx(frac, rel=1e-13)
    assert rhs == pytest.approx(2.0 * math.sqrt(frac), rel=1e-13)
    assert lhs <= rhs


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
    assert weak_lq_norms(*one_row(f, cube), q)[0] <= strong * (1 + 1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(0.1, 50.0))
def test_homogeneity(seed, c):
    f = rnd_field(seed)
    q = full_torus(1)
    scaled = Field(c * f.values)
    assert lp_average(scaled, q, 2.0) == pytest.approx(c * lp_average(f, q, 2.0), rel=1e-12)
    assert weak_lq_norms(*one_row(scaled, q), 2.0)[0] == pytest.approx(
        c * weak_lq_norms(*one_row(f, q), 2.0)[0], rel=1e-12
    )
    assert exp_luxemburg_norms(*one_row(scaled, q))[0] == pytest.approx(
        c * exp_luxemburg_norms(*one_row(f, q))[0], rel=1e-8
    )


def test_complex_fields_use_modulus():
    f = make_field("fourier-mode", 1, 16, k=2)
    assert f.is_complex
    assert lp_average(f, full_torus(1), 2.0) == pytest.approx(1.0, rel=1e-12)
