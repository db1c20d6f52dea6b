"""Semigroups, oscillation families, off-diagonal profiling, sharp maximal."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import eigh, expm
from scipy.special import ive

from osclab._support import NumericError, ParameterError
from osclab.cubes import Cube, dilate, full_torus
from osclab.grid import Field, lp_average, make_field
from osclab.operators import (
    EllipticOperator,
    _chebyshev_apply,
    _chebyshev_coefficients,
    audit_family,
    bmo_seminorm,
    make_family,
    measure_offdiagonal,
    semigroup_apply,
    sharp_maximal,
    u_s_apply,
)


def identity_operator(m: int, dim: int = 1) -> EllipticOperator:
    return EllipticOperator(np.ones((m,) * dim), lam=1.0, big_lam=1.0, dimension=dim)


def variable_operator(m: int) -> EllipticOperator:
    x = (np.arange(m) + 0.5) / m
    a = 1.25 + 0.75 * np.cos(2 * np.pi * x)  # in [1/2, 2]
    return EllipticOperator(a, lam=0.5, big_lam=2.0, dimension=1)


def anisotropic_operator_2d(m: int) -> EllipticOperator:
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0] = 1.5
    coeffs[1, 1] = 0.75
    coeffs[0, 1] = 0.25
    coeffs[1, 0] = 0.25
    return EllipticOperator(coeffs, lam=0.5, big_lam=2.0, dimension=2)


def complex_operator_2d(m: int, eps: float = 0.3) -> EllipticOperator:
    coeffs = np.zeros((2, 2, m, m), dtype=complex)
    coeffs[0, 0] = 1.0 + 1j * eps * 0.5
    coeffs[1, 1] = 1.0 - 1j * eps * 0.5
    coeffs[0, 1] = 1j * eps * 0.25
    coeffs[1, 0] = 1j * eps * 0.25
    return EllipticOperator(coeffs, lam=0.5, big_lam=2.0, dimension=2)


# ---------------------------------------------------------------------------
# semigroup basics
# ---------------------------------------------------------------------------


def test_conservation_spectral_and_stencil():
    one_1d = make_field("constant", 1, 64, value=1.0)
    assert np.allclose(semigroup_apply(identity_operator(64), 0.03, one_1d).values, 1.0, atol=1e-12)
    got = semigroup_apply(variable_operator(64), 0.01, one_1d)
    assert np.max(np.abs(got.values - 1.0)) < 1e-10
    one_2d = make_field("constant", 2, 16, value=1.0)
    got2 = semigroup_apply(anisotropic_operator_2d(16), 0.05, one_2d)
    assert np.max(np.abs(got2.values - 1.0)) < 1e-12


def test_mean_conservation_variable_coefficients():
    f = make_field("random-smooth", 1, 64, seed=4, band=5)
    out = semigroup_apply(variable_operator(64), 0.02, f)
    assert out.integral() == pytest.approx(f.integral(), abs=1e-11)


def test_fourier_mode_multiplier_exact():
    m, k, t = 64, 3, 0.01
    f = make_field("fourier-mode", 1, m, k=k)
    got = semigroup_apply(identity_operator(m), t, f).values
    want = math.exp(-4 * math.pi ** 2 * k ** 2 * t) * f.values
    assert np.max(np.abs(got - want)) < 1e-10


def test_semigroup_law_spectral_exact():
    m = 32
    op = anisotropic_operator_2d(m)
    f = make_field("random-smooth", 2, m, seed=1, band=3)
    a = semigroup_apply(op, 0.02, semigroup_apply(op, 0.01, f))
    b = semigroup_apply(op, 0.03, f)
    rel = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
    assert rel < 1e-12


def test_stencil_matches_dense_expm_oracle():
    # independent oracle: dense matrix exponential of the same stencil
    m = 64
    op = variable_operator(m)
    f = make_field("random-smooth", 1, m, seed=2, band=2)
    t = 0.01
    got = semigroup_apply(op, t, f).values
    dense = expm(-t * op.matrix().toarray())
    want = dense @ f.values
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel < 1e-8


def variable_operator_2d(m: int) -> EllipticOperator:
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx)
    coeffs[1, 1] = 1.2 + 0.4 * np.sin(2 * np.pi * yy)
    coeffs[0, 1] = coeffs[1, 0] = 0.2 * np.cos(2 * np.pi * (xx + yy))
    return EllipticOperator(coeffs, lam=0.5, big_lam=2.0, dimension=2)


def complex_variable_operator_2d(m: int) -> EllipticOperator:
    # variable coefficients with imaginary parts on and off the diagonal
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m), dtype=complex)
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx) + 0.3j * np.sin(2 * np.pi * yy)
    coeffs[1, 1] = 1.2 + 0.4 * np.sin(2 * np.pi * yy) - 0.2j * np.cos(2 * np.pi * xx)
    coeffs[0, 1] = 0.2 * np.cos(2 * np.pi * (xx + yy)) + 0.15j * np.sin(2 * np.pi * xx)
    coeffs[1, 0] = 0.2 * np.cos(2 * np.pi * (xx + yy)) - 0.1j * np.cos(2 * np.pi * yy)
    return EllipticOperator(coeffs, lam=0.5, big_lam=2.0, dimension=2)


def nonsymmetric_operator_2d(m: int) -> EllipticOperator:
    # real coefficients with a01 != a10: a real, non-symmetric stencil (R > 1)
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx)
    coeffs[1, 1] = 1.2 + 0.4 * np.sin(2 * np.pi * yy)
    coeffs[0, 1] = 0.2 * np.cos(2 * np.pi * (xx + yy)) + 0.15 * np.sin(2 * np.pi * xx)
    coeffs[1, 0] = 0.2 * np.cos(2 * np.pi * (xx + yy)) - 0.1 * np.cos(2 * np.pi * yy)
    return EllipticOperator(coeffs, lam=0.5, big_lam=2.0, dimension=2)


EXPM_CASES = {
    "real-1d-64": (1, 64, variable_operator),
    "real-2d-16": (2, 16, variable_operator_2d),
    "real-2d-32": (2, 32, variable_operator_2d),
    "real-nonsymmetric-2d-16": (2, 16, nonsymmetric_operator_2d),
    "complex-2d-16": (2, 16, complex_variable_operator_2d),
    "complex-2d-32": (2, 32, complex_variable_operator_2d),
}


@pytest.fixture(scope="module")
def expm_operators():
    return {name: build(m) for name, (_dim, m, build) in EXPM_CASES.items()}


@pytest.mark.parametrize("case", sorted(EXPM_CASES))
@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
def test_semigroup_matches_dense_expm(expm_operators, case, t):
    # the stencil semigroup against the dense exponential of the same
    # stencil.  The probe has nonzero mean: a mean-zero probe decays to about
    # 1e-20 at t = 1 and would hide a relative error.  Measured: at most
    # 3e-13.  On the complex cases, forcing R = 1 (no ellipse weight in the
    # stopping rule, so no time splitting) gives 6e-10 (m = 16) and 3e-3
    # (m = 32) at t = 0.1, and diverges at t = 1.
    dim, m, _build = EXPM_CASES[case]
    op = expm_operators[case]
    assert not op.is_constant
    f = Field(make_field("random-smooth", dim, m, seed=2, band=3).values + 1.0)
    got = semigroup_apply(op, t, f).values
    assert np.iscomplexobj(got) == op.is_complex
    want = (expm(-t * op.matrix().toarray()) @ f.values.ravel()).reshape(f.values.shape)
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel <= 1e-11


@pytest.mark.parametrize("big_r, zs", [(1.0, [1e-3, 0.5, 10, 100, 1e4, 2.6e5]), (1.75, [1e-3, 0.5, 5])])
def test_chebyshev_coefficients_match_bessel_closed_form(big_r, zs):
    # e^{-z (1 + x)} = sum' 2 (-1)^k I_k(z) e^{-z} T_k(x); scipy's ive is an
    # independent evaluation of the scaled Bessel function.  R > 1 samples
    # on the Bernstein ellipse, as the evaluator does for complex coefficients.
    for z in zs:
        n = int(math.sqrt(80 * z)) + 60
        coeffs, _weighted = _chebyshev_coefficients(lambda u: np.exp(-2 * z * u), n, big_r)
        k = np.arange(n)
        want = 2 * (-1.0) ** k * ive(k, z)
        assert np.max(np.abs(coeffs - want) * big_r ** k) <= 2e-15, z


def test_semigroup_law_stencil():
    m = 64
    op = variable_operator(m)
    f = Field(1.0 + 0.5 * np.cos(2 * np.pi * (np.arange(m) + 0.5) / m))
    t, s = 0.02, 0.01
    a = semigroup_apply(op, t, semigroup_apply(op, s, f))
    b = semigroup_apply(op, t + s, f)
    rel = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
    assert rel < 1e-8


def test_positivity_real_symmetric():
    m = 64
    op = variable_operator(m)
    f = Field(np.abs(make_field("random-smooth", 1, m, seed=9, band=4).values) + 0.01)
    out = semigroup_apply(op, 0.005, f)
    assert np.min(out.values) >= -1e-10 * np.max(np.abs(f.values))


def test_complex_coefficients_supported():
    m = 16
    op = complex_operator_2d(m)
    f = make_field("random-smooth", 2, m, seed=3, band=2)
    out = semigroup_apply(op, 0.01, f)
    assert out.values.shape == (m, m)
    assert np.all(np.isfinite(out.values.real))


def test_variable_complex_stencil_runs():
    m = 32
    x = (np.arange(m) + 0.5) / m
    a = (1.25 + 0.25 * np.cos(2 * np.pi * x)) + 0.2j * np.sin(2 * np.pi * x)
    op = EllipticOperator(a, lam=0.5, big_lam=2.0, dimension=1)
    f = make_field("random-smooth", 1, m, seed=5, band=3)
    out = semigroup_apply(op, 0.01, f)
    assert np.all(np.isfinite(np.abs(out.values)))


# ---------------------------------------------------------------------------
# U_s operator
# ---------------------------------------------------------------------------


def test_us_identity_spectral():
    # s L U_{s,N=1} f = f - e^{-sL} f on smooth probes
    m, s = 64, 0.01
    op = identity_operator(m)
    f = make_field("random-smooth", 1, m, seed=7, band=3)
    us = u_s_apply(op, s, 1, f)
    lhs = s * op.apply(us).values
    rhs = f.values - semigroup_apply(op, s, f).values
    rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    assert rel < 1e-6


def test_us_identity_variable_coefficients():
    m, s = 64, 0.01
    op = variable_operator(m)
    f = Field(1.0 + 0.3 * np.cos(2 * np.pi * (np.arange(m) + 0.5) / m))
    us = u_s_apply(op, s, 1, f)
    lhs = s * op.apply(us).values
    rhs = f.values - semigroup_apply(op, s, f).values
    rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    assert rel < 1e-6


def test_us_conserves_constants():
    m = 32
    op = identity_operator(m)
    one = make_field("constant", 1, m, value=1.0)
    out = u_s_apply(op, 0.02, 2, one)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_us_multiplier_closed_form():
    m, s, big_n, k = 64, 0.02, 2, 2
    op = identity_operator(m)
    f = make_field("fourier-mode", 1, m, k=k)
    mu = 4 * math.pi ** 2 * k ** 2
    want = ((1 - math.exp(-s * mu)) / (s * mu)) ** big_n * f.values
    got = u_s_apply(op, s, big_n, f).values
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-9


def dense_time_average(op: EllipticOperator, s: float, big_n: int, f: Field) -> np.ndarray:
    """U_s f from a dense eigendecomposition of the (real symmetric) stencil
    and a composite 16-node Gauss-Legendre average of e^{-lambda mu} over
    [0, s]; each panel spans at most 4 units of s * max(mu)."""
    mu, vecs = eigh(op.matrix().toarray())
    mu = np.maximum(mu, 0.0)
    panels = int(math.ceil(s * mu.max() / 4.0))
    nodes, weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, s, panels + 1)
    mids, halves = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    times = (mids[:, None] + halves[:, None] * nodes).ravel()
    wts = (halves[:, None] * weights).ravel() / s
    mult = (np.exp(-np.outer(mu, times)) @ wts) ** big_n
    return vecs @ (mult * (vecs.T @ f.values))


@pytest.mark.parametrize("s, big_n", [(0.01, 1), (0.01, 2), (0.1, 3)])
def test_us_matches_dense_time_average(s, big_n):
    # measured error at most 2.9e-13; the expansion cut at its start degree
    # (no tail test) fails at (0.01, 2) and (0.1, 3)
    op = variable_operator(64)
    f = Field(1.0 + 0.5 * make_field("random-smooth", 1, 64, seed=6, band=4).values)
    got = u_s_apply(op, s, big_n, f).values
    want = dense_time_average(op, s, big_n, f)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12


def dense_time_average_expm(op: EllipticOperator, s: float, big_n: int, f: Field) -> np.ndarray:
    """U_s f for any stencil from one dense exponential: the top-right block
    of expm([[-sL, I], [0, 0]]) is int_0^1 e^{-s u L} du (Van Loan, IEEE
    Trans. Automat. Control 23, 1978)."""
    mat = op.matrix().toarray()
    size = mat.shape[0]
    block = np.zeros((2 * size, 2 * size), dtype=mat.dtype)
    block[:size, :size] = -s * mat
    block[:size, size:] = np.eye(size)
    average = expm(block)[:size, size:]
    u = f.values.ravel()
    for _ in range(big_n):
        u = average @ u
    return u.reshape(f.values.shape)


@pytest.mark.parametrize("case", ["complex-2d-16", "real-nonsymmetric-2d-16"])
@pytest.mark.parametrize("s, big_n", [(0.01, 1), (0.1, 1), (0.1, 2)])
def test_us_non_hermitian_matches_dense_expm(expm_operators, case, s, big_n):
    # a non-Hermitian stencil halves s until the ellipse growth is bounded:
    # the complex operator takes one halving at s = 0.01 and four at s = 0.1
    # (NumericError without them); the real one none, and its result must
    # stay real.  Measured: at most 1.1e-14.
    op = expm_operators[case]
    dim, m, _build = EXPM_CASES[case]
    f = Field(make_field("random-smooth", dim, m, seed=6, band=3).values + 1.0)
    got = u_s_apply(op, s, big_n, f).values
    assert np.iscomplexobj(got) == op.is_complex
    want = dense_time_average_expm(op, s, big_n, f)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-11


def test_chebyshev_evaluator_rejects_nondecaying_coefficients():
    # |lambda - rho/2| has a kink inside the spectrum: its Chebyshev
    # coefficients decay like k^-2 and never reach the tail tolerance
    op = variable_operator(64)
    rho = op._chebyshev_frame()[0]
    f = make_field("random-smooth", 1, 64, seed=6, band=4)
    with pytest.raises(NumericError, match="did not fall below"):
        _chebyshev_apply(op, lambda lam: np.abs(lam - rho / 2), f)


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def test_classical_family_kills_constants_on_cube():
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("constant", 1, 32, value=5.0)
    q = Cube((0.25,), 0.25)
    b = fam.apply_B(f, q)
    assert np.allclose(b.restrict(q), 0.0)


def test_extended_family_replacement_identity():
    # A_R A_Q f = A_Q f on 2R for R inside Q
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, 64, seed=1, band=4)
    q = Cube((0.25,), 0.5)
    r = Cube((0.375,), 0.125)
    aq = fam.apply_A(f, q)
    ar_aq = fam.apply_A(aq, r)
    two_r = dilate(r, 2.0, 64).cube
    ix = np.ix_(*two_r.cell_arrays(64))
    assert np.max(np.abs(ar_aq.values[ix] - aq.values[ix])) < 1e-12


def test_semigroup_family_annihilates_constants():
    m = 64
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m), big_n=2)
    f = make_field("constant", 1, m, value=3.0)
    b = fam.apply_B(f, Cube((0.0,), 0.25))
    assert np.max(np.abs(b.values)) < 1e-8


def test_a_plus_b_is_identity_all_kinds():
    m = 32
    f = make_field("random-smooth", 1, m, seed=8, band=4)
    q = Cube((0.125,), 0.25)
    fams = [
        make_family("classical-average", (1.0, math.inf)),
        make_family("extended-average", (1.0, math.inf)),
        make_family("semigroup", (2.0, 2.0), operator=variable_operator(m)),
    ]
    for fam in fams:
        total = fam.apply_A(f, q).values + fam.apply_B(f, q).values
        assert np.max(np.abs(total - f.values)) <= 1e-10 * np.max(np.abs(f.values))


# ---------------------------------------------------------------------------
# off-diagonal profiles
# ---------------------------------------------------------------------------


def probe_set(m: int, dim: int = 1) -> list[Field]:
    rng = np.random.Generator(np.random.Philox(77))
    signs = Field(np.sign(rng.normal(size=(m,) * dim)) + 0.0)
    return [make_field("constant", dim, m, value=1.0), signs]


def test_averaging_families_far_field_exactly_zero():
    m = 256
    q = Cube((0.25,), 1 / 64)
    for kind in ("classical-average", "extended-average"):
        fam = make_family(kind, (1.0, math.inf))
        prof = measure_offdiagonal(fam, probe_set(m), [q], k_max=5)
        for k, v in prof.alpha.items():
            if k >= 3:
                assert v == 0.0


def test_extended_alpha2_at_most_one():
    m = 256
    fam = make_family("extended-average", (1.0, math.inf))
    prof = measure_offdiagonal(fam, probe_set(m), [Cube((0.25,), 1 / 32)], k_max=4)
    assert prof.alpha[2] <= 1.0 + 1e-12


def test_heat_profile_gaussian_decay():
    m = 256
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m), big_n=1)
    cubes = [Cube((0.25,), 1 / 64), Cube((0.5,), 1 / 64)]
    prof = measure_offdiagonal(fam, probe_set(m), cubes, k_max=6)
    log_c, rate, residual = prof.fit([3, 4, 5, 6])
    assert rate > 0
    assert residual < 0.10
    # ratios alpha_{k+1} / alpha_k decreasing
    ks = [k for k in (3, 4, 5) if prof.alpha_at(k + 1) > 0]
    ratios = [prof.alpha_at(k + 1) / prof.alpha_at(k) for k in ks]
    assert all(r2 < r1 for r1, r2 in zip(ratios, ratios[1:])) or len(ratios) <= 1


def test_profile_jensen_domination():
    # a profile at inner exponents is dominated by the (p0, q0) profile on
    # identical probes
    m = 128
    fam_outer = make_family("semigroup", (1.0, 4.0), operator=identity_operator(m))
    fam_inner = make_family("semigroup", (2.0, 3.0), operator=identity_operator(m))
    probes = probe_set(m)
    cubes = [Cube((0.5,), 1 / 32)]
    prof_outer = measure_offdiagonal(fam_outer, probes, cubes, k_max=5)
    prof_inner = measure_offdiagonal(fam_inner, probes, cubes, k_max=5)
    for k in prof_inner.alpha:
        assert prof_inner.alpha[k] <= prof_outer.alpha_at(k) * (1 + 1e-10)


def test_composite_bound_on_probes():
    # (mean_{2Q} |A_Q f|^{q0})^{1/q0} <= sum_k alpha_k (mean_{2^k Q} |f|^{p0})^{1/p0}
    # for every profiling probe
    m = 256
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m))
    q = Cube((0.25,), 1 / 64)
    probes = probe_set(m)
    prof = measure_offdiagonal(fam, probes, [q], k_max=6)
    two_q = dilate(q, 2.0, m).cube
    for p in probes:
        lhs = lp_average(fam.apply_A(p, q), two_q, 2.0)
        rhs = 0.0
        for k in sorted(prof.alpha):
            dk = dilate(q, 2.0 ** k, m)
            rhs += prof.alpha_at(k) * lp_average(p, dk.cube, 2.0)
        assert lhs <= rhs * (1 + 1e-9)


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_semigroup_commutes():
    m = 64
    fam = make_family("semigroup", (2.0, 2.0), operator=variable_operator(m))
    pairs = [(Cube((0.25,), 0.125), Cube((0.25,), 0.25))]
    rep = audit_family(fam, probe_set(m), pairs)
    assert rep.commutator <= 1e-8
    assert not rep.localization
    assert rep.identity_defect <= 1e-10


def test_audit_extended_average_flags_and_bound():
    m = 64
    fam = make_family("extended-average", (1.0, math.inf))
    pairs = [(Cube((0.25,), 0.125), Cube((0.25,), 0.25))]
    rep = audit_family(fam, probe_set(m), pairs)
    assert rep.localization
    assert rep.replace_comm
    assert rep.uniform_bound <= 1 + 2 ** 1 + 1e-9


def test_audit_classical_localization_only():
    m = 64
    fam = make_family("classical-average", (1.0, math.inf))
    pairs = [(Cube((0.25,), 0.125), Cube((0.25,), 0.25))]
    rep = audit_family(fam, probe_set(m), pairs)
    assert rep.localization
    assert not rep.replace_comm


# ---------------------------------------------------------------------------
# sharp maximal
# ---------------------------------------------------------------------------


def brute_sharp_classical(vals: np.ndarray, p: float) -> np.ndarray:
    m = vals.shape[0]
    out = np.zeros_like(vals, dtype=float)
    c = 1
    while c <= m:
        for a in range(m):
            idx = (np.arange(c) + a) % m
            block = vals[idx]
            stat = (np.abs(block - block.mean()) ** p).mean() ** (1 / p)
            out[idx] = np.maximum(out[idx], stat)
        c *= 2
    return out


def test_sharp_maximal_constant_zero_semigroup():
    m = 64
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m))
    f = make_field("constant", 1, m, value=4.0)
    sm = sharp_maximal(fam, f, 2.0)
    assert np.max(sm.values) < 1e-8


def test_sharp_maximal_matches_brute_force_classical():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("indicator", 1, m, cube={"anchor": [0.25], "side": 0.25})
    got = sharp_maximal(fam, f, 1.0).values
    want = brute_sharp_classical(f.values, 1.0)
    assert np.allclose(got, want, rtol=1e-11)


def test_sharp_maximal_p_monotone():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=12, band=5)
    lo = sharp_maximal(fam, f, 1.0).values
    hi = sharp_maximal(fam, f, 2.0).values
    assert np.all(lo <= hi * (1 + 1e-12))


def test_bmo_seminorm_scaleonly_family_fast_path():
    m = 64
    fam = make_family("semigroup", (1.0, math.inf), operator=identity_operator(m))
    f = make_field("log-distance", 1, m, center=0.5)
    v1 = bmo_seminorm(fam, f, 1.0)
    v2 = bmo_seminorm(fam, f, 2.0)
    assert 0 < v1 <= v2 * (1 + 1e-12)


def test_sharp_maximal_alpha_weighting():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=2, band=4)
    plain = bmo_seminorm(fam, f, 1.0)
    lip = bmo_seminorm(fam, f, 1.0, alpha=0.5)
    assert lip >= plain  # small cubes weighted up


def test_sharp_maximal_rejects_out_of_range_p():
    fam = make_family("semigroup", (2.0, 4.0), operator=identity_operator(16))
    f = make_field("constant", 1, 16, value=1.0)
    with pytest.raises(ParameterError):
        sharp_maximal(fam, f, 1.0)
    with pytest.raises(ParameterError):
        sharp_maximal(fam, f, 4.0)


SHARP_CASES = {
    "semigroup-spectral": (1, 64, lambda m: make_family("semigroup", (1.0, math.inf), identity_operator(m))),
    "semigroup-stencil": (1, 32, lambda m: make_family("semigroup", (1.0, math.inf), variable_operator(m))),
    "extended-average-1d": (1, 64, lambda m: make_family("extended-average", (1.0, math.inf))),
    "extended-average-2d": (2, 16, lambda m: make_family("extended-average", (1.0, math.inf))),
    "classical-average-1d": (1, 64, lambda m: make_family("classical-average", (1.0, math.inf))),
    "classical-average-2d": (2, 16, lambda m: make_family("classical-average", (1.0, math.inf))),
}


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("case", sorted(SHARP_CASES))
def test_sharp_maximal_exponent_sweep_equals_single_exponent_calls(case, alpha):
    dim, m, build = SHARP_CASES[case]
    fam = build(m)
    f = make_field("random-smooth", dim, m, seed=5, band=4)
    swept = sharp_maximal(fam, f, [1.0, 2.0, 4.0], alpha)
    assert isinstance(swept, list) and len(swept) == 3
    for p, got in zip([1.0, 2.0, 4.0], swept):
        assert np.array_equal(got.values, sharp_maximal(fam, f, p, alpha).values), p


def test_sharp_maximal_blocked_windows_match_brute_force():
    from osclab import operators

    m = 512
    assert m * m > operators._WINDOW_BLOCK  # the largest scales take several anchor blocks
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=9, band=6)
    got = sharp_maximal(fam, f, [1.0, 2.0, 4.0])
    # on Q itself the extended-average B_Q f is f - f_Q, as for the classical family
    for p, g in zip([1.0, 2.0, 4.0], got):
        assert np.allclose(g.values, brute_sharp_classical(f.values, p), rtol=1e-12, atol=0.0), p


def test_sharp_maximal_window_memory_bounded():
    import tracemalloc

    m = 4096  # an m x m float64 window matrix would take 128 MB
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=3, band=6)
    tracemalloc.start()
    try:
        sharp_maximal(fam, f, [1.0, 2.0, 4.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak


def test_coefficient_io_roundtrip(tmp_path):
    from osclab.operators import load_coefficients, save_coefficients

    op = anisotropic_operator_2d(8)
    save_coefficients(op, str(tmp_path / "coef"))
    back = load_coefficients(str(tmp_path / "coef"))
    assert np.array_equal(back.coeffs, op.coeffs)
    assert back.lam == op.lam and back.big_lam == op.big_lam

    opc = complex_operator_2d(8)
    save_coefficients(opc, str(tmp_path / "coefc"))
    backc = load_coefficients(str(tmp_path / "coefc"))
    assert np.array_equal(backc.coeffs, opc.coeffs)
