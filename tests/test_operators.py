"""Semigroups, oscillation families, off-diagonal profiling, sharp maximal."""

from __future__ import annotations

import hashlib
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from scipy.linalg import eigh, expm

from osclab import operators
from osclab._support import DataError, NumericError, ParameterError
from osclab.cubes import Cube, Dilation, dilate, full_torus
from osclab.grid import Field, lp_average, make_field
from osclab.operators import (
    EllipticOperator,
    OscillationFamily,
    _cyclic_reduction,
    _cyclic_solve,
    _expm,
    _gmres,
    _stencil_apply,
    audit_family,
    make_family,
    measure_offdiagonal,
    semigroup_apply,
    sharp_maximal,
    u_s_apply,
)


def heat(op: EllipticOperator, t: float, f: Field) -> Field:
    return semigroup_apply(op, [t], [f])[0][0]


def identity_operator(m: int, dim: int = 1) -> EllipticOperator:
    return EllipticOperator(np.ones((m,) * dim), dimension=dim)


def variable_operator(m: int) -> EllipticOperator:
    x = (np.arange(m) + 0.5) / m
    a = 1.25 + 0.75 * np.cos(2 * np.pi * x)  # in [1/2, 2]
    return EllipticOperator(a, dimension=1)


def anisotropic_operator_2d(m: int) -> EllipticOperator:
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0] = 1.5
    coeffs[1, 1] = 0.75
    coeffs[0, 1] = 0.25
    coeffs[1, 0] = 0.25
    return EllipticOperator(coeffs, dimension=2)


def complex_operator_2d(m: int, eps: float = 0.3) -> EllipticOperator:
    coeffs = np.zeros((2, 2, m, m), dtype=complex)
    coeffs[0, 0] = 1.0 + 1j * eps * 0.5
    coeffs[1, 1] = 1.0 - 1j * eps * 0.5
    coeffs[0, 1] = 1j * eps * 0.25
    coeffs[1, 0] = 1j * eps * 0.25
    return EllipticOperator(coeffs, dimension=2)


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------


def test_ellipticity_constants_are_computed_from_the_coefficients():
    # diag(1, 0.45): Re <A xi, xi> = 0.45 |xi|^2 at xi = e_2, and |A| = 1
    coeffs = np.zeros((2, 2, 8, 8))
    coeffs[0, 0], coeffs[1, 1] = 1.0, 0.45
    op = EllipticOperator(coeffs, dimension=2)
    assert (op.lam, op.big_lam) == (pytest.approx(0.45), pytest.approx(1.0))
    # [[1, 1.2], [-1.2, 1]] has Hermitian part I but 2-norm sqrt(1 + 1.44)
    coeffs[1, 1] = 1.0
    coeffs[0, 1], coeffs[1, 0] = 1.2, -1.2
    op = EllipticOperator(coeffs, dimension=2)
    assert (op.lam, op.big_lam) == (pytest.approx(1.0), pytest.approx(math.sqrt(2.44)))


def test_ellipticity_is_checked_per_cell():
    # one cell with Re A < 0 among 64 is enough
    coeffs = np.ones((8, 8), dtype=complex)
    coeffs[3, 5] = -0.1 + 0.1j
    with pytest.raises(DataError, match="not elliptic"):
        EllipticOperator(coeffs, dimension=2)


# ---------------------------------------------------------------------------
# semigroup basics
# ---------------------------------------------------------------------------


def test_conservation_spectral_and_stencil():
    one_1d = make_field("constant", 1, 64, value=1.0)
    assert np.allclose(heat(identity_operator(64), 0.03, one_1d).values, 1.0, atol=1e-12)
    got = heat(variable_operator(64), 0.01, one_1d)
    assert np.max(np.abs(got.values - 1.0)) < 1e-10
    one_2d = make_field("constant", 2, 16, value=1.0)
    got2 = heat(anisotropic_operator_2d(16), 0.05, one_2d)
    assert np.max(np.abs(got2.values - 1.0)) < 1e-12


def test_mean_conservation_variable_coefficients():
    f = make_field("random-smooth", 1, 64, seed=4, band=5)
    out = heat(variable_operator(64), 0.02, f)
    assert out.integral() == pytest.approx(f.integral(), abs=1e-11)


def test_fourier_mode_multiplier_exact():
    m, k, t = 64, 3, 0.01
    f = make_field("fourier-mode", 1, m, k=k)
    got = heat(identity_operator(m), t, f).values
    want = math.exp(-4 * math.pi ** 2 * k ** 2 * t) * f.values
    assert np.max(np.abs(got - want)) < 1e-10


def test_semigroup_law_spectral_exact():
    m = 32
    op = anisotropic_operator_2d(m)
    f = make_field("random-smooth", 2, m, seed=1, band=3)
    a = heat(op, 0.02, heat(op, 0.01, f))
    b = heat(op, 0.03, f)
    rel = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
    assert rel < 1e-12


def dense_matrix(op: EllipticOperator) -> np.ndarray:
    """The operator's stencil as a dense matrix: op.apply on each of the m^n unit vectors."""
    shape = (op.resolution,) * op.dimension
    units = np.eye(op.resolution ** op.dimension)
    return np.stack([op.apply(Field(u.reshape(shape))).values.ravel() for u in units], axis=1)


def test_stencil_matches_dense_expm_oracle():
    # independent oracle: dense matrix exponential of the same stencil
    m = 64
    op = variable_operator(m)
    f = make_field("random-smooth", 1, m, seed=2, band=2)
    t = 0.01
    got = heat(op, t, f).values
    dense = expm(-t * dense_matrix(op))
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
    return EllipticOperator(coeffs, dimension=2)


def complex_variable_operator_2d(m: int) -> EllipticOperator:
    # variable coefficients with imaginary parts on and off the diagonal
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m), dtype=complex)
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx) + 0.3j * np.sin(2 * np.pi * yy)
    coeffs[1, 1] = 1.2 + 0.4 * np.sin(2 * np.pi * yy) - 0.2j * np.cos(2 * np.pi * xx)
    coeffs[0, 1] = 0.2 * np.cos(2 * np.pi * (xx + yy)) + 0.15j * np.sin(2 * np.pi * xx)
    coeffs[1, 0] = 0.2 * np.cos(2 * np.pi * (xx + yy)) - 0.1j * np.cos(2 * np.pi * yy)
    return EllipticOperator(coeffs, dimension=2)


def nonsymmetric_operator_2d(m: int) -> EllipticOperator:
    # real coefficients with a01 != a10: a real, non-symmetric stencil (R > 1)
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx)
    coeffs[1, 1] = 1.2 + 0.4 * np.sin(2 * np.pi * yy)
    coeffs[0, 1] = 0.2 * np.cos(2 * np.pi * (xx + yy)) + 0.15 * np.sin(2 * np.pi * xx)
    coeffs[1, 0] = 0.2 * np.cos(2 * np.pi * (xx + yy)) - 0.1 * np.cos(2 * np.pi * yy)
    return EllipticOperator(coeffs, dimension=2)


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


def dense_stencil(op: EllipticOperator) -> np.ndarray:
    """-(sum_i D-_i diag(a_i) D+_i + sum_{i != j} D0_i diag(A_ij) D0_j) in dense
    numpy: one-axis periodic differences lifted by Kronecker products with the
    identity, a_i the mean of A_ii over the face after each cell along axis i."""
    n, m, a = op.dimension, op.resolution, op.coeffs
    eye = np.eye(m)
    shift = {k: np.roll(eye, k, axis=1) for k in (1, -1)}  # (S_k u)_x = u_{x+k}

    def lift(d: np.ndarray, axis: int) -> np.ndarray:
        out = np.ones((1, 1))
        for ax in range(n):
            out = np.kron(out, d if ax == axis else eye)
        return out

    total = np.zeros((m ** n,) * 2, dtype=a.dtype)
    for i in range(n):
        face = 0.5 * (a[i, i] + np.roll(a[i, i], -1, axis=i))
        dplus, dminus = lift((shift[1] - eye) / op.h, i), lift((eye - shift[-1]) / op.h, i)
        total = total + dminus @ np.diag(face.ravel()) @ dplus
        for j in range(n):
            if j != i:
                central = [lift((shift[1] - shift[-1]) / (2 * op.h), ax) for ax in (i, j)]
                total = total + central[0] @ np.diag(a[i, j].ravel()) @ central[1]
    return -total


@pytest.mark.parametrize("case", ["real-1d-64", "real-2d-16", "real-nonsymmetric-2d-16", "complex-2d-16"])
def test_stencil_entries_equal_a_dense_kronecker_assembly(expm_operators, case):
    # every dense-expm oracle exponentiates the matrix that op.apply applies;
    # this checks its entries.  With h a power of two every product is exact,
    # the dense sums add the same nonzero terms in the same order, and op.apply
    # on a unit vector adds exact zeros to one entry, so they agree exactly.
    op = expm_operators[case]
    assert np.array_equal(dense_matrix(op), dense_stencil(op))


@pytest.mark.parametrize("case", sorted(EXPM_CASES))
@pytest.mark.parametrize("t", [1e-4, 1e-3, 1e-2, 0.1, 1.0])
def test_semigroup_matches_dense_expm(expm_operators, case, t):
    # the stencil semigroup against the dense exponential of the same
    # stencil.  The probe has nonzero mean: a mean-zero probe decays to about
    # 1e-20 at t = 1 and would hide a relative error.  Measured: at most
    # 3.4e-13 (complex 2-D, m = 16, t = 1e-3).
    dim, m, _build = EXPM_CASES[case]
    op = expm_operators[case]
    assert not op.is_constant
    f = Field(make_field("random-smooth", dim, m, seed=2, band=3).values + 1.0)
    got = heat(op, t, f).values
    assert np.iscomplexobj(got) == op.is_complex
    want = (expm(-t * dense_matrix(op)) @ f.values.ravel()).reshape(f.values.shape)
    rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
    assert rel <= 1e-11


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_semigroup_where_the_start_degree_underflows_matches_dense_expm(t):
    # 1-D m = 1024, where t ||L|| reaches 8e6 and e^{-t lambda} underflows on
    # most of the spectrum.  The probe has nonzero mean, which a mean-zero
    # probe would not test.  The reference carries the mean exactly (the
    # flux-form stencil annihilates constants) and the rest by dense expm,
    # whose own error on the mean is 5e-11 here.  Measured: 2.5e-13 at both
    # times.
    m = 1024
    op = variable_operator(m)
    g = make_field("random-smooth", 1, m, seed=2, band=3).values
    f = Field(g + 1.0)
    got = heat(op, t, f).values
    mean = np.mean(f.values)
    want = mean + expm(-t * dense_matrix(op)) @ (f.values - mean)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-10


@pytest.mark.parametrize("t", [0.25, 1.0])
def test_semigroup_keeps_the_mean_exactly(t):
    # e^{-tL} conserves the mean, and the backend restores it after the
    # Krylov part: no drift on the constant mode (a polynomial evaluator
    # drifted by 2.1e-11 here at t = 1)
    m = 1024
    f = Field(make_field("random-smooth", 1, m, seed=2, band=3).values + 1.0)
    got = heat(variable_operator(m), t, f).values
    assert abs(np.mean(got) - np.mean(f.values)) <= 1e-15


def test_an_eigenvector_stops_the_basis_after_one_step(monkeypatch):
    # (I + gamma L)^{-1} maps an eigenvector to a multiple of itself, so the
    # basis breaks down after one solve and the result is e^{-t mu} v.
    # Measured: at most 3.0e-16.
    op = variable_operator(64)
    mu, vecs = eigh(dense_matrix(op))
    v = Field(vecs[:, 5])
    solves = Counter()
    shifted_solve = operators._shifted_solve

    def counting_solve(op, j, block):
        solves["blocks"] += 1
        return shifted_solve(op, j, block)

    monkeypatch.setattr(operators, "_shifted_solve", counting_solve)
    for t in (1e-3, 0.1):
        got = heat(op, t, v).values
        assert np.max(np.abs(got - math.exp(-t * mu[5]) * v.values)) <= 1e-13, t
    assert solves["blocks"] == 2


@pytest.mark.parametrize("build, m", [(variable_operator, 64), (complex_variable_operator_2d, 16)])
@pytest.mark.parametrize("value", [0.0, 2.5])
def test_constant_fields_come_back_exactly(build, m, value):
    # g - mean(g) vanishes: the Krylov basis is empty, with no division by its
    # zero norm (a RuntimeWarning, an error under the suite's filterwarnings)
    op = build(m)
    g = Field(np.full((m,) * op.dimension, value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outs = [row[0] for row in semigroup_apply(op, [0.0, 1e-3, 1.0], [g])] + [u_s_apply(op, 0.1, 2, g)]
    for out in outs:
        assert np.array_equal(out.values, g.values)


def test_semigroup_law_stencil():
    m = 64
    op = variable_operator(m)
    f = Field(1.0 + 0.5 * np.cos(2 * np.pi * (np.arange(m) + 0.5) / m))
    t, s = 0.02, 0.01
    a = heat(op, t, heat(op, s, f))
    b = heat(op, t + s, f)
    rel = np.max(np.abs(a.values - b.values)) / np.max(np.abs(b.values))
    assert rel < 1e-8


def test_positivity_real_symmetric():
    m = 64
    op = variable_operator(m)
    f = Field(np.abs(make_field("random-smooth", 1, m, seed=9, band=4).values) + 0.01)
    out = heat(op, 0.005, f)
    assert np.min(out.values) >= -1e-10 * np.max(np.abs(f.values))


def test_complex_coefficients_supported():
    m = 16
    op = complex_operator_2d(m)
    f = make_field("random-smooth", 2, m, seed=3, band=2)
    out = heat(op, 0.01, f)
    assert out.values.shape == (m, m)
    assert np.all(np.isfinite(out.values.real))


def test_variable_complex_stencil_runs():
    m = 32
    x = (np.arange(m) + 0.5) / m
    a = (1.25 + 0.25 * np.cos(2 * np.pi * x)) + 0.2j * np.sin(2 * np.pi * x)
    op = EllipticOperator(a, dimension=1)
    f = make_field("random-smooth", 1, m, seed=5, band=3)
    out = heat(op, 0.01, f)
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
    rhs = f.values - heat(op, s, f).values
    rel = np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs))
    assert rel < 1e-6


def test_us_identity_variable_coefficients():
    m, s = 64, 0.01
    op = variable_operator(m)
    f = Field(1.0 + 0.3 * np.cos(2 * np.pi * (np.arange(m) + 0.5) / m))
    us = u_s_apply(op, s, 1, f)
    lhs = s * op.apply(us).values
    rhs = f.values - heat(op, s, f).values
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
    mu, vecs = eigh(dense_matrix(op))
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
    # measured error at most 2.8e-13
    op = variable_operator(64)
    f = Field(1.0 + 0.5 * make_field("random-smooth", 1, 64, seed=6, band=4).values)
    got = u_s_apply(op, s, big_n, f).values
    want = dense_time_average(op, s, big_n, f)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-12


def dense_time_average_expm(op: EllipticOperator, s: float, big_n: int, f: Field) -> np.ndarray:
    """U_s f for any stencil from one dense exponential: the top-right block
    of expm([[-sL, I], [0, 0]]) is int_0^1 e^{-s u L} du (Van Loan, IEEE
    Trans. Automat. Control 23, 1978)."""
    mat = dense_matrix(op)
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
    # Van Loan's block exponential on the projected generator against the
    # same block exponential of the dense stencil; the real non-symmetric
    # result must stay real.  Measured: at most 5.1e-14.
    op = expm_operators[case]
    dim, m, _build = EXPM_CASES[case]
    f = Field(make_field("random-smooth", dim, m, seed=6, band=3).values + 1.0)
    got = u_s_apply(op, s, big_n, f).values
    assert np.iscomplexobj(got) == op.is_complex
    want = dense_time_average_expm(op, s, big_n, f)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) <= 1e-11


def test_krylov_check_rejects_a_basis_too_small():
    # 12 steps against the leading 2 of the same basis: they disagree far
    # beyond the check's tolerance, for e^{-tL} and for U_s alike
    op = variable_operator(64)
    op.krylov_dim = 12
    f = make_field("random-smooth", 1, 64, seed=6, band=4)
    with pytest.raises(NumericError, match="Krylov dimensions 12 and 2 differ"):
        heat(op, 0.01, f)
    with pytest.raises(NumericError, match="Krylov dimensions 12 and 2 differ"):
        u_s_apply(op, 0.01, 1, f)


# ---------------------------------------------------------------------------
# Krylov kernels against independent references
# ---------------------------------------------------------------------------


def stiff_hessenberg(kind: str, k: int, norm: float, seed: int) -> np.ndarray:
    """A Hessenberg matrix like -t L_k, scaled to 1-norm ``norm``: the diagonal
    -10^-3 .. -1, a small random upper part and subdiagonal; complex parts for
    the complex kind; the non-normal kind is triangular with a random upper
    part three times larger than the others'."""
    rng = np.random.default_rng(seed)
    decay = -np.logspace(-3, 0, k)
    a = np.diag(decay) + np.triu(rng.normal(size=(k, k)), 1) * (0.1 if kind == "non-normal" else 0.03)
    if kind != "non-normal":
        a += np.diag(0.03 * rng.normal(size=k - 1), -1)
    if kind == "complex":
        a = a + 1j * (0.3 * np.diag(decay) + 0.03 * np.triu(rng.normal(size=(k, k)), 1))
    return a * (norm / np.max(np.sum(np.abs(a), axis=0)))


@pytest.mark.parametrize("kind", ["real", "complex", "non-normal"])
@pytest.mark.parametrize("norm", [1e-3, 1e-1, 1.0, 10.0, 1e2, 1e3, 1e4])
def test_pade_expm_matches_scipy(kind, norm):
    # measured: at most 6.0e-13 in the 1-norm, relative.  (With a non-normal
    # upper part three times larger, scipy's expm itself is off by 1e-3 at
    # norm 1e4 against an 80-digit mpmath reference, which the Pade-13 meets
    # to 1e-13.)
    for seed in range(3):
        a = stiff_hessenberg(kind, 30, norm, seed)
        want = expm(a)
        assert np.linalg.norm(_expm(a)[0] - want, 1) <= 1e-12 * np.linalg.norm(want, 1), seed


def test_pade_expm_shares_a_time_ladder_bit_for_bit():
    # the times t, 4t, 16t, ... share one approximant; each result equals the
    # time alone and scipy's e^{ta}
    a = stiff_hessenberg("non-normal", 30, 10.0, 0)
    times = [1e-3 * 4.0 ** k for k in range(8)] + [0.3, 0.0]
    for t, got in zip(times, _expm(a, times)):
        assert np.array_equal(got, _expm(a, [t])[0]), t
        want = expm(t * a)
        assert np.linalg.norm(got - want, 1) <= 1e-12 * np.linalg.norm(want, 1), t


def periodic_tridiagonal(m: int, complex_: bool, seed: int):
    """(sub, diag, sup) of a diagonally dominant periodic tridiagonal matrix
    and the matrix itself, row i holding sub_i at column i - 1 and sup_i at
    i + 1 (both at the other column when m = 2)."""
    rng = np.random.default_rng(seed)
    sub, sup = rng.normal(size=m), rng.normal(size=m)
    if complex_:
        sub, sup = sub + 1j * rng.normal(size=m), sup + 1j * rng.normal(size=m)
    diag = 1.0 + np.abs(sub) + np.abs(sup) + (0.5j * rng.normal(size=m) if complex_ else 0.0)
    dense = np.diag(diag)
    rows = np.arange(m)
    np.add.at(dense, (rows, (rows - 1) % m), sub)
    np.add.at(dense, (rows, (rows + 1) % m), sup)
    return (sub, diag, sup), dense


@pytest.mark.parametrize("complex_", [False, True])
def test_cyclic_reduction_matches_dense_solve(complex_):
    # measured: at most 4.5e-16 relative to the largest entry of the solution
    rng = np.random.default_rng(3)
    for m in [2 ** p for p in range(1, 11)]:
        coeffs, dense = periodic_tridiagonal(m, complex_, m)
        rhs = rng.normal(size=(3, m)) + (1j * rng.normal(size=(3, m)) if complex_ else 0.0)
        got = _cyclic_solve(_cyclic_reduction(*coeffs), rhs)
        want = np.linalg.solve(dense, rhs.T).T
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), m


@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("m", [2, 4, 64, 1024])
def test_cyclic_reduction_solves_a_column_alone_as_in_a_block(m, complex_):
    # every step, the last 2 x 2 solve included, is elementwise across columns
    coeffs, _dense = periodic_tridiagonal(m, complex_, 7)
    reduction = _cyclic_reduction(*coeffs)
    rng = np.random.default_rng(11)
    block = rng.normal(size=(5, m)) + (1j * rng.normal(size=(5, m)) if complex_ else 0.0)
    alone = [_cyclic_solve(reduction, block[j:j + 1])[0] for j in range(5)]
    for width in (1, 3, 5):
        got = _cyclic_solve(reduction, block[:width])
        for j in range(width):
            assert np.array_equal(got[j], alone[j]), (width, j)


@pytest.mark.parametrize("build", [variable_operator_2d, complex_variable_operator_2d])
@pytest.mark.parametrize("m", [16, 32, 64])
def test_preconditioned_gmres_residual_and_iterations(build, m):
    # the FFT inverse at the mean coefficient is spectrally equivalent to
    # I + gamma L, so the count hardly grows with m: measured 17, 19, 20 steps
    # (real) and 21, 26, 29 (complex) at the first shift, fewer at the second,
    # and residuals at most 7.5e-14
    op = build(m)
    b = make_field("random-normal", 2, m, seed=1).values
    for j, gamma in enumerate(op.shifts):
        x, steps = _gmres(op, j, b)
        residual = b - (x + gamma * _stencil_apply(op, x))
        assert np.linalg.norm(residual) <= 2e-13 * np.linalg.norm(b), j
        assert steps <= 32, j


def high_contrast_operator_2d(m):
    # a(x) in [0.01, 1.99] on each axis
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0], coeffs[1, 1] = 1 + 0.99 * np.cos(2 * np.pi * xx), 1 + 0.99 * np.sin(2 * np.pi * yy)
    return EllipticOperator(coeffs, dimension=2)


def test_preconditioned_gmres_converges_at_high_contrast():
    # the FFT inverse at the mean coefficient is a weaker preconditioner here,
    # and GMRES grows its basis past its first 32 rows (measured: 69 and 25
    # steps at the two shifts)
    m = 32
    op = high_contrast_operator_2d(m)
    b = make_field("random-normal", 2, m, seed=1).values
    for j, gamma in enumerate(op.shifts):
        x_j, steps = _gmres(op, j, b)
        residual = b - (x_j + gamma * _stencil_apply(op, x_j))
        assert np.linalg.norm(residual) <= 2e-13 * np.linalg.norm(b), j
        assert steps <= 100, j


def test_preconditioned_gmres_raises_at_its_step_cap(monkeypatch):
    # 69 steps are needed at the first shift; a cap of 40 stops the basis,
    # grown from 32 rows to the cap, short of the tolerance
    op = high_contrast_operator_2d(32)
    monkeypatch.setattr(operators, "_INNER_MAXIT", 40)
    with pytest.raises(NumericError, match="in 40 steps"):
        _gmres(op, 0, make_field("random-normal", 2, 32, seed=1).values)


# Real 1-D and 2-D stencils, a real non-symmetric and a complex stencil, and a
# constant operator on the spectral path.
BATCH_OPERATORS = {
    "variable-1d": (1, 64, lambda: variable_operator(64)),
    "variable-2d": (2, 16, lambda: variable_operator_2d(16)),
    "nonsymmetric-2d": (2, 16, lambda: nonsymmetric_operator_2d(16)),
    "complex-variable-2d": (2, 16, lambda: complex_variable_operator_2d(16)),
    "constant-2d": (2, 16, lambda: anisotropic_operator_2d(16)),
}
BATCH_TIMES = [1e-4, 1e-3, 1e-2, 0.1, 1.0]


@pytest.mark.parametrize("width", [1, 3])
@pytest.mark.parametrize("case", sorted(BATCH_OPERATORS))
def test_batched_semigroup_matches_per_call_results_exactly(case, width):
    dim, m, build = BATCH_OPERATORS[case]
    op = build()
    fields = [make_field("random-smooth", dim, m, seed=s, band=3) for s in range(1, width + 1)]
    batched = semigroup_apply(op, BATCH_TIMES, fields)
    assert len(batched) == len(BATCH_TIMES)
    for i, t in enumerate(BATCH_TIMES):
        assert len(batched[i]) == width
        for j, g in enumerate(fields):
            assert np.array_equal(batched[i][j].values, heat(op, t, g).values), (t, j)
    (one_time,) = semigroup_apply(op, [BATCH_TIMES[2]], fields)
    for got, want in zip(one_time, batched[2]):
        assert np.array_equal(got.values, want.values)
    assert semigroup_apply(op, [], fields) == []


def test_sharp_maximal_builds_one_basis_for_all_scales_and_fields(monkeypatch):
    # bmo-heat's variable-1d rung at m = 128, with its five fields: the sweep
    # makes as many block solves as one single-scale call on one field (one
    # per basis step), not one per scale and field
    m = 128
    op = variable_operator(m)
    solves = Counter()
    shifted_solve = operators._shifted_solve

    def counting_solve(op, j, block):
        solves["blocks"] += 1
        solves["columns"] += len(block)
        return shifted_solve(op, j, block)

    monkeypatch.setattr(operators, "_shifted_solve", counting_solve)
    fields = [make_field("log-distance", 1, m, center=0.5)] + [
        make_field("random-smooth", 1, m, seed=sd, band=6) for sd in (32, 33, 34, 35)
    ]
    semigroup_apply(op, [1.0 / m ** 2], fields[:1])
    assert solves == {"blocks": op.krylov_dim, "columns": op.krylov_dim}
    solves.clear()
    sharp_maximal(make_family("semigroup", (1.0, math.inf), op), fields, [1.0, 2.0, 4.0])
    assert solves == {"blocks": op.krylov_dim, "columns": len(fields) * op.krylov_dim}


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
        prof = measure_offdiagonal(fam, probe_set(m), [q], k_max=5, pair_levels=1)
        for k, v in prof.alpha.items():
            if k >= 3:
                assert v == 0.0


def test_extended_alpha2_at_most_one():
    m = 256
    fam = make_family("extended-average", (1.0, math.inf))
    prof = measure_offdiagonal(fam, probe_set(m), [Cube((0.25,), 1 / 32)], k_max=4, pair_levels=1)
    assert prof.alpha[2] <= 1.0 + 1e-12


def test_heat_profile_gaussian_decay():
    m = 256
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m), big_n=1)
    cubes = [Cube((0.25,), 1 / 64), Cube((0.5,), 1 / 64)]
    prof = measure_offdiagonal(fam, probe_set(m), cubes, k_max=6, pair_levels=1)
    log_c, rate, residual = prof.fit_decay([3, 4, 5, 6])
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
    prof_outer = measure_offdiagonal(fam_outer, probes, cubes, k_max=5, pair_levels=1)
    prof_inner = measure_offdiagonal(fam_inner, probes, cubes, k_max=5, pair_levels=1)
    for k in prof_inner.alpha:
        assert prof_inner.alpha[k] <= prof_outer.alpha_at(k) * (1 + 1e-10)


def test_composite_bound_on_probes():
    # (mean_{2Q} |A_Q f|^{q0})^{1/q0} <= sum_k alpha_k (mean_{2^k Q} |f|^{p0})^{1/p0}
    # for every profiling probe
    m = 256
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m))
    q = Cube((0.25,), 1 / 64)
    probes = probe_set(m)
    prof = measure_offdiagonal(fam, probes, [q], k_max=6, pair_levels=1)
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


@pytest.mark.parametrize("kind", ["extended-average", "semigroup"])
def test_audit_and_profile_compute_each_b_field_once(monkeypatch, kind):
    # a (field, cube) pair reaches OscillationFamily.apply_B at most once
    m = 64
    fam = make_family(kind, (1.0, math.inf), operator=identity_operator(m))
    calls = Counter()
    seen = []  # every field stays alive, so its id stays unique
    apply_b = OscillationFamily.apply_B

    def counting_apply_b(self, f, q):
        seen.append(f)
        calls[(id(f), q.anchor, q.side)] += 1
        return apply_b(self, f, q)

    monkeypatch.setattr(OscillationFamily, "apply_B", counting_apply_b)
    audit_family(fam, probe_set(m), [(Cube((0.25,), 0.125), Cube((0.25,), 0.25))])
    assert calls and max(calls.values()) == 1, calls.most_common(1)
    calls.clear()
    measure_offdiagonal(fam, probe_set(m), [Cube((0.25,), 1 / 32)], k_max=5, pair_levels=1)
    assert calls and max(calls.values()) == 1, calls.most_common(1)


def test_audit_keeps_the_imaginary_part_of_a_complex_family():
    # A_Q of a complex-coefficient semigroup is complex on a real probe; the
    # localization defect is measured on the complex values (no ComplexWarning,
    # which the suite turns into an error)
    m = 16
    fam = make_family("semigroup", (1.0, math.inf), operator=complex_operator_2d(m))
    probes = probe_set(m, 2)
    r, q = Cube((0.25, 0.25), 0.125), Cube((0.25, 0.25), 0.25)
    rep = audit_family(fam, probes, [(r, q)])
    ix = dilate(q, 2.0, m).cube.index(m)
    defect = imag = 0.0
    for f in probes:
        aq = fam.apply_A(f, q).values
        masked = np.zeros_like(f.values)
        masked[ix] = f.values[ix]
        local = np.zeros(aq.shape, dtype=complex)
        local[ix] = fam.apply_A(Field(masked), q).values[ix]
        defect = max(defect, float(np.max(np.abs(aq - local))))
        imag = max(imag, float(np.max(np.abs(local.imag))))
    assert imag > 0
    scale = max(float(np.max(np.abs(p.values))) for p in probes)
    assert rep.localization == (defect <= 1e-8 * scale)


def reference_measure_offdiagonal(family, probes, cube_sample, k_max=6, pair_levels=1):
    """The profile entries computed shell by shell with nothing shared: A_Q once
    per target shell and per level, the right-hand side once per target shell."""
    p0, q0 = family.p0, family.q0
    m = probes[0].resolution
    alpha, beta = {}, {}

    def bump(table, k, value):
        table[k] = max(table.get(k, 0.0), value)

    def dil(q, factor):
        return dilate(q, factor, m) if factor > 1 else Dilation(q, False)

    def masked(p, cube):
        vals = np.zeros_like(p.values)
        vals[cube.index(m)] = p.values[cube.index(m)]
        return Field(vals)

    def annulus(outer, inner):
        mask = np.zeros((m,) * outer.dimension, dtype=bool)
        mask[outer.index(m)] = True
        mask[inner.index(m)] = False
        out = [Field(mask.astype(float))]
        for p in probes:
            vals = np.where(mask, p.values, 0.0)
            if np.any(vals != 0):
                out.append(Field(vals))
        return out if mask.any() else []

    for q in cube_sample:
        two_q, four_q = dil(q, 2.0), dil(q, 4.0)
        rhs_cube = q if family.is_local else four_q.cube
        src_cube = two_q.cube if family.is_local else four_q.cube
        if not four_q.saturated or family.is_local:
            for p in probes:
                src = masked(p, src_cube)
                rhs = lp_average(src, rhs_cube, p0)
                if rhs > 0:
                    bump(alpha, 2, lp_average(family.apply_A(src, q), two_q.cube, q0) / rhs)
        for k in range(3, k_max + 1):
            outer, inner = dil(q, 2.0 ** k), dil(q, 2.0 ** (k - 1))
            if outer.saturated:
                break
            ann = annulus(outer.cube, inner.cube)
            outputs = [family.apply_A(p, q) for p in ann]
            for j in range(1, k - 1):
                for p, ap in zip(ann, outputs):
                    rhs = lp_average(p, outer.cube, p0)
                    if rhs > 0:
                        bump(alpha, k, lp_average(ap, dil(q, 2.0 ** j).cube, q0) / rhs)
        for level in range(1, pair_levels + 1):
            side = q.side / (2 ** level)
            if side < 1.0 / m:
                break
            r = Cube(q.anchor, side)
            for k in range(2, k_max + 1):
                outer = dil(q, 2.0 ** k)
                if outer.saturated:
                    break
                if k == 2:
                    sources = [masked(p, outer.cube) for p in probes]
                else:
                    sources = annulus(outer.cube, dil(q, 2.0 ** (k - 1)).cube)
                for p in sources:
                    if np.any(p.values):
                        g = family.apply_B(family.apply_A(p, q), r)
                        rhs = lp_average(p, outer.cube, p0)
                        if rhs > 0:
                            bump(beta, k, lp_average(g, dil(r, 2.0).cube, q0) / rhs)
    return alpha, (beta or None)


def profile_cases():
    m1, m2 = 128, 32
    cubes1 = [Cube((0.25,), 1 / 32), Cube((0.9375,), 1 / 16), Cube((0.5,), 1 / 128)]
    cubes2 = [Cube((0.25, 0.25), 1 / 8), Cube((0.875, 0.0), 1 / 16)]
    for kind in ("classical-average", "extended-average"):
        yield kind, make_family(kind, (1.0, math.inf)), probe_set(m1), cubes1
        yield kind + "-2d", make_family(kind, (1.0, 4.0)), probe_set(m2, 2), cubes2
    yield "heat", make_family("semigroup", (2.0, 2.0), operator=identity_operator(m1)), probe_set(m1), cubes1
    yield "variable", make_family("semigroup", (1.0, math.inf), operator=variable_operator(m1)), probe_set(m1), cubes1
    yield "heat-2d", make_family("semigroup", (1.0, 3.0), operator=identity_operator(m2, 2), big_n=2), \
        probe_set(m2, 2), cubes2


PROFILE_CASES = {name: case for name, *case in profile_cases()}


@pytest.mark.parametrize("name", PROFILE_CASES)
@pytest.mark.parametrize("k_max, pair_levels", [(6, 1), (4, 2)])
def test_profile_entries_equal_per_shell_reference(name, k_max, pair_levels):
    fam, probes, cubes = PROFILE_CASES[name]
    prof = measure_offdiagonal(fam, probes, cubes, k_max=k_max, pair_levels=pair_levels)
    alpha, beta = reference_measure_offdiagonal(fam, probes, cubes, k_max, pair_levels)
    assert prof.alpha == alpha
    assert prof.beta == beta


@pytest.mark.parametrize("name", PROFILE_CASES)
def test_profile_computes_each_distinct_input_once(monkeypatch, name):
    # B_Q and the L^p averages see each (values, cube) once, keyed by a digest
    # of the values: shells are shared by alpha and beta, and right-hand sides
    # are computed once per source.  (Cubes of more than one cell: on a single
    # cell, a local family maps two probes of equal value there to one output.)
    fam, probes, cubes = PROFILE_CASES[name]
    cubes = [q for q in cubes if q.side * probes[0].resolution > 1]
    calls = Counter()
    apply_b, average = OscillationFamily.apply_B, operators.lp_average

    def digest(f):
        return hashlib.blake2b(f.values.tobytes(), digest_size=16).digest()

    def counting_apply_b(self, f, q):
        calls[("B", id(self), digest(f), q.anchor, q.side)] += 1
        return apply_b(self, f, q)

    def counting_average(f, q, p, w=None):
        calls[("lp", digest(f), q.anchor, q.side, p)] += 1
        return average(f, q, p, w)

    monkeypatch.setattr(OscillationFamily, "apply_B", counting_apply_b)
    monkeypatch.setattr(operators, "lp_average", counting_average)
    measure_offdiagonal(fam, probes, cubes, k_max=6, pair_levels=2)
    assert calls and max(calls.values()) == 1, calls.most_common(1)


# ---------------------------------------------------------------------------
# sharp maximal
# ---------------------------------------------------------------------------


def brute_sharp_classical(vals: np.ndarray, ps) -> list[np.ndarray]:
    """Classical sharp maximal function of ``vals`` at each exponent of ``ps``,
    by direct enumeration of every wrapped anchored window of every dyadic side."""
    m = vals.shape[0]
    out = [np.zeros(vals.shape) for _ in ps]
    c = 1
    while c <= m:
        for anchor in np.ndindex(vals.shape):
            idx = np.ix_(*[(np.arange(c) + a) % m for a in anchor])
            dev = np.abs(vals[idx] - vals[idx].mean())
            for o, p in zip(out, ps):
                o[idx] = np.maximum(o[idx], (dev ** p).mean() ** (1 / p))
        c *= 2
    return out


def test_sharp_maximal_constant_zero_semigroup():
    m = 64
    fam = make_family("semigroup", (2.0, 2.0), operator=identity_operator(m))
    f = make_field("constant", 1, m, value=4.0)
    sm = sharp_maximal(fam, [f], [2.0])[0][0]
    assert np.max(sm.values) < 1e-8


def test_sharp_maximal_matches_brute_force_classical():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("indicator", 1, m, cube={"anchor": [0.25], "side": 0.25})
    got = sharp_maximal(fam, [f], [1.0])[0][0].values
    (want,) = brute_sharp_classical(f.values, [1.0])
    assert np.allclose(got, want, rtol=1e-11)


def test_sharp_maximal_p_monotone():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=12, band=5)
    lo = sharp_maximal(fam, [f], [1.0])[0][0].values
    hi = sharp_maximal(fam, [f], [2.0])[0][0].values
    assert np.all(lo <= hi * (1 + 1e-12))


def test_bmo_seminorm_scaleonly_family_fast_path():
    m = 64
    fam = make_family("semigroup", (1.0, math.inf), operator=identity_operator(m))
    f = make_field("log-distance", 1, m, center=0.5)
    v1 = np.max(sharp_maximal(fam, [f], [1.0])[0][0].values)
    v2 = np.max(sharp_maximal(fam, [f], [2.0])[0][0].values)
    assert 0 < v1 <= v2 * (1 + 1e-12)


def test_sharp_maximal_alpha_weighting():
    m = 32
    fam = make_family("classical-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=2, band=4)
    plain = np.max(sharp_maximal(fam, [f], [1.0])[0][0].values)
    lip = np.max(sharp_maximal(fam, [f], [1.0], alpha=0.5)[0][0].values)
    assert lip >= plain  # small cubes weighted up


def test_sharp_maximal_rejects_out_of_range_p():
    fam = make_family("semigroup", (2.0, 4.0), operator=identity_operator(16))
    f = make_field("constant", 1, 16, value=1.0)
    with pytest.raises(ParameterError):
        sharp_maximal(fam, [f], [1.0])
    with pytest.raises(ParameterError):
        sharp_maximal(fam, [f], [4.0])


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
    (swept,) = sharp_maximal(fam, [f], [1.0, 2.0, 4.0], alpha)
    assert isinstance(swept, list) and len(swept) == 3
    for p, got in zip([1.0, 2.0, 4.0], swept):
        assert np.array_equal(got.values, sharp_maximal(fam, [f], [p], alpha)[0][0].values), p


SHARP_BATCH_CASES = {
    "semigroup-spectral-1d": ("semigroup", 1, 64, identity_operator),
    "semigroup-spectral-2d": ("semigroup", 2, 16, lambda m: identity_operator(m, 2)),
    "semigroup-stencil-1d": ("semigroup", 1, 32, variable_operator),
    "semigroup-stencil-2d": ("semigroup", 2, 16, variable_operator_2d),
    "semigroup-nonsymmetric-2d": ("semigroup", 2, 16, nonsymmetric_operator_2d),
    "classical-average-1d": ("classical-average", 1, 64, None),
    "classical-average-2d": ("classical-average", 2, 16, None),
    "extended-average-1d": ("extended-average", 1, 64, None),
    "extended-average-2d": ("extended-average", 2, 16, None),
}


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize(
    "case, big_n",
    [(c, 1) for c in sorted(SHARP_BATCH_CASES)]
    + [(c, 2) for c in sorted(SHARP_BATCH_CASES) if SHARP_BATCH_CASES[c][0] == "semigroup"],
)
def test_sharp_maximal_field_batch_equals_per_field_calls(case, big_n, alpha):
    kind, dim, m, build = SHARP_BATCH_CASES[case]
    fam = make_family(kind, (1.0, math.inf), None if build is None else build(m), big_n)
    fields = [make_field("random-smooth", dim, m, seed=s, band=3) for s in (1, 2, 3)]
    ps = [1.0, 2.0, 4.0]
    batched = sharp_maximal(fam, fields, ps, alpha)
    one_p = sharp_maximal(fam, fields, [2.0], alpha)
    assert len(batched) == len(one_p) == len(fields)
    for g, got, got_2 in zip(fields, batched, one_p):
        (want,) = sharp_maximal(fam, [g], ps, alpha)
        for p, a, b in zip(ps, got, want):
            assert np.array_equal(a.values, b.values), p
        assert np.array_equal(got_2[0].values, want[1].values)


def test_sharp_maximal_blocked_windows_match_brute_force():
    from osclab import operators

    m = 512
    assert m * m > operators._WINDOW_BLOCK  # the largest scales take several anchor blocks
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=9, band=6)
    (got,) = sharp_maximal(fam, [f], [1.0, 2.0, 4.0])
    # on Q itself the extended-average B_Q f is f - f_Q, as for the classical family
    for p, g, want in zip([1.0, 2.0, 4.0], got, brute_sharp_classical(f.values, [1.0, 2.0, 4.0])):
        assert np.allclose(g.values, want, rtol=1e-12, atol=0.0), p


def test_sharp_maximal_window_memory_bounded():
    import tracemalloc

    m = 4096  # an m x m float64 window matrix would take 128 MB
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("random-smooth", 1, m, seed=3, band=6)
    tracemalloc.start()
    try:
        sharp_maximal(fam, [f], [1.0, 2.0, 4.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20, peak



def _spy_sharp_paths(monkeypatch) -> dict:
    """Record the fields that take the window path and the stacks that take the moment path."""
    seen = {"windows": [], "moments": []}
    windows, moments = operators._anchored_deviations, operators.sliding_central_moments

    def spy_windows(f, c):
        seen["windows"].append(f.is_complex)
        return windows(f, c)

    def spy_moments(g, dimension=None):
        seen["moments"].append(g.shape)
        return moments(g, dimension)

    monkeypatch.setattr(operators, "_anchored_deviations", spy_windows)
    monkeypatch.setattr(operators, "sliding_central_moments", spy_moments)
    return seen


@pytest.mark.parametrize("kind", ["classical-average", "extended-average"])
@pytest.mark.parametrize("dim, m", [(1, 512), (2, 16)])
def test_sharp_maximal_positional_matches_brute_force(monkeypatch, kind, dim, m):
    seen = _spy_sharp_paths(monkeypatch)
    fam = make_family(kind, (1.0, math.inf))
    fields = [
        make_field("random-smooth", dim, m, seed=4, band=5),
        make_field("log-distance", dim, m, center=0.3),
        make_field("random-normal", dim, m, seed=6, complex=True),
    ]
    ps = [1.0, 1.5, 2.0, 3.0, 4.0]
    got = sharp_maximal(fam, fields, ps)
    for f, per_field in zip(fields, got):
        for p, g, want in zip(ps, per_field, brute_sharp_classical(f.values, ps)):
            assert np.allclose(g.values, want, rtol=1e-12, atol=0.0), (f.is_complex, p)
    # p = 2 and p = 4 of the two real fields come from one moment stack; the
    # complex field and every other exponent take the windows
    assert seen["moments"] == [(2,) + (m,) * dim]
    assert sorted(set(seen["windows"])) == [False, True]


def test_sharp_maximal_moment_path_skips_windows(monkeypatch):
    seen = _spy_sharp_paths(monkeypatch)
    fam = make_family("extended-average", (1.0, math.inf))
    sharp_maximal(fam, [make_field("random-smooth", 2, 16, seed=s) for s in (1, 2)], [2.0, 4.0])
    assert seen == {"windows": [], "moments": [(2, 16, 16)]}
    seen["moments"].clear()
    sharp_maximal(fam, [make_field("random-normal", 2, 16, seed=1, complex=True)], [2.0, 4.0])
    assert seen["moments"] == [] and seen["windows"] and all(seen["windows"])


@pytest.mark.parametrize("dim, m", [(1, 256), (2, 16)])
def test_sharp_maximal_moments_survive_a_large_offset(dim, m):
    # the naive E f^2 - (E f)^2 loses about 12 digits to an offset of 1e6
    fam = make_family("extended-average", (1.0, math.inf))
    f = make_field("random-smooth", dim, m, seed=8, band=4)
    shifted = Field(f.values + 1e6)
    for a, b in zip(sharp_maximal(fam, [shifted], [2.0, 4.0])[0], sharp_maximal(fam, [f], [2.0, 4.0])[0]):
        assert np.allclose(a.values, b.values, rtol=1e-8, atol=0.0)


def test_sharp_maximal_moment_memory_bounded():
    import tracemalloc

    m = 128
    fam = make_family("extended-average", (1.0, math.inf))
    fields = [make_field("random-smooth", 2, m, seed=s, band=4) for s in (1, 2, 3)]
    tracemalloc.start()
    try:
        sharp_maximal(fam, fields, [2.0, 4.0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the moment arrays are O(fields * m^n); one scale's windows alone would take 1.5 GB
    assert peak < 16 * 2 ** 20, peak
