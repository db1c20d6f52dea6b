"""Oscillation-operator families and their empirical off-diagonal profiles.

Three families are provided:

* ``classical-average``   B_Q f = f - f_Q chi_Q
* ``extended-average``    B_Q f = f - f_Q chi_{2Q}
* ``semigroup``           B_Q f = (I - e^{-l(Q)^2 L})^N f

for a divergence-form elliptic generator L = -div(A(x) grad), whose state is
computed when it is built.  Constant coefficient operators act spectrally
(the exact Fourier multiplier of the continuous generator, restricted to grid
modes); variable coefficients use a conservative finite-difference stencil,
one coefficient array per offset, applied by a gather of the neighbouring
cells.  Functions of the stencil (e^{-tL} and the time average U_s) come from
a rational shift-and-invert Krylov method in numpy alone: an Arnoldi basis
of the resolvents (I + gamma_j L)^{-1} for a few shifts gamma_j, solved
exactly by cyclic reduction in 1-D and by FFT-preconditioned GMRES in 2-D,
and a small dense exponential of the projected generator (Pade-13 scaling
and squaring; Van Loan's block form for U_s).  semigroup_apply and
sharp_maximal take blocks: one basis per field serves every time of a call,
and the solves of a basis step run on the block of all fields, so the sharp
maximal sweep of a rung costs one basis per field, not one per scale.  Both
paths annihilate constants and conserve the mean, because the stencil is in
flux form; the Krylov path restores the mean exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from osclab._support import DataError, NumericError, ParameterError
from osclab.cubes import Cube, descendant, dilate
from osclab.grid import Field, lp_average, scale_sweep_max, sliding_central_moments, sliding_cube_means


# ---------------------------------------------------------------------------
# Elliptic operators
# ---------------------------------------------------------------------------


class EllipticOperator:
    """Divergence-form generator L = -div(A(x) grad) on the periodic grid.

    ``coeffs`` is either the full (n, n, *grid) block layout or, for scalar
    coefficients, just the grid-shaped array; ``dimension`` is the grid
    dimension n.  The ellipticity constants are those of the coefficients
    over the cells: ``lam`` is the least eigenvalue of the Hermitian part of
    A, so Re <A xi, xi> >= lam |xi|^2, and ``big_lam`` the largest singular
    value, so |<A xi, zeta>| <= big_lam |xi| |zeta|.  Coefficients with
    lam <= 0 are not elliptic and raise DataError.

    All of it is computed here.  Constant coefficients get the Fourier
    multiplier ``symbol`` = 4 pi^2 k.Ak.  Variable ones get the flux-form
    stencil, L u(x) = sum_o b_o(x) u(x + o) with one coefficient array b_o
    per offset o (_assemble; they sum to zero, so L annihilates constants),
    as the rows of ``weights`` and the flat cell indices ``neighbours`` of
    x + o; the ``shifts`` gamma_j of the Krylov backend and its dimension
    ``krylov_dim``; and the inner solve with I + gamma_j L for each shift: in
    1-D the cyclic ``reductions`` of that periodic tridiagonal matrix, in
    higher dimensions the FFT ``preconditioners`` 1 / (1 + gamma_j sigma),
    sigma the symbol of the same stencil at the mean coefficient.
    """

    def __init__(self, coeffs: np.ndarray, dimension: int):
        a = np.asarray(coeffs)
        if a.ndim == dimension:  # scalar shorthand: A = a(x) I
            a = np.multiply.outer(np.eye(dimension), a)
        if a.shape[:2] != (dimension, dimension):
            raise ParameterError(f"coefficients need an {dimension}x{dimension} block layout, got {a.shape}")
        self.coeffs = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
        self.dimension = n = dimension
        self.resolution = m = self.coeffs.shape[-1]
        self.h = 1.0 / m
        self.is_complex = np.iscomplexobj(self.coeffs)
        flat = self.coeffs.reshape(n, n, -1)
        self.is_constant = bool(np.all(flat == flat[:, :, :1]))
        cells = np.moveaxis(flat, -1, 0)
        hermitian = 0.5 * (cells + np.conj(np.swapaxes(cells, 1, 2)))
        self.lam = float(np.min(np.linalg.eigvalsh(hermitian)))
        self.big_lam = float(np.max(np.linalg.svd(cells, compute_uv=False)))
        if self.lam <= 0:
            raise DataError(f"coefficients are not elliptic: the Hermitian part of A has least eigenvalue {self.lam:g}")
        if self.is_constant:
            grids = np.meshgrid(*([np.fft.fftfreq(m, d=1.0 / m)] * n), indexing="ij")
            mu = np.zeros((m,) * n, dtype=np.complex128)
            for i, j in np.ndindex(n, n):
                mu = mu + flat[i, j, 0] * grids[i] * grids[j]
            self.symbol = 4.0 * np.pi ** 2 * mu
            return
        bands = _assemble(self.coeffs, self.h)
        if np.max(np.abs(sum(bands.values()))) > 1e-11 * self.big_lam / self.h ** 2:
            raise NumericError("stencil does not annihilate constants")
        index = np.arange(m ** n).reshape((m,) * n)
        self.neighbours = np.stack([np.roll(index, [-x for x in o], axis=tuple(range(n))).ravel() for o in bands])
        self.weights = np.stack([band.ravel() for band in bands.values()])
        self.shifts = _shifts(m)
        self.krylov_dim = _STEPS_PER_SHIFT * (len(self.shifts) + 1) + _CHECK_GAP
        if n == 1:
            self.reductions = [_cyclic_reduction(g * bands[(-1,)], 1.0 + g * bands[(0,)], g * bands[(1,)])
                               for g in self.shifts]
        else:
            # the symbol of the stencil at the mean coefficient, at theta = 2 pi k / m:
            # sum_i a_ii 4 sin^2(theta_i / 2) / h^2 + sum_{i != j} a_ij sin theta_i sin theta_j / h^2
            theta = 2.0 * np.pi * np.fft.fftfreq(m)
            half = np.meshgrid(*([2.0 * np.sin(theta / 2.0) / self.h] * n), indexing="ij")
            full = np.meshgrid(*([np.sin(theta) / self.h] * n), indexing="ij")
            mean = flat.mean(axis=-1)
            sigma = sum(mean[i, j] * (half[i] ** 2 if i == j else full[i] * full[j]) for i, j in np.ndindex(n, n))
            self.preconditioners = [1.0 / (1.0 + g * sigma) for g in self.shifts]

    def apply(self, f: Field) -> Field:
        """L f via the operator's own generator (spectral or stencil)."""
        if self.is_constant:
            return _fourier_apply(self, self.symbol, f)
        out = _stencil_apply(self, f.values)
        return Field(out if (self.is_complex or f.is_complex) else out.real)


def _assemble(coeffs: np.ndarray, h: float) -> dict:
    """The stencil -(sum_i D-_i a_i D+_i + sum_{i != j} D0_i A_ij D0_j), a_i the mean
    of A_ii on the face after a cell along axis i: the sum as one coefficient
    array per offset o (the entry of row x at column x + o, periodic), each
    entry rounded as the product of the difference matrices rounds it, then
    negated."""
    n = coeffs.shape[0]
    inv, half = 1.0 / h, 1.0 / (2 * h)
    bands: dict = {}

    def add(*terms):
        for offset, band in terms:
            o = tuple(offset)
            bands[o] = bands[o] + band if o in bands else band

    unit = np.eye(n, dtype=int)
    for i, ei in enumerate(unit):
        face = 0.5 * (coeffs[i, i] + np.roll(coeffs[i, i], -1, axis=i))
        g = face * inv * inv  # the sum's entry at x + e_i; rolled, at x - e_i
        g_back = np.roll(g, 1, axis=i)
        add((0 * ei, -g - g_back), (ei, g), (-ei, g_back))
        for j, ej in enumerate(unit):
            if j != i:
                k = coeffs[i, j] * half * half
                k_fwd, k_back = np.roll(k, -1, axis=i), np.roll(k, 1, axis=i)
                add((ei + ej, k_fwd), (ei - ej, -k_fwd), (ej - ei, -k_back), (-ei - ej, k_back))
    return {o: -band for o, band in bands.items()}


def _stencil_apply(op: EllipticOperator, u: np.ndarray) -> np.ndarray:
    """L u on the stencil: at each cell x the sum over the offsets o, in the
    order of _assemble, of b_o(x) u(x + o), gathered through the flat cell
    indices ``neighbours`` of x + o."""
    return (op.weights * u.ravel()[op.neighbours]).sum(axis=0).reshape(u.shape)


# ---------------------------------------------------------------------------
# Semigroup evaluation
# ---------------------------------------------------------------------------


def _fourier_apply(op: EllipticOperator, multiplier: np.ndarray, f: Field) -> Field:
    """The Fourier multiplier applied to f; real when op and f are real."""
    out = np.fft.ifftn(multiplier * np.fft.fftn(f.values))
    return Field(out if (op.is_complex or f.is_complex) else out.real)


def semigroup_apply(op: EllipticOperator, times: Sequence[float],
                    fields: Sequence[Field]) -> list[list[Field]]:
    """e^{-tL} g for every time t and field g, ``out[i][j]`` for time i and field j:
    the exact multiplier when A is constant, and the rational Krylov backend
    (_krylov_apply) on the stencil.  There every time of the call reads one
    basis per field, built with the operator's fixed shifts, so a time's
    result does not depend on the other times or fields of the call.
    """
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise ParameterError(f"time must be nonnegative, got {t}")
    if not fields:
        raise ParameterError("need at least one field")
    if not times:
        return []
    if op.is_constant:
        return [[_fourier_apply(op, np.exp(-t * op.symbol), g) for g in fields] for t in times]
    return _krylov_apply(op, fields, lambda small: [e[:, 0] for e in _expm(-small, times)], len(times))


def _time_average_multiplier(lam: np.ndarray, s: float, big_n: int) -> np.ndarray:
    """((1 - e^{-s lam}) / (s lam))^N, equal to 1 at lam = 0."""
    w = s * np.asarray(lam)
    safe = np.where(w == 0, 1.0, w)
    return np.where(w == 0, 1.0, -np.expm1(-safe) / safe) ** big_n


def u_s_apply(op: EllipticOperator, s: float, big_n: int, f: Field) -> Field:
    """U_s f = M_s(L)^N f, M_s(L) = (1/s) int_0^s e^{-lambda L} d lambda.

    M_s has the closed form (1 - e^{-sL}) / (sL), applied to the Fourier
    symbol when A is constant.  On the stencil the Krylov backend
    (_krylov_apply) takes M_s(L_k)^N e_1 of its projected generator L_k, with
    M_s(L_k) = int_0^1 e^{-s u L_k} du the top-right block of the exponential
    of [[-s L_k, I], [0, 0]] (Van Loan, IEEE Trans. Automat. Control 23, 1978).
    """
    if s <= 0:
        raise ParameterError("s must be positive")
    if big_n < 1:
        raise ParameterError("N must be >= 1")
    if op.is_constant:
        return _fourier_apply(op, _time_average_multiplier(op.symbol, s, big_n), f)

    def column(small):
        k = small.shape[0]
        block = np.zeros((2 * k, 2 * k), dtype=small.dtype)
        block[:k, :k] = -s * small
        block[:k, k:] = np.eye(k)
        average, out = _expm(block)[0][:k, k:], np.eye(k, 1, dtype=small.dtype)[:, 0]
        for _ in range(big_n):
            out = average @ out
        return [out]

    return _krylov_apply(op, [f], column, 1)[0][0]


# The shifts gamma_j of the rational Krylov space, cycled through its steps:
# _SHIFT / _SHIFT_RATIO^j down to the first at most h^2, the finest side's time.
# One shift serves times from about gamma / 3 up to where e^{-t lambda} has
# decayed; with _SHIFT alone, times near h^2 lose up to 2e-2 of a rough field
# at m = 1024.
_SHIFT = 3e-3
_SHIFT_RATIO = 16.0
# The dimension k of a basis is _STEPS_PER_SHIFT steps per shift, and as many
# again and _CHECK_GAP more; the a-posteriori check compares phi(L_k) e_1
# with phi(L_{k - _CHECK_GAP}) e_1 from the leading block of the same basis,
# in the 2-norm relative to ||g - mean(g)||.  That difference is about the
# error of the shorter basis; the k steps have been 10 to 100 times closer
# wherever measured, so a white-noise field at 1-D m = 1024 and t = h^2
# passes with a gap of 8e-8 and an error of 6e-10.
_STEPS_PER_SHIFT = 10
_CHECK_GAP = 10
_CHECK_TOL = 1e-6
# A basis stops early, on an invariant subspace, when Gram-Schmidt leaves at
# most this fraction of the new vector.
_BREAKDOWN = 1e-12
# The inner GMRES in 2-D and above: relative residual and iteration cap.  The
# FFT preconditioner holds the count near 20-30 for moderate contrast; a(x) in
# [0.01, 1.99] takes 119 steps at m = 64 and 171 at m = 128.
_INNER_TOL = 1e-13
_INNER_MAXIT = 300


def _shifts(m: int) -> tuple:
    out = [_SHIFT]
    while out[-1] > 1.0 / (m * m):
        out.append(out[-1] / _SHIFT_RATIO)
    return tuple(out)


def _krylov_apply(op: EllipticOperator, fields: Sequence[Field], columns, count: int) -> list:
    """phi_i(L) g for the ``count`` functions phi_i and every g in ``fields``,
    ``out[i][j]`` for function i and field j, by the rational Krylov method
    with the shifts of _shifts (Moret & Novati, BIT 44, 2004; van den Eshof &
    Hochbruck, SIAM J. Sci. Comput. 27, 2006).  ``columns`` maps the small
    matrix L_k to the list of vectors phi_i(L_k) e_1.

    L annihilates constants and conserves the mean (the stencil is in flux
    form), so phi(L) g = mean(g) + phi(L) g_0 for g_0 = g - mean(g), and
    phi(L) g_0 ~ ||g_0|| V_k phi(L_k) e_1 on the basis V_k of _arnoldi.  The
    mean of that part is then removed, so the output's mean is exactly
    mean(g).  A g_0 that vanishes, or a basis that breaks down early, spans
    an invariant subspace; any other result must agree with the same formula
    on the leading k - _CHECK_GAP vectors of its basis, or NumericError.
    A result is real when L and its field are.
    """
    shape = fields[0].values.shape
    dtype = np.result_type(np.float64, op.weights, *(g.values for g in fields))
    means = [np.mean(g.values) for g in fields]
    bases = _arnoldi(op, [(g.values - mean).astype(dtype).ravel() for g, mean in zip(fields, means)], shape)
    out = [[None] * len(fields) for _ in range(count)]
    for j, (g, mean, (beta, basis, hess, exact)) in enumerate(zip(fields, means, bases)):
        dim = len(basis)
        coefs = columns(_projected(hess[:dim, :dim], op.shifts)) if dim else [None] * count
        if not exact:
            cut = dim - _CHECK_GAP
            gap = max(float(np.linalg.norm(np.concatenate([c[:cut] - d, c[cut:]])))
                      for c, d in zip(coefs, columns(_projected(hess[:cut, :cut], op.shifts))))
            if gap > _CHECK_TOL:
                raise NumericError(f"Krylov dimensions {dim} and {cut} differ by {gap:.3g} relative to the field, "
                                   f"above {_CHECK_TOL:g}")
        for i, c in enumerate(coefs):
            if c is None:  # g is constant
                values = np.full(shape, mean, dtype)
            else:
                part = beta * (c @ basis)
                values = (mean + (part - np.mean(part))).reshape(shape)
            out[i][j] = Field(values if (op.is_complex or g.is_complex) else values.real)
    return out


def _arnoldi(op: EllipticOperator, starts: Sequence[np.ndarray], shape: tuple) -> list:
    """(||g||, V, H, exact) for each flattened start vector g: the rational
    Arnoldi basis V of g, its dim vectors as rows, step j solving with
    I + gamma_j L, and the Hessenberg H of those steps, whose leading dim x dim
    block the projection reads, with classical Gram-Schmidt run twice.
    ``exact`` when the basis stopped on an invariant subspace (g = 0 or a
    breakdown) before the operator's ``krylov_dim``.  The solves of a step
    run on the block of all growing bases (_shifted_solve), column by column
    the same operations as for that start alone, so batching does not change
    a bit."""
    k = op.krylov_dim
    betas = [float(np.linalg.norm(g)) for g in starts]
    bases = [np.empty((k + 1, g.size), dtype=g.dtype) for g in starts]
    hess = [np.zeros((k + 1, k), dtype=g.dtype) for g in starts]
    dims = [None if beta > 0 else 0 for beta in betas]  # None while the basis grows
    for basis, g, beta in zip(bases, starts, betas):
        if beta > 0:
            basis[0] = g / beta
    for step in range(k):
        growing = [j for j, dim in enumerate(dims) if dim is None]
        if not growing:
            break
        block = np.stack([bases[j][step] for j in growing]).reshape((-1,) + shape)
        for j, w in zip(growing, _shifted_solve(op, step % len(op.shifts), block).reshape(len(growing), -1)):
            before = np.linalg.norm(w)
            w, h = _cgs2(bases[j][: step + 1], w)
            norm = np.linalg.norm(w)
            hess[j][: step + 1, step], hess[j][step + 1, step] = h, norm
            if norm <= _BREAKDOWN * before:
                dims[j] = step + 1
            else:
                bases[j][step + 1] = w / norm
    return [(beta, basis[: k if dim is None else dim], h, dim is not None)
            for beta, basis, h, dim in zip(betas, bases, hess, dims)]


def _cgs2(basis: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """w made orthogonal to the orthonormal rows of ``basis`` by classical
    Gram-Schmidt run twice, and the coefficients it took off."""
    h = np.conj(basis @ np.conj(w))
    w = w - h @ basis
    again = np.conj(basis @ np.conj(w))
    return w - again @ basis, h + again


def _projected(hess: np.ndarray, shifts: tuple) -> np.ndarray:
    """The projected generator L_k = (I - H_k) (H_k G_k)^{-1} of the k x k
    Hessenberg H_k, G_k = diag(gamma_j) the shifts of the steps; for a single
    shift gamma this is (H_k^{-1} - I) / gamma.  It follows from
    (I + gamma_j L)^{-1} v_j = V h_j, that is gamma_j L V h_j = V (e_j - h_j)."""
    k = hess.shape[0]
    gammas = np.array([shifts[j % len(shifts)] for j in range(k)])
    return (np.eye(k) - hess) @ (np.linalg.inv(hess) / gammas[:, None])


# Coefficients b_0..b_13 of the degree-13 Pade approximant of e^x, and the
# 1-norm up to which it is accurate to double precision without scaling.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
           129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
           40840800.0, 960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray, times: Sequence[float] = (1.0,)) -> list[np.ndarray]:
    """e^{t a} of a small dense matrix for every t of ``times``, by degree-13
    Pade scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005):
    the [13/13] approximant of t a / 2^s, with 1-norm at most theta_13,
    squared s times.  Times with the same t / 2^s (a ladder t, 4t, 16t, ...)
    share the approximant and its squarings, the operations each takes alone."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    chains: dict = {}  # t / 2^s -> the approximant and its squarings so far
    out = []
    for t in times:
        s = max(0, math.ceil(math.log2(t * norm / _THETA13))) if t * norm > 0 else 0
        tau = t / 2.0 ** s
        if tau not in chains:
            chains[tau] = [_pade13(tau * a)]
        chain = chains[tau]
        while len(chain) <= s:
            chain.append(chain[-1] @ chain[-1])
        out.append(chain[s])
    return out


def _pade13(a: np.ndarray) -> np.ndarray:
    """The [13/13] Pade approximant of e^a."""
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident
    return np.linalg.solve(v - u, v + u)


def _shifted_solve(op: EllipticOperator, j: int, block: np.ndarray) -> np.ndarray:
    """(I + gamma_j L)^{-1} on each field of ``block`` (leading axis): the exact
    cyclic reduction in 1-D, preconditioned GMRES per field otherwise."""
    if op.dimension == 1:
        return _cyclic_solve(op.reductions[j], block)
    return np.stack([_gmres(op, j, b)[0] for b in block])


def _cyclic_reduction(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray) -> tuple:
    """The levels of periodic cyclic reduction for sub_i x_{i-1} + diag_i x_i +
    sup_i x_{i+1} = r_i, i modulo a power of two m.

    Each level eliminates the odd unknowns from the even equations, halving
    the system, down to two unknowns, each the other's neighbour on both
    sides (one unknown when m = 1).  A level keeps the multipliers of that
    elimination and the odd rows.
    """
    m = len(diag)
    if m & (m - 1):
        raise ParameterError(f"cyclic reduction needs a power-of-two resolution, got {m}")
    levels = []
    while len(diag) > 2:
        lo, do, uo = sub[1::2], diag[1::2], sup[1::2]
        left, right = -sub[0::2] / _prev(do), -sup[0::2] / do
        levels.append((left, right, lo, do, uo))
        sub, sup, diag = left * _prev(lo), right * uo, diag[0::2] + left * _prev(uo) + right * lo
    couple = sub + sup
    if m == 1:
        return levels, (diag + couple,)
    return levels, (diag, couple, diag[0] * diag[1] - couple[0] * couple[1])


def _prev(x: np.ndarray) -> np.ndarray:
    """x at index i - 1 along the last axis, periodic."""
    return np.concatenate((x[..., -1:], x[..., :-1]), axis=-1)


def _next(x: np.ndarray) -> np.ndarray:
    """x at index i + 1 along the last axis, periodic."""
    return np.concatenate((x[..., 1:], x[..., :1]), axis=-1)


def _cyclic_solve(reduction: tuple, rhs: np.ndarray) -> np.ndarray:
    """The solution for each row of ``rhs`` (axis 0), elementwise across rows,
    so a row sees the same operations alone as in a block, the last 2 x 2
    solve included (Cramer's rule, not a LAPACK call)."""
    levels, last = reduction
    r, kept = rhs, []
    for left, right, _lo, _do, _uo in levels:
        odd = r[:, 1::2]
        kept.append(odd)
        r = r[:, 0::2] + left * _prev(odd) + right * odd
    if len(last) == 1:
        x = r / last[0]
    else:
        diag, couple, det = last
        x = np.empty(r.shape, dtype=np.result_type(r, det))
        x[:, 0] = (diag[1] * r[:, 0] - couple[0] * r[:, 1]) / det
        x[:, 1] = (diag[0] * r[:, 1] - couple[1] * r[:, 0]) / det
    for (_left, _right, lo, do, uo), odd in zip(reversed(levels), reversed(kept)):
        full = np.empty((len(x), 2 * x.shape[1]), dtype=x.dtype)
        full[:, 0::2] = x
        full[:, 1::2] = (odd - lo * x - uo * _next(x)) / do
        x = full
    return x


def _gmres(op: EllipticOperator, shift: int, b: np.ndarray) -> tuple[np.ndarray, int]:
    """(x, iterations) with (I + gamma L) x = b for one grid-shaped b, gamma the
    operator's shift number ``shift``, by GMRES right-preconditioned with the
    FFT inverse of I + gamma L-bar (L-bar the stencil at the mean
    coefficient, spectrally equivalent to L by ellipticity): classical
    Gram-Schmidt run twice, Givens rotations, no restart, until the residual
    is at most _INNER_TOL ||b||, or NumericError after _INNER_MAXIT steps."""
    real = not (op.is_complex or np.iscomplexobj(b))
    gamma, inverse = op.shifts[shift], op.preconditioners[shift]
    if real:  # the symbol is then real and even: a real transform serves
        half = inverse[..., : b.shape[-1] // 2 + 1]

        def precondition(v):
            return np.fft.irfftn(half * np.fft.rfftn(v), s=v.shape, axes=range(v.ndim))
    else:
        def precondition(v):
            return np.fft.ifftn(inverse * np.fft.fftn(v))

    beta = float(np.linalg.norm(b))
    basis = np.empty((32, b.size), dtype=np.float64 if real else np.complex128)
    if beta == 0:
        return np.zeros(b.shape, dtype=basis.dtype), 0
    basis[0] = b.ravel() / beta
    rhs = np.zeros(_INNER_MAXIT + 1, dtype=basis.dtype)
    rhs[0] = beta
    rotations, cols = [], []  # cols[j]: column j of the rotated triangle
    for j in range(_INNER_MAXIT):
        z = precondition(basis[j].reshape(b.shape))
        w, col = _cgs2(basis[: j + 1], (z + gamma * _stencil_apply(op, z)).ravel())
        norm = float(np.linalg.norm(w))
        col = col.tolist()
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s.conjugate() * col[i]
        top = col[j]
        radius = math.hypot(abs(top), norm)
        c, s = (abs(top) / radius, top / abs(top) * norm / radius) if top != 0 else (0.0, 1.0)
        col[j] = c * top + s * norm
        rotations.append((c, s))
        rhs[j + 1], rhs[j] = -s.conjugate() * rhs[j], c * rhs[j]
        cols.append(col)
        if abs(rhs[j + 1]) <= _INNER_TOL * beta or norm == 0:
            tri = np.zeros((j + 1, j + 1), dtype=basis.dtype)
            for i, col in enumerate(cols):
                tri[: i + 1, i] = col
            y = np.linalg.solve(tri, rhs[: j + 1])
            return precondition((y @ basis[: j + 1]).reshape(b.shape)), j + 1
        if j + 1 == len(basis):  # double the rows, up to the _INNER_MAXIT + 1 the steps can fill
            basis = np.concatenate([basis, np.empty((min(len(basis), _INNER_MAXIT + 1 - len(basis)), b.size),
                                                    dtype=basis.dtype)])
        basis[j + 1] = w / norm
    raise NumericError(f"GMRES did not reach a relative residual of {_INNER_TOL:g} in {_INNER_MAXIT} steps")


# ---------------------------------------------------------------------------
# Oscillation families
# ---------------------------------------------------------------------------

FAMILY_KINDS = ("classical-average", "extended-average", "semigroup")


@dataclass
class OffDiagonalProfile:
    """Measured decay entries alpha_k, beta_k with an exponential fit in 4^k."""

    alpha: dict
    beta: Optional[dict]
    exponents: tuple[float, float]
    probe_spec: dict
    fit: dict = dc_field(default_factory=lambda: {"log_c": math.nan, "rate": math.nan, "residual": math.nan})

    def alpha_at(self, k: int) -> float:
        return float(self.alpha.get(k, 0.0))

    def beta_at(self, k: int) -> float:
        return float((self.beta or {}).get(k, 0.0))

    def fit_decay(self, ks: Sequence[int]) -> tuple[float, float, float]:
        """Least squares of log alpha_k against 4^k, kept in ``fit``; residual
        is normalized by the spread of the log data."""
        xs, ys = [], []
        for k in ks:
            a = self.alpha_at(k)
            if a > 0 and math.isfinite(a):
                xs.append(4.0 ** k)
                ys.append(math.log(a))
        if len(xs) < 2:
            raise ParameterError("need at least two positive alpha entries to fit")
        x = np.array(xs)
        y = np.array(ys)
        amat = np.stack([np.ones_like(x), -x], axis=1)
        sol, *_ = np.linalg.lstsq(amat, y, rcond=None)
        log_c, rate = float(sol[0]), float(sol[1])
        pred = amat @ sol
        spread = float(y.max() - y.min()) or 1.0
        residual = float(np.max(np.abs(pred - y))) / spread
        self.fit = {"log_c": log_c, "rate": rate, "residual": residual}
        return log_c, rate, residual


@dataclass
class OscillationFamily:
    """A family (B_Q)_Q with companion A_Q = I - B_Q and exponent window."""

    kind: str
    p0: float
    q0: float
    operator: Optional[EllipticOperator] = None
    big_n: int = 1

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ParameterError(f"unknown family kind {self.kind!r}")
        if not (1.0 <= self.p0 <= self.q0):
            raise ParameterError("need 1 <= p0 <= q0")
        if self.kind == "semigroup":
            if self.operator is None:
                raise ParameterError("semigroup family requires an elliptic operator")
            if self.big_n < 1:
                raise ParameterError("semigroup family requires N >= 1")

    # structural flags used by the theorem harnesses
    @property
    def is_local(self) -> bool:
        return self.kind in ("classical-average", "extended-average")

    @property
    def has_replace_comm(self) -> bool:
        return self.kind == "extended-average"

    @property
    def sidelength_only(self) -> bool:
        return self.kind == "semigroup"

    def apply_B(self, f: Field, q: Cube) -> Field:
        if self.sidelength_only:
            return self.apply_B_scale(f, q.side)
        m = f.resolution
        avg = f.restrict(q).mean()
        out = f.values.copy()
        out[(dilate(q, 2.0, m).cube if self.has_replace_comm else q).index(m)] -= avg
        return Field(out)

    def apply_A(self, f: Field, q: Cube) -> Field:
        return Field(f.values - self.apply_B(f, q).values)

    def apply_B_scale(self, f: Field, side: float) -> Field:
        """B at a given sidelength for families depending only on the scale."""
        return self.apply_B_scales([side], [f])[0][0]

    def apply_B_scales(self, sides: Sequence[float], fields: Sequence[Field]) -> list[list[Field]]:
        """B at every sidelength on every field, ``out[i][j]`` for side i and field j.

        The first factor I - e^{-l^2 L} of (I - e^{-l^2 L})^N is one
        semigroup_apply call over all sides and fields; each further factor
        is one call per side, on that side's fields.
        """
        if not self.sidelength_only:
            raise ParameterError("family depends on cube position, not only its scale")
        times = [side ** 2 for side in sides]
        g = [list(fields)] * len(times)
        for k in range(self.big_n):
            heat = semigroup_apply(self.operator, times, fields) if k == 0 else [
                semigroup_apply(self.operator, [t], gi)[0] for t, gi in zip(times, g)]
            g = [[Field(a.values - e.values) for a, e in zip(gi, hi)] for gi, hi in zip(g, heat)]
        return g


def make_family(
    kind: str,
    exponents: tuple[float, float],
    operator: Optional[EllipticOperator] = None,
    big_n: Optional[int] = None,
) -> OscillationFamily:
    return OscillationFamily(
        kind=kind,
        p0=float(exponents[0]),
        q0=float(exponents[1]),
        operator=operator,
        big_n=1 if big_n is None else int(big_n),
    )


# ---------------------------------------------------------------------------
# Off-diagonal profiling
# ---------------------------------------------------------------------------


def _masked_field(base: Field, q: Cube) -> Field:
    """``base`` on the cells of q, zero elsewhere."""
    return Field(np.where(q.mask(base.resolution), base.values, 0.0))


def _annulus_fields(base_probes: Sequence[Field], outer: Cube, inner: Cube, m: int) -> list[Field]:
    """The indicator of outer minus inner and each probe restricted to it, without repeats."""
    mask = outer.mask(m) & ~inner.mask(m)
    if not mask.any():
        return []
    out = [Field(mask.astype(float))]
    for p in base_probes:
        vals = np.where(mask, p.values, 0.0)
        if np.any(vals != 0) and not any(np.array_equal(vals, o.values) for o in out):
            out.append(Field(vals))
    return out


def measure_offdiagonal(
    family: OscillationFamily,
    probes: Sequence[Field],
    cube_sample: Sequence[Cube],
    k_max: int,
    pair_levels: int,
) -> OffDiagonalProfile:
    """Empirical decay entries for the family on annulus-supported probes.

    alpha_2 comes from the on-diagonal comparison (for local families the
    tight variant with the average over Q itself on the right-hand side);
    alpha_K for K >= 3 takes, over every target shell index j <= K - 2, the
    worst ratio of the output norm on 2^j Q against the input average on
    2^K Q for probes supported in the shell 2^K Q minus 2^{K-1} Q.  beta_K
    measures the lower-scale comparison on nested pairs R of whole cells
    inside Q.  Entries at dilations that saturate the torus are skipped.
    """
    if not probes:
        raise ParameterError("probe list must be nonempty")
    if not cube_sample:
        raise ParameterError("cube sample must be nonempty")
    p0, q0 = family.p0, family.q0
    m = probes[0].resolution
    alpha: dict[int, float] = {}
    beta: dict[int, float] = {}

    def bump(table: dict, k: int, value: float) -> None:
        table[k] = max(table.get(k, 0.0), value)

    for q in cube_sample:
        two_q = dilate(q, 2.0, m)
        # shells[k]: (A_Q p, L^p0 average of p on 2^k Q) for the nonzero sources p:
        # the probes on 4Q (k = 2) and the annulus fields of 2^k Q minus 2^{k-1} Q
        # (k >= 3), up to the first saturated dilate; alpha and beta both read them
        shells = {}
        for k in range(2, k_max + 1):
            outer = dilate(q, 2.0 ** k, m)
            if outer.saturated:
                break
            if k == 2:
                sources = [_masked_field(p, outer.cube) for p in probes]
            else:
                sources = _annulus_fields(probes, outer.cube, dilate(q, 2.0 ** (k - 1), m).cube, m)
            shells[k] = [(family.apply_A(p, q), lp_average(p, outer.cube, p0))
                         for p in sources if np.any(p.values)]
        # on-diagonal entry: local families take the probes on 2Q against their
        # average over Q itself, the others read shell 2
        on_diagonal = shells.get(2, [])
        if family.is_local:
            masked = [_masked_field(p, two_q.cube) for p in probes]
            on_diagonal = [(family.apply_A(p, q), lp_average(p, q, p0)) for p in masked]
        for ap, rhs in on_diagonal:
            lhs = lp_average(ap, two_q.cube, q0)
            if rhs > 0:
                bump(alpha, 2, lhs / rhs)
        # far-field entries; a local family's A_Q vanishes on sources off 2Q
        for k in range(3, max(shells, default=2) + 1):
            for j in range(1, k - 1):
                target = dilate(q, 2.0 ** j, m).cube
                for ap, rhs in shells[k]:
                    lhs = lp_average(ap, target, q0) if np.any(ap.values) else 0.0
                    if rhs > 0:
                        bump(alpha, k, lhs / rhs)
        # lower-scale entries on nested pairs
        for level in range(1, pair_levels + 1):
            if q.cells_per_axis(m) % 2 ** level:  # R would leave the cell lattice
                break
            r = descendant(q, level, (0,) * q.dimension)
            two_r = dilate(r, 2.0, m)
            for k, shell in shells.items():
                for ap, rhs in shell:
                    zero = not np.any(ap.values)  # and so is B_R of it
                    lhs = 0.0 if zero else lp_average(family.apply_B(ap, r), two_r.cube, q0)
                    if rhs > 0:
                        bump(beta, k, lhs / rhs)

    spec = {
        "probes": len(probes),
        "cubes": len(cube_sample),
        "k_max": k_max,
        "kind": family.kind,
        "dimension": probes[0].dimension,
    }
    return OffDiagonalProfile(
        alpha=alpha,
        beta=beta if beta else None,
        exponents=(p0, q0),
        probe_spec=spec,
    )


# ---------------------------------------------------------------------------
# Structural audit
# ---------------------------------------------------------------------------


@dataclass
class AuditReport:
    commutator: float
    uniform_bound: float
    localization: bool
    replace_comm: bool


def audit_family(
    family: OscillationFamily,
    probes: Sequence[Field],
    cube_pairs: Sequence[tuple[Cube, Cube]],
) -> AuditReport:
    """Measure commutators, the uniform L^{p0} bound, and the two structural flags.

    ``cube_pairs`` holds nested pairs (R, Q) with R inside Q.  The
    localization flag checks A_Q f = chi_{2Q} A_Q(f chi_{2Q}); replace-comm
    checks A_R A_Q f = A_Q f on 2R.
    """
    if not probes or not cube_pairs:
        raise ParameterError("need at least one probe and one cube pair")
    m = probes[0].resolution
    torus = probes[0].torus()
    p0 = family.p0
    comm = 0.0
    bound = 0.0
    loc_defect = 0.0
    rc_defect = 0.0
    for r, q in cube_pairs:
        for f in probes:
            scale = lp_average(f, torus, p0) + 1e-300
            bq = family.apply_B(f, q)
            bound = max(bound, lp_average(bq, torus, p0) / scale)
            br_bq = family.apply_B(bq, r)
            bq_br = family.apply_B(family.apply_B(f, r), q)
            comm = max(comm, lp_average(Field(br_bq.values - bq_br.values), torus, p0) / scale)
            aq = Field(f.values - bq.values)
            # localization
            two_q = dilate(q, 2.0, m).cube
            localized = _masked_field(family.apply_A(_masked_field(f, two_q), q), two_q)
            loc_defect = max(loc_defect, float(np.max(np.abs(aq.values - localized.values))))
            # replacement identity on 2R
            ar_aq = family.apply_A(aq, r)
            ixr = dilate(r, 2.0, m).cube.index(m)
            rc_defect = max(rc_defect, float(np.max(np.abs(ar_aq.values[ixr] - aq.values[ixr]))))
    # an identity holds when its defect is below 1e-8 of the largest probe value
    tol = 1e-8 * (max(float(np.max(np.abs(p.values))) for p in probes) + 1e-300)
    return AuditReport(
        commutator=comm,
        uniform_bound=bound,
        localization=loc_defect <= tol,
        replace_comm=rc_defect <= tol,
    )


# ---------------------------------------------------------------------------
# Sharp maximal function
# ---------------------------------------------------------------------------


# Anchored windows are gathered in blocks of at most this many samples (or one
# window, when a single window is larger), so memory stays bounded instead of
# growing as m^n c^n with the scale.  A block of 256 kB leaves room for the
# moment arrays that sharp_maximal holds across the window pass.
_WINDOW_BLOCK = 1 << 15


def _anchored_deviations(f: Field, c: int):
    """Yield (anchor index, |f - f_Q|) for blocks of anchored c-cell windows Q.

    The deviations of one window form one contiguous row, so a row mean is
    the same pairwise sum as the mean over that window alone.
    """
    vals = f.values
    n, m = f.dimension, f.resolution
    size = c ** n
    windows = sliding_window_view(np.pad(vals, [(0, c - 1)] * n, mode="wrap"), (c,) * n)
    rows = max(1, _WINDOW_BLOCK // size)
    for lead in np.ndindex(*(m,) * (n - 1)):
        for a in range(0, m, rows):
            ix = lead + (slice(a, a + rows),)
            win = np.array(windows[ix]).reshape(-1, size)
            win -= win.mean(axis=1, keepdims=True)
            yield ix, np.abs(win) if f.is_complex else np.abs(win, out=win)


# exponent p -> index of the p-th central moment in sliding_central_moments
_MOMENT_OF = {2.0: 1, 4.0: 3}


def sharp_maximal(
    family: OscillationFamily,
    fields: Sequence[Field],
    ps: Sequence[float],
    alpha: float = 0.0,
) -> list[list[Field]]:
    """Pointwise sup over admissible cubes of |Q|^{-alpha/n} (mean_Q |B_Q f|^p)^{1/p},
    ``out[j][k]`` for field j of ``fields`` (of one grid) and exponent k of ``ps``.

    Admissible cubes are those of the restricted maximal-function family.
    With alpha = 0 the sup-norm of the result is the oscillation BMO seminorm
    of f for this family; positive alpha gives the Lipschitz-scale variant.

    One sweep over the scales serves every field and exponent: each B_Q f
    (or window deviation) is computed once and raised to every exponent, a
    scale-only family gets the B fields of every scale and field from
    apply_B_scales, and the statistics of all fields go to one
    scale_sweep_max on a leading axis.

    For a positional family, B_Q f on Q is f - f_Q.  At p = 2 and p = 4 of a
    real field the mean is then the central moment M2 or M4 of f on Q, read
    for every anchored window of every scale from sliding_central_moments in
    O(m^n) per scale; complex fields and every other p take the windows,
    O(m^n c^n) per scale.
    """
    ps = [float(x) for x in ps]
    for x in ps:
        if not (family.p0 <= x and (x < family.q0 or x == family.p0)):
            raise ParameterError(f"p={x} outside [{family.p0}, {family.q0})")
    if not fields:
        raise ParameterError("need at least one field")
    m, n = fields[0].resolution, fields[0].dimension
    cs = [2 ** k for k in range(m.bit_length())]
    b = family.apply_B_scales([c / m for c in cs], fields) if family.sidelength_only else None
    # positional family: p = 2 and p = 4 of a real field are its central moments
    real = [j for j, g in enumerate(fields) if not g.is_complex]
    by_moment = [(k, _MOMENT_OF[x]) for k, x in enumerate(ps) if x in _MOMENT_OF]
    moments = None
    if b is None and real and by_moment:
        moments = sliding_central_moments(np.stack([fields[j].values for j in real]), n)
    windowed = [[(k, x) for k, x in enumerate(ps) if g.is_complex or x not in _MOMENT_OF] for g in fields]

    def scales():
        for i, c in enumerate(cs):
            side = c / m
            weight = side ** (-alpha) if alpha else 1.0
            if b is not None:
                dev = np.abs(np.stack([g.values for g in b[i]]))
                b[i] = None
                stat = sliding_cube_means(np.stack([np.power(dev, x) for x in ps], axis=1), c, n)
            else:
                stat = np.empty((len(fields), len(ps)) + fields[0].values.shape)
                if moments is not None:
                    _, mom = next(moments)
                    for k, r in by_moment:
                        stat[real, k] = mom[r]
                for j, g in enumerate(fields):
                    if not windowed[j]:
                        continue
                    for ix, dev in _anchored_deviations(g, c):
                        for k, x in windowed[j]:
                            stat[(j, k) + ix] = (dev if x == 1.0 else np.power(dev, x)).mean(axis=1)
            for k, x in enumerate(ps):
                stat[:, k] = weight * np.power(stat[:, k], 1.0 / x)
            yield c, stat

    return [[Field(v) for v in per_field] for per_field in scale_sweep_max(scales(), n)]
