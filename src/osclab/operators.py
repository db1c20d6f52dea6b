"""Oscillation-operator families and their empirical off-diagonal profiles.

Three families are provided:

* ``classical-average``   B_Q f = f - f_Q chi_Q
* ``extended-average``    B_Q f = f - f_Q chi_{2Q}
* ``semigroup``           B_Q f = (I - e^{-l(Q)^2 L})^N f

for a divergence-form elliptic generator L = -div(A(x) grad), whose state is
computed when it is built.  Constant coefficient operators act spectrally
(the exact Fourier multiplier of the continuous generator, restricted to grid
modes); variable coefficients use a conservative finite-difference stencil,
assembled from one coefficient array per offset, and functions of it (e^{-tL}
and the time average U_s) are evaluated to rounding by a Chebyshev expansion
over a Gershgorin enclosure of its numerical range, with sparse matvecs only
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; Crouzeix, J. Funct. Anal. 244,
2007, for complex coefficients).  semigroup_apply and sharp_maximal take
blocks: one three-term recurrence on the block of all fields serves every
time, so the sharp maximal sweep of a rung costs the longest single-scale
expansion, not the sum over scales and fields.  Both paths annihilate
constants and conserve the mean, because the stencil is in flux form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
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
    multiplier ``symbol`` = 4 pi^2 k.Ak; variable ones the flux-form stencil
    ``matrix`` and its Chebyshev frame ``rho``, ``big_r`` and ``x_mat``.
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
        self.matrix = _assemble(self.coeffs, self.h)
        if np.max(np.abs(self.matrix @ np.ones(self.matrix.shape[0]))) > 1e-11 * self.big_lam / self.h ** 2:
            raise NumericError("stencil does not annihilate constants")
        self.rho, self.big_r, self.x_mat = _chebyshev_frame(self.matrix)

    def apply(self, f: Field) -> Field:
        """L f via the operator's own generator (spectral or stencil)."""
        if self.is_constant:
            return _fourier_apply(self, self.symbol, f)
        out = (self.matrix @ f.values.ravel()).reshape(f.values.shape)
        return Field(out if (self.is_complex or f.is_complex) else out.real)


def _assemble(coeffs: np.ndarray, h: float) -> sp.csr_matrix:
    """The stencil -(sum_i D-_i a_i D+_i + sum_{i != j} D0_i A_ij D0_j), a_i the mean
    of A_ii on the face after a cell along axis i: the sum as one coefficient
    array per offset o (row x, column x + o, periodic), each entry rounded as
    the product of the difference matrices rounds it, negated in the CSR,
    which stores no entry that vanishes."""
    n, m = coeffs.shape[0], coeffs.shape[-1]
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
    cells = np.arange(m ** n).reshape((m,) * n)
    cols = [np.roll(cells, [-x for x in o], axis=tuple(range(n))).ravel() for o in bands]
    data = np.concatenate([band.ravel() for band in bands.values()])
    rows = np.tile(cells.ravel(), len(bands))
    mat = sp.csr_matrix((-data, (rows, np.concatenate(cols))), shape=(m ** n,) * 2)
    mat.eliminate_zeros()
    return mat


def _chebyshev_frame(mat: sp.csr_matrix) -> tuple[float, float, sp.csr_matrix]:
    """(rho, R, X) of the stencil ``mat`` for the Chebyshev evaluator.

    rho is the Gershgorin bound of the Hermitian part of the stencil,
    which is positive semidefinite for elliptic A, so X = (2/rho) L - I
    has its numerical range in [-1, 1] x i[-beta, beta], with beta from
    the Gershgorin bound of the skew-Hermitian part.  R is the Bernstein
    ellipse (foci -1 and 1) through the corners of that rectangle; R = 1
    exactly when L is Hermitian.
    """
    adj = mat.conj().T
    rho = float(abs(mat + adj).sum(axis=1).max()) / 2.0
    beta = float(abs(mat - adj).sum(axis=1).max()) / rho
    semi = (beta + math.sqrt(4.0 + beta * beta)) / 2.0
    big_r = semi + math.sqrt(semi * semi - 1.0)
    return rho, big_r, (2.0 / rho) * mat - sp.identity(mat.shape[0], dtype=mat.dtype, format="csr")


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
    the exact multiplier when A is constant, a Chebyshev expansion otherwise.

    On the stencil every time shares one Chebyshev recurrence on the block
    of all fields.  On the ellipse E_R, |e^{-tL}| reaches e^{(t rho / 2)(ln
    R)^2 / 2} or so, and the expansion loses that factor to rounding; a
    non-Hermitian stencil (R > 1) therefore splits the time, e^{-tL} =
    (e^{-(t/s)L})^s, with the least s that keeps (t rho / 2s)(ln R)^2
    within _SPLIT_BOUND.  A split time runs its s steps on its own.
    """
    times = [float(t) for t in times]
    for t in times:
        if t < 0:
            raise ParameterError(f"time must be nonnegative, got {t}")
    if not fields:
        raise ParameterError("need at least one field")
    out: list = [None] * len(times)
    batch = []
    for i, t in enumerate(times):
        if op.is_constant:
            multiplier = np.exp(-t * op.symbol)
            out[i] = [_fourier_apply(op, multiplier, g) for g in fields]
        else:
            splits = max(1, math.ceil(_ellipse_growth(op, t) / _SPLIT_BOUND))
            if splits == 1:
                batch.append(i)
            else:
                out[i] = _chebyshev_apply(op, [_heat(t / splits)], fields, splits)[0]
    if batch:
        for i, res in zip(batch, _chebyshev_apply(op, [_heat(times[i]) for i in batch], fields)):
            out[i] = res
    return out


def _heat(tau: float):
    return lambda lam: np.exp(-tau * lam)


def _time_average_multiplier(lam: np.ndarray, s: float, big_n: int) -> np.ndarray:
    """((1 - e^{-s lam}) / (s lam))^N, equal to 1 at lam = 0."""
    w = s * np.asarray(lam)
    safe = np.where(w == 0, 1.0, w)
    return np.where(w == 0, 1.0, -np.expm1(-safe) / safe) ** big_n


def u_s_apply(op: EllipticOperator, s: float, big_n: int, f: Field) -> Field:
    """U_s f = M_s(L)^N f, M_s(L) = (1/s) int_0^s e^{-lambda L} d lambda.

    M_s has the closed form (1 - e^{-sL}) / (sL), applied to the Fourier
    symbol when A is constant and by the Chebyshev evaluator otherwise.  A
    non-Hermitian stencil halves the time k times, as semigroup_apply splits
    it, by M_{2a} = M_a (I + e^{-aL}) / 2: M_s = M_{s/2^k} times the factors
    (I + e^{-aL}) / 2 for a = s/2^k, ..., s/2, with the least k that keeps
    (s rho / 2^{k+1})(ln R)^2 within _SPLIT_BOUND.
    """
    if s <= 0:
        raise ParameterError("s must be positive")
    if big_n < 1:
        raise ParameterError("N must be >= 1")
    if op.is_constant:
        return _fourier_apply(op, _time_average_multiplier(op.symbol, s, big_n), f)
    base, halvings = s, 0
    while _ellipse_growth(op, base) > _SPLIT_BOUND:
        base, halvings = base / 2.0, halvings + 1
    out = _chebyshev_apply(op, [lambda lam: _time_average_multiplier(lam, base, 1)], [f], big_n)[0][0]
    for j in range(halvings):
        a = base * 2 ** j
        for _ in range(big_n):
            out = Field((out.values + semigroup_apply(op, [a], [out])[0][0].values) / 2.0)
    return out


# Bound on (t rho / 2)(ln R)^2 per split step of a non-Hermitian stencil.
_SPLIT_BOUND = 4.0
# The expansion stops once every trailing coefficient, weighted by R^k, is
# below this fraction of the largest |phi| on the Bernstein ellipse.
_TAIL_TOL = 1e-16
# Degree at which the doubling starts, and at which it gives up.
_START_DEGREE = 64
_MAX_DEGREE = 1 << 17


def _ellipse_growth(op: EllipticOperator, t: float) -> float:
    """(t rho / 2)(ln R)^2, about twice the log of max |e^{-t lambda}| on E_R."""
    return t * op.rho / 2.0 * math.log(op.big_r) ** 2


def _chebyshev_coefficients(phi, n: int, big_r: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(c_k, |c_k| R^k / max |phi| on E_R) for k < n, where
    phi((1 + x) / 2) ~ c_0 / 2 + sum_k c_k T_k(x); the second is inf when
    phi underflows to 0 at every node, which reads as no decay.

    One FFT of length 2n of the samples at x = (zeta + 1/zeta) / 2, zeta =
    R e^{i theta_j}, theta_j = pi (j + 1/2) / n, j < 2n; for R = 1 this is
    the DCT-II at the Chebyshev nodes.  Sampling on the Bernstein ellipse
    E_R gives c_k R^k with rounding of about 1e-17 max |phi|; on the
    interval that rounding would sit on c_k and R^k would amplify it.
    (1 + x) / 2 is formed as ((sqrt(zeta) + 1/sqrt(zeta)) / 2)^2, exact to
    rounding near x = -1, where e^{-t lambda} is largest.
    """
    theta = np.pi * (np.arange(2 * n) + 0.5) / n
    log_r = math.log(big_r)
    root = math.cosh(log_r / 2.0) * np.cos(theta / 2.0)
    if big_r > 1.0:
        root = root + 1j * math.sinh(log_r / 2.0) * np.sin(theta / 2.0)
    values = phi(root ** 2)
    k = np.arange(n)
    weighted = np.fft.fft(values)[:n] * np.exp(-0.5j * np.pi * k / n) / n
    if not np.iscomplexobj(values):
        weighted = weighted.real
    peak = float(np.max(np.abs(values)))
    if peak == 0.0:
        return weighted, np.full(n, np.inf)
    return weighted * np.exp(-log_r * k), np.abs(weighted) / peak


def _chebyshev_expansion(phi, rho: float, big_r: float) -> np.ndarray:
    """Chebyshev coefficients of phi(rho (1 + x) / 2), cut at the tail tolerance.

    The degree starts at _START_DEGREE and doubles until the trailing
    coefficients, weighted by R^k, fall below _TAIL_TOL (relative to max
    |phi| on E_R, where |T_k| <= R^k); the expansion is cut after its last
    coefficient above that level.  NumericError if the coefficients never
    decay that far.
    """
    n = _START_DEGREE
    while True:
        coeffs, weighted = _chebyshev_coefficients(lambda u: phi(rho * u), n, big_r)
        if np.all(weighted[-max(8, n // 8):] < _TAIL_TOL):
            break
        n *= 2
        if n > _MAX_DEGREE:
            raise NumericError(
                f"Chebyshev coefficients did not fall below {_TAIL_TOL:g} by degree {_MAX_DEGREE}"
            )
    return coeffs[: int(np.nonzero(weighted >= _TAIL_TOL)[0][-1]) + 1]


def _chebyshev_apply(op: EllipticOperator, phis: Sequence, fields: Sequence[Field], power: int = 1) -> list:
    """phi(L)^power g for every phi in ``phis`` and g in ``fields``, by one
    three-term recurrence; one list of fields per phi.

    Each phi is expanded in Chebyshev polynomials of X = (2/rho) L - I
    (_chebyshev_expansion), and the vectors T_k(X) u of the column block u of
    all fields are computed once, up to the longest expansion; each phi's
    accumulator takes its own coefficients and stops at its own cut.  A
    column of the block sees the same operations, in the same order, as the
    block of that field alone, so batching does not change a bit.  A power
    reruns the recurrence on the block of results, so it takes one phi.  A
    result is real when L and its field are: phi is then real on the real
    axis, and the imaginary part that sampling on E_R leaves is rounding.
    """
    if power > 1 and len(phis) > 1:
        raise ParameterError("a power takes one phi")
    x_mat = op.x_mat
    expansions = [_chebyshev_expansion(phi, op.rho, op.big_r) for phi in phis]
    dtype = np.result_type(x_mat.dtype, *(c.dtype for c in expansions), *(g.values.dtype for g in fields))
    u = np.stack([g.values.ravel() for g in fields], axis=1).astype(dtype)
    for _ in range(power):
        prev, cur = u, x_mat @ u
        accs = [0.5 * c[0] * prev for c in expansions]
        for acc, c in zip(accs, expansions):
            if len(c) > 1:
                acc += c[1] * cur
        for k in range(2, max(len(c) for c in expansions)):
            prev, cur = cur, 2.0 * (x_mat @ cur) - prev
            for acc, c in zip(accs, expansions):
                if k < len(c):
                    acc += c[k] * cur
        u = accs[0]
    shape = fields[0].values.shape
    return [[Field(r if (op.is_complex or g.is_complex) else r.real)
             for g, r in zip(fields, (col.reshape(shape) for col in acc.T))] for acc in accs]


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
