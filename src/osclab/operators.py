"""Oscillation-operator families and their empirical off-diagonal profiles.

Three families are provided:

* ``classical-average``   B_Q f = f - f_Q chi_Q
* ``extended-average``    B_Q f = f - f_Q chi_{2Q}
* ``semigroup``           B_Q f = (I - e^{-l(Q)^2 L})^N f

for a divergence-form elliptic generator L = -div(A(x) grad).  Constant
coefficient operators act spectrally (the exact Fourier multiplier of the
continuous generator, restricted to grid modes); variable coefficients use a
conservative finite-difference stencil, and functions of it (e^{-tL} and the
time average U_s) are evaluated to rounding by a Chebyshev expansion over a
Gershgorin enclosure of its numerical range, with sparse matvecs only
(Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; Crouzeix, J. Funct. Anal. 244,
2007, for complex coefficients).  The expansion is batched over times and
fields: one three-term recurrence on the block of all fields serves every
time, so the sharp maximal sweep of a rung costs the longest single-scale
expansion, not the sum over scales and fields.  Both paths annihilate
constants and conserve the mean, because the stencil is in flux form.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from osclab._support import DataError, NumericError, ParameterError
from osclab.cubes import Cube, Dilation, dilate
from osclab.grid import Field, lp_average, scale_sweep_max, sliding_central_moments, sliding_cube_means


# ---------------------------------------------------------------------------
# Elliptic operators
# ---------------------------------------------------------------------------


class EllipticOperator:
    """Divergence-form generator L = -div(A(x) grad) on the periodic grid.

    ``coeffs`` is either the full (n, n, *grid) block layout or, for scalar
    coefficients, just the grid-shaped array (then ``dimension`` names the
    grid dimension; it defaults to ``coeffs.ndim``).  ``p_minus``/``p_plus``
    are metadata slots for the exponent range of the associated semigroup;
    they are configured per experiment, not derived.
    """

    def __init__(
        self,
        coeffs: np.ndarray,
        lam: float,
        big_lam: float,
        dimension: Optional[int] = None,
        p_minus: float = 1.0,
        p_plus: float = math.inf,
    ):
        if lam <= 0 or big_lam < lam:
            raise ParameterError("need 0 < lam <= big_lam")
        a = np.asarray(coeffs)
        if dimension is None:
            if a.ndim >= 3 and a.shape[0] == a.shape[1] and a.shape[0] == a.ndim - 2:
                dimension = a.ndim - 2
            else:
                dimension = a.ndim
        if a.ndim == dimension:  # scalar shorthand: A = a(x) I
            a = np.multiply.outer(np.eye(dimension), a)
        if a.shape[:2] != (dimension, dimension):
            raise ParameterError(f"coefficients need an {dimension}x{dimension} block layout, got {a.shape}")
        self.coeffs = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)
        self.dimension = dimension
        self.resolution = self.coeffs.shape[-1]
        self.lam = float(lam)
        self.big_lam = float(big_lam)
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self._check_ellipticity()
        self._matrix: Optional[sp.csc_matrix] = None
        self._chebyshev: Optional[tuple[float, float, sp.csr_matrix]] = None
        self._symbol: Optional[np.ndarray] = None

    # -- structure ----------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        flat = self.coeffs.reshape(self.dimension, self.dimension, -1)
        return bool(np.all(flat == flat[:, :, :1]))

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.coeffs)

    @property
    def h(self) -> float:
        return 1.0 / self.resolution

    def _check_ellipticity(self) -> None:
        """Per cell: Re <A xi, xi> >= lam |xi|^2 (the least eigenvalue of the
        Hermitian part) and |<A xi, zeta>| <= Lam |xi| |zeta| (the largest
        singular value), each with a 1e-9 slack."""
        cells = np.moveaxis(self.coeffs.reshape(self.dimension, self.dimension, -1), -1, 0)
        hermitian = 0.5 * (cells + np.conj(np.swapaxes(cells, 1, 2)))
        if np.min(np.linalg.eigvalsh(hermitian)) < self.lam - 1e-9:
            raise DataError("ellipticity lower bound violated: Re <A xi, xi> < lam |xi|^2 at a cell")
        if np.max(np.linalg.svd(cells, compute_uv=False)) > self.big_lam + 1e-9:
            raise DataError("ellipticity upper bound violated: |A| > Lam at a cell")

    # -- spectral path --------------------------------------------------------

    def symbol(self) -> np.ndarray:
        """Fourier multiplier 4 pi^2 k.Ak of the constant-coefficient operator."""
        if not self.is_constant:
            raise ParameterError("symbol is defined for constant coefficients only")
        if self._symbol is None:
            m, n = self.resolution, self.dimension
            freqs = np.fft.fftfreq(m, d=1.0 / m)
            grids = np.meshgrid(*([freqs] * n), indexing="ij")
            a0 = self.coeffs.reshape(self.dimension, self.dimension, -1)[:, :, 0]
            mu = np.zeros((m,) * n, dtype=np.complex128)
            for i in range(n):
                for j in range(n):
                    mu = mu + a0[i, j] * grids[i] * grids[j]
            self._symbol = 4.0 * np.pi ** 2 * mu
        return self._symbol

    # -- stencil path ---------------------------------------------------------

    def matrix(self) -> sp.csc_matrix:
        """Sparse conservative stencil; row and column sums vanish exactly."""
        if self._matrix is None:
            self._matrix = _assemble(self.coeffs, self.h)
            ones = np.ones(self._matrix.shape[0])
            tol = 1e-11 * self.big_lam / self.h ** 2
            if np.max(np.abs(self._matrix @ ones)) > tol:
                raise NumericError("stencil does not annihilate constants")
        return self._matrix

    def apply(self, f: Field) -> Field:
        """L f via the operator's own generator (spectral or stencil)."""
        if self.is_constant:
            return _fourier_apply(self, self.symbol(), f)
        flat = self.matrix() @ f.values.ravel()
        out = flat.reshape(f.values.shape)
        return Field(out if (self.is_complex or f.is_complex) else out.real)

    def _chebyshev_frame(self) -> tuple[float, float, sp.csr_matrix]:
        """(rho, R, X) for the Chebyshev evaluator, computed once.

        rho is the Gershgorin bound of the Hermitian part of the stencil,
        which is positive semidefinite for elliptic A, so X = (2/rho) L - I
        has its numerical range in [-1, 1] x i[-beta, beta], with beta from
        the Gershgorin bound of the skew-Hermitian part.  R is the Bernstein
        ellipse (foci -1 and 1) through the corners of that rectangle; R = 1
        exactly when L is Hermitian.
        """
        if self._chebyshev is None:
            mat = self.matrix().tocsr()
            adj = mat.conj().T
            rho = float(abs(mat + adj).sum(axis=1).max()) / 2.0
            beta = float(abs(mat - adj).sum(axis=1).max()) / rho
            semi = (beta + math.sqrt(4.0 + beta * beta)) / 2.0
            big_r = semi + math.sqrt(semi * semi - 1.0)
            eye = sp.identity(mat.shape[0], dtype=mat.dtype, format="csr")
            self._chebyshev = (rho, big_r, ((2.0 / rho) * mat - eye).tocsr())
        return self._chebyshev


def _shift(m: int, k: int) -> sp.csr_matrix:
    """Periodic shift: (S u)_i = u_{i+k}."""
    idx = (np.arange(m) + k) % m
    return sp.csr_matrix((np.ones(m), (np.arange(m), idx)), shape=(m, m))


def _assemble(coeffs: np.ndarray, h: float) -> sp.csc_matrix:
    n = coeffs.shape[0]
    m = coeffs.shape[-1]
    dtype = coeffs.dtype
    eye = sp.identity(m, dtype=dtype, format="csr")

    def lift(op1d: sp.spmatrix, axis: int) -> sp.csr_matrix:
        if n == 1:
            return op1d.tocsr()
        mats = [op1d if ax == axis else eye for ax in range(n)]
        out = mats[0]
        for mmat in mats[1:]:
            out = sp.kron(out, mmat, format="csr")
        return out

    def diag_of(arr: np.ndarray) -> sp.csr_matrix:
        return sp.diags(arr.ravel().astype(dtype), format="csr")

    total = None
    for i in range(n):
        # flux form along axis i with arithmetic face means
        a_ii = coeffs[i, i]
        face = 0.5 * (a_ii + np.roll(a_ii, -1, axis=i))
        dplus = lift((_shift(m, 1) - sp.identity(m, dtype=dtype)) / h, i)
        dminus = lift((sp.identity(m, dtype=dtype) - _shift(m, -1)) / h, i)
        term = dminus @ diag_of(face) @ dplus
        total = term if total is None else total + term
        for j in range(n):
            if i == j:
                continue
            dc_i = lift((_shift(m, 1) - _shift(m, -1)) / (2 * h), i)
            dc_j = lift((_shift(m, 1) - _shift(m, -1)) / (2 * h), j)
            total = total + dc_i @ diag_of(coeffs[i, j]) @ dc_j
    return (-total).tocsc()


# ---------------------------------------------------------------------------
# Semigroup evaluation
# ---------------------------------------------------------------------------


def _fourier_apply(op: EllipticOperator, multiplier: np.ndarray, f: Field) -> Field:
    """The Fourier multiplier applied to f; real when op and f are real."""
    out = np.fft.ifftn(multiplier * np.fft.fftn(f.values))
    return Field(out if (op.is_complex or f.is_complex) else out.real)


def semigroup_apply(
    op: EllipticOperator,
    t: float | Sequence[float],
    f: Field | Sequence[Field] | Sequence[Sequence[Field]],
) -> Field | list:
    """e^{-tL} f: exact multiplier when A is constant, Chebyshev expansion otherwise.

    ``t`` is one time or a sequence of times.  ``f`` is one field, a sequence
    of fields that every time acts on, or (with a sequence of times) one
    sequence of fields per time.  A sequence of times returns one entry per
    time and a sequence of fields one field per field, in order; with both,
    ``out[i][j]`` is e^{-t_i L} applied to field j.  On the stencil every time
    shares one Chebyshev recurrence on the block of all fields.

    On the ellipse E_R, |e^{-tL}| reaches e^{(t rho / 2)(ln R)^2 / 2} or so,
    and the expansion loses that factor to rounding; a non-Hermitian stencil
    (R > 1) therefore splits the time, e^{-tL} = (e^{-(t/s)L})^s, with the
    least s that keeps (t rho / 2s)(ln R)^2 within _SPLIT_BOUND.  A split
    time runs its s steps on its own block of fields.
    """
    times = [float(t)] if np.ndim(t) == 0 else [float(x) for x in t]
    for x in times:
        if x < 0:
            raise ParameterError(f"time must be nonnegative, got {x}")
    single = isinstance(f, Field)
    if not single and len(f) == 0:
        raise ParameterError("need at least one field")
    per_time = not single and not isinstance(f[0], Field)
    if per_time and (np.ndim(t) == 0 or len(f) != len(times)):
        raise ParameterError("need one sequence of fields per time")
    blocks = [list(g) for g in f] if per_time else [[f] if single else list(f)] * len(times)
    out: list = [None] * len(times)
    batch = []
    for i, (x, fs) in enumerate(zip(times, blocks)):
        if x == 0.0:
            out[i] = list(fs)
        elif op.is_constant:
            multiplier = np.exp(-x * op.symbol())
            out[i] = [_fourier_apply(op, multiplier, g) for g in fs]
        else:
            splits = max(1, math.ceil(_ellipse_growth(op, x) / _SPLIT_BOUND))
            if splits == 1:
                batch.append(i)
            else:
                out[i] = _chebyshev_apply(op, [_heat(x / splits)], fs, splits)[0]
    if batch:
        src = [blocks[i] for i in batch] if per_time else blocks[0]
        for i, res in zip(batch, _chebyshev_apply(op, [_heat(times[i]) for i in batch], src)):
            out[i] = res
    if single:
        out = [res[0] for res in out]
    return out[0] if np.ndim(t) == 0 else out


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
        return _fourier_apply(op, _time_average_multiplier(op.symbol(), s, big_n), f)
    base, halvings = s, 0
    while _ellipse_growth(op, base) > _SPLIT_BOUND:
        base, halvings = base / 2.0, halvings + 1
    out = _chebyshev_apply(op, [lambda lam: _time_average_multiplier(lam, base, 1)], [f], big_n)[0][0]
    for j in range(halvings):
        a = base * 2 ** j
        for _ in range(big_n):
            out = Field((out.values + semigroup_apply(op, a, out).values) / 2.0)
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
    rho, big_r, _ = op._chebyshev_frame()
    return t * rho / 2.0 * math.log(big_r) ** 2


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


def _chebyshev_apply(op: EllipticOperator, phis: Sequence, fields: Sequence, power: int = 1) -> list:
    """phi(L)^power g for every phi in ``phis``, by one three-term recurrence.

    ``fields`` is one list of fields that every phi acts on, or one list per
    phi; the result is one list of fields per phi.  Each phi is expanded in
    Chebyshev polynomials of X = (2/rho) L - I (_chebyshev_expansion), and
    the vectors T_k(X) u of the column block u of all fields are computed
    once, up to the longest expansion; each (phi, field) accumulator takes
    its own coefficients and stops at its own cut.  A column of the block
    sees the same operations, in the same order, as the block of that field
    alone, so batching does not change a bit.  Powers rerun the recurrence
    on the block of results, each phi on its own columns.  A result is real
    when L and its field are: phi is then real on the real axis, and the
    imaginary part that sampling on E_R leaves is rounding.
    """
    rho, big_r, x_mat = op._chebyshev_frame()
    expansions = [_chebyshev_expansion(phi, rho, big_r) for phi in phis]
    stacked = not isinstance(fields[0], Field)
    blocks = list(fields) if stacked else [fields] * len(phis)
    edges = np.cumsum([0] + [len(b) for b in blocks])
    columns = [g for b in (blocks if stacked else [fields]) for g in b]
    dtype = np.result_type(x_mat.dtype, *(c.dtype for c in expansions), *(g.values.dtype for g in columns))
    u = np.stack([g.values.ravel() for g in columns], axis=1).astype(dtype)
    for _ in range(power):
        cols = [slice(lo, hi) if stacked else slice(None) for lo, hi in zip(edges, edges[1:])]
        prev, cur = u, x_mat @ u
        accs = [0.5 * c[0] * prev[:, s] for c, s in zip(expansions, cols)]
        for acc, c, s in zip(accs, expansions, cols):
            if len(c) > 1:
                acc += c[1] * cur[:, s]
        for k in range(2, max(len(c) for c in expansions)):
            prev, cur = cur, 2.0 * (x_mat @ cur) - prev
            for acc, c, s in zip(accs, expansions, cols):
                if k < len(c):
                    acc += c[k] * cur[:, s]
        u, stacked = np.concatenate(accs, axis=1), True
    shape = columns[0].values.shape
    return [
        [Field(r if (op.is_complex or g.is_complex) else r.real)
         for g, r in zip(b, (u[:, j].reshape(shape) for j in range(lo, lo + len(b))))]
        for b, lo in zip(blocks, edges)
    ]


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
    fit_log_c: float = math.nan
    fit_rate: float = math.nan
    fit_residual: float = math.nan

    def alpha_at(self, k: int) -> float:
        return float(self.alpha.get(k, 0.0))

    def beta_at(self, k: int) -> float:
        return float((self.beta or {}).get(k, 0.0))

    def fit(self, ks: Sequence[int]) -> tuple[float, float, float]:
        """Least squares of log alpha_k against 4^k; residual is normalized by
        the spread of the log data."""
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
        self.fit_log_c, self.fit_rate, self.fit_residual = log_c, rate, residual
        return log_c, rate, residual

    def to_dict(self) -> dict:
        return {
            "alpha": {str(k): v for k, v in sorted(self.alpha.items())},
            "beta": None if self.beta is None else {str(k): v for k, v in sorted(self.beta.items())},
            "exponents": list(self.exponents),
            "probe_spec": self.probe_spec,
            "fit": {"log_c": self.fit_log_c, "rate": self.fit_rate, "residual": self.fit_residual},
        }


@dataclass
class OscillationFamily:
    """A family (B_Q)_Q with companion A_Q = I - B_Q and exponent window."""

    kind: str
    p0: float
    q0: float
    operator: Optional[EllipticOperator] = None
    big_n: int = 1
    profile: Optional[OffDiagonalProfile] = field(default=None, repr=False)

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

        Each factor I - e^{-l^2 L} of (I - e^{-l^2 L})^N is one semigroup_apply
        call over all sides and fields.
        """
        if not self.sidelength_only:
            raise ParameterError("family depends on cube position, not only its scale")
        times = [side ** 2 for side in sides]
        g = [list(fields)] * len(times)
        for k in range(self.big_n):
            heat = semigroup_apply(self.operator, times, fields if k == 0 else g)
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


def _masked_field(base: Field, ix: tuple) -> Field:
    vals = np.zeros_like(base.values)
    vals[ix] = base.values[ix]
    return Field(vals)


def _annulus_fields(base_probes: Sequence[Field], outer: Cube, inner: Cube, m: int) -> list[Field]:
    """The indicator of outer minus inner and each probe restricted to it, without repeats."""
    mask = np.zeros((m,) * outer.dimension, dtype=bool)
    mask[outer.index(m)] = True
    mask[inner.index(m)] = False
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
    k_max: int = 6,
    pair_levels: int = 1,
) -> OffDiagonalProfile:
    """Empirical decay entries for the family on annulus-supported probes.

    alpha_2 comes from the on-diagonal comparison (for local families the
    tight variant with the average over Q itself on the right-hand side);
    alpha_K for K >= 3 takes, over every target shell index j <= K - 2, the
    worst ratio of the output norm on 2^j Q against the input average on
    2^K Q for probes supported in the shell 2^K Q minus 2^{K-1} Q.  beta_K
    measures the lower-scale comparison on nested pairs R inside Q.  Entries
    at dilations that saturate the torus are skipped.
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

    def dil(q: Cube, factor: float) -> Dilation:
        return dilate(q, factor, m) if factor > 1 else Dilation(q, False)

    for q in cube_sample:
        two_q = dil(q, 2.0)
        # shells[k]: (A_Q p, L^p0 average of p on 2^k Q) for the nonzero sources p:
        # the probes on 4Q (k = 2) and the annulus fields of 2^k Q minus 2^{k-1} Q
        # (k >= 3), up to the first saturated dilate; alpha and beta both read them
        shells = {}
        for k in range(2, k_max + 1):
            outer = dil(q, 2.0 ** k)
            if outer.saturated:
                break
            if k == 2:
                sources = [_masked_field(p, outer.cube.index(m)) for p in probes]
            else:
                sources = _annulus_fields(probes, outer.cube, dil(q, 2.0 ** (k - 1)).cube, m)
            shells[k] = [(family.apply_A(p, q), lp_average(p, outer.cube, p0))
                         for p in sources if np.any(p.values)]
        # on-diagonal entry: local families take the probes on 2Q against their
        # average over Q itself, the others read shell 2
        on_diagonal = shells.get(2, [])
        if family.is_local:
            masked = [_masked_field(p, two_q.cube.index(m)) for p in probes]
            on_diagonal = [(family.apply_A(p, q), lp_average(p, q, p0)) for p in masked]
        for ap, rhs in on_diagonal:
            lhs = lp_average(ap, two_q.cube, q0)
            if rhs > 0:
                bump(alpha, 2, lhs / rhs)
        # far-field entries; a local family's A_Q vanishes on sources off 2Q
        for k in range(3, max(shells, default=2) + 1):
            for j in range(1, k - 1):
                target = dil(q, 2.0 ** j).cube
                for ap, rhs in shells[k]:
                    lhs = lp_average(ap, target, q0) if np.any(ap.values) else 0.0
                    if rhs > 0:
                        bump(alpha, k, lhs / rhs)
        # lower-scale entries on nested pairs
        for level in range(1, pair_levels + 1):
            side = q.side / (2 ** level)
            if side < 1.0 / m:
                break
            r = Cube(q.anchor, side)
            two_r = dil(r, 2.0)
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
    identity_defect: float

    def to_dict(self) -> dict:
        return asdict(self)


def audit_family(
    family: OscillationFamily,
    probes: Sequence[Field],
    cube_pairs: Sequence[tuple[Cube, Cube]],
    tol: float = 1e-8,
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
    ident = 0.0
    for r, q in cube_pairs:
        for f in probes:
            scale = lp_average(f, torus, p0) + 1e-300
            bq = family.apply_B(f, q)
            bound = max(bound, lp_average(bq, torus, p0) / scale)
            br_bq = family.apply_B(bq, r)
            bq_br = family.apply_B(family.apply_B(f, r), q)
            comm = max(comm, lp_average(Field(br_bq.values - bq_br.values), torus, p0) / scale)
            # A_Q + B_Q = I by construction; the measured defect documents it
            aq = Field(f.values - bq.values)
            ident = max(ident, float(np.max(np.abs(aq.values + bq.values - f.values))))
            # localization
            ix = dilate(q, 2.0, m).cube.index(m)
            a_masked = family.apply_A(_masked_field(f, ix), q).values
            rhs_vals = np.zeros_like(a_masked)  # complex when the family is
            rhs_vals[ix] = a_masked[ix]
            loc_defect = max(loc_defect, float(np.max(np.abs(aq.values - rhs_vals))))
            # replacement identity on 2R
            ar_aq = family.apply_A(aq, r)
            ixr = dilate(r, 2.0, m).cube.index(m)
            rc_defect = max(rc_defect, float(np.max(np.abs(ar_aq.values[ixr] - aq.values[ixr]))))
    scale0 = max(float(np.max(np.abs(p.values))) for p in probes) + 1e-300
    return AuditReport(
        commutator=comm,
        uniform_bound=bound,
        localization=loc_defect <= tol * scale0,
        replace_comm=rc_defect <= tol * scale0,
        identity_defect=ident,
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
    f: Field | Sequence[Field],
    p: float | Sequence[float],
    alpha: float = 0.0,
) -> Field | list:
    """Pointwise sup over admissible cubes of |Q|^{-alpha/n} (mean_Q |B_Q f|^p)^{1/p}.

    Admissible cubes are those of the restricted maximal-function family.
    With alpha = 0 the sup-norm of the result is the oscillation BMO seminorm
    of f for this family; positive alpha gives the Lipschitz-scale variant.

    ``p`` is one exponent or a sequence of them, and ``f`` one field or a
    sequence of fields of one grid; a sequence returns one entry per item, in
    order, and with both, ``out[j][k]`` is field j at exponent k.  One sweep
    over the scales serves them all: each B_Q f (or window deviation) is
    computed once and raised to every exponent, a scale-only family gets the
    B fields of every scale and field from apply_B_scales, and the
    statistics of all fields go to one scale_sweep_max on a leading axis.

    For a positional family, B_Q f on Q is f - f_Q.  At p = 2 and p = 4 of a
    real field the mean is then the central moment M2 or M4 of f on Q, read
    for every anchored window of every scale from sliding_central_moments in
    O(m^n) per scale; complex fields and every other p take the windows,
    O(m^n c^n) per scale.
    """
    single_p = np.ndim(p) == 0
    ps = [float(p)] if single_p else [float(x) for x in p]
    for x in ps:
        if not (family.p0 <= x and (x < family.q0 or x == family.p0)):
            raise ParameterError(f"p={x} outside [{family.p0}, {family.q0})")
    single_f = isinstance(f, Field)
    fs = [f] if single_f else list(f)
    if not fs:
        raise ParameterError("need at least one field")
    m, n = fs[0].resolution, fs[0].dimension
    cs = [2 ** k for k in range(m.bit_length())]
    b = family.apply_B_scales([c / m for c in cs], fs) if family.sidelength_only else None
    # positional family: p = 2 and p = 4 of a real field are its central moments
    real = [j for j, g in enumerate(fs) if not g.is_complex]
    by_moment = [(k, _MOMENT_OF[x]) for k, x in enumerate(ps) if x in _MOMENT_OF]
    moments = None
    if b is None and real and by_moment:
        moments = sliding_central_moments(np.stack([fs[j].values for j in real]), n)
    windowed = [[(k, x) for k, x in enumerate(ps) if g.is_complex or x not in _MOMENT_OF] for g in fs]

    def scales():
        for i, c in enumerate(cs):
            side = c / m
            weight = side ** (-alpha) if alpha else 1.0
            if b is not None:
                dev = np.abs(np.stack([g.values for g in b[i]]))
                b[i] = None
                stat = sliding_cube_means(np.stack([np.power(dev, x) for x in ps], axis=1), c, n)
            else:
                stat = np.empty((len(fs), len(ps)) + fs[0].values.shape)
                if moments is not None:
                    _, mom = next(moments)
                    for k, r in by_moment:
                        stat[real, k] = mom[r]
                for j, g in enumerate(fs):
                    if not windowed[j]:
                        continue
                    for ix, dev in _anchored_deviations(g, c):
                        for k, x in windowed[j]:
                            stat[(j, k) + ix] = (dev if x == 1.0 else np.power(dev, x)).mean(axis=1)
            for k, x in enumerate(ps):
                stat[:, k] = weight * np.power(stat[:, k], 1.0 / x)
            yield c, stat

    best = [[Field(v) for v in per_field] for per_field in scale_sweep_max(scales(), n)]
    if single_p:
        best = [per_field[0] for per_field in best]
    return best[0] if single_f else best
