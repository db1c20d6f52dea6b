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
2007, for complex coefficients).  Both paths annihilate constants and conserve
the mean, because the stencil is in flux form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from osclab._support import (
    DataError,
    NumericError,
    ParameterError,
    rng_from_seed,
)
from osclab.cubes import Cube, Dilation, dilate
from osclab.grid import Field, lp_average, sliding_cube_means, scale_sweep_max


# ---------------------------------------------------------------------------
# Elliptic operators
# ---------------------------------------------------------------------------


def _normalize_coeffs(coeffs: np.ndarray, dimension: int) -> np.ndarray:
    a = np.asarray(coeffs)
    grid_shape = a.shape[-dimension:]
    if a.shape == grid_shape:  # scalar shorthand, 1x1 block
        a = a.reshape((1, 1) + grid_shape)
    if a.shape[:2] != (dimension, dimension):
        raise ParameterError(
            f"coefficients must have an {dimension}x{dimension} block layout, got {a.shape}"
        )
    return a.astype(np.complex128 if np.iscomplexobj(a) else np.float64)


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
            grid_shape = a.shape
            full = np.zeros((dimension, dimension) + grid_shape, dtype=complex if np.iscomplexobj(a) else float)
            for i in range(dimension):
                full[i, i] = a
            a = full
        self.coeffs = _normalize_coeffs(a, dimension)
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

    def _check_ellipticity(self, samples: int = 8) -> None:
        n = self.dimension
        rng = rng_from_seed(0xE11)
        flat = self.coeffs.reshape(n, n, -1)
        for _ in range(samples):
            xi = rng.normal(size=n) + 1j * rng.normal(size=n)
            zeta = rng.normal(size=n) + 1j * rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            zeta /= np.linalg.norm(zeta)
            quad = np.einsum("abx,b,a->x", flat, xi, np.conj(xi))
            if np.min(quad.real) < self.lam - 1e-9:
                raise DataError("ellipticity lower bound violated on a sampled direction")
            bil = np.einsum("abx,b,a->x", flat, xi, np.conj(zeta))
            if np.max(np.abs(bil)) > self.big_lam + 1e-9:
                raise DataError("ellipticity upper bound violated on a sampled direction")

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


def save_coefficients(op: EllipticOperator, path_base: str) -> list[str]:
    """Persist the n x n coefficient blocks with the field I/O layout."""
    import json as _json

    header = {
        "dimension": op.dimension,
        "resolution": op.resolution,
        "complex": op.is_complex,
        "blocks": op.dimension,
        "lam": op.lam,
        "Lam": op.big_lam,
        "p_minus": op.p_minus,
        "p_plus": "inf" if math.isinf(op.p_plus) else op.p_plus,
    }
    paths = [path_base + ".json", path_base + ".bin"]
    with open(paths[0], "w") as fh:
        _json.dump(header, fh, sort_keys=True)
        fh.write("\n")
    op.coeffs.tofile(paths[1])
    return paths


def load_coefficients(path_base: str) -> EllipticOperator:
    import json as _json

    with open(path_base + ".json") as fh:
        header = _json.load(fh)
    n = int(header["dimension"])
    m = int(header["resolution"])
    dtype = np.complex128 if header.get("complex") else np.float64
    coeffs = np.fromfile(path_base + ".bin", dtype=dtype).reshape((n, n) + (m,) * n)
    p_plus = header.get("p_plus", "inf")
    p_plus = math.inf if p_plus == "inf" else float(p_plus)
    return EllipticOperator(
        coeffs, float(header["lam"]), float(header["Lam"]), n,
        float(header.get("p_minus", 1.0)), p_plus,
    )


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


def semigroup_apply(op: EllipticOperator, t: float, f: Field) -> Field:
    """e^{-tL} f: exact multiplier when A is constant, Chebyshev expansion otherwise.

    On the ellipse E_R, |e^{-tL}| reaches e^{(t rho / 2)(ln R)^2 / 2} or so,
    and the expansion loses that factor to rounding; a non-Hermitian stencil
    (R > 1) therefore splits the time, e^{-tL} = (e^{-(t/s)L})^s, with the
    least s that keeps (t rho / 2s)(ln R)^2 within _SPLIT_BOUND.
    """
    if t < 0:
        raise ParameterError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return f
    if op.is_constant:
        return _fourier_apply(op, np.exp(-t * op.symbol()), f)
    splits = max(1, math.ceil(_ellipse_growth(op, t) / _SPLIT_BOUND))
    tau = t / splits
    return _chebyshev_apply(op, lambda lam: np.exp(-tau * lam), f, splits)


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
    out = _chebyshev_apply(op, lambda lam: _time_average_multiplier(lam, base, 1), f, big_n)
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
    phi((1 + x) / 2) ~ c_0 / 2 + sum_k c_k T_k(x).

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
    return weighted * np.exp(-log_r * k), np.abs(weighted) / float(np.max(np.abs(values)))


def _chebyshev_apply(op: EllipticOperator, phi, f: Field, power: int = 1) -> Field:
    """phi(L)^power f for a scalar function phi of the spectral variable.

    phi is expanded in Chebyshev polynomials of X = (2/rho) L - I.  The
    degree starts at _START_DEGREE and doubles until the trailing
    coefficients, weighted by R^k, fall below _TAIL_TOL (relative to max
    |phi| on E_R, where |T_k| <= R^k); the expansion is cut after its last
    coefficient above that level and run by the three-term recurrence, once
    per power.  NumericError if the coefficients never decay that far.  The
    result is real when L and f are: phi is then real on the real axis, and
    the imaginary part that sampling on E_R leaves is rounding.
    """
    rho, big_r, x_mat = op._chebyshev_frame()
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
    coeffs = coeffs[: int(np.nonzero(weighted >= _TAIL_TOL)[0][-1]) + 1]
    u = f.values.ravel().astype(np.result_type(x_mat.dtype, f.values.dtype, coeffs.dtype))
    for _ in range(power):
        prev, cur = u, x_mat @ u
        acc = 0.5 * coeffs[0] * prev
        if len(coeffs) > 1:
            acc += coeffs[1] * cur
        for c in coeffs[2:]:
            prev, cur = cur, 2.0 * (x_mat @ cur) - prev
            acc += c * cur
        u = acc
    out = u.reshape(f.values.shape)
    return Field(out if (op.is_complex or f.is_complex) else out.real)


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
        if self.beta is None:
            return 0.0
        return float(self.beta.get(k, 0.0))

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
        m = f.resolution
        if self.kind == "classical-average":
            avg = f.restrict(q).mean()
            out = f.values.copy()
            out[q.index(m)] -= avg
            return Field(out)
        if self.kind == "extended-average":
            avg = f.restrict(q).mean()
            out = f.values.copy()
            two_q = dilate(q, 2.0, m).cube
            out[two_q.index(m)] -= avg
            return Field(out)
        return self.apply_B_scale(f, q.side)

    def apply_A(self, f: Field, q: Cube) -> Field:
        return Field(f.values - self.apply_B(f, q).values)

    def apply_B_scale(self, f: Field, side: float) -> Field:
        """B at a given sidelength for families depending only on the scale."""
        if not self.sidelength_only:
            raise ParameterError("family depends on cube position, not only its scale")
        g = f
        t = side ** 2
        for _ in range(self.big_n):
            g = Field(g.values - semigroup_apply(self.operator, t, g).values)
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
    mask = np.zeros((m,) * outer.dimension, dtype=bool)
    mask[outer.index(m)] = True
    mask[inner.index(m)] = False
    if not mask.any():
        return []
    out = [Field(mask.astype(float))]
    for p in base_probes:
        vals = np.where(mask, p.values, 0.0)
        if np.any(vals != 0):
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
        four_q = dil(q, 4.0)
        # on-diagonal entry
        rhs_cube = q if family.is_local else four_q.cube
        src_cube = two_q.cube if family.is_local else four_q.cube
        if not four_q.saturated or family.is_local:
            for p in probes:
                masked = _masked_field(p, src_cube.index(m))
                lhs = lp_average(family.apply_A(masked, q), two_q.cube, q0)
                rhs = lp_average(masked, rhs_cube, p0)
                if rhs > 0:
                    bump(alpha, 2, lhs / rhs)
        # far-field entries
        for k in range(3, k_max + 1):
            outer = dil(q, 2.0 ** k)
            inner = dil(q, 2.0 ** (k - 1))
            if outer.saturated:
                break
            ann = _annulus_fields(probes, outer.cube, inner.cube, m)
            for j in range(1, k - 1):
                target = dil(q, 2.0 ** j).cube
                for p in ann:
                    lhs = lp_average(family.apply_A(p, q), target, q0)
                    rhs = lp_average(p, outer.cube, p0)
                    if rhs > 0:
                        bump(alpha, k, lhs / rhs)
        # lower-scale entries on nested pairs
        for level in range(1, pair_levels + 1):
            side = q.side / (2 ** level)
            if side < 1.0 / m:
                break
            r = Cube(q.anchor, side)
            two_r = dil(r, 2.0)
            for k in range(2, k_max + 1):
                outer = dil(q, 2.0 ** k)
                if outer.saturated:
                    break
                if k == 2:
                    sources = [_masked_field(p, outer.cube.index(m)) for p in probes]
                else:
                    inner = dil(q, 2.0 ** (k - 1))
                    sources = _annulus_fields(probes, outer.cube, inner.cube, m)
                for p in sources:
                    if not np.any(p.values):
                        continue
                    g = family.apply_B(family.apply_A(p, q), r)
                    lhs = lp_average(g, two_r.cube, q0)
                    rhs = lp_average(p, outer.cube, p0)
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
        return {
            "commutator": self.commutator,
            "uniform_bound": self.uniform_bound,
            "localization": self.localization,
            "replace_comm": self.replace_comm,
            "identity_defect": self.identity_defect,
        }


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
            comm = max(
                comm, lp_average(Field(br_bq.values - bq_br.values), torus, p0) / scale
            )
            # A_Q + B_Q = I by construction; the measured defect documents it
            aq = family.apply_A(f, q)
            ident = max(ident, float(np.max(np.abs(aq.values + bq.values - f.values))))
            # localization
            two_q = dilate(q, 2.0, m).cube
            ix = two_q.index(m)
            masked = _masked_field(f, ix)
            rhs_vals = np.zeros_like(f.values)
            rhs_vals[ix] = family.apply_A(masked, q).values[ix]
            loc_defect = max(
                loc_defect, float(np.max(np.abs(family.apply_A(f, q).values - rhs_vals)))
            )
            # replacement identity on 2R
            ar_aq = family.apply_A(family.apply_A(f, q), r)
            two_r = dilate(r, 2.0, m).cube
            ixr = two_r.index(m)
            rc_defect = max(
                rc_defect,
                float(np.max(np.abs(ar_aq.values[ixr] - family.apply_A(f, q).values[ixr]))),
            )
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
# growing as m^n c^n with the scale.
_WINDOW_BLOCK = 1 << 16


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
            win = np.ascontiguousarray(windows[ix]).reshape(-1, size)
            yield ix, np.abs(win - win.mean(axis=1, keepdims=True))


def sharp_maximal(
    family: OscillationFamily, f: Field, p: float | Sequence[float], alpha: float = 0.0
) -> Field | list[Field]:
    """Pointwise sup over admissible cubes of |Q|^{-alpha/n} (mean_Q |B_Q f|^p)^{1/p}.

    Admissible cubes are those of the restricted maximal-function family.
    With alpha = 0 the sup-norm of the result is the oscillation BMO seminorm
    of f for this family; positive alpha gives the Lipschitz-scale variant.

    ``p`` is one exponent or a sequence of them; a sequence returns one field
    per exponent, in order, from a single sweep over the scales: each B_Q f
    (or window deviation) is computed once and raised to every exponent.
    """
    single = np.ndim(p) == 0
    ps = [float(p)] if single else [float(x) for x in p]
    for x in ps:
        if not (family.p0 <= x and (x < family.q0 or x == family.p0)):
            raise ParameterError(f"p={x} outside [{family.p0}, {family.q0})")
    m, n = f.resolution, f.dimension

    def scales():
        c = 1
        while c <= m:
            side = c / m
            weight = side ** (-alpha) if alpha else 1.0
            if family.sidelength_only:
                dev = np.abs(family.apply_B_scale(f, side).values)
                stat = sliding_cube_means(np.stack([np.power(dev, x) for x in ps]), c, n)
            else:
                stat = np.empty((len(ps),) + f.values.shape)
                for ix, dev in _anchored_deviations(f, c):
                    for j, x in enumerate(ps):
                        stat[j][ix] = np.power(dev, x).mean(axis=1)
            yield c, np.stack([weight * np.power(s, 1.0 / x) for s, x in zip(stat, ps)])
            c *= 2

    best = scale_sweep_max(scales(), n)
    return Field(best[0]) if single else [Field(b) for b in best]


def bmo_seminorm(family: OscillationFamily, f: Field, p: float, alpha: float = 0.0) -> float:
    """sup over admissible cubes of the (weighted) p-oscillation; equals
    the sup of the sharp maximal field."""
    return float(np.max(sharp_maximal(family, f, p, alpha).values))
