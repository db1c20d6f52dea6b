"""Oscillation-operator families and their empirical off-diagonal profiles.

Three families are provided:

* ``classical-average``   B_Q f = f - f_Q chi_Q
* ``extended-average``    B_Q f = f - f_Q chi_{2Q}
* ``semigroup``           B_Q f = (I - e^{-l(Q)^2 L})^N f

for a divergence-form elliptic generator L = -div(A(x) grad).  Constant
coefficient operators act spectrally (the exact Fourier multiplier of the
continuous generator, restricted to grid modes); variable coefficients use a
conservative finite-difference stencil and Crank-Nicolson stepping with
prefactored sparse solves.  Both paths annihilate constants and conserve the
mean exactly, because the stencil is in flux form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
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
        self._lu_cache: dict = {}
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
            fh = np.fft.fftn(f.values)
            out = np.fft.ifftn(self.symbol() * fh)
            return Field(out if (self.is_complex or f.is_complex) else out.real)
        flat = self.matrix() @ f.values.ravel()
        out = flat.reshape(f.values.shape)
        return Field(out if (self.is_complex or f.is_complex) else out.real)

    def cn_factor(self, dt: float):
        key = round(dt, 18)
        if key not in self._lu_cache:
            m_mat = self.matrix().astype(np.complex128 if self.is_complex else np.float64)
            eye = sp.identity(m_mat.shape[0], dtype=m_mat.dtype, format="csc")
            lhs = (eye + (dt / 2.0) * m_mat).tocsc()
            rhs = (eye - (dt / 2.0) * m_mat).tocsr()
            if len(self._lu_cache) > 3:
                self._lu_cache.clear()
            self._lu_cache[key] = (spla.splu(lhs), rhs, lhs)
        return self._lu_cache[key]


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


def default_time_step(op: EllipticOperator, t: float) -> float:
    """Crank-Nicolson step: min(t/16, h^2/2) at cube scale, relaxed for long
    horizons where the damping bound t h^2 / dt^2 >~ 128 still holds."""
    h = op.h
    base = min(t / 16.0, h * h / 2.0)
    relaxed = h * math.sqrt(t) / 16.0
    return min(t / 16.0, max(base, relaxed))


def semigroup_apply(op: EllipticOperator, t: float, f: Field, dt: Optional[float] = None) -> Field:
    """e^{-tL} f: exact multiplier when A is constant, Crank-Nicolson otherwise."""
    if t < 0:
        raise ParameterError(f"time must be nonnegative, got {t}")
    if t == 0.0:
        return f
    if op.is_constant:
        fh = np.fft.fftn(f.values)
        out = np.fft.ifftn(np.exp(-t * op.symbol()) * fh)
        return Field(out if (op.is_complex or f.is_complex) else out.real)
    return _crank_nicolson(op, t, f, dt)


def _crank_nicolson(op: EllipticOperator, t: float, f: Field, dt: Optional[float]) -> Field:
    step = dt if dt is not None else default_time_step(op, t)
    nsteps = max(1, int(math.ceil(t / step - 1e-12)))
    step = t / nsteps
    lu, rhs, lhs = op.cn_factor(step)
    want_pos = (not op.is_complex) and (not f.is_complex) and bool(np.min(f.values) >= 0)
    u = f.values.ravel().astype(np.complex128 if op.is_complex else np.float64)
    b = u
    for _ in range(nsteps):
        b = rhs @ u
        u = lu.solve(b)
    res = np.linalg.norm(lhs @ u - b)  # residual of the final solve
    scale = np.linalg.norm(b) + 1e-300
    if res / scale > 1e-10:
        raise NumericError(f"sparse solve residual {res / scale:.2e} exceeds 1e-10")
    out = u.reshape(f.values.shape)
    if not (op.is_complex or f.is_complex):
        out = out.real
        if want_pos:
            floor = -1e-10 * float(np.max(np.abs(f.values)) + 1e-300)
            if float(np.min(out)) < floor and (dt is None or dt > op.h ** 2 / 8):
                warnings.warn("positivity violated; refining Crank-Nicolson step")
                return _crank_nicolson(op, t, f, step / 4.0)
    return Field(out)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def u_s_apply(
    op: EllipticOperator, s: float, big_n: int, f: Field, panels: int = 4, dt: Optional[float] = None
) -> Field:
    """U_s f = (average of e^{-lambda L} over [0, s])^N f.

    The time average is a composite 16-node Gauss-Legendre quadrature with
    ``panels`` panels per application.
    """
    if s <= 0:
        raise ParameterError("s must be positive")
    if big_n < 1:
        raise ParameterError("N must be >= 1")
    width = s / panels
    g = f
    for _ in range(big_n):
        acc = np.zeros_like(g.values, dtype=np.complex128)
        for p in range(panels):
            mid = (p + 0.5) * width
            for node, wgt in zip(_GL_NODES, _GL_WEIGHTS):
                lam_t = mid + 0.5 * width * node
                acc = acc + (wgt * 0.5 * width / s) * semigroup_apply(op, lam_t, g, dt).values
        g = Field(acc if (op.is_complex or g.is_complex) else acc.real)
    return g


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
    dt: Optional[float] = None
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
            g = Field(g.values - semigroup_apply(self.operator, t, g, self.dt).values)
        return g


def make_family(
    kind: str,
    exponents: tuple[float, float],
    operator: Optional[EllipticOperator] = None,
    big_n: Optional[int] = None,
    dt: Optional[float] = None,
) -> OscillationFamily:
    return OscillationFamily(
        kind=kind,
        p0=float(exponents[0]),
        q0=float(exponents[1]),
        operator=operator,
        big_n=1 if big_n is None else int(big_n),
        dt=dt,
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
