"""Cell-centered fields on the periodic unit box and localized norm computations.

A field holds m^n samples at cell centers ((i+1/2)/m per axis) of the torus
[0,1)^n.  All norms below are taken over a cube Q with respect to the
normalized measure mu/mu(Q), where mu is either the counting measure scaled by
the cell volume h^n or a weighted variant w dx.  Sums are evaluated in a fixed
order (numpy pairwise summation over C-contiguous restrictions), so results do
not depend on scheduling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from osclab._support import DataError, NumericError, ParameterError, build_kind, rng_from_seed
from osclab.cubes import Cube, full_torus

if TYPE_CHECKING:
    from osclab.weights import Weight


def _is_pow2(m: int) -> bool:
    return m >= 1 and (m & (m - 1)) == 0


@dataclass(frozen=True)
class Field:
    """Immutable complex- or real-valued samples on the uniform periodic grid."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.dtype not in (np.float64, np.complex128):
            v = v.astype(np.complex128 if np.iscomplexobj(v) else np.float64)
        if v.ndim < 1:
            raise ParameterError("field values must have at least one axis")
        m = v.shape[0]
        if any(s != m for s in v.shape):
            raise ParameterError(f"field must be square, got shape {v.shape}")
        if not _is_pow2(m):
            raise ParameterError(f"resolution must be a power of two, got {m}")
        v = v.copy()  # contiguous, so a complex array views as float64 pairs
        if not np.all(np.isfinite(v.view(np.float64) if v.dtype == np.complex128 else v)):
            raise DataError("field contains non-finite samples")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def resolution(self) -> int:
        return self.values.shape[0]

    @property
    def h(self) -> float:
        return 1.0 / self.resolution

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dimension

    @property
    def is_complex(self) -> bool:
        return self.values.dtype == np.complex128

    def integral(self) -> complex:
        return self.values.sum() * self.cell_volume

    def restrict(self, q: Cube) -> np.ndarray:
        """Flat C-ordered array of the samples inside ``q``.

        It may be a view of ``values`` (a 1-D cube that does not cross the
        seam, or the whole torus): read it, do not write to it.
        """
        return self.values[q.index(self.resolution)].ravel()

    def torus(self) -> Cube:
        return full_torus(self.dimension)


# The row kernels below take |f| and the cell measures mu on the cells of
# cubes, one C-contiguous row per cube (a (1, N) mu serves every row), and
# reduce along the last axis.  numpy sums each row of such a reduction
# pairwise, as it sums that row alone, so a row's value does not depend on
# the other rows.  The roots and logarithms of the per-row scalars are taken
# one row at a time with Python's float operations.


def power_means(vals: np.ndarray, mu: np.ndarray, p: float) -> np.ndarray:
    """(sum mu |f|^p / sum mu)^(1/p) per row, for finite p > 0; the row max for p = inf."""
    if math.isinf(p):
        return vals.max(axis=-1)
    means = (np.power(vals, p) * mu).sum(axis=-1) / mu.sum(axis=-1)
    return np.array([x ** (1.0 / p) for x in means.tolist()])


def weak_lq_norms(vals: np.ndarray, mu: np.ndarray, q: float) -> np.ndarray:
    """Weak-L^q quasinorm sup_t t (mu{|f|>t}/mu(Q))^{1/q} per row, exact from order statistics.

    On a discrete measure the supremum is attained as t increases to a sample
    value, where the superlevel set is {|f| >= v}; scanning the sorted values
    with their cumulative measures is therefore exact.  A row of zeros has
    norm 0.
    """
    order = np.argsort(-vals, axis=-1, kind="stable")
    vs = np.take_along_axis(vals, order, axis=-1)
    cum = np.cumsum(np.take_along_axis(np.broadcast_to(mu, vals.shape), order, axis=-1), axis=-1)
    norms = np.max(vs * np.power(cum / cum[:, -1:], 1.0 / q), axis=-1)
    return np.where(vs[:, 0] == 0.0, 0.0, norms)


_LOG2 = math.log(2.0)
# Newton steps before the Luxemburg root is declared failed; about five suffice.
_NEWTON_STEPS = 64


def exp_luxemburg_norms(vals: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Luxemburg norm of the exponential Orlicz class per row.

    Solves mean(exp(|f|/lam) - 1) = 1 for lam = 1/s by Newton's method on the
    gauge h(s) = log mean(exp(s|f|)) = log 2, evaluated as s max|f| +
    log mean(exp(s(|f| - max|f|))) so that it cannot overflow.  h is convex
    and increasing, and Jensen's inequality gives h(s0) >= log 2 at s0 =
    log 2 / mean|f|, so the iterates fall monotonically to the root; a row's
    iteration stops at its first step that does not lower s.  A row of zeros
    has norm 0.
    """
    vmax = vals.max(axis=-1)
    out = np.zeros(len(vals))
    live = np.flatnonzero(vmax != 0.0)
    vals, vmax = vals[live], vmax[live]
    mu = np.broadcast_to(mu, (len(live), vals.shape[-1])) if len(mu) == 1 else mu[live]
    nu = mu / mu.sum(axis=-1, keepdims=True)
    below, nu_vals = vals - vmax[:, None], nu * vals
    s = _LOG2 / nu_vals.sum(axis=-1)
    for _ in range(_NEWTON_STEPS):
        if not len(live):
            return out
        tilt = np.exp(s[:, None] * below)
        z = (nu * tilt).sum(axis=-1)
        log_z = np.array([math.log(x) for x in z.tolist()])
        step = (s * vmax + log_z - _LOG2) * z / (nu_vals * tilt).sum(axis=-1)
        done = ~(s - step < s)
        out[live[done]] = 1.0 / s[done]
        keep = ~done
        live, vmax, s = live[keep], vmax[keep], (s - step)[keep]
        below, nu, nu_vals = below[keep], nu[keep], nu_vals[keep]
    if len(live):
        raise NumericError(f"Luxemburg Newton iteration did not converge in {_NEWTON_STEPS} steps")
    return out


def lp_average(f: Field, q: Cube, p: float, w: Optional[Weight] = None) -> float:
    """Normalized L^p average (integral mean of |f|^p over q, to the 1/p):
    ``power_means`` on the one row of q's cells, under the measure of w."""
    if not (p >= 1.0):
        raise ParameterError(f"p must be >= 1, got {p}")
    vals = np.abs(f.restrict(q))
    if w is None:
        mu = np.full(vals.shape, f.cell_volume)
    elif w.density.values.shape != f.values.shape:
        raise ParameterError("weight resolution does not match the field")
    else:
        mu = w.density.restrict(q) * f.cell_volume
    return float(power_means(vals[None], mu[None], p)[0])


def kolmogorov_factor(r: float, q: float) -> float:
    """(q/(q-r))^{1/r}, the constant of Kolmogorov's weak-to-strong inequality."""
    return (q / (q - r)) ** (1.0 / r)


# ---------------------------------------------------------------------------
# Maximal functions over the restricted cube family
# ---------------------------------------------------------------------------
#
# The admissible cubes are grid-aligned with dyadic sidelengths {h, 2h, ..., 1}
# and anchors on the cell lattice.  For a scale of c cells the mean over every
# anchored window comes from a roll-doubling box sum, its central moments
# from roll-doubling pairwise merges, and the supremum over the windows
# containing a given cell is a sliding max over c anchors, again by roll
# doubling.  All three reductions are fixed binary trees, hence exact
# reproducibility.  They act on the trailing ``dimension`` axes only, so a
# stack of fields (one per exponent, say) is reduced in one call; leading
# axes are batch axes.


def _grid_axes(a: np.ndarray, dimension: Optional[int]) -> range:
    n = a.ndim if dimension is None else dimension
    return range(a.ndim - n, a.ndim)


def _box_sum_double(s: np.ndarray, k: int, dimension: Optional[int] = None) -> np.ndarray:
    for ax in _grid_axes(s, dimension):
        s = s + np.roll(s, -k, axis=ax)
    return s


def _anchor_max(a: np.ndarray, c: int, dimension: Optional[int], spare: tuple) -> np.ndarray:
    """The max of ``a`` over the c cells ending at each cell along every grid
    axis, by doubling windows of k cells to 2k, written into the two arrays of
    ``spare`` in turn (a's shape) so no doubling allocates; the result is ``a``
    itself when c = 1, one of ``spare`` otherwise."""
    out = a
    for ax in _grid_axes(a, dimension):
        lead, k = (slice(None),) * ax, 1
        while k < c:
            dst = spare[1] if out is spare[0] else spare[0]
            np.maximum(out[lead + (slice(k, None),)], out[lead + (slice(None, -k),)],
                       out=dst[lead + (slice(k, None),)])
            np.maximum(out[lead + (slice(None, k),)], out[lead + (slice(-k, None),)],
                       out=dst[lead + (slice(None, k),)])
            out, k = dst, 2 * k
    return out


def sliding_cube_means(g: np.ndarray, c: int, dimension: Optional[int] = None) -> np.ndarray:
    """Mean of g over the c-cell cube anchored at each cell (wrapped).

    The cube spans the trailing ``dimension`` axes (all axes by default).
    """
    n = g.ndim if dimension is None else dimension
    s, k = g, 1
    while k < c:
        s = _box_sum_double(s, k, n)
        k *= 2
    return s / float(c ** n)


def sliding_central_moments(g: np.ndarray, dimension: Optional[int] = None):
    """Yield (c, (mean, m2, m3, m4)) for c = 1, 2, 4, ..., m: the normalized
    central moments of g over the c-cell cube anchored at each cell (wrapped).

    The cube spans the trailing ``dimension`` axes (all axes by default).  The
    cube of side 2c is merged from two equal halves along each axis in turn
    by the pairwise updates of Chan, Golub & LeVeque and of Pebay, so no
    E g^2 - (E g)^2 cancellation occurs.
    """
    axes, m = _grid_axes(g, dimension), g.shape[-1]
    zero = np.broadcast_to(0.0, g.shape)  # the moments of one cell, without storage
    mom, c = (g, zero, zero, zero), 1
    del g, zero  # only mom is held between scales
    yield c, mom
    while c < m:
        for ax in axes:
            mom = _merge_halves(mom, c, ax)
        c *= 2
        yield c, mom


def _merge_halves(mom: tuple, c: int, ax: int) -> tuple:
    """Moments of the union of the window at a and the one c cells on along ax.

    With d = mu_b - mu_a (subscript b: the window c cells on):
    mu = mu_a + d/2, m2 = (m2_a + m2_b)/2 + d^2/4,
    m3 = (m3_a + m3_b)/2 + 3/4 d (m2_b - m2_a) and
    m4 = (m4_a + m4_b)/2 + d^4/16 + 3/4 d^2 (m2_a + m2_b) + d (m3_b - m3_a),
    evaluated in place so that few arrays of the input's size are live.
    """
    mu, m2, m3, m4 = mom
    d = np.roll(mu, -c, axis=ax)
    d -= mu
    new4 = np.roll(m4, -c, axis=ax)
    new4 += m4
    new4 *= 0.5  # (m4_a + m4_b)/2
    new3 = np.roll(m3, -c, axis=ax)
    t = new3 - m3
    t *= d
    new4 += t  # + d (m3_b - m3_a)
    new3 += m3
    new3 *= 0.5  # (m3_a + m3_b)/2
    new2 = np.roll(m2, -c, axis=ax)
    np.subtract(new2, m2, out=t)
    t *= 0.75
    t *= d
    new3 += t  # + 3/4 d (m2_b - m2_a)
    new2 += m2  # m2_a + m2_b
    np.multiply(d, d, out=t)  # d^2
    u = t / 16.0
    u += 0.75 * new2
    u *= t
    new4 += u  # + d^4/16 + 3/4 d^2 (m2_a + m2_b)
    new2 *= 0.5
    t *= 0.25
    new2 += t  # (m2_a + m2_b)/2 + d^2/4
    d *= 0.5
    d += mu  # mu_a + d/2
    return d, new2, new3, new4


def scale_sweep_max(per_scale, dimension: Optional[int] = None) -> np.ndarray:
    """Pointwise max over scales of per-scale anchored stats lifted to cells.

    ``per_scale`` yields (c, anchored_array) pairs where anchored_array[a] is
    the statistic of the cube of c cells anchored at a; the result at cell x
    is the max of the statistic over all admissible cubes containing x.  The
    cubes span the trailing ``dimension`` axes (all axes by default).
    """
    out = None
    for c, arr in per_scale:
        if out is None:
            spare = (np.empty_like(arr), np.empty_like(arr))  # every scale's doublings reuse them
            out = np.array(_anchor_max(arr, c, dimension, spare))  # a copy: arr is the caller's
        else:
            np.maximum(out, _anchor_max(arr, c, dimension, spare), out=out)
    return out


def maximal_function(f: Field, p: float = 1.0) -> Field:
    """Hardy-Littlewood type maximal function M_p f = M(|f|^p)^{1/p}.

    The supremum ranges over the restricted cube family above; the single-cell
    cube is included, so M_p f >= |f| pointwise.
    """
    if not (p >= 1.0) or math.isinf(p):
        raise ParameterError(f"p must be finite and >= 1, got {p}")
    g = np.power(np.abs(f.values), p)
    m = f.resolution

    def scales():
        s, c = g, 1
        yield c, s / 1.0
        while c < m:
            s = _box_sum_double(s, c)
            c *= 2
            yield c, s / float(c ** f.dimension)

    best = scale_sweep_max(scales())
    return Field(np.power(best, 1.0 / p))


# ---------------------------------------------------------------------------
# Built-in field formulas
# ---------------------------------------------------------------------------


def _grids(dimension: int, m: int) -> list[np.ndarray]:
    """Cell-center coordinates ((i + 1/2)/m), one array per axis, meshed in 2-D."""
    x = (np.arange(m) + 0.5) / m
    return np.meshgrid(*[x] * dimension, indexing="ij") if dimension > 1 else [x]


def _per_axis(value, dimension: int, key: str) -> list:
    values = value if isinstance(value, (list, tuple)) else [value] * dimension
    if len(values) != dimension:
        raise ParameterError(f"{key} needs one entry or {dimension}, got {value!r}")
    return values


def _distance(dimension: int, m: int, center) -> np.ndarray:
    """Sup-norm torus distance of each cell center from ``center``, floored at 1e-300."""
    dist = None
    for gaxis, c in zip(_grids(dimension, m), _per_axis(center, dimension, "center")):
        d = np.abs(gaxis - float(c)) % 1.0
        d = np.minimum(d, 1.0 - d)
        dist = d if dist is None else np.maximum(dist, d)
    return np.maximum(dist, 1e-300)


# Field builders: (dimension, m, seed, *, the kind's config keys).


def _fourier_mode(dimension: int, m: int, seed: int, *, k=1, complex=True) -> Field:
    ks = _per_axis(k, dimension, "k")
    z = np.exp(sum(2.0j * np.pi * float(ki) * gi for ki, gi in zip(ks, _grids(dimension, m))))
    return Field(z if complex else z.real)


def _random_smooth(dimension: int, m: int, seed: int, *, band=4, scale=1.0) -> Field:
    band = int(band)
    grids = _grids(dimension, m)
    rng = rng_from_seed(seed)
    vals = np.zeros((m,) * dimension)
    for kvec in np.ndindex(*(2 * band + 1,) * dimension):
        kv = [ki - band for ki in kvec]
        if all(ki == 0 for ki in kv):
            continue
        amp = rng.normal() / (1.0 + sum(ki * ki for ki in kv))
        phase = rng.uniform(0, 2 * np.pi)
        arg = sum(2.0 * np.pi * ki * gi for ki, gi in zip(kv, grids))
        vals = vals + amp * np.cos(arg + phase)
    return Field(float(scale) * vals)


def _random_normal(dimension: int, m: int, seed: int, *, complex=False) -> Field:
    rng = rng_from_seed(seed)
    vals = rng.normal(size=(m,) * dimension)
    return Field(vals + 1j * rng.normal(size=(m,) * dimension) if complex else vals)


def _indicator(dimension: int, m: int, seed: int, *, cube) -> Field:
    vals = np.zeros((m,) * dimension)
    vals[Cube.from_dict(cube).index(m)] = 1.0
    return Field(vals)


def _spike(dimension: int, m: int, seed: int, *, amp=10.0, cell=None) -> Field:
    """Ones plus ``amp`` at ``cell`` (default: the first cell)."""
    cell = (0,) * dimension if cell is None else tuple(int(i) for i in cell)
    if len(cell) != dimension or not all(0 <= i < m for i in cell):
        raise ParameterError(f"cell must index a cell of the {m}^{dimension} grid, got {cell!r}")
    vals = np.ones((m,) * dimension)
    vals[cell] += float(amp)
    return Field(vals)


#: field kind -> builder
FIELDS = {
    "constant": lambda dimension, m, seed, *, value=1.0: Field(np.full((m,) * dimension, float(value))),
    "log-distance": lambda dimension, m, seed, *, center=0.5: Field(np.log(_distance(dimension, m, center))),
    "fourier-mode": _fourier_mode,
    "random-smooth": _random_smooth,
    "random-normal": _random_normal,
    "indicator": _indicator,
    "power-distance": lambda dimension, m, seed, *, gamma, center=0.5: Field(
        np.power(_distance(dimension, m, center), float(gamma))),
    "spike": _spike,
}


def make_field(kind: str, dimension: int, m: int, seed: int = 0, **params) -> Field:
    """The field of kind ``kind`` (a key of ``FIELDS``) with that kind's keys ``params``."""
    return build_kind(FIELDS, {**params, "kind": kind}, "field", dimension, m, seed)
