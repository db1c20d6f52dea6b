"""Cell-centered fields on the periodic unit box and localized norm computations.

A field holds m^n samples at cell centers ((i+1/2)/m per axis) of the torus
[0,1)^n.  All norms below are taken over a cube Q with respect to the
normalized measure mu/mu(Q), where mu is either the counting measure scaled by
the cell volume h^n or a weighted variant w dx.  Sums are evaluated in a fixed
order (numpy pairwise summation over C-contiguous restrictions), so results do
not depend on scheduling.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from osclab._support import DataError, NumericError, ParameterError, rng_from_seed
from osclab.cubes import Cube, full_torus

WeightLike = Union[None, np.ndarray, "object"]


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
        if not np.all(np.isfinite(v.view(np.float64) if v.dtype == np.complex128 else v)):
            raise DataError("field contains non-finite samples")
        v = v.copy()
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
        """Flat C-ordered array of the samples inside ``q``."""
        return self.values[np.ix_(*q.cell_arrays(self.resolution))].ravel()

    def torus(self) -> Cube:
        return full_torus(self.dimension)

    # -- I/O ----------------------------------------------------------------

    def save(self, path_base: str, fmt: str = "bin") -> list[str]:
        """Write samples plus a JSON header; returns the written file names."""
        header = {
            "dimension": self.dimension,
            "resolution": self.resolution,
            "complex": self.is_complex,
            "format": fmt,
        }
        paths = [path_base + ".json"]
        with open(paths[0], "w") as fh:
            json.dump(header, fh, sort_keys=True)
            fh.write("\n")
        if fmt == "bin":
            paths.append(path_base + ".bin")
            self.values.tofile(paths[1])
        elif fmt == "csv":
            paths.append(path_base + ".csv")
            flat = self.values.ravel()
            with open(paths[1], "w") as fh:
                if self.is_complex:
                    for z in flat:
                        fh.write(f"{float(z.real)!r},{float(z.imag)!r}\n")
                else:
                    for x in flat:
                        fh.write(f"{float(x)!r}\n")
        else:
            raise ParameterError(f"unknown field format {fmt!r}")
        return paths

    @staticmethod
    def load(path_base: str) -> "Field":
        with open(path_base + ".json") as fh:
            header = json.load(fh)
        n, m = int(header["dimension"]), int(header["resolution"])
        cplx = bool(header.get("complex", False))
        fmt = header.get("format", "bin")
        shape = (m,) * n
        if fmt == "bin":
            dtype = np.complex128 if cplx else np.float64
            vals = np.fromfile(path_base + ".bin", dtype=dtype).reshape(shape)
        elif fmt == "csv":
            raw = np.loadtxt(path_base + ".csv", delimiter=",", ndmin=2)
            vals = (raw[:, 0] + 1j * raw[:, 1]) if cplx else raw[:, 0]
            vals = vals.reshape(shape)
        else:
            raise ParameterError(f"unknown field format {fmt!r}")
        return Field(vals)


@dataclass(frozen=True)
class NormReport:
    """A localized norm value together with its provenance."""

    value: float
    cube: Cube
    kind: str
    weighted: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise DataError("norm value must be nonnegative")

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "cube": self.cube.to_dict(),
            "kind": self.kind,
            "weighted": self.weighted,
        }


def cell_centers(dimension: int, m: int) -> list[np.ndarray]:
    """Per-axis coordinates of cell centers."""
    x = (np.arange(m) + 0.5) / m
    return [x] * dimension


def _density_values(w: WeightLike) -> Optional[np.ndarray]:
    if w is None:
        return None
    if isinstance(w, np.ndarray):
        return w
    density = getattr(w, "density", None)
    if density is not None:
        return density.values
    raise ParameterError(f"cannot interpret weight object {type(w)!r}")


def _cell_measures(f: Field, q: Cube, w: WeightLike) -> tuple[np.ndarray, np.ndarray]:
    """(|f| samples on q, cell measures) with matching flat ordering."""
    m = f.resolution
    vals = np.abs(f.restrict(q))
    dens = _density_values(w)
    if dens is None:
        mu = np.full(vals.shape, f.cell_volume)
    else:
        if dens.shape != f.values.shape:
            raise ParameterError("weight resolution does not match the field")
        mu = dens[np.ix_(*q.cell_arrays(m))].ravel() * f.cell_volume
    if vals.size == 0:
        raise ParameterError("cube contains no cells at this resolution")
    return vals, mu


def lp_average(f: Field, q: Cube, p: float, w: WeightLike = None) -> float:
    """Normalized L^p average (integral mean of |f|^p over q, to the 1/p)."""
    if not (p >= 1.0):
        raise ParameterError(f"p must be >= 1, got {p}")
    vals, mu = _cell_measures(f, q, w)
    if math.isinf(p):
        return float(vals.max())
    total = float(mu.sum())
    return float((np.power(vals, p) * mu).sum() / total) ** (1.0 / p)


def weak_lq_norm(f: Field, q_cube: Cube, q: float, w: WeightLike = None) -> float:
    """Weak-L^q quasinorm sup_t t (mu{|f|>t}/mu(Q))^{1/q}, exact from order statistics.

    On a discrete measure the supremum is attained as t increases to a sample
    value, where the superlevel set is {|f| >= v}; scanning the sorted values
    with their cumulative measures is therefore exact.
    """
    if not (q > 0):
        raise ParameterError(f"q must be positive, got {q}")
    vals, mu = _cell_measures(f, q_cube, w)
    order = np.argsort(-vals, kind="stable")
    vs = vals[order]
    cum = np.cumsum(mu[order])
    total = cum[-1]
    if vs[0] == 0.0:
        return 0.0
    return float(np.max(vs * np.power(cum / total, 1.0 / q)))


def exp_luxemburg_norm(f: Field, q: Cube, w: WeightLike = None) -> float:
    """Luxemburg norm of the exponential Orlicz class on q.

    Solves mean(exp(|f|/lam) - 1) = 1 for lam by monotone bisection, bracket
    [max|f|/64, 64 max|f|] (expanded when a heavily weighted cube needs it),
    absolute tolerance 1e-10 * max|f|.
    """
    vals, mu = _cell_measures(f, q, w)
    vmax = float(vals.max())
    if vmax == 0.0:
        return 0.0
    nu = mu / mu.sum()

    def phi(lam: float) -> float:
        return float((nu * np.expm1(np.minimum(vals / lam, 700.0))).sum())

    lo, hi = vmax / 64.0, 64.0 * vmax
    guard = 0
    while phi(lo) < 1.0 and guard < 80:
        hi = lo
        lo /= 4.0
        guard += 1
    guard = 0
    while phi(hi) > 1.0 and guard < 80:
        lo = hi
        hi *= 4.0
        guard += 1
    if phi(lo) < 1.0 or phi(hi) > 1.0:
        raise NumericError("Luxemburg bisection bracket could not be established")
    tol = 1e-10 * vmax
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (hi + lo)
        if phi(mid) > 1.0:
            lo = mid
        else:
            hi = mid
    else:
        raise NumericError("Luxemburg bisection failed to converge")
    return float(hi)


def kolmogorov_check(
    f: Field, q_cube: Cube, r: float, q: float, w: WeightLike = None
) -> tuple[float, float]:
    """(L^r average, (q/(q-r))^{1/r} x weak-L^q norm); the first never exceeds the second."""
    if not (0 < r < q):
        raise ParameterError(f"need 0 < r < q, got r={r}, q={q}")
    lhs = lp_average(f, q_cube, r, w) if r >= 1.0 else _lr_quasi_average(f, q_cube, r, w)
    rhs = (q / (q - r)) ** (1.0 / r) * weak_lq_norm(f, q_cube, q, w)
    return lhs, rhs


def _lr_quasi_average(f: Field, q: Cube, r: float, w: WeightLike) -> float:
    vals, mu = _cell_measures(f, q, w)
    return float((np.power(vals, r) * mu).sum() / mu.sum()) ** (1.0 / r)


# ---------------------------------------------------------------------------
# Maximal functions over the restricted cube family
# ---------------------------------------------------------------------------
#
# The admissible cubes are grid-aligned with dyadic sidelengths {h, 2h, ..., 1}
# and anchors on the cell lattice.  For a scale of c cells the mean over every
# anchored window comes from a roll-doubling box sum, and the supremum over
# the windows containing a given cell is a sliding max over c anchors, again
# by roll doubling.  Both reductions are fixed binary trees, hence exact
# reproducibility.


def _box_sum_double(s: np.ndarray, k: int) -> np.ndarray:
    for ax in range(s.ndim):
        s = s + np.roll(s, -k, axis=ax)
    return s


def _anchor_max(a: np.ndarray, c: int) -> np.ndarray:
    out = a
    for ax in range(a.ndim):
        u, k = out, 1
        while k < c:
            u = np.maximum(u, np.roll(u, k, axis=ax))
            k *= 2
        out = u
    return out


def sliding_cube_means(g: np.ndarray, c: int) -> np.ndarray:
    """Mean of g over the c-cell cube anchored at each cell (wrapped)."""
    s, k = g, 1
    while k < c:
        s = _box_sum_double(s, k)
        k *= 2
    return s / float(c ** g.ndim)


def scale_sweep_max(per_scale) -> np.ndarray:
    """Pointwise max over scales of per-scale anchored stats lifted to cells.

    ``per_scale`` yields (c, anchored_array) pairs where anchored_array[a] is
    the statistic of the cube of c cells anchored at a; the result at cell x
    is the max of the statistic over all admissible cubes containing x.
    """
    out = None
    for c, arr in per_scale:
        lifted = _anchor_max(arr, c)
        out = lifted if out is None else np.maximum(out, lifted)
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


def torus_distance(x: np.ndarray, center: float) -> np.ndarray:
    d = np.abs(x - center) % 1.0
    return np.minimum(d, 1.0 - d)


def make_field(kind: str, dimension: int, m: int, seed: int = 0, **params) -> Field:
    """Construct one of the named sample fields used by configs and tests."""
    axes = cell_centers(dimension, m)
    grids = np.meshgrid(*axes, indexing="ij") if dimension > 1 else [axes[0]]
    if kind == "constant":
        return Field(np.full((m,) * dimension, float(params.get("value", 1.0))))
    if kind == "log-distance":
        center = params.get("center", 0.5)
        centers = center if isinstance(center, (list, tuple)) else [center] * dimension
        dist = None
        for gaxis, c in zip(grids, centers):
            d = torus_distance(gaxis, float(c))
            dist = d if dist is None else np.maximum(dist, d)
        return Field(np.log(np.maximum(dist, 1e-300)))
    if kind == "fourier-mode":
        k = params.get("k", 1)
        ks = k if isinstance(k, (list, tuple)) else [k] * dimension
        phase = sum(2.0j * np.pi * float(ki) * gi for ki, gi in zip(ks, grids))
        z = np.exp(phase)
        return Field(z if params.get("complex", True) else z.real)
    if kind == "random-smooth":
        band = int(params.get("band", 4))
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
        scale = float(params.get("scale", 1.0))
        return Field(scale * vals)
    if kind == "random-normal":
        rng = rng_from_seed(seed)
        vals = rng.normal(size=(m,) * dimension)
        if params.get("complex", False):
            vals = vals + 1j * rng.normal(size=(m,) * dimension)
        return Field(vals)
    if kind == "indicator":
        cube = Cube.from_dict(params["cube"])
        vals = np.zeros((m,) * dimension)
        vals[np.ix_(*cube.cell_arrays(m))] = 1.0
        return Field(vals)
    if kind == "power-distance":
        center = params.get("center", 0.5)
        gamma = float(params["gamma"])
        centers = center if isinstance(center, (list, tuple)) else [center] * dimension
        dist = None
        for gaxis, c in zip(grids, centers):
            d = torus_distance(gaxis, float(c))
            dist = d if dist is None else np.maximum(dist, d)
        return Field(np.power(np.maximum(dist, 1e-300), gamma))
    if kind == "spike":
        amp = float(params.get("amp", 10.0))
        vals = np.ones((m,) * dimension)
        cell = params.get("cell", (0,) * dimension)
        vals[tuple(cell)] += amp
        return Field(vals)
    raise ParameterError(f"unknown field kind {kind!r}")
