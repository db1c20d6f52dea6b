"""Muckenhoupt and reverse-Holder weight diagnostics on the periodic grid.

A weight is a strictly positive field; its cube masses w(Q) come from a
prefix-sum table, so repeated queries are O(2^n) regardless of cube size.
The A_p / RH_p constants reported here are measured over a declared cube
sample, never claimed as true suprema; the report carries the sample size and
seed so results are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from osclab._support import DataError, ParameterError, rng_from_seed
from osclab.cubes import Cube, SummedAreaTable
from osclab.grid import Field


@dataclass(frozen=True)
class Weight:
    """Positive density with cached cube masses."""

    density: Field

    def __post_init__(self):
        if self.density.is_complex:
            raise DataError("weight density must be real")
        if not np.all(self.density.values > 0):
            raise DataError("weight density must be strictly positive")
        object.__setattr__(self, "_masses", SummedAreaTable(self.density.values))

    @property
    def resolution(self) -> int:
        return self.density.resolution

    @property
    def dimension(self) -> int:
        return self.density.dimension

    def mass(self, q: Cube) -> float:
        """w(Q) = integral of the density over the cube (cell sums, exact)."""
        m = self.resolution
        raw = self._masses.box_sum(q.anchor_cells(m), q.cells_per_axis(m))
        return raw * self.density.cell_volume

    def mass_of_cells(self, mask: np.ndarray) -> float:
        return float(self.density.values[mask].sum()) * self.density.cell_volume

    def restrict(self, q: Cube) -> np.ndarray:
        return self.density.restrict(q)


def ones_weight(dimension: int, m: int) -> Weight:
    return Weight(Field(np.ones((m,) * dimension)))


@dataclass
class WeightReport:
    """Measured A_p / RH_p constants plus the comparison exponent theta."""

    ap: dict
    rh: dict
    theta: float
    cubes_sampled: int
    seed: int
    ainf_probe_r: float = 2.0
    ainf_probe_constant: float = math.inf

    def to_dict(self) -> dict:
        return {
            "ap": {str(k): v for k, v in sorted(self.ap.items())},
            "rh": {str(k): v for k, v in sorted(self.rh.items())},
            "theta": self.theta,
            "cubes_sampled": self.cubes_sampled,
            "seed": self.seed,
            "ainf_probe_r": self.ainf_probe_r,
            "ainf_probe_constant": self.ainf_probe_constant,
        }


def ap_constant_on_cube(w: Weight, q: Cube, p: float) -> float:
    """Defining A_p ratio on a single cube (ess-inf form when p = 1)."""
    vals = w.restrict(q)
    mean = float(vals.mean())
    if p == 1.0:
        return mean / float(vals.min())
    if p <= 1.0:
        raise ParameterError(f"A_p needs p >= 1, got {p}")
    pprime = p / (p - 1.0)
    dual = float(np.power(vals, 1.0 - pprime).mean()) ** (p - 1.0)
    return mean * dual


def rh_constant_on_cube(w: Weight, q: Cube, p: float) -> float:
    """Defining reverse-Holder ratio on a single cube."""
    if p <= 1.0:
        raise ParameterError(f"RH_p needs p > 1, got {p}")
    vals = w.restrict(q)
    return float(np.power(vals, p).mean()) ** (1.0 / p) / float(vals.mean())


def _theta_fit(w: Weight, cubes: Sequence[Cube], rng: np.random.Generator) -> float:
    """Largest theta with w(S)/w(Q) <= 4 (|S|/|Q|)^theta over sampled subsets.

    Subsets are dyadic subcubes plus random cell subsets of each sampled cube;
    the constraint bound is exact on the sample, then clamped to (0, 1].
    """
    m = w.resolution
    xs, ys = [], []
    log4 = math.log(4.0)
    for q in cubes:
        wq = w.mass(q)
        cells = q.cell_arrays(m)
        count = q.cell_count(m)
        flat_density = w.density.values[np.ix_(*cells)].ravel()
        vol_cell = w.density.cell_volume
        for frac in (0.5, 0.25, 0.0625):
            k = max(1, int(round(count * frac)))
            if k >= count:
                continue
            for _ in range(2):
                pick = rng.choice(count, size=k, replace=False)
                ws = float(flat_density[pick].sum()) * vol_cell
                xs.append(math.log(k / count))
                ys.append(math.log(ws / wq))
    theta = 1.0
    for x, y in zip(xs, ys):
        if x < -1e-12:
            theta = min(theta, (y - log4) / x)
    return max(min(theta, 1.0), 1e-9)


def weight_report(
    w: Weight,
    ps: Sequence[float],
    cube_sample: Sequence[Cube],
    seed: int = 0,
    ainf_probe_r: float = 2.0,
) -> WeightReport:
    """Measure A_p and RH_p constants over the sample and fit theta.

    A_infinity membership is probed (not decided) by the finiteness of the
    measured RH constant at the report parameter ``ainf_probe_r``.
    """
    if not cube_sample:
        raise ParameterError("cube sample must be nonempty")
    for pv in ps:
        if pv < 1.0:
            raise ParameterError(f"A_p exponents must be >= 1, got {pv}")
    ap = {}
    rh = {}
    for pv in ps:
        ap[pv] = max(ap_constant_on_cube(w, q, pv) for q in cube_sample)
        if pv > 1.0:
            rh[pv] = max(rh_constant_on_cube(w, q, pv) for q in cube_sample)
    probe = max(rh_constant_on_cube(w, q, ainf_probe_r) for q in cube_sample)
    rng = rng_from_seed(seed)
    theta = _theta_fit(w, cube_sample, rng)
    return WeightReport(
        ap=ap,
        rh=rh,
        theta=theta,
        cubes_sampled=len(cube_sample),
        seed=seed,
        ainf_probe_r=ainf_probe_r,
        ainf_probe_constant=probe,
    )


def rh_subset_check(
    w: Weight, q: Cube, subset_mask: np.ndarray, p: float, c: Optional[float] = None
) -> tuple[float, float]:
    """(w(E)/w(Q), C (|E|/|Q|)^{1/p'}) for a cell subset E of Q.

    With C the reverse-Holder constant measured on Q itself the comparison is
    a direct consequence of Holder's inequality, so lhs <= rhs holds exactly.
    """
    m = w.resolution
    inside = np.zeros_like(subset_mask)
    inside[np.ix_(*q.cell_arrays(m))] = True
    if not bool(subset_mask.any()):
        raise ParameterError("subset is empty")
    if bool((subset_mask & ~inside).any()):
        raise ParameterError("subset must be contained in the cube")
    if c is None:
        c = rh_constant_on_cube(w, q, p)
    lhs = w.mass_of_cells(subset_mask) / w.mass(q)
    pprime = p / (p - 1.0)
    frac = subset_mask.sum() / q.cell_count(m)
    rhs = c * float(frac) ** (1.0 / pprime)
    return lhs, rhs
