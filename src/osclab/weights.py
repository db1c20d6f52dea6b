"""Muckenhoupt and reverse-Holder weight diagnostics on the periodic grid.

A weight is a strictly positive field; its cube masses w(Q) come from a
prefix-sum table, so repeated queries are O(2^n) regardless of cube size.
The A_p / RH_p constants reported here are measured over a declared cube
sample, never claimed as true suprema; the report carries the sample size and
seed so results are reproducible.  The row kernels ``ap_ratios`` and
``rh_ratios`` read them from the density gathered on the sample's blocks,
one C-ordered row per cube, each row as the cube's own restriction reads.
Cubes are lattice rows (c, a_1, ..., a_n) of the weight's 1/m lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from osclab._support import DataError, ParameterError, rng_from_seed
from osclab.cubes import SummedAreaTable, cell_rows, cube_blocks
from osclab.grid import Field

#: the exponent r of the A_infinity probe: the RH_r constant over the sample
AINF_PROBE_R = 2.0


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

    def mass(self, c: int, anchor: Sequence[int]) -> float:
        """w(Q) = integral of the density over the cube of c cells per axis at
        the anchor cells ``anchor`` (cell sums, exact)."""
        return self._masses.box_sum(anchor, c) * self.density.cell_volume


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
    ainf_probe_constant: float = math.inf
    ainf_probe_r: float = AINF_PROBE_R


def ap_ratios(rows: np.ndarray, p: float) -> list[float]:
    """Defining A_p ratio of each density row (ess-inf form when p = 1)."""
    means = rows.mean(axis=-1).tolist()
    if p == 1.0:
        return [mean / low for mean, low in zip(means, rows.min(axis=-1).tolist())]
    if p <= 1.0:
        raise ParameterError(f"A_p needs p >= 1, got {p}")
    pprime = p / (p - 1.0)
    duals = np.power(rows, 1.0 - pprime).mean(axis=-1).tolist()
    return [mean * dual ** (p - 1.0) for mean, dual in zip(means, duals)]


def rh_ratios(rows: np.ndarray, p: float) -> list[float]:
    """Defining reverse-Holder ratio of each density row."""
    if p <= 1.0:
        raise ParameterError(f"RH_p needs p > 1, got {p}")
    highs = np.power(rows, p).mean(axis=-1).tolist()
    return [high ** (1.0 / p) / mean for high, mean in zip(highs, rows.mean(axis=-1).tolist())]


def _theta_fit(w: Weight, cubes: np.ndarray, rows: Sequence[np.ndarray], rng: np.random.Generator) -> float:
    """Largest theta with w(S)/w(Q) <= 4 (|S|/|Q|)^theta over sampled subsets.

    Subsets are random cell subsets of each sampled cube, drawn from its
    density row cube by cube in sample order; the constraint bound is exact
    on the sample, then clamped to (0, 1].
    """
    xs, ys = [], []
    log4 = math.log(4.0)
    vol_cell = w.density.cell_volume
    for (c, *anchor), flat_density in zip(cubes.tolist(), rows):
        wq = w.mass(c, anchor)
        count = flat_density.size
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
    cube_sample: np.ndarray,
    seed: int = 0,
) -> WeightReport:
    """Measure A_p and RH_p constants over the lattice rows ``cube_sample`` and
    fit theta.

    The row kernels read every constant from the density gathered on the
    sample's blocks, one row per cube, in parts of at most ``ROW_CELLS``
    cells.  A_infinity membership is probed (not decided) by the finiteness
    of the measured RH constant at ``AINF_PROBE_R``, measured once.
    """
    if not len(cube_sample):
        raise ParameterError("cube sample must be nonempty")
    m, density = w.resolution, w.density.values.ravel()
    ap = dict.fromkeys(ps, 0.0)
    rh = dict.fromkeys([pv for pv in ps if pv > 1.0] + [AINF_PROBE_R], 0.0)
    rows = {}
    for block in cube_blocks(cube_sample):
        for part in block.parts(block.c, w.dimension):
            part_rows = density[cell_rows(part.anchors, part.c, m)]
            for pv in ap:
                ap[pv] = max(ap[pv], *ap_ratios(part_rows, pv))
            for pv in rh:
                rh[pv] = max(rh[pv], *rh_ratios(part_rows, pv))
            rows.update(zip(part.members.tolist(), part_rows))
    probe = rh[AINF_PROBE_R] if AINF_PROBE_R in ps else rh.pop(AINF_PROBE_R)
    theta = _theta_fit(w, cube_sample, [rows[i] for i in range(len(cube_sample))], rng_from_seed(seed))
    return WeightReport(ap=ap, rh=rh, theta=theta, cubes_sampled=len(cube_sample), seed=seed,
                        ainf_probe_constant=probe)


def rh_subset_check(w: Weight, c: int, anchor: Sequence[int], subset_mask: np.ndarray,
                    p: float) -> tuple[float, float]:
    """(w(E)/w(Q), C (|E|/|Q|)^{1/p'}) for a cell subset E of the cube Q of c
    cells per axis at the anchor cells ``anchor``.

    With C the reverse-Holder constant measured on Q itself the comparison is
    a direct consequence of Holder's inequality, so lhs <= rhs holds exactly.
    """
    if not bool(subset_mask.any()):
        raise ParameterError("subset is empty")
    cells = cell_rows(np.array([anchor]), c, w.resolution)
    if subset_mask.ravel()[cells].sum() < subset_mask.sum():
        raise ParameterError("subset must be contained in the cube")
    constant = rh_ratios(w.density.values.ravel()[cells], p)[0]
    lhs = float(w.density.values[subset_mask].sum()) * w.density.cell_volume / w.mass(c, anchor)
    pprime = p / (p - 1.0)
    frac = subset_mask.sum() / c ** w.dimension
    rhs = constant * float(frac) ** (1.0 / pprime)
    return lhs, rhs
