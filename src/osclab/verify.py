"""Theorem harnesses: check hypotheses and measure conclusion constants.

Each harness takes concrete (family, field, functional, weight) material at
one or more grid resolutions, measures the constant in the corresponding
self-improvement statement, and applies a stability pass rule: measured
constants must be finite and vary by at most the factor STABILITY_SLACK
across the resolution ladder.  No absolute thresholds are asserted; the
statements fix the shape of the inequality, the grid supplies the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from osclab._support import ParameterError, ratio, rng_from_seed
from osclab.cubes import (
    Cube,
    CubeBlock,
    cell_rows,
    cube_blocks,
    dilate,
    whitney_check,
    whitney_decompose,
)
from osclab.functionals import (
    Coeffs,
    ConditionReport,
    ConstantFunctional,
    DilationSeries,
    Functional,
    eta_exponential,
)
from osclab.grid import (
    Field,
    exp_luxemburg_norms,
    kolmogorov_factor,
    maximal_function,
    power_means,
    weak_lq_norms,
)
from osclab.operators import OscillationFamily, sharp_maximal, sharp_seminorms
from osclab.weights import Weight

STABILITY_SLACK = 2.0


# ---------------------------------------------------------------------------
# cube samples and building blocks
# ---------------------------------------------------------------------------


def make_cube_sample(dimension: int, m: int, min_cells: int, off_dyadic: int, seed: int) -> np.ndarray:
    """The lattice rows (c, a_1, ..., a_n) of all dyadic cubes of >= min_cells
    per axis (the generations of the torus, coarsest first, each in C order
    of its anchors) plus seeded off-dyadic cubes.

    Dyadic-only sampling can hide translation effects, hence the off-lattice
    extras; the seed makes the sample reproducible.
    """
    rows = []
    for g in range(m.bit_length()):  # generations down to single cells, whatever min_cells says
        c = m >> g
        if c < min_cells:
            break
        anchors = np.indices((1 << g,) * dimension).reshape(dimension, -1).T * c
        rows.append(np.column_stack([np.full(len(anchors), c), anchors]))
    rng = rng_from_seed(seed)
    lo = int(math.log2(min_cells))
    hi = max(lo + 1, int(math.log2(m)))
    draws = []
    for _ in range(off_dyadic):
        c = 2 ** int(rng.integers(lo, hi))
        draws.append([c] + [int(rng.integers(0, m)) for _ in range(dimension)])
    rows.append(np.array(draws, dtype=np.int64).reshape(-1, 1 + dimension))
    return np.concatenate(rows)


def measured_oscillation(f: Field, cubes: np.ndarray) -> ConstantFunctional:
    """Constant functional holding the measured oscillation sup_Q mean_Q |f - f_Q|
    over the lattice rows ``cubes``."""
    best = 0.0
    m, flat = f.resolution, f.values.ravel()
    for block in cube_blocks(cubes):
        for part in block.parts(block.c, f.dimension):
            vals = flat[cell_rows(part.anchors, part.c, m)]
            best = max(best, float(np.abs(vals - vals.mean(axis=1, keepdims=True)).mean(axis=1).max()))
    return ConstantFunctional(best)


def _dilate_parts(blocks: Sequence[CubeBlock], m: int, n: int, k_max: int):
    """The one walk over the blocks of a cube sample and the dyadic dilates
    of their cubes: each block in its ``parts`` whose rows of its widest
    dilate fit in ROW_CELLS, yielded as (part, its ``dyadic_dilations(m,
    k_max)`` as a list)."""
    for block in blocks:
        widest = list(block.dyadic_dilations(m, k_max))[-1][2]
        for part in block.parts(widest, n):
            yield part, list(part.dyadic_dilations(m, k_max))


def two_q_functional(a: Functional) -> DilationSeries:
    """The conclusion denominator a(2Q) as a one-term dilation series."""
    return DilationSeries(a, Coeffs("table", values=[0.0, 1.0]), start=1)


@dataclass
class Rung:
    """Everything a harness needs at one grid resolution.

    ``denominator`` is the conclusion right-hand side at Q (wrap the 2Q
    dilation inside it when the statement asks for one); it and the
    ``hypothesis`` are evaluated on the sample's blocks
    (``Functional.values``), never one cube at a time.  The harnesses read
    B_Q f on the cells of the sampled cubes and their dilates as gathered
    rows, one block per cell count (``b_rows``); no B_Q f is formed as a
    field, except for a family that depends only on the sidelength, whose
    rows gather from its B field at each side of the sample, all sides from
    one ``apply_B_scales`` call.  ``cache`` holds one memo per rung material
    (m, field, family, hypothesis, cube_sample), keyed by their identities:
    the sample's blocks, those B fields and the walk of the hypothesis over
    the sample (``hypothesis_rows``).  Rungs made from this one by
    ``dataclasses.replace`` share the cache; one with only another
    ``denominator`` or ``weight`` reads the same memo, one with other
    material a memo of its own.  ``cube_sample`` holds the lattice rows
    (c, a_1, ..., a_n) of the sampled cubes.
    """

    m: int
    field: Field
    family: OscillationFamily
    hypothesis: Functional
    denominator: Functional
    cube_sample: np.ndarray
    weight: Optional[Weight] = None
    cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    def _memo(self) -> _Memo:
        """The memo of this rung's material, made on first use."""
        material = (self.field, self.family, self.hypothesis, self.cube_sample)
        key = (self.m, *map(id, material))
        memo = self.cache.get(key)
        if memo is None:
            memo = self.cache[key] = _Memo(material, cube_blocks(self.cube_sample))
        return memo

    def blocks(self) -> list[CubeBlock]:
        """The cube sample as ``CubeBlock``s, one per cell count."""
        return self._memo().blocks

    def b_rows(self, block: CubeBlock):
        """The function (anchor cells, size) -> B_Q f on the cells of the cubes
        of ``size`` cells per axis at those anchors, one C-ordered row per cube
        Q of ``block``: the family's ``b_rows``, or for a family that depends
        only on the sidelength a gather from its B field of that side."""
        if not self.family.sidelength_only:
            return self.family.b_rows(self.field, block)
        memo = self._memo()
        if memo.b_fields is None:
            per_side = self.family.apply_B_scales([b.c / self.m for b in memo.blocks], [self.field])
            memo.b_fields = {b.c: bf.values.ravel() for b, (bf,) in zip(memo.blocks, per_side)}
        b = memo.b_fields[block.c]
        return lambda anchors, size: b[cell_rows(anchors, size, self.m)]

    def hypothesis_rows(self, k_max: int) -> list:
        """The rows (Q, k, num, den, val, saturated) of the hypothesis walk
        over the cube sample up to the 2^{k_max} dilates, walked once per rung;
        Q is the cube's lattice row as a tuple of ints.

        The walk is kept at the deepest ``k_max`` asked for so far; a shallower
        request filters it to k <= k_max, which are the rows a fresh walk gives
        because ``CubeBlock.dyadic_dilations`` yields the same prefix and stops
        at the same saturation.
        """
        memo = self._memo()
        if memo.walk is None or memo.walk[0] < k_max:
            memo.walk = (k_max, self._walk(k_max))
        return [row for row in memo.walk[1] if row[1] <= k_max]

    def _walk(self, k_max: int) -> list:
        """The hypothesis walk up to the 2^{k_max} dilates, part by part of each
        block: on the dyadic dilates 2^k Q of all cubes of a part at once, the
        L^{p0} averages of |B_Q f| and the hypothesis' ``values``; then the
        rows in sample order, Q by Q and k by k."""
        m, n, p0 = self.m, self.field.dimension, self.family.p0
        walked = [None] * len(self.cube_sample)  # per cube: its (k, num, den, saturated)
        for part, dilates in _dilate_parts(self.blocks(), m, n, k_max):
            b_rows = self.b_rows(part)
            per_k = []
            for k, anchors, size, saturated in dilates:
                unit = np.full((1, size ** n), self.field.cell_volume)
                nums = power_means(np.abs(b_rows(anchors, size)), unit, p0).tolist()
                per_k.append((k, nums, self.hypothesis.values(size, anchors, m).tolist(), saturated))
            for j, i in enumerate(part.members.tolist()):
                walked[i] = [(k, nums[j], dens[j], saturated) for k, nums, dens, saturated in per_k]
        return [(tuple(q), k, num, den, ratio(num, den), saturated)
                for q, steps in zip(self.cube_sample.tolist(), walked) for k, num, den, saturated in steps]


class _Memo:
    """What a rung computes once per material: the sample's ``blocks``, a
    sidelength-only family's flat B fields by cell count (``b_fields``) and
    the deepest hypothesis ``walk`` so far, as (k_max, rows).  It holds the
    ``material`` too, so the ids in its key stay unique."""

    def __init__(self, material: tuple, blocks: list[CubeBlock]):
        self.material, self.blocks, self.b_fields, self.walk = material, blocks, None, None


def _stable(per_resolution: dict) -> bool:
    vals = [v for v in per_resolution.values()]
    if not vals or any(not math.isfinite(v) for v in vals):
        return False
    nonzero = [v for v in vals if v > 0]
    if not nonzero:
        return True
    return max(nonzero) / min(nonzero) <= STABILITY_SLACK


# ---------------------------------------------------------------------------
# hypothesis check
# ---------------------------------------------------------------------------


@dataclass
class HypothesisReport:
    constant: float
    k0_constant: float
    rows: int  # how many (Q, k) the walk measured: len(rung.hypothesis_rows(k_max))
    saturated_cubes: int
    side_reduction: bool


def check_hypothesis(rung: Rung, k_max: int) -> HypothesisReport:
    """sup over sampled (Q, k) of (mean_{2^k Q} |B_Q f|^{p0})^{1/p0} / a(2^k Q).

    The hypothesis is unweighted; the rung's weight enters the conclusions
    only.  For families depending only on the sidelength the k = 0
    restriction is also reported: together with a summability condition on
    ``a`` it already implies the full hypothesis, so the pair of constants
    documents the reduction.
    """
    rows = rung.hypothesis_rows(k_max)
    best = 0.0
    best_k0 = 0.0
    for _q, k, _num, _den, val, _saturated in rows:
        best = max(best, val)
        if k == 0:
            best_k0 = max(best_k0, val)
    return HypothesisReport(
        constant=best,
        k0_constant=best_k0,
        rows=len(rows),
        saturated_cubes=sum(row[5] for row in rows),
        side_reduction=rung.family.sidelength_only,
    )


# ---------------------------------------------------------------------------
# weak / strong / exponential improvement
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    hypothesis_constant: float
    conclusion_constant: float
    per_resolution: dict
    passed: bool
    warnings: list
    extras: dict


def _sweep(
    rungs: Sequence[Rung],
    hyp_k_max: int,
    norm: Callable[[np.ndarray, np.ndarray], np.ndarray],
    extras: dict,
) -> tuple[VerifyReport, list]:
    """The rung loop and pass rule of the weak, strong and exponential harnesses.

    Per rung: the hypothesis constant up to the 2^{hyp_k_max} dilates, then
    the worst ratio of the conclusion ``norm`` of B_Q f against the
    denominator functional at Q (statements whose right-hand side lives on a
    dilate, e.g. the expanded functional at 2Q, wrap that dilation inside
    the functional).  Per part of each block of the sample: ``norm``, a row
    kernel of ``osclab.grid``, maps |B_Q f| and the cell measures of the
    rung's weight on Q, one row per cube, to the norms, and the
    denominator's ``values`` give its value at each Q.  Rows (m, the cube's
    lattice row as a tuple, num, den, ratio, flags) carry a flag bitmask recording whether the companion
    2Q dilation saturated (bit 0) or wrapped around the torus seam (bit 1).  The report
    passes on a finite hypothesis constant and a stable ladder; its warnings
    count each rung's saturated dilations and, on an unstable ladder, name
    the worst cube.  Returns the report and the rows.
    """
    hyp = 0.0
    per_res = {}
    rows = []
    warnings = []
    for rung in rungs:
        hyp_rep = check_hypothesis(rung, hyp_k_max)
        hyp = max(hyp, hyp_rep.constant)
        if hyp_rep.saturated_cubes:
            warnings.append(f"m={rung.m}: {hyp_rep.saturated_cubes} saturated dilations")
        m, n, vol = rung.m, rung.field.dimension, rung.field.cell_volume
        density = None if rung.weight is None else rung.weight.density.values
        if density is not None and density.shape != rung.field.values.shape:
            raise ParameterError("weight resolution does not match the field")
        nums, dens = np.empty(len(rung.cube_sample)), np.empty(len(rung.cube_sample))
        flags = np.empty(len(rung.cube_sample), dtype=int)
        for part, _dilates in _dilate_parts(rung.blocks(), m, n, 0):
            q_rows = cell_rows(part.anchors, part.c, m)
            mu = np.full((1, q_rows.shape[1]), vol) if density is None else density.ravel()[q_rows] * vol
            nums[part.members] = norm(np.abs(rung.b_rows(part)(part.anchors, part.c)), mu)
            dens[part.members] = rung.denominator.values(part.c, part.anchors, m)
            two_q, size, saturated = part.dilate(2.0, m)
            flags[part.members] = 1 if saturated else 2 * np.any(two_q + size > m, axis=1)
        best = 0.0
        for q, num, den, flag in zip(rung.cube_sample.tolist(), nums.tolist(), dens.tolist(), flags.tolist()):
            val = ratio(num, den)
            rows.append((m, tuple(q), num, den, val, flag))
            best = max(best, val)
        per_res[rung.m] = best
    stable = _stable(per_res)
    if not stable and rows:
        worst = max(rows, key=lambda row: row[4] if math.isfinite(row[4]) else math.inf)
        warnings.append(f"ladder instability; worst cube m={worst[0]} {Cube.from_row(worst[1], worst[0]).to_dict()}")
    return VerifyReport(
        hypothesis_constant=hyp,
        conclusion_constant=max(per_res.values()),
        per_resolution=per_res,
        passed=math.isfinite(hyp) and stable,
        warnings=warnings,
        extras=extras,
    ), rows


def verify_weak_improvement(
    rungs: Sequence[Rung],
    q: float,
    condition_report: Optional[ConditionReport],
) -> tuple[VerifyReport, list]:
    """Weak-type conclusion constant sup_Q ||B_Q f||_{L^{q,inf},Q} / denom(2Q).

    Returns the report and the sweep's rows, one per rung and sampled cube.
    """
    if condition_report is None:
        raise ParameterError("a summability condition report is required")
    if not math.isfinite(condition_report.measured_constant):
        raise ParameterError("condition report carries an infinite constant")
    return _sweep(rungs, 3, lambda vals, mu: weak_lq_norms(vals, mu, q), {"q": q, "condition": condition_report})


def verify_strong(
    rungs: Sequence[Rung],
    q: float,
    r: float,
    condition_report: Optional[ConditionReport],
) -> VerifyReport:
    """Strong-norm constant at exponent r < q plus the exact weak/strong link.

    On every sampled cube the L^r norm is checked against the weak-L^q norm
    times (q/(q-r))^{1/r}; the worst slack of that inequality is reported.
    """
    if not (0 < r < q):
        raise ParameterError(f"need 0 < r < q, got r={r}, q={q}")
    if condition_report is None:
        raise ParameterError("a summability condition report is required")
    factor = kolmogorov_factor(r, q)
    worst_gap = -math.inf

    def strong_norm(vals: np.ndarray, mu: np.ndarray) -> np.ndarray:
        nonlocal worst_gap
        strong = power_means(vals, mu, r)
        worst_gap = max(worst_gap, float(np.max(strong - factor * weak_lq_norms(vals, mu, q))))
        return strong

    rep, rows = _sweep(rungs, 2, strong_norm, {"q": q, "r": r, "kolmogorov_factor": factor})
    scale = max((row[2] for row in rows), default=1.0) or 1.0
    kolmogorov_ok = worst_gap <= 1e-10 * scale
    rep.extras["kolmogorov_ok"] = kolmogorov_ok
    rep.passed = rep.passed and kolmogorov_ok
    return rep


def verify_exponential(rungs: Sequence[Rung], dinf_report: ConditionReport) -> VerifyReport:
    """Exponential-class constant sup_Q ||B_Q f||_{expL,Q} / denom(2Q).

    Refuses to run unless the supplied condition report certifies the
    quasi-increasing property (the theorem hypothesis); the weighted variant
    runs when the rung carries a weight.
    """
    if dinf_report.condition != "Dinf" or not dinf_report.passed:
        raise ParameterError("exponential harness requires a passing Dinf condition report")
    rep, _rows = _sweep(rungs, 2, exp_luxemburg_norms,
                        {"weighted": any(r.weight is not None for r in rungs),
                         "dinf_constant": dinf_report.measured_constant})
    return rep


def exponential_denominator(a: Functional, profile) -> DilationSeries:
    """Conclusion series of the exponential statement built from the profile."""
    return DilationSeries(a, eta_exponential(profile), start=1)


# ---------------------------------------------------------------------------
# good-lambda harness
# ---------------------------------------------------------------------------


@dataclass
class GoodLambdaReport:
    c0: float
    rows: list  # (t, branch, lhs, structural, tail, c)
    whitney: list  # per-decomposition invariant dicts
    whitney_prop_constant: float
    identity_defect: float
    passed: bool
    warnings: list = dc_field(default_factory=list)


def verify_good_lambda(
    rung: Rung,
    q_cube: Cube,
    s_mult: float,
    lam: float,
    q_exp: float,
    t_points: int,
) -> GoodLambdaReport:
    """Measure the level-set inequality behind the weak-type conclusion.

    With G = |B_Q^2 f| chi_{2Q} and Omega_t the superlevel sets of M_{p0} G,
    each probed t yields the triple (|Omega_{st} cap Q|, structural term,
    tail term) and the smallest constant making the inequality hold.  In the
    non-trivial branch the level set is Whitney-decomposed on the dyadic grid
    adapted to Q and the decomposition invariants are recorded; it passes
    only when a Whitney cube meets Q, so ``whitney_prop_constant`` > 0.
    """
    if not (s_mult > 1.0):
        raise ParameterError("threshold multiplier must exceed 1")
    if not (0.0 < lam < 1.0):
        raise ParameterError("lambda must lie in (0, 1)")
    fam, f, m = rung.family, rung.field, rung.m
    p0, q0 = fam.p0, fam.q0
    vol_cell = f.cell_volume

    bq = fam.apply_B(f, q_cube)
    bq2 = fam.apply_B(bq, q_cube)
    alt = bq.values - (bq.values - bq2.values)  # B_Q - A_Q B_Q, with A_Q = I - B_Q
    scale = float(np.max(np.abs(bq2.values)) + 1e-300)
    identity_defect = float(np.max(np.abs(bq2.values - alt))) / scale

    g_vals = np.where(dilate(q_cube, 2.0, m).cube.mask(m), np.abs(bq2.values), 0.0)
    mg = maximal_function(Field(g_vals), p0).values

    q_row = q_cube.to_row(m)
    denom = rung.denominator.values(q_row[0], np.array([q_row[1:]]), m).tolist()[0]
    if denom <= 0:
        raise ParameterError("conclusion functional vanishes on 2Q")
    # smallest c0 with |Omega_t| <= (c0 denom / t)^{p0} |Q| for all t, computed
    # exactly from the order statistics of M_{p0} G
    flat = np.sort(mg.ravel())[::-1]
    counts = np.arange(1, flat.size + 1) * vol_cell
    with np.errstate(divide="ignore"):
        c0 = float(np.max(flat * counts ** (1.0 / p0)) / (denom * q_cube.volume ** (1.0 / p0)))

    t_switch = c0 * denom
    t_max = float(mg.max())
    if t_max == 0.0 or c0 == 0.0:
        # oscillation vanishes identically: every level set is empty and the
        # inequality is trivial at any threshold
        ts = denom * np.logspace(-2, 1, t_points)
        return GoodLambdaReport(
            c0=0.0,
            rows=[(float(t), "trivial", 0.0, 0.0, 0.0, 0.0) for t in ts],
            whitney=[],
            whitney_prop_constant=0.0,
            identity_defect=identity_defect,
            passed=True,
        )
    t_lo = 0.25 * t_switch
    t_hi = max(0.98 * t_max, t_switch * 1.05)
    ts = np.logspace(math.log10(t_lo), math.log10(t_hi), t_points)

    in_q = q_cube.mask(m)

    rows = []
    whitney = []
    prop_const = 0.0
    warnings = []
    struct_factor = (lam / s_mult) ** p0 + (0.0 if math.isinf(q0) else s_mult ** (-q0))
    g_flat = g_vals.ravel()
    for t in ts:
        omega_t = mg > t
        omega_st = mg > s_mult * t
        lhs = float((omega_st & in_q).sum()) * vol_cell
        structural = struct_factor * float((omega_t & in_q).sum()) * vol_cell
        tail = (c0 * denom / (lam * t)) ** q_exp * q_cube.volume
        c_t = 0.0 if lhs == 0.0 else lhs / (structural + tail)
        branch = "trivial" if t <= t_switch else "whitney"
        rows.append((float(t), branch, lhs, structural, tail, c_t))
        if branch == "whitney" and omega_t.any():
            if omega_t.all():
                warnings.append(f"t={t}: level set is the full torus; skipped")
                continue
            cubes = whitney_decompose(omega_t, q_cube)
            chk = whitney_check(omega_t, cubes, m)
            chk["t"] = float(t)
            whitney.append(chk)
            # the L^{p0} averages of G on every dyadic dilate of the Whitney
            # cubes that meet Q, to saturation (by k = log2 m at the latest):
            # two cubes meet when, on every axis, one's anchor cell lies among
            # the other's cells, mod m
            w_rows = np.array([w_cube.to_row(m) for w_cube in cubes])
            ahead = (np.array(q_row[1:]) - w_rows[:, 1:]) % m
            meets = np.all((ahead < w_rows[:, :1]) | (-ahead % m < q_row[0]), axis=1)
            for _part, dilates in _dilate_parts(cube_blocks(w_rows[meets]), m, f.dimension, m.bit_length()):
                for _k, anchors, size, _saturated in dilates:
                    unit = np.full((1, size ** f.dimension), vol_cell)
                    means = power_means(g_flat[cell_rows(anchors, size, m)], unit, p0)
                    prop_const = max(prop_const, float(means.max()) / t)
    branches = {r[1] for r in rows}
    finite = all(math.isfinite(r[5]) for r in rows)
    invariants_ok = all(
        chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
        for chk in whitney
    )
    if whitney and prop_const == 0.0:
        warnings.append("no Whitney cube meets Q: the Whitney branch measured nothing")
    passed = (
        finite
        and branches == {"trivial", "whitney"}
        and prop_const > 0.0  # a Whitney cube met Q, so a decomposition was measured
        and invariants_ok
    )
    return GoodLambdaReport(
        c0=c0,
        rows=rows,
        whitney=whitney,
        whitney_prop_constant=prop_const,
        identity_defect=identity_defect,
        passed=passed,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# BMO equivalence harness
# ---------------------------------------------------------------------------


@dataclass
class BmoRung:
    m: int
    family: OscillationFamily
    fields: list


@dataclass
class BmoReport:
    situation: str
    seminorms: dict  # m -> field index -> {p: value}
    ratios: dict  # m -> field index -> max/min ratio
    monotone_ok: bool
    jn2_constant: float
    passed: bool


def verify_bmo_equivalence(
    rungs: Sequence[BmoRung],
    ps: Sequence[float],
    s_exp: float,
    alpha: float,
) -> BmoReport:
    """p-independence of the oscillation BMO seminorms.

    Requires a family depending only on the sidelength, or a local family
    with the replacement identity; otherwise the equivalence has no backing
    statement and the harness refuses.  Also measures the pointwise constant
    in the comparison of the p-sharp maximal against M_s of the p0-sharp
    maximal.

    Every rung but the smallest reads its seminorms from sharp_seminorms,
    without the fields.  The pointwise comparison runs on the smallest rung
    (cost control), on one sharp_maximal sweep at alpha = 0 over p0 and ps;
    with alpha = 0 that sweep's sup-norms are also the rung's seminorms.
    """
    fam0 = rungs[0].family
    if fam0.sidelength_only:
        situation = "sidelength-only"
    elif fam0.is_local and fam0.has_replace_comm:
        situation = "local-replacement"
    else:
        raise ParameterError("family matches neither equivalence situation")
    ps = sorted(ps)
    if any(p < fam0.p0 for p in ps):
        raise ParameterError("all exponents must be >= p0")
    if not (ps[-1] < s_exp):
        raise ParameterError("need max(ps) < s for the pointwise comparison")
    target = min(rungs, key=lambda r: r.m)
    p0 = target.family.p0
    jn2_ps = [p for p in ps if p != p0]
    seminorms: dict = {}
    ratios: dict = {}
    monotone_ok = True
    jn2 = 0.0
    for rung in rungs:
        per_field: dict = {}
        per_ratio: dict = {}
        sharps = None
        if rung is target:
            exps = sorted({p0, *ps})
            sharps = [dict(zip(exps, per)) for per in sharp_maximal(rung.family, rung.fields, exps, 0.0)]
        if sharps is not None and alpha == 0.0:
            values = [[float(np.max(sharp[p].values)) for p in ps] for sharp in sharps]
        else:
            values = sharp_seminorms(rung.family, rung.fields, ps, alpha)
        for i, seq in enumerate(values):
            for lo, hi in zip(seq, seq[1:]):
                if lo > hi * (1 + 1e-12):
                    monotone_ok = False
            top, bot = max(seq), min(seq)
            per_field[i] = dict(zip(ps, seq))
            per_ratio[i] = 1.0 if top == 0.0 else (math.inf if bot == 0.0 else top / bot)
            if sharps is None:
                continue
            sharp = sharps[i]
            maj = maximal_function(sharp[p0], s_exp).values
            mask = maj > 0
            for p in jn2_ps:
                num = sharp[p].values
                if mask.any():
                    jn2 = max(jn2, float(np.max(num[mask] / maj[mask])))
                if bool((~mask).any()) and float(np.max(num[~mask])) > 1e-12:
                    jn2 = math.inf
        seminorms[rung.m] = per_field
        ratios[rung.m] = per_ratio
    # each ratio is >= 1 or inf, so _stable's zero filter leaves it alone
    per_field_stable = all(_stable({m: per[i] for m, per in ratios.items()})
                           for i in range(len(rungs[0].fields)))
    return BmoReport(
        situation=situation,
        seminorms=seminorms,
        ratios=ratios,
        monotone_ok=monotone_ok,
        jn2_constant=jn2,
        passed=monotone_ok and per_field_stable and math.isfinite(jn2),
    )
