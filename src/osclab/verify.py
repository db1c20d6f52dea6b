"""Theorem harnesses: check hypotheses and measure conclusion constants.

Each harness takes concrete (family, field, functional, weight) material at
one or more grid resolutions, measures the constant in the corresponding
self-improvement statement, and applies a stability pass rule: measured
constants must be finite and vary by at most a slack factor (2 by default)
across the resolution ladder.  No absolute thresholds are asserted; the
statements fix the shape of the inequality, the grid supplies the constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from osclab._support import ParameterError, rng_from_seed
from osclab.cubes import (
    Cube,
    cube_wraps,
    dilate,
    full_torus,
    torus_grid_adapted_to,
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
    exp_luxemburg_norm,
    lp_average,
    maximal_function,
    weak_lq_norm,
)
from osclab.operators import OscillationFamily, sharp_maximal
from osclab.weights import Weight

STABILITY_SLACK = 2.0


# ---------------------------------------------------------------------------
# cube samples and building blocks
# ---------------------------------------------------------------------------


def make_cube_sample(
    dimension: int, m: int, min_cells: int = 8, off_dyadic: int = 32, seed: int = 0
) -> list[Cube]:
    """All dyadic cubes of >= min_cells per axis plus seeded off-dyadic cubes.

    Dyadic-only sampling can hide translation effects, hence the off-lattice
    extras; the seed makes the sample reproducible.
    """
    cubes: list[Cube] = []
    side_cells = m
    while side_cells >= min_cells:
        step = side_cells
        for idx in np.ndindex(*(m // step,) * dimension):
            cubes.append(Cube(tuple(i * step / m for i in idx), side_cells / m))
        side_cells //= 2
    rng = rng_from_seed(seed)
    lo = int(math.log2(min_cells))
    hi = max(lo + 1, int(math.log2(m)))
    for _ in range(off_dyadic):
        c = 2 ** int(rng.integers(lo, hi))
        anchor = tuple(int(rng.integers(0, m)) / m for _ in range(dimension))
        cubes.append(Cube(anchor, c / m))
    return cubes


def measured_oscillation(f: Field, cubes: Sequence[Cube]) -> ConstantFunctional:
    """Constant functional holding the measured oscillation sup_Q mean_Q |f - f_Q|."""
    best = 0.0
    for q in cubes:
        vals = f.restrict(q)
        best = max(best, float(np.abs(vals - vals.mean()).mean()))
    return ConstantFunctional(best)


def two_q_functional(a: Functional) -> DilationSeries:
    """The conclusion denominator a(2Q) as a one-term dilation series."""
    return DilationSeries(a, Coeffs("table", values=[0.0, 1.0]), start=1, kind="two-q-of")


def _b_field_cache(family: OscillationFamily, f: Field) -> Callable[[Cube], Field]:
    cache: dict = {}

    def get(q: Cube) -> Field:
        key = round(q.side * 2 ** 40) if family.sidelength_only else (q.anchor, q.side)
        if key not in cache:
            cache[key] = family.apply_B(f, q)
        return cache[key]

    return get


@dataclass
class Rung:
    """Everything a harness needs at one grid resolution.

    ``denominator`` is the conclusion right-hand side evaluated at Q (wrap
    the 2Q dilation inside it when the statement asks for one); ``partner``
    optionally carries the un-dilated pair functional for the two-functional
    condition.
    """

    m: int
    field: Field
    family: OscillationFamily
    hypothesis: Functional
    denominator: Functional
    cube_sample: list[Cube]
    weight: Optional[Weight] = None
    partner: Optional[Functional] = None


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
    rows: list
    saturated_cubes: int
    side_reduction: bool

    def to_dict(self) -> dict:
        return {
            "constant": self.constant,
            "k0_constant": self.k0_constant,
            "saturated_cubes": self.saturated_cubes,
            "side_reduction": self.side_reduction,
            "rows": len(self.rows),
        }


def check_hypothesis(
    family: OscillationFamily,
    f: Field,
    a: Functional,
    cube_sample: Sequence[Cube],
    k_max: int = 4,
    weight: Optional[Weight] = None,
) -> HypothesisReport:
    """sup over sampled (Q, k) of (mean_{2^k Q} |B_Q f|^{p0})^{1/p0} / a(2^k Q).

    For families depending only on the sidelength the k = 0 restriction is
    also reported: together with a summability condition on ``a`` it already
    implies the full hypothesis, so the pair of constants documents the
    reduction.
    """
    m = f.resolution
    p0 = family.p0
    get_b = _b_field_cache(family, f)
    rows = []
    best = 0.0
    best_k0 = 0.0
    saturated = 0
    for q in cube_sample:
        bf = get_b(q)
        for k in range(0, k_max + 1):
            d = dilate(q, float(2 ** k), m) if k else None
            cube_k = q if k == 0 else d.cube
            num = lp_average(bf, cube_k, p0, weight)
            den = a.eval(cube_k)
            ratio = math.inf if (den == 0.0 and num > 0.0) else (num / den if den else 0.0)
            rows.append((q.to_dict(), k, num, den, ratio))
            best = max(best, ratio)
            if k == 0:
                best_k0 = max(best_k0, ratio)
            if k and d.saturated:
                saturated += 1
                break
    return HypothesisReport(
        constant=best,
        k0_constant=best_k0,
        rows=rows,
        saturated_cubes=saturated,
        side_reduction=family.sidelength_only,
    )


# ---------------------------------------------------------------------------
# weak / strong / exponential improvement
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    name: str
    hypothesis_constant: float
    conclusion_constant: float
    per_resolution: dict
    passed: bool
    warnings: list = dc_field(default_factory=list)
    rows: list = dc_field(default_factory=list)
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "hypothesis_constant": self.hypothesis_constant,
            "conclusion_constant": self.conclusion_constant,
            "per_resolution": {str(k): v for k, v in sorted(self.per_resolution.items())},
            "passed": self.passed,
            "warnings": list(self.warnings),
            "extras": self.extras,
        }


def _conclusion_sweep(
    rung: Rung,
    norm_fn: Callable[[Field, Cube], float],
) -> tuple[float, list]:
    """Worst ratio of the conclusion norm against the denominator functional.

    The denominator is evaluated at Q itself; statements whose right-hand
    side lives on a dilate (e.g. the expanded functional at 2Q) wrap that
    dilation inside the functional.  Rows carry a flag bitmask recording
    whether the companion 2Q dilation saturated (bit 0) or wrapped around
    the torus seam (bit 1).
    """
    m = rung.m
    get_b = _b_field_cache(rung.family, rung.field)
    best = 0.0
    rows = []
    for q in rung.cube_sample:
        bf = get_b(q)
        num = norm_fn(bf, q)
        two_q = dilate(q, 2.0, m)
        den = rung.denominator.eval(q)
        ratio = math.inf if (den == 0.0 and num > 0.0) else (num / den if den else 0.0)
        flags = int(two_q.saturated) | (2 * int(cube_wraps(two_q.cube)))
        rows.append((m, q.to_dict(), num, den, ratio, flags))
        best = max(best, ratio)
    return best, rows


def verify_weak_improvement(
    rungs: Sequence[Rung],
    q: float,
    condition_report: Optional[ConditionReport],
    name: str = "weak-improvement",
    k_max: int = 3,
) -> VerifyReport:
    """Weak-type conclusion constant sup_Q ||B_Q f||_{L^{q,inf},Q} / denom(2Q)."""
    if condition_report is None:
        raise ParameterError("a summability condition report is required")
    if not math.isfinite(condition_report.measured_constant):
        raise ParameterError("condition report carries an infinite constant")
    per_res = {}
    rows = []
    hyp = 0.0
    warnings = []
    for rung in rungs:
        hyp_rep = check_hypothesis(rung.family, rung.field, rung.hypothesis, rung.cube_sample, k_max)
        hyp = max(hyp, hyp_rep.constant)
        if hyp_rep.saturated_cubes:
            warnings.append(f"m={rung.m}: {hyp_rep.saturated_cubes} saturated dilations")
        best, rung_rows = _conclusion_sweep(
            rung, lambda bf, q_cube: weak_lq_norm(bf, q_cube, q, rung.weight)
        )
        per_res[rung.m] = best
        rows.extend(rung_rows)
    conclusion = max(per_res.values())
    stable = _stable(per_res)
    if not stable and rows:
        worst = max(rows, key=lambda row: row[4] if math.isfinite(row[4]) else math.inf)
        warnings.append(f"ladder instability; worst cube m={worst[0]} {worst[1]}")
    return VerifyReport(
        name=name,
        hypothesis_constant=hyp,
        conclusion_constant=conclusion,
        per_resolution=per_res,
        passed=math.isfinite(hyp) and stable,
        warnings=warnings,
        rows=rows,
        extras={"q": q, "condition": condition_report.to_dict()},
    )


def verify_strong(
    rungs: Sequence[Rung],
    q: float,
    r: float,
    condition_report: Optional[ConditionReport],
    name: str = "strong-improvement",
) -> VerifyReport:
    """Strong-norm constant at exponent r < q plus the exact weak/strong link.

    On every sampled cube the L^r norm is checked against the weak-L^q norm
    times (q/(q-r))^{1/r}; the worst slack of that inequality is reported.
    """
    if not (r < q):
        raise ParameterError(f"need r < q, got r={r}, q={q}")
    if condition_report is None:
        raise ParameterError("a summability condition report is required")
    factor = (q / (q - r)) ** (1.0 / r)
    per_res = {}
    rows = []
    hyp = 0.0
    worst_gap = -math.inf
    for rung in rungs:
        hyp_rep = check_hypothesis(rung.family, rung.field, rung.hypothesis, rung.cube_sample, 2)
        hyp = max(hyp, hyp_rep.constant)

        def strong_norm(bf: Field, q_cube: Cube) -> float:
            nonlocal worst_gap
            strong = lp_average(bf, q_cube, r, rung.weight)
            weak = weak_lq_norm(bf, q_cube, q, rung.weight)
            worst_gap = max(worst_gap, strong - factor * weak)
            return strong

        best, rung_rows = _conclusion_sweep(rung, strong_norm)
        per_res[rung.m] = best
        rows.extend(rung_rows)
    scale = max((row[2] for row in rows), default=1.0) or 1.0
    kolmogorov_ok = worst_gap <= 1e-10 * scale
    return VerifyReport(
        name=name,
        hypothesis_constant=hyp,
        conclusion_constant=max(per_res.values()),
        per_resolution=per_res,
        passed=math.isfinite(hyp) and _stable(per_res) and kolmogorov_ok,
        rows=rows,
        extras={"q": q, "r": r, "kolmogorov_factor": factor, "kolmogorov_ok": kolmogorov_ok},
    )


def verify_exponential(
    rungs: Sequence[Rung],
    dinf_report: ConditionReport,
    name: str = "exponential",
) -> VerifyReport:
    """Exponential-class constant sup_Q ||B_Q f||_{expL,Q} / denom(2Q).

    Refuses to run unless the supplied condition report certifies the
    quasi-increasing property (the theorem hypothesis); the weighted variant
    runs when the rung carries a weight.
    """
    if dinf_report.condition != "Dinf" or not dinf_report.passed:
        raise ParameterError("exponential harness requires a passing Dinf condition report")
    per_res = {}
    rows = []
    hyp = 0.0
    for rung in rungs:
        hyp_rep = check_hypothesis(rung.family, rung.field, rung.hypothesis, rung.cube_sample, 2)
        hyp = max(hyp, hyp_rep.constant)
        best, rung_rows = _conclusion_sweep(
            rung, lambda bf, q_cube: exp_luxemburg_norm(bf, q_cube, rung.weight)
        )
        per_res[rung.m] = best
        rows.extend(rung_rows)
    return VerifyReport(
        name=name,
        hypothesis_constant=hyp,
        conclusion_constant=max(per_res.values()),
        per_resolution=per_res,
        passed=math.isfinite(hyp) and _stable(per_res),
        rows=rows,
        extras={"weighted": any(r.weight is not None for r in rungs),
                "dinf_constant": dinf_report.measured_constant},
    )


def exponential_denominator(a: Functional, profile) -> DilationSeries:
    """Conclusion series of the exponential statement built from the profile."""
    return DilationSeries(a, eta_exponential(profile), start=1, kind="eta-exp-of")


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

    def to_dict(self) -> dict:
        return {
            "c0": self.c0,
            "rows": [list(r) for r in self.rows],
            "whitney": self.whitney,
            "whitney_prop_constant": self.whitney_prop_constant,
            "identity_defect": self.identity_defect,
            "passed": self.passed,
            "warnings": list(self.warnings),
        }


def verify_good_lambda(
    rung: Rung,
    q_cube: Cube,
    s_mult: float,
    lam: float,
    q_exp: float,
    t_points: int = 20,
) -> GoodLambdaReport:
    """Measure the level-set inequality behind the weak-type conclusion.

    With G = |B_Q^2 f| chi_{2Q} and Omega_t the superlevel sets of M_{p0} G,
    each probed t yields the triple (|Omega_{st} cap Q|, structural term,
    tail term) and the smallest constant making the inequality hold.  In the
    non-trivial branch the level set is Whitney-decomposed on the dyadic grid
    adapted to Q and the decomposition invariants are recorded.
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
    alt = bq.values - fam.apply_A(bq, q_cube).values  # B_Q - A_Q B_Q
    scale = float(np.max(np.abs(bq2.values)) + 1e-300)
    identity_defect = float(np.max(np.abs(bq2.values - alt))) / scale

    two_q = dilate(q_cube, 2.0, m).cube
    g_vals = np.zeros_like(np.abs(bq2.values))
    ix = np.ix_(*two_q.cell_arrays(m))
    g_vals[ix] = np.abs(bq2.values)[ix]
    mg = maximal_function(Field(g_vals), p0).values

    denom = rung.denominator.eval(q_cube)
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
        rows = [(float(t), "trivial", 0.0, 0.0, math.inf, 0.0) for t in ts]
        return GoodLambdaReport(
            c0=0.0,
            rows=[(t, b, l, s, 0.0, c) for (t, b, l, s, _unused, c) in rows],
            whitney=[],
            whitney_prop_constant=0.0,
            identity_defect=identity_defect,
            passed=True,
        )
    t_lo = 0.25 * t_switch
    t_hi = max(0.98 * t_max, t_switch * 1.05)
    ts = np.logspace(math.log10(t_lo), math.log10(t_hi), t_points)

    in_q = np.zeros_like(mg, dtype=bool)
    in_q[np.ix_(*q_cube.cell_arrays(m))] = True
    grid = torus_grid_adapted_to(q_cube, m)

    rows = []
    whitney = []
    prop_const = 0.0
    warnings = []
    struct_factor = (lam / s_mult) ** p0 + (0.0 if math.isinf(q0) else s_mult ** (-q0))
    g_field = Field(g_vals)
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
            cubes = whitney_decompose(omega_t, grid)
            chk = whitney_check(omega_t, cubes, m)
            chk["t"] = float(t)
            whitney.append(chk)
            for w_cube in cubes:
                if w_cube.disjoint_from(q_cube):
                    continue
                k = 0
                while True:
                    d = dilate(w_cube, float(2 ** k), m) if k else None
                    cube_k = w_cube if k == 0 else d.cube
                    prop_const = max(
                        prop_const, lp_average(g_field, cube_k, p0) / t
                    )
                    if k and d.saturated:
                        break
                    k += 1
    branches = {r[1] for r in rows}
    finite = all(math.isfinite(r[5]) for r in rows)
    invariants_ok = all(
        chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
        for chk in whitney
    )
    passed = (
        finite
        and branches == {"trivial", "whitney"}
        and len(whitney) >= 1
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

    def to_dict(self) -> dict:
        return {
            "situation": self.situation,
            "seminorms": {
                str(m): {str(i): {str(p): v for p, v in d.items()} for i, d in per.items()}
                for m, per in self.seminorms.items()
            },
            "ratios": {str(m): {str(i): v for i, v in per.items()} for m, per in self.ratios.items()},
            "monotone_ok": self.monotone_ok,
            "jn2_constant": self.jn2_constant,
            "passed": self.passed,
        }


def verify_bmo_equivalence(
    rungs: Sequence[BmoRung],
    ps: Sequence[float],
    s_exp: float,
    alpha: float = 0.0,
    jn2_on_smallest: bool = True,
) -> BmoReport:
    """p-independence of the oscillation BMO seminorms.

    Requires a family depending only on the sidelength, or a local family
    with the replacement identity; otherwise the equivalence has no backing
    statement and the harness refuses.  Also measures the pointwise constant
    in the comparison of the p-sharp maximal against M_s of the p0-sharp
    maximal.
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
    seminorms: dict = {}
    ratios: dict = {}
    monotone_ok = True
    for rung in rungs:
        per_field: dict = {}
        per_ratio: dict = {}
        for i, f in enumerate(rung.fields):
            vals = {}
            for p in ps:
                vals[p] = float(np.max(sharp_maximal(rung.family, f, p, alpha).values))
            seq = [vals[p] for p in ps]
            for lo, hi in zip(seq, seq[1:]):
                if lo > hi * (1 + 1e-12):
                    monotone_ok = False
            top, bot = max(seq), min(seq)
            per_field[i] = vals
            per_ratio[i] = 1.0 if top == 0.0 else (math.inf if bot == 0.0 else top / bot)
        seminorms[rung.m] = per_field
        ratios[rung.m] = per_ratio
    # pointwise comparison on the smallest rung (cost control)
    jn2 = 0.0
    target = min(rungs, key=lambda r: r.m) if jn2_on_smallest else rungs[-1]
    for f in target.fields:
        base = sharp_maximal(target.family, f, target.family.p0, 0.0)
        maj = maximal_function(base, s_exp).values
        for p in ps:
            if p == target.family.p0:
                continue
            num = sharp_maximal(target.family, f, p, 0.0).values
            mask = maj > 0
            if mask.any():
                jn2 = max(jn2, float(np.max(num[mask] / maj[mask])))
            if bool((~mask).any()) and float(np.max(num[~mask])) > 1e-12:
                jn2 = math.inf
    per_field_stable = True
    ms = sorted(ratios)
    for i in range(len(rungs[0].fields)):
        vals = [ratios[m][i] for m in ms]
        if any(not math.isfinite(v) for v in vals):
            per_field_stable = False
        elif max(vals) / min(vals) > STABILITY_SLACK:
            per_field_stable = False
    return BmoReport(
        situation=situation,
        seminorms=seminorms,
        ratios=ratios,
        monotone_ok=monotone_ok,
        jn2_constant=jn2,
        passed=monotone_ok and per_field_stable and math.isfinite(jn2),
    )
