"""Batch experiment runner: parse configs, execute harnesses, emit reports.

A config is a JSON document naming the field, family, functional, weight and
harness selection; ``run`` executes the full pipeline (construction, audit,
off-diagonal profiling, condition estimation, theorem harnesses) and writes
JSON/CSV/SVG artifacts whose bytes depend only on (config, seed).  Timing
lives in the manifest, never in the reports, so re-running a config
reproduces every report byte for byte.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from osclab._support import ParameterError, dump_csv, dump_json, format_float, rng_from_seed
from osclab.cubes import Cube, sample_disjoint_families
from osclab.functionals import (
    Coeffs,
    ConditionReport,
    ConstantFunctional,
    DilationSeries,
    ExpandedPoincare,
    PowerFunctional,
    bar_expand,
    estimate_condition,
    eta_alternative,
    tilde_expand,
)
from osclab.grid import Field, _is_pow2, make_field
from osclab.operators import (
    EllipticOperator,
    audit_family,
    make_family,
    measure_offdiagonal,
)
from osclab.verify import (
    BmoRung,
    Rung,
    check_hypothesis,
    exponential_denominator,
    make_cube_sample,
    measured_oscillation,
    two_q_functional,
    verify_bmo_equivalence,
    verify_exponential,
    verify_good_lambda,
    verify_strong,
    verify_weak_improvement,
)
from osclab.weights import Weight, ones_weight, rh_subset_check, weight_report


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


#: every top-level config key the pipeline reads
CONFIG_KEYS = frozenset({
    "name", "dimension", "resolution_ladder", "seed", "field", "family", "functional",
    "exponents", "weight", "cube_sample", "profile", "variant", "harnesses",
    "condition_families", "k_max", "good_lambda", "bmo", "epi",
})


@dataclass
class ExperimentConfig:
    """Validated wrapper around the JSON experiment description."""

    data: dict

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def name(self) -> str:
        return self.data["name"]

    @property
    def dimension(self) -> int:
        return int(self.data["dimension"])

    @property
    def ladder(self) -> list[int]:
        return [int(m) for m in self.data["resolution_ladder"]]

    @property
    def seed(self) -> int:
        return int(self.data.get("seed", 0))

    @property
    def harnesses(self) -> list[str]:
        return self.data.get("harnesses", ["weak"])

    def validate(self) -> None:
        unknown = sorted(set(self.data) - CONFIG_KEYS)
        if unknown:
            raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
        if not isinstance(self.harnesses, list) or not all(isinstance(h, str) for h in self.harnesses):
            raise ParameterError(f"harnesses must be a list of names, got {self.harnesses!r}")
        unknown = sorted(set(self.harnesses) - set(HARNESSES))
        if unknown:
            raise ParameterError(f"unknown harness(es): {', '.join(unknown)}")
        for m in self.ladder:
            if not _is_pow2(m):
                raise ParameterError(f"resolution_ladder: {m} is not a power of two")
        fam = self.data.get("family", {})
        expo = self.data.get("exponents", {})
        p0 = float(fam.get("p0", 1.0))
        q0 = _parse_inf(fam.get("q0", "inf"))
        q = float(expo.get("q", 2.0))
        theorem_harnesses = {"weak", "strong", "exponential", "good-lambda", "pair-dq"}
        if theorem_harnesses & set(self.harnesses):
            if not (p0 < q < q0):
                raise ParameterError(
                    f"exponents must satisfy p0 < q < q0, got p0={p0}, q={q}, q0={q0}"
                )
            r = expo.get("r")
            if r is not None and not (p0 <= float(r) < q):
                raise ParameterError(f"exponents.r must lie in [p0, q), got {r}")

    @staticmethod
    def load(path: str, overrides: Optional[list[str]] = None) -> "ExperimentConfig":
        with open(path) as fh:
            data = json.load(fh)
        for item in overrides or []:
            key, _, raw = item.partition("=")
            if not _:
                raise ParameterError(f"override {item!r} is not of the form key=value")
            _set_dotted(data, key.strip(), _parse_value(raw.strip()))
        cfg = ExperimentConfig(data)
        cfg.validate()
        return cfg


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _parse_inf(v) -> float:
    if isinstance(v, str):
        return math.inf if v in ("inf", "Infinity") else float(v)
    return float(v)


def _set_dotted(data: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = data
    for p in parts[:-1]:
        node = node.setdefault(p, {})
    node[parts[-1]] = value


# ---------------------------------------------------------------------------
# material builders
# ---------------------------------------------------------------------------


def build_operator(spec: dict, dimension: int, m: int) -> EllipticOperator:
    kind = spec.get("kind", "identity")
    lam = float(spec.get("lam", 1.0))
    big_lam = float(spec.get("Lam", max(lam, 1.0)))
    p_minus = float(spec.get("p_minus", 1.0))
    p_plus = _parse_inf(spec.get("p_plus", "inf"))
    if kind == "identity":
        coeffs = np.ones((m,) * dimension)
        return EllipticOperator(coeffs, 1.0, 1.0, dimension, p_minus, p_plus)
    if kind == "constant":
        mat = np.array(spec.get("matrix", np.eye(dimension).tolist()), dtype=complex)
        if np.max(np.abs(mat.imag)) == 0:
            mat = mat.real
        coeffs = np.zeros((dimension, dimension) + (m,) * dimension, dtype=mat.dtype)
        for i in range(dimension):
            for j in range(dimension):
                coeffs[i, j] = mat[i, j]
        return EllipticOperator(coeffs, lam, big_lam, dimension, p_minus, p_plus)
    if kind == "variable-1d":
        if dimension != 1:
            raise ParameterError("variable-1d operator requires dimension 1")
        x = (np.arange(m) + 0.5) / m
        base = float(spec.get("base", 1.25))
        amp = float(spec.get("amp", 0.75))
        coeffs = base + amp * np.cos(2 * np.pi * x)
        return EllipticOperator(coeffs, lam, big_lam, 1, p_minus, p_plus)
    if kind == "complex-perturbed":
        eps = float(spec.get("eps", 0.3))
        coeffs = np.zeros((dimension, dimension) + (m,) * dimension, dtype=complex)
        rng = rng_from_seed(int(spec.get("seed", 0)))
        skew = rng.normal(size=(dimension, dimension))
        skew /= max(1.0, np.linalg.norm(skew, 2))
        for i in range(dimension):
            for j in range(dimension):
                coeffs[i, j] = (1.0 if i == j else 0.0) + 1j * eps * skew[i, j]
        return EllipticOperator(coeffs, lam, big_lam, dimension, p_minus, p_plus)
    raise ParameterError(f"unknown operator kind {kind!r}")


def build_weight(spec: Optional[dict], dimension: int, m: int) -> Optional[Weight]:
    if spec is None:
        return None
    kind = spec.get("kind", "ones")
    if kind == "ones":
        return ones_weight(dimension, m)
    if kind == "power-distance":
        f = make_field("power-distance", dimension, m, center=spec.get("center", 0.5),
                       gamma=float(spec["gamma"]))
        return Weight(f)
    if kind == "spike":
        f = make_field("spike", dimension, m, amp=float(spec.get("amp", 10.0)))
        return Weight(f)
    raise ParameterError(f"unknown weight kind {kind!r}")


def build_family(spec: dict, dimension: int, m: int):
    kind = spec["kind"]
    p0 = float(spec.get("p0", 1.0))
    q0 = _parse_inf(spec.get("q0", "inf"))
    operator = None
    if kind == "semigroup":
        operator = build_operator(spec.get("operator", {"kind": "identity"}), dimension, m)
    return make_family(kind, (p0, q0), operator=operator, big_n=spec.get("N", 1))


def _probe_fields(dimension: int, m: int, seed: int) -> list[Field]:
    rng = rng_from_seed(seed)
    signs = Field(np.sign(rng.normal(size=(m,) * dimension)) + 0.0)
    return [make_field("constant", dimension, m, value=1.0), signs]


def build_profile(cfg: ExperimentConfig, family, m: int):
    spec = cfg.get("profile", {})
    side_cells = int(spec.get("cube_side_cells", max(4, m // 64)))
    anchors = spec.get("anchors", [0.25, 0.5])
    cubes = [Cube((float(a),) * cfg.dimension, side_cells / m) for a in anchors]
    probes = _probe_fields(cfg.dimension, m, cfg.seed + 17)
    prof = measure_offdiagonal(
        family, probes, cubes, k_max=int(spec.get("k_max", 6)),
        pair_levels=int(spec.get("pair_levels", 1)),
    )
    prof.probe_spec["dimension"] = cfg.dimension
    lo, hi = spec.get("fit_range", [3, 6])
    ks = [k for k in range(int(lo), int(hi) + 1) if prof.alpha_at(k) > 0]
    if len(ks) >= 2:
        prof.fit(ks)
    return prof


def build_functional(cfg: ExperimentConfig, f: Field, cubes, weight, m: int):
    spec = cfg.get("functional", {"kind": "measured-oscillation"})
    kind = spec["kind"]
    if kind == "measured-oscillation":
        return measured_oscillation(f, cubes)
    if kind == "constant":
        return ConstantFunctional(float(spec.get("value", 1.0)))
    if kind == "bmo-lipschitz":
        return PowerFunctional(float(spec.get("alpha", 0.0)))
    if kind == "expanded-poincare":
        h = _h_field(spec, cfg.dimension, m, cfg.seed)
        gamma = Coeffs(**spec.get("gamma", {"kind": "geometric", "sigma": 2.0}))
        return ExpandedPoincare(h, float(spec.get("s", 1.0)), gamma, weight,
                                enforce_quasi_decreasing=True)
    raise ParameterError(f"unknown functional kind {kind!r}")


def _h_field(spec: dict, dimension: int, m: int, seed: int) -> Field:
    h_spec = spec.get("h", {"kind": "gradient-of-smooth", "band": 3})
    if h_spec["kind"] == "gradient-of-smooth":
        f = make_field("random-smooth", dimension, m, seed=seed + 5,
                       band=int(h_spec.get("band", 3)))
        return spectral_gradient_magnitude(f, floor=float(h_spec.get("floor", 0.05)))
    f = make_field(h_spec["kind"], dimension, m, seed=seed + 5,
                   **{k: v for k, v in h_spec.items() if k != "kind"})
    return Field(np.abs(f.values) + float(h_spec.get("floor", 0.0)))


def spectral_gradient_magnitude(f: Field, floor: float = 0.0) -> Field:
    """|grad f| computed mode-by-mode, plus a positive floor."""
    m = f.resolution
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    fh = np.fft.fftn(f.values)
    total = np.zeros_like(f.values, dtype=float)
    for ax in range(f.dimension):
        shape = [1] * f.dimension
        shape[ax] = m
        k = freqs.reshape(shape)
        dax = np.fft.ifftn(2j * np.pi * k * fh).real
        total += dax ** 2
    return Field(np.sqrt(total) + floor)


def build_rung(cfg: ExperimentConfig, m: int) -> tuple[Rung, object]:
    dim = cfg.dimension
    f = make_field(**{**cfg["field"], "dimension": dim, "m": m, "seed": cfg.seed})
    family = build_family(cfg["family"], dim, m)
    weight = build_weight(cfg.get("weight"), dim, m)
    cs = cfg.get("cube_sample", {})
    cubes = make_cube_sample(dim, m, int(cs.get("min_cells", 8)),
                             int(cs.get("off_dyadic", 32)), cfg.seed)
    a = build_functional(cfg, f, cubes, weight, m)
    profile = build_profile(cfg, family, m)
    variant = cfg.get("variant", "tilde")
    partner = None
    if variant == "tilde":
        denom = two_q_functional(tilde_expand(a, profile))
    elif variant == "local":
        denom = two_q_functional(a)
    elif variant == "alternative":
        denom = DilationSeries(a, eta_alternative(profile), start=1, kind="eta-alt-of")
    elif variant == "pair":
        if not isinstance(a, ExpandedPoincare):
            raise ParameterError("pair variant requires an expanded-poincare functional")
        theta = 1.0 if weight is None else None
        if theta is None:
            rep = weight_report(weight, [2.0], cubes[: min(24, len(cubes))], cfg.seed)
            theta = rep.theta
        partner = bar_expand(tilde_expand(a, profile).collapse(),
                             float(cfg["exponents"]["q"]), theta)
        denom = two_q_functional(partner)
    else:
        raise ParameterError(f"unknown variant {variant!r}")
    rung = Rung(m=m, field=f, family=family, hypothesis=a, denominator=denom,
                cube_sample=cubes, weight=weight, partner=partner)
    return rung, profile


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


@dataclass
class RunManifest:
    config_path: str
    out_dir: str
    seed: int
    artifacts: list = dc_field(default_factory=list)
    timing: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "config_path": self.config_path,
            "out_dir": self.out_dir,
            "seed": self.seed,
            "artifacts": self.artifacts,
            "timing": self.timing,
        }


def _condition_for(cfg: ExperimentConfig, rung: Rung, q: float):
    roots = [c for c in rung.cube_sample if 0.2 <= c.side <= 0.5][:2] or [rung.cube_sample[0]]
    fams = []
    for i, root in enumerate(roots):
        fams.extend(
            sample_disjoint_families(
                root, int(cfg.get("condition_families", 20)), cfg.seed + i, rung.m,
                field_values=np.abs(rung.field.values),
            )
        )
    return estimate_condition(rung.denominator, "Dr", r=q, mu=rung.weight,
                              families=fams, seed=cfg.seed)


def _dinf_for(cfg: ExperimentConfig, rung: Rung):
    pairs = []
    for q_cube in rung.cube_sample[:24]:
        cells = q_cube.cells_per_axis(rung.m)
        if cells >= 2 and cells % 2 == 0:
            small = Cube(q_cube.anchor, q_cube.side / 2)
            pairs.append((small, q_cube))
    return estimate_condition(rung.hypothesis, "Dinf", cube_pairs=pairs, seed=cfg.seed)


@dataclass
class HarnessContext:
    """What a harness reads: the config, the built rungs and their profiles.

    ``condition`` is the summability report shared by the harnesses in
    ``NEEDS_CONDITION``; the weak harness leaves its per-cube rows in
    ``rows_weak`` for ``rows_weak.csv``.
    """

    cfg: ExperimentConfig
    rungs: list
    profiles: dict
    q: float
    condition: Optional[ConditionReport] = None
    rows_weak: Optional[list] = None


def _hypothesis(ctx: HarnessContext) -> tuple[dict, bool]:
    target = ctx.rungs[-1]
    rep = check_hypothesis(target.family, target.field, target.hypothesis,
                           target.cube_sample, k_max=int(ctx.cfg.get("k_max", 3)))
    return {"hypothesis": rep.to_dict()}, math.isfinite(rep.constant)


def _weak(ctx: HarnessContext) -> tuple[dict, bool]:
    rep = verify_weak_improvement(ctx.rungs, ctx.q, ctx.condition)
    entry = rep.to_dict()
    entry["csv"] = "rows_weak.csv"
    ctx.rows_weak = rep.rows
    return {"weak": entry}, rep.passed


def _strong(ctx: HarnessContext) -> tuple[dict, bool]:
    r = float(ctx.cfg.get("exponents", {}).get("r", (ctx.rungs[0].family.p0 + ctx.q) / 2))
    rep = verify_strong(ctx.rungs, ctx.q, r, ctx.condition)
    return {"strong": rep.to_dict()}, rep.passed


def _exponential(ctx: HarnessContext) -> tuple[dict, bool]:
    dinf = _dinf_for(ctx.cfg, ctx.rungs[0])
    exp_rungs = [
        Rung(r.m, r.field, r.family, r.hypothesis,
             exponential_denominator(r.hypothesis, ctx.profiles[r.m]),
             r.cube_sample, r.weight)
        for r in ctx.rungs
    ]
    rep = verify_exponential(exp_rungs, dinf)
    return {"dinf": dinf.to_dict(), "exponential": rep.to_dict()}, rep.passed


def _good_lambda(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    gl = cfg.get("good_lambda", {})
    q_cube = Cube.from_dict(gl.get("cube", {"anchor": [0.25] * cfg.dimension, "side": 0.25}))
    rep = verify_good_lambda(ctx.rungs[-1], q_cube, float(gl.get("s", 4.0)),
                             float(gl.get("lam", 0.5)), ctx.q, int(gl.get("t_points", 20)))
    return {"good_lambda": rep.to_dict()}, rep.passed


def _bmo(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    bmo = cfg.get("bmo", {})
    ps = [float(p) for p in bmo.get("ps", [1.0, 2.0, 4.0])]
    s_exp = float(bmo.get("s", 8.0))
    seeds = bmo.get("field_seeds", [31, 32, 33, 34, 35])
    per_op = {}
    passed = True
    for op_name, ladder in bmo.get("operators", {"identity": cfg.ladder}).items():
        op_rungs = []
        for m in ladder:
            family = build_family(
                {**cfg["family"], "operator": {"kind": op_name, **bmo.get("operator_params", {})}},
                cfg.dimension, m)
            fields = [make_field("log-distance", cfg.dimension, m, center=0.5)] + [
                make_field("random-smooth", cfg.dimension, m, seed=sd, band=6)
                for sd in seeds[1:]
            ]
            op_rungs.append(BmoRung(m, family, fields))
        rep = verify_bmo_equivalence(op_rungs, ps, s_exp, float(bmo.get("alpha", 0.0)))
        per_op[op_name] = rep.to_dict()
        passed &= rep.passed
    return {"bmo": per_op}, passed


def _pair_dq(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    target = ctx.rungs[0]
    if not isinstance(target.hypothesis, ExpandedPoincare):
        raise ParameterError("pair-dq harness requires an expanded-poincare functional")
    if target.partner is None:
        raise ParameterError("pair-dq harness requires the pair variant")
    tilde = tilde_expand(target.hypothesis, ctx.profiles[target.m]).collapse()
    epi = cfg.get("epi", {})
    root = Cube.from_dict(epi.get("root", {"anchor": [0.0] * cfg.dimension, "side": 0.5}))
    fams = sample_disjoint_families(
        root, int(epi.get("families", 200)), cfg.seed, target.m,
        field_values=np.abs(target.field.values),
    )
    rep = estimate_condition(tilde, "pair", r=ctx.q, mu=target.weight,
                             families=fams, partner=target.partner, seed=cfg.seed)
    return {"pair_dq": rep.to_dict()}, rep.passed


def _hyp_k(ctx: HarnessContext) -> tuple[dict, bool]:
    target = ctx.rungs[0]
    epi = ctx.cfg.get("epi", {})
    bound = float(epi.get("bound_factor", 8.0))
    rep = check_hypothesis(target.family, target.field, target.hypothesis,
                           target.cube_sample, k_max=int(epi.get("k_max", 3)))
    factor = math.inf if rep.k0_constant == 0 else rep.constant / rep.k0_constant
    ok = math.isfinite(factor) and factor <= bound
    return {"hyp_k": {
        "k0_constant": rep.k0_constant,
        "all_k_constant": rep.constant,
        "factor": factor,
        "bound": bound,
        "passed": ok,
    }}, ok


def _weighted_identity(ctx: HarnessContext) -> tuple[dict, bool]:
    target = ctx.rungs[0]
    r_plain = Rung(target.m, target.field, target.family, target.hypothesis,
                   target.denominator, target.cube_sample, None)
    r_ones = Rung(target.m, target.field, target.family, target.hypothesis,
                  target.denominator, target.cube_sample,
                  ones_weight(ctx.cfg.dimension, target.m))
    rep_plain = verify_weak_improvement([r_plain], ctx.q, ctx.condition)
    rep_ones = verify_weak_improvement([r_ones], ctx.q, ctx.condition)
    rows_equal = all(
        a[2] == b[2] and a[3] == b[3] and a[4] == b[4]
        for a, b in zip(rep_plain.rows, rep_ones.rows)
    )
    bitwise = rows_equal and rep_plain.conclusion_constant == rep_ones.conclusion_constant
    return {"weighted_identity": {
        "bitwise_equal": bool(bitwise),
        "conclusion_constant": rep_plain.conclusion_constant,
        "passed": bool(bitwise),
    }}, bitwise


def _rh_sets(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    target = ctx.rungs[-1]
    if target.weight is None:
        raise ParameterError("rh-sets harness requires a weight")
    rng = rng_from_seed(cfg.seed + 41)
    m = target.m
    worst = 0.0
    checked = 0
    for q_cube in target.cube_sample[:16]:
        my_cells = np.zeros((m,) * cfg.dimension, dtype=bool)
        my_cells[np.ix_(*q_cube.cell_arrays(m))] = True
        idx = np.flatnonzero(my_cells.ravel())
        for _ in range(4):
            k = int(rng.integers(1, idx.size + 1))
            pick = rng.choice(idx, size=k, replace=False)
            e = np.zeros(m ** cfg.dimension, dtype=bool)
            e[pick] = True
            lhs, rhs = rh_subset_check(target.weight, q_cube, e.reshape((m,) * cfg.dimension), 2.0)
            worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
            checked += 1
    ok = worst <= 1.0 + 1e-9
    return {"rh_sets": {"checked": checked, "worst_ratio": worst, "passed": ok}}, ok


def _weight_report(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    target = ctx.rungs[-1]
    if target.weight is None:
        raise ParameterError("weight-report harness requires a weight")
    sample = make_cube_sample(cfg.dimension, target.m, 8, 16, cfg.seed)
    rep = weight_report(target.weight, [1.0, 1.5, 2.0, 4.0], sample, cfg.seed)
    return {"weight": rep.to_dict()}, all(math.isfinite(v) for v in rep.ap.values())


#: harness name -> fn(ctx) -> (entries for report["harnesses"], passed), in run order
HARNESSES = {
    "hypothesis": _hypothesis,
    "weak": _weak,
    "strong": _strong,
    "exponential": _exponential,
    "good-lambda": _good_lambda,
    "bmo": _bmo,
    "pair-dq": _pair_dq,
    "hyp-k": _hyp_k,
    "weighted-identity": _weighted_identity,
    "rh-sets": _rh_sets,
    "weight-report": _weight_report,
}

#: harnesses that read the shared summability condition report
NEEDS_CONDITION = {"weak", "strong", "weighted-identity"}


def run_pipeline(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Execute the configured stages; returns (report dict, timing dict)."""
    timing: dict = {}
    t0 = time.perf_counter()
    rungs = []
    profiles = {}
    for m in cfg.ladder:
        rung, prof = build_rung(cfg, m)
        rungs.append(rung)
        profiles[m] = prof
    timing["build"] = time.perf_counter() - t0

    report: dict = {"config": copy.deepcopy(cfg.data), "profiles": {}}
    for m, prof in profiles.items():
        report["profiles"][str(m)] = prof.to_dict()

    t0 = time.perf_counter()
    small = rungs[0]
    pairs = [(Cube(small.cube_sample[0].anchor, small.cube_sample[0].side / 2),
              small.cube_sample[0])]
    probes = _probe_fields(cfg.dimension, small.m, cfg.seed + 23)
    report["audit"] = audit_family(small.family, probes, pairs).to_dict()
    timing["audit"] = time.perf_counter() - t0

    selected = set(cfg.harnesses)
    ctx = HarnessContext(cfg, rungs, profiles, float(cfg.get("exponents", {}).get("q", 2.0)))
    results: dict = {}
    passed = True

    t0 = time.perf_counter()
    if NEEDS_CONDITION & selected:
        ctx.condition = _condition_for(cfg, rungs[0], ctx.q)
        results["condition"] = ctx.condition.to_dict()
    timing["conditions"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for name, harness in HARNESSES.items():
        if name in selected:
            entries, ok = harness(ctx)
            results.update(entries)
            passed &= ok
    timing["harnesses"] = time.perf_counter() - t0

    if ctx.rows_weak is not None:
        report["_rows_weak"] = ctx.rows_weak
    report["harnesses"] = results
    report["passed"] = bool(passed)
    return report, timing


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def profile_svg(profile_dict: dict) -> str:
    """Self-contained SVG of log10 alpha_k against k with the fitted model."""
    alpha = {int(k): v for k, v in profile_dict["alpha"].items() if v > 0}
    fit = profile_dict.get("fit", {})
    width, height, pad = 640, 400, 50
    ks = sorted(alpha)
    if not ks:
        return "<svg xmlns='http://www.w3.org/2000/svg' width='640' height='400'/>"
    logs = {k: math.log10(alpha[k]) for k in ks}
    lo = min(logs.values()) - 0.5
    hi = max(logs.values()) + 0.5
    k_lo, k_hi = min(ks), max(ks)

    def sx(k):
        return pad + (k - k_lo) / max(k_hi - k_lo, 1) * (width - 2 * pad)

    def sy(v):
        return height - pad - (v - lo) / max(hi - lo, 1e-9) * (height - 2 * pad)

    parts = [
        f"<svg xmlns='http://www.w3.org/2000/svg' width='{width}' height='{height}'>",
        f"<rect width='{width}' height='{height}' fill='white'/>",
        f"<line x1='{pad}' y1='{height - pad}' x2='{width - pad}' y2='{height - pad}' stroke='black'/>",
        f"<line x1='{pad}' y1='{pad}' x2='{pad}' y2='{height - pad}' stroke='black'/>",
        f"<text x='{width // 2}' y='{height - 12}' font-size='13'>k (dyadic shell index)</text>",
        f"<text x='10' y='{pad - 16}' font-size='13'>log10 alpha_k</text>",
    ]
    pts = " ".join(f"{format_float(sx(k))},{format_float(sy(logs[k]))}" for k in ks)
    parts.append(f"<polyline points='{pts}' fill='none' stroke='steelblue' stroke-width='2'/>")
    for k in ks:
        parts.append(
            f"<circle cx='{format_float(sx(k))}' cy='{format_float(sy(logs[k]))}' r='4' fill='steelblue'/>"
        )
    rate = fit.get("rate")
    log_c = fit.get("log_c")
    if rate is not None and not (rate != rate):  # not NaN
        fit_pts = []
        for k in ks:
            model = (log_c - rate * 4.0 ** k) / math.log(10.0)
            fit_pts.append(f"{format_float(sx(k))},{format_float(sy(max(model, lo)))}")
        parts.append(
            "<polyline points='" + " ".join(fit_pts)
            + "' fill='none' stroke='darkorange' stroke-width='1.5' stroke-dasharray='6 4'/>"
        )
        parts.append(
            f"<text x='{width - 260}' y='{pad}' font-size='12' fill='darkorange'>"
            f"model: C exp(-c 4^k), c={format_float(rate)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _write_atomic(path: str, text: str) -> None:
    """All-or-nothing write: stage next to ``path``, then rename over it."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def emit_outputs(report: dict, out_dir: str, formats: set[str]) -> list[str]:
    """Write artifacts for a finished report; bytes depend only on its content.

    The report is not modified.  Its ``_rows_weak`` entry feeds
    ``rows_weak.csv`` and is left out of ``report.json``.
    """
    if not report:
        raise ParameterError("nothing to emit")
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def put(name: str, text: str) -> None:
        path = os.path.join(out_dir, name)
        _write_atomic(path, text)
        written.append(path)

    rows_weak = report.get("_rows_weak")
    if "json" in formats:
        put("report.json", dump_json({k: v for k, v in report.items() if k != "_rows_weak"}))
    if "csv" in formats:
        for m, prof in report.get("profiles", {}).items():
            ks = sorted(set(prof["alpha"]) | set((prof.get("beta") or {})), key=int)
            rows = [
                (k, prof["alpha"].get(k, 0.0), (prof.get("beta") or {}).get(k, 0.0))
                for k in ks
            ]
            put(f"profile_m{m}.csv", dump_csv(("k", "alpha_k", "beta_k"), rows))
        if rows_weak:
            rows = [
                (m, json.dumps(cube, sort_keys=True).replace(",", ";"), num, den, ratio, sat)
                for (m, cube, num, den, ratio, sat) in rows_weak
            ]
            put("rows_weak.csv", dump_csv(("m", "cube", "numerator", "denominator", "ratio", "sat_wrap_flags"), rows))
    if "svg" in formats:
        profiles = report.get("profiles", {})
        if profiles:
            biggest = max(profiles, key=int)
            put(f"profile_m{biggest}.svg", profile_svg(profiles[biggest]))
    return written


def run_experiment(config_path: str, out_dir: str, overrides: Optional[list[str]] = None,
                   formats: Optional[set[str]] = None) -> tuple[RunManifest, dict]:
    cfg = ExperimentConfig.load(config_path, overrides)
    report, timing = run_pipeline(cfg)
    files = emit_outputs(report, out_dir, formats or {"json", "csv", "svg"})
    manifest = RunManifest(config_path=config_path, out_dir=out_dir, seed=cfg.seed, timing=timing)
    for path in files:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest.artifacts.append({"name": os.path.basename(path), "sha256": digest})
    _write_atomic(os.path.join(out_dir, "manifest.json"), dump_json(manifest.to_dict()))
    return manifest, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def bundled_config_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "configs", name + ".json")


def _common_args(sub):
    sub.add_argument("--config", required=True, help="path to the experiment JSON (or a bundled name)")
    sub.add_argument("--out", default="out", help="output directory")
    sub.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="dotted-path config override")
    sub.add_argument("--resolution", type=int, default=None,
                     help="replace the resolution ladder by a single value")


def _resolve_config(args) -> tuple[str, list[str]]:
    path = args.config
    if not os.path.exists(path):
        candidate = bundled_config_path(path)
        if os.path.exists(candidate):
            path = candidate
        else:
            raise ParameterError(f"config {args.config!r} not found")
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    if args.resolution is not None:
        overrides.append(f"resolution_ladder=[{args.resolution}]")
    return path, overrides


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="osclab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "profile", "audit", "drcheck"):
        sub = subs.add_parser(name)
        _common_args(sub)
    rep = subs.add_parser("report")
    rep.add_argument("--out", required=True, help="directory holding report.json")
    rep.add_argument("--formats", default="json,csv,svg")
    args = parser.parse_args(argv)

    if args.command == "report":
        with open(os.path.join(args.out, "report.json")) as fh:
            report = json.load(fh)
        emit_outputs(report, args.out, set(args.formats.split(",")))
        return 0

    path, overrides = _resolve_config(args)
    if args.command == "run":
        manifest, report = run_experiment(path, args.out, overrides)
        print(f"wrote {len(manifest.artifacts)} artifacts to {args.out}")
        print(f"passed: {report['passed']}")
        return 0 if report["passed"] else 1

    cfg = ExperimentConfig.load(path, overrides)
    if args.command == "profile":
        m = cfg.ladder[-1]
        family = build_family(cfg["family"], cfg.dimension, m)
        prof = build_profile(cfg, family, m)
        report = {"config": cfg.data, "profiles": {str(m): prof.to_dict()}}
        emit_outputs(report, args.out, {"json", "csv", "svg"})
        print(f"profiled {cfg.name} at m={m}")
        return 0
    if args.command == "audit":
        m = cfg.ladder[0]
        family = build_family(cfg["family"], cfg.dimension, m)
        cubes = make_cube_sample(cfg.dimension, m, off_dyadic=4, seed=cfg.seed)
        pairs = [(Cube(cubes[0].anchor, cubes[0].side / 2), cubes[0])]
        rep = audit_family(family, _probe_fields(cfg.dimension, m, cfg.seed), pairs)
        emit_outputs({"config": cfg.data, "audit": rep.to_dict()}, args.out, {"json"})
        print(dump_json(rep.to_dict()))
        return 0
    if args.command == "drcheck":
        m = cfg.ladder[0]
        rung, _prof = build_rung(cfg, m)
        cond = _condition_for(cfg, rung, float(cfg.get("exponents", {}).get("q", 2.0)))
        emit_outputs({"config": cfg.data, "condition": cond.to_dict()}, args.out, {"json"})
        print(dump_json(cond.to_dict()))
        return 0 if cond.passed else 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
