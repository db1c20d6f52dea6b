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
from dataclasses import asdict, dataclass, field as dc_field, replace
from operator import index
from types import SimpleNamespace
from typing import Iterator, Optional

import numpy as np

from osclab._support import (
    DataError,
    ParameterError,
    build_kind,
    check_keys,
    check_kind,
    dotted,
    dump_csv,
    dump_json,
    format_float,
    report_tree,
    rng_from_seed,
)
from osclab.cubes import Cube, cell_rows, descendant, sample_disjoint_families
from osclab.functionals import (
    COEFFS,
    Coeffs,
    ConditionReport,
    ConstantFunctional,
    DilationSeries,
    PowerFunctional,
    bar_expand,
    estimate_condition,
    eta_alternative,
    expanded_poincare,
    tilde_expand,
)
from osclab.grid import FIELDS, Field, _is_pow2, make_field
from osclab.operators import (
    FAMILY_KINDS,
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
#
# The top level and each fixed section of a config (``SECTIONS``) have one
# reader, and their keys are its keyword-only parameters (``check_keys``).
# Each key is annotated with the function that parses its value; a key
# without one holds a kind-dependent section (``KIND_SECTIONS``) or a fixed
# section.  A default of None is worked out by the reader from its context.


class ExperimentConfig(SimpleNamespace):
    """A loaded config.  ``data`` is its JSON with the overrides applied, as the
    report echoes it; every top-level key is an attribute holding its parsed
    value, and a fixed section's holds the keyword arguments of its reader."""

    @staticmethod
    def load(path: str, overrides: Optional[list[str]] = None) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ParameterError(f"config {path!r} cannot be read: {exc.strerror}") from exc
        except ValueError as exc:
            raise ParameterError(f"config {path!r} is not valid JSON: {exc}") from exc
        for item in overrides or []:
            key, _, raw = item.partition("=")
            if not _:
                raise ParameterError(f"override {item!r} is not of the form key=value")
            if "" in key.strip().split("."):
                raise ParameterError(f"override {item!r} has an empty key")
            _set_dotted(data, key.strip(), _parse_value(raw.strip()))
        keys = _parse_section("", data)
        for where, (table, default_kind) in KIND_SECTIONS.items():
            spec = _get_dotted(keys, where)
            if spec is not None:
                check_kind(table, {"kind": spec} if where == "variant" else spec, where, default_kind)
        validate(**keys)
        return ExperimentConfig(data=data, **keys)


def _parse_section(path: str, spec) -> dict:
    """The keyword arguments that the reader of the fixed section ``path`` takes
    from ``spec``: each key's value, or its default, parsed."""
    keys = {}
    for key, param in check_keys(SECTIONS[path], spec, path).items():
        where = dotted(path, key)
        value = spec.get(key, param.default)
        if where in SECTIONS:
            value = _parse_section(where, value)
        elif param.annotation is not param.empty and (value is not None or param.default is not None):
            value = _parse(where, param.annotation, value)
        keys[key] = value
    return keys


def _parse(where: str, parse, value):
    """``parse(value)``; a value it cannot read raises ParameterError naming ``where``."""
    try:
        return parse(value)
    except (TypeError, ValueError, LookupError, ParameterError) as exc:
        raise ParameterError(f"{where}: {exc}") from exc


def _list(parse, length: Optional[int] = None, nonempty: bool = False):
    """The parser of a JSON list (of ``length`` items, unless None; of at least one,
    if ``nonempty``) whose items ``parse`` reads."""
    def parse_list(value) -> list:
        if not isinstance(value, list) or length not in (None, len(value)) or (nonempty and not value):
            count = f" of {length} items" if length is not None else " of at least one item" if nonempty else ""
            raise ValueError(f"expected a list{count}, got {value!r}")
        return [parse(v) for v in value]
    return parse_list


def _name_in(names):
    """The parser of one of ``names``."""
    def parse_name(value) -> str:
        if not isinstance(value, str) or value not in names:
            raise ValueError(f"unknown name {value!r} (known: {', '.join(names)})")
        return value
    return parse_name


def _count(least: int):
    """The parser of an integer count of at least ``least``."""
    def parse_count(value) -> int:
        n = index(value)
        if n < least:
            raise ValueError(f"{n} is below the least value {least}")
        return n
    return parse_count


def _real(lo: float, hi: float = math.inf, lo_open: bool = False):
    """The parser of a float in [lo, hi), or in (lo, hi) if ``lo_open``."""
    def parse_real(value) -> float:
        x = float(value)
        if not ((lo < x if lo_open else lo <= x) and x < hi):
            raise ValueError(f"{x} is outside {'(' if lo_open else '['}{lo}, {hi})")
        return x
    return parse_real


def _pow2(value) -> int:
    m = index(value)
    if not _is_pow2(m):
        raise ValueError(f"{m} is not a power of two")
    return m


def _increasing(parse_list):
    """The parser of a strictly increasing list that ``parse_list`` reads."""
    def parse_increasing(value) -> list:
        xs = parse_list(value)
        if any(a >= b for a, b in zip(xs, xs[1:])):
            raise ValueError(f"{xs} is not strictly increasing")
        return xs
    return parse_increasing


#: a resolution ladder: a nonempty, strictly increasing list of powers of two
_ladder = _increasing(_list(_pow2, nonempty=True))


def _ladders(value) -> dict:
    """A resolution ladder per operator kind, for at least one kind."""
    ladders = {kind: _ladder(ms) for kind, ms in dict(value).items()}
    if not ladders:
        raise ValueError("needs at least one operator kind")
    return ladders


def _parse_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def _get_dotted(data: dict, path: str):
    node = data
    for p in path.split("."):
        node = node.get(p) if isinstance(node, dict) else None
    return node


def _set_dotted(data: dict, path: str, value) -> None:
    parts = path.split(".")
    node = data
    for i, p in enumerate(parts[:-1]):
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ParameterError(f"override {path!r}: {'.'.join(parts[:i + 1])} is not a section")
    node[parts[-1]] = value


# ---------------------------------------------------------------------------
# material builders
# ---------------------------------------------------------------------------


def _constant_operator(dimension: int, m: int, *, matrix=None) -> EllipticOperator:
    """A(x) = ``matrix`` (default: the identity) at every cell."""
    mat = np.array(np.eye(dimension) if matrix is None else matrix, dtype=complex)
    if mat.shape != (dimension, dimension):
        raise ParameterError(f"matrix must be {dimension}x{dimension}, got shape {mat.shape}")
    mat = mat.real if np.max(np.abs(mat.imag)) == 0 else mat
    return EllipticOperator(np.multiply.outer(mat, np.ones((m,) * dimension)), dimension)  # mat at every cell


def _variable_1d(dimension: int, m: int, *, base=1.25, amp=0.75) -> EllipticOperator:
    """Scalar a(x) = base + amp cos(2 pi x) on the 1-D grid."""
    if dimension != 1:
        raise ParameterError("variable-1d operator requires dimension 1")
    x = (np.arange(m) + 0.5) / m
    return EllipticOperator(float(base) + float(amp) * np.cos(2 * np.pi * x), 1)


def _complex_perturbed(dimension: int, m: int, *, eps=0.3, seed=0) -> EllipticOperator:
    """A = I + i eps S at every cell, S a seeded matrix of 2-norm at most one."""
    skew = rng_from_seed(int(seed)).normal(size=(dimension, dimension))
    skew /= max(1.0, np.linalg.norm(skew, 2))
    coeffs = np.multiply.outer(np.eye(dimension) + 1j * float(eps) * skew, np.ones((m,) * dimension))
    return EllipticOperator(coeffs, dimension)


def _gradient_of_smooth(dimension: int, m: int, seed: int, *, band=3, floor=0.05) -> Field:
    """|grad g| + floor, mode by mode, for the random-smooth field g of seed ``seed + 5``."""
    gh = np.fft.fftn(make_field("random-smooth", dimension, m, seed=seed + 5, band=int(band)).values)
    freqs = np.fft.fftfreq(m, d=1.0 / m)
    total = np.zeros((m,) * dimension)
    for ax in range(dimension):
        k = freqs.reshape([m if i == ax else 1 for i in range(dimension)])
        total += np.fft.ifftn(2j * np.pi * k * gh).real ** 2
    return Field(np.sqrt(total) + float(floor))


def _expanded_poincare(f: Field, cubes, weight, seed: int, *, s=1.0,
                       gamma={"kind": "geometric", "sigma": 2.0}, h={"kind": "gradient-of-smooth"}):
    h_field = build_section("functional.h", h, f.dimension, f.resolution, seed)
    return expanded_poincare(h_field, float(s), Coeffs(**gamma).supified(), weight)


def _pair_functionals(a, profile, weight, cubes, q: float, seed: int):
    """(a~, a-bar) of the pair condition: the tilde expansion of the expanded-Poincare
    ``a`` collapsed onto its base, and the bar expansion of that at exponent ``q``,
    with theta = 1 unweighted and the weight's fitted comparison exponent otherwise."""
    tilde = tilde_expand(a, profile).collapse()
    theta = 1.0 if weight is None else weight_report(weight, [2.0], cubes[:24], seed).theta
    return tilde, bar_expand(tilde, q, theta)


#: operator kind -> builder (dimension, m, *, keys), for ``family.operator`` and
#: each operator of ``bmo.operators``
OPERATORS = {
    "identity": lambda dimension, m: EllipticOperator(np.ones((m,) * dimension), dimension),
    "constant": _constant_operator,
    "variable-1d": _variable_1d,
    "complex-perturbed": _complex_perturbed,
}

#: weight kind -> builder (dimension, m, *, keys)
WEIGHTS = {
    "ones": ones_weight,
    "power-distance": lambda dimension, m, *, gamma, center=0.5: Weight(
        make_field("power-distance", dimension, m, gamma=gamma, center=center)),
    "spike": lambda dimension, m, *, amp=10.0: Weight(make_field("spike", dimension, m, amp=amp)),
}

#: kind of the expanded-Poincare field h -> builder (dimension, m, seed, *, keys)
H_FIELDS = {"gradient-of-smooth": _gradient_of_smooth}

#: functional kind -> builder (field f, cube sample, weight, seed, *, keys)
FUNCTIONALS = {
    "measured-oscillation": lambda f, cubes, weight, seed: measured_oscillation(f, cubes),
    "constant": lambda f, cubes, weight, seed, *, value=1.0: ConstantFunctional(float(value)),
    "bmo-lipschitz": lambda f, cubes, weight, seed, *, alpha=0.0: PowerFunctional(float(alpha)),
    "expanded-poincare": _expanded_poincare,
}

#: variant -> builder (hypothesis a, profile, weight, cube sample, config) ->
#: conclusion denominator; no variant takes keys
VARIANTS = {
    "tilde": lambda a, profile, weight, cubes, cfg: two_q_functional(tilde_expand(a, profile)),
    "local": lambda a, profile, weight, cubes, cfg: two_q_functional(a),
    "alternative": lambda a, profile, weight, cubes, cfg: DilationSeries(a, eta_alternative(profile), start=1),
    "pair": lambda a, profile, weight, cubes, cfg: two_q_functional(
        _pair_functionals(a, profile, weight, cubes, cfg.exponents["q"], cfg.seed)[1]),
}

#: kind-dependent config section -> (builder table, kind of a spec that names
#: none); ``functional.gamma``'s builders make the terms of a ``Coeffs``
KIND_SECTIONS = {
    "field": (FIELDS, None),
    "family.operator": (OPERATORS, "identity"),
    "weight": (WEIGHTS, "ones"),
    "functional": (FUNCTIONALS, "measured-oscillation"),
    "functional.gamma": (COEFFS, None),
    "functional.h": (H_FIELDS, None),
    "variant": (VARIANTS, None),
}


def build_section(path: str, spec: dict, *context):
    """Build ``spec``, a config value of the section ``path``, with its kind's builder;
    data the builder rejects (a nonpositive weight, a non-elliptic operator) is a
    config error, a ParameterError naming ``path``."""
    table, default_kind = KIND_SECTIONS[path]
    try:
        return build_kind(table, spec, path, *context, default_kind=default_kind)
    except DataError as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def _bmo_operators(operators: Optional[dict], operator_params: dict, resolution_ladder: list,
                   family_operator: dict) -> dict:
    """(spec, ladder) per operator kind that the bmo harness runs: each kind of
    ``bmo.operators`` on its ladder or, when that is null, the family's own
    operator ``family_operator`` (its kind and keys) on the resolution ladder.
    A kind of ``bmo.operator_params`` takes its keys from there, and must run."""
    if operators is None:
        own = {"kind": KIND_SECTIONS["family.operator"][1], **(family_operator or {})}
        runs = {own["kind"]: (own, resolution_ladder)}
    else:
        runs = {kind: ({"kind": kind}, ladder) for kind, ladder in operators.items()}
    for kind, (spec, _) in runs.items():
        check_kind(OPERATORS, spec, f"bmo.operators.{kind}")
    for kind, keys in operator_params.items():
        where = f"bmo.operator_params.{kind}"
        if not isinstance(keys, dict) or "kind" in keys:
            raise ParameterError(f"{where} must hold the keys of {kind}, got {keys!r}")
        spec = {**keys, "kind": kind}
        check_kind(OPERATORS, spec, where)
        if kind not in runs:
            raise ParameterError(f"{where}: the bmo harness runs no {kind} operator (it runs: {', '.join(runs)})")
        runs[kind] = (spec, runs[kind][1])
    return runs


def build_family(dimension: int, m: int, *, kind: _name_in(FAMILY_KINDS), p0: float = 1.0,
                 q0: float = "inf", N: _count(1) = 1, operator={}):
    """The family of the ``family`` section; a semigroup's generator is ``operator``."""
    generator = build_section("family.operator", operator, dimension, m) if kind == "semigroup" else None
    return make_family(kind, (p0, q0), operator=generator, big_n=N)


def _exponents(p0: float, *, q: float = 2.0, r: float = None) -> tuple[float, float]:
    """(q, r) of the ``exponents`` section; r defaults to the midpoint of p0 and q."""
    return q, ((p0 + q) / 2 if r is None else r)


def _probe_fields(dimension: int, m: int, seed: int) -> list[Field]:
    rng = rng_from_seed(seed)
    signs = Field(np.sign(rng.normal(size=(m,) * dimension)) + 0.0)
    return [make_field("constant", dimension, m, value=1.0), signs]


def _profile_cells(cube_side_cells, m: int) -> int:
    return max(4, m // 64) if cube_side_cells is None else cube_side_cells


def build_profile(cfg: ExperimentConfig, family, m: int, *, cube_side_cells: _count(1) = None,
                  anchors: _list(_real(0.0, 1.0), nonempty=True) = [0.25, 0.5], k_max: _count(2) = 6,
                  pair_levels: _count(0) = 1, fit_range: _increasing(_list(index, 2)) = [3, 6]):
    """The off-diagonal profile of ``family`` on the cubes of ``cube_side_cells``
    cells (default: max(4, m // 64)) at ``anchors``, fitted over ``fit_range``."""
    cubes = [Cube((a,) * cfg.dimension, _profile_cells(cube_side_cells, m) / m) for a in anchors]
    probes = _probe_fields(cfg.dimension, m, cfg.seed + 17)
    prof = measure_offdiagonal(family, probes, cubes, k_max, pair_levels)
    lo, hi = fit_range
    ks = [k for k in range(lo, hi + 1) if prof.alpha_at(k) > 0]
    if len(ks) >= 2:
        prof.fit_decay(ks)
    return prof


def _cube_sample(dimension: int, m: int, seed: int, *, min_cells: _pow2 = 8,
                 off_dyadic: _count(0) = 32) -> np.ndarray:
    return make_cube_sample(dimension, m, min_cells, off_dyadic, seed)


def build_rung(cfg: ExperimentConfig, m: int) -> tuple[Rung, object]:
    dim, seed = cfg.dimension, cfg.seed
    f = build_section("field", cfg.field, dim, m, seed)
    family = build_family(dim, m, **cfg.family)
    weight = None if cfg.weight is None else build_section("weight", cfg.weight, dim, m)
    cubes = _cube_sample(dim, m, seed, **cfg.cube_sample)
    a = build_section("functional", cfg.functional, f, cubes, weight, seed)
    profile = build_profile(cfg, family, m, **cfg.profile)
    denom = build_section("variant", {"kind": cfg.variant}, a, profile, weight, cubes, cfg)
    rung = Rung(m=m, field=f, family=family, hypothesis=a, denominator=denom,
                cube_sample=cubes, weight=weight)
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


def _condition_for(cfg: ExperimentConfig, rung: Rung, q: float):
    m, sample = rung.m, rung.cube_sample.tolist()
    roots = [row for row in sample if 0.2 <= row[0] / m <= 0.5][:2] or sample[:1]
    fams = [fam for i, root in enumerate(roots)
            for fam in sample_disjoint_families(Cube.from_row(root, m), cfg.condition_families, cfg.seed + i, m,
                                                field_values=np.abs(rung.field.values))]
    return estimate_condition(rung.denominator, "Dr", m, r=q, mu=rung.weight, families=fams, seed=cfg.seed)


def _dinf_for(cfg: ExperimentConfig, rung: Rung):
    """Dinf over the pairs (child at offset 0, cube) of the first 24 sampled cubes of even cell count."""
    pairs = [((c // 2, *a), (c, *a)) for c, *a in rung.cube_sample[:24].tolist() if c >= 2 and c % 2 == 0]
    return estimate_condition(rung.hypothesis, "Dinf", rung.m, cube_pairs=pairs, seed=cfg.seed)


@dataclass
class HarnessContext:
    """What a harness reads: the config, the built rungs and their profiles,
    and the exponents q and r.

    ``condition`` is the summability report shared by the harnesses in
    ``NEEDS_CONDITION``; the weak harness leaves its rows, one
    ``SweepRows`` per rung, in ``rows_weak`` for ``rows_weak.csv``.
    """

    cfg: ExperimentConfig
    rungs: list
    profiles: dict
    q: float
    r: float
    condition: Optional[ConditionReport] = None
    rows_weak: Optional[list] = None


def _hypothesis(ctx: HarnessContext) -> tuple[dict, bool]:
    rep = check_hypothesis(ctx.rungs[-1], ctx.cfg.k_max)
    return {"hypothesis": report_tree(rep)}, math.isfinite(rep.constant)


def _weak(ctx: HarnessContext) -> tuple[dict, bool]:
    rep, ctx.rows_weak = verify_weak_improvement(ctx.rungs, ctx.q, ctx.condition)
    return {"weak": report_tree(rep)}, rep.passed


def _strong(ctx: HarnessContext) -> tuple[dict, bool]:
    rep = verify_strong(ctx.rungs, ctx.q, ctx.r, ctx.condition)
    return {"strong": report_tree(rep)}, rep.passed


def _exponential(ctx: HarnessContext) -> tuple[dict, bool]:
    dinf = _dinf_for(ctx.cfg, ctx.rungs[0])
    exp_rungs = [replace(r, denominator=exponential_denominator(r.hypothesis, ctx.profiles[r.m]))
                 for r in ctx.rungs]
    rep = verify_exponential(exp_rungs, dinf)
    return {"dinf": report_tree(dinf), "exponential": report_tree(rep)}, rep.passed


def _good_lambda(ctx: HarnessContext, *, cube: Cube.from_dict = None, s: _real(1.0, lo_open=True) = 4.0,
                 lam: _real(0.0, 1.0, lo_open=True) = 0.5, t_points: _count(2) = 20) -> tuple[dict, bool]:
    """The good-lambda harness on ``cube`` (default: side 1/4 at 1/4 on each axis)."""
    q_cube = Cube((0.25,) * ctx.cfg.dimension, 0.25) if cube is None else cube
    rep = verify_good_lambda(ctx.rungs[-1], q_cube, s, lam, ctx.q, t_points)
    return {"good_lambda": report_tree(rep)}, rep.passed


def _bmo(ctx: HarnessContext, *, ps: _list(float, nonempty=True) = [1.0, 2.0, 4.0], s: float = 8.0,
         alpha: _real(0.0) = 0.0, field_seeds: _list(index) = [31, 32, 33, 34, 35],
         operators: _ladders = None, operator_params: dict = {}) -> tuple[dict, bool]:
    """The BMO harness per operator kind of ``operators`` (default: the family's
    own operator on the resolution ladder), its keys in ``operator_params``.  The
    fields of each rung are the log-distance field and the random-smooth fields of
    ``field_seeds[1:]``: ``field_seeds[0]`` is not read."""
    cfg = ctx.cfg
    per_op = {}
    passed = True
    runs = _bmo_operators(operators, operator_params, cfg.resolution_ladder, cfg.family["operator"])
    for op_name, (spec, ladder) in runs.items():
        op_rungs = []
        for m in ladder:
            family = build_family(cfg.dimension, m, **{**cfg.family, "operator": spec})
            fields = [make_field("log-distance", cfg.dimension, m, center=0.5)] + [
                make_field("random-smooth", cfg.dimension, m, seed=sd, band=6)
                for sd in field_seeds[1:]
            ]
            op_rungs.append(BmoRung(m, family, fields))
        rep = verify_bmo_equivalence(op_rungs, ps, s, alpha)
        per_op[op_name] = report_tree(rep)
        passed &= rep.passed
    return {"bmo": per_op}, passed


def _epi(dimension: int, *, root: Cube.from_dict = None, families: _count(1) = 200,
         bound_factor: float = 8.0, k_max: _count(0) = 3) -> tuple[Cube, int, float, int]:
    """The keys of the ``epi`` section, read by the pair-dq and hyp-k harnesses;
    ``root`` defaults to the cube of side 1/2 at the origin."""
    return (Cube((0.0,) * dimension, 0.5) if root is None else root), families, bound_factor, k_max


def _pair_dq(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    target = ctx.rungs[0]
    tilde, bar = _pair_functionals(target.hypothesis, ctx.profiles[target.m], target.weight,
                                   target.cube_sample, ctx.q, cfg.seed)
    root, families, _, _ = _epi(cfg.dimension, **cfg.epi)
    fams = sample_disjoint_families(root, families, cfg.seed, target.m,
                                    field_values=np.abs(target.field.values))
    rep = estimate_condition(tilde, "pair", target.m, r=ctx.q, mu=target.weight,
                             families=fams, partner=bar, seed=cfg.seed)
    return {"pair_dq": report_tree(rep)}, rep.passed


def _hyp_k(ctx: HarnessContext) -> tuple[dict, bool]:
    target = ctx.rungs[0]
    _, _, bound, k_max = _epi(ctx.cfg.dimension, **ctx.cfg.epi)
    rep = check_hypothesis(target, k_max)
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
    r_plain = replace(target, weight=None)
    r_ones = replace(target, weight=ones_weight(ctx.cfg.dimension, target.m))
    rep_plain, rows_plain = verify_weak_improvement([r_plain], ctx.q, ctx.condition)
    rep_ones, rows_ones = verify_weak_improvement([r_ones], ctx.q, ctx.condition)
    rows_equal = all(
        np.array_equal(a.num, b.num) and np.array_equal(a.den, b.den) and np.array_equal(a.ratio, b.ratio)
        for a, b in zip(rows_plain, rows_ones)
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
    rng = rng_from_seed(cfg.seed + 41)
    m = target.m
    worst = 0.0
    checked = 0
    for c, *anchor in target.cube_sample[:16].tolist():
        idx = np.sort(cell_rows(np.array([anchor]), c, m)[0])  # the cube's cells in flat order
        for _ in range(4):
            k = int(rng.integers(1, idx.size + 1))
            pick = rng.choice(idx, size=k, replace=False)
            e = np.zeros(m ** cfg.dimension, dtype=bool)
            e[pick] = True
            lhs, rhs = rh_subset_check(target.weight, c, anchor, e.reshape((m,) * cfg.dimension), 2.0)
            worst = max(worst, lhs / rhs if rhs > 0 else math.inf)
            checked += 1
    ok = worst <= 1.0 + 1e-9
    return {"rh_sets": {"checked": checked, "worst_ratio": worst, "passed": ok}}, ok


def _weight_report(ctx: HarnessContext) -> tuple[dict, bool]:
    cfg = ctx.cfg
    target = ctx.rungs[-1]
    rep = weight_report(target.weight, [1.0, 1.5, 2.0, 4.0], target.cube_sample, cfg.seed)
    return {"weight": report_tree(rep)}, all(math.isfinite(v) for v in rep.ap.values())


#: harness name -> fn(ctx) -> (entries for report["harnesses"], passed), in run order
HARNESSES = {
    "hypothesis": _hypothesis,
    "weak": _weak,
    "strong": _strong,
    "exponential": _exponential,
    "good-lambda": lambda ctx: _good_lambda(ctx, **ctx.cfg.good_lambda),
    "bmo": lambda ctx: _bmo(ctx, **ctx.cfg.bmo),
    "pair-dq": _pair_dq,
    "hyp-k": _hyp_k,
    "weighted-identity": _weighted_identity,
    "rh-sets": _rh_sets,
    "weight-report": _weight_report,
}

#: harnesses that read the shared summability condition report
NEEDS_CONDITION = {"weak", "strong", "weighted-identity"}


def validate(*, dimension: index, resolution_ladder: _ladder, field, family, name: str = "",
             seed: index = 0, functional={}, exponents={}, weight=None, cube_sample={}, profile={},
             variant: str = "tilde", harnesses: _list(_name_in(HARNESSES)) = ["weak"],
             condition_families: _count(1) = 20, k_max: _count(0) = 3, good_lambda={}, bmo={},
             epi={}) -> None:
    """The reader of a config's top level (its keys are these parameters): checks what
    no single key decides, a semigroup family's operator, the weight of the rh-sets
    and weight-report harnesses, the bmo operator kinds, the dimension and cell
    lattice of the configured cubes (an indicator field's, good-lambda's and the
    epi root), the cube sample's least side and the profile's anchors against the
    ladder, the profile's cube against every rung, the functional of the pair
    condition, the theorems' exponent window, and the bmo harness's exponents
    against the family's window and its s."""
    if family["kind"] == "semigroup" and family["operator"] is None:
        raise ParameterError("family.operator: a semigroup family needs an operator, got null")
    for harness in ("rh-sets", "weight-report"):
        if weight is None and harness in harnesses:
            raise ParameterError(f"weight: the {harness} harness needs a weight, got null")
    _bmo_operators(bmo["operators"], bmo["operator_params"], resolution_ladder, family["operator"])
    m = min(resolution_ladder)
    if cube_sample["min_cells"] > m:
        raise ParameterError(f"cube_sample.min_cells: {cube_sample['min_cells']} cells exceed the "
                             f"smallest resolution {m}")
    for a in profile["anchors"]:
        if (a * m) % 1:
            raise ParameterError(f"profile.anchors: {a} is not on the 1/{m} cell lattice")
    for mk in resolution_ladder:  # the profile cube, and each nested pair R in it, in whole cells
        cells, levels = _profile_cells(profile["cube_side_cells"], mk), profile["pair_levels"]
        if cells > mk or cells % 2 ** levels:
            raise ParameterError(f"profile.cube_side_cells: a cube of {cells} cells at m = {mk} must fit the "
                                 f"torus and halve profile.pair_levels = {levels} times in whole cells")
    field_cube = _parse("field.cube", Cube.from_dict, field["cube"]) if field["kind"] == "indicator" else None
    for where, cube in (("field.cube", field_cube), ("good_lambda.cube", good_lambda["cube"]),
                        ("epi.root", epi["root"])):
        if cube is not None and cube.dimension != dimension:
            raise ParameterError(f"{where}: a cube of dimension {cube.dimension} in a {dimension}-D config")
        if cube is not None and any((x * m) % 1 for x in (*cube.anchor, cube.side)):
            raise ParameterError(f"{where}: anchor {list(cube.anchor)} and side {cube.side} must lie "
                                 f"on the 1/{m} cell lattice")
    functional_kind = (functional or {}).get("kind", KIND_SECTIONS["functional"][1])
    if (variant == "pair" or "pair-dq" in harnesses) and functional_kind != "expanded-poincare":
        raise ParameterError(f"functional: the pair variant and the pair-dq harness need an "
                             f"expanded-poincare functional, got {functional_kind!r}")
    if {"weak", "strong", "exponential", "good-lambda", "pair-dq"} & set(harnesses):
        p0, q0 = family["p0"], family["q0"]
        q, r = _exponents(p0, **exponents)
        if not (p0 < q < q0):
            raise ParameterError(f"exponents must satisfy p0 < q < q0, got p0={p0}, q={q}, q0={q0}")
        if not (p0 <= r < q):
            raise ParameterError(f"exponents.r must lie in [p0, q), got {r}")
    if "bmo" in harnesses:  # as sharp_maximal and verify_bmo_equivalence read them
        p0, q0, ps = family["p0"], family["q0"], bmo["ps"]
        outside = [p for p in ps if not (p0 <= p and (p < q0 or p == p0))]
        if outside:
            raise ParameterError(f"bmo.ps: {outside} outside the family's window [p0, q0) = [{p0}, {q0})")
        if not max(ps) < bmo["s"]:
            raise ParameterError(f"bmo.s: {bmo['s']} must exceed max(bmo.ps) = {max(ps)}")


#: the reader of each fixed config section ('' is the top level): the keys of
#: the section are its keyword-only parameters
SECTIONS = {"": validate, "family": build_family, "exponents": _exponents, "cube_sample": _cube_sample,
            "profile": build_profile, "good_lambda": _good_lambda, "bmo": _bmo, "epi": _epi}


def run_pipeline(cfg: ExperimentConfig) -> tuple[dict, dict]:
    """Execute the configured stages; returns (report dict, timing dict).

    ``timing`` holds the seconds of the four stages (build, audit, conditions,
    harnesses), plus ``rung[str(m)]``, the build time of each rung, and
    ``harness[name]``, the time of each harness run.
    """
    timing: dict = {"rung": {}, "harness": {}}
    t0 = time.perf_counter()
    rungs = []
    profiles = {}
    for m in cfg.resolution_ladder:
        t_rung = time.perf_counter()
        rung, prof = build_rung(cfg, m)
        timing["rung"][str(m)] = time.perf_counter() - t_rung
        rungs.append(rung)
        profiles[m] = prof
    timing["build"] = time.perf_counter() - t0

    report: dict = {"config": copy.deepcopy(cfg.data), "profiles": report_tree(profiles)}

    t0 = time.perf_counter()
    # the family audit: the pair (half of the first sampled cube, that cube), probes of seed + 23
    small = rungs[0]
    cube = Cube.from_row(small.cube_sample[0].tolist(), small.m)
    probes = _probe_fields(cfg.dimension, small.m, cfg.seed + 23)
    report["audit"] = report_tree(audit_family(small.family, probes,
                                               [(descendant(cube, 1, (0,) * cfg.dimension), cube)]))
    timing["audit"] = time.perf_counter() - t0

    selected = set(cfg.harnesses)
    ctx = HarnessContext(cfg, rungs, profiles, *_exponents(cfg.family["p0"], **cfg.exponents))
    results: dict = {}
    passed = True

    t0 = time.perf_counter()
    if NEEDS_CONDITION & selected:
        ctx.condition = _condition_for(cfg, rungs[0], ctx.q)
        results["condition"] = report_tree(ctx.condition)
    timing["conditions"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    for name, harness in HARNESSES.items():
        if name in selected:
            t_harness = time.perf_counter()
            entries, ok = harness(ctx)
            timing["harness"][name] = time.perf_counter() - t_harness
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
    # float() reads the "nan"/"inf" strings that report.json stores for non-finite values
    alpha = {int(k): float(v) for k, v in profile_dict["alpha"].items() if float(v) > 0}
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
    rate = float(fit.get("rate", math.nan))
    log_c = float(fit.get("log_c", math.nan))
    if math.isfinite(rate):
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


#: the artifact formats emit_outputs writes
FORMATS = {"json", "csv", "svg"}


def _weak_csv_rows(rows_weak: list) -> Iterator[tuple]:
    """The rows of ``rows_weak.csv``, rung by rung and cube by cube: m, the cube
    as ``{"anchor": [a_1/m; ...]; "side": c/m}`` with ``repr`` floats, which
    is ``json.dumps(Cube.from_row(row, m).to_dict(), sort_keys=True)`` with
    each comma made a semicolon, then the numerator, denominator, ratio and
    flags."""
    for r in rows_weak:
        cubes = (r.cubes / r.m).tolist()  # exact: m is a power of two
        for (side, *anchor), num, den, rat, flags in zip(cubes, r.num.tolist(), r.den.tolist(), r.ratio.tolist(),
                                                         r.flags.tolist()):
            cube = '{"anchor": [' + "; ".join(map(repr, anchor)) + ']; "side": ' + repr(side) + "}"
            yield r.m, cube, num, den, rat, flags


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
        if rows_weak and any(len(r.num) for r in rows_weak):
            put("rows_weak.csv", dump_csv(("m", "cube", "numerator", "denominator", "ratio", "sat_wrap_flags"),
                                          _weak_csv_rows(rows_weak)))
    if "svg" in formats:
        profiles = report.get("profiles", {})
        if profiles:
            biggest = max(profiles, key=int)
            put(f"profile_m{biggest}.svg", profile_svg(profiles[biggest]))
    return written


def run_experiment(config_path: str, out_dir: str, overrides: Optional[list[str]] = None) -> tuple[RunManifest, dict]:
    cfg = ExperimentConfig.load(config_path, overrides)
    report, timing = run_pipeline(cfg)
    files = emit_outputs(report, out_dir, FORMATS)
    manifest = RunManifest(config_path=config_path, out_dir=out_dir, seed=cfg.seed, timing=timing)
    for path in files:
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        manifest.artifacts.append({"name": os.path.basename(path), "sha256": digest})
    _write_atomic(os.path.join(out_dir, "manifest.json"), dump_json(asdict(manifest)))
    return manifest, report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def bundled_config_path(name: str) -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(here, "configs", name + ".json")


def _check_out_dir(out_dir: str) -> None:
    """Refuse ``--out`` when it, or the nearest of its ancestors that exists, is not a directory."""
    path = os.path.abspath(out_dir)
    while not os.path.exists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ParameterError(f"--out: {path!r} is not a directory")


def _run(args) -> int:
    """``osclab run``: exit code 0 iff every selected harness passed."""
    path = args.config if os.path.exists(args.config) else bundled_config_path(args.config)
    if not os.path.exists(path):
        raise ParameterError(f"config {args.config!r} not found")
    _check_out_dir(args.out)
    manifest, report = run_experiment(path, args.out, args.overrides)
    print(f"wrote {len(manifest.artifacts)} artifacts to {args.out}\npassed: {report['passed']}")
    return 0 if report["passed"] else 1


def _report(args) -> int:
    """``osclab report``: re-emit the artifacts of ``--formats`` from ``report.json``."""
    formats = set(args.formats.split(","))
    if formats - FORMATS:
        raise ParameterError(f"--formats: unknown format(s) {', '.join(sorted(formats - FORMATS))} "
                             f"(known: {', '.join(sorted(FORMATS))})")
    path = os.path.join(args.out, "report.json")
    try:
        with open(path) as fh:
            report = json.load(fh)
    except FileNotFoundError as exc:
        raise ParameterError(f"{path!r} not found") from exc
    except OSError as exc:
        raise ParameterError(f"{path!r} cannot be read: {exc.strerror}") from exc
    except ValueError as exc:
        raise ParameterError(f"{path!r} is not valid JSON: {exc}") from exc
    if not isinstance(report, dict):
        raise ParameterError(f"{path!r} does not hold a JSON object")
    emit_outputs(report, args.out, formats)
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="osclab", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    run = subs.add_parser("run", help="run a config and write its artifacts")
    run.add_argument("--config", required=True, help="path to the experiment JSON (or a bundled name)")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
                     help="dotted-path config override")
    run.set_defaults(handler=_run)
    rep = subs.add_parser("report", help="re-emit artifacts from report.json")
    rep.add_argument("--out", required=True, help="directory holding report.json")
    rep.add_argument("--formats", default="json,csv,svg")
    rep.set_defaults(handler=_report)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParameterError as exc:  # a config error: exit 2, as argparse does on a bad command line
        print(f"osclab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
