"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are fixed here, not tuned: exact inequalities allow only
float rounding slack (1e-12 relative), solver identities use the stated
1e-8/1e-6/1e-10 contracts, and ladder checks use the stability factor 2.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from osclab.cli import bundled_config_path, run_experiment
from osclab.cubes import (
    Cube,
    dilate,
    sample_disjoint_families,
    whitney_check,
    whitney_decompose,
)
from osclab.functionals import ReducedPoincare, estimate_condition
from osclab.grid import (
    Field,
    kolmogorov_factor,
    lp_average,
    make_field,
    maximal_function,
    power_means,
    weak_lq_norms,
)
from osclab.operators import (
    EllipticOperator,
    make_family,
    measure_offdiagonal,
    semigroup_apply,
    sharp_maximal,
    u_s_apply,
)

REL_SLACK = 1e-12  # float rounding slack for exact inequalities
N_FIELDS = 1000


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def _report(tag: str, detail: str = "") -> None:
    print(f"ACCEPTANCE {tag}: PASS {detail}".rstrip())


# ---------------------------------------------------------------------------
# 1. exact inequalities, 1000 seeded random fields per property, no violations
# ---------------------------------------------------------------------------


def test_criterion_1_exact_inequalities():
    m = 16
    q_cube = Cube((0.25,), 0.5)
    torus = Cube((0.0,), 1.0)
    fam = make_family("classical-average", (1.0, math.inf))
    families = sample_disjoint_families(q_cube, 4, seed=11, m=m)
    violations = {k: 0 for k in ("weak<=strong", "kolmogorov", "jensen", "maximal", "dr-ds", "sharp-p")}

    rng = _rng(101)
    for i in range(N_FIELDS):
        f = Field(rng.normal(size=m))
        # |f| on Q's cells and their measures, one row each, for the row kernels
        vals = np.abs(f.restrict(q_cube))[None]
        mu = np.full(vals.shape, f.cell_volume)
        q = float(rng.uniform(0.6, 5.0))
        if weak_lq_norms(vals, mu, q)[0] > lp_average(f, q_cube, max(q, 1.0)) * (1 + REL_SLACK) and q >= 1:
            violations["weak<=strong"] += 1

        r = float(rng.uniform(0.5, 3.0))
        qq = r + float(rng.uniform(0.1, 3.0))
        lhs, rhs = power_means(vals, mu, r)[0], kolmogorov_factor(r, qq) * weak_lq_norms(vals, mu, qq)[0]
        if lhs > rhs * (1 + REL_SLACK):
            violations["kolmogorov"] += 1

        p1 = float(rng.uniform(1.0, 6.0))
        p2 = p1 + float(rng.uniform(0.0, 3.0))
        if lp_average(f, torus, p1) > lp_average(f, torus, p2) * (1 + REL_SLACK):
            violations["jensen"] += 1

        p = float(rng.uniform(1.0, 3.0))
        mp = maximal_function(f, p).values
        if np.any(mp < np.abs(f.values) * (1 - REL_SLACK)):
            violations["maximal"] += 1

        h = Field(np.abs(f.values) + 0.05)
        a = ReducedPoincare(h, 1.0)
        c_lo = estimate_condition(a, "Dr", m, r=1.5, families=families).measured_constant
        c_hi = estimate_condition(a, "Dr", m, r=3.0, families=families).measured_constant
        if c_lo > c_hi * (1 + REL_SLACK):
            violations["dr-ds"] += 1

        lo = sharp_maximal(fam, [f], [1.0])[0][0].values
        hi = sharp_maximal(fam, [f], [2.0])[0][0].values
        if np.any(lo > hi * (1 + REL_SLACK)):
            violations["sharp-p"] += 1

    assert violations == {k: 0 for k in violations}, violations
    _report("1", f"(6 properties x {N_FIELDS} fields, zero violations)")


# ---------------------------------------------------------------------------
# 2. semigroup identities at m = 256, 1-D and 2-D
# ---------------------------------------------------------------------------


def _heat(op: EllipticOperator, t: float, f: Field) -> Field:
    return semigroup_apply(op, [t], [f])[0][0]


def _op_1d_variable(m: int) -> EllipticOperator:
    x = (np.arange(m) + 0.5) / m
    return EllipticOperator(1.25 + 0.75 * np.cos(2 * np.pi * x), 1)


def _op_2d_variable(m: int) -> EllipticOperator:
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx)
    coeffs[1, 1] = 1.25 + 0.5 * np.sin(2 * np.pi * yy)
    return EllipticOperator(coeffs, 2)


def _op_2d_anisotropic(m: int, complex_eps: float = 0.0) -> EllipticOperator:
    coeffs = np.zeros((2, 2, m, m), dtype=complex if complex_eps else float)
    coeffs[0, 0] = 1.5 + (1j * complex_eps if complex_eps else 0.0)
    coeffs[1, 1] = 0.75 - (1j * complex_eps if complex_eps else 0.0)
    coeffs[0, 1] = coeffs[1, 0] = 0.25
    return EllipticOperator(coeffs, 2)


def test_criterion_2_semigroup_identities():
    m = 256
    h2 = (1.0 / m) ** 2

    # conservation e^{-tL} 1 = 1 at 1e-8
    one1 = make_field("constant", 1, m, value=1.0)
    one2 = make_field("constant", 2, m, value=1.0)
    defects = [
        float(np.max(np.abs(_heat(_op_1d_variable(m), 0.01, one1).values - 1.0))),
        float(np.max(np.abs(_heat(_op_2d_variable(m), 16 * h2, one2).values - 1.0))),
        float(np.max(np.abs(_heat(_op_2d_anisotropic(m, 0.3), 0.01, one2).values - 1.0))),
    ]
    assert max(defects) < 1e-8, defects

    # semigroup law at 1e-8 relative
    op2 = _op_2d_anisotropic(m)
    f2 = make_field("random-smooth", 2, m, seed=5, band=3)
    law2 = _heat(op2, 0.02, _heat(op2, 0.01, f2))
    law2b = _heat(op2, 0.03, f2)
    rel2 = float(np.max(np.abs(law2.values - law2b.values)) / np.max(np.abs(law2b.values)))
    op1 = _op_1d_variable(m)
    f1 = Field(1.0 + 0.5 * np.cos(2 * np.pi * (np.arange(m) + 0.5) / m))
    law1 = _heat(op1, 0.02, _heat(op1, 0.01, f1))
    law1b = _heat(op1, 0.03, f1)
    rel1 = float(np.max(np.abs(law1.values - law1b.values)) / np.max(np.abs(law1b.values)))
    assert rel1 < 1e-8 and rel2 < 1e-8, (rel1, rel2)

    # s L U_s f = f - e^{-sL} f at 1e-6 relative on smooth probes
    s = 0.01
    for dim, probe in ((1, make_field("random-smooth", 1, m, seed=7, band=3)),
                       (2, make_field("random-smooth", 2, m, seed=8, band=2))):
        op = EllipticOperator(np.ones((m,) * dim), dim)
        us = u_s_apply(op, s, 1, probe)
        lhs = s * op.apply(us).values
        rhs = probe.values - _heat(op, s, probe).values
        rel = float(np.max(np.abs(lhs - rhs)) / np.max(np.abs(rhs)))
        assert rel < 1e-6, (dim, rel)

    # constant-coefficient runs match the exact Fourier multipliers at 1e-10
    t = 0.008
    k1 = 3
    mode1 = make_field("fourier-mode", 1, m, k=k1)
    got1 = _heat(EllipticOperator(np.ones(m), 1), t, mode1).values
    want1 = math.exp(-4 * math.pi ** 2 * k1 ** 2 * t) * mode1.values
    err1 = float(np.max(np.abs(got1 - want1)))
    kvec = (2, 1)
    mode2 = make_field("fourier-mode", 2, m, k=list(kvec))
    amat = np.array([[1.5, 0.25], [0.25, 0.75]])
    mu = 4 * math.pi ** 2 * float(np.array(kvec) @ amat @ np.array(kvec))
    got2 = _heat(_op_2d_anisotropic(m), t, mode2).values
    want2 = math.exp(-mu * t) * mode2.values
    err2 = float(np.max(np.abs(got2 - want2)))
    assert err1 < 1e-10 and err2 < 1e-10, (err1, err2)
    _report("2", f"(conservation {max(defects):.1e}, law {max(rel1, rel2):.1e}, multipliers {max(err1, err2):.1e})")


# ---------------------------------------------------------------------------
# 3. off-diagonal decay of the heat profile; locality of averaging families
# ---------------------------------------------------------------------------


def test_criterion_3_offdiagonal_decay():
    probes = lambda m: [
        make_field("constant", 1, m, value=1.0),
        Field(np.sign(_rng(77).normal(size=m)) + 0.0),
    ]
    rates = {}
    for m in (256, 512):
        fam = make_family("semigroup", (2.0, 2.0),
                          operator=EllipticOperator(np.ones(m), 1))
        cubes = [Cube((0.25,), 1 / 64), Cube((0.5,), 1 / 64)]
        prof = measure_offdiagonal(fam, probes(m), cubes, k_max=6, pair_levels=1)
        log_c, rate, residual = prof.fit_decay([3, 4, 5, 6])
        assert rate > 0, (m, rate)
        assert residual < 0.10, (m, residual)
        rates[m] = rate
    assert max(rates.values()) / min(rates.values()) < 2.0, rates

    m = 256
    for kind in ("classical-average", "extended-average"):
        fam = make_family(kind, (1.0, math.inf))
        prof = measure_offdiagonal(fam, probes(m), [Cube((0.25,), 1 / 64)], k_max=5, pair_levels=1)
        far = [v for k, v in prof.alpha.items() if k >= 3]
        assert far and all(v == 0.0 for v in far), (kind, prof.alpha)
    _report("3", f"(fitted rates {rates}, far-field entries exactly 0)")


# ---------------------------------------------------------------------------
# 4. classical John-Nirenberg self-improvement on the log field
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def classical_jn_run(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("cjn"))
    t0 = time.perf_counter()
    _manifest, report = run_experiment(bundled_config_path("classical-jn"), out)
    elapsed = time.perf_counter() - t0
    return report, elapsed


def test_criterion_4_classical_jn(classical_jn_run):
    report, elapsed = classical_jn_run
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    weak = report["harnesses"]["weak"]
    expo = report["harnesses"]["exponential"]
    for rep in (weak, expo):
        vals = [v for v in rep["per_resolution"].values()]
        assert set(rep["per_resolution"]) == {"256", "512", "1024"}
        assert all(math.isfinite(v) and v > 0 for v in vals)
        assert max(vals) / min(vals) <= 2.0, rep["per_resolution"]
        assert rep["passed"]
    _report("4", f"(weak {weak['per_resolution']}, expL {expo['per_resolution']}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 5. good-lambda inequality with Whitney invariants
# ---------------------------------------------------------------------------


def test_criterion_5_good_lambda(classical_jn_run):
    report, _ = classical_jn_run
    gl = report["harnesses"]["good_lambda"]
    assert gl["passed"]
    rows = gl["rows"]
    assert len(rows) == 20
    assert all(math.isfinite(r[5]) for r in rows)
    branches = {r[1] for r in rows}
    assert branches == {"trivial", "whitney"}
    assert len(gl["whitney"]) >= 1
    for chk in gl["whitney"]:
        assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    assert math.isfinite(gl["whitney_prop_constant"])

    # direct decomposition at m = 512: interior cubes keep 4Q inside the set,
    # boundary cubes are the documented exception and still meet the
    # complement within 10Q
    m = 512
    f = make_field("log-distance", 1, m, center=0.5)
    fam = make_family("extended-average", (1.0, math.inf))
    q_cube = Cube((0.25,), 0.25)
    bq = fam.apply_B(f, q_cube)
    bq2 = fam.apply_B(bq, q_cube)
    g = np.zeros(m)
    two_q = dilate(q_cube, 2.0, m).cube
    ix = np.ix_(*two_q.cell_arrays(m))
    g[ix] = np.abs(bq2.values)[ix]
    mg = maximal_function(Field(g), 1.0).values
    t = float(np.quantile(mg[mg > 0], 0.7))
    omega = mg > t
    cubes = whitney_decompose(omega, q_cube)
    chk = whitney_check(omega, cubes, m)
    assert chk["disjoint"] and chk["cover"] and chk["ten_q_touches_complement"]
    interior = 0
    for w_cube in cubes:
        d4 = dilate(w_cube, 4.0, m)
        if not d4.saturated and bool(omega[np.ix_(*d4.cube.cell_arrays(m))].all()):
            interior += 1
    assert interior == chk["dilated_inside"]
    _report("5", f"(c across 20 t-values finite, {len(gl['whitney'])} decompositions, "
                 f"{chk['boundary_cubes']} boundary cubes at the direct check)")


# ---------------------------------------------------------------------------
# 6. abstract John-Nirenberg / BMO equivalence for the 1-D heat semigroup
# ---------------------------------------------------------------------------


def test_criterion_6_bmo_equivalence(tmp_path):
    _manifest, report = run_experiment(bundled_config_path("bmo-heat"), str(tmp_path / "o"))
    bmo = report["harnesses"]["bmo"]
    assert set(bmo) == {"identity", "variable-1d"}
    for op_name, rep in bmo.items():
        assert rep["passed"], (op_name, rep["ratios"])
        assert rep["monotone_ok"]
        assert math.isfinite(rep["jn2_constant"])
        for per_field in rep["ratios"].values():
            for v in per_field.values():
                assert math.isfinite(v)
    jn2 = {k: round(v["jn2_constant"], 3) for k, v in bmo.items()}
    _report("6", f"(jn2 constants {jn2})")


# ---------------------------------------------------------------------------
# 7. expanded Poincare machinery: pair condition and hypothesis transfer
# ---------------------------------------------------------------------------


def test_criterion_7_expanded_poincare(tmp_path):
    _manifest, report = run_experiment(bundled_config_path("epi-pair"), str(tmp_path / "o"))
    pair = report["harnesses"]["pair_dq"]
    assert pair["passed"]
    assert math.isfinite(pair["measured_constant"])
    assert pair["families"]["count"] == 200
    hyp = report["harnesses"]["hyp_k"]
    assert hyp["passed"]
    assert hyp["factor"] <= 8.0
    _report("7", f"(pair constant {pair['measured_constant']:.3f} on 200 families, "
                 f"hyp-k factor {hyp['factor']:.3f} <= 8)")


# ---------------------------------------------------------------------------
# 8. weighted path: unit-weight identity, power weight, reverse-Holder sets
# ---------------------------------------------------------------------------


def test_criterion_8_weighted_path(tmp_path):
    _manifest, report = run_experiment(bundled_config_path("weighted-power"), str(tmp_path / "o"))
    h = report["harnesses"]
    assert h["weighted_identity"]["bitwise_equal"] is True
    for name in ("weak", "exponential"):
        rep = h[name]
        vals = list(rep["per_resolution"].values())
        assert all(math.isfinite(v) for v in vals)
        assert max(vals) / min(vals) <= 2.0
        assert rep["passed"]
    assert h["rh_sets"]["passed"] and h["rh_sets"]["worst_ratio"] <= 1.0 + 1e-9
    assert all(math.isfinite(v) for v in h["weight"]["ap"].values())
    _report("8", f"(w=1 bitwise, weighted weak {h['weak']['per_resolution']}, "
                 f"rh-sets worst {h['rh_sets']['worst_ratio']:.3f})")


# ---------------------------------------------------------------------------
# 9. determinism of every bundled config
# ---------------------------------------------------------------------------


def _artifact_bytes(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_criterion_9_determinism(tmp_path):
    configs = ("classical-jn", "heat-offdiag", "bmo-heat", "epi-pair", "weighted-power")
    for name in configs:
        a = str(tmp_path / f"{name}-a")
        b = str(tmp_path / f"{name}-b")
        run_experiment(bundled_config_path(name), a)
        run_experiment(bundled_config_path(name), b)
        assert _artifact_bytes(a) == _artifact_bytes(b), f"{name} not reproducible"
    _report("9", f"({len(configs)} configs byte-identical)")
