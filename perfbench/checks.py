"""The benchmark's own tests.

    python3 -m pytest -q perfbench/checks.py

Kept out of the repository's default test collection (the file name does not
match ``test_*.py``): it runs every workload once traced and once untraced
(about 30 s), and it pins the function names the per-layer metrics trace.
"""

from __future__ import annotations

import json
import math
import os
import statistics

import pytest

import calibrate
import run
from answers import REL_TOL, compare, extract
from spans import LAYERS, PER_LAYER
from workloads import DEFAULT_SEED, WORKLOADS

# Each traced function, and the workloads on which it must record a call.
EXPECTED_CALLS = {
    "operators.semigroup_apply.stencil": ["sharp-max"],
    "operators.semigroup_apply.spectral": ["sharp-max", "cube-harness"],
    "operators.apply_B_scale": ["sharp-max"],
    "operators.sharp_maximal": ["sharp-max"],
    "operators.apply_B": ["cube-harness"],
    "operators.measure_offdiagonal": ["sharp-max", "cube-harness"],
    "operators.audit_family": ["sharp-max", "cube-harness"],
    "grid.lp_average": ["cube-harness"],
    "grid.weak_lq_norm": ["cube-harness"],
    "grid.exp_luxemburg_norm": ["cube-harness"],
    "grid.maximal_function": ["sharp-max"],
    "grid.scale_sweep_max": ["sharp-max"],
    "grid.sliding_cube_means": ["sharp-max"],
    "cubes.sample_disjoint_families": ["cube-harness"],
    "cubes.whitney_decompose": ["cube-harness"],
    "cubes.dilate": ["cube-harness"],
    "cubes.Cube.cell_arrays": ["cube-harness"],
    "functionals.estimate_condition": ["cube-harness"],
    "functionals.Functional.eval": ["cube-harness"],
    "weights.weight_report": ["cube-harness"],
    "weights.rh_subset_check": ["cube-harness"],
    "weights.Weight.mass": ["cube-harness"],
    "verify.check_hypothesis": ["cube-harness"],
    "verify.verify_weak_improvement": ["cube-harness"],
    "verify.verify_strong": ["cube-harness"],
    "verify.verify_exponential": ["cube-harness"],
    "verify.verify_good_lambda": ["cube-harness"],
    "verify.verify_bmo_equivalence": ["sharp-max"],
    "cli.build_rung": ["sharp-max", "cube-harness"],
    "cli.emit_outputs": ["sharp-max", "cube-harness"],
}


@pytest.fixture(scope="module")
def iterations(tmp_path_factory):
    """One untraced and one traced iteration of every workload at the default seed."""
    out = {}
    for name in WORKLOADS:
        run_dir = str(tmp_path_factory.mktemp(name))
        pair = []
        for i, traced in enumerate((False, True)):
            result, error = run.run_iteration(name, DEFAULT_SEED, run_dir, i, traced, timeout=170)
            assert result is not None, error
            pair.append(result)
        with open(os.path.join(run_dir, "spans-1.json")) as fh:
            spans = json.load(fh)
        out[name] = (*pair, spans)
    return out


def _calls(spans: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for nid, _parent, _start, _end, resumed in spans["spans"]:
        name = spans["names"][nid]
        counts[name] = counts.get(name, 0) + 1 - resumed
    return counts


@pytest.mark.parametrize("name", sorted(EXPECTED_CALLS))
def test_each_named_span_records_calls_on_its_workload(iterations, name):
    for workload in EXPECTED_CALLS[name]:
        assert _calls(iterations[workload][2]).get(name, 0) >= 1, (name, workload)


def test_stencil_backend_only_on_sharp_max(iterations):
    for workload, (_plain, traced, _spans) in iterations.items():
        calls = traced["per_layer"]["operators.semigroup_apply.stencil.calls"]
        assert (calls > 0) == (workload == "sharp-max"), workload


def test_traced_and_untraced_reports_are_identical(iterations):
    for workload, (plain, traced, _spans) in iterations.items():
        assert plain["report_digest"] == traced["report_digest"], workload


def test_spans_nest_and_layer_shares_cover_the_run(iterations):
    for workload, (_plain, traced, spans) in iterations.items():
        for _nid, parent, start, end, _resumed in spans["spans"]:
            assert start <= end
            if parent >= 0:
                _pn, _pp, p_start, p_end, _pr = spans["spans"][parent]
                assert p_start <= start and end <= p_end
        shares = sum(traced["per_layer"][f"{layer}.share"] for layer in LAYERS)
        assert 0.9 < shares <= 1.0 + 1e-9, (workload, shares)


def test_generator_steps_count_for_their_owner(iterations):
    # sharp_maximal's per-scale generator runs inside scale_sweep_max; the
    # window statistics it computes are sharp_maximal's self time.
    per_layer = iterations["sharp-max"][1]["per_layer"]
    assert per_layer["operators.sharp_maximal.self_s"] > 10 * per_layer["grid.scale_sweep_max.self_s"]
    assert per_layer["grid.scale_sweep_max.calls"] == per_layer["operators.sharp_maximal.calls"] + \
        per_layer["grid.maximal_function.calls"]


def test_calibrated_times_divide_by_the_kernel_times_around_them(iterations):
    for workload, (plain, _traced, _spans) in iterations.items():
        cal = plain["cal_s"]
        assert len(cal) == len(WORKLOADS[workload].runs) + 1
        expected = sum(t / statistics.mean(cal[k:k + 2])
                       for k, t in enumerate(plain["run_times"].values()))
        assert math.isclose(plain["run_cal_s"], expected * calibrate.REFERENCE_S), workload
        assert math.isclose(plain["setup_cal_s"],
                            plain["setup_s"] / cal[0] * calibrate.REFERENCE_S), workload


def test_answers_match_reference_at_default_seed(iterations):
    with open(os.path.join(run.HERE, "reference.json")) as fh:
        reference = json.load(fh)
    for workload, (plain, _traced, _spans) in iterations.items():
        for label, got in plain["answers"].items():
            problems, worst = compare(got, reference[workload][label], check_constants=True)
            assert problems == [] and worst == 0.0, (workload, label, problems)


def test_answer_check_tolerates_backend_noise_and_catches_wrong_answers():
    report = {"passed": True, "harnesses": {"bmo": {"passed": True, "ratio": 1.25,
                                                    "defect": 0.0, "top": "inf"}}}
    ref = extract(report)
    assert ref["constants"]["harnesses.bmo.top"] == math.inf

    def shifted(rel: float, defect: float = 0.0) -> dict:
        got = extract(report)
        got["constants"]["harnesses.bmo.ratio"] *= 1 + rel
        got["constants"]["harnesses.bmo.defect"] = defect
        return got

    assert compare(shifted(1e-6, 1e-17), ref, True)[0] == []
    assert compare(shifted(10 * REL_TOL), ref, True)[0] != []
    assert compare(shifted(10 * REL_TOL), ref, False)[0] == []
    flipped = extract({**report, "passed": False})
    assert compare(flipped, ref, False)[0] != []


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert spec["run_seconds"] == run.RUN_SECONDS
