"""Config validation, pipeline execution, artifact determinism."""

from __future__ import annotations

import json
import os
import re
from collections import Counter

import numpy as np
import pytest

from osclab import cli, operators, verify
from osclab._support import ParameterError
from osclab.cubes import Cube
from osclab.cli import (
    ExperimentConfig,
    bundled_config_path,
    emit_outputs,
    main,
    profile_svg,
    run_experiment,
)
from osclab.operators import OscillationFamily


def read_artifacts(out_dir: str) -> dict[str, bytes]:
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_bundled_configs_exist_and_validate():
    for name in ("classical-jn", "heat-offdiag", "bmo-heat", "epi-pair", "weighted-power"):
        cfg = ExperimentConfig.load(bundled_config_path(name))
        assert cfg.name == name


def test_config_rejects_bad_exponent_window(tmp_path):
    path = tmp_path / "bad.json"
    with open(bundled_config_path("classical-jn")) as fh:
        cfg = json.load(fh)
    cfg["exponents"]["q"] = 0.5  # below p0 = 1
    path.write_text(json.dumps(cfg))
    with pytest.raises(ParameterError, match="p0 < q < q0"):
        ExperimentConfig.load(str(path))


def test_config_rejects_bad_ladder(tmp_path):
    path = tmp_path / "bad.json"
    with open(bundled_config_path("classical-jn")) as fh:
        cfg = json.load(fh)
    cfg["resolution_ladder"] = [100]
    path.write_text(json.dumps(cfg))
    with pytest.raises(ParameterError, match="power of two"):
        ExperimentConfig.load(str(path))


def test_overrides_dotted_paths():
    cfg = ExperimentConfig.load(
        bundled_config_path("classical-jn"),
        ["exponents.q=3.0", "resolution_ladder=[64]", "seed=7"],
    )
    assert cfg.exponents["q"] == 3.0
    assert cfg.resolution_ladder == [64]
    assert cfg.seed == 7


def test_run_experiment_produces_passing_report(tmp_path):
    manifest, report = run_experiment(
        bundled_config_path("classical-jn"),
        str(tmp_path / "o"),
        ["resolution_ladder=[64,128]", "cube_sample.off_dyadic=8"],
    )
    assert report["passed"] is True
    names = {a["name"] for a in manifest.artifacts}
    assert "report.json" in names
    assert any(n.startswith("profile_m") and n.endswith(".csv") for n in names)
    assert any(n.endswith(".svg") for n in names)
    # manifest checksums match the files on disk
    import hashlib

    for a in manifest.artifacts:
        with open(tmp_path / "o" / a["name"], "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == a["sha256"]


def test_manifest_times_every_rung_and_harness(tmp_path):
    overrides = ["resolution_ladder=[64,128]", "cube_sample.off_dyadic=8"]
    out = tmp_path / "o"
    _manifest, report = run_experiment(bundled_config_path("classical-jn"), str(out), overrides)
    with open(out / "manifest.json") as fh:
        timing = json.load(fh)["timing"]
    selected = report["config"]["harnesses"]
    assert len(selected) > 1
    assert sorted(timing["harness"]) == sorted(selected)
    assert sorted(timing["rung"]) == ["128", "64"]
    for key in ("build", "audit", "conditions", "harnesses"):
        assert timing[key] >= 0.0, key
    assert all(t >= 0.0 for t in [*timing["harness"].values(), *timing["rung"].values()])
    assert sum(timing["harness"].values()) <= timing["harnesses"]
    assert sum(timing["rung"].values()) <= timing["build"]
    # timings stay out of the report
    with open(out / "report.json") as fh:
        assert "timing" not in fh.read()


def test_repeat_runs_byte_identical(tmp_path):
    overrides = ["resolution_ladder=[64,128]", "cube_sample.off_dyadic=8"]
    run_experiment(bundled_config_path("classical-jn"), str(tmp_path / "a"), overrides)
    run_experiment(bundled_config_path("classical-jn"), str(tmp_path / "b"), overrides)
    assert read_artifacts(str(tmp_path / "a")) == read_artifacts(str(tmp_path / "b"))


@pytest.mark.parametrize(
    "override, offender",
    [
        ('harnesses=["weka"]', "weka"),
        ("varient=local", "varient"),
        ("workers=2", "workers"),
        ("profile.kmax=3", "profile.kmax"),
        ("exponents.qq=9", "exponents.qq"),
        ("bmo.alhpa=0.5", "bmo.alhpa"),
        ("field.centre=0.3", "field.centre"),
        ("field.band=3", "field.band"),
        ("field.kind=gaussian", "field"),
        ("profile.k_max.x=1", "override 'profile.k_max.x': profile.k_max is not a section"),
        # an empty part of a dotted key is named with its override
        ("=3", re.escape("override '=3' has an empty key")),
        ("profile.=3", re.escape("override 'profile.=3' has an empty key")),
        (".seed=3", re.escape("override '.seed=3' has an empty key")),
        ("profile..k_max=3", re.escape("override 'profile..k_max=3' has an empty key")),
    ],
)
def test_config_rejects_unknown_keys_and_harnesses(override, offender):
    with pytest.raises(ParameterError, match=offender):
        ExperimentConfig.load(bundled_config_path("classical-jn"), [override])


@pytest.mark.parametrize(
    "override, path",
    [
        # counts are not truncated: a fractional value is rejected
        ("profile.k_max=4.7", "profile.k_max"),
        ("cube_sample.min_cells=8.9", "cube_sample.min_cells"),
        ("good_lambda.t_points=2.5", "good_lambda.t_points"),
        ("seed=1.5", "seed"),
        ("epi.families=1.5", "epi.families"),
        # values the pipeline cannot read fail at load, not after the build
        ('good_lambda.s="abc"', "good_lambda.s"),
        ("condition_families=x", "condition_families"),
        ("profile.anchors=0.25", "profile.anchors"),
        ("profile.fit_range=[3]", "profile.fit_range"),
        # an empty ladder fails at load, not at the first rung it reads
        ("resolution_ladder=[]", "resolution_ladder"),
        ('bmo.operators={"identity": []}', "bmo.operators"),
        ("bmo.operators={}", "bmo.operators"),
        # a ladder runs from its smallest rung to its finest, each once
        ("resolution_ladder=[64,64]", "resolution_ladder"),
        ("resolution_ladder=[128,64]", "resolution_ladder"),
        ('bmo.operators={"identity": [256, 128]}', "bmo.operators"),
        # an empty list fails at load, not at the build or the harness that reads it
        ("profile.anchors=[]", "profile.anchors"),
        ("bmo.ps=[]", "bmo.ps"),
        # a cube must have the config's dimension (classical-jn is 1-D)
        ('good_lambda.cube={"anchor": [0.25, 0.25], "side": 0.25}', "good_lambda.cube"),
        ('epi.root={"anchor": [0.0, 0.0], "side": 0.5}', "epi.root"),
        ('field={"kind": "indicator", "cube": {"anchor": [0.25, 0.25], "side": 0.25}}', "field.cube"),
        pytest.param(["dimension=2", 'field={"kind": "indicator", "cube": {"anchor": [0.25], "side": 0.25}}'],
                     "field.cube", id="a 1-D indicator cube in a 2-D config"),
        ('field={"kind": "indicator", "cube": {"side": 0.25}}', "field.cube"),
        # a count below its least value fails at load, naming its key
        ("k_max=-1", "k_max"),
        ("condition_families=0", "condition_families"),
        ("cube_sample.min_cells=0", "cube_sample.min_cells"),
        ("cube_sample.min_cells=6", "cube_sample.min_cells"),
        ("cube_sample.min_cells=512", "cube_sample.min_cells"),  # above the smallest rung
        ("cube_sample.off_dyadic=-3", "cube_sample.off_dyadic"),
        ("good_lambda.t_points=0", "good_lambda.t_points"),
        ("good_lambda.t_points=1", "good_lambda.t_points"),
        ("profile.cube_side_cells=0", "profile.cube_side_cells"),
        ("profile.cube_side_cells=512", "profile.cube_side_cells"),  # above the smallest rung
        # a nested pair R of the profile must stay on the cell lattice
        ("profile.cube_side_cells=3", "profile.cube_side_cells"),
        ('profile={"cube_side_cells": 4, "pair_levels": 3}', "profile.cube_side_cells"),
        ("profile.pair_levels=3", "profile.cube_side_cells"),  # the default cube has 4 cells at m = 256
        ("profile.k_max=1", "profile.k_max"),
        ("profile.pair_levels=-1", "profile.pair_levels"),
        ("family.N=0", "family.N"),
        ("epi.families=0", "epi.families"),
        ("epi.k_max=-1", "epi.k_max"),
        # cubes are read in whole cells: a profile anchor off the smallest rung's lattice
        ("profile.anchors=[0.3]", "profile.anchors"),
        # and a configured cube whose anchor or side is off that lattice
        ('good_lambda.cube={"anchor": [0.3], "side": 0.25}', "good_lambda.cube"),
        ('good_lambda.cube={"anchor": [0.25], "side": 0.3}', "good_lambda.cube"),
        ('epi.root={"anchor": [0.1], "side": 0.5}', "epi.root"),
        ('epi.root={"anchor": [0.0], "side": 0.3}', "epi.root"),
        ('field={"kind": "indicator", "cube": {"anchor": [0.3], "side": 0.25}}', "field.cube"),
        ('field={"kind": "indicator", "cube": {"anchor": [0.25], "side": 0.3}}', "field.cube"),
        # the pair condition reads an expanded-Poincare functional (classical-jn's is measured-oscillation)
        ("variant=pair", "functional"),
        ('harnesses=["pair-dq"]', "functional"),
        # a semigroup family reads its operator, and rh-sets and weight-report a weight
        pytest.param(["family.kind=semigroup", "family.operator=null"], "family.operator",
                     id="a semigroup family with a null operator"),
        ('harnesses=["rh-sets"]', "weight"),
        ('harnesses=["weight-report"]', "weight"),
        # values a harness or the build would reject fail at load, naming their key
        ("bmo.alpha=-1", "bmo.alpha"),  # the Lipschitz scale has alpha >= 0
        ("profile.fit_range=[6,3]", "profile.fit_range"),
        ("good_lambda.s=0.5", "good_lambda.s"),
        ("good_lambda.lam=1.5", "good_lambda.lam"),
        ("profile.anchors=[1.5]", "profile.anchors"),
        # the bmo harness's exponents, checked when it runs: p0 <= p and max(ps) < s
        pytest.param(['harnesses=["bmo"]', "bmo.s=2"], "bmo.s", id="bmo.s below max(bmo.ps)"),
        pytest.param(['harnesses=["bmo"]', "bmo.ps=[0.5,2]"], "bmo.ps", id="bmo.ps below family.p0"),
    ],
)
def test_load_rejects_a_value_its_key_cannot_take(override, path):
    overrides = [override] if isinstance(override, str) else override
    with pytest.raises(ParameterError, match="^" + re.escape(f"{path}: ")):
        ExperimentConfig.load(bundled_config_path("classical-jn"), ["resolution_ladder=[256]", *overrides])


def test_bmo_exponents_are_read_only_when_the_bmo_harness_runs():
    cfg = ExperimentConfig.load(bundled_config_path("classical-jn"), ["bmo.s=2", "bmo.ps=[0.5,2]"])
    assert "bmo" not in cfg.harnesses


def test_an_averaging_family_takes_a_null_operator():
    # only a semigroup family reads family.operator
    cfg = ExperimentConfig.load(bundled_config_path("classical-jn"), ["family.operator=null"])
    assert cfg.family["operator"] is None


@pytest.mark.parametrize("key", ["dimension", "resolution_ladder", "field", "family"])
def test_load_reports_a_missing_top_level_key(tmp_path, key):
    with open(bundled_config_path("classical-jn")) as fh:
        data = json.load(fh)
    del data[key]
    path = tmp_path / "missing.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParameterError, match=re.escape(f"missing config key(s): {key}")):
        ExperimentConfig.load(str(path))


def recording_rungs(monkeypatch) -> list:
    """The rungs ``cli.build_rung`` builds from now on, in order."""
    rungs = []
    build_rung = cli.build_rung

    def recording_build_rung(cfg, m):
        rung, profile = build_rung(cfg, m)
        rungs.append(rung)
        return rung, profile

    monkeypatch.setattr(cli, "build_rung", recording_build_rung)
    return rungs


@pytest.mark.parametrize(
    "config, overrides",
    [("classical-jn", ["resolution_ladder=[64,128]"]), ("weighted-power", [])],
)
def test_averaging_harnesses_form_no_b_field_but_good_lambdas(monkeypatch, config, overrides):
    # the hypothesis walk and the weak, strong and exponential sweeps read
    # B_Q f of an averaging family on gathered rows, so the only B_Q f of a
    # rung field formed as a field is the good-lambda harness's one cube
    cfg = ExperimentConfig.load(bundled_config_path(config), overrides)
    rungs = recording_rungs(monkeypatch)
    calls = Counter()
    apply_b = OscillationFamily.apply_B

    def counting_apply_b(self, f, q):
        if any(f is rung.field for rung in rungs):
            calls[q] += 1
        return apply_b(self, f, q)

    monkeypatch.setattr(OscillationFamily, "apply_B", counting_apply_b)
    cli.run_pipeline(cfg)
    assert rungs
    good_lambda = {cfg.good_lambda["cube"]: 1} if "good-lambda" in cfg.harnesses else {}
    assert dict(calls) == good_lambda


@pytest.mark.parametrize(
    "config, overrides",
    [("classical-jn", ["resolution_ladder=[64,128]"]), ("weighted-power", []), ("epi-pair", [])],
)
def test_harnesses_walk_each_rung_once_per_deepest_k_max(monkeypatch, config, overrides):
    # every harness reads the hypothesis rows from its rung's cache, which
    # keeps the walk at the deepest k_max asked for, so the block walk runs at
    # most once per rung material and k_max; these configs ask for their
    # deepest first, so once per rung
    walk = verify.Rung._walk
    calls = Counter()

    def counting_walk(self, k_max):
        calls[(self.m, id(self.field), id(self.family), id(self.hypothesis), id(self.cube_sample), k_max)] += 1
        return walk(self, k_max)

    monkeypatch.setattr(verify.Rung, "_walk", counting_walk)
    cfg = ExperimentConfig.load(bundled_config_path(config), overrides)
    cli.run_pipeline(cfg)
    assert calls and max(calls.values()) == 1, calls.most_common(1)
    assert len({key[:-1] for key in calls}) == len(calls)


@pytest.mark.parametrize(
    "config, overrides",
    [("classical-jn", ["resolution_ladder=[64,128]"]), ("weighted-power", []), ("jn-2d", [])],
)
def test_weak_strong_and_exponential_gather_b_on_q_once_per_rung_material(monkeypatch, config, overrides):
    # the three sweeps (and weighted-identity's two weak sweeps) read |B_Q f|
    # on Q from the memo of their rung's material, gathered once
    if config == "jn-2d":
        config, overrides = "classical-jn", ["dimension=2", "resolution_ladder=[16,32]", "good_lambda.cube=null",
                                            'harnesses=["hypothesis","weak","strong","exponential"]']
    gather = verify.Rung._gather
    calls = Counter()

    def counting_gather(self):
        calls[(self.m, id(self.field), id(self.family), id(self.hypothesis), id(self.cube_sample))] += 1
        return gather(self)

    monkeypatch.setattr(verify.Rung, "_gather", counting_gather)
    cfg = ExperimentConfig.load(bundled_config_path(config), overrides)
    assert {"weak", "exponential"} <= set(cfg.harnesses)
    cli.run_pipeline(cfg)
    assert len(calls) == len(cfg.resolution_ladder) and set(calls.values()) == {1}, calls


@pytest.mark.parametrize(
    "config, overrides",
    [("classical-jn", ["resolution_ladder=[64,128]"]), ("weighted-power", [])],
)
def test_a_full_run_leaves_one_memo_per_rung_material(monkeypatch, config, overrides):
    # the exponential and weighted-identity harnesses replace only the
    # denominator or the weight, so they read the memo of the rung they
    # were made from
    rungs = recording_rungs(monkeypatch)
    cli.run_pipeline(ExperimentConfig.load(bundled_config_path(config), overrides))
    assert rungs
    for rung in rungs:
        (key,) = rung.cache
        assert key == (rung.m, id(rung.field), id(rung.family), id(rung.hypothesis), id(rung.cube_sample))


def test_epi_pair_hyp_k_makes_one_semigroup_call_per_rung(monkeypatch):
    # the semigroup family's B fields at every side of the sample come from
    # one apply_B_scales call, so one semigroup_apply call on the rung field
    rungs = recording_rungs(monkeypatch)
    calls = Counter()
    semigroup_apply = operators.semigroup_apply

    def counting_semigroup_apply(op, times, fields):
        for rung in rungs:
            calls[id(rung)] += any(g is rung.field for g in fields)
        return semigroup_apply(op, times, fields)

    monkeypatch.setattr(operators, "semigroup_apply", counting_semigroup_apply)
    cfg = ExperimentConfig.load(bundled_config_path("epi-pair"))
    assert "hyp-k" in cfg.harnesses and cfg.family["kind"] == "semigroup"
    cli.run_pipeline(cfg)
    assert rungs and calls == {id(rung): 1 for rung in rungs}


def test_emit_refuses_empty_report(tmp_path):
    with pytest.raises(ParameterError):
        emit_outputs({}, str(tmp_path), {"json"})


def sweep_rows(m: int, cubes: list) -> verify.SweepRows:
    """Weak rows of the lattice rows ``cubes`` at resolution m, with
    numerators 1, 2, ... over denominators 2."""
    num = np.arange(1.0, len(cubes) + 1)
    return verify.SweepRows(m, np.array(cubes, dtype=np.int64), num, np.full(len(cubes), 2.0), num / 2,
                            np.zeros(len(cubes), dtype=int))


def test_emit_outputs_leaves_report_intact(tmp_path):
    report = {"passed": True, "_rows_weak": [sweep_rows(64, [[32, 0]])]}
    for out in ("first", "second"):
        files = emit_outputs(report, str(tmp_path / out), {"json", "csv"})
        assert sorted(os.path.basename(f) for f in files) == ["report.json", "rows_weak.csv"]
        with open(tmp_path / out / "report.json") as fh:
            assert "_rows_weak" not in json.load(fh)
    assert "_rows_weak" in report
    assert read_artifacts(str(tmp_path / "first")) == read_artifacts(str(tmp_path / "second"))


@pytest.mark.parametrize("dim", [1, 2])
def test_rows_weak_cubes_are_the_json_of_their_cube_dicts(tmp_path, dim):
    # the cube column is json.dumps(Cube.from_row(row, m).to_dict(),
    # sort_keys=True) with each comma a semicolon, at every m up to 4096,
    # anchors at 0, m - 1 and between, sides 1 to m
    rng = np.random.default_rng(dim)
    rows_weak, want = [], []
    for m in (2 ** k for k in range(13)):
        cubes = [[c, *a] for c in (1, m // 2 or 1, m) for a in ([0] * dim, [m - 1] * dim,
                                                              rng.integers(0, m, size=dim).tolist())]
        rows_weak.append(sweep_rows(m, cubes))
        want += [json.dumps(Cube.from_row(row, m).to_dict(), sort_keys=True).replace(",", ";") for row in cubes]
    emit_outputs({"passed": True, "_rows_weak": rows_weak}, str(tmp_path), {"csv"})
    with open(tmp_path / "rows_weak.csv") as fh:
        header, *lines = fh.read().splitlines()
    assert header == "m,cube,numerator,denominator,ratio,sat_wrap_flags"
    assert [line.split(",")[1] for line in lines] == want
    assert lines[1].split(",") == ["1", want[1], "2.0", "2.0", "1.0", "0"]


def test_emit_json_only_single_file(tmp_path):
    files = emit_outputs({"passed": True}, str(tmp_path / "x"), {"json"})
    assert len(files) == 1 and files[0].endswith("report.json")


def test_profile_svg_contains_model_line():
    prof = {
        "alpha": {"3": 0.5, "4": 0.05, "5": 1e-4},
        "fit": {"rate": 0.004, "log_c": 0.0, "residual": 0.02},
    }
    svg = profile_svg(prof)
    assert svg.startswith("<svg")
    assert "polyline" in svg and "model" in svg


def test_cli_main_run_and_exit_codes(tmp_path, capsys):
    code = main([
        "run", "--config", "classical-jn", "--out", str(tmp_path / "m"),
        "--set", "resolution_ladder=[64]", "--set", "cube_sample.off_dyadic=4",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "passed: True" in out


@pytest.mark.parametrize(
    "args, message",
    [
        # --config takes a path or a bundled name, and names what it cannot find
        (["--config", "no-such-config"], "config 'no-such-config' not found"),
        (["--config", "classical-jn", "--set", "profile.kmax=3"], "unknown config key(s): profile.kmax"),
        # data a builder rejects names its section
        (["--config", "weighted-power", "--set", 'weight={"kind":"spike","amp":-2}'],
         "weight: weight density must be strictly positive"),
        (["--config", "heat-offdiag", "--set", 'family.operator={"kind":"constant","matrix":[[-1.0]]}'],
         "family.operator: coefficients are not elliptic: the Hermitian part of A has least eigenvalue -1"),
    ],
)
def test_cli_main_exits_2_on_a_config_error(tmp_path, capsys, args, message):
    # exit 1 is a failed harness; a config error is one line on stderr and exit 2
    assert main(["run", *args, "--out", str(tmp_path / "x")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"osclab: error: {message}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "functional, key",
    [
        ('{"kind":"constant","value":NaN}', "value"),
        ('{"kind":"constant","value":Infinity}', "value"),
        ('{"kind":"bmo-lipschitz","alpha":NaN}', "alpha"),
        ('{"kind":"expanded-poincare","s":NaN}', "s"),
        ('{"kind":"expanded-poincare","gamma":{"kind":"geometric","sigma":NaN}}', "gamma: sigma"),
        ('{"kind":"expanded-poincare","gamma":{"kind":"table","values":[1,NaN]}}', "gamma: each of values"),
    ],
)
def test_a_non_finite_functional_parameter_exits_2_naming_its_key(tmp_path, capsys, functional, key):
    # NaN passes every x < 0 check: a NaN constant read 0.0 constants and passed every harness
    args = ["run", "--config", "classical-jn", "--out", str(tmp_path / "x"), "--set", f"functional={functional}",
            "--set", 'harnesses=["hypothesis","weak","strong","exponential"]']
    assert main(args) == 2
    assert capsys.readouterr().err.startswith(f"osclab: error: functional: {key} must be a finite number")


def test_cli_main_exits_2_on_a_config_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"name": ')
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert capsys.readouterr().err.startswith(f"osclab: error: config {str(path)!r} is not valid JSON: ")
    assert not os.path.exists(tmp_path / "x")


@pytest.mark.parametrize(
    "config, out, message",
    [
        ("{tmp}", "{tmp}/x", "config '{tmp}' cannot be read: Is a directory"),
        ("heat-offdiag", "{tmp}/file", "--out: '{tmp}/file' is not a directory"),
        ("heat-offdiag", "{tmp}/file/x", "--out: '{tmp}/file' is not a directory"),
    ],
)
def test_cli_run_exits_2_on_a_path_it_cannot_use(tmp_path, capsys, monkeypatch, config, out, message):
    # a path that cannot be used is an error on the command line, found before any rung is built
    (tmp_path / "file").write_text("kept")
    monkeypatch.setattr(cli, "build_rung", lambda *args: pytest.fail("a rung was built"))
    assert main(["run", "--config", config.format(tmp=tmp_path), "--out", out.format(tmp=tmp_path)]) == 2
    assert capsys.readouterr().err == f"osclab: error: {message.format(tmp=tmp_path)}\n"
    assert (tmp_path / "file").read_text() == "kept"


@pytest.mark.parametrize(
    "report, args, message",
    [
        ('{"passed": true}', ["--formats", "json,xml"], "--formats: unknown format(s) xml (known: csv, json, svg)\n"),
        (None, [], "'{path}' not found\n"),
        ("{", [], "'{path}' is not valid JSON: "),
        ('"just a string"', [], "'{path}' does not hold a JSON object\n"),
        # --out names a file: the last --out wins
        ('{"passed": true}', ["--out", "{path}"], "'{path}/report.json' cannot be read: Not a directory\n"),
    ],
)
def test_cli_report_exits_2_on_what_it_cannot_do(tmp_path, capsys, report, args, message):
    out = tmp_path / "r"
    out.mkdir()
    if report is not None:
        (out / "report.json").write_text(report)
    assert main(["report", "--out", str(out), *(arg.format(path=out / "report.json") for arg in args)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("osclab: error: " + message.format(path=out / "report.json"))
    assert os.listdir(out) == ([] if report is None else ["report.json"])


def test_cli_report_subcommand_reemits(tmp_path):
    out = str(tmp_path / "r")
    run_experiment(bundled_config_path("heat-offdiag"), out, ["resolution_ladder=[128]"])
    svgs = [n for n in os.listdir(out) if n.endswith(".svg")]
    for n in svgs:
        os.remove(os.path.join(out, n))
    assert main(["report", "--out", out, "--formats", "svg"]) == 0
    # emit_outputs plots the largest rung
    assert os.path.isfile(os.path.join(out, "profile_m128.svg"))


def test_cli_report_rebuilds_the_json_and_csv_bytes(tmp_path):
    out = tmp_path / "c"
    run_experiment(bundled_config_path("classical-jn"), str(out), ["resolution_ladder=[64,128]"])
    before = read_artifacts(str(out))
    assert sorted(before) == ["profile_m128.csv", "profile_m128.svg", "profile_m64.csv", "report.json",
                              "rows_weak.csv"]
    # report.json is the input, so it is rewritten in place; the profile artifacts are rebuilt from it
    for name in before:
        if name.startswith("profile_"):
            os.remove(out / name)
    assert main(["report", "--out", str(out), "--formats", "json,csv,svg"]) == 0
    # rows_weak.csv is left as it was: report.json does not hold the weak rows
    assert read_artifacts(str(out)) == before


def test_report_svg_reemits_profile_without_fit(tmp_path):
    # every rung of classical-jn at m=256 has no fit; report.json stores it as "nan"
    out = str(tmp_path / "c")
    run_experiment(bundled_config_path("classical-jn"), out, ["resolution_ladder=[256]"])
    with open(os.path.join(out, "report.json")) as fh:
        assert json.load(fh)["profiles"]["256"]["fit"]["rate"] == "nan"
    svg = os.path.join(out, "profile_m256.svg")
    with open(svg, "rb") as fh:
        fresh = fh.read()
    os.remove(svg)
    assert main(["report", "--out", out, "--formats", "svg"]) == 0
    with open(svg, "rb") as fh:
        assert fh.read() == fresh


def test_ladder_harnesses_fail_on_an_unbounded_oscillation():
    # a negative control: |x - 1/2|^{-0.9} against a constant functional has no
    # finite constant, so each ladder roughly doubles its constant per rung
    cfg = ExperimentConfig.load(bundled_config_path("classical-jn"), [
        'field={"kind":"power-distance","gamma":-0.9}', 'functional={"kind":"constant","value":1.0}',
        'harnesses=["weak","strong","exponential"]', "resolution_ladder=[64,128,256]",
    ])
    report, _ = cli.run_pipeline(cfg)
    harnesses = report["harnesses"]
    assert report["passed"] is False
    expected = {"weak": [20.6, 37.6, 70.1], "strong": [20.0, 35.8, 66.8], "exponential": [10.8, 19.4, 36.2]}
    for name, constants in expected.items():
        rep = harnesses[name]
        assert rep["passed"] is False
        assert [round(v, 1) for v in rep["per_resolution"].values()] == constants
        *saturated, unstable = rep["warnings"]
        assert [w.split(":")[0] for w in saturated] == ["m=64", "m=128", "m=256"]
        assert all(w.endswith(" saturated dilations") for w in saturated)
        assert unstable.startswith("ladder instability; worst cube m=256 ")


def test_heat_offdiag_csv_alpha_strictly_decreasing(tmp_path):
    out = str(tmp_path / "h")
    manifest, _ = run_experiment(bundled_config_path("heat-offdiag"), out, ["resolution_ladder=[256]"])
    # by exact name: profile_m256.svg is written alongside and listdir order is arbitrary
    csv = "profile_m256.csv"
    names = [a["name"] for a in manifest.artifacts]
    assert csv in names, f"{csv} not among the run's artifacts {names}"
    with open(os.path.join(out, csv)) as fh:
        header, *rows = fh.read().strip().splitlines()
    assert header == "k,alpha_k,beta_k", f"{csv} has unexpected header {header!r}"
    table = {int(r.split(",")[0]): float(r.split(",")[1]) for r in rows}
    ks = [k for k in sorted(table) if k >= 3 and table[k] > 0]
    for a, b in zip(ks, ks[1:]):
        assert table[b] < table[a]


def test_pipeline_runs_a_complex_coefficient_semigroup():
    # the audit of a complex family keeps A_Q complex (ComplexWarning is an error here)
    cfg = ExperimentConfig.load(bundled_config_path("epi-pair"), [
        'family.operator={"kind": "complex-perturbed"}',
    ])
    report, _timing = cli.run_pipeline(cfg)
    assert set(report["audit"]) >= {"commutator", "localization", "replace_comm"}


@pytest.mark.parametrize("dimension, matrix", [(1, [[0.5]]), (2, [[1.5, 0.25], [0.25, 0.75]])])
def test_a_constant_operator_takes_any_elliptic_matrix(dimension, matrix):
    # lam and Lam are the least eigenvalue and the norm of the (symmetric) matrix
    cfg = ExperimentConfig.load(bundled_config_path("heat-offdiag"), [
        f"dimension={dimension}", f'family.operator={json.dumps({"kind": "constant", "matrix": matrix})}',
    ])
    op = cli.build_family(dimension, 16, **cfg.family).operator
    eigenvalues = np.linalg.eigvalsh(np.array(matrix))
    assert op.lam == pytest.approx(eigenvalues[0])
    assert op.big_lam == pytest.approx(eigenvalues[-1])


def test_bmo_runs_the_family_operator_when_it_names_none():
    # with bmo.operators null the harness measures the family's own operator, named by its kind
    base = ["resolution_ladder=[64]", "bmo.operator_params={}", 'family.operator={"kind": "variable-1d"}']
    reports = [cli.run_pipeline(ExperimentConfig.load(bundled_config_path("bmo-heat"), base + [extra]))[0]
               for extra in ("bmo.operators=null", 'bmo.operators={"variable-1d": [64]}')]
    assert list(reports[0]["harnesses"]["bmo"]) == ["variable-1d"]
    assert reports[0]["harnesses"]["bmo"] == reports[1]["harnesses"]["bmo"]


def test_pair_dq_builds_its_own_pair_functionals():
    # the pair-dq harness builds a~ and a-bar itself, so the variant does not move it
    reports = [cli.run_pipeline(ExperimentConfig.load(bundled_config_path("epi-pair"), overrides))[0]
               for overrides in ([], ["variant=tilde"])]
    assert reports[0]["config"]["variant"] == "pair"
    assert reports[1]["harnesses"]["pair_dq"] == reports[0]["harnesses"]["pair_dq"]
