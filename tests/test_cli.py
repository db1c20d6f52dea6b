"""Config validation, pipeline execution, artifact determinism."""

from __future__ import annotations

import json
import os

import pytest

from osclab._support import ParameterError
from osclab.cli import (
    ExperimentConfig,
    bundled_config_path,
    emit_outputs,
    main,
    profile_svg,
    run_experiment,
)


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
    assert cfg["exponents"]["q"] == 3.0
    assert cfg.ladder == [64]
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
    [('harnesses=["weka"]', "weka"), ("varient=local", "varient"), ("workers=2", "workers")],
)
def test_config_rejects_unknown_keys_and_harnesses(override, offender):
    with pytest.raises(ParameterError, match=offender):
        ExperimentConfig.load(bundled_config_path("classical-jn"), [override])


def test_emit_refuses_empty_report(tmp_path):
    with pytest.raises(ParameterError):
        emit_outputs({}, str(tmp_path), {"json"})


def test_emit_outputs_leaves_report_intact(tmp_path):
    report = {"passed": True, "_rows_weak": [(64, {"anchor": [0.0], "side": 0.5}, 1.0, 2.0, 0.5, 0)]}
    for out in ("first", "second"):
        files = emit_outputs(report, str(tmp_path / out), {"json", "csv"})
        assert sorted(os.path.basename(f) for f in files) == ["report.json", "rows_weak.csv"]
        with open(tmp_path / out / "report.json") as fh:
            assert "_rows_weak" not in json.load(fh)
    assert "_rows_weak" in report
    assert read_artifacts(str(tmp_path / "first")) == read_artifacts(str(tmp_path / "second"))


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


def test_cli_profile_and_audit_subcommands(tmp_path):
    assert main([
        "profile", "--config", "heat-offdiag", "--out", str(tmp_path / "p"),
        "--set", "resolution_ladder=[128]",
    ]) == 0
    assert main([
        "audit", "--config", "classical-jn", "--out", str(tmp_path / "a"),
        "--resolution", "64",
    ]) == 0
    assert main([
        "drcheck", "--config", "classical-jn", "--out", str(tmp_path / "d"),
        "--resolution", "64",
    ]) == 0


def test_cli_report_subcommand_reemits(tmp_path):
    out = str(tmp_path / "r")
    run_experiment(bundled_config_path("heat-offdiag"), out, ["resolution_ladder=[128]"])
    svgs = [n for n in os.listdir(out) if n.endswith(".svg")]
    for n in svgs:
        os.remove(os.path.join(out, n))
    assert main(["report", "--out", out, "--formats", "svg"]) == 0
    # emit_outputs plots the largest rung
    assert os.path.isfile(os.path.join(out, "profile_m128.svg"))


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
