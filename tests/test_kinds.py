"""Builder tables: a kind's config keys are its builder's keyword-only parameters."""

from __future__ import annotations

import inspect
import json
import re

import numpy as np
import pytest

from osclab._support import ParameterError, dotted
from osclab.cli import KIND_SECTIONS, OPERATORS, SECTIONS, ExperimentConfig, build_rung, bundled_config_path
from osclab.cubes import Cube, cube_blocks
from osclab.functionals import Coeffs, Functional
from osclab.grid import Field
from osclab.operators import EllipticOperator
from osclab.weights import Weight


def keys_of(builder) -> dict:
    params = inspect.signature(builder).parameters.values()
    return {p.name: p.default for p in params if p.kind is p.KEYWORD_ONLY}


def required_value(key: str, dimension: int):
    """A valid value for each key that some kind requires."""
    return {
        "gamma": -0.5,
        "cube": {"anchor": [0.25] * dimension, "side": 0.25},
        "sigma": 2.0,
        "values": [1.0, 0.5],
    }[key]


def full_spec(path: str, kind: str, dimension: int):
    """Every key of the kind: its default, or a valid value when it has none."""
    spec = {k: required_value(k, dimension) if v is inspect.Parameter.empty else v
            for k, v in keys_of(KIND_SECTIONS[path][0][kind]).items()}
    return kind if path == "variant" else {"kind": kind, **spec}


def set_section(path: str, value) -> list[str]:
    """Overrides that put ``value`` at ``path`` of epi-pair, with a parent that reads it;
    another functional than epi-pair's runs with no variant or harness of the pair condition."""
    out = [f"{path}={json.dumps(value)}"]
    if path.startswith("functional."):
        out.insert(0, 'functional={"kind": "expanded-poincare"}')
    if path == "functional" and value.get("kind") != "expanded-poincare":
        out += ["variant=tilde", 'harnesses=["hyp-k"]']
    return out


SECTION_KINDS = [(path, kind) for path, (table, _) in KIND_SECTIONS.items() for kind in table]


@pytest.mark.parametrize("path, kind", SECTION_KINDS)
def test_validate_accepts_exactly_the_builder_keyword_parameters(path, kind):
    base = bundled_config_path("epi-pair")
    spec = full_spec(path, kind, 2)
    ExperimentConfig.load(base, set_section(path, spec))
    if path == "variant":  # a bare name: variants take no keys
        assert keys_of(KIND_SECTIONS[path][0][kind]) == {}
        return
    with pytest.raises(ParameterError, match=re.escape(f"unknown config key(s): {path}.bogus")):
        ExperimentConfig.load(base, set_section(path, {**spec, "bogus": 1}))
    for key, default in keys_of(KIND_SECTIONS[path][0][kind]).items():
        if default is inspect.Parameter.empty:
            partial = {k: v for k, v in spec.items() if k != key}
            with pytest.raises(ParameterError, match=re.escape(f"missing config key(s): {path}.{key}")):
                ExperimentConfig.load(base, set_section(path, partial))


def test_the_required_top_level_keys():
    required = [k for k, v in keys_of(SECTIONS[""]).items() if v is inspect.Parameter.empty]
    assert required == ["dimension", "resolution_ladder", "field", "family"]


@pytest.mark.parametrize("section", SECTIONS)
def test_validate_accepts_exactly_the_reader_keyword_parameters_of_a_fixed_section(section, tmp_path):
    # the same rule as for a kind: every key of the reader with its default
    # loads, another key does not, and leaving out a required key is reported
    with open(bundled_config_path("epi-pair")) as fh:
        data = json.load(fh)
    node = data.setdefault(section, {}) if section else data
    keys = keys_of(SECTIONS[section])
    node.update({k: v for k, v in keys.items() if v is not inspect.Parameter.empty})
    path = tmp_path / "config.json"

    def load():
        path.write_text(json.dumps(data))
        return ExperimentConfig.load(str(path))

    load()
    node["bogus"] = 1
    bogus = dotted(section, "bogus")
    with pytest.raises(ParameterError, match=re.escape(f"unknown config key(s): {bogus}")):
        load()
    del node["bogus"]
    for key, default in keys.items():
        if default is inspect.Parameter.empty:
            value = node.pop(key)
            with pytest.raises(ParameterError, match=re.escape(f"missing config key(s): {dotted(section, key)}")):
                load()
            node[key] = value


@pytest.mark.parametrize("kind", OPERATORS)
def test_each_bmo_operator_takes_its_own_keys(kind):
    base = bundled_config_path("bmo-heat")
    params = {k: v for k, v in full_spec("family.operator", kind, 1).items() if k != "kind"}
    ok = [f"bmo.operators={json.dumps({kind: [16]})}",
          f"bmo.operator_params={json.dumps({kind: params})}"]
    ExperimentConfig.load(base, ok)
    with pytest.raises(ParameterError, match=re.escape(f"bmo.operator_params.{kind}.bogus")):
        ExperimentConfig.load(base, ok + [f"bmo.operator_params.{kind}.bogus=1"])


@pytest.mark.parametrize(
    "config, override, offender",
    [
        ("weighted-power", "weight.gama=-0.3", "weight.gama"),
        ("weighted-power", "functional.scal=2", "functional.scal"),
        ("heat-offdiag", 'family.operator={"kind":"identity","lamm":3}', "family.operator.lamm"),
        # the ellipticity constants are computed from the coefficients, not configured
        ("bmo-heat", 'family.operator={"kind":"variable-1d","lam":0.5}', "unknown config key(s): family.operator.lam"),
        ("heat-offdiag", 'family.operator={"kind":"identity","p_minus":1}',
         "unknown config key(s): family.operator.p_minus"),
        ("epi-pair", 'functional.gamma={"kind":"geometric","sigma":2.0,"scael":3}',
         "functional.gamma.scael"),
        ("epi-pair", 'functional.h={"kind":"gradient-of-smooth","band":2,"flor":0.05}',
         "functional.h.flor"),
        ("bmo-heat", "bmo.operator_params.variable-1d.bsae=1.0", "bmo.operator_params.variable-1d.bsae"),
        ("bmo-heat", 'bmo.operator_params={"identity":{"base":1.25}}', "bmo.operator_params.identity.base"),
        ("bmo-heat", 'bmo.operators={"identiy":[128]}', "bmo.operators.identiy"),
        # bmo-heat's operator_params.variable-1d is read only while variable-1d runs
        ("bmo-heat", 'bmo.operators={"identity":[64]}', "bmo.operator_params.variable-1d: "),
        ("bmo-heat", "bmo.operators=null", "bmo.operator_params.variable-1d: "),
        ("classical-jn", "variant=alternate", "variant"),
        ("classical-jn", 'weight={"kind":"uniform"}', "weight"),
    ],
)
def test_load_names_the_dotted_path_of_a_config_error(config, override, offender):
    with pytest.raises(ParameterError, match=re.escape(offender)):
        ExperimentConfig.load(bundled_config_path(config), [override])


def built_section(path: str, spec, dimension: int, m: int):
    """Build a rung of epi-pair with ``spec`` at ``path``; return what the section built."""
    # epi.root=null: the default root, of the dimension asked for
    overrides = set_section(path, spec) + [f"dimension={dimension}", f"resolution_ladder=[{m}]",
                                           "epi.root=null"]
    rung, _profile = build_rung(ExperimentConfig.load(bundled_config_path("epi-pair"), overrides), m)
    return {
        "field": rung.field,
        "family.operator": rung.family.operator,
        "weight": rung.weight,
        "functional": rung.hypothesis,
        "functional.gamma": getattr(rung.hypothesis, "coeffs", None),
        "functional.h": getattr(getattr(rung.hypothesis, "base", None), "h", None),
        "variant": rung.denominator,
    }[path]


BUILT_TYPE = {
    "field": Field,
    "family.operator": EllipticOperator,
    "weight": Weight,
    "functional": Functional,
    "functional.gamma": Coeffs,
    "functional.h": Field,
    "variant": Functional,
}


@pytest.mark.parametrize("dimension, m", [(1, 64), (2, 32)])
@pytest.mark.parametrize("path, kind", SECTION_KINDS)
def test_every_kind_builds(path, kind, dimension, m):
    spec = full_spec(path, kind, dimension)
    if kind == "variable-1d" and dimension == 2:
        with pytest.raises(ParameterError, match="dimension 1"):
            built_section(path, spec, dimension, m)
        return
    built = built_section(path, spec, dimension, m)
    assert isinstance(built, BUILT_TYPE[path])
    if isinstance(built, Field):
        assert built.values.shape == (m,) * dimension
    if isinstance(built, Functional):
        block, = cube_blocks(np.array([Cube((0.25,) * dimension, 0.25).to_row(m)]))
        assert built.values(block.c, block.anchors, m) >= 0.0


# One malformed value of one key per kind that has keys.  ``random-normal``'s
# only key, ``complex``, takes any value: it is read for its truth.
MALFORMED = {
    ("field", "constant"): {"value": "x"},
    ("field", "log-distance"): {"center": [0.1, 0.2, 0.3]},
    ("field", "fourier-mode"): {"k": "x"},
    ("field", "random-smooth"): {"band": "x"},
    ("field", "indicator"): {"cube": [0.25]},
    ("field", "power-distance"): {"gamma": "x"},
    ("field", "spike"): {"cell": [99, 0]},
    ("family.operator", "constant"): {"matrix": [[1.0]]},
    ("family.operator", "variable-1d"): {"base": "x"},
    ("family.operator", "complex-perturbed"): {"eps": "x"},
    ("weight", "power-distance"): {"gamma": "x"},
    ("weight", "spike"): {"amp": "x"},
    ("functional", "constant"): {"value": -1.0},
    ("functional", "bmo-lipschitz"): {"alpha": -1.0},
    ("functional", "expanded-poincare"): {"s": "x"},
    ("functional.gamma", "geometric"): {"sigma": 0.0},
    ("functional.gamma", "table"): {"values": [1.0, -1.0]},
    ("functional.h", "gradient-of-smooth"): {"band": "x"},
}


def test_malformed_cases_cover_every_kind_with_keys():
    with_keys = {(path, kind) for path, kind in SECTION_KINDS
                 if keys_of(KIND_SECTIONS[path][0][kind])}
    assert with_keys - set(MALFORMED) == {("field", "random-normal")}


@pytest.mark.parametrize("path, kind", sorted(MALFORMED))
def test_a_kind_rejects_a_malformed_value_of_its_own_key(path, kind):
    spec = {**full_spec(path, kind, 2), **MALFORMED[path, kind]}
    with pytest.raises(ParameterError):
        built_section(path, spec, 2, 32)


def test_check_keys_reads_each_reader_signature_once(monkeypatch):
    # the keyword-only parameters are read once per reader; unknown and
    # missing keys still name their dotted path
    from osclab import _support

    def reader(context, *, alpha: float, beta: int = 2):  # annotations are strings here
        return context

    assert list(_support.check_keys(reader, {"alpha": 1.0}, "sec")) == ["alpha", "beta"]

    def no_signature(*args, **kwargs):
        raise AssertionError("inspect.signature called again")

    monkeypatch.setattr(_support.inspect, "signature", no_signature)
    keys = _support.check_keys(reader, {"alpha": 1.0, "beta": 3}, "sec")
    assert keys["alpha"].annotation is float and keys["beta"].default == 2
    with pytest.raises(ParameterError, match=r"unknown config key\(s\): sec\.gamma$"):
        _support.check_keys(reader, {"alpha": 1.0, "gamma": 0}, "sec")
    with pytest.raises(ParameterError, match=r"missing config key\(s\): outer\.sec\.alpha$"):
        _support.check_keys(reader, {}, "outer.sec")
