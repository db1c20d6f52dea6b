"""Source hygiene: no module of the package imports a name it never uses,
defines a function, class or method that nothing in the package mentions,
or a ``to_dict`` other than the cube codec's; each report object writes
exactly its dataclass fields; the README's tables of config sections and kinds are the readers'
signatures, its command-line block is the parser's, and importing the
command line loads no scipy module."""

from __future__ import annotations

import ast
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys

import pytest

import osclab
from osclab._support import dump_json, report_tree
from osclab.cli import KIND_SECTIONS, SECTIONS, main
from osclab.cubes import Cube, descendant, sample_disjoint_families
from osclab.functionals import estimate_condition
from osclab.grid import make_field
from osclab.operators import audit_family, make_family, measure_offdiagonal
from osclab.verify import (
    BmoRung,
    Rung,
    check_hypothesis,
    make_cube_sample,
    measured_oscillation,
    two_q_functional,
    verify_bmo_equivalence,
    verify_good_lambda,
    verify_weak_improvement,
)
from osclab.weights import ones_weight, weight_report

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "osclab")
MODULES = sorted(
    name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py"
)


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere, including those inside string annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    with open(os.path.join(SRC, module)) as fh:
        tree = ast.parse(fh.read(), filename=module)
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree).items()
              if name not in used]
    assert not unused, f"{module} imports but never uses: {', '.join(unused)}"


#: definitions that nothing in the package calls, kept on purpose
UNREACHED_BY_DESIGN = {
    "EllipticOperator.apply": "acceptance criterion 2 applies e^{-tL} through it",
    "u_s_apply": "acceptance criterion 2 checks the time average U_s through it",
    "Cube.contains_cube": "the containment oracle of the cube-geometry tests",
    "Field.integral": "the mean-conservation oracle of the semigroup tests",
    "FractionalFunctional": "the paper's fractional functional, checked in test_functionals.py",
}


def _definitions(tree: ast.Module):
    """(qualified name, name, line) of each top-level function and class and of each method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item.lineno


def _mentions(tree: ast.Module):
    """(name, line) of each read, attribute, import and identifier-like string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif isinstance(node, ast.alias):
            yield node.asname or node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value, node.lineno


def test_every_definition_is_reached_from_the_package():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name] = ast.parse(fh.read(), filename=name)
    mentioned = {}
    for module, tree in trees.items():
        for name, line in _mentions(tree):
            mentioned.setdefault(name, set()).add((module, line))
    unreached = [f"{qualified} ({module}:{line})"
                 for module, tree in trees.items() for qualified, name, line in _definitions(tree)
                 if not (name.startswith("__") and name.endswith("__"))
                 and name not in osclab.__all__ and qualified not in UNREACHED_BY_DESIGN
                 and not mentioned.get(name, set()) - {(module, line)}]
    assert not unreached, f"defined but never mentioned in src/osclab: {', '.join(unreached)}"


def test_only_the_cube_codec_defines_to_dict():
    # a report object is written by report_tree, field by field; Cube.to_dict
    # is the codec of Cube.from_dict, not a report
    defined = []
    for module in MODULES:
        with open(os.path.join(SRC, module)) as fh:
            tree = ast.parse(fh.read(), filename=module)
        defined += [f"{module}:{qualified}" for qualified, name, _line in _definitions(tree) if name == "to_dict"]
    assert defined == ["cubes.py:Cube.to_dict"]


def _one_report_of_each_kind() -> list:
    m = 32
    family = make_family("extended-average", (1.0, math.inf))
    f = make_field("log-distance", 1, m, center=0.5)
    cubes = make_cube_sample(1, m, 8, 4, seed=0)
    a = measured_oscillation(f, cubes)
    rung = Rung(m, f, family, a, two_q_functional(a), cubes)
    q = Cube((0.25,), 0.25)
    families = sample_disjoint_families(Cube((0.0,), 0.5), 3, seed=0, m=m)
    condition = estimate_condition(a, "Dr", r=2.0, families=families)
    probes = [make_field("constant", 1, m, value=1.0), f]
    return [
        check_hypothesis(rung, 2),
        verify_weak_improvement([rung], 2.0, condition)[0],
        verify_good_lambda(rung, q, 4.0, 0.5, 2.0, 4),
        verify_bmo_equivalence([BmoRung(m, family, [f])], [1.0, 2.0], 4.0, 0.0),
        audit_family(family, probes, [(descendant(q, 1, (0,)), q)]),
        measure_offdiagonal(family, probes, [q], 4, 1),
        condition,
        weight_report(ones_weight(1, m), [2.0], cubes, 0),
    ]


def test_a_report_writes_exactly_its_fields():
    reports = _one_report_of_each_kind()
    assert len({type(rep) for rep in reports}) == len(reports)
    for rep in reports:
        written = json.loads(dump_json(report_tree(rep)))
        assert list(written) == sorted(field.name for field in dataclasses.fields(rep)), type(rep).__name__


def _rendered_keys(builder) -> str:
    """The keys of a kind or a fixed section as the README lists them: `key` when
    required, else `key=<JSON default>`."""
    params = [p for p in inspect.signature(builder).parameters.values() if p.kind is p.KEYWORD_ONLY]
    return ", ".join(f"`{p.name}`" if p.default is p.empty else f"`{p.name}={json.dumps(p.default)}`"
                     for p in params) or "none"


def test_readme_lists_every_kind_of_every_table_with_its_keys():
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    rows = re.findall(r"^\| `([\w.]+)` \| `([\w-]+)` \| (.*?) \|(?: .* \|)?$", readme, re.MULTILINE)
    listed = {(section, kind): keys for section, kind, keys in rows}
    assert len(listed) == len(rows), "a kind is listed twice"
    tables = {(path, kind): _rendered_keys(builder)
              for path, (table, _default) in KIND_SECTIONS.items() for kind, builder in table.items()}
    assert sorted(set(listed) - set(tables)) == [], "README names kinds that are in no table"
    assert sorted(set(tables) - set(listed)) == [], "README leaves out kinds of a table"
    assert listed == tables
    # the fixed sections' table: (section or "top level", keys, reader and notes)
    rows = re.findall(r"^\| (`\w+`|top level) \| (.*?) \| .* \|$", readme, re.MULTILINE)
    fixed = [("" if name == "top level" else name.strip("`"), keys) for name, keys in rows]
    fixed = [(section, keys) for section, keys in fixed if section not in KIND_SECTIONS]
    assert len(dict(fixed)) == len(fixed), "a fixed section is listed twice"
    assert dict(fixed) == {section: _rendered_keys(reader) for section, reader in SECTIONS.items()}


def _help(capsys, *argv) -> str:
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--help"])
    assert exit_.value.code == 0
    return capsys.readouterr().out


def test_readme_command_block_is_the_parser(capsys):
    with open(os.path.join(ROOT, "README.md")) as fh:
        readme = fh.read()
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert block, "README has no ```sh block under '## Command line'"
    lines = [line.split("#")[0] for line in block.group(1).splitlines()]
    shown = [line.split()[1:] for line in lines if line.startswith("osclab ")]
    assert len(shown) == len([line for line in lines if line.strip()]), "a line of the block runs no command"
    commands = re.search(r"^usage: osclab \[-h\] \{([\w,-]+)\}", _help(capsys), re.MULTILINE).group(1)
    assert sorted({words[0] for words in shown}) == sorted(commands.split(","))
    for command, *words in shown:
        accepted = set(re.findall(r"--[\w-]+", _help(capsys, command)))
        unknown = [w for w in words if w.startswith("--") and w not in accepted]
        assert not unknown, f"osclab {command} takes no {', '.join(unknown)}"


def test_importing_the_cli_loads_no_scipy_module():
    # the pipeline computes with numpy alone; any scipy module would add its
    # import time and memory to every run
    path = os.pathsep.join(filter(None, [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")]))
    listed = subprocess.run([sys.executable, "-c", "import sys, osclab.cli; print(*sys.modules)"],
                            env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    modules = listed.stdout.split()
    assert "osclab.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []
