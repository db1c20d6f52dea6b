"""Source hygiene: no module of the package imports a name it never uses,
defines a function, class or method that nothing in the package mentions,
and the README's table of config kinds is the builder tables."""

from __future__ import annotations

import ast
import inspect
import json
import os
import re

import pytest

import osclab
from osclab.cli import KIND_SECTIONS

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


def _rendered_keys(builder) -> str:
    """A kind's keys as the README lists them: `key` when required, else `key=<JSON default>`."""
    params = [p for p in inspect.signature(builder).parameters.values() if p.kind is p.KEYWORD_ONLY]
    return ", ".join(f"`{p.name}`" if p.default is p.empty else f"`{p.name}={json.dumps(p.default)}`"
                     for p in params) or "none"


def test_readme_lists_every_kind_of_every_table_with_its_keys():
    with open(os.path.join(ROOT, "README.md")) as fh:
        rows = re.findall(r"^\| `([\w.]+)` \| `([\w-]+)` \| (.*?) \|(?: .* \|)?$", fh.read(), re.MULTILINE)
    listed = {(section, kind): keys for section, kind, keys in rows}
    assert len(listed) == len(rows), "a kind is listed twice"
    tables = {(path, kind): _rendered_keys(builder)
              for path, (table, _default) in KIND_SECTIONS.items() for kind, builder in table.items()}
    assert sorted(set(listed) - set(tables)) == [], "README names kinds that are in no table"
    assert sorted(set(tables) - set(listed)) == [], "README leaves out kinds of a table"
    assert listed == tables
