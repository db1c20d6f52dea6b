"""Source hygiene: no module of the package imports a name it never uses, and
the README's table of config kinds is the builder tables."""

from __future__ import annotations

import ast
import inspect
import json
import os
import re

import pytest

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
