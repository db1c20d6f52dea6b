"""Byte identity across commits: every bundled artifact keeps the sha256 that
``tests/artifact_digests.sha256`` records, as ``tools/artifact_digests.py``
prints it.  A change that moves bytes on purpose rewrites that file with
``python tools/artifact_digests.py OUT > tests/artifact_digests.sha256``."""

from __future__ import annotations

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDED = os.path.join(ROOT, "tests", "artifact_digests.sha256")


def _tool():
    spec = importlib.util.spec_from_file_location("artifact_digests", os.path.join(ROOT, "tools", "artifact_digests.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _by_path(lines: list[str]) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_bundled_artifacts_keep_their_recorded_digests(tmp_path):
    tool = _tool()
    with open(RECORDED) as fh:
        header, *recorded = fh.read().splitlines()
    if header != tool.versions():
        pytest.fail(f"{RECORDED} records digests for {header[2:]}, and this interpreter runs "
                    f"{tool.versions()[2:]}; the digests hold for one set of versions only")
    want, got = _by_path(recorded), _by_path(tool.digests(str(tmp_path)))
    moved = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not moved, f"artifacts whose bytes moved: {', '.join(moved)}"
