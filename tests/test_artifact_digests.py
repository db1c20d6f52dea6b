"""Byte identity across commits: every bundled artifact keeps the sha256 that
``tests/artifact_digests.sha256`` records, as ``tools/artifact_digests.py``
prints it.  The tool runs in a child process, which sets the BLAS thread
count to 1 before numpy loads, so the digests do not depend on the number
of cores.  A change that moves bytes on purpose rewrites that file with
``python tools/artifact_digests.py OUT > tests/artifact_digests.sha256``."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORDED = os.path.join(ROOT, "tests", "artifact_digests.sha256")
TOOL = os.path.join(ROOT, "tools", "artifact_digests.py")


def _by_path(lines: list[str]) -> dict[str, str]:
    return {path: digest for digest, path in (line.split("  ", 1) for line in lines)}


def test_bundled_artifacts_keep_their_recorded_digests(tmp_path):
    with open(RECORDED) as fh:
        header, *recorded = fh.read().splitlines()
    proc = subprocess.run([sys.executable, TOOL, str(tmp_path)], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    runs, *lines = proc.stdout.splitlines()
    if header != runs:
        pytest.fail(f"{RECORDED} records digests for {header[2:]}, and the tool runs {runs[2:]}; "
                    f"the digests hold for one set of versions only")
    want, got = _by_path(recorded), _by_path(lines)
    moved = sorted(path for path in want.keys() | got.keys() if want.get(path) != got.get(path))
    assert not moved, f"artifacts whose bytes moved: {', '.join(moved)}"
