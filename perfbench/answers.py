"""Answer check: harness verdicts and constants against a stored reference.

``extract`` flattens a ``report.json`` into verdicts (every boolean under
``harnesses`` plus the top-level ``passed``) and constants (every number
under ``harnesses``; the strings "inf", "-inf" and "nan" that the report
writes for non-finite floats count as numbers).  ``compare`` checks a run
against ``reference.json``, which holds the extraction of each workload's
reports at the default seed, generated from the seed commit by
``make_reference.py``.
"""

from __future__ import annotations

import math

# A constant may move by this relative amount.  An exact semigroup backend
# shifts seminorm ratios by about 1e-6 (the Crank-Nicolson error) and
# prefix-sum box sums shift last bits; a wrong answer moves far more.
REL_TOL = 1e-5
# Below this magnitude a reference constant is compared absolutely, so a
# reference 0.0 that becomes 1e-17 is not an infinite relative deviation.
ABS_FLOOR = 1e-9

_NONFINITE = {"inf": math.inf, "-inf": -math.inf, "nan": math.nan}


def extract(report: dict) -> dict:
    verdicts: dict[str, bool] = {"passed": bool(report["passed"])}
    constants: dict[str, float] = {}

    def walk(node, path: str) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}")
        elif isinstance(node, list):
            for i, v in enumerate(node):
                walk(v, f"{path}.{i}")
        elif isinstance(node, bool):
            verdicts[path] = node
        elif isinstance(node, (int, float)):
            constants[path] = float(node)
        elif isinstance(node, str) and node in _NONFINITE:
            constants[path] = _NONFINITE[node]

    walk(report.get("harnesses", {}), "harnesses")
    return {"verdicts": verdicts, "constants": constants}


def rel_dev(value: float, ref: float) -> float:
    if value == ref or (math.isnan(value) and math.isnan(ref)):
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    return abs(value - ref) / max(abs(ref), ABS_FLOOR)


def compare(got: dict, ref: dict, check_constants: bool) -> tuple[list[str], float]:
    """(problems, largest constant deviation) of one run's extraction.

    A verdict or constant missing from ``got`` is a problem; entries the
    reference does not have are ignored, so reports may grow.  With
    ``check_constants`` false (non-default seeds) only verdicts are checked
    and the deviation is reported as 0.
    """
    problems = []
    for path, want in ref["verdicts"].items():
        have = got["verdicts"].get(path)
        if have != want:
            problems.append(f"verdict {path}: {have} != reference {want}")
    worst = 0.0
    if check_constants:
        for path, want in ref["constants"].items():
            if path not in got["constants"]:
                problems.append(f"constant {path} missing")
                continue
            dev = rel_dev(got["constants"][path], want)
            worst = max(worst, dev)
            if dev > REL_TOL:
                problems.append(f"constant {path}: {got['constants'][path]!r} vs reference "
                                f"{want!r} (rel dev {dev:.3g})")
    return problems, worst
