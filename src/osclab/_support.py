"""Shared plumbing: error types, seeded generators, JSON and CSV helpers."""

from __future__ import annotations

import json
import math
from typing import Any, Iterable, Sequence

import numpy as np

#: relative slack used when snapping real coordinates to the cell lattice
ALIGN_TOL = 1e-9


class OsclabError(Exception):
    """Base class for all package errors."""


class ParameterError(OsclabError):
    """An argument violates a documented precondition."""


class DataError(OsclabError):
    """Input data violates an invariant (non-finite samples, nonpositive weight...)."""


class DomainError(OsclabError):
    """The requested object is undefined on the given domain."""


class NumericError(OsclabError):
    """A solver failed to reach its accuracy contract."""


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based (Philox) generator; reproducible and cheap to split."""
    return np.random.Generator(np.random.Philox(seed))


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        if math.isnan(v):
            return "nan"
        return v
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "to_dict"):
        return _jsonable(obj.to_dict())
    return obj


def dump_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, shortest-roundtrip floats, no whitespace drift."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def format_float(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    return repr(float(x))


def dump_csv(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """Deterministic CSV with repr-formatted floats."""
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, (float, np.floating)):
                cells.append(format_float(float(v)))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
