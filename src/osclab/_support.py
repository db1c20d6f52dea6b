"""Shared plumbing: error types, seeded generators, report trees, JSON and CSV helpers."""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import math
from typing import Any, Callable, Iterable, Optional, Sequence

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


def ratio(num: float, denom: float) -> float:
    """num / denom, with 0/0 = 0 and x/0 = inf for x != 0."""
    if denom == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return num / denom


# ---------------------------------------------------------------------------
# config keys
# ---------------------------------------------------------------------------
#
# A config section is read by one function: the section's keys are that
# function's keyword-only parameters, and its defaults their defaults (none:
# required); positional ones take the context.  A section ``{"kind": ...,
# <keys>}`` is built by its kind's builder in a table.


def check_keys(reader: Callable, spec: Any, path: str) -> dict:
    """The keyword-only parameters of ``reader`` by name; a key of the section
    ``spec`` at ``path`` that is none of them, or a required one it leaves out,
    raises ParameterError naming its dotted path."""
    if not isinstance(spec, dict):
        raise ParameterError(f"config section {path or '(top level)'} must be an object, got {spec!r}")
    keys = dict(_keyword_only(reader))
    unknown = [dotted(path, k) for k in sorted(set(spec) - set(keys))]
    missing = [dotted(path, k) for k, p in keys.items() if p.default is p.empty and k not in spec]
    if unknown or missing:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}" if unknown
                             else f"missing config key(s): {', '.join(missing)}")
    return keys


@functools.cache
def _keyword_only(reader: Callable) -> dict:
    """The keyword-only parameters of ``reader`` by name, read once per reader:
    ``eval_str`` evaluates every annotation string of the signature."""
    params = inspect.signature(reader, eval_str=True).parameters.values()
    return {p.name: p for p in params if p.kind is p.KEYWORD_ONLY}


def dotted(path: str, key: str) -> str:
    """The dotted path of ``key`` in the section at ``path`` ('' is the top level)."""
    return f"{path}.{key}" if path else key


def check_kind(table: dict, spec: Any, path: str, default_kind: Optional[str] = None) -> Callable:
    """The builder of ``spec``'s kind; an unknown kind, an unknown key or a missing
    required key raises ParameterError naming its dotted path below ``path``."""
    if not isinstance(spec, dict):
        raise ParameterError(f"{path} must be an object with a kind, got {spec!r}")
    kind = spec.get("kind", default_kind)
    if not isinstance(kind, str) or kind not in table:
        raise ParameterError(f"{path}: unknown kind {kind!r} (known: {', '.join(table)})")
    check_keys(table[kind], {k: v for k, v in spec.items() if k != "kind"}, path)
    return table[kind]


def build_kind(table: dict, spec: Any, path: str, *context, default_kind: Optional[str] = None):
    """Call the builder of ``spec``'s kind on ``context`` and the spec's keys; a value
    it cannot convert (``float("x")``) or rejects raises ParameterError naming ``path``."""
    builder = check_kind(table, spec, path, default_kind)
    try:
        return builder(*context, **{k: v for k, v in spec.items() if k != "kind"})
    except (TypeError, ValueError, ParameterError) as exc:
        raise ParameterError(f"{path}: {exc}") from exc


def report_tree(obj: Any) -> Any:
    """The tree a report object writes: a dataclass becomes its fields by name,
    a dict its items under string keys, a list or tuple a list, each value
    turned likewise; any other value is kept as it is."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: report_tree(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): report_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [report_tree(v) for v in obj]
    return obj


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
