"""Span tracer for the per-layer metrics, installed from outside the program.

``Tracer.install`` wraps every public function of the layer modules, plus a
few named methods, and rebinds every ``osclab.*`` module global that refers
to a wrapped function: a module that did ``from osclab.grid import
lp_average`` would otherwise keep calling the unwrapped original.  Spans are
kept in memory (name, parent, start, end, resumed) and reduced to per-layer
metrics after the run; self time is a span's duration minus the time its
direct children cover.  Single-threaded only: every workload runs at
``workers=1``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
import types
from collections import defaultdict

from workloads import WORKLOADS

LAYERS = ("cli", "operators", "grid", "cubes", "functionals", "weights", "verify")

# Methods traced on their class: span name -> (layer, class, method).
METHODS = {
    "operators.apply_B": ("operators", "OscillationFamily", "apply_B"),
    "operators.apply_B_scale": ("operators", "OscillationFamily", "apply_B_scale"),
    "cubes.Cube.cell_arrays": ("cubes", "Cube", "cell_arrays"),
    "functionals.Functional.eval": ("functionals", "Functional", "eval"),
    "weights.Weight.mass": ("weights", "Weight", "mass"),
}

NORM_FUNCTIONS = ("grid.lp_average", "grid.weak_lq_norm", "grid.exp_luxemburg_norm")

RUN_LABELS = tuple(r.label for w in WORKLOADS.values() for r in w.runs)


def _per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out: list[tuple[str, str, str]] = []

    def fn(name: str, *kinds: str) -> None:
        for kind in kinds:
            if kind == "calls":
                out.append((f"{name}.calls", "count", "lower"))
            elif kind == "self_s":
                out.append((f"{name}.self_s", "s", "lower"))
            else:
                out.append((f"{name}.distinct_frac", "ratio", "higher"))

    fn("operators.semigroup_apply.stencil", "calls", "self_s")
    fn("operators.semigroup_apply.spectral", "calls", "self_s")
    fn("operators.apply_B_scale", "calls", "distinct_frac")
    fn("operators.sharp_maximal", "calls", "self_s")
    fn("operators.apply_B", "calls", "distinct_frac")
    fn("operators.measure_offdiagonal", "self_s")
    fn("operators.audit_family", "self_s")
    for name in NORM_FUNCTIONS:
        fn(name, "calls", "self_s")
    out.append(("grid.norm_cells", "count", "lower"))
    for name in ("maximal_function", "scale_sweep_max", "sliding_cube_means"):
        fn("grid." + name, "calls", "self_s")
    fn("cubes.sample_disjoint_families", "calls", "self_s")
    fn("cubes.whitney_decompose", "calls", "self_s")
    fn("cubes.dilate", "calls", "self_s")
    fn("cubes.Cube.cell_arrays", "calls")
    fn("functionals.estimate_condition", "calls", "self_s")
    fn("functionals.Functional.eval", "calls", "distinct_frac")
    fn("weights.weight_report", "self_s")
    fn("weights.rh_subset_check", "self_s")
    fn("weights.Weight.mass", "calls")
    for name in ("check_hypothesis", "verify_weak_improvement", "verify_strong",
                 "verify_exponential", "verify_good_lambda", "verify_bmo_equivalence"):
        fn("verify." + name, "self_s")
    for label in RUN_LABELS:
        out.append((f"cli.run_experiment.{label}.s", "s", "lower"))
    fn("cli.build_rung", "self_s")
    fn("cli.emit_outputs", "self_s")
    out.append(("cli.emit_outputs.bytes", "bytes", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
        out.append((f"{layer}.share", "ratio", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


PER_LAYER = _per_layer_metrics()


def _digest(values) -> bytes:
    return hashlib.blake2b(values.tobytes(), digest_size=16).digest()


def _cube_key(q) -> tuple:
    return tuple(q.anchor), q.side


class Tracer:
    """Records spans of the wrapped functions for one iteration (one request)."""

    def __init__(self, request: int = 0):
        self.request = request
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name_id, parent index or -1, start, end, resumed (1: a generator step, not a call)]
        self.spans: list = []
        self._stack: list[int] = []
        self.keys: dict[str, set] = defaultdict(set)
        self.counters: dict[str, float] = defaultdict(float)
        self._pinned: list = []  # objects keyed by id() stay alive, so ids stay unique

    # -- hooks: extra counts taken at the span boundary ----------------------

    def _pin(self, obj) -> int:
        self._pinned.append(obj)
        return id(obj)

    def _before(self, name: str, args: tuple) -> str:
        if name == "operators.semigroup_apply":
            return name + (".spectral" if args[0].is_constant else ".stencil")
        if name == "operators.apply_B_scale":
            fam, f, side = args[:3]
            self.keys[name].add((self._pin(fam.operator), _digest(f.values), side))
        elif name == "operators.apply_B":
            fam, f, q = args[:3]
            self.keys[name].add((self._pin(fam), _digest(f.values), _cube_key(q)))
        elif name == "functionals.Functional.eval":
            self.keys[name].add((self._pin(args[0]), _cube_key(args[1])))
        elif name in NORM_FUNCTIONS:
            f, q = args[:2]
            self.counters["grid.norm_cells"] += q.cells_per_axis(f.resolution) ** f.dimension
        return name

    def _after(self, name: str, result) -> None:
        if name == "cli.emit_outputs":
            self.counters["cli.emit_outputs.bytes"] += sum(os.path.getsize(p) for p in result)

    # -- wrapping -----------------------------------------------------------

    def _open(self, nid: int, resumed: int) -> int:
        idx = len(self.spans)
        self.spans.append([nid, self._stack[-1] if self._stack else -1, 0.0, 0.0, resumed])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx][2:4] = (start, end)

    def _resumed(self, gen, owner_nid: int):
        """Run each step of ``gen`` in a span of its owner.

        A generator built inside one traced function and consumed by another
        (``sharp_maximal`` hands its per-scale generator to
        ``scale_sweep_max``) runs its owner's code; its steps are that owner's
        self time, not the consumer's.  Resumed spans are not calls.
        """
        while True:
            idx = self._open(owner_nid, 1)
            start = time.perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._close(idx, start)
            yield item

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = self._before(name, args)
            nid = self._name_ids.get(span_name)
            if nid is None:
                nid = self._name_ids[span_name] = len(self.names)
                self.names.append(span_name)
            if self._stack and any(type(a) is types.GeneratorType for a in args):
                owner = self.spans[self._stack[-1]][0]
                args = tuple(self._resumed(a, owner) if type(a) is types.GeneratorType else a
                             for a in args)
            idx = self._open(nid, 0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            self._after(name, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the layers' public functions and the METHODS; rebind all references."""
        wrapped: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module("osclab." + layer)
            for attr, value in vars(mod).items():
                if (inspect.isfunction(value) and value.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[value] = self._wrap(f"{layer}.{attr}", value)
        for mod_name in [m for m in sys.modules if m == "osclab" or m.startswith("osclab.")]:
            mod = sys.modules[mod_name]
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(mod, attr, wrapped[value])
        for span_name, (layer, cls_name, method) in METHODS.items():
            cls = getattr(importlib.import_module("osclab." + layer), cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if fn is not None:  # a method the program no longer has reports 0 calls
                setattr(cls, method, self._wrap(span_name, fn))

    # -- reduction ----------------------------------------------------------

    def span_stats(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for _nid, parent, start, end, _resumed in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for i, (nid, _parent, start, end, resumed) in enumerate(self.spans):
            name = self.names[nid]
            calls[name] += 1 - resumed
            self_s[name] += (end - start) - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def metrics(self, run_s: float, run_times: dict[str, float]) -> dict[str, float]:
        """Every PER_LAYER metric except trace.overhead_frac, for this iteration.

        A function that was never called reports 0 calls, 0 s and a
        distinct_frac of 0.
        """
        stats = self.span_stats()
        layer_self = defaultdict(float)
        for name, (_calls, secs) in stats.items():
            layer_self[name.split(".", 1)[0]] += secs
        out: dict[str, float] = {}
        for metric, _unit, _better in PER_LAYER:
            base, _, kind = metric.rpartition(".")
            calls, secs = stats.get(base, (0, 0.0))
            if metric in ("grid.norm_cells", "cli.emit_outputs.bytes"):
                value = self.counters.get(metric, 0.0)
            elif metric.startswith("cli.run_experiment."):
                value = run_times.get(metric[len("cli.run_experiment."):-len(".s")], 0.0)
            elif base in LAYERS:
                value = layer_self[base] if kind == "self_s" else layer_self[base] / run_s
            elif metric == "trace.overhead_frac":
                continue
            elif kind == "calls":
                value = calls
            elif kind == "self_s":
                value = secs
            else:  # distinct_frac
                value = len(self.keys[base]) / calls if calls else 0.0
            out[metric] = value
        return out

    def dump(self) -> dict:
        return {"request": self.request, "names": self.names, "spans": self.spans}
