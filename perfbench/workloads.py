"""The benchmark's workloads: which bundled configs each one runs, and how the
benchmark seed reaches every seeded input of those configs.

A workload is a list of ``osclab.cli.run_experiment`` calls.  Input seed ``s``
adds ``s`` to each config's own ``seed``; for runs with the ``bmo`` harness it
also shifts ``bmo.field_seeds`` by ``10 * s``, because those fields are drawn
from ``field_seeds`` alone and would otherwise ignore ``seed``.  Input seed 0
reproduces the bundled configs exactly.

Benchmark seed ``n`` stands for the ``DRAWS`` input seeds ``n * DRAWS + j``,
and iteration ``i`` of a run uses ``j = i % DRAWS``.  How much work a config
does depends on its seed (the 2-D stopping-time walk by up to 25%), so a run
that cycles through several inputs measures an average that moves far less
from one benchmark seed to the next than a single input does.  Benchmark seed
0, the default, starts with the bundled configs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
DRAWS = 3  # input seeds per benchmark seed

# The field seeds the bundled bmo-heat config ships; run_pipeline uses the
# same list when a config has no ``bmo.field_seeds``.
BMO_FIELD_SEEDS = (31, 32, 33, 34, 35)
FIELD_SEED_STRIDE = 10  # > len(BMO_FIELD_SEEDS), so seeds n and n+1 share no field


@dataclass(frozen=True)
class Run:
    """One run_experiment call: a bundled config plus fixed overrides."""

    label: str
    config: str
    overrides: tuple[str, ...] = ()
    bmo_fields: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runs: tuple[Run, ...]


# Two workloads, each grouping the runs of two narrower ones (heat-1d with
# bmo-local, local-1d with epi-2d).  On a shared 2-core host, medians of 28 s
# runs of the four narrow workloads spread by up to 26% across seeds; two
# workloads allow runs twice as long in the same total time.
# Per-run times (cli.run_experiment.<label>.s) and the layer metrics still
# separate the grouped runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sharp-max",
            "every sharp-maximal path: semigroup B_Q on the Crank-Nicolson stencil and the "
            "positional m x c window matrix; an exact backend, B-field reuse and memory bounding show here",
            (
                Run("bmo-heat", "bmo-heat", bmo_fields=True),
                Run("heat-offdiag", "heat-offdiag"),
                Run(
                    "classical-jn-bmo",
                    "classical-jn",
                    ('harnesses=["bmo"]', 'bmo.operators={"identity":[512,1024,2048]}'),
                    bmo_fields=True,
                ),
            ),
        ),
        Workload(
            "cube-harness",
            "averaging-family harness sweeps in 1-D and the 2-D expanded-Poincare pair: norms, "
            "cube walks, conditions, weights; no stencil work, so a semigroup change should not move it",
            (
                Run("classical-jn", "classical-jn"),
                Run("weighted-power", "weighted-power"),
                Run("epi-pair", "epi-pair"),
            ),
        ),
    )
}


def input_seed(seed: int, iteration: int) -> int:
    """The input seed iteration ``iteration`` of a run at benchmark seed ``seed`` uses."""
    return seed * DRAWS + iteration % DRAWS


def config_path(root: str, config: str) -> str:
    return os.path.join(root, "src", "osclab", "configs", config + ".json")


def seeded_overrides(root: str, run: Run, seed: int) -> list[str]:
    """The run's ``--set`` overrides with input seed ``seed`` applied."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    with open(config_path(root, run.config)) as fh:
        data = json.load(fh)
    out = list(run.overrides) + [f"seed={int(data.get('seed', 0)) + seed}"]
    if run.bmo_fields:
        base = data.get("bmo", {}).get("field_seeds", list(BMO_FIELD_SEEDS))
        out.append("bmo.field_seeds=" + json.dumps([s + FIELD_SEED_STRIDE * seed for s in base]))
    return out
