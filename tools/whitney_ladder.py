"""Time the Whitney decomposition on a ladder of resolutions.

Usage: python tools/whitney_ladder.py [SRC]

Imports osclab from SRC (default: this checkout's ``src``), so that two
checkouts can be timed by one script.  The level sets are superlevel sets
{W > w_t} of a random walk W (normal steps summed along each axis, seeds
0-2) at the quantiles t = 0.3, 0.5, 0.7, 0.9, with Q of side 1/4 at 1/4 on
each axis: 12 level sets per rung, on the 1-D rungs m = 1024, 4096 and the
2-D rungs m = 32, 64, 128.  Prints one line per rung: the milliseconds per
level set of ``whitney_decompose`` alone and of ``whitney_decompose``
followed by ``whitney_check``, each the best of 3 passes over the 12 sets,
and the mean number of cubes per level set.  Run with
OPENBLAS_NUM_THREADS=1 for single-threaded timings.
"""

from __future__ import annotations

import os
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, sys.argv[1] if len(sys.argv) > 1 else os.path.join(ROOT, "src"))

from osclab.cubes import Cube, whitney_check, whitney_decompose  # noqa: E402

RUNGS = [(1, 1024), (1, 4096), (2, 32), (2, 64), (2, 128)]
QUANTILES = (0.3, 0.5, 0.7, 0.9)
PASSES = 3


def level_sets(dim: int, m: int) -> list[np.ndarray]:
    sets = []
    for seed in range(3):
        walk = np.random.default_rng(seed).normal(size=(m,) * dim)
        for ax in range(dim):
            walk = np.cumsum(walk, axis=ax)
        sets += [walk > np.quantile(walk, t) for t in QUANTILES]
    return sets


def best_ms(work, sets: list[np.ndarray]) -> float:
    """The best of PASSES passes of ``work`` over ``sets``, in ms per set."""
    best = float("inf")
    for _ in range(PASSES):
        t0 = time.perf_counter()
        for omega in sets:
            work(omega)
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best / len(sets)


def main() -> int:
    for dim, m in RUNGS:
        q = Cube((0.25,) * dim, 0.25)
        sets = level_sets(dim, m)
        decompose = best_ms(lambda omega: whitney_decompose(omega, q), sets)
        checked = best_ms(lambda omega: whitney_check(omega, whitney_decompose(omega, q), m), sets)
        cubes = np.mean([len(whitney_decompose(omega, q)) for omega in sets])
        print(f"{dim}-D m={m}: decompose {decompose:.2f} ms, with check {checked:.2f} ms, "
              f"{cubes:.0f} cubes per level set")
    return 0


if __name__ == "__main__":
    sys.exit(main())
