"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared host, other tenants slow a memory- and interpreter-heavy process
like osclab by up to 1.7x for tens of seconds at a time, so raw wall times
of the same code drift far apart between runs.  An iteration therefore times
this kernel before its first ``run_experiment`` call and after each one, in
the same process.  ``run_cal_s`` divides each call's wall time by the mean of
the kernel times just before and after it, and ``setup_s`` divides the
set-up time by the first kernel time.  The kernel mixes what osclab spends its time on: interpreter
loops, small-object allocation, and many numpy calls on small and
medium arrays.  It never touches osclab, and it allocates little,
so it moves neither a program change's effect nor ``peak_rss_mb``.

Change nothing here once numbers have been recorded: the metric of two
commits is comparable only if both were divided by the same kernel.
"""

from __future__ import annotations

import time

import numpy as np

# Calibrated time = wall time / kernel time * REFERENCE_S.  The constant only
# sets the scale: it is the kernel's median time on the shared 2-core Xeon
# host (Python 3.11, numpy 2.4) the benchmark was written on, so calibrated
# times read as that host's typical seconds.
REFERENCE_S = 0.08

_SMALL = np.linspace(0.0, 1.0, 64)
# 64 KB: below glibc's default mmap threshold, so the kernel leaves the
# allocator's settings, and the program's memory use, as it found them.
_MEDIUM = np.linspace(0.0, 1.0, 8_192)


def _interpreter() -> int:
    s = 0
    for i in range(200_000):
        s += i * i % 7
    return s


def _objects() -> int:
    n = 0
    for _ in range(25):
        table = {}
        for i in range(1_000):
            table[(i, i + 1)] = [(i & 7) * 0.5, str(i & 255)]
        n += len(table)
    return n


def _small_arrays() -> float:
    s = 0.0
    for _ in range(2_500):
        s += float(np.abs(_SMALL - 0.5).mean())
    return s


def _medium_arrays() -> float:
    s = 0.0
    for _ in range(1_000):
        s += float((_MEDIUM * 1.0001 + 0.5).sum())
    return s


KERNEL = (_interpreter, _objects, _small_arrays, _medium_arrays)


def sample() -> float:
    """Seconds the kernel takes now."""
    t = time.perf_counter()
    for part in KERNEL:
        part()
    return time.perf_counter() - t
