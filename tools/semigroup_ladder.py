"""Time the stencil semigroup backend on a ladder of resolutions.

Usage: python tools/semigroup_ladder.py

Prints one line per rung with the seconds of one ``semigroup_apply`` call
over all dyadic times t = (2^k / m)^2, k = 0..log2 m, and its error:

* 1-D ``variable-1d`` (a(x) = 1.25 + 0.75 cos 2 pi x) at m = 128 ... 4096 on
  five fields, the log-distance field and four random-smooth fields (band 6),
  as bmo-heat draws them;
* the 2-D complex variable operator of the test suite at m = 16, 32, 64 on
  three of those fields;
* ``verify_bmo_equivalence`` on that 2-D operator at m = 64 (one rung, three
  fields, p in {1, 2, 4}, s = 8), with its seconds and verdict;
* a high-contrast real 2-D operator, a_11 = 1 + 0.99 cos 2 pi x and a_22 =
  1 + 0.99 sin 2 pi y (each in [0.01, 1.99]): the steps, seconds and
  ``tracemalloc`` peak of one inner GMRES solve per shift on a random-normal
  right-hand side at m = 32 ... 256, and ``semigroup_apply`` on three fields
  at m = 32, 64, 128, where a NumericError (the a-posteriori check refusing
  the basis) is printed as the rung's result.

The error is the largest |difference| over times, fields and cells, divided by
the largest |f|, against the same backend with 20 more basis vectors
(``vs k+20``), and in 1-D up to m = 1024 also against e^{-tL} from a
dense eigendecomposition of the symmetric stencil (``vs eigh``), whose own
error grows with ||L||: its eigenvalues are off by about 1e-16 ||L||, which
is 1e-9 at m = 1024 and moves e^{-t lambda} by t times that.  The package
is imported from this checkout's ``src``; run with OPENBLAS_NUM_THREADS=1 for
single-threaded timings.
"""

from __future__ import annotations

import math
import os
import sys
import time
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from osclab._support import NumericError  # noqa: E402
from osclab.cli import OPERATORS  # noqa: E402
from osclab.grid import Field, make_field  # noqa: E402
from osclab.operators import EllipticOperator, _gmres, make_family, semigroup_apply  # noqa: E402
from osclab.verify import BmoRung, verify_bmo_equivalence  # noqa: E402


def complex_variable_operator_2d(m: int) -> EllipticOperator:
    """Variable coefficients with imaginary parts on and off the diagonal."""
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m), dtype=complex)
    coeffs[0, 0] = 1.25 + 0.5 * np.cos(2 * np.pi * xx) + 0.3j * np.sin(2 * np.pi * yy)
    coeffs[1, 1] = 1.2 + 0.4 * np.sin(2 * np.pi * yy) - 0.2j * np.cos(2 * np.pi * xx)
    coeffs[0, 1] = 0.2 * np.cos(2 * np.pi * (xx + yy)) + 0.15j * np.sin(2 * np.pi * xx)
    coeffs[1, 0] = 0.2 * np.cos(2 * np.pi * (xx + yy)) - 0.1j * np.cos(2 * np.pi * yy)
    return EllipticOperator(coeffs, dimension=2)


def high_contrast_operator_2d(m: int) -> EllipticOperator:
    """Real diagonal coefficients in [0.01, 1.99], contrast about 200."""
    x = (np.arange(m) + 0.5) / m
    xx, yy = np.meshgrid(x, x, indexing="ij")
    coeffs = np.zeros((2, 2, m, m))
    coeffs[0, 0], coeffs[1, 1] = 1 + 0.99 * np.cos(2 * np.pi * xx), 1 + 0.99 * np.sin(2 * np.pi * yy)
    return EllipticOperator(coeffs, dimension=2)


def bmo_fields(dimension: int, m: int, count: int) -> list[Field]:
    return ([make_field("log-distance", dimension, m, center=0.5)]
            + [make_field("random-smooth", dimension, m, seed=s, band=6) for s in range(32, 31 + count)])


def dense(op: EllipticOperator) -> np.ndarray:
    """The stencil as a dense matrix, op.apply on each unit vector."""
    shape = (op.resolution,) * op.dimension
    return np.stack([op.apply(Field(u.reshape(shape))).values.ravel() for u in np.eye(op.resolution ** op.dimension)],
                    axis=1)


def error(got: list, want: list, scale: float) -> float:
    return max(float(np.max(np.abs(g.values - w))) for row_g, row_w in zip(got, want)
               for g, w in zip(row_g, row_w)) / scale


def rung(label: str, op: EllipticOperator, fields: list[Field], eigh_max: int) -> None:
    m = op.resolution
    times = [(2 ** k / m) ** 2 for k in range(m.bit_length())]
    start = time.perf_counter()
    try:
        got = semigroup_apply(op, times, fields)
    except NumericError as exc:
        print(f"{label:<22} m={m:<5} fields={len(fields)} times={len(times):<3} "
              f"{time.perf_counter() - start:8.3f} s  k={op.krylov_dim:<3} refused: {exc}", flush=True)
        return
    seconds = time.perf_counter() - start
    scale = max(float(np.max(np.abs(g.values))) for g in fields)
    k = op.krylov_dim
    op.krylov_dim = k + 20
    wider = semigroup_apply(op, times, fields)
    op.krylov_dim = k
    line = (f"{label:<22} m={m:<5} fields={len(fields)} times={len(times):<3} {seconds:8.3f} s  "
            f"k={k:<3} vs k+20 {error(got, [[g.values for g in row] for row in wider], scale):.1e}")
    if op.dimension == 1 and m <= eigh_max:
        mu, vecs = np.linalg.eigh(dense(op))
        exact = [[vecs @ (np.exp(-t * mu) * (vecs.T @ g.values)) for g in fields] for t in times]
        line += f"  vs eigh {error(got, exact, scale):.1e}"
    print(line, flush=True)


def gmres_rung(label: str, op: EllipticOperator) -> None:
    """Steps, seconds and tracemalloc peak of one inner solve per shift."""
    m = op.resolution
    b = make_field("random-normal", 2, m, seed=1).values
    for j, gamma in enumerate(op.shifts):
        tracemalloc.start()
        start = time.perf_counter()
        _x, steps = _gmres(op, j, b)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        print(f"{label:<22} m={m:<5} GMRES gamma={gamma:.3g}  {steps:3d} steps {seconds:8.3f} s  "
              f"peak {peak / 2 ** 20:6.1f} MB", flush=True)


def main() -> int:
    for m in (128, 256, 512, 1024, 2048, 4096):
        rung("1-D variable-1d", OPERATORS["variable-1d"](1, m), bmo_fields(1, m, 5), eigh_max=1024)
    for m in (16, 32, 64):
        rung("2-D complex variable", complex_variable_operator_2d(m), bmo_fields(2, m, 3), eigh_max=0)
    m = 64
    family = make_family("semigroup", (1.0, math.inf), complex_variable_operator_2d(m))
    start = time.perf_counter()
    report = verify_bmo_equivalence([BmoRung(m, family, bmo_fields(2, m, 3))], [1.0, 2.0, 4.0], 8.0, 0.0)
    print(f"{'2-D complex variable':<22} m={m:<5} verify_bmo_equivalence {time.perf_counter() - start:8.3f} s  "
          f"passed={report.passed}", flush=True)
    for m in (32, 64, 128, 256):
        gmres_rung("2-D high contrast", high_contrast_operator_2d(m))
    for m in (32, 64, 128):
        rung("2-D high contrast", high_contrast_operator_2d(m), bmo_fields(2, m, 3), eigh_max=0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
