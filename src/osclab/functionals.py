"""Cube functionals, their dilation-series expansions, and summability estimators.

A functional assigns a nonnegative number to every cube; ``Functional.values``
gives it on a block of lattice cubes at once.  The built-in kinds cover power
laws in the sidelength, the reduced Poincare right-hand side, and constants.  Every expansion of a functional
(the expanded Poincare functional, the tilde/bar expansions and the eta
series) is one ``DilationSeries`` over the dyadic dilates 2^k Q; on the torus
the dilates saturate, and the series tail beyond the saturation index
collapses to full-torus terms summed in closed form.

Summability conditions over disjoint families (D_r and friends) are measured
over declared probe families and reported with provenance; the measured
constants are suprema over the sample, never claims about all cubes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from osclab._support import ParameterError, build_kind, ratio
from osclab.cubes import CubeBlock, DisjointFamily, cell_rows
from osclab.grid import Field, power_means
from osclab.operators import OffDiagonalProfile
from osclab.weights import Weight


def _real(key: str, value, lo: float, lo_open: bool = False) -> float:
    """``value`` as a float, finite and at least ``lo`` (above it if ``lo_open``);
    a ParameterError naming ``key`` otherwise."""
    x = float(value)
    if not (math.isfinite(x) and (x > lo if lo_open else x >= lo)):
        raise ParameterError(f"{key} must be a finite number {'>' if lo_open else '>='} {lo:g}, got {x}")
    return x


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------

#: length of the coefficient tables the expansion recipes build and the
#: convolution ``DilationSeries.collapse`` folds (gamma_k = 0 beyond it)
HORIZON = 48


# Sequence builders: (*, the kind's config keys) -> (gamma_k for k >= 0, exact
# tail sum from k0 >= 0, the length of a table beyond which gamma is zero or
# None for a decreasing gamma): geometric 2^{-sigma k} and a table of values.


def _geometric(*, sigma):
    sigma = _real("sigma", sigma, 0.0, lo_open=True)  # > 0: summable
    r = 2.0 ** (-sigma)
    return (lambda k: 2.0 ** (-sigma * k)), (lambda k0: r ** k0 / (1.0 - r)), None


def _table(*, values):
    vals = [_real("each of values", v, 0.0) for v in values]
    return (lambda k: vals[k] if k < len(vals) else 0.0), (lambda k0: float(sum(vals[k0:]))), len(vals)


#: sequence kind -> builder
COEFFS = {"geometric": _geometric, "table": _table}


class Coeffs:
    """A nonnegative sequence gamma_k of a kind in ``COEFFS``, with closed-form tail sums."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        self._at, self._tail, self._length = build_kind(COEFFS, {**params, "kind": kind}, "gamma")

    def at(self, k: int) -> float:
        return 0.0 if k < 0 else self._at(k)

    def tail_sum(self, k0: int) -> float:
        """sum_{k >= k0} gamma_k, in closed form."""
        return self._tail(max(k0, 0))

    def supified(self) -> "Coeffs":
        """Replace gamma_k by sup_{j >= k} gamma_j (quasi-decreasing enforcement)."""
        if self._length is None:
            return self
        vals = [self.at(k) for k in range(self._length)]
        for k in range(self._length - 2, -1, -1):
            vals[k] = max(vals[k], vals[k + 1])
        return Coeffs("table", values=vals)


# ---------------------------------------------------------------------------
# functional kinds
# ---------------------------------------------------------------------------


class Functional:
    """Base: a deterministic nonnegative cube functional, evaluated on blocks of
    lattice cubes (``values``)."""

    kind = "abstract"

    #: grid resolution backing the functional, when it has one
    resolution: Optional[int] = None

    def values(self, c: int, anchors: np.ndarray, m: int) -> np.ndarray:
        """a(Q) for each cube Q of c cells per axis at the (count, n) anchor
        cells ``anchors`` of the 1/m lattice, one value per row."""
        if self.resolution not in (None, m):
            raise ParameterError(f"functional {self.kind} lives on the 1/{self.resolution} lattice, not 1/{m}")
        vals = self._values(c, anchors, m)
        if not np.all(vals >= 0):
            raise ParameterError(f"functional {self.kind} produced a negative or NaN value")
        return vals

    def _values(self, c: int, anchors: np.ndarray, m: int) -> np.ndarray:
        raise NotImplementedError


class ConstantFunctional(Functional):
    kind = "constant"

    def __init__(self, value: float):
        self.value = _real("value", value, 0.0)

    def _values(self, c, anchors, m):
        return np.full(len(anchors), self.value)


class PowerFunctional(Functional):
    """a(Q) = |Q|^{alpha/n} = l(Q)^alpha; the BMO/Lipschitz scale."""

    kind = "bmo-lipschitz"

    def __init__(self, alpha: float):
        self.alpha = _real("alpha", alpha, 0.0)

    def _values(self, c, anchors, m):
        return np.full(len(anchors), (c / m) ** self.alpha)


class ReducedPoincare(Functional):
    """a(Q) = l(Q) (mean_Q h^s dmu)^{1/s}."""

    kind = "reduced-poincare"

    def __init__(self, h: Field, s: float, weight: Optional[Weight] = None):
        self.s = _real("s", s, 1.0)
        if h.is_complex or np.min(h.values) < 0:
            raise ParameterError("h must be a nonnegative real field")
        if weight is not None and weight.density.values.shape != h.values.shape:
            raise ParameterError("the weight must have the resolution and dimension of h")
        self.h, self.weight = h, weight
        self.resolution = h.resolution

    def _values(self, c, anchors, m):  # lp_average's arithmetic on gathered rows
        h, n, vol = np.abs(self.h.values.ravel()), self.h.dimension, self.h.cell_volume
        means = []
        for part in CubeBlock(c, np.arange(len(anchors)), anchors).parts(c, n):
            rows = cell_rows(part.anchors, c, m)
            mu = np.full((1, c ** n), vol) if self.weight is None else self.weight.density.values.ravel()[rows] * vol
            means.append(power_means(h[rows], mu, self.s))
        return (c / m) * np.concatenate(means)


class DilationSeries(Functional):
    """sum_{k >= start} gamma_k a(2^k Q) over a base functional a, the dilates
    snapped (``dilate``'s) when grid-backed and exact (c 2^k cells) otherwise;
    from the first saturated dilate on (Q itself with m cells, at k = 0), the
    tail is tail_sum(k) a(torus).  A block saturates at one k, by log2 m."""

    kind = "dilation-series"

    def __init__(self, base: Functional, coeffs: Coeffs, start: int):
        self.base = base
        self.coeffs = coeffs
        self.start = start
        self.resolution = base.resolution

    def _values(self, c, anchors, m):
        block = CubeBlock(c, np.arange(len(anchors)), anchors)
        total = np.zeros(len(anchors))
        for k in itertools.count(self.start):
            if k == 0 or self.resolution is None:
                cells, size = anchors, c * 2 ** k
                saturated = size >= m
            else:
                cells, size, saturated = block.dilate(float(2 ** k), m)
            if saturated:
                torus = self.base.values(m, np.zeros((1, anchors.shape[1]), dtype=np.int64), m)
                return total + self.coeffs.tail_sum(k) * torus[0]
            total = total + self.coeffs.at(k) * self.base.values(size, cells, m)

    def collapse(self) -> "DilationSeries":
        """Fold the outer series into the expanded-Poincare base coefficients.

        Exact because both layers evaluate the same dilates of Q: the combined
        coefficient of a_0(2^J Q) is the convolution of the two sequences.
        """
        reduced = _expanded_base(self.base, "collapse")
        conv = []
        for bigj in range(HORIZON):
            total = 0.0
            for k in range(self.start, bigj + 1):
                total += self.coeffs.at(k) * self.base.coeffs.at(bigj - k)
            conv.append(total)
        return DilationSeries(reduced, Coeffs("table", values=conv), start=0)

def expanded_poincare(h: Field, s: float, gamma: Coeffs, weight: Optional[Weight] = None) -> DilationSeries:
    """a(Q) = sum_{k >= 0} gamma_k l(2^k Q) (mean_{2^k Q} h^s dmu)^{1/s}: the
    series of the reduced Poincare functional from k = 0."""
    return DilationSeries(ReducedPoincare(h, s, weight), gamma, start=0)


def _expanded_base(a: Functional, what: str) -> ReducedPoincare:
    """The reduced Poincare base of the expanded-Poincare functional ``a``."""
    if not (isinstance(a, DilationSeries) and a.start == 0 and isinstance(a.base, ReducedPoincare)):
        raise ParameterError(f"{what} is defined for expanded-poincare functionals")
    return a.base


# ---------------------------------------------------------------------------
# expansion recipes
# ---------------------------------------------------------------------------


def gamma_tilde_from_profile(profile: OffDiagonalProfile) -> Coeffs:
    """Coefficients of the tilde expansion from measured decay entries.

    Implicit multiplicative constants are set to one; they are absorbed by the
    measured end-to-end constants of the harnesses.
    """
    p0 = profile.exponents[0]
    n = profile.probe_spec["dimension"]
    needs_beta = profile.probe_spec["kind"] == "semigroup"
    if needs_beta and profile.beta is None:
        raise ParameterError("profile has no beta entries but the family requires them")
    a = profile.alpha_at
    b = profile.beta_at
    vals = [0.0] * HORIZON
    vals[1] = 1.0
    vals[2] = max(1.0, a(2), a(3))
    vals[3] = max(a(2), a(3), a(4))
    vals[4] = max(a(3), a(4), a(5), b(2))
    for k in range(5, HORIZON):
        grow = 2.0 ** (k * n / p0)
        vals[k] = max(a(k - 2), grow * a(k - 1), grow * a(k), a(k + 1), b(k - 3), b(k - 2))
    return Coeffs("table", values=vals)


def tilde_expand(a: Functional, profile: OffDiagonalProfile) -> DilationSeries:
    """The expanded functional sum_{k>=1} gamma~_k a(2^k Q)."""
    return DilationSeries(a, gamma_tilde_from_profile(profile), start=1)


def eta_exponential(profile: OffDiagonalProfile) -> Coeffs:
    """Coefficients of the exponential-class conclusion: eta_1 = 1,
    eta_k = alpha_k for k in {2,3,4}, eta_k = max(alpha_k, alpha_{k-3}) beyond."""
    a = profile.alpha_at
    vals = [0.0] * HORIZON
    vals[1] = 1.0
    for k in (2, 3, 4):
        vals[k] = a(k)
    for k in range(5, HORIZON):
        vals[k] = max(a(k), a(k - 3))
    return Coeffs("table", values=vals)


def eta_alternative(profile: OffDiagonalProfile) -> Coeffs:
    """Coefficients of the non-commutative route: eta_1 = 1,
    eta_k = alpha_k 2^{k n / p0}."""
    p0 = profile.exponents[0]
    n = profile.probe_spec["dimension"]
    vals = [0.0] * HORIZON
    vals[1] = 1.0
    for k in range(2, HORIZON):
        vals[k] = profile.alpha_at(k) * 2.0 ** (k * n / p0)
    return Coeffs("table", values=vals)


def bar_expand(a: DilationSeries, q: float, theta: float = 1.0) -> DilationSeries:
    """Overlap-corrected expansion for the pair condition.

    gamma-bar_0 = gamma_0 and for k >= 1
        gamma-bar_k = 2^{-k E} sum_{l >= k-1} gamma_l 2^{l E},
    with E = n ((1-theta)/s + theta (1/s - 1/q)^+); theta = 1 is the
    unweighted case.  A divergent inner sum is reported with the first bad k.
    """
    reduced = _expanded_base(a, "bar expansion")
    if not (0 < theta <= 1.0):
        raise ParameterError("theta must lie in (0, 1]")
    n, s = reduced.h.dimension, reduced.s
    if s < n:
        s_star = s * n / (n - s)
        if not (1.0 <= q < s_star):
            raise ParameterError(f"need 1 <= q < s* = {s_star}, got q={q}")
    exp_e = n * ((1.0 - theta) / s + theta * max(1.0 / s - 1.0 / q, 0.0))
    vals = [a.coeffs.at(0)]
    for k in range(1, HORIZON):
        inner = 0.0
        converged = False
        for l in range(max(k - 1, 0), max(k - 1, 0) + 400):
            term = a.coeffs.at(l) * 2.0 ** (l * exp_e)
            inner += term
            if term <= 1e-17 * (1.0 + inner):
                converged = True
                break
        if not converged:
            raise ParameterError(f"divergent inner sum in bar expansion at k={k}")
        vals.append(2.0 ** (-k * exp_e) * inner)
    return DilationSeries(reduced, Coeffs("table", values=vals), start=0)


# ---------------------------------------------------------------------------
# condition estimation
# ---------------------------------------------------------------------------

CONDITIONS = ("Dr", "Dinf", "pair")


@dataclass
class ConditionReport:
    condition: str
    r: Optional[float]
    measured_constant: float
    families: dict  # {"seed", "count"} of the probes measured
    passed: bool
    weighted: bool


def _distinct_values(a: Functional, cells: np.ndarray, m: int,
                     mu: Optional[Weight]) -> tuple[list[float], list[float], list[int]]:
    """The one distinct-cube evaluator of the conditions: for the distinct
    lattice rows (c, a_1, ..., a_n) of ``cells`` on the 1/m lattice, a(Q)
    and mu(Q) (|Q| when mu is None), and the index of each row of ``cells``
    among them.

    Rows are told apart by one integer key per cube, sorted, so each distinct
    cube is evaluated once: one ``a.values`` call per size, one measure per
    cube.
    """
    n = cells.shape[1] - 1
    keys = np.ravel_multi_index(tuple(cells.T), (m + 1,) + (m,) * n)
    order = np.argsort(keys, kind="stable")
    first = np.concatenate([[True], np.diff(keys[order]) != 0])
    where = np.empty(len(keys), dtype=np.int64)
    where[order] = np.cumsum(first) - 1
    cubes = cells[order[first]]
    vals = np.empty(len(cubes))
    for c in sorted(set(cubes[:, 0].tolist())):
        rows = cubes[:, 0] == c
        vals[rows] = a.values(c, cubes[rows, 1:], m)
    if mu is None:
        measures = [(c / m) ** n for c in cubes[:, 0].tolist()]
    else:
        measures = [mu.mass(c, anchor) for c, *anchor in cubes.tolist()]
    return vals.tolist(), measures, where.tolist()


def _member_rows(families: Sequence[DisjointFamily], parents: np.ndarray, m: int) -> np.ndarray:
    """The lattice rows of the members of ``families``, in member order, from
    their nodes and the rows ``parents`` of their parents."""
    root = np.repeat(parents, [len(fam.nodes) for fam in families], axis=0)
    nodes = np.concatenate([fam.nodes for fam in families])
    sizes = root[:, 0] >> nodes[:, 0]
    return np.column_stack([sizes, (root[:, 1:] + nodes[:, 1:] * sizes[:, None]) % m])


def estimate_condition(
    a: Functional,
    condition: str,
    m: int,
    r: Optional[float] = None,
    mu: Optional[Weight] = None,
    families: Optional[Sequence[DisjointFamily]] = None,
    cube_pairs: Optional[Sequence[tuple[Sequence[int], Sequence[int]]]] = None,
    partner: Optional[Functional] = None,
    seed: int = 0,
) -> ConditionReport:
    """Measure the defining ratio of a summability condition over probes, cubes
    of the 1/m lattice.

    ``Dr`` and ``pair`` run over disjoint families, ``Dinf`` over nested cube
    pairs (R, Q), each given as the lattice rows (c, a_1, ..., a_n) of R and
    Q.  Each distinct member, parent and pair cube is evaluated once
    (``_distinct_values``), and each family sums its members' terms in member
    order.  A zero denominator against a nonzero numerator records an
    infinite constant rather than raising.
    """
    if condition not in CONDITIONS:
        raise ParameterError(f"unknown condition {condition!r}")
    best = 0.0
    if condition == "Dinf":
        if not cube_pairs:
            raise ParameterError("Dinf estimation needs nested cube pairs")
        count = len(cube_pairs)
        cells = np.array(cube_pairs, dtype=np.int64)
        vals, _measures, where = _distinct_values(a, cells.reshape(2 * count, -1), m, None)
        for small, big in zip(where[::2], where[1::2]):
            best = max(best, ratio(vals[small], vals[big]))
    else:
        if not families:
            raise ParameterError(f"{condition} estimation needs disjoint families")
        if condition == "pair" and partner is None:
            raise ParameterError("pair condition needs the partner functional")
        if r is None or r < 1:
            raise ParameterError(f"{condition} needs the exponent r >= 1")
        count = len(families)
        rows = {p: p.to_row(m) for p in dict.fromkeys(fam.parent for fam in families)}
        parents = np.array([rows[fam.parent] for fam in families])
        vals, measures, where = _distinct_values(a, _member_rows(families, parents, m), m, mu)
        terms = [v ** r * w for v, w in zip(vals, measures)]
        vals, measures, parent_at = _distinct_values(partner if condition == "pair" else a, parents, m, mu)
        denoms = [v * w ** (1.0 / r) for v, w in zip(vals, measures)]
        end = 0
        for fam, parent in zip(families, parent_at):
            start, end = end, end + len(fam.nodes)
            num = sum([terms[i] for i in where[start:end]]) ** (1.0 / r)
            best = max(best, ratio(num, denoms[parent]))
    return ConditionReport(
        condition=condition,
        r=r,
        measured_constant=best,
        families={"seed": seed, "count": count},
        passed=math.isfinite(best),
        weighted=mu is not None,
    )
