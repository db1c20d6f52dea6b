"""Cube functionals, their dilation-series expansions, and summability estimators.

A functional assigns a nonnegative number to every cube.  The built-in kinds
cover power laws in the sidelength, fractional averages against a weight,
reduced and expanded Poincare right-hand sides, and constants.
Dilation series (the tilde/bar expansions) evaluate over the dyadic dilates
2^k Q; on the torus the dilates saturate, and the series tail beyond the
saturation index collapses to full-torus terms summed in closed form.

Summability conditions over disjoint families (D_r and friends) are measured
over declared probe families and reported with provenance; the measured
constants are suprema over the sample, never claims about all cubes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from osclab._support import ParameterError, build_kind, ratio
from osclab.cubes import Cube, DisjointFamily, dilate, full_torus
from osclab.grid import Field, lp_average
from osclab.operators import OffDiagonalProfile
from osclab.weights import Weight


# ---------------------------------------------------------------------------
# coefficient sequences
# ---------------------------------------------------------------------------


# Sequence builders: (*, the kind's config keys) -> (gamma_k for k >= 0, exact
# tail sum from k0 >= 0 or None for a guarded one, whether gamma decreases):
# geometric scale 2^{-sigma k}, gauss scale exp(-rate 4^k), and a table of
# values (zero beyond it).


def _geometric(*, sigma, scale=1.0):
    sigma, scale = float(sigma), float(scale)
    if sigma <= 0 or scale < 0:
        raise ParameterError("geometric sequence needs sigma > 0 to be summable and scale >= 0")
    r = 2.0 ** (-sigma)
    return (lambda k: scale * 2.0 ** (-sigma * k)), (lambda k0: scale * r ** k0 / (1.0 - r)), True


def _gauss(*, rate, scale=1.0):
    rate, scale = float(rate), float(scale)
    if rate <= 0 or scale < 0:
        raise ParameterError("gauss sequence needs rate > 0 and scale >= 0")
    return (lambda k: scale * math.exp(-rate * 4.0 ** k)), None, True


def _table(*, values):
    vals = [float(v) for v in values]
    if any(v < 0 for v in vals):
        raise ParameterError("sequence entries must be nonnegative")
    return (lambda k: vals[k] if k < len(vals) else 0.0), (lambda k0: float(sum(vals[k0:]))), False


#: sequence kind -> builder
COEFFS = {"geometric": _geometric, "gauss": _gauss, "table": _table}


class Coeffs:
    """A nonnegative sequence gamma_k of a kind in ``COEFFS``, with closed-form or guarded tail sums."""

    def __init__(self, kind: str, **params):
        self.kind = kind
        self._at, self._tail, self._decreasing = build_kind(COEFFS, {**params, "kind": kind}, "gamma")

    def at(self, k: int) -> float:
        return 0.0 if k < 0 else self._at(k)

    def tail_sum(self, k0: int) -> float:
        """sum_{k >= k0} gamma_k, exact for geometric/table, guarded otherwise."""
        if self._tail is not None:
            return self._tail(max(k0, 0))
        total = 0.0
        for k in range(max(k0, 0), max(k0, 0) + 400):
            term = self.at(k)
            total += term
            if term <= 1e-17 * (1.0 + total):
                return total
        raise ParameterError(f"sequence tail from k={k0} does not converge")

    def supified(self) -> "Coeffs":
        """Replace gamma_k by sup_{j >= k} gamma_j (quasi-decreasing enforcement)."""
        if self._decreasing:
            return self
        horizon = 64
        vals = [self.at(k) for k in range(horizon)]
        out = vals[:]
        for k in range(horizon - 2, -1, -1):
            out[k] = max(out[k], out[k + 1])
        return Coeffs("table", values=out)


# ---------------------------------------------------------------------------
# functional kinds
# ---------------------------------------------------------------------------


class Functional:
    """Base: deterministic nonnegative cube functional with per-cube memoization."""

    kind = "abstract"

    def __init__(self):
        self._memo: dict = {}

    #: grid resolution backing the functional, when it has one
    resolution: Optional[int] = None

    def _key(self, q: Cube):
        return (tuple(round(a * 2 ** 40) for a in q.anchor), round(q.side * 2 ** 40))

    def eval(self, q: Cube) -> float:
        key = self._key(q)
        if key not in self._memo:
            val = float(self._eval(q))
            if val < 0:
                raise ParameterError(f"functional {self.kind} produced a negative value")
            self._memo[key] = val
        return self._memo[key]

    def _eval(self, q: Cube) -> float:
        raise NotImplementedError

    def dilated(self, q: Cube, k: int) -> tuple[Cube, bool]:
        """2^k q with torus saturation, snapped when grid-backed."""
        if k == 0:
            return q, q.side >= 1.0
        if self.resolution is not None:
            d = dilate(q, float(2 ** k), self.resolution)
            return d.cube, d.saturated or d.cube.side >= 1.0
        side = (2.0 ** k) * q.side
        if side >= 1.0:
            return full_torus(q.dimension), True
        ctr = q.center
        anchor = tuple((c - side / 2.0) % 1.0 for c in ctr)
        return Cube(anchor, side), False

    def series(self, coeffs: Coeffs, q: Cube, start: int) -> float:
        """sum_{k >= start} gamma_k a(2^k q) with the closed-form saturated tail."""
        total = 0.0
        k = start
        while True:
            cube_k, saturated = self.dilated(q, k)
            if saturated:
                total += coeffs.tail_sum(k) * self.eval(full_torus(q.dimension))
                return total
            total += coeffs.at(k) * self.eval(cube_k)
            k += 1
            if k > 200:
                raise ParameterError("dilation series failed to saturate")


class ConstantFunctional(Functional):
    kind = "constant"

    def __init__(self, value: float):
        super().__init__()
        if value < 0:
            raise ParameterError("constant functional must be nonnegative")
        self.value = float(value)

    def _eval(self, q: Cube) -> float:
        return self.value


class PowerFunctional(Functional):
    """a(Q) = |Q|^{alpha/n} = l(Q)^alpha; the BMO/Lipschitz scale."""

    kind = "bmo-lipschitz"

    def __init__(self, alpha: float):
        super().__init__()
        if alpha < 0:
            raise ParameterError("alpha must be >= 0")
        self.alpha = float(alpha)

    def _eval(self, q: Cube) -> float:
        return q.side ** self.alpha


class FractionalFunctional(Functional):
    """a(Q) = l(Q)^alpha (u(Q)/|Q|)^{1/s} for a weight u."""

    kind = "fractional"

    def __init__(self, alpha: float, s: float, u: Weight):
        super().__init__()
        if not (0 < alpha < u.dimension):
            raise ParameterError("need 0 < alpha < n")
        if s < 1:
            raise ParameterError("need s >= 1")
        self.alpha, self.s, self.u = float(alpha), float(s), u
        self.resolution = u.resolution

    def _eval(self, q: Cube) -> float:
        return q.side ** self.alpha * (self.u.mass(q) / q.volume) ** (1.0 / self.s)


class ReducedPoincare(Functional):
    """a(Q) = l(Q) (mean_Q h^s dmu)^{1/s}."""

    kind = "reduced-poincare"

    def __init__(self, h: Field, s: float, weight: Optional[Weight] = None):
        super().__init__()
        if s < 1:
            raise ParameterError("need s >= 1")
        if h.is_complex or np.min(h.values) < 0:
            raise ParameterError("h must be a nonnegative real field")
        self.h, self.s, self.weight = h, float(s), weight
        self.resolution = h.resolution

    @property
    def dimension(self) -> int:
        return self.h.dimension

    def _eval(self, q: Cube) -> float:
        return q.side * lp_average(self.h, q, self.s, self.weight)


class ExpandedPoincare(Functional):
    """a(Q) = sum_k gamma_k l(2^k Q) (mean_{2^k Q} h^s dmu)^{1/s}."""

    kind = "expanded-poincare"

    def __init__(
        self,
        h: Field,
        s: float,
        gamma: Coeffs,
        weight: Optional[Weight] = None,
        enforce_quasi_decreasing: bool = False,
    ):
        super().__init__()
        self.base = ReducedPoincare(h, s, weight)
        self.gamma = gamma.supified() if enforce_quasi_decreasing else gamma
        gamma.tail_sum(0)  # summability guard
        self.resolution = h.resolution

    @property
    def h(self) -> Field:
        return self.base.h

    @property
    def s(self) -> float:
        return self.base.s

    @property
    def weight(self) -> Optional[Weight]:
        return self.base.weight

    @property
    def dimension(self) -> int:
        return self.base.dimension

    def _eval(self, q: Cube) -> float:
        return self.base.series(self.gamma, q, start=0)


class DilationSeries(Functional):
    """sum_{k >= start} gamma_k a(2^k Q) wrapping a base functional."""

    def __init__(self, base: Functional, coeffs: Coeffs, start: int, kind: str):
        super().__init__()
        self.base = base
        self.coeffs = coeffs
        self.start = start
        self.kind = kind
        self.resolution = base.resolution

    def _eval(self, q: Cube) -> float:
        return self.base.series(self.coeffs, q, self.start)

    def collapse(self) -> "ExpandedPoincare":
        """Fold the outer series into the expanded-Poincare base coefficients.

        Exact because both layers evaluate the same dilates of Q: the combined
        coefficient of a_0(2^J Q) is the convolution of the two sequences.
        """
        if not isinstance(self.base, ExpandedPoincare):
            raise ParameterError("collapse requires an expanded-poincare base")
        horizon = 48
        conv = []
        for bigj in range(horizon):
            total = 0.0
            for k in range(self.start, bigj + 1):
                total += self.coeffs.at(k) * self.base.gamma.at(bigj - k)
            conv.append(total)
        return ExpandedPoincare(
            self.base.h, self.base.s, Coeffs("table", values=conv), self.base.weight
        )


# ---------------------------------------------------------------------------
# expansion recipes
# ---------------------------------------------------------------------------


def gamma_tilde_from_profile(profile: OffDiagonalProfile, horizon: int = 48) -> Coeffs:
    """Coefficients of the tilde expansion from measured decay entries.

    Implicit multiplicative constants are set to one; they are absorbed by the
    measured end-to-end constants of the harnesses.
    """
    p0 = profile.exponents[0]
    n = int(profile.probe_spec.get("dimension", 1))
    needs_beta = profile.probe_spec.get("kind") == "semigroup"
    if needs_beta and profile.beta is None:
        raise ParameterError("profile has no beta entries but the family requires them")
    a = profile.alpha_at
    b = profile.beta_at
    vals = [0.0] * horizon
    vals[1] = 1.0
    vals[2] = max(1.0, a(2), a(3))
    vals[3] = max(a(2), a(3), a(4))
    vals[4] = max(a(3), a(4), a(5), b(2))
    for k in range(5, horizon):
        grow = 2.0 ** (k * n / p0)
        vals[k] = max(a(k - 2), grow * a(k - 1), grow * a(k), a(k + 1), b(k - 3), b(k - 2))
    return Coeffs("table", values=vals)


def tilde_expand(a: Functional, profile: OffDiagonalProfile) -> DilationSeries:
    """The expanded functional sum_{k>=1} gamma~_k a(2^k Q)."""
    return DilationSeries(a, gamma_tilde_from_profile(profile), start=1, kind="tilde-of")


def eta_exponential(profile: OffDiagonalProfile, horizon: int = 48) -> Coeffs:
    """Coefficients of the exponential-class conclusion: eta_1 = 1,
    eta_k = alpha_k for k in {2,3,4}, eta_k = max(alpha_k, alpha_{k-3}) beyond."""
    a = profile.alpha_at
    vals = [0.0] * horizon
    vals[1] = 1.0
    for k in (2, 3, 4):
        vals[k] = a(k)
    for k in range(5, horizon):
        vals[k] = max(a(k), a(k - 3))
    return Coeffs("table", values=vals)


def eta_alternative(profile: OffDiagonalProfile, horizon: int = 48) -> Coeffs:
    """Coefficients of the non-commutative route: eta_1 = 1,
    eta_k = alpha_k 2^{k n / p0}."""
    p0 = profile.exponents[0]
    n = int(profile.probe_spec.get("dimension", 1))
    vals = [0.0] * horizon
    vals[1] = 1.0
    for k in range(2, horizon):
        vals[k] = profile.alpha_at(k) * 2.0 ** (k * n / p0)
    return Coeffs("table", values=vals)


def bar_expand(a: ExpandedPoincare, q: float, theta: float = 1.0, horizon: int = 48) -> ExpandedPoincare:
    """Overlap-corrected expansion for the pair condition.

    gamma-bar_0 = gamma_0 and for k >= 1
        gamma-bar_k = 2^{-k E} sum_{l >= k-1} gamma_l 2^{l E},
    with E = n ((1-theta)/s + theta (1/s - 1/q)^+); theta = 1 is the
    unweighted case.  A divergent inner sum is reported with the first bad k.
    """
    if not isinstance(a, ExpandedPoincare):
        raise ParameterError("bar expansion is defined for expanded-poincare functionals")
    if not (0 < theta <= 1.0):
        raise ParameterError("theta must lie in (0, 1]")
    n = a.dimension
    s = a.s
    if s < n:
        s_star = s * n / (n - s)
        if not (1.0 <= q < s_star):
            raise ParameterError(f"need 1 <= q < s* = {s_star}, got q={q}")
    exp_e = n * ((1.0 - theta) / s + theta * max(1.0 / s - 1.0 / q, 0.0))
    vals = [a.gamma.at(0)]
    for k in range(1, horizon):
        inner = 0.0
        converged = False
        for l in range(max(k - 1, 0), max(k - 1, 0) + 400):
            term = a.gamma.at(l) * 2.0 ** (l * exp_e)
            inner += term
            if term <= 1e-17 * (1.0 + inner):
                converged = True
                break
        if not converged:
            raise ParameterError(f"divergent inner sum in bar expansion at k={k}")
        vals.append(2.0 ** (-k * exp_e) * inner)
    return ExpandedPoincare(a.h, a.s, Coeffs("table", values=vals), a.weight)


# ---------------------------------------------------------------------------
# condition estimation
# ---------------------------------------------------------------------------

CONDITIONS = ("Dr", "Dinf", "pair")


@dataclass
class ConditionReport:
    condition: str
    r: Optional[float]
    measured_constant: float
    families_seed: int
    families_count: int
    passed: bool
    cap: Optional[float]
    weighted: bool

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "r": self.r,
            "measured_constant": self.measured_constant,
            "families": {"seed": self.families_seed, "count": self.families_count},
            "passed": self.passed,
            "cap": self.cap,
            "weighted": self.weighted,
        }


def _measure_of(mu: Optional[Weight], q: Cube) -> float:
    return q.volume if mu is None else mu.mass(q)


def estimate_condition(
    a: Functional,
    condition: str,
    r: Optional[float] = None,
    mu: Optional[Weight] = None,
    families: Optional[Sequence[DisjointFamily]] = None,
    cube_pairs: Optional[Sequence[tuple[Cube, Cube]]] = None,
    partner: Optional[Functional] = None,
    cap: Optional[float] = None,
    seed: int = 0,
) -> ConditionReport:
    """Measure the defining ratio of a summability condition over probes.

    ``Dr`` and ``pair`` run over disjoint families, ``Dinf`` over nested cube
    pairs (R, Q).  A zero denominator against a nonzero numerator records an
    infinite constant rather than raising.
    """
    if condition not in CONDITIONS:
        raise ParameterError(f"unknown condition {condition!r}")
    best = 0.0
    if condition == "Dinf":
        if not cube_pairs:
            raise ParameterError("Dinf estimation needs nested cube pairs")
        count = len(cube_pairs)
        for small, big in cube_pairs:
            best = max(best, ratio(a.eval(small), a.eval(big)))
    else:
        if not families:
            raise ParameterError(f"{condition} estimation needs disjoint families")
        if condition == "pair" and partner is None:
            raise ParameterError("pair condition needs the partner functional")
        if r is None or r < 1:
            raise ParameterError(f"{condition} needs the exponent r >= 1")
        count = len(families)
        for fam in families:
            parent_meas = _measure_of(mu, fam.parent)
            denom_f = partner if condition == "pair" else a
            denom = denom_f.eval(fam.parent) * parent_meas ** (1.0 / r)
            num = sum(a.eval(qi) ** r * _measure_of(mu, qi) for qi in fam.members) ** (1.0 / r)
            best = max(best, ratio(num, denom))
    passed = math.isfinite(best) and (cap is None or best <= cap)
    return ConditionReport(
        condition=condition,
        r=r,
        measured_constant=best,
        families_seed=seed,
        families_count=count,
        passed=passed,
        cap=cap,
        weighted=mu is not None,
    )

