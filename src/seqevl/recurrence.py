"""Measures of fast-returning sets for sequential orbits.

The sets of interest are {x : |composition_n(x) - x| <= eps}, their unions
over short time horizons, and the local version near a reference point.
Each is one sublevel set, measured deterministically (not by Monte Carlo)
on a grid with vectorized bisection at boundary crossings: a stratified
grid over [0, 1] for the return sets and their unions, a uniform grid on
the ball for the local version.  The stratified grid's geometric fill
resolves components near the neutral fixed point, but a grid misses any
component that lies inside one grid cell, as those around the 2^n
hyperbolic periodic points do: at eps = 2^-14 it undercounts the return
set 7.7x at n = 5 and 63x at n = 12 (ROADMAP item 12).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._numeric import bisect, distinct, slope
from .maps import ALPHA_STAR, ParameterSchedule
from .thresholds import Observable

BISECT_TOL = 1e-10
MAX_HORIZON = 2 ** 20  # the longest union horizon a run accepts, in steps


@dataclass(frozen=True)
class RecurrenceParams:
    """Exponents for the short-return sets and the local recurrence bound.

    varsigma = 1/(1+alpha_star) - kappa*(1+xi) is the decay exponent of the
    union-set measure; the local bound needs varsigma > beta with
    gamma*(varsigma - beta) > 1, which forces kappa*(1+xi) well below the
    block exponents used on the extreme-value side.
    """

    alpha_star: float = ALPHA_STAR
    beta: float = 0.3
    kappa: float = 0.2
    xi: float = 0.05
    gamma: float = 3.0

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not 0.0 < self.kappa < self.beta:
            raise ValueError("kappa must lie in (0, beta)")
        if not 0.0 < self.xi < 1.0:
            raise ValueError("xi must lie in (0, 1)")
        if self.kappa * (1.0 + self.xi) >= self.beta:
            raise ValueError("kappa*(1+xi) must stay below beta")
        if self.varsigma <= self.beta:
            raise ValueError("local bound needs varsigma > beta")
        if self.gamma * (self.varsigma - self.beta) <= 1.0:
            raise ValueError("local bound needs gamma*(varsigma-beta) > 1")

    @property
    def varsigma(self) -> float:
        return 1.0 / (1.0 + self.alpha_star) - self.kappa * (1.0 + self.xi)

    def horizon(self, j: float, power: float = 1.0) -> int:
        """Steps of the union set at scale j ** power, floor(scale **
        (kappa (1 + xi))); a scale that overflows, or a horizon above
        MAX_HORIZON, is refused with a ValueError."""
        try:
            steps = (float(j) ** power) ** (self.kappa * (1.0 + self.xi))
        except OverflowError:
            steps = math.inf
        if not steps <= MAX_HORIZON:
            raise ValueError(f"the union set at scale {j!r} ** {power!r} needs {steps:.6g} "
                             f"steps, above the ceiling of {MAX_HORIZON}")
        return math.floor(steps)


def _displacements(schedule: ParameterSchedule, n: int, x):
    """Yield composition_i(x) - x for i = 1..n, as compensated sums of steps.

    Each step moves a point by 2^a y^(1+a) (left branch) or y - 1 (right
    branch); accumulating these closed forms avoids the cancellation that
    computing T(y) - y directly suffers near the neutral fixed point, where
    the increment is O(y^(1+a)).
    """
    y = np.array(x, dtype=float, copy=True, ndmin=1)
    s = np.zeros_like(y)
    comp = np.zeros_like(y)
    for a in schedule.alphas(n):
        d = np.where(y < 0.5, 2.0 ** a * y ** (1.0 + a), y - 1.0)
        t = s + d
        comp += np.where(np.abs(s) >= np.abs(d), (s - t) + d, (d - t) + s)
        s = t
        y = np.minimum(y + d, 1.0)
        yield s + comp


def orbit_displacement(schedule: ParameterSchedule, n: int, x) -> np.ndarray:
    """composition_n(x) - x, accumulated without cancellation (zeros at n = 0)."""
    out = np.zeros(np.shape(x) or 1)
    for out in _displacements(schedule, n, x):
        pass
    return out


def min_orbit_displacement(schedule: ParameterSchedule, horizon: int, x) -> np.ndarray:
    """min over 1 <= i <= horizon of |composition_i(x) - x|, one orbit pass."""
    best = np.full(np.shape(x) or 1, np.inf)
    for disp in _displacements(schedule, horizon, x):
        best = np.minimum(best, np.abs(disp))
    return best


def _measure_below(nodes: np.ndarray, gfun) -> float:
    """Measure of {gfun <= 0} over [nodes[0], nodes[-1]] from gfun at the
    nodes plus a vectorized bisection at each sign change.

    Ties count as inside.  Cells whose endpoints agree count fully or not at
    all; a component that enters and leaves within one cell is missed, which
    is the O(cell width) error this estimator quotes.
    """
    inside = gfun(nodes) <= 0.0
    widths = np.diff(nodes)
    total = float(np.sum(widths[inside[:-1] & inside[1:]]))
    cross = np.nonzero(inside[:-1] != inside[1:])[0]
    if cross.size:
        # each cell brackets one crossing; halve it until within BISECT_TOL
        lo_inside = inside[cross]
        roots = bisect(lambda mid: (gfun(mid) <= 0.0) == lo_inside,
                       nodes[cross], nodes[cross + 1], 60, BISECT_TOL)
        parts = np.where(lo_inside, roots - nodes[cross], nodes[cross + 1] - roots)
        total += float(np.sum(parts))
    return total


def _union_measure(schedule: ParameterSchedule, big_j: float, params: RecurrenceParams,
                   nodes: np.ndarray) -> float:
    """Measure over the nodes' span of the union over i <= horizon(big_j) of
    the 2/big_j return sets.

    One orbit pass per point stores min_i |composition_i(x) - x|; the union
    is then a single sublevel-set measurement.
    """
    horizon = params.horizon(big_j)
    if horizon < 1:
        return 0.0
    eps = 2.0 / big_j

    def g(x):
        return min_orbit_displacement(schedule, horizon, x) - eps

    return _measure_below(nodes, g)


def _stratified_nodes(resolution: int) -> np.ndarray:
    # geometric fill below the first uniform cell: return sets concentrate
    # mass near the neutral fixed point at scales the uniform grid misses
    nodes = np.linspace(0.0, 1.0, resolution + 1)
    sub = nodes[1] * 2.0 ** -np.arange(1.0, 44.0)
    return distinct(np.concatenate([nodes, sub[sub > 1e-15]]))


def measure_En_eps(schedule: ParameterSchedule, n: int, eps: float,
                   resolution: int = 4096) -> float:
    """Lebesgue measure of {x : |composition_n(x) - x| <= eps}."""
    if not eps > 0.0:  # false for NaN too
        raise ValueError(f"eps must be positive, got {eps!r}")
    if not isinstance(n, numbers.Integral) or n < 1:
        raise ValueError(f"n must be an integer at least 1, got {n!r}")

    def g(x):
        return np.abs(orbit_displacement(schedule, n, x)) - eps

    return _measure_below(_stratified_nodes(resolution), g)


def measure_Ej(schedule: ParameterSchedule, j: float, params: RecurrenceParams,
               resolution: int = 4096) -> float:
    """Measure of the union over i <= horizon(j) of the 2/j return sets."""
    if not (math.isfinite(j) and j >= 2):
        raise ValueError(f"j must be finite and at least 2, got {j!r}")
    return _union_measure(schedule, j, params, _stratified_nodes(resolution))


def local_recurrence_at(schedule: ParameterSchedule, observable: Observable, j: float,
                        params: RecurrenceParams, resolution: int = 2048) -> float:
    """Measure of the union set at scale j^gamma within the j^-gamma ball
    at the observable's zeta, clipped to [0, 1], on a uniform grid over it.

    The companion bound local_recurrence_bound holds for almost every zeta
    once j is large enough, with a non-constructive onset, so callers report
    violations per j instead of failing hard.
    """
    if not (math.isfinite(j) and j > 0.0):
        raise ValueError(f"j must be positive and finite, got {j!r}")
    try:  # Python floats raise here where numpy scalars would give inf
        radius, scale = float(j) ** -params.gamma, float(j) ** params.gamma
    except OverflowError:
        raise ValueError(f"j ** gamma or j ** -gamma overflows at j={j!r}, "
                         f"gamma={params.gamma!r}") from None
    zeta = observable.zeta
    nodes = np.linspace(max(0.0, zeta - radius), min(1.0, zeta + radius), resolution + 1)
    return _union_measure(schedule, scale, params, nodes)


def local_recurrence_bound(j: float, params: RecurrenceParams) -> float:
    return 2.0 * j ** (-params.gamma * (1.0 + params.beta))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log ys against log xs."""
    return slope(np.log(xs), np.log(ys))
