"""Observables peaking at a target point and per-step threshold calibration.

The observation at step i is g(|x_i - zeta|) = -log |x_i - zeta|, so level
exceedances are open balls around zeta, whose test `Observable` owns.
Levels are calibrated against the pushed densities: delta solves
integral over (zeta - delta, zeta + delta) of the step-i density = tau / n,
which makes every step carry identical exceedance mass.  For piecewise-
constant densities that window mass is piecewise linear in delta, so each
radius is an exact kink inversion rather than an iterative search.  Every
horizon of a run reads the same density at step i, so one streamed push
calibrates all of them, a block at a time: each block is one stacked
Density, whose window masses Density.interval_mass reads for every row.
Whether the radii obey the density-cone bounds of the paper is checked by
the tests, not by a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._numeric import distinct
from .maps import ParameterSchedule
from .mesh import Density, Mesh, uniform_density
from .transfer import push_density

DEFAULT_ZETA = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class Observable:
    """Distance observable g(|x - zeta|) = -log |x - zeta|, so {g > u} is the
    open ball of radius exp(-u).  Any other strictly decreasing profile of
    the distance would only rename the levels: the balls stay the same."""

    zeta: float = DEFAULT_ZETA

    def __post_init__(self):
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie in the open interval (0, 1)")

    def hits(self, x, delta):
        """Mask of the points of x in the open ball of radius delta."""
        return np.abs(x - self.zeta) < delta

    def uniform_radius(self, mass: float) -> float:
        """Radius of the ball of this mass under the uniform density: mass / 2,
        or more once the ball is clipped at the end of [0, 1] nearer zeta."""
        return max(mass / 2.0, mass - min(self.zeta, 1.0 - self.zeta))

    def level_for_radius(self, delta):
        """g evaluated at distance delta (the level whose ball has that radius)."""
        with np.errstate(divide="ignore"):
            out = -np.log(np.asarray(delta, dtype=float))
        return out if out.ndim else float(out)


# densities the streamed build pushes, calibrates and drops at a time, so a
# build holds one block (about 0.5 MB on 1,024 cells) whatever the horizon
_BLOCK = 32


def calibrate_delta_ladder(densities: Density, observable: Observable, tau: float,
                           n) -> np.ndarray:
    """Radius delta with mass(zeta - delta, zeta + delta) = tau / n for every
    row of a stacked Density, zeta being the observable's point.

    n is one horizon or a 1-D array of horizons; an array adds a leading
    axis with one row of radii per horizon.  The window mass
    M(delta) = F(zeta + delta) - F(zeta - delta) of a piecewise-constant
    density is continuous, nondecreasing and piecewise linear in delta, with
    kinks at |b_k - zeta| for the mesh boundaries b_k.  M is evaluated once
    per density at the kinks and inverted for every horizon: the first kink
    reaching tau / n closes the segment that holds the smallest solution,
    and linear interpolation inside it is exact up to rounding.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    n = np.asarray(n)
    if np.any(n < 1):
        raise ValueError("n must be positive")
    if tau == 0.0:
        return np.zeros(n.shape + (len(densities),))
    target = np.asarray(tau / n)[..., None]
    peak = tau / n.min()
    # the mass over [0, 1] is prefix_mass[..., -1] of every row, bit for bit
    if np.any(peak > densities.interval_mass(0.0, 1.0) * (1.0 + 1e-12)):
        raise ValueError("requested exceedance mass exceeds the total mass")
    zeta = observable.zeta
    kinks = distinct(np.concatenate(([0.0], np.abs(densities.mesh.boundaries - zeta))))
    # the solution sits within the first few kinks unless tau / n is large,
    # so M is evaluated on a prefix of the kinks that grows until every
    # density reaches the largest target in it (or the prefix is all kinks);
    # window[m, i] is the mass of row i within kinks[m]
    k = 16
    while True:
        radii = kinks[:k, None]
        window = densities.interval_mass(zeta - radii, zeta + radii)
        if k >= kinks.size or np.all(np.any(window >= peak, axis=0)):
            break
        k *= 16
    # j = 0 only where the mass stays below target (within the 1e-12
    # tolerance): that density gets the largest radius
    j = np.argmax(window >= target[..., None, :], axis=-2)
    at = np.arange(len(densities))
    m0, m1 = window[j - 1, at], window[j, at]
    d0, d1 = kinks[j - 1], kinks[j]
    return np.where(j > 0, d0 + (target - m0) / (m1 - m0) * (d1 - d0), kinks[-1])


@dataclass
class ThresholdSchedule:
    """Calibrated per-step ball radii and levels for one (tau, n) experiment.

    fstar is the total exceedance mass (should be ~tau).
    """

    observable: Observable
    tau: float
    n: int
    deltas: np.ndarray
    step_masses: np.ndarray
    schedule: ParameterSchedule

    @cached_property
    def levels(self) -> np.ndarray:
        """Level of every radius, computed on first read: only calibrate
        writes them."""
        return self.observable.level_for_radius(self.deltas)

    @property
    def fstar(self) -> float:
        return float(np.sum(self.step_masses))

    def rows(self):
        """CSV-ready rows (step, delta, level, mesh-measured exceedance mass)."""
        for i in range(self.n):
            yield (i, float(self.deltas[i]), float(self.levels[i]),
                   float(self.step_masses[i]))


def build_threshold_schedule(schedule: ParameterSchedule, observable: Observable,
                             tau: float, ns, mesh: Mesh) -> list[ThresholdSchedule]:
    """Thresholds of every horizon in ns, in the order given, from one streamed push.

    alphas(m) is a prefix of alphas(n), so step i reads the same density f_i
    for every horizon n > i.  The pass pushes _BLOCK densities at a time,
    stacks them into one Density, calibrates it for every horizon that still
    needs it (so the first block checks tau / n), takes its step masses
    from interval_mass and drops it, so no ladder is ever held whole.
    """
    horizons = distinct(np.asarray(ns, dtype=int))
    if horizons.size == 0 or horizons[0] < 1:
        raise ValueError("n must be positive")
    zeta, top = observable.zeta, int(horizons[-1])
    alphas = schedule.alphas(top - 1)
    deltas = np.zeros((horizons.size, top))
    masses = np.zeros_like(deltas)
    f = uniform_density(mesh)
    for start in range(0, top, _BLOCK):
        # rebinding drops the pushed densities once stacked, all but the next start
        block = push_density(alphas[start:start + _BLOCK], f)
        f, block = block[-1], Density.stack(block[:_BLOCK])
        live = slice(np.searchsorted(horizons, start, side="right"), None)
        rows = slice(start, start + len(block))
        radii = calibrate_delta_ladder(block, observable, tau, horizons[live])
        deltas[live, rows] = radii
        masses[live, rows] = block.interval_mass(zeta - radii, zeta + radii)
    built = {}
    for h, n in enumerate(horizons.tolist()):
        built[n] = ThresholdSchedule(
            observable=observable, tau=tau, n=n, deltas=deltas[h, :n],
            step_masses=masses[h, :n], schedule=schedule)
    return [built[int(n)] for n in ns]
