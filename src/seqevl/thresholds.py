"""Observables peaking at a target point and per-step threshold calibration.

The observation at step i is g(|x_i - zeta|) for a strictly decreasing
profile g, so level exceedances are open balls around zeta.  Levels are
calibrated against the pushed densities: delta solves
integral over (zeta - delta, zeta + delta) of the step-i density = tau / n,
which makes every step carry identical exceedance mass.  For piecewise-
constant densities that window mass is piecewise linear in delta, so each
radius is an exact kink inversion rather than an iterative search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .maps import ParameterSchedule
from .mesh import Density, Mesh, _same_mesh, uniform_density
from .transfer import ConeParams, push_density

DEFAULT_ZETA = 1.0 / math.sqrt(2.0)

OBSERVABLE_FORMS = ("log", "power-pole", "power-cap")


@dataclass(frozen=True)
class Observable:
    """Distance observable g(|x - zeta|): "log" is -log d, "power-pole" is
    d^(-1/power), "power-cap" is cap - d^(1/power).  All three decrease
    strictly in d, so {g > u} is the open ball of radius g^(-1)(u)."""

    form: str = "log"
    zeta: float = DEFAULT_ZETA
    power: float = 2.0
    cap: float = 1.0

    def __post_init__(self):
        if self.form not in OBSERVABLE_FORMS:
            raise ValueError(f"unknown observable form {self.form!r}")
        if not 0.0 < self.zeta < 1.0:
            raise ValueError("zeta must lie in the open interval (0, 1)")
        if self.power <= 0.0:
            raise ValueError("power must be positive")

    def distance(self, x):
        return np.abs(np.asarray(x, dtype=float) - self.zeta)

    def level_for_radius(self, delta):
        """g evaluated at distance delta (the level whose ball has that radius)."""
        d = np.asarray(delta, dtype=float)
        with np.errstate(divide="ignore"):
            if self.form == "log":
                out = np.where(d > 0, -np.log(np.where(d > 0, d, 1.0)), np.inf)
            elif self.form == "power-pole":
                out = np.where(d > 0, np.where(d > 0, d, 1.0) ** (-1.0 / self.power), np.inf)
            else:
                out = self.cap - d ** (1.0 / self.power)
        return out if out.ndim else float(out)

    def radius_for_level(self, u):
        u = np.asarray(u, dtype=float)
        if self.form == "log":
            out = np.exp(-u)
        elif self.form == "power-pole":
            with np.errstate(divide="ignore"):
                out = np.where(u > 0, np.where(u > 0, u, 1.0) ** (-self.power), np.inf)
        else:
            diff = self.cap - u
            out = np.where(diff > 0, diff, 0.0) ** self.power
        return out if out.ndim else float(out)

    def value(self, x):
        return self.level_for_radius(self.distance(x))

    @property
    def essential_sup(self) -> float:
        return self.cap if self.form == "power-cap" else math.inf


_BLOCK = 32  # densities per evaluation block; keeps its temporaries near 2 MB


def calibrate_delta(density: Density, zeta: float, tau: float, n: int) -> float:
    """Radius delta with mass(zeta - delta, zeta + delta) = tau / n, found by
    exact kink inversion of the window mass (see calibrate_delta_ladder)."""
    return float(calibrate_delta_ladder([density], zeta, tau, n)[0])


def calibrate_delta_ladder(densities, zeta: float, tau: float, n: int) -> np.ndarray:
    """calibrate_delta for every density of a ladder on one mesh.

    The window mass M(delta) = F(zeta + delta) - F(zeta - delta) of a
    piecewise-constant density is continuous, nondecreasing and piecewise
    linear in delta, with kinks at |b_k - zeta| for the mesh boundaries b_k.
    M is evaluated at every kink; the first kink reaching tau / n closes the
    segment that holds the smallest solution, and linear interpolation inside
    it is exact up to rounding.  Densities go in blocks of _BLOCK rows.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    target = tau / n
    out = np.zeros(len(densities))
    if target == 0.0 or not densities:
        return out
    mesh = densities[0].mesh
    for d in densities:
        if d.mesh is not mesh:
            _same_mesh(d.mesh, mesh)
        if target > d.mass * (1.0 + 1e-12):
            raise ValueError("requested exceedance mass exceeds the total mass")
    kinks = np.unique(np.concatenate(([0.0], np.abs(mesh.boundaries - zeta))))
    # F at zeta -+ kink, with the clipping and cell lookup of Density.cdf
    cell, offset = mesh.locate(np.concatenate((zeta - kinks, zeta + kinks)))
    for rows, values, prefix in _blocks(densities):
        cdf = prefix[:, cell] + values[:, cell] * offset
        window = cdf[:, kinks.size:] - cdf[:, :kinks.size]
        # j = 0 only where the mass stays below target (within the 1e-12
        # tolerance): that density gets the largest radius
        j = np.argmax(window >= target, axis=1)
        at = np.arange(len(values))
        m0, m1 = window[at, j - 1], window[at, j]
        d0, d1 = kinks[j - 1], kinks[j]
        out[rows] = np.where(j > 0, d0 + (target - m0) / (m1 - m0) * (d1 - d0), kinks[-1])
    return out


def _blocks(densities):
    """(slice, values, prefix_mass) for each run of _BLOCK densities, stacked by row."""
    for start in range(0, len(densities), _BLOCK):
        block = densities[start:start + _BLOCK]
        yield (slice(start, start + len(block)), np.array([d.values for d in block]),
               np.array([d.prefix_mass for d in block]))


def _window_masses(densities, zeta: float, deltas: np.ndarray) -> np.ndarray:
    """densities[i].interval_mass(zeta - deltas[i], zeta + deltas[i]) for every i,
    with the same arithmetic, gathered a block of densities at a time."""
    out = np.zeros(len(densities))
    if not densities:
        return out
    cell, offset = densities[0].mesh.locate(np.stack((zeta - deltas, zeta + deltas), axis=1))
    for rows, values, prefix in _blocks(densities):
        c, o = cell[rows], offset[rows]
        at = np.arange(len(values))[:, None]
        cdf = prefix[at, c] + values[at, c] * o
        out[rows] = cdf[:, 1] - cdf[:, 0]
    return out


@dataclass
class ThresholdSchedule:
    """Calibrated per-step ball radii and levels for one (tau, n) experiment.

    window_lo/window_hi are the radius bounds implied by the density
    envelope c <= density <= a x^(-alpha) near zeta; window_ok records
    which steps landed inside them.  fbar_max is the largest single-step
    exceedance mass and fstar the total (should be ~tau).
    """

    observable: Observable
    tau: float
    n: int
    deltas: np.ndarray
    levels: np.ndarray
    step_masses: np.ndarray
    window_lo: float
    window_hi: float
    schedule: ParameterSchedule
    window_ok: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.tau == 0.0:
            self.window_ok = np.ones(self.n, dtype=bool)
        else:
            self.window_ok = ((self.deltas >= self.window_lo)
                              & (self.deltas <= self.window_hi))

    @property
    def fbar_max(self) -> float:
        return float(np.max(self.step_masses)) if self.step_masses.size else 0.0

    @property
    def fstar(self) -> float:
        return float(np.sum(self.step_masses))

    @property
    def zeta(self) -> float:
        return self.observable.zeta

    def rows(self):
        """CSV-ready rows (step, delta, level, mesh-measured exceedance mass)."""
        for i in range(self.n):
            yield (i, float(self.deltas[i]), float(self.levels[i]),
                   float(self.step_masses[i]))


def threshold_window(params: ConeParams, zeta: float, tau: float, n: int) -> tuple[float, float]:
    """Radius window [tau/(2 C' n), tau/(2 c n)] implied by the density envelope.

    c is the cone floor; the ceiling near zeta is a (zeta - delta_cap)^(-alpha)
    evaluated at the largest admissible radius, so the window is computable
    before calibration.
    """
    c = params.lower_bound
    hi = tau / (2.0 * c * n)
    x_min = zeta - min(hi, 0.5 * zeta)
    c_prime = params.a * x_min ** (-params.alpha)
    return tau / (2.0 * c_prime * n), hi


def build_threshold_schedule(schedule: ParameterSchedule, observable: Observable,
                             tau: float, n: int, mesh: Mesh,
                             return_densities: bool = False):
    """Calibrate all n per-step radii and levels against the pushed densities."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if n < 1:
        raise ValueError("n must be positive")
    if tau / n > 1.0 + 1e-12:
        raise ValueError("tau/n exceeds total mass 1; no calibration exists")
    densities = push_density(schedule, uniform_density(mesh), n - 1,
                             return_trajectory=True)
    ts = calibrate_schedule(densities, schedule, observable, tau)
    if return_densities:
        return ts, densities
    return ts


def calibrate_schedule(densities, schedule: ParameterSchedule,
                       observable: Observable, tau: float) -> ThresholdSchedule:
    """Thresholds of horizon n = len(densities) on the ladder [f_0, ..., f_(n-1)].

    alphas(m) is a prefix of alphas(n), so the first m densities of a longer
    ladder pushed by the same schedule serve horizon m unchanged.
    """
    n = len(densities)
    zeta = observable.zeta
    deltas = calibrate_delta_ladder(densities, zeta, tau, n)
    masses = _window_masses(densities, zeta, deltas)
    levels = np.asarray(observable.level_for_radius(deltas))
    win_lo, win_hi = threshold_window(ConeParams(alpha=schedule.max_alpha(n - 1)),
                                      zeta, tau, n)
    return ThresholdSchedule(observable=observable, tau=tau, n=n, deltas=deltas,
                             levels=levels, step_masses=masses,
                             window_lo=win_lo, window_hi=win_hi, schedule=schedule)
