"""The intermittent interval maps and their parameter schedules.

Each map has a neutral fixed point at 0 (left branch tangent to the
identity) and a uniformly expanding right branch.  Compositions are taken
in schedule order: step i of an orbit applies the i-th scheduled map.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._numeric import bisect
from ._rng import uniforms

ALPHA_STAR = 1.0 / 7.0

# the fields each schedule mode reads; mode and alpha_star, which no mode
# names, are always read
MODE_FIELDS = {"periodic": ("cycle",), "iid": ("lo", "hi", "seed")}


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")


def _check_domain(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("points must lie in [0, 1]")
    return x


def lsv_left_inverse(alpha: float, y):
    """Unique x in [0, 1/2] with x(1 + 2^alpha x^alpha) = y.

    Newton iteration seeded at y/2; any entry whose residual |T(x)-y| is
    still above tol = 1e-13 after 200 sweeps falls back to bisection.  The
    residual bound implies |x - x*| <= tol because T' >= 1.
    """
    _check_alpha(alpha)
    y = _check_domain(y)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    c = 2.0 ** alpha
    tol = 1e-13
    x = y / 2.0
    resid = x * (1.0 + c * x ** alpha) - y
    for _ in range(200):
        live = np.abs(resid) > tol
        if not live.any():
            break
        xl = x[live]
        step = resid[live] / (1.0 + c * (1.0 + alpha) * xl ** alpha)
        xl = np.clip(xl - step, 0.0, 0.5)
        x[live] = xl
        resid[live] = xl * (1.0 + c * xl ** alpha) - y[live]
    bad = np.abs(resid) > tol
    if bad.any():  # safeguard; Newton converges in a handful of sweeps in practice
        yb = y[bad]
        x[bad] = bisect(lambda mid: mid * (1.0 + c * mid ** alpha) <= yb,
                        np.zeros(yb.size), np.full(yb.size, 0.5), 120)
    return float(x[0]) if scalar else x


def apply_map_batch(alpha: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One map step on a batch of points, without domain re-validation.

    Meant for Monte Carlo inner loops; callers guarantee x in [0, 1].  The
    branch is picked without a per-point select, which along a chaotic
    orbit mispredicts half the time: the left branch is zeroed on [1/2, 1]
    and the larger of it and 2x - 1 taken.  That is exact, because 2x is, so
    2x - 1 < 0 <= left exactly when x < 1/2.
    """
    # in place, so a step holds two chunk-sized temporaries
    left = x ** alpha
    left *= 2.0 ** alpha
    left += 1.0
    left *= x
    left *= x < 0.5
    right = 2.0 * x
    right -= 1.0
    # the left branch tends to 1 at x=1/2-; guard against rounding above 1
    return np.minimum(np.maximum(left, right, out=left), 1.0, out=out)


def _named_exponents(schedule) -> tuple:
    """The exponents a schedule names, by its mode: the cycle for periodic,
    (lo, hi) for iid.  Config validation passes a ScheduleSpec, which has
    the same fields."""
    if schedule.mode == "periodic":
        return tuple(schedule.cycle)
    if schedule.mode == "iid":
        return (schedule.lo, schedule.hi)
    raise ValueError(f"unknown schedule mode {schedule.mode!r}")


@dataclass(frozen=True, repr=False)
class ParameterSchedule:
    """Sequence of map exponents, one per composition step (1-based).

    Modes: "periodic" repeats cycle, so a constant schedule is a cycle of
    one exponent, and "iid" reads lo, hi and seed (MODE_FIELDS).  A mode
    ignores the other fields, and so do equality, the hash and the repr:
    two schedules that step the same exponents are equal and print alike.
    The iid mode draws uniform exponents from (lo, hi) on a dedicated
    counter-based stream, so the schedule never interferes with sampling
    randomness.  Exponents above `alpha_star` are rejected at
    construction.  The defaults are the lab's: the constant exponent 0.1.
    """

    mode: str = "periodic"
    alpha_star: float = ALPHA_STAR
    cycle: tuple[float, ...] = field(default=(0.1,), compare=False)
    lo: float = field(default=0.01, compare=False)
    hi: float = field(default=0.14, compare=False)
    seed: int = field(default=7, compare=False)
    # the values of the mode's fields: equality and the hash compare these
    # in place of the four fields above
    _read: tuple = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.alpha_star < 1.0:
            raise ValueError("alpha_star must lie in (0, 1)")
        alphas = _named_exponents(self)
        if not alphas:
            raise ValueError(f"{self.mode} schedule needs a nonempty exponent list")
        for a in alphas:
            if not 0.0 < a <= self.alpha_star:
                raise ValueError(
                    f"exponent {a!r} outside (0, alpha_star={self.alpha_star}]")
        if self.mode == "iid" and not self.lo < self.hi:
            raise ValueError("iid schedule needs 0 < lo < hi")
        object.__setattr__(self, "_read", tuple(getattr(self, name)
                                                for name in MODE_FIELDS[self.mode]))

    def __repr__(self) -> str:
        shown = ("mode", "alpha_star") + MODE_FIELDS[self.mode]
        return f"ParameterSchedule({', '.join(f'{k}={getattr(self, k)!r}' for k in shown)})"

    def alphas(self, n: int) -> np.ndarray:
        """Exponents of the first n maps; alphas(m) is always a prefix of alphas(n)."""
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.mode == "iid":
            return self.lo + (self.hi - self.lo) * uniforms(
                self.seed, ("schedule", "iid-alphas"), 0, n)
        c = np.asarray(self.cycle)
        return np.tile(c, n // c.size + 1)[:n]

    def sup_alpha(self) -> float:
        """Supremum of the exponent sequence, independent of the horizon."""
        return float(max(_named_exponents(self)))


def sequential_orbit(schedule: ParameterSchedule, x0: float, n: int) -> np.ndarray:
    """Orbit (x0, T_1 x0, T_2 T_1 x0, ..., composition of n maps applied to x0).

    x0 is checked once and stepped as a one-point batch, so every step does
    the numpy operations of apply_map_batch, as a batch of points would:
    a Python float power can differ from numpy's in the last bit."""
    x = np.array([float(_check_domain(x0))])
    orbit = np.empty(n + 1)
    orbit[0] = x[0]
    for i, a in enumerate(schedule.alphas(n), start=1):
        orbit[i] = apply_map_batch(a, x, out=x)[0]
    return orbit
