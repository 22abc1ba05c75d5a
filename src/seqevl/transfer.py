"""Transfer operators for the intermittent maps.

`pf_apply` pushes a piecewise-constant density through the duality
relation using interval-preimage arithmetic: masses are differences of the
source prefix integral at branch preimages of the cell boundaries, so each
step conserves mass to rounding.  `push_density` chains it into a ladder
over a run of exponents; every density ladder is pushed this way, and a
long ladder is pushed a block at a time by its caller.  The module also
carries the cone parameters that bound the calibration window, the
cone-admissible step surrogate, and the memory-loss diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .maps import ParameterSchedule, lsv_left_inverse
from .mesh import Density, Mesh, project

DEFAULT_CONE_A = 20.0

# gather tables of the push, keyed by (alpha, mesh fingerprint); the key
# alpha=None holds the right branch, which is the same for every alpha
_LEFT_INV_CACHE: dict[tuple[float | None, bytes], tuple[np.ndarray, np.ndarray]] = {}


def _gather_table(alpha: float | None, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Cells and in-cell offsets at which Density.cdf reads one branch's
    boundary preimages: the left branch of alpha, or the right one for None."""
    key = (alpha, mesh.fingerprint())
    table = _LEFT_INV_CACHE.get(key)
    if table is None:
        if len(_LEFT_INV_CACHE) > 512:
            _LEFT_INV_CACHE.clear()
        b = mesh.boundaries
        table = mesh.locate(0.5 * (b + 1.0) if alpha is None else lsv_left_inverse(alpha, b))
        for a in table:
            a.flags.writeable = False
        _LEFT_INV_CACHE[key] = table
    return table


def pf_apply(alpha: float, f: Density) -> Density:
    """Apply one transfer operator to a piecewise-constant density.

    The per-cell masses are exact: the pushed mass of cell j is
    F(x_(j+1)) - F(x_j) summed over both branch preimages of the cell
    boundaries, where F is the exact prefix integral of f.
    """
    return Density(f.mesh, _push_masses(alpha, f.mesh, f.values, f.prefix_mass)
                   / f.mesh.widths)


def _push_masses(alpha: float, mesh: Mesh, values: np.ndarray,
                 prefix: np.ndarray) -> np.ndarray:
    """Pushed cell masses of the density with cell averages `values` and prefix
    integral `prefix`: np.diff(cdf(xl)) + np.diff(cdf(xr)) at the boundary
    preimages xl, xr, with the cell lookups of cdf read from the cached gather
    tables.  Nonnegative input is clamped at 0 (rounding can leave -1e-18
    residue); `values.min() >= 0.0` is np.all(values >= 0.0), NaN included."""
    il, ol = _gather_table(alpha, mesh)
    ir, or_ = _gather_table(None, mesh)
    cl = prefix[il] + values[il] * ol
    cr = prefix[ir] + values[ir] * or_
    masses = (cl[1:] - cl[:-1]) + (cr[1:] - cr[:-1])
    if values.min() >= 0.0:
        masses = np.maximum(masses, 0.0)
    return masses


def push_density(alphas, f0: Density) -> list[Density]:
    """The ladder [f0, P_1 f0, ..., P_m...P_1 f0] of f0 pushed by pf_apply
    through the operators of the exponents alphas = (a_1, ..., a_m)."""
    ladder = [f0]
    for a in alphas:
        ladder.append(pf_apply(a, ladder[-1]))
    return ladder


# ---------------------------------------------------------------------------
# cone of admissible densities


@dataclass(frozen=True)
class ConeParams:
    """Cone of nonincreasing densities dominated by a x^(-alpha) times mass.

    `alpha` must dominate every map exponent in play; `a` is the domination
    coefficient.  `lower_bound` is the constant density floor implied by
    membership together with unit mass.
    """

    alpha: float
    a: float = DEFAULT_CONE_A

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("cone exponent must lie in (0, 1)")
        if self.a <= 1.0:
            raise ValueError("cone coefficient must exceed 1")

    @property
    def lower_bound(self) -> float:
        al, a = self.alpha, self.a
        return min(a, (al * (1.0 + al) / a ** al) ** (1.0 / (1.0 - al)))

    @property
    def upper_coefficient(self) -> float:
        return self.a


def cone_step_surrogate(mesh: Mesh, height: float, cutoff: float,
                        alpha: float) -> Density:
    """Cone-admissible stand-in for height * indicator([0, cutoff]).

    A sharp step leaves the cone, so the tail is replaced by the steepest
    admissible profile height * (x / cutoff)^(-(1+alpha)); the result is
    normalized to unit mass.
    """

    def profile(x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, height)
        tail = x > cutoff
        out[tail] = height * (x[tail] / cutoff) ** (-(1.0 + alpha))
        return out

    return project(profile, mesh).normalized()


# ---------------------------------------------------------------------------
# loss of memory


@dataclass(frozen=True)
class DecayResult:
    """L1 distances between two pushed densities along a ladder of times.

    `log_distances` stays finite after `distances` underflows; the
    difference is propagated as a single signed density (linearity), with
    periodic renormalization so accuracy tracks the current magnitude.
    """

    ns: np.ndarray
    distances: np.ndarray
    log_distances: np.ndarray

    def corrected_slope(self, alpha: float) -> float:
        """Least-squares slope of log d_n - (1/alpha) log log n against log n."""
        if np.any(self.ns < 2):
            raise ValueError("slope fit needs ladder entries >= 2")
        x = np.log(self.ns.astype(float))
        y = self.log_distances - (1.0 / alpha) * np.log(np.log(self.ns.astype(float)))
        return float(np.polyfit(x, y, 1)[0])


def loss_of_memory_distance(schedule: ParameterSchedule, f: Density, g: Density,
                            ladder) -> DecayResult:
    """Track ||push_n f - push_n g||_1 at the distinct requested times.

    Inputs must carry equal mass; the zero-mass difference is pushed
    directly, so cancellation never eats the small late-time distances.
    The loop keeps the difference as bare cell values and a prefix buffer
    and pushes them with the same kernel as pf_apply, so every step does the
    floating-point operations of pf_apply and Density.with_values, in the
    same order, without building a Density.
    """
    ns = np.unique(np.asarray([int(n) for n in ladder], dtype=int))
    if ns.size == 0 or ns[0] < 0:
        raise ValueError("ladder must contain nonnegative times")
    if abs(f.mass - g.mass) > 1e-10 * max(1.0, abs(f.mass)):
        raise ValueError("memory-loss inputs must have equal mass")
    alphas = schedule.alphas(int(ns[-1]))
    mesh, w = f.mesh, f.mesh.widths
    h = f.difference(g)
    v, p = h.values, h.prefix_mass
    log_scale = 0.0
    out_d, out_logd = [], []
    want = set(ns.tolist())

    def l1(vw):  # sum(|v| * w): rounding is sign-symmetric, so |v * w| is the same
        return float(np.add.reduce(np.abs(vw)))

    def record(s):
        logd = log_scale + math.log(s) if s > 0 else -math.inf
        out_logd.append(logd)
        out_d.append(math.exp(logd) if logd > -745 else 0.0)

    if 0 in want:
        record(l1(v * w))
    for i, a in enumerate(alphas, start=1):
        v = _push_masses(a, mesh, v, p) / w
        # the true difference has zero mass; subtracting the rounding residue
        # (the sequential sum Density.mass reads) kills the parasitic
        # unit-eigenvalue component that renormalization would otherwise
        # amplify until it dominates the decay
        v -= np.cumsum(v * w)[-1]
        vw = v * w
        s = l1(vw)
        if 0 < s < 1e-6:  # renormalize before precision drains away
            v /= s
            log_scale += math.log(s)
            vw = v * w
            s = l1(vw)
        np.cumsum(vw, out=p[1:])
        if i in want:
            record(s)
    return DecayResult(ns, np.array(out_d), np.array(out_logd))
