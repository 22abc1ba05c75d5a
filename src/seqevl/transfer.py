"""Transfer operators for the intermittent maps.

`pf_apply` pushes a piecewise-constant density through the duality
relation using interval-preimage arithmetic: masses are differences of the
source prefix integral at branch preimages of the cell boundaries, so each
step conserves mass to rounding.  The preimages are looked up once per
exponent and mesh, in a gather table of which the last 64 are kept, keyed
by the mesh object; the left-branch ones are put in order then, so a
nonnegative density pushes to nonnegative masses with no check per step.
`push_density` chains pf_apply into a ladder over a run of exponents;
every density ladder is pushed this way, and a long ladder is pushed a
block at a time by its caller.  The module also carries the
cone-admissible step surrogate and the memory-loss diagnostic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._numeric import slope
from .maps import ParameterSchedule, lsv_left_inverse
from .mesh import Density, Mesh, project


@functools.lru_cache(maxsize=64)
def _gather_table(alpha: float, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Cells and in-cell offsets at which Density.cdf reads the boundary
    preimages of both branches: the k+1 of the left branch of alpha, then the
    k+1 of the right branch.  The last 64 tables are kept, keyed by alpha and
    the mesh object; each entry holds its mesh, so a table never serves
    another mesh.

    The left preimages are made nondecreasing by a running maximum: on cells
    narrower than the 1e-13 tolerance of lsv_left_inverse they can come out
    of order, and the masses of a nonnegative density, differences of its
    cdf, are nonnegative only between ordered points."""
    b = mesh.boundaries
    left = np.maximum.accumulate(lsv_left_inverse(alpha, b))
    table = mesh.locate(np.concatenate((left, 0.5 * (b + 1.0))))
    for a in table:
        a.flags.writeable = False
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
                 prefix: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Pushed cell masses of the density with cell averages `values` and prefix
    integral `prefix`: np.diff(cdf(xl)) + np.diff(cdf(xr)) at the boundary
    preimages xl, xr, with the cell lookups of cdf read from the fused gather
    table, written to `out` (which may be `values`) when given.  The table's
    preimages are ordered, so each mass of a nonnegative density is a
    difference of a nondecreasing cdf and is never negative."""
    idx, off = _gather_table(alpha, mesh)
    k = mesh.n_cells
    c = values[idx]
    c *= off
    c += prefix[idx]
    # d[k] straddles the seam between the two halves and is never read
    d = c[1:] - c[:-1]
    return np.add(d[:k], d[k + 1:], out=out)


def push_density(alphas, f0: Density) -> list[Density]:
    """The ladder [f0, P_1 f0, ..., P_m...P_1 f0] of f0 pushed by pf_apply
    through the operators of the exponents alphas = (a_1, ..., a_m)."""
    ladder = [f0]
    for a in alphas:
        ladder.append(pf_apply(a, ladder[-1]))
    return ladder


# ---------------------------------------------------------------------------
# cone of admissible densities


def cone_step_surrogate(mesh: Mesh, alpha: float) -> Density:
    """Cone-admissible stand-in for the indicator of [0, 1/2].

    A sharp step leaves the cone, so past 1/2 the step is replaced by the
    steepest admissible profile (2x)^(-(1+alpha)); the result is normalized
    to unit mass.  Projection nodes lie inside their cells, so x > 0.
    """
    return project(lambda x: np.minimum(1.0, (x / 0.5) ** -(1.0 + alpha)), mesh).normalized()


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
        return slope(x, y)


def loss_of_memory_distance(schedule: ParameterSchedule, f: Density, g: Density,
                            ladder) -> DecayResult:
    """Track ||push_n f - push_n g||_1 at the distinct requested times.

    Inputs must carry equal mass; the zero-mass difference is pushed
    directly, so cancellation never eats the small late-time distances.
    The loop keeps the difference as bare cell values and a prefix buffer,
    pushes them in place with the same kernel as pf_apply, and reuses two
    work buffers, so every step does the floating-point operations of
    pf_apply and of building the next Density, in the same order, without
    allocating one.
    """
    ns = np.array(sorted({int(n) for n in ladder}), dtype=int)
    if ns.size == 0 or ns[0] < 0:
        raise ValueError("ladder must contain nonnegative times")
    if abs(f.mass - g.mass) > 1e-10 * max(1.0, abs(f.mass)):
        raise ValueError("memory-loss inputs must have equal mass")
    alphas = schedule.alphas(int(ns[-1]))
    mesh, w = f.mesh, f.mesh.widths
    h = f.difference(g)
    v, p = h.values, h.prefix_mass
    vw, acc = np.empty_like(v), np.empty_like(v)
    log_scale = 0.0
    out_d, out_logd = [], []
    want = set(ns.tolist())

    def l1():
        """sum(|v| * w), leaving v * w in vw; rounding is sign-symmetric, so
        |v * w| is the same."""
        np.multiply(v, w, out=vw)
        return float(np.add.reduce(np.abs(vw, out=acc)))

    def record(s):
        logd = log_scale + math.log(s) if s > 0 else -math.inf
        out_logd.append(logd)
        out_d.append(math.exp(logd) if logd > -745 else 0.0)

    if 0 in want:
        record(l1())
    for i, a in enumerate(alphas, start=1):
        _push_masses(a, mesh, v, p, out=v)
        v /= w
        # the true difference has zero mass; subtracting the rounding residue
        # (the sequential sum Density.mass reads) kills the parasitic
        # unit-eigenvalue component that renormalization would otherwise
        # amplify until it dominates the decay
        np.multiply(v, w, out=vw)
        v -= np.add.accumulate(vw, out=acc)[-1]
        s = l1()
        if 0 < s < 1e-6:  # renormalize before precision drains away
            v /= s
            log_scale += math.log(s)
            s = l1()
        np.add.accumulate(vw, out=p[1:])  # vw is v * w from the last l1()
        if i in want:
            record(s)
    return DecayResult(ns, np.array(out_d), np.array(out_logd))
