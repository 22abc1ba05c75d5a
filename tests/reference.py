"""Reference apparatus that the tests check the package against.

No experiment runs any of this, so it sits beside the tests rather than in
`seqevl`, which keeps only what a run executes (a test walks the package
from `cli.main` to hold it to that).  What it holds:

- `ulam_matrix` and `UlamOperator`: the independent reference
  discretization, a sparse row-stochastic matrix whose (i, j) entry is the
  fraction of cell i that lands in cell j.  On piecewise-constant inputs it
  agrees with `seqevl.transfer.pf_apply` to rounding.  It needs
  `scipy.sparse`, which the package never imports.
- `lsv_apply`: the map evaluated with its inputs checked, point by point
  or on an array; `seqevl.maps.sequential_orbit` must match it bit for bit.
- `where_step`: the map step as a per-point select between the branches,
  the form `seqevl.maps.apply_map_batch` replaced with a branchless one
  that must give the same bits.
- `pointwise_push`: one transfer operator applied to a pointwise callable,
  integrated over the branch preimage intervals by Gauss-Legendre
  quadrature without projecting the callable first.  It differs from the
  Ulam push of the projected callable by the projection error alone.
- `duality_residual`: the transfer operator tested against the change of
  variables, with the map derivative `lsv_derivative` and both branch
  preimages `lsv_preimages`.
- `ConeParams`, `cone_check` and `density_bounds_check`: the cone
  invariance of pushed densities that the paper's argument rests on
  (Liverani-Saussol-Vaienti 1999; Aimino-Hu-Nicol-Torok-Vaienti 2015 for
  sequential compositions).
- `threshold_window` and `schedule_window`: the radius window that the
  cone's density bounds imply, and whether a calibrated schedule's radii
  land in it.
- `BumpFunction` and `bump_chi`: the collared bump observable.
- `integrate_product`: composite midpoint quadrature of a product on a mesh.
- `l1_distance`: the L1 distance of two densities on one mesh.
- `observable_distance`, `observable_value` and `radius_for_level`: the
  observable g(|x - zeta|) evaluated pointwise, and the inverse of
  `Observable.level_for_radius`, so that the exceedance set {g > u} is the
  open ball of that radius.
- `correlation_DC` and `mc_correlation_DC`: the decorrelation functional
  cov(phi(x_i), psi(x_{i+t})) by the operator identity on a mesh, and its
  Monte Carlo twin, which walks its own orbits with `lsv_apply` rather
  than the package's sweep.
- `philox_draw`: a stream's first doubles from `numpy.random.Philox`, the
  library generator that `seqevl._rng.uniforms` reproduces bit for bit
  without importing it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from seqevl._rng import philox_key
from seqevl.maps import (ParameterSchedule, _check_alpha, _check_domain, apply_map_batch,
                         lsv_left_inverse)
from seqevl.mesh import Density, Mesh, _same_mesh, project, uniform_density
from seqevl.montecarlo import Z95, EstimateWithCI
from seqevl.thresholds import Observable, ThresholdSchedule
from seqevl.transfer import pf_apply, push_density

# ---------------------------------------------------------------------------
# random streams


def philox_draw(seed: int, labels: tuple[str, ...], n: int) -> np.ndarray:
    """The first n doubles of the (seed, labels) stream, drawn by numpy's own
    Philox generator."""
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *labels))).random(n)


# ---------------------------------------------------------------------------
# map step, derivative and branch preimages


def lsv_apply(alpha: float, x):
    """Evaluate the map: x(1 + 2^alpha x^alpha) on [0, 1/2), 2x - 1 on [1/2, 1],
    with alpha and the points checked on every call."""
    _check_alpha(alpha)
    x = _check_domain(x)
    out = apply_map_batch(alpha, np.atleast_1d(x))
    return out if x.ndim else float(out[0])


def where_step(alpha: float, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """One map step with np.where picking the branch of every point."""
    left = x * (1.0 + 2.0 ** alpha * x ** alpha)
    return np.minimum(np.where(x < 0.5, left, 2.0 * x - 1.0), 1.0, out=out)



def lsv_derivative(alpha: float, x):
    """One-sided derivative; x = 1/2 uses the right branch, so T'(1/2) = 2."""
    _check_alpha(alpha)
    x = _check_domain(x)
    left = 1.0 + 2.0 ** alpha * (1.0 + alpha) * x ** alpha
    out = np.where(x < 0.5, left, 2.0)
    return out if out.ndim else float(out)


def lsv_preimages(alpha: float, y):
    """Both branch preimages of y: (left in [0, 1/2], right in [1/2, 1])."""
    y = _check_domain(y)
    return lsv_left_inverse(alpha, y), (np.asarray(y, dtype=float) + 1.0) / 2.0


# ---------------------------------------------------------------------------
# pushes of the reference discretizations


def l1_distance(f: Density, g: Density) -> float:
    """L1 distance of two densities on one mesh."""
    _same_mesh(f.mesh, g.mesh)
    return float(np.sum(np.abs(f.values - g.values) * f.mesh.widths))


def pointwise_push(alpha: float, fn, mesh: Mesh) -> Density:
    """Apply one transfer operator to a pointwise callable and project the
    result onto the mesh.

    The pushed mass of cell j is the integral of fn over the two branch
    preimages of the cell, each taken by 8-point Gauss-Legendre quadrature,
    which keeps the duality residual at quadrature accuracy without
    projecting fn first.
    """
    masses = np.zeros(mesh.n_cells)
    nodes, weights = np.polynomial.legendre.leggauss(8)
    for pre in lsv_preimages(alpha, mesh.boundaries):
        mid = 0.5 * (pre[:-1] + pre[1:])
        half = 0.5 * np.diff(pre)
        x = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(fn(x.ravel()), dtype=float).reshape(x.shape)
        masses += (vals @ weights) * half
    return Density(mesh, masses / mesh.widths)


@dataclass
class UlamOperator:
    """Sparse row-stochastic discretization of one transfer operator."""

    alpha: float
    mesh: Mesh
    matrix: sp.csr_matrix
    _push_matrix: sp.csr_matrix = field(init=False, repr=False)

    def __post_init__(self):
        self._push_matrix = self.matrix.T.tocsr()

    def row_sum_defect(self) -> float:
        return float(np.max(np.abs(self.matrix.sum(axis=1) - 1.0)))

    def push(self, f: Density) -> Density:
        masses = self._push_matrix @ (f.values * self.mesh.widths)
        if np.all(f.values >= 0.0):
            masses = np.maximum(masses, 0.0)
        return Density(self.mesh, masses / self.mesh.widths)

    def stationary_density(self, tol: float = 1e-12, max_iter: int = 200000) -> Density:
        """Left fixed vector by power iteration, returned as a unit-mass density."""
        d = Density(self.mesh, np.ones(self.mesh.n_cells))
        for _ in range(max_iter):
            nxt = self.push(d).normalized()
            if l1_distance(d, nxt) <= tol:
                return nxt
            d = nxt
        return d


def ulam_matrix(alpha: float, mesh: Mesh) -> UlamOperator:
    """Build the Ulam matrix by exact interval-preimage arithmetic.

    Entry (i, j) is m(cell_i intersect T^{-1} cell_j) / m(cell_i).  Each
    branch contributes a staircase of elementary intervals obtained by
    merging the mesh with the branch preimages of all boundaries.
    """
    import scipy.sparse as sp

    b = mesh.boundaries
    n = mesh.n_cells
    rows, cols, data = [], [], []
    for pre in lsv_preimages(alpha, b):
        interior = b[(b > pre[0]) & (b < pre[-1])]
        pts = np.unique(np.concatenate([pre, interior]))
        mids = 0.5 * (pts[:-1] + pts[1:])
        lens = np.diff(pts)
        keep = lens > 0
        src = mesh.cell_index(mids[keep])
        tgt = np.clip(np.searchsorted(pre, mids[keep], side="right") - 1, 0, n - 1)
        rows.append(src)
        cols.append(tgt)
        data.append(lens[keep] / mesh.widths[src])
    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return UlamOperator(alpha, mesh, matrix)


# ---------------------------------------------------------------------------
# cone of admissible densities and the radius window it implies


@dataclass(frozen=True)
class ConeParams:
    """Cone of nonincreasing densities dominated by a x^(-alpha) times mass.

    `alpha` must dominate every map exponent in play; `a` is the domination
    coefficient.  `lower_bound` is the constant density floor implied by
    membership together with unit mass.
    """

    alpha: float
    a: float = 20.0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("cone exponent must lie in (0, 1)")
        if self.a <= 1.0:
            raise ValueError("cone coefficient must exceed 1")

    @property
    def lower_bound(self) -> float:
        al, a = self.alpha, self.a
        return min(a, (al * (1.0 + al) / a ** al) ** (1.0 / (1.0 - al)))


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


def schedule_window(ts: ThresholdSchedule) -> tuple[float, float, np.ndarray]:
    """(lo, hi, ok): the threshold window of ts for the cone whose exponent is
    the largest of the n - 1 maps that push its densities (alpha_star when
    n = 1), and which radii lie in it (all of them when tau = 0)."""
    alpha = float(np.max(ts.schedule.alphas(ts.n - 1))) if ts.n > 1 else ts.schedule.alpha_star
    lo, hi = threshold_window(ConeParams(alpha=alpha), ts.observable.zeta, ts.tau, ts.n)
    if ts.tau == 0.0:
        return lo, hi, np.ones(ts.n, dtype=bool)
    return lo, hi, (ts.deltas >= lo) & (ts.deltas <= hi)


@dataclass(frozen=True)
class ConeFlags:
    nonnegative: bool
    nonincreasing: bool
    power_weighted_increasing: bool
    dominated: bool

    @property
    def member(self) -> bool:
        return (self.nonnegative and self.nonincreasing
                and self.power_weighted_increasing and self.dominated)


def cone_check(f: Density, params: ConeParams, rel_tol: float = 1e-9) -> ConeFlags:
    """Test the four cone conditions on the discretized density.

    Cell averages stand in for pointwise values: monotonicity is tested
    across consecutive cells, the power-weighted condition at midpoints,
    and domination at cell left endpoints (where x^(-alpha) is largest,
    matching an average that under-represents the peak of a decreasing
    density).  `rel_tol` absorbs rounding noise only.
    """
    v = f.values
    scale = float(np.max(np.abs(v))) if v.size else 0.0
    slack = rel_tol * max(scale, 1.0)
    nonnegative = bool(np.all(v >= -slack))
    nonincreasing = bool(np.all(np.diff(v) <= slack))
    weighted = f.mesh.midpoints ** (1.0 + params.alpha) * v
    wslack = rel_tol * max(float(np.max(np.abs(weighted))), 1.0) if weighted.size else 0.0
    power_weighted_increasing = bool(np.all(np.diff(weighted) >= -wslack))
    left = f.mesh.boundaries[:-1]
    bound = np.full_like(v, np.inf)
    np.divide(params.a * f.mass, left ** params.alpha, out=bound, where=left > 0)
    dominated = bool(np.all(v <= bound * (1.0 + rel_tol) + slack))
    return ConeFlags(nonnegative, nonincreasing, power_weighted_increasing, dominated)


@dataclass(frozen=True)
class BoundsReport:
    lower_margin: float
    upper_margin: float

    @property
    def ok(self) -> bool:
        return self.lower_margin >= 0.0 and self.upper_margin >= 0.0


def density_bounds_check(f: Density, params: ConeParams) -> BoundsReport:
    """Margins of c <= f <= a x^(-alpha) over the mesh (negative = violated)."""
    c = params.lower_bound
    lower_margin = float(np.min(f.values) - c)
    left = f.mesh.boundaries[:-1]
    with np.errstate(divide="ignore"):
        bound = params.a * np.where(left > 0, left, np.nan) ** (-params.alpha)
    gaps = bound - f.values
    upper_margin = float(np.nanmin(gaps[1:])) if f.values.size > 1 else math.inf
    return BoundsReport(lower_margin, upper_margin)


# ---------------------------------------------------------------------------
# collared bump function


_BUMP_SLOPE_CONSTANT = 0.7984297518335995  # 2 e^(-1/(1-3^(-1/2))) / (3^(1/4) (1-3^(-1/2))^2)


@dataclass(frozen=True)
class BumpFunction:
    """Plateau indicator with collars of width delta on either side.

    The default profile is exp(-1/(1-s^2)) on the collars, which jumps from
    1 to 1/e at the plateau edges; smooth=True rescales the collar profile
    by e so the function becomes continuous.  Either way the collars carry
    Lebesgue measure exactly 2*delta.
    """

    lower: float
    upper: float
    delta: float
    smooth: bool = False

    def __post_init__(self):
        if not (0.0 <= self.lower - self.delta and self.upper + self.delta <= 1.0):
            raise ValueError("collars must fit inside [0, 1]")
        if not (self.lower < self.upper and self.delta > 0.0):
            raise ValueError("need lower < upper and delta > 0")

    def _profile(self, s: np.ndarray) -> np.ndarray:
        out = np.zeros_like(s)
        inside = np.abs(s) < 1.0
        si = s[inside]
        out[inside] = np.exp(-1.0 / (1.0 - si * si))
        if self.smooth:
            out[inside] *= math.e
        return out

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        plateau = (x > self.lower) & (x < self.upper)
        out[plateau] = 1.0
        lc = (x > self.lower - self.delta) & (x <= self.lower)
        out[lc] = self._profile((x[lc] - self.lower) / self.delta)
        rc = (x >= self.upper) & (x < self.upper + self.delta)
        out[rc] = self._profile((x[rc] - self.upper) / self.delta)
        return out

    @property
    def collar_measure(self) -> float:
        return 2.0 * self.delta

    def interior_max_slope(self) -> float:
        """Largest |d chi / dx| inside the collars, attained at offset delta/3^(1/4)."""
        scale = math.e if self.smooth else 1.0
        return scale * _BUMP_SLOPE_CONSTANT / self.delta


def bump_chi(lower: float, upper: float, delta: float, smooth: bool = False) -> BumpFunction:
    return BumpFunction(lower, upper, delta, smooth=smooth)


# ---------------------------------------------------------------------------
# quadrature and duality diagnostics


def integrate_product(f, g, mesh: Mesh, oversample: int = 4) -> float:
    """Composite midpoint quadrature of f*g on the mesh, `oversample` points per cell.

    Adequate for smooth integrands; exact when both factors are constant on
    each subcell.  Integrands with jumps off the mesh need the
    breakpoint-aligned quadrature of duality_residual instead.
    """
    b = mesh.boundaries
    w = mesh.widths
    offsets = (np.arange(oversample) + 0.5) / oversample
    x = (b[:-1][:, None] + w[:, None] * offsets[None, :]).ravel()
    sub_w = np.repeat(w / oversample, oversample)
    fx = np.asarray(f(x), dtype=float)
    gx = np.asarray(g(x), dtype=float)
    return float(np.sum(fx * gx * sub_w))


def duality_residual(alpha: float, f, g, mesh: Mesh | None = None,
                     quad_points: int = 8, g_breakpoints=()) -> float:
    """|integral(P f * g) - integral(f * g(T))| with breakpoint-aligned quadrature.

    Both sides are integrated piecewise between every known discontinuity
    (mesh boundaries, their images/preimages under the two branches, the
    branch split at 1/2), Gauss-Legendre inside each piece.  The left side
    uses the pointwise preimage-sum form of P f, so this genuinely tests
    the operator against the change of variables rather than replaying the
    projection identity.
    """
    if isinstance(f, Density):
        mesh = f.mesh
    if mesh is None:
        raise ValueError("pointwise f needs an explicit mesh")
    b = mesh.boundaries
    gb = np.asarray(list(g_breakpoints), dtype=float)

    def refine(points):
        pts = np.unique(np.clip(np.concatenate(points), 0.0, 1.0))
        return pts[np.concatenate(([True], np.diff(pts) > 1e-15))]

    # images of the f-breakpoints under both branches mark the jumps of Pf
    left_dom = b[b <= 0.5]
    right_dom = b[b >= 0.5]
    lhs_pts = refine([np.array([0.0, 1.0]), lsv_apply(alpha, left_dom),
                      2.0 * right_dom - 1.0, gb])
    rhs_pts = refine([b, np.array([0.5]),
                      lsv_left_inverse(alpha, gb) if gb.size else np.empty(0),
                      0.5 * (gb + 1.0) if gb.size else np.empty(0)])

    nodes, weights = np.polynomial.legendre.leggauss(quad_points)

    def piecewise_integral(points, integrand):
        mid = 0.5 * (points[:-1] + points[1:])
        half = 0.5 * np.diff(points)
        x = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(integrand(x.ravel()), dtype=float).reshape(x.shape)
        return float(np.sum((vals @ weights) * half))

    f_at = (lambda x: f.values[f.mesh.cell_index(x)]) if isinstance(f, Density) else f

    def pf_pointwise(y):
        xl = lsv_left_inverse(alpha, y)
        xr = 0.5 * (np.asarray(y, dtype=float) + 1.0)
        return (np.asarray(f_at(xl)) / lsv_derivative(alpha, xl)
                + np.asarray(f_at(xr)) / lsv_derivative(alpha, xr))

    lhs = piecewise_integral(lhs_pts, lambda y: pf_pointwise(y) * np.asarray(g(y)))
    rhs = piecewise_integral(rhs_pts,
                             lambda x: np.asarray(f_at(x)) * np.asarray(g(lsv_apply(alpha, x))))
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# observables


def observable_distance(obs: Observable, x):
    return np.abs(np.asarray(x, dtype=float) - obs.zeta)


def observable_value(obs: Observable, x):
    """g(|x - zeta|), the observation at the point x."""
    return obs.level_for_radius(observable_distance(obs, x))


def radius_for_level(obs: Observable, u):
    """Radius of the ball around zeta on which the observable exceeds u."""
    out = np.exp(-np.asarray(u, dtype=float))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# decorrelation functional


def correlation_DC(schedule: ParameterSchedule, phi, psi, i: int, t: int,
                   mesh: Mesh) -> float:
    """Decorrelation functional via the operator identity.

    Computes integral(psi~ * push_{i+1..i+t}(dens_i * phi~)) where dens_i is
    the step-i density, phi~ centers phi against it, and psi~ centers psi
    against the step-(i+t) density (the centering of psi pairs with a
    zero-mass density, so it cannot change the value; it is kept for
    symmetry).  phi and psi may be (lo, hi) interval indicators, handled
    exactly, or pointwise callables, projected per cell.
    """
    base = mesh
    for obs in (phi, psi):
        if isinstance(obs, tuple):
            extra = [p for p in obs if 1e-12 < p < 1.0 - 1e-12]
            pts = np.unique(np.concatenate([base.boundaries, np.asarray(extra)]))
            base = Mesh(pts)
    ladder = push_density(schedule.alphas(i + t), uniform_density(base))
    dens_i, dens_it = ladder[i], ladder[i + t]

    def center_and_multiply(obs, dens: Density) -> Density:
        if isinstance(obs, tuple):
            lo, hi = obs
            mu = float(dens.interval_mass(lo, hi))
            mids = dens.mesh.midpoints
            ind = ((mids > lo) & (mids < hi)).astype(float)
            return Density(dens.mesh, dens.values * (ind - mu))
        proj = project(obs, dens.mesh)
        mu = float(np.sum(proj.values * dens.values * dens.mesh.widths))
        return Density(dens.mesh, dens.values * (proj.values - mu))

    signed = center_and_multiply(phi, dens_i)
    pushed = signed
    alphas = schedule.alphas(i + t)[i:]
    for a in alphas:
        pushed = pf_apply(a, pushed)
    if isinstance(psi, tuple):
        lo, hi = psi
        value = float(pushed.interval_mass(lo, hi))
        value -= float(dens_it.interval_mass(lo, hi)) * pushed.mass
        return value
    proj = project(psi, base)
    mu = float(np.sum(proj.values * dens_it.values * base.widths))
    return float(np.sum((proj.values - mu) * pushed.values * base.widths))


def mc_correlation_DC(schedule: ParameterSchedule, phi, psi, i: int, t: int,
                      seed: int, n_samples: int = 100_000,
                      label: str = "dc") -> EstimateWithCI:
    """Monte Carlo cross-check of correlation_DC: cov(phi(x_i), psi(x_{i+t})).

    The orbits start from the sweep's stream for the label, all drawn at
    once, and are stepped whole with lsv_apply: the package's sweep is not
    used, so the tests can compare it against this.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")

    def observe(obs, x):
        if isinstance(obs, tuple):
            lo, hi = obs
            return ((x > lo) & (x < hi)).astype(float)
        return np.asarray(obs(x), dtype=float)

    alphas = schedule.alphas(i + t)
    x = philox_draw(seed, ("x0", label), n_samples)
    for a in alphas[:i]:
        x = lsv_apply(a, x)
    u = observe(phi, x)
    for a in alphas[i:]:
        x = lsv_apply(a, x)
    v = observe(psi, x)
    suv, su, sv, suv2 = (float(np.sum(s)) for s in (u * v, u, v, (u * v) ** 2))
    N = n_samples
    mu_uv, mu_u, mu_v = suv / N, su / N, sv / N
    cov = mu_uv - mu_u * mu_v
    var_uv = max(0.0, suv2 / N - mu_uv ** 2)
    se = math.sqrt(var_uv / N)  # conservative: ignores the (smaller) product terms
    return EstimateWithCI(cov, se, N, cov - Z95 * se, cov + Z95 * se)
