"""Transfer operators for the intermittent maps.

`pf_apply` pushes a piecewise-constant density through the duality
relation using interval-preimage arithmetic: masses are differences of the
source prefix integral at branch preimages of the cell boundaries, so each
step conserves mass to rounding.  `push_density` chains it into a ladder
over a run of exponents; every density ladder is pushed this way, and a
long ladder is pushed a block at a time by its caller.

`ulam_matrix` builds the independent reference discretization, a sparse
row-stochastic matrix whose (i, j) entry is the fraction of cell i that
lands in cell j.  On piecewise-constant inputs the two agree to rounding;
they differ for pointwise (smooth) inputs, which the Ulam matrix first
projects onto the mesh.  `scipy.sparse` is imported only when an Ulam
matrix is built, so the run path needs numpy alone.  The module also
carries the cone machinery used to certify density bounds, the
memory-loss diagnostic, and the collared bump function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .maps import ParameterSchedule, lsv_apply, lsv_derivative, lsv_left_inverse
from .mesh import Density, Mesh, _gauss_legendre, project

DEFAULT_CONE_A = 20.0

# gather tables of the push, keyed by (alpha, mesh fingerprint); the key
# alpha=None holds the right branch, which is the same for every alpha
_LEFT_INV_CACHE: dict[tuple[float | None, bytes], tuple[np.ndarray, np.ndarray]] = {}


def _boundary_preimages(alpha: float, mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Branch preimages of every mesh boundary (left monotone on [0,1/2])."""
    return lsv_left_inverse(alpha, mesh.boundaries), 0.5 * (mesh.boundaries + 1.0)


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


def pf_apply(alpha: float, f, mesh: Mesh | None = None, quad_points: int = 8) -> Density:
    """Apply one transfer operator and project the result onto the mesh.

    For a Density input the per-cell masses are exact: the pushed mass of
    cell j is F(x_(j+1)) - F(x_j) summed over both branch preimages of the
    cell boundaries, where F is the exact prefix integral of f.  A pointwise
    callable is integrated over the same preimage intervals with Gauss-
    Legendre quadrature instead, which keeps the duality residual at
    quadrature accuracy without projecting f first.
    """
    if isinstance(f, Density):
        return Density(f.mesh, _push_masses(alpha, f.mesh, f.values, f.prefix_mass)
                       / f.mesh.widths)
    if mesh is None:
        raise ValueError("pointwise input needs an explicit mesh")
    masses = np.zeros(mesh.n_cells)
    nodes, weights = _gauss_legendre(quad_points)
    for pre in _boundary_preimages(alpha, mesh):
        mid = 0.5 * (pre[:-1] + pre[1:])
        half = 0.5 * np.diff(pre)
        x = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
        masses += (vals @ weights) * half
    return Density(mesh, masses / mesh.widths)


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
            if d.l1_distance(nxt) <= tol:
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
    for pre in _boundary_preimages(alpha, mesh):
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
# duality diagnostics


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

    nodes, weights = _gauss_legendre(quad_points)

    def piecewise_integral(points, integrand):
        mid = 0.5 * (points[:-1] + points[1:])
        half = 0.5 * np.diff(points)
        x = mid[:, None] + half[:, None] * nodes[None, :]
        vals = np.asarray(integrand(x.ravel()), dtype=float).reshape(x.shape)
        return float(np.sum((vals @ weights) * half))

    f_at = f.at if isinstance(f, Density) else f

    def pf_pointwise(y):
        xl = lsv_left_inverse(alpha, y)
        xr = 0.5 * (np.asarray(y, dtype=float) + 1.0)
        return (np.asarray(f_at(xl)) / lsv_derivative(alpha, xl)
                + np.asarray(f_at(xr)) / lsv_derivative(alpha, xr))

    lhs = piecewise_integral(lhs_pts, lambda y: pf_pointwise(y) * np.asarray(g(y)))
    rhs = piecewise_integral(rhs_pts,
                             lambda x: np.asarray(f_at(x)) * np.asarray(g(lsv_apply(alpha, x))))
    return abs(lhs - rhs)
