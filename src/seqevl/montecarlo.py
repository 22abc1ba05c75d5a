"""Monte Carlo estimators for the extreme-value experiments.

Determinism contract: every estimator draws its inputs from counter-based
streams keyed by (seed, labels) and walks them with one shared sweep, which
cuts the samples into fixed chunks of CHUNK_SIZE and sums per-chunk event
counts in chunk order.  Worker threads only spread the chunks out; the
combined counts, and therefore every estimate, are identical for any worker
count.

The module needs only numpy to import: `scipy.special` is loaded inside
`EstimateWithCI.from_counts`, and only for an exact Clopper-Pearson
interval near 0 or 1.
"""

from __future__ import annotations

import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce

import numpy as np

from ._rng import philox_stream
from .maps import ParameterSchedule, apply_map_batch
from .mesh import Density, Mesh, project, uniform_density
from .thresholds import ThresholdSchedule
from .transfer import pf_apply, push_density

CHUNK_SIZE = 16384
Z95 = 1.959963984540054

DEFAULT_BETA = 0.9
DEFAULT_KAPPA = 0.85
DEFAULT_XI = 0.05
DEFAULT_ETA = 2.0 * DEFAULT_BETA

ALPHA_STAR_FEASIBLE_SUP = 1.0 / 7.0  # sup of the budget region as kappa, beta -> 1


@dataclass(frozen=True)
class RNGSpec:
    """Root seed plus label-derived streams; see _rng for the key derivation."""

    seed: int

    def stream(self, *labels: str) -> np.random.Generator:
        return philox_stream(self.seed, *labels)

    def uniform_points(self, n_samples: int, *labels: str) -> np.ndarray:
        return self.stream(*labels).random(n_samples)


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    se: float
    n_samples: int
    ci_low: float
    ci_high: float
    method: str = "normal"

    def __post_init__(self):
        if not self.ci_low <= self.value <= self.ci_high:
            raise ValueError("confidence interval must bracket the estimate")

    @classmethod
    def from_counts(cls, k: int, n: int) -> "EstimateWithCI":
        if n < 1 or not 0 <= k <= n:
            raise ValueError(f"need n >= 1 and 0 <= k <= n, got k={k}, n={n}")
        p = k / n
        se = math.sqrt(p * (1.0 - p) / n)
        if k < 10 or n - k < 10:  # normal approximation is poor near the edges
            # exact beta quantiles; imported here so that a run reaching no
            # edge interval never loads scipy
            from scipy.special import betaincinv
            lo = 0.0 if k == 0 else float(betaincinv(k, n - k + 1, 0.025))
            hi = 1.0 if k == n else float(betaincinv(k + 1, n - k, 0.975))
            return cls(p, se, n, lo, hi, method="clopper-pearson")
        return cls(p, se, n, max(0.0, p - Z95 * se), min(1.0, p + Z95 * se))

    @classmethod
    def from_moments(cls, total: float, total_sq: float, n: int) -> "EstimateWithCI":
        mean = total / n
        var = max(0.0, (total_sq - total * total / n) / (n - 1)) if n > 1 else 0.0
        se = math.sqrt(var / n)
        return cls(mean, se, n, mean - Z95 * se, mean + Z95 * se)


def _sweep(schedule: ParameterSchedule, rng: RNGSpec, label: str, n_samples: int,
           workers: int, steps: int, chunk):
    """Walk n_samples uniform orbits through positions 0..steps-1 and sum the counts.

    chunk(size) -> (visit, result) sets up one chunk's accumulators.
    visit(i, x) sees the chunk's points after i map steps; it may return a
    keep-mask, and then only the kept points walk on, the chunk stopping
    once none are left.  result() gives the chunk's tuple of counts.
    Chunk boundaries depend only on n_samples, and the per-chunk tuples
    (exact integers, or floats) are summed in chunk order, so the totals
    are invariant under the worker count.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    alphas = schedule.alphas(steps - 1)
    x0 = rng.uniform_points(n_samples, "x0", label)

    def run(lo: int):
        x = x0[lo:lo + CHUNK_SIZE].copy()
        visit, result = chunk(x.size)
        for i in range(steps):
            if i > 0:
                x = apply_map_batch(alphas[i - 1], x, out=x)
            keep = visit(i, x)
            if keep is not None:
                x = x[keep]
                if x.size == 0:
                    break
        return result()

    starts = range(0, n_samples, CHUNK_SIZE)
    if workers <= 1:
        results = [run(lo) for lo in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run, starts))
    # plain left-to-right adds; sum() would compensate float rounding on Python >= 3.12
    return [reduce(operator.add, parts) for parts in zip(*results)]


# ---------------------------------------------------------------------------
# exceedance probabilities


def estimate_Pn(ts: ThresholdSchedule, rng: RNGSpec, n_samples: int = 100_000,
                workers: int = 1, label: str = "pn") -> EstimateWithCI:
    """P(no exceedance through step n-1) for calibrated thresholds.

    Orbits that exceed are dropped at once: exceedance at each step is a
    pointwise predicate on that sample's orbit, so only survivors walk on.
    """
    zeta, deltas = ts.zeta, ts.deltas

    def chunk(size: int):
        alive = size

        def visit(i, x):
            nonlocal alive
            if deltas[i] > 0.0:
                keep = np.abs(x - zeta) >= deltas[i]
                alive = int(np.count_nonzero(keep))
                return keep

        return visit, lambda: (alive,)

    (survivors,) = _sweep(ts.schedule, rng, label, n_samples, workers, ts.n, chunk)
    return EstimateWithCI.from_counts(survivors, n_samples)


def estimate_exceedances(ts: ThresholdSchedule, indices, rng: RNGSpec,
                         n_samples: int = 100_000, workers: int = 1,
                         label: str = "exceedance") -> list[EstimateWithCI]:
    """Monte Carlo estimates of the per-step exceedance masses m(X_i > u_i)."""
    idx = sorted(int(i) for i in indices)
    if not idx or idx[0] < 0 or idx[-1] >= ts.n:
        raise ValueError("indices must lie in [0, n)")
    wanted = {i: pos for pos, i in enumerate(idx)}
    zeta, deltas = ts.zeta, ts.deltas

    def chunk(size: int):
        counts = np.zeros(len(idx), dtype=np.int64)

        def visit(i, x):
            pos = wanted.get(i)
            if pos is not None:
                counts[pos] = np.count_nonzero(np.abs(x - zeta) < deltas[i])

        return visit, lambda: (counts,)

    (counts,) = _sweep(ts.schedule, rng, label, n_samples, workers, idx[-1] + 1, chunk)
    return [EstimateWithCI.from_counts(int(k), n_samples) for k in counts]


def estimate_exceedance(ts: ThresholdSchedule, i: int, rng: RNGSpec,
                        n_samples: int = 100_000, workers: int = 1) -> EstimateWithCI:
    return estimate_exceedances(ts, [i], rng, n_samples, workers)[0]


# ---------------------------------------------------------------------------
# block structure and the anti-clustering pair sum


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the time indices 0..n-1 into mass-balanced blocks."""

    n: int
    k_n: int
    t_star: int
    bounds: np.ndarray
    masses: np.ndarray
    target_mass: float

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=int)
        if b[0] != 0 or b[-1] != self.n or np.any(np.diff(b) <= 0):
            raise ValueError("block bounds must partition 0..n")

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.bounds)

    @property
    def n_blocks(self) -> int:
        return len(self.bounds) - 1


def build_blocks(ts: ThresholdSchedule, k_n: int | None = None,
                 beta: float = DEFAULT_BETA,
                 kappa: float = DEFAULT_KAPPA) -> BlockStructure:
    """Greedy mass-balanced blocking of the threshold schedule.

    Blocks extend until their accumulated exceedance mass first reaches
    tau/k_n, the last block absorbing the remainder.  With near-equal step
    masses every block lands within one step mass of the target.
    """
    n = ts.n
    if k_n is None:
        k_n = max(1, round(n ** (1.0 - beta)))
    t_star = max(1, round(n ** kappa))
    if not 1 <= k_n <= n:
        raise ValueError("k_n must lie in [1, n]")
    total = ts.fstar
    if k_n == 1 or total <= 0.0:
        bounds = [0, n]
    else:
        target = total / k_n
        bounds = [0]
        acc = 0.0
        for i, m in enumerate(ts.step_masses):
            acc += float(m)
            if acc >= target * (1.0 - 1e-12) and len(bounds) < k_n and i + 1 < n:
                bounds.append(i + 1)
                acc = 0.0
        bounds.append(n)
    bounds = np.asarray(bounds, dtype=int)
    masses = np.array([float(np.sum(ts.step_masses[a:b]))
                       for a, b in zip(bounds[:-1], bounds[1:])])
    return BlockStructure(n=n, k_n=k_n, t_star=t_star, bounds=bounds,
                          masses=masses, target_mass=(total / k_n if k_n else 0.0))


def dprime_sum(ts: ThresholdSchedule, blocks: BlockStructure, rng: RNGSpec,
               n_samples: int = 100_000, workers: int = 1,
               label: str = "dprime") -> EstimateWithCI:
    """Sum over blocks of the pairwise joint exceedance probabilities.

    The sum equals E[number of same-block exceedance pairs], so one orbit
    sweep per sample suffices: count exceedances within each block and add
    C(count, 2).  Work per sample is O(n + pairs).
    """
    zeta, deltas = ts.zeta, ts.deltas
    ends = set(int(b) for b in blocks.bounds[1:])

    def chunk(size: int):
        in_block = np.zeros(size, dtype=np.int64)
        pairs = np.zeros(size, dtype=np.int64)

        def visit(i, x):
            nonlocal in_block, pairs
            if deltas[i] > 0.0:
                in_block += np.abs(x - zeta) < deltas[i]
            if (i + 1) in ends:
                pairs += in_block * (in_block - 1) // 2
                in_block[:] = 0

        return visit, lambda: (int(pairs.sum()), int((pairs * pairs).sum()))

    total, total_sq = _sweep(ts.schedule, rng, label, n_samples, workers, ts.n, chunk)
    return EstimateWithCI.from_moments(float(total), float(total_sq), n_samples)


# ---------------------------------------------------------------------------
# mixing gap


@dataclass(frozen=True)
class MixingGap:
    covariance: float
    se: float
    n_samples: int
    p_event: float
    p_window: float

    @property
    def gap(self) -> float:
        return abs(self.covariance)


def d0_mixing_gap(ts: ThresholdSchedule, i: int, t: int, ell: int, rng: RNGSpec,
                  n_samples: int = 100_000, workers: int = 1,
                  label: str = "d0") -> MixingGap:
    """|P(A_i and no exceedance on [i+t, i+t+ell)) - P(A_i) P(same window)|.

    All four joint outcome counts are integers, so the covariance and its
    influence-function standard error are exact functionals of the counts.
    An empty window (ell = 0) makes the window event certain and the
    covariance identically zero.
    """
    n = ts.n
    if i < 0 or t < 1 or ell < 0 or i + t + ell > n:
        raise ValueError("need 0 <= i, t >= 1, ell >= 0, i + t + ell <= n")
    last = i + t + ell - 1 if ell > 0 else i
    zeta, deltas = ts.zeta, ts.deltas

    def chunk(size: int):
        a = np.zeros(size, dtype=bool)
        w = np.ones(size, dtype=bool)

        def visit(step, x):
            nonlocal a, w
            if step == i:
                a = np.abs(x - zeta) < deltas[step]
            if ell > 0 and i + t <= step and deltas[step] > 0.0:
                w &= np.abs(x - zeta) >= deltas[step]

        return visit, lambda: (int(np.count_nonzero(a & w)), int(np.count_nonzero(a)),
                               int(np.count_nonzero(w)))

    n11, na, nw = _sweep(ts.schedule, rng, label, n_samples, workers, last + 1, chunk)
    N = n_samples
    pa, pw, p11 = na / N, nw / N, n11 / N
    cov = p11 - pa * pw
    # influence function z = 1_aw - pa 1_w - pw 1_a takes one value per outcome cell
    n10, n01 = na - n11, nw - n11
    z11, z10, z01 = 1.0 - pa - pw, -pw, -pa
    ez = (n11 * z11 + n10 * z10 + n01 * z01) / N
    ez2 = (n11 * z11 ** 2 + n10 * z10 ** 2 + n01 * z01 ** 2) / N
    se = math.sqrt(max(0.0, ez2 - ez * ez) / N)
    return MixingGap(covariance=cov, se=se, n_samples=N, p_event=pa, p_window=pw)


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
    ladder = push_density(schedule, uniform_density(base), i + t,
                          return_trajectory=True)
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
                      rng: RNGSpec, n_samples: int = 100_000, workers: int = 1,
                      label: str = "dc") -> EstimateWithCI:
    """Monte Carlo cross-check of correlation_DC: cov(phi(x_i), psi(x_{i+t}))."""

    def as_callable(obs):
        if isinstance(obs, tuple):
            lo, hi = obs
            return lambda x: ((x > lo) & (x < hi)).astype(float)
        return obs

    fphi, fpsi = as_callable(phi), as_callable(psi)

    def chunk(size: int):
        u = v = None

        def visit(step, x):
            nonlocal u, v
            if step == i:
                u = np.asarray(fphi(x), dtype=float).copy()
            if step == i + t:
                v = np.asarray(fpsi(x), dtype=float)

        return visit, lambda: (float(np.sum(u * v)), float(np.sum(u)), float(np.sum(v)),
                               float(np.sum((u * v) ** 2)))

    suv, su, sv, suv2 = _sweep(schedule, rng, label, n_samples, workers, i + t + 1, chunk)
    N = n_samples
    mu_uv, mu_u, mu_v = suv / N, su / N, sv / N
    cov = mu_uv - mu_u * mu_v
    var_uv = max(0.0, suv2 / N - mu_uv ** 2)
    se = math.sqrt(var_uv / N)  # conservative: ignores the (smaller) product terms
    return EstimateWithCI(cov, se, N, cov - Z95 * se, cov + Z95 * se)


# ---------------------------------------------------------------------------
# exponent budget checks


@dataclass(frozen=True)
class LedgerCheck:
    name: str
    satisfied: bool
    lhs: float
    rhs: float
    detail: str


def exponent_ledger(alpha_star: float, beta: float = DEFAULT_BETA,
                    kappa: float = DEFAULT_KAPPA, xi: float = DEFAULT_XI,
                    eta: float = DEFAULT_ETA) -> list[LedgerCheck]:
    """Evaluate the asymptotic exponent budgets for the blocking argument.

    All four must hold for the error terms to vanish in the limit; at desk
    scale they are reported, never enforced.  Their joint feasible region
    caps alpha_star at 1/7 as kappa, beta -> 1.
    """
    checks = []
    lhs = (-1.0 / alpha_star + 1.0) * kappa + 2.0 + 2.0 * eta
    checks.append(LedgerCheck(
        "mixing-gap-budget", lhs < 0.0, lhs, 0.0,
        "(1 - 1/alpha*) kappa + 2 + 2 eta < 0 keeps the summed gap bound vanishing"))
    rhs = kappa / (2.0 + 4.0 * beta + kappa)
    checks.append(LedgerCheck(
        "pair-sum-budget", alpha_star < rhs, alpha_star, rhs,
        "alpha* < kappa / (2 + 4 beta + kappa) keeps the block pair sum vanishing"))
    rhs2 = beta + kappa * (1.0 + xi) - 1.0
    checks.append(LedgerCheck(
        "recurrence-budget", alpha_star < rhs2, alpha_star, rhs2,
        "alpha* < beta + kappa (1 + xi) - 1 keeps the short-return term vanishing"))
    lhs3 = kappa * (1.0 + xi)
    checks.append(LedgerCheck(
        "block-gap-ordering", lhs3 < beta, lhs3, beta,
        "kappa (1 + xi) < beta keeps gap lengths below block lengths"))
    return checks
