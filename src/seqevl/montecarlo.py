"""Monte Carlo estimators for the extreme-value experiments.

The module is the one orbit sweep `_sweep` and what a run estimates with
it: the no-exceedance probability P_n, per-step exceedance masses, the
within-block pair sum of condition D' (with the blocks it sums over) and
the mixing gap of condition D_0.  Every one of them is about the same
event, the orbit at step i landing in the ball of radius delta_i, whose
mask `Observable.hits` computes.  The sweep walks the orbits to the last
step an estimator reads and asks for the mask once at each step read,
and each estimator folds the hit masks it is handed.

Determinism contract: every estimator draws its inputs from counter-based
streams keyed by (seed, labels) and walks them with one shared sweep, which
cuts the samples into chunks of CHUNK_SIZE, walks them in order on one
thread and sums per-chunk event counts in chunk order.  The chunk at
sample lo draws its start points as doubles lo, lo + 1, ... of its label's
stream (`_rng.uniforms`) when it is walked, so the stage holds one chunk
whatever n_samples is and the chunks together start from the points of one
whole draw.  The counts are exact integers, so every estimate is identical
for any chunk size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._numeric import bisect
from ._rng import uniforms
from .maps import apply_map_batch
from .thresholds import ThresholdSchedule

CHUNK_SIZE = 16384
Z95 = 1.959963984540054

DEFAULT_SAMPLES = 100_000
DEFAULT_BETA = 0.9
DEFAULT_KAPPA = 0.85


@dataclass(frozen=True)
class EstimateWithCI:
    value: float
    se: float
    ci_low: float
    ci_high: float

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
            return cls(p, se, *_clopper_pearson(k, n))
        return cls(p, se, max(0.0, p - Z95 * se), min(1.0, p + Z95 * se))

    @classmethod
    def from_moments(cls, total: float, total_sq: float, n: int) -> "EstimateWithCI":
        mean = total / n
        var = max(0.0, (total_sq - total * total / n) / (n - 1)) if n > 1 else 0.0
        se = math.sqrt(var / n)
        return cls(mean, se, mean - Z95 * se, mean + Z95 * se)


def _clopper_pearson(k: int, n: int) -> tuple[float, float]:
    """Exact 95% ends for k hits in n samples (Clopper-Pearson 1934): hi solves
    P(Bin(n, p) <= k) = 0.025 and lo P(Bin(n, p) <= k - 1) = 0.975, mirrored
    when n - k < k, so a tail sums min(k, n - k) + 1 terms."""
    if n - k < k:
        lo, hi = _clopper_pearson(n - k, n)
        return 1.0 - hi, 1.0 - lo

    def cdf(j, p):  # not exp(log(comb) + i log(p)), whose terms cancel to 1e-13 at n = 2**62
        return math.fsum(math.comb(n, i) * p ** i * math.exp((n - i) * math.log1p(-p))
                         for i in range(j + 1))

    lo = 0.0 if k == 0 else float(bisect(lambda p: cdf(k - 1, p) > 0.975, 0.0, 1.0, 120))
    hi = 1.0 if k == n else float(bisect(lambda p: cdf(k, p) > 0.025, 0.0, 1.0, 120))
    return lo, hi


def _sweep(ts: ThresholdSchedule, seed: int, label: str, n_samples: int, reads, chunk):
    """Walk n_samples uniform orbits of ts to the last step in reads (a range
    or a set) and sum the counts.

    chunk(size) -> (visit, result) sets up one chunk's accumulators.  At
    each step i in reads the sweep takes the chunk's hit mask from
    ts.observable.hits once and calls visit(i, hit).  visit may return a
    keep-mask, and then only the kept points walk on, the chunk stopping
    once none are left.  result() gives the chunk's tuple of exact integer
    counts.  Chunk boundaries depend only on n_samples and CHUNK_SIZE, and
    the per-chunk tuples are summed in chunk order.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be positive, got {n_samples}")
    last = max(reads)
    alphas = ts.schedule.alphas(last)
    hits, deltas = ts.observable.hits, ts.deltas

    def run(lo: int):
        # the chunk's start points are doubles lo, lo + 1, ... of the label's
        # stream, so the chunks together draw the points of one whole draw
        x = uniforms(seed, ("x0", label), lo, min(CHUNK_SIZE, n_samples - lo))
        visit, result = chunk(x.size)
        for i in range(last + 1):
            if i > 0:
                x = apply_map_batch(alphas[i - 1], x, out=x)
            if i in reads:
                keep = visit(i, hits(x, deltas[i]))
                if keep is not None:
                    x = x[keep]
                    if x.size == 0:
                        break
        return result()

    results = [run(lo) for lo in range(0, n_samples, CHUNK_SIZE)]
    return [sum(parts) for parts in zip(*results)]


# ---------------------------------------------------------------------------
# exceedance probabilities


def estimate_Pn(ts: ThresholdSchedule, seed: int, n_samples: int = DEFAULT_SAMPLES,
                label: str = "pn") -> EstimateWithCI:
    """P(no exceedance through step n-1) for calibrated thresholds.

    Orbits that exceed are dropped at once: exceedance at each step is a
    pointwise predicate on that sample's orbit, so only survivors walk on.
    """

    def chunk(size: int):
        alive = size

        def visit(i, hit):
            nonlocal alive
            alive -= int(np.count_nonzero(hit))
            return ~hit

        return visit, lambda: (alive,)

    (survivors,) = _sweep(ts, seed, label, n_samples, range(ts.n), chunk)
    return EstimateWithCI.from_counts(survivors, n_samples)


def estimate_exceedances(ts: ThresholdSchedule, indices, seed: int,
                         n_samples: int = DEFAULT_SAMPLES,
                         label: str = "exceedance") -> list[EstimateWithCI]:
    """Monte Carlo estimates of the per-step exceedance masses m(X_i > u_i),
    one per index in the order given."""
    idx = [int(i) for i in indices]
    if not idx or min(idx) < 0 or max(idx) >= ts.n:
        raise ValueError("indices must lie in [0, n)")

    def chunk(size: int):
        counts = {}

        def visit(i, hit):
            counts[i] = int(np.count_nonzero(hit))

        return visit, lambda: tuple(counts[i] for i in idx)

    counts = _sweep(ts, seed, label, n_samples, set(idx), chunk)
    return [EstimateWithCI.from_counts(k, n_samples) for k in counts]


# ---------------------------------------------------------------------------
# block structure and the anti-clustering pair sum


@dataclass(frozen=True)
class BlockStructure:
    """Partition of the time indices 0..n-1 into mass-balanced blocks."""

    n: int
    k_n: int
    t_star: int
    bounds: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.bounds, dtype=int)
        if b[0] != 0 or b[-1] != self.n or np.any(np.diff(b) <= 0):
            raise ValueError("block bounds must partition 0..n")


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
    return BlockStructure(n=n, k_n=k_n, t_star=t_star,
                          bounds=np.asarray(bounds, dtype=int))


def dprime_sum(ts: ThresholdSchedule, blocks: BlockStructure, seed: int,
               n_samples: int = DEFAULT_SAMPLES, label: str = "dprime") -> EstimateWithCI:
    """Sum over blocks of the pairwise joint exceedance probabilities.

    The sum equals E[number of same-block exceedance pairs], so one orbit
    sweep per sample suffices: count exceedances within each block and add
    C(count, 2).  Work per sample is O(n + pairs).
    """
    ends = set(int(b) for b in blocks.bounds[1:])

    def chunk(size: int):
        in_block = np.zeros(size, dtype=np.int64)
        pairs = np.zeros(size, dtype=np.int64)

        def visit(i, hit):
            nonlocal in_block, pairs
            in_block += hit
            if (i + 1) in ends:
                pairs += in_block * (in_block - 1) // 2
                in_block[:] = 0

        return visit, lambda: (int(pairs.sum()), int((pairs * pairs).sum()))

    total, total_sq = _sweep(ts, seed, label, n_samples, range(ts.n), chunk)
    return EstimateWithCI.from_moments(float(total), float(total_sq), n_samples)


# ---------------------------------------------------------------------------
# mixing gap


@dataclass(frozen=True)
class MixingGap:
    covariance: float
    se: float
    p_event: float
    p_window: float

    @property
    def gap(self) -> float:
        return abs(self.covariance)


def d0_mixing_gap(ts: ThresholdSchedule, i: int, t: int, ell: int, seed: int,
                  n_samples: int = DEFAULT_SAMPLES, label: str = "d0") -> MixingGap:
    """|P(A_i and no exceedance on [i+t, i+t+ell)) - P(A_i) P(same window)|.

    All four joint outcome counts are integers, so the covariance and its
    influence-function standard error are exact functionals of the counts.
    An empty window (ell = 0) makes the window event certain and the
    covariance identically zero.
    """
    n = ts.n
    if i < 0 or t < 1 or ell < 0 or i + t + ell > n:
        raise ValueError("need 0 <= i, t >= 1, ell >= 0, i + t + ell <= n")

    def chunk(size: int):
        a = None
        w = np.ones(size, dtype=bool)

        def visit(step, hit):
            nonlocal a, w
            if step == i:
                a = hit
            else:
                w &= ~hit

        return visit, lambda: (int(np.count_nonzero(a & w)), int(np.count_nonzero(a)),
                               int(np.count_nonzero(w)))

    n11, na, nw = _sweep(ts, seed, label, n_samples, {i, *range(i + t, i + t + ell)}, chunk)
    N = n_samples
    pa, pw, p11 = na / N, nw / N, n11 / N
    cov = p11 - pa * pw
    # influence function z = 1_aw - pa 1_w - pw 1_a takes one value per outcome cell
    n10, n01 = na - n11, nw - n11
    z11, z10, z01 = 1.0 - pa - pw, -pw, -pa
    ez = (n11 * z11 + n10 * z10 + n01 * z01) / N
    ez2 = (n11 * z11 ** 2 + n10 * z10 ** 2 + n01 * z01 ** 2) / N
    se = math.sqrt(max(0.0, ez2 - ez * ez) / N)
    return MixingGap(covariance=cov, se=se, p_event=pa, p_window=pw)
