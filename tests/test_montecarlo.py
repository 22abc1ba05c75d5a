"""Monte Carlo estimators, blocking and mixing diagnostics; also the
decorrelation pair of `reference`, whose Monte Carlo half walks its own
orbits, and the exponent budgets of `seqevl.config`."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from seqevl import montecarlo
from seqevl._rng import uniforms
from seqevl.config import exponent_ledger
from seqevl.maps import ALPHA_STAR, ParameterSchedule
from seqevl.mesh import graded_mesh
from seqevl.montecarlo import (
    EstimateWithCI,
    build_blocks,
    d0_mixing_gap,
    dprime_sum,
    estimate_Pn,
    estimate_exceedances,
)
from seqevl.thresholds import Observable, build_threshold_schedule
from reference import correlation_DC, lsv_apply, mc_correlation_DC, philox_draw

N_FAST = 20_000
N_CHUNKED = 3 * 16384 + 777  # a short last chunk at CHUNK_SIZE 16,384 and at 1,000


def at_chunk_sizes(monkeypatch, estimate) -> list:
    """estimate() with CHUNK_SIZE at its 16,384, at 1,000 and with all
    N_CHUNKED samples in one chunk."""
    assert montecarlo.CHUNK_SIZE == 16384
    out = []
    for size in (16384, 1000, N_CHUNKED):
        monkeypatch.setattr(montecarlo, "CHUNK_SIZE", size)
        out.append(estimate())
    return out


@pytest.fixture(scope="module")
def ts20(mesh512, const01):
    ts, = build_threshold_schedule(const01, Observable(), 1.0, (20,), mesh512)
    return ts


# --------------------------------------------------------------- estimates

def test_from_counts_normal_branch():
    e = EstimateWithCI.from_counts(500, 1000)
    assert e.value == 0.5
    assert e.se == pytest.approx(math.sqrt(0.25 / 1000))
    assert e.method == "normal"
    assert e.ci_low == pytest.approx(0.5 - 1.959963984540054 * e.se)


def test_from_counts_edge_branches():
    e = EstimateWithCI.from_counts(3, 1000)
    assert e.method == "clopper-pearson"
    assert e.ci_low < 3 / 1000 < e.ci_high
    zero = EstimateWithCI.from_counts(0, 1000)
    assert zero.value == 0.0 and zero.ci_low == 0.0 and zero.ci_high > 0.0
    full = EstimateWithCI.from_counts(1000, 1000)
    assert full.value == 1.0 and full.ci_high == 1.0 and full.ci_low < 1.0


@pytest.mark.parametrize("n", [1, 2, 9, 10, 19, 20, 37, 1000, 400_000])
def test_from_counts_edge_interval_is_beta_ppf(n):
    # the edge branch inverts the regularized incomplete beta directly; it
    # must give exactly the Clopper-Pearson quantiles of scipy.stats.beta
    from scipy import stats

    for k in sorted(set(range(min(10, n + 1))) | set(range(max(0, n - 9), n + 1))):
        e = EstimateWithCI.from_counts(k, n)
        assert e.method == "clopper-pearson"
        lo = 0.0 if k == 0 else float(stats.beta.ppf(0.025, k, n - k + 1))
        hi = 1.0 if k == n else float(stats.beta.ppf(0.975, k + 1, n - k))
        assert (e.ci_low, e.ci_high) == (lo, hi), (k, n)


@pytest.mark.parametrize("k, n", [(0, 0), (5, 3), (-1, 10), (1, -4)])
def test_from_counts_rejects_bad_counts(k, n):
    with pytest.raises(ValueError, match=f"k={k}, n={n}"):
        EstimateWithCI.from_counts(k, n)


def test_from_moments():
    data = np.array([1.0, 2.0, 3.0, 4.0])
    e = EstimateWithCI.from_moments(float(data.sum()), float((data ** 2).sum()), 4)
    assert e.value == 2.5
    assert e.se == pytest.approx(math.sqrt(np.var(data, ddof=1) / 4))


def test_ci_must_bracket_value():
    with pytest.raises(ValueError):
        EstimateWithCI(0.5, 0.1, 10, 0.6, 0.7)


def test_rng_streams_are_label_keyed():
    a = uniforms(42, ("x0", "pn"), 0, 100)
    b = uniforms(42, ("x0", "pn"), 0, 100)
    np.testing.assert_array_equal(a, b)
    c = uniforms(42, ("x0", "other"), 0, 100)
    assert not np.array_equal(a, c)
    d = uniforms(43, ("x0", "pn"), 0, 100)
    assert not np.array_equal(a, d)


# every (n, size) pair but (N_CHUNKED, 3), whose 16,643 three-double cuts
# check nothing that (777, 3) does not: 259 cuts through every offset
# within a Philox block
@pytest.mark.parametrize("n,size", [(n, size) for size in (16384, 1000, 3)
                                    for n in (1, 777, N_CHUNKED) if (n, size) != (N_CHUNKED, 3)])
def test_chunkwise_draws_equal_one_whole_draw(n, size):
    # the sweep draws each chunk's start points as it walks the chunk
    whole = uniforms(5, ("x0", "pn"), 0, n)
    parts = [uniforms(5, ("x0", "pn"), lo, min(size, n - lo)) for lo in range(0, n, size)]
    np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_estimate_pn_single_step_closed_form(mesh512, const01):
    # n = 1: survival probability is exactly 1 - tau under the uniform start
    ts, = build_threshold_schedule(const01, Observable(), 0.5, (1,), mesh512)
    e = estimate_Pn(ts, 5, n_samples=N_FAST)
    assert abs(e.value - 0.5) <= 3.0 * e.se


def test_estimate_pn_chunk_size_invariance(ts20, monkeypatch):
    runs = at_chunk_sizes(monkeypatch,
                          lambda: estimate_Pn(ts20, 11, n_samples=N_CHUNKED))
    assert runs[0] == runs[1] == runs[2]


def test_estimate_pn_sample_size_consistency(ts20):
    a = estimate_Pn(ts20, 13, n_samples=16384)
    b = estimate_Pn(ts20, 14, n_samples=32768)
    assert abs(a.value - b.value) <= 4.0 * (a.se + b.se)


def test_estimate_exceedances_match_calibrated_mass(ts20):
    ests = estimate_exceedances(ts20, [0, 7, 19], 17, n_samples=N_FAST)
    target = ts20.tau / ts20.n
    for e in ests:
        assert abs(e.value - target) <= 3.0 * max(e.se, 1e-4)
    single = estimate_exceedances(ts20, [7], 17, n_samples=N_FAST)[0]
    assert single.value == ests[1].value  # same stream, same counts


@pytest.mark.parametrize("indices", [[3, 3, 7], [7, 3]], ids=["repeated", "unordered"])
def test_estimate_exceedances_one_per_index_in_order(ts20, indices):
    got = estimate_exceedances(ts20, indices, 17, n_samples=N_FAST)
    singles = [estimate_exceedances(ts20, [i], 17, n_samples=N_FAST)[0]
               for i in indices]
    assert got == singles


def test_estimate_pn_zero_tau_is_certain(mesh512, const01):
    ts, = build_threshold_schedule(const01, Observable(), 0.0, (5,), mesh512)
    e = estimate_Pn(ts, 1, n_samples=4096)
    assert e.value == 1.0
    assert e.ci_high == 1.0


def test_zero_tau_sees_no_exceedance(mesh512, const01):
    # every radius is 0, so the open ball is empty at every step
    ts, = build_threshold_schedule(const01, Observable(), 0.0, (10,), mesh512)
    assert [e.value for e in estimate_exceedances(ts, [0, 4, 9], 1,
                                                  n_samples=4096)] == [0.0] * 3
    g = d0_mixing_gap(ts, i=1, t=2, ell=3, seed=1, n_samples=4096)
    assert (g.covariance, g.p_event, g.p_window) == (0.0, 0.0, 1.0)


def test_estimate_exceedances_validation(ts20):
    with pytest.raises(ValueError):
        estimate_exceedances(ts20, [], 1)
    with pytest.raises(ValueError):
        estimate_exceedances(ts20, [-1], 1)
    with pytest.raises(ValueError):
        estimate_exceedances(ts20, [20], 1)


# ----------------------------------------------------------------- blocking

def test_build_blocks_partitions_mass(mesh512, const01):
    ts, = build_threshold_schedule(const01, Observable(), 1.0, (200,), mesh512)
    blocks = build_blocks(ts, k_n=10)
    assert blocks.bounds[0] == 0 and blocks.bounds[-1] == 200
    assert blocks.bounds.size == 11  # 10 blocks
    assert np.all(np.diff(blocks.bounds) >= 1)
    masses = [float(np.sum(ts.step_masses[a:b]))
              for a, b in zip(blocks.bounds[:-1], blocks.bounds[1:])]
    assert sum(masses) == pytest.approx(ts.fstar, abs=1e-12)
    # greedy closing: non-final block masses within one step mass of target
    target, step = ts.fstar / blocks.k_n, float(np.max(ts.step_masses))
    for m in masses[:-1]:
        assert target - 1e-12 <= m <= target + step + 1e-12


def test_build_blocks_defaults_and_validation(mesh512, const01):
    ts, = build_threshold_schedule(const01, Observable(), 1.0, (200,), mesh512)
    blocks = build_blocks(ts)  # beta = 0.9 -> k_n = round(200^0.1) = 2
    assert blocks.k_n == 2
    assert blocks.t_star == max(1, round(200 ** 0.85))
    single = build_blocks(ts, k_n=1)
    assert single.bounds.tolist() == [0, 200]
    with pytest.raises(ValueError):
        build_blocks(ts, k_n=0)
    with pytest.raises(ValueError):
        build_blocks(ts, k_n=201)


def test_dprime_zero_for_singleton_blocks(ts20):
    blocks = build_blocks(ts20, k_n=20)
    assert np.all(np.diff(blocks.bounds) == 1)
    e = dprime_sum(ts20, blocks, 19, n_samples=8192)
    assert e.value == 0.0 and e.se == 0.0


def test_dprime_zero_for_zero_tau(mesh512, const01):
    ts, = build_threshold_schedule(const01, Observable(), 0.0, (10,), mesh512)
    blocks = build_blocks(ts, k_n=2)
    e = dprime_sum(ts, blocks, 23, n_samples=4096)
    assert e.value == 0.0


def test_dprime_chunk_size_invariance(ts20, monkeypatch):
    blocks = build_blocks(ts20, k_n=4)
    runs = at_chunk_sizes(monkeypatch,
                          lambda: dprime_sum(ts20, blocks, 29, n_samples=N_CHUNKED))
    assert runs[0] == runs[1] == runs[2]


# --------------------------------------------------------------- mixing gap

def test_d0_empty_window_gives_zero_covariance(ts20):
    g = d0_mixing_gap(ts20, i=2, t=3, ell=0, seed=31, n_samples=8192)
    assert g.covariance == 0.0
    assert g.gap == 0.0
    assert g.p_window == 1.0


def test_d0_validation(ts20):
    with pytest.raises(ValueError):
        d0_mixing_gap(ts20, i=0, t=0, ell=1, seed=1)
    with pytest.raises(ValueError):
        d0_mixing_gap(ts20, i=-1, t=1, ell=1, seed=1)
    with pytest.raises(ValueError):
        d0_mixing_gap(ts20, i=10, t=5, ell=6, seed=1)


def test_d0_small_for_separated_events(ts20):
    g = d0_mixing_gap(ts20, i=0, t=10, ell=4, seed=37, n_samples=N_FAST)
    # rare event and a distant window decorrelate; gap ~ covariance noise
    assert g.gap <= 5.0 * max(g.se, 1e-5)
    assert 0.0 < g.p_event < 0.2
    assert 0.5 < g.p_window <= 1.0


def test_d0_chunk_size_invariance(ts20, monkeypatch):
    runs = at_chunk_sizes(monkeypatch,
                          lambda: d0_mixing_gap(ts20, i=1, t=4, ell=3, seed=41,
                                                n_samples=N_CHUNKED))
    assert runs[0] == runs[1] == runs[2]


# ------------------------------------------------------------ decorrelation

def test_correlation_constant_observable_vanishes(mesh512, const01):
    val = correlation_DC(const01, lambda x: np.ones_like(x), (0.2, 0.6),
                         i=1, t=2, mesh=mesh512)
    assert abs(val) <= 1e-15


def test_correlation_zero_lag_is_variance(mesh512, const01):
    # t = 0 with phi = psi reduces to a variance, so the value is nonnegative
    val = correlation_DC(const01, (0.2, 0.5), (0.2, 0.5), i=3, t=0, mesh=mesh512)
    assert val >= -1e-14
    assert val == pytest.approx(0.3 * 0.7, abs=0.05)  # near p(1-p) of the start


def test_correlation_operator_vs_monte_carlo(mesh512, const01):
    phi, psi = (0.2, 0.5), (0.55, 0.8)
    op = correlation_DC(const01, phi, psi, i=2, t=3, mesh=mesh512)
    mc = mc_correlation_DC(const01, phi, psi, i=2, t=3, seed=43,
                           n_samples=60_000)
    assert abs(op - mc.value) <= 4.0 * max(mc.se, 1e-5)


def test_correlation_decays_in_t(mesh512, const01):
    phi = (0.2, 0.5)
    vals = [abs(correlation_DC(const01, phi, phi, i=0, t=t, mesh=mesh512))
            for t in (1, 5, 25)]
    assert vals[2] < vals[0]


# ------------------------------------------------- plain reference sweep

N_REF = 2 * 16384 + 777  # two full chunks and a short last one


def _plain_orbits(schedule, steps):
    """Positions 0..steps-1 of all N_REF orbits, stepped whole with lsv_apply."""
    xs = [philox_draw(47, ("x0", "ref"), N_REF)]
    for a in schedule.alphas(steps - 1):
        xs.append(lsv_apply(a, xs[-1]))
    return np.array(xs)


def _plain_hits(ts, steps):
    distance = np.abs(_plain_orbits(ts.schedule, steps) - ts.observable.zeta)
    return distance < ts.deltas[:steps, None]


def _ref_pn(ts):
    got = estimate_Pn(ts, 47, N_REF, label="ref")
    survivors = np.count_nonzero(~_plain_hits(ts, ts.n).any(axis=0))
    return got, EstimateWithCI.from_counts(int(survivors), N_REF)


def _ref_exceedances(ts):
    idx = [0, 7, 19]
    got = estimate_exceedances(ts, idx, 47, N_REF, label="ref")
    hits = _plain_hits(ts, ts.n)
    return got, [EstimateWithCI.from_counts(int(np.count_nonzero(hits[i])), N_REF)
                 for i in idx]


def _ref_dprime(ts):
    blocks = build_blocks(ts, k_n=4)
    got = dprime_sum(ts, blocks, 47, N_REF, label="ref")
    hits = _plain_hits(ts, ts.n).astype(np.int64)
    pairs = sum(c * (c - 1) // 2 for c in (hits[a:b].sum(axis=0) for a, b in
                                           zip(blocks.bounds[:-1], blocks.bounds[1:])))
    return got, EstimateWithCI.from_moments(float(pairs.sum()),
                                            float((pairs * pairs).sum()), N_REF)


def _ref_d0(ts):
    g = d0_mixing_gap(ts, i=1, t=4, ell=3, seed=47, n_samples=N_REF, label="ref")
    hits = _plain_hits(ts, 8)
    event, window = hits[1], ~hits[5:8].any(axis=0)
    pa = np.count_nonzero(event) / N_REF
    pw = np.count_nonzero(window) / N_REF
    cov = np.count_nonzero(event & window) / N_REF - pa * pw
    return (g.p_event, g.p_window, g.covariance), (pa, pw, cov)


def _ref_dc(ts):
    e = mc_correlation_DC(ts.schedule, (0.2, 0.5), (0.55, 0.8), i=2, t=3,
                          seed=47, n_samples=N_REF, label="ref")
    xs = _plain_orbits(ts.schedule, 6)
    u = (xs[2] > 0.2) & (xs[2] < 0.5)
    v = (xs[5] > 0.55) & (xs[5] < 0.8)
    mu_u, mu_v = np.count_nonzero(u) / N_REF, np.count_nonzero(v) / N_REF
    return e.value, np.count_nonzero(u & v) / N_REF - mu_u * mu_v


@pytest.mark.parametrize("case", [_ref_pn, _ref_exceedances, _ref_dprime, _ref_d0, _ref_dc],
                         ids=["pn", "exceedances", "dprime", "d0", "dc"])
def test_estimators_match_plain_reference_sweep(ts20, case):
    # the chunked, compacting sweep must count exactly what a plain walk counts
    got, want = case(ts20)
    assert got == want


# ROADMAP item 22's fourth relation: a larger tau widens every step's ball,
# so on one label an orbit that survives tau survives every smaller tau
PLAIN_SCHEDULES = {"periodic": ParameterSchedule(cycle=(0.05, 0.12)),
                   "iid": ParameterSchedule(mode="iid", seed=5)}


@pytest.fixture(scope="module")
def plain_orbits():
    return {mode: _plain_orbits(schedule, 20) for mode, schedule in PLAIN_SCHEDULES.items()}


@given(mode=st.sampled_from(sorted(PLAIN_SCHEDULES)), tau=st.floats(0.05, 2.0),
       ratio=st.floats(1.001, 2.0))
@settings(max_examples=15, deadline=None)
def test_survival_is_nested_in_tau_per_orbit(plain_orbits, mesh512, mode, tau, ratio):
    small, large = (build_threshold_schedule(PLAIN_SCHEDULES[mode], Observable(), t, (20,),
                                             mesh512)[0] for t in (tau, tau * ratio))
    assert np.all(small.deltas < large.deltas)
    distance = np.abs(plain_orbits[mode] - small.observable.zeta)
    hit_small, hit_large = (distance < ts.deltas[:, None] for ts in (small, large))
    assert not np.any(hit_small & ~hit_large)
    survive_small, survive_large = ~hit_small.any(axis=0), ~hit_large.any(axis=0)
    assert not np.any(survive_large & ~survive_small)
    assert 0 < np.count_nonzero(survive_large) <= np.count_nonzero(survive_small) < N_REF


def _traced_peak(run) -> int:
    """Bytes that run() allocates at its peak above what was live before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        run()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("run", [
    lambda ts, n: estimate_Pn(ts, 3, n_samples=n),
    lambda ts, n: dprime_sum(ts, build_blocks(ts, k_n=4), 3, n_samples=n),
], ids=["pn", "dprime"])
def test_sweep_peak_memory_does_not_grow_with_n_samples(ts20, run):
    # one chunk of start points is live at a time; a whole draw of all
    # samples would add 8 bytes per sample, 3.75 MiB over 30 more chunks
    assert montecarlo.CHUNK_SIZE == 16384
    run(ts20, 2 * 16384)  # warm any lazily built schedule state
    small = _traced_peak(lambda: run(ts20, 2 * 16384))
    large = _traced_peak(lambda: run(ts20, 32 * 16384))
    assert large - small <= 64 * 1024, (small, large)


@pytest.mark.parametrize("run", [
    lambda ts, n: estimate_Pn(ts, 1, n_samples=n),
    lambda ts, n: estimate_exceedances(ts, [0, 3], 1, n_samples=n),
    lambda ts, n: dprime_sum(ts, build_blocks(ts, k_n=2), 1, n_samples=n),
    lambda ts, n: d0_mixing_gap(ts, i=0, t=2, ell=2, seed=1, n_samples=n),
    lambda ts, n: mc_correlation_DC(ts.schedule, (0.2, 0.5), (0.55, 0.8), i=1, t=2,
                                    seed=1, n_samples=n),
], ids=["pn", "exceedances", "dprime", "d0", "dc"])
@pytest.mark.parametrize("n", [0, -5])
def test_estimators_reject_nonpositive_sample_counts(ts20, run, n):
    with pytest.raises(ValueError, match=f"n_samples must be positive, got {n}"):
        run(ts20, n)


# ----------------------------------------------------------- exponent budget

def test_exponent_ledger_defaults_all_pass():
    checks = exponent_ledger(alpha_star=0.1)
    assert [c.name for c in checks] == [
        "mixing-gap-budget", "pair-sum-budget",
        "recurrence-budget", "block-gap-ordering"]
    assert all(c.satisfied for c in checks)
    by_name = {c.name: c for c in checks}
    # hand-checked arithmetic at beta=0.9, kappa=0.85, xi=0.05, eta=1.8
    assert by_name["mixing-gap-budget"].lhs == pytest.approx(-2.05, abs=1e-12)
    assert by_name["pair-sum-budget"].rhs == pytest.approx(0.85 / 6.45, rel=1e-12)
    assert by_name["recurrence-budget"].rhs == pytest.approx(0.7925, abs=1e-12)
    assert by_name["block-gap-ordering"].lhs == pytest.approx(0.8925, abs=1e-12)


def test_exponent_ledger_at_cap_flags_two_budgets():
    checks = {c.name: c for c in exponent_ledger(alpha_star=1.0 / 7.0)}
    assert not checks["mixing-gap-budget"].satisfied
    assert checks["mixing-gap-budget"].lhs == pytest.approx(0.5, abs=1e-12)
    assert not checks["pair-sum-budget"].satisfied
    assert checks["recurrence-budget"].satisfied
    assert checks["block-gap-ordering"].satisfied


def test_feasible_region_caps_at_one_seventh():
    assert ALPHA_STAR == pytest.approx(1.0 / 7.0, rel=1e-15)
    # kappa, beta -> 1 pushes the pair-sum ceiling to 1/7 from below
    rhs = [c for c in exponent_ledger(0.14, beta=1.0 - 1e-9, kappa=1.0 - 1e-9)
           if c.name == "pair-sum-budget"][0].rhs
    assert rhs == pytest.approx(1.0 / 7.0, rel=1e-6)
