"""Acceptance suite: one test per headline claim, desk-scale sizes.

Each test pins its tolerances up front and measures against them; nothing
here is tuned to pass.  Expected runtime is a couple of minutes.
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from seqevl import montecarlo
from seqevl.config import ScheduleSpec, ExponentSpec, default_config, validate_config
from seqevl.experiments import run_experiment
from seqevl.maps import ParameterSchedule
from seqevl.mesh import Density, graded_mesh, project, uniform_density
from seqevl.montecarlo import (
    build_blocks,
    d0_mixing_gap,
    dprime_sum,
    estimate_Pn,
    estimate_exceedances,
)
from seqevl.recurrence import loglog_slope, measure_En_eps
from seqevl.thresholds import Observable, build_threshold_schedule
from seqevl.transfer import (
    cone_step_surrogate,
    loss_of_memory_distance,
    pf_apply,
    push_density,
)
from reference import (
    ConeParams,
    bump_chi,
    cone_check,
    density_bounds_check,
    duality_residual,
    l1_distance,
    pointwise_push,
    refined,
    schedule_window,
    ulam_matrix,
)

SEED = 1729
N_SAMPLES = 100_000
LADDER = (250, 500, 1000, 2000)
OBS = Observable()  # zeta defaults to 1/sqrt(2)


@pytest.fixture(scope="module")
def ts500(mesh1024, const01):
    return build_threshold_schedule(const01, OBS, 1.0, (500,), mesh1024)[0]


@pytest.fixture(scope="module")
def ts1000(mesh1024, const01):
    return build_threshold_schedule(const01, OBS, 1.0, (1000,), mesh1024)[0]


def test_criterion_01_survival_probability_reaches_exponential_limit(mesh1024):
    """Calibrated no-exceedance probability lands within 0.05 of exp(-tau)
    at n = 2000 under an iid exponent schedule, with nonincreasing error
    along the horizon ladder (up to two combined standard errors)."""
    schedule = ParameterSchedule(mode="iid", lo=0.01, hi=0.14, seed=7)
    for tau in (0.5, 1.0, 2.0):
        target = np.exp(-tau)
        errors = []
        rungs = build_threshold_schedule(schedule, OBS, tau, LADDER, mesh1024)
        for n, ts in zip(LADDER, rungs):
            est = estimate_Pn(ts, SEED, N_SAMPLES, label=f"acc1-{tau}-{n}")
            errors.append((n, abs(est.value - target), est.se))
        final_err = errors[-1][1]
        assert final_err <= 0.05, f"tau={tau}: final error {final_err:.4f}"
        for (n0, e0, s0), (n1, e1, s1) in zip(errors, errors[1:]):
            slack = 2.0 * (s0 + s1)
            assert e1 <= e0 + slack, (
                f"tau={tau}: error rose {e0:.4f} -> {e1:.4f} from n={n0} to "
                f"n={n1}, beyond slack {slack:.4f}")


def test_criterion_02_per_step_exceedance_mass_matches_calibration(ts500):
    """Twenty sampled per-step exceedance probabilities agree with tau/n to
    Monte Carlo resolution, and the step-zero radius equals tau/(2n)."""
    n, tau = ts500.n, ts500.tau
    assert abs(ts500.deltas[0] - tau / (2.0 * n)) <= 1e-12
    picks = np.unique(np.linspace(0, n - 1, 20).round().astype(int))
    assert picks.size == 20
    ests = estimate_exceedances(ts500, picks, SEED, N_SAMPLES)
    target = tau / n
    for i, est in zip(picks, ests):
        ok = (abs(est.value - target) <= 3.0 * est.se
              or est.ci_low <= target <= est.ci_high)
        assert ok, (f"step {i}: estimate {est.value:.5f} (se {est.se:.2g}) "
                    f"misses target {target:.5f}")


def test_criterion_03_calibrated_radii_stay_inside_envelope_window(ts500, mesh1024):
    """Every calibrated radius lies in the window implied by the density
    envelope: tau/(2 C' n) below, tau/(2 c n) above, with aperture a = 20.

    The cone window is wide (at n = 500 the radii sit about 20x inside
    either end), so each radius is also held to the bounds of the density
    it was calibrated on: the ball's mass tau/n lies between 2 delta_i min f_i
    and 2 delta_i max f_i over the cells that meet the ball, so
    tau/(2 n max f_i) <= delta_i <= tau/(2 n min f_i).  Where the ball lies
    inside one cell the two bounds coincide, and a radius off by 0.1% fails."""
    lo, hi, ok = schedule_window(ts500)
    assert lo < hi
    assert bool(np.all(ok)), f"{int(np.sum(~ok))} of {ts500.n} radii left the window"

    n, tau, zeta = ts500.n, ts500.tau, ts500.observable.zeta
    ladder = push_density(ts500.schedule.alphas(n - 1), uniform_density(mesh1024))
    b = mesh1024.boundaries
    outside = []
    for i, (f, delta) in enumerate(zip(ladder, ts500.deltas)):
        # cells j whose interior meets the ball: b_j < zeta + delta and b_{j+1} > zeta - delta
        first = np.searchsorted(b, zeta - delta, side="right") - 1
        last = np.searchsorted(b, zeta + delta, side="left") - 1
        near = f.values[first:last + 1]
        lower, upper = tau / (2.0 * n * near.max()), tau / (2.0 * n * near.min())
        if not lower * (1.0 - 1e-9) <= delta <= upper * (1.0 + 1e-9):
            outside.append((i, float(delta), float(lower), float(upper)))
    assert not outside, (f"{len(outside)} of {n} radii break the density bounds; "
                         f"first (step, delta, lower, upper): {outside[0]}")


def test_criterion_04_pair_sum_decreases_along_horizon_ladder(mesh1024, const01):
    """Within-block exceedance pair sums fall along the horizon ladder at
    tau = 1; no rung may rise by more than two combined standard errors.

    Condition D' asks that the pair sum over k_n mass-balanced blocks
    vanish as n grows.  Its independent-pairs value is tau^2/(2 k_n), so the
    sum can only fall while k_n grows.  The block exponents beta = 0.75,
    kappa = 0.7 give k_n = round(n^0.25) = 4, 5, 6, 7 on the ladder, and
    they lie inside the budget region at alpha* = 0.1: all four
    exponent_ledger budgets hold and validate_config reports nothing.
    Measured pair sums: 0.0979 / 0.0836 / 0.0760 / 0.0691.  The smallest
    fall is 0.0069, while the slack would let a rung rise by up to 0.0043.

    The config default beta = 0.9 does not test the claim on this ladder:
    k_n = round(n^0.1) is 2 for every 58 <= n <= 9536.  Inside one block
    count plateau the sum rises.  The blocks cover the whole horizon, and
    pairs closer than the ball's shortest return time around zeta add
    nothing, so the sum sits about 6-8/n below its independent-pairs value
    sum over blocks of [(sum m)^2 - sum m^2]/2 and climbs toward 0.25:
    measured 0.2216 / 0.2335 / 0.2431 / 0.2510 against 0.2480 / 0.2490 /
    0.2495 / 0.2498 (at n = 2000 the expected gap is below one standard
    error, 0.0023).  The k_n guard keeps the ladder off such a plateau.
    """
    ladder = [(n, ts, build_blocks(ts, beta=0.75, kappa=0.7)) for n, ts in
              zip(LADDER, build_threshold_schedule(const01, OBS, 1.0, LADDER, mesh1024))]
    k_ns = [blocks.k_n for _, _, blocks in ladder]
    assert all(k0 < k1 for k0, k1 in zip(k_ns, k_ns[1:])), (
        f"block count k_n = {k_ns} does not grow along n = {LADDER}; "
        f"inside a plateau the pair sum rises")
    results = [(n, blocks.k_n,
                dprime_sum(ts, blocks, SEED, N_SAMPLES, label=f"acc4-{n}"))
               for n, ts, blocks in ladder]
    for (n0, k0, e0), (n1, k1, e1) in zip(results, results[1:]):
        slack = 2.0 * (e0.se + e1.se)
        assert e1.value <= e0.value + slack, (
            f"pair sum rose {e0.value:.5f} -> {e1.value:.5f} from n={n0} "
            f"(k_n={k0}) to n={n1} (k_n={k1}), beyond slack {slack:.5f}")


def test_criterion_05_mixing_gap_shrinks_with_separation(ts1000):
    """The exceedance/clear-window covariance at separation n^0.8 stays at
    or below the one at n^0.4, within three combined standard errors."""
    n = ts1000.n
    ell = round(n ** 0.5)
    short = d0_mixing_gap(ts1000, i=0, t=round(n ** 0.4), ell=ell, seed=SEED,
                          n_samples=N_SAMPLES, label="acc5-short")
    long = d0_mixing_gap(ts1000, i=0, t=round(n ** 0.8), ell=ell, seed=SEED,
                         n_samples=N_SAMPLES, label="acc5-long")
    slack = 3.0 * (short.se + long.se)
    assert long.gap <= short.gap + slack, (
        f"gap grew with separation: {short.gap:.2e} -> {long.gap:.2e}, "
        f"slack {slack:.2e}")


def test_criterion_06_loss_of_memory_rate(mesh1024, const01):
    """Distances between pushed equal-mass cone inputs never increase, and
    the slope of log d_n - (1/alpha) log log n against log n clears
    -(1/alpha - 1) + 0.5 = -8.5 on the 64..4096 ladder."""
    f = uniform_density(mesh1024)
    g = cone_step_surrogate(mesh1024, 0.1)
    result = loss_of_memory_distance(const01, f, g, (64, 128, 256, 512, 1024,
                                                     2048, 4096))
    diffs = np.diff(result.log_distances)
    assert bool(np.all(diffs < 0.0)), "distance failed to decrease strictly"
    slope = result.corrected_slope(0.1)
    assert slope <= -8.5, f"corrected slope {slope:.2f} above -8.5"


def test_criterion_07_operator_correctness(mesh1024, const01):
    """Duality residual at most 1e-6 on ten mixed cases; per-step mass
    drift at most 1e-10 over 500 pushes; projection gap between the exact
    callable push and the Ulam push roughly halves per mesh doubling."""
    rng = np.random.default_rng(12345)
    fpc1 = Density(mesh1024, rng.random(1024) + 0.2)
    fpc2 = Density(mesh1024, rng.random(1024) + 0.05)
    fsmooth = lambda x: 1.0 + 0.3 * np.sin(2.0 * np.pi * x)
    fpoly = project(lambda x: 1.0 + x * x, mesh1024)
    fsurr = cone_step_surrogate(mesh1024, 0.1)
    fpushed = push_density(const01.alphas(50), uniform_density(mesh1024))[-1]
    chi = bump_chi(0.3, 0.6, 0.05)
    cases = [
        (0.1, uniform_density(mesh1024), np.sin, ()),
        (0.1, fpc1, lambda x: np.cos(np.pi * x), ()),
        (0.1, fpc2, lambda x: ((x >= 0.3) & (x <= 0.7)).astype(float), (0.3, 0.7)),
        (0.1, fsmooth, lambda x: x * x, ()),
        (0.1, fsmooth, lambda x: ((x >= 0.2) & (x <= 0.9)).astype(float), (0.2, 0.9)),
        (0.1, fsurr, np.exp, ()),
        (1.0 / 7.0, uniform_density(mesh1024), lambda x: np.sin(3.0 * x), ()),
        (0.05, fpc1, chi, (0.25, 0.3, 0.6, 0.65)),
        (0.12, fpoly, lambda x: np.abs(x - 0.5), (0.5,)),
        (0.1, fpushed, np.log1p, ()),
    ]
    for k, (alpha, f, g, bp) in enumerate(cases):
        mesh = None if isinstance(f, Density) else mesh1024
        res = duality_residual(alpha, f, g, mesh=mesh, g_breakpoints=bp)
        assert res <= 1e-6, f"case {k}: duality residual {res:.2e}"

    f = uniform_density(mesh1024)
    for a in const01.alphas(500):
        f = pf_apply(a, f)
        assert abs(f.mass - 1.0) <= 1e-10

    fn = lambda x: 1.0 + 0.5 * np.cos(2.0 * np.pi * x)
    gaps = []
    m = graded_mesh(256)
    for _ in range(3):
        via_callable = pointwise_push(0.1, fn, m)
        via_ulam = ulam_matrix(0.1, m).push(project(fn, m))
        gaps.append(l1_distance(via_callable, via_ulam))
        m = refined(m)
    ratios = [b / a for a, b in zip(gaps, gaps[1:])]
    for r in ratios:
        assert 0.35 <= r <= 0.65, f"refinement ratios {ratios} not near 1/2"


def test_criterion_08_density_envelope_and_cone_preserved(mesh1024, const01):
    """Pushing the uniform density up to 200 steps keeps it inside the cone
    and inside the bounds c <= density <= a x^(-alpha) at every step."""
    params = ConeParams(alpha=0.1, a=20.0)
    f = uniform_density(mesh1024)
    for step in range(1, 201):
        f = pf_apply(0.1, f)
        flags = cone_check(f, params)
        assert flags.member, f"cone violated at step {step}: {flags}"
        bounds = density_bounds_check(f, params)
        assert bounds.ok, (f"envelope violated at step {step}: "
                           f"lower {bounds.lower_margin:.3g}, "
                           f"upper {bounds.upper_margin:.3g}")


def test_criterion_09_return_set_measures_scale_correctly(const01):
    """The one-step return set measure matches its closed form (right
    branch contributes eps exactly, left branch (eps 2^-alpha)^(1/(1+alpha)))
    and the fitted eps-slope stays above 1/(1 + alpha_cap) - 0.15 = 0.725
    for 1, 5, and 20 steps."""
    eps = 2.0 ** -8
    closed_form = eps + (eps * 2.0 ** -0.1) ** (1.0 / 1.1)
    measured = measure_En_eps(const01, 1, eps)
    assert abs(measured - closed_form) <= 1e-8
    eps_ladder = [2.0 ** -k for k in range(4, 15)]
    for n in (1, 5, 20):
        measures = [measure_En_eps(const01, n, e) for e in eps_ladder]
        slope = loglog_slope(eps_ladder, measures)
        assert slope >= 0.725, f"n={n}: eps-slope {slope:.3f} below 0.725"


def test_criterion_10_exponent_feasibility_region():
    """No configuration with schedule exponents at or below 1/7 is rejected
    (budget violations only warn, even in the kappa, beta -> 1 limit);
    each of the two binding inequalities triggers its own warning; and a
    schedule exponent above the cap is a hard error.  The budgets are
    reported for dprime, the kind that reads the blocking exponents."""
    near_one = ExponentSpec(beta=0.9999, kappa=0.999)
    for alpha in (0.02, 0.06, 0.10, 0.13, 1.0 / 7.0):
        cfg = default_config(
            "dprime", schedule=ScheduleSpec(cycle=(alpha,)),
            exponents=near_one)
        severities = {d.severity for d in validate_config(cfg)}
        assert "error" not in severities, f"alpha={alpha} was rejected"

    pair_sum_violated = default_config(
        "dprime", exponents=ExponentSpec(beta=0.9, kappa=0.2))
    codes = {d.code for d in validate_config(pair_sum_violated)}
    assert "budget-pair-sum-budget" in codes

    recurrence_violated = default_config(
        "dprime", exponents=ExponentSpec(beta=0.6, kappa=0.45))
    codes = {d.code for d in validate_config(recurrence_violated)}
    assert "budget-recurrence-budget" in codes

    above_cap = default_config(
        "evl", schedule=ScheduleSpec(cycle=(0.2,)))
    diags = validate_config(above_cap)
    assert any(d.severity == "error" and d.code == "bad-schedule" and "alpha_star" in d.message
               for d in diags)


def test_criterion_11_outputs_byte_identical_across_chunk_sizes(tmp_path, monkeypatch):
    """For a fixed seed, the persisted data tables are byte-identical when
    the Monte Carlo sweep cuts the samples into chunks of 16,384, of 1,000,
    or into one chunk."""
    n_samples = 49_163  # a short last chunk at both chunk sizes
    assert montecarlo.CHUNK_SIZE == 16384
    for kind, extra in (("calibrate", dict(n=50)),
                        ("evl", dict(n_ladder=(50, 100)))):
        cfg = default_config(kind, tau=1.0, n_samples=n_samples, seed=SEED, **extra)
        runs = {}
        for size in (16384, 1000, n_samples):
            monkeypatch.setattr(montecarlo, "CHUNK_SIZE", size)
            report = run_experiment(replace(cfg, out_dir=str(tmp_path / f"chunk-{size}")))
            out = Path(report.out_dir)
            tables = {f.name: f.read_bytes() for f in sorted(out.glob("*.csv"))}
            assert tables, f"{kind}: no tables written"
            summary = json.loads((out / "summary.json").read_text())
            runs[size] = (tables, [c["measured"] for c in summary["checks"]])
        for size in (1000, n_samples):
            assert runs[size] == runs[16384], (
                f"{kind}: outputs differ between chunks of 16384 and {size}")
