"""Named experiment pipelines: configuration in, persisted artifacts out.

Each experiment builds its density ladder and thresholds, runs the relevant
estimator, writes CSV tables plus a JSON summary under a content-addressed
directory, and returns a report whose checks carry descriptive claim
strings, measured values, targets, tolerances and sides, from which each
check's verdict follows by the one rule of `TargetCheck`.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import KINDS, ConfigError, ExperimentConfig, validate_config
from .io import write_csv, write_json, write_text
from .maps import ALPHA_STAR, sequential_orbit
from .mesh import graded_mesh, uniform_density
from .montecarlo import (build_blocks, d0_mixing_gap, dprime_sum, estimate_exceedances,
                         estimate_Pn)
from .recurrence import (horizon, local_recurrence_at, local_recurrence_bound, loglog_slope,
                         measure_En_eps, measure_Ej, varsigma)
from .thresholds import build_threshold_schedule
from .transfer import cone_step_surrogate, loss_of_memory_distance

@dataclass(frozen=True)
class TargetCheck:
    """Passes by the triple it prints and its side: "both" when |measured -
    target| <= tolerance, "below" when measured <= target + tolerance, "above"
    when measured >= target - tolerance, and never for a NaN measured value.
    An INFO check is reported, not checked, and keeps passed=True."""

    name: str
    claim: str
    measured: float
    target: float
    tolerance: float
    side: str = "both"
    info: bool = False
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.side == "both":
            within = abs(self.measured - self.target) <= self.tolerance
        elif self.side == "below":
            within = self.measured <= self.target + self.tolerance
        elif self.side == "above":
            within = self.measured >= self.target - self.tolerance
        else:
            raise ValueError(f"unknown check side {self.side!r}")
        object.__setattr__(self, "passed", self.info or bool(within))


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    experiment_id: str
    passed: bool
    checks: tuple
    diagnostics: tuple  # validate_config's warnings and ledger lines
    metrics: dict
    out_dir: str

    def summary_payload(self) -> dict:
        return {
            "kind": self.kind,
            "experiment_id": self.experiment_id,
            "passed": self.passed,
            "checks": [vars(c) for c in self.checks],
            "diagnostics": [vars(d) for d in self.diagnostics],
            "metrics": self.metrics,
        }


def experiment_id(config: ExperimentConfig) -> str:
    """<kind>-<hash> of the text the run writes as config.toml: the kind and
    the keys its runner reads, so no other key changes the id."""
    digest = hashlib.sha256(config.to_toml(read_only=True).encode()).hexdigest()
    return f"{config.kind}-{digest[:12]}"


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    diagnostics = validate_config(config)  # the errors, or else the warnings and ledger lines
    if any(d.severity == "error" for d in diagnostics):
        raise ConfigError("; ".join(f"{d.code}: {d.message}" for d in diagnostics))

    exp_id = experiment_id(config)
    # the writers make the directory, so a runner that raises leaves none
    out_dir = Path(config.out_dir) / exp_id

    mc = _MonteCarlo(config)
    started = time.perf_counter()
    checks, tables = _RUNNERS[config.kind](config, mc)
    elapsed = time.perf_counter() - started

    for name, (header, rows) in tables.items():
        write_csv(out_dir / f"{name}.csv", header, rows)
    write_text(out_dir / "config.toml", config.to_toml(read_only=True))

    report = ExperimentReport(
        kind=config.kind,
        experiment_id=exp_id,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        diagnostics=tuple(diagnostics),
        metrics={"elapsed_seconds": elapsed,
                 "montecarlo_seconds": mc.seconds,
                 "samples": mc.samples,
                 "samples_per_second": mc.samples / mc.seconds if mc.seconds > 0 else 0.0},
        out_dir=str(out_dir),
    )
    write_json(out_dir / "summary.json", report.summary_payload())
    return report


class _MonteCarlo:
    """A run's Monte Carlo stage: calls an estimator with the run's seed and
    sample count, and tallies the samples drawn and the seconds spent.
    It reads the seed and sample count at each call, so a kind that never
    samples reads neither."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.samples = 0
        self.seconds = 0.0

    def __call__(self, estimator, *args, **kwargs):
        started = time.perf_counter()
        n_samples = self.config.n_samples
        result = estimator(*args, seed=self.config.seed, n_samples=n_samples, **kwargs)
        self.seconds += time.perf_counter() - started
        self.samples += n_samples
        return result


def _thresholds(config: ExperimentConfig, ns) -> list:
    """Threshold schedules for the horizons ns, all from one streamed push."""
    return build_threshold_schedule(config.schedule.build(), config.observable.build(),
                                    config.tau, ns, graded_mesh())


def _trend_checks(prefix: str, claim: str, rungs, plateaus=None) -> list:
    """A "below" check on each neighbouring pair of (n, value, se) rungs, with
    slack 2 (se0 + se1); a pair whose plateaus entry is true is INFO."""
    pairs = list(zip(rungs, rungs[1:]))
    return [TargetCheck(name=f"{prefix}-{n0}-{n1}", claim=claim, measured=v1 - v0,
                        target=0.0, tolerance=2.0 * (s0 + s1), side="below", info=plateau)
            for ((n0, v0, s0), (n1, v1, s1)), plateau
            in zip(pairs, plateaus or [False] * len(pairs))]


def _run_evl(config: ExperimentConfig, mc: _MonteCarlo):
    target = math.exp(-config.tau)
    rows = []
    checks = []
    errors = []
    for ts in _thresholds(config, KINDS[config.kind].ns(config)):
        n = ts.n
        est = mc(estimate_Pn, ts, label=f"pn-{n}")
        err = abs(est.value - target)
        errors.append((n, err, est.se))
        rows.append((n, config.tau, est.value, est.se, target, err,
                     est.ci_low, est.ci_high))
        checks.append(TargetCheck(
            name=f"evl-n{n}",
            claim="survival probability of calibrated exceedances approaches exp(-tau)",
            measured=est.value, target=target, tolerance=0.05 + 2.0 * est.se))
    checks += _trend_checks(
        "evl-error-trend", "absolute error is nonincreasing along the horizon ladder",
        errors)
    tables = {"evl": (("n", "tau", "estimate", "se", "target", "abs_error",
                       "ci_low", "ci_high"), rows)}
    return checks, tables


def _run_calibrate(config: ExperimentConfig, mc: _MonteCarlo):
    n = KINDS[config.kind].ns(config)[-1]
    ts, = _thresholds(config, (n,))
    checks = [TargetCheck(
        name="first-radius",
        claim="step-zero radius holds mass tau/n of the uniform start",
        measured=ts.deltas[0], target=ts.observable.uniform_radius(config.tau / n),
        tolerance=1e-12)]
    count = min(20, n)
    picks = sorted({int(i) for i in np.linspace(0, n - 1, count).round()})
    estimates = mc(estimate_exceedances, ts, picks)
    rows = []
    target = config.tau / n
    for i, est in zip(picks, estimates):
        # within 3 se, or inside the interval on the target's side
        reach = est.ci_high - est.value if target >= est.value else est.value - est.ci_low
        check = TargetCheck(
            name=f"exceedance-i{int(i)}",
            claim="per-step exceedance mass matches the tau/n calibration target",
            measured=est.value, target=target, tolerance=max(3.0 * est.se, reach))
        checks.append(check)
        rows.append((int(i), ts.deltas[i], ts.levels[i], ts.step_masses[i],
                     est.value, est.se, target, int(check.passed)))
    tables = {
        "thresholds": (("i", "delta", "level", "step_mass"), list(ts.rows())),
        "calibration": (("i", "delta", "level", "step_mass", "mc_estimate",
                         "se", "target", "pass"), rows),
    }
    return checks, tables


def _run_dprime(config: ExperimentConfig, mc: _MonteCarlo):
    rows = []
    results = []
    for ts in _thresholds(config, KINDS[config.kind].ns(config)):
        n = ts.n
        blocks = build_blocks(ts, beta=config.exponents.beta,
                              kappa=config.exponents.kappa)
        est = mc(dprime_sum, ts, blocks, label=f"dprime-{n}")
        results.append((n, blocks.k_n, est))
        rows.append((n, blocks.k_n, blocks.t_star, est.value, est.se,
                     est.ci_low, est.ci_high))
    # inside a k_n plateau the blocks grow with n, so the pair sum may rise
    # on a correct program: reported, not checked
    checks = _trend_checks(
        "dprime-trend", "within-block exceedance pair sum decreases along the horizon ladder",
        [(n, est.value, est.se) for n, _, est in results],
        [k0 == k1 for (_, k0, _), (_, k1, _) in zip(results, results[1:])])
    if len(results) == 1:
        n0, _, e0 = results[0]
        checks.append(TargetCheck(
            name=f"dprime-n{n0}",
            claim="within-block exceedance pair sum stays small",
            measured=e0.value, target=0.0, tolerance=config.tau, side="below"))
    tables = {"dprime": (("n", "k_n", "t_star", "pair_sum", "se",
                          "ci_low", "ci_high"), rows)}
    return checks, tables


def _run_d0(config: ExperimentConfig, mc: _MonteCarlo):
    n = KINDS[config.kind].ns(config)[-1]
    ts, = _thresholds(config, (n,))
    ell = max(1, round(n ** 0.5))
    i = 0
    rows = []
    gaps = []
    for tag, expo in (("short", 0.4), ("long", 0.8)):
        t = max(1, round(n ** expo))
        t = min(t, n - i - ell)
        gap = mc(d0_mixing_gap, ts, i, t, ell, label=f"d0-{tag}")
        gaps.append((t, gap))
        rows.append((n, i, t, ell, gap.gap, gap.se, gap.p_event, gap.p_window))
    (t_lo, g_lo), (t_hi, g_hi) = gaps
    checks = [TargetCheck(
        name=f"d0-monotone-t{t_lo}-t{t_hi}",
        claim="mixing gap at the long separation stays below the short-separation gap",
        measured=g_hi.gap - g_lo.gap, target=0.0, tolerance=3.0 * (g_lo.se + g_hi.se),
        side="below")]
    tables = {"d0": (("n", "i", "t", "ell", "gap", "se", "p_event",
                      "p_window"), rows)}
    return checks, tables


def _run_decay(config: ExperimentConfig, mc: _MonteCarlo):
    schedule = config.schedule.build()
    mesh = graded_mesh()
    ladder = KINDS[config.kind].ns(config)
    alpha = schedule.sup_alpha()
    f = uniform_density(mesh)
    g = cone_step_surrogate(mesh, alpha)
    result = loss_of_memory_distance(schedule, f, g, ladder)
    slope = result.corrected_slope(alpha)
    target = -(1.0 / alpha - 1.0) + 0.5
    rows = [(int(n), float(d), float(ld))
            for n, d, ld in zip(result.ns, result.distances, result.log_distances)]
    checks = [
        TargetCheck(
            name="decay-monotone",
            claim="distance between pushed equal-mass inputs never increases",
            measured=float(np.max(np.diff(result.log_distances))), target=0.0,
            tolerance=0.0, side="below"),
        TargetCheck(
            name="decay-slope",
            claim="log-log decay slope meets the polynomial forgetting rate",
            measured=slope, target=target, tolerance=0.0, side="below"),
    ]
    tables = {"decay": (("n", "l1_distance", "log_distance"), rows)}
    return checks, tables


# the recurrence run's fixed ladders: return-set radii, union and local j (its
# return-set steps are its row's horizons)
EN_EPS_LADDER = tuple(2.0 ** -k for k in range(4, 15))
EJ_LADDER = tuple(2 ** k for k in range(5, 13))
LOCAL_JS = (8, 16, 32)


def _run_recurrence(config: ExperimentConfig, mc: _MonteCarlo):
    schedule = config.schedule.build()
    slope_floor = 1.0 / (1.0 + ALPHA_STAR) - 0.15

    en_rows = []
    checks = []
    for n in KINDS[config.kind].ns(config):
        measures = [measure_En_eps(schedule, n, eps) for eps in EN_EPS_LADDER]
        for eps, m in zip(EN_EPS_LADDER, measures):
            en_rows.append((n, eps, m))
        slope = loglog_slope(EN_EPS_LADDER, measures)
        checks.append(TargetCheck(
            name=f"return-slope-n{n}",
            claim="return-set measure shrinks at least at the predicted power of eps",
            measured=slope, target=slope_floor, tolerance=0.0, side="above"))

    ej_rows = []
    ej_measures = []
    for j in EJ_LADDER:
        m = measure_Ej(schedule, j)
        ej_measures.append(m)
        ej_rows.append((j, horizon(j), 2.0 / j, m))
    if all(m > 0.0 for m in ej_measures):
        ej_slope = loglog_slope(EJ_LADDER, ej_measures)
        checks.append(TargetCheck(
            name="union-slope",
            claim="short-return union measure decays at least like the predicted power",
            measured=ej_slope, target=-varsigma(ALPHA_STAR) + 0.3, tolerance=0.0,
            side="below"))

    local_rows = []
    observable = config.observable.build()
    for j in LOCAL_JS:
        measured = local_recurrence_at(schedule, observable, j)
        bound = local_recurrence_bound(j)
        local_rows.append((j, measured, bound, int(measured <= bound)))
        checks.append(TargetCheck(
            name=f"local-bound-j{j}",
            claim="local return mass stays below the almost-everywhere bound "
                  "(onset index unknown, so failures are reported, not fatal)",
            measured=measured, target=bound, tolerance=0.0, side="below", info=True))
    tables = {
        "return_sets": (("n", "eps", "measure"), en_rows),
        "union_sets": (("j", "horizon", "eps", "measure"), ej_rows),
        "local": (("j", "measure", "bound", "within_bound"), local_rows),
    }
    return checks, tables


def _run_orbit(config: ExperimentConfig, mc: _MonteCarlo):
    schedule = config.schedule.build()
    n = KINDS[config.kind].ns(config)[-1]
    orbit = sequential_orbit(schedule, config.x0, n)
    alphas = schedule.alphas(n)
    rows = [(0, float(orbit[0]), "")]
    rows += [(i + 1, float(orbit[i + 1]), float(alphas[i])) for i in range(n)]
    checks = [TargetCheck(
        name="orbit-in-domain",
        claim="orbit remains inside the unit interval",
        measured=float(np.max(np.abs(orbit - 0.5))), target=0.5, tolerance=0.0,
        side="below")]
    tables = {"orbit": (("i", "x", "alpha"), rows)}
    return checks, tables


_RUNNERS = {
    "evl": _run_evl,
    "calibrate": _run_calibrate,
    "dprime": _run_dprime,
    "d0": _run_d0,
    "decay": _run_decay,
    "recurrence": _run_recurrence,
    "orbit": _run_orbit,
}

