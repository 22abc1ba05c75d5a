"""Named experiment pipelines: configuration in, persisted artifacts out.

Each experiment builds its density ladder and thresholds, runs the relevant
estimator, writes CSV tables plus a JSON summary under a content-addressed
directory, and returns a report whose checks carry descriptive claim
strings, measured values, targets, and pass flags.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ConfigError, Diagnostic, ExperimentConfig, validate_config
from .io import write_csv, write_json
from .maps import sequential_orbit
from .mesh import uniform_density
from .montecarlo import (RNGSpec, build_blocks, d0_mixing_gap, dprime_sum,
                         estimate_exceedances, estimate_Pn, exponent_ledger)
from .recurrence import (local_recurrence_at, local_recurrence_bound,
                         loglog_slope, measure_En_eps, measure_Ej)
from .thresholds import build_threshold_schedule, calibrate_schedule
from .transfer import cone_step_surrogate, loss_of_memory_distance

DECAY_LADDER = (64, 128, 256, 512, 1024, 2048, 4096)
EN_EPS_LADDER = tuple(2.0 ** -k for k in range(4, 15))
EN_STEP_COUNTS = (1, 5, 20)
EJ_LADDER = tuple(2 ** k for k in range(5, 13))
LOCAL_JS = (8, 16, 32)


@dataclass(frozen=True)
class TargetCheck:
    name: str
    claim: str
    measured: float
    target: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    kind: str
    experiment_id: str
    passed: bool
    checks: tuple
    warnings: tuple
    metrics: dict
    out_dir: str
    tables: dict = field(default_factory=dict)

    def summary_payload(self) -> dict:
        return {
            "kind": self.kind,
            "experiment_id": self.experiment_id,
            "passed": self.passed,
            "checks": [vars(c) for c in self.checks],
            "warnings": [vars(w) for w in self.warnings],
            "metrics": self.metrics,
        }


def experiment_id(config: ExperimentConfig) -> str:
    digest = hashlib.sha256(config.to_toml().encode()).hexdigest()
    return f"{config.kind}-{digest[:12]}"


def run_experiment(config: ExperimentConfig, base_dir=None) -> ExperimentReport:
    diagnostics = validate_config(config)
    errors = [d for d in diagnostics if d.severity == "error"]
    if errors:
        raise ConfigError("; ".join(f"{d.code}: {d.message}" for d in errors))
    warnings = tuple(d for d in diagnostics if d.severity == "warning")

    base = Path(base_dir) if base_dir is not None else Path(config.out_dir)
    exp_id = experiment_id(config)
    out_dir = base / exp_id
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    checks, tables, samples = _RUNNERS[config.kind](config)
    elapsed = time.perf_counter() - started

    for name, (header, rows) in tables.items():
        write_csv(out_dir / f"{name}.csv", header, rows)
    (out_dir / "config.toml").write_text(config.to_toml(), encoding="utf-8")

    report = ExperimentReport(
        kind=config.kind,
        experiment_id=exp_id,
        passed=all(c.passed for c in checks),
        checks=tuple(checks),
        warnings=warnings,
        metrics={"elapsed_seconds": elapsed,
                 "samples": samples,
                 "samples_per_second": samples / elapsed if elapsed > 0 else 0.0},
        out_dir=str(out_dir),
        tables=tables,
    )
    write_json(out_dir / "summary.json", report.summary_payload())
    return report


def _thresholds(config: ExperimentConfig, ns) -> list:
    """Threshold schedules for the horizons ns, all from one push to the longest."""
    schedule, observable = config.schedule.build(), config.observable.build()
    top, densities = build_threshold_schedule(
        schedule, observable, config.tau, max(ns), config.mesh.build(),
        return_densities=True)
    return [top if n == top.n
            else calibrate_schedule(densities[:n], schedule, observable, config.tau)
            for n in ns]


def _run_evl(config: ExperimentConfig):
    rng = RNGSpec(config.seed)
    target = math.exp(-config.tau)
    rows = []
    checks = []
    samples = 0
    errors = []
    for ts in _thresholds(config, config.ns()):
        n = ts.n
        est = estimate_Pn(ts, rng, config.n_samples, workers=config.workers,
                          label=f"pn-{n}")
        samples += config.n_samples
        err = abs(est.value - target)
        errors.append((n, err, est.se))
        rows.append((n, config.tau, est.value, est.se, target, err,
                     est.ci_low, est.ci_high))
        checks.append(TargetCheck(
            name=f"evl-n{n}",
            claim="survival probability of calibrated exceedances approaches exp(-tau)",
            measured=est.value, target=target, tolerance=0.05 + 2.0 * est.se,
            passed=err <= 0.05 + 2.0 * est.se))
    if len(errors) > 1:
        for (n0, e0, s0), (n1, e1, s1) in zip(errors, errors[1:]):
            slack = 2.0 * (s0 + s1)
            checks.append(TargetCheck(
                name=f"evl-error-trend-{n0}-{n1}",
                claim="absolute error is nonincreasing along the horizon ladder",
                measured=e1 - e0, target=0.0, tolerance=slack,
                passed=e1 <= e0 + slack))
    tables = {"evl": (("n", "tau", "estimate", "se", "target", "abs_error",
                       "ci_low", "ci_high"), rows)}
    return checks, tables, samples


def _run_calibrate(config: ExperimentConfig):
    rng = RNGSpec(config.seed)
    n = config.ns()[-1]
    ts, = _thresholds(config, (n,))
    first_target = config.tau / (2.0 * n)
    checks = [TargetCheck(
        name="first-radius",
        claim="step-zero radius equals tau/(2n) under the uniform start",
        measured=ts.deltas[0], target=first_target, tolerance=1e-12,
        passed=abs(ts.deltas[0] - first_target) <= 1e-12)]
    count = min(20, n)
    picks = np.unique(np.linspace(0, n - 1, count).round().astype(int))
    estimates = estimate_exceedances(ts, picks, rng, config.n_samples,
                                     workers=config.workers)
    rows = []
    target = config.tau / n
    for i, est in zip(picks, estimates):
        slack = 3.0 * est.se
        ok = abs(est.value - target) <= slack or est.ci_low <= target <= est.ci_high
        rows.append((int(i), ts.deltas[i], ts.levels[i], ts.step_masses[i],
                     est.value, est.se, target, int(ok)))
        checks.append(TargetCheck(
            name=f"exceedance-i{int(i)}",
            claim="per-step exceedance mass matches the tau/n calibration target",
            measured=est.value, target=target, tolerance=slack, passed=ok))
    tables = {
        "thresholds": (("i", "delta", "level", "step_mass"), list(ts.rows())),
        "calibration": (("i", "delta", "level", "step_mass", "mc_estimate",
                         "se", "target", "pass"), rows),
    }
    return checks, tables, config.n_samples


def _run_dprime(config: ExperimentConfig):
    rng = RNGSpec(config.seed)
    rows = []
    results = []
    samples = 0
    for ts in _thresholds(config, config.ns()):
        n = ts.n
        blocks = build_blocks(ts, beta=config.exponents.beta,
                              kappa=config.exponents.kappa)
        est = dprime_sum(ts, blocks, rng, config.n_samples,
                         workers=config.workers, label=f"dprime-{n}")
        samples += config.n_samples
        results.append((n, est))
        rows.append((n, blocks.k_n, blocks.t_star, est.value, est.se,
                     est.ci_low, est.ci_high))
    checks = []
    for (n0, e0), (n1, e1) in zip(results, results[1:]):
        slack = 2.0 * (e0.se + e1.se)
        checks.append(TargetCheck(
            name=f"dprime-trend-{n0}-{n1}",
            claim="within-block exceedance pair sum decreases along the horizon ladder",
            measured=e1.value - e0.value, target=0.0, tolerance=slack,
            passed=e1.value <= e0.value + slack))
    if len(results) == 1:
        n0, e0 = results[0]
        checks.append(TargetCheck(
            name=f"dprime-n{n0}",
            claim="within-block exceedance pair sum stays small",
            measured=e0.value, target=0.0, tolerance=max(4.0 * e0.se, 1e-12),
            passed=e0.value <= max(4.0 * e0.se, 1e-12) or e0.value < config.tau))
    tables = {"dprime": (("n", "k_n", "t_star", "pair_sum", "se",
                          "ci_low", "ci_high"), rows)}
    return checks, tables, samples


def _run_d0(config: ExperimentConfig):
    rng = RNGSpec(config.seed)
    n = config.ns()[-1]
    ts, = _thresholds(config, (n,))
    ell = max(1, round(n ** 0.5))
    i = 0
    rows = []
    gaps = []
    for tag, expo in (("short", 0.4), ("long", 0.8)):
        t = max(1, round(n ** expo))
        t = min(t, n - i - ell)
        gap = d0_mixing_gap(ts, i, t, ell, rng, config.n_samples,
                            workers=config.workers, label=f"d0-{tag}")
        gaps.append((t, gap))
        rows.append((n, i, t, ell, gap.gap, gap.se, gap.p_event, gap.p_window))
    (t_lo, g_lo), (t_hi, g_hi) = gaps
    slack = 3.0 * (g_lo.se + g_hi.se)
    checks = [TargetCheck(
        name=f"d0-monotone-t{t_lo}-t{t_hi}",
        claim="mixing gap at the long separation stays below the short-separation gap",
        measured=g_hi.gap - g_lo.gap, target=0.0, tolerance=slack,
        passed=g_hi.gap <= g_lo.gap + slack)]
    tables = {"d0": (("n", "i", "t", "ell", "gap", "se", "p_event",
                      "p_window"), rows)}
    return checks, tables, 2 * config.n_samples


def _run_decay(config: ExperimentConfig):
    schedule = config.schedule.build()
    mesh = config.mesh.build()
    ladder = tuple(config.n_ladder) if config.n_ladder else DECAY_LADDER
    alpha = schedule.sup_alpha()
    f = uniform_density(mesh)
    g = cone_step_surrogate(mesh, height=2.0, cutoff=0.5, alpha=alpha)
    result = loss_of_memory_distance(schedule, f, g, ladder)
    slope = result.corrected_slope(alpha)
    target = -(1.0 / alpha - 1.0) + 0.5
    monotone = bool(np.all(np.diff(result.log_distances) < 0.0))
    rows = [(int(n), float(d), float(ld))
            for n, d, ld in zip(result.ns, result.distances, result.log_distances)]
    checks = [
        TargetCheck(
            name="decay-monotone",
            claim="distance between pushed equal-mass inputs never increases",
            measured=float(np.max(np.diff(result.log_distances))), target=0.0,
            tolerance=0.0, passed=monotone),
        TargetCheck(
            name="decay-slope",
            claim="log-log decay slope meets the polynomial forgetting rate",
            measured=slope, target=target, tolerance=0.0, passed=slope <= target),
    ]
    tables = {"decay": (("n", "l1_distance", "log_distance"), rows)}
    return checks, tables, 0


def _run_recurrence(config: ExperimentConfig):
    schedule = config.schedule.build()
    params = config.recurrence.build(config.schedule.alpha_star)
    resolution = max(config.mesh.cells, 1024)
    slope_floor = 1.0 / (1.0 + config.schedule.alpha_star) - 0.15

    en_rows = []
    checks = []
    for n in EN_STEP_COUNTS:
        measures = [measure_En_eps(schedule, n, eps, resolution)
                    for eps in EN_EPS_LADDER]
        for eps, m in zip(EN_EPS_LADDER, measures):
            en_rows.append((n, eps, m))
        slope = loglog_slope(EN_EPS_LADDER, measures)
        checks.append(TargetCheck(
            name=f"return-slope-n{n}",
            claim="return-set measure shrinks at least at the predicted power of eps",
            measured=slope, target=slope_floor, tolerance=0.0,
            passed=slope >= slope_floor))

    ej_rows = []
    ej_measures = []
    for j in EJ_LADDER:
        m = measure_Ej(schedule, j, params, resolution)
        ej_measures.append(m)
        ej_rows.append((j, params.horizon(j), 2.0 / j, m))
    if all(m > 0.0 for m in ej_measures):
        ej_slope = loglog_slope(EJ_LADDER, ej_measures)
        checks.append(TargetCheck(
            name="union-slope",
            claim="short-return union measure decays at least like the predicted power",
            measured=ej_slope, target=-params.varsigma + 0.3, tolerance=0.0,
            passed=ej_slope <= -params.varsigma + 0.3))

    local_rows = []
    zeta = config.observable.zeta
    for j in LOCAL_JS:
        measured = local_recurrence_at(schedule, zeta, j, params)
        bound = local_recurrence_bound(j, params)
        ok = measured <= bound
        local_rows.append((j, measured, bound, int(ok)))
        checks.append(TargetCheck(
            name=f"local-bound-j{j}",
            claim="local return mass stays below the almost-everywhere bound "
                  "(onset index unknown, so failures are reported, not fatal)",
            measured=measured, target=bound, tolerance=0.0, passed=True))
    tables = {
        "return_sets": (("n", "eps", "measure"), en_rows),
        "union_sets": (("j", "horizon", "eps", "measure"), ej_rows),
        "local": (("j", "measure", "bound", "within_bound"), local_rows),
    }
    return checks, tables, 0


def _run_orbit(config: ExperimentConfig):
    schedule = config.schedule.build()
    n = config.ns()[-1]
    orbit = sequential_orbit(schedule, config.x0, n)
    alphas = schedule.alphas(n)
    rows = [(0, float(orbit[0]), "")]
    rows += [(i + 1, float(orbit[i + 1]), float(alphas[i])) for i in range(n)]
    checks = [TargetCheck(
        name="orbit-in-domain",
        claim="orbit remains inside the unit interval",
        measured=float(np.max(np.abs(orbit - 0.5))), target=0.5, tolerance=0.0,
        passed=bool(np.all((orbit >= 0.0) & (orbit <= 1.0))))]
    tables = {"orbit": (("i", "x", "alpha"), rows)}
    return checks, tables, 0


_RUNNERS = {
    "evl": _run_evl,
    "calibrate": _run_calibrate,
    "dprime": _run_dprime,
    "d0": _run_d0,
    "decay": _run_decay,
    "recurrence": _run_recurrence,
    "orbit": _run_orbit,
}


def ledger_report(config: ExperimentConfig) -> list:
    """Exponent budget rows for the validate subcommand."""
    sup = config.schedule.sup_alpha()
    exps = config.exponents
    return exponent_ledger(sup, exps.beta, exps.kappa, exps.xi, exps.eta)
