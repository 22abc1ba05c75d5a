"""Every pass/fail check family against a committed fault.

A fault is a monkeypatch of a name a runner looks up in `experiments`, such
as `build_threshold_schedule` wrapped to scale the radii it returns, never
an edit of `src/`.  Each kind, and each ladder config a fault row runs,
runs once with no fault and must PASS, so a check that always fails is
caught; each fault row names the checks it must turn to FAIL (exit 2).
A fault that a check cannot see yet is a strict xfail naming the ROADMAP
item that fixes it: once the fix lands, the row passes unexpectedly, and
the fixing change moves it to the plain rows.
"""

import io
import re
from dataclasses import replace

import numpy as np
import pytest

from seqevl import experiments
from seqevl.cli import main
from seqevl.config import KINDS, ExponentSpec, default_config

# the smallest horizon and sample count at which every fault below shows;
# each run takes well under a second
N, SAMPLES = 250, 20_000

# two-rung ladders for the trend checks; at beta = 0.75 the block count
# k_n = round(n^0.25) is 3 and then 4, so the dprime trend is checked, not INFO
EVL_LADDER = dict(n_ladder=(125, 250))
DPRIME_LADDER = dict(n_ladder=(125, 250), exponents=ExponentSpec(beta=0.75, kappa=0.7))


def wrapped(name, wrap):
    """A fault: experiments.<name> replaced by wrap(the original)."""
    def fault(monkeypatch):
        monkeypatch.setattr(experiments, name, wrap(getattr(experiments, name)))
    return fault


def scaled(factor, first_step=0, longest_only=False):
    """A fault: every radius from first_step on multiplied by factor, on
    every rung of the ladder or on its longest rung only."""
    def scale(ts):
        deltas = ts.deltas.copy()
        deltas[first_step:] *= factor
        return replace(ts, deltas=deltas)

    def wrap(build):
        def build_scaled(*args, **kwargs):
            out = build(*args, **kwargs)
            first = len(out) - 1 if longest_only else 0
            return out[:first] + [scale(ts) for ts in out[first:]]
        return build_scaled

    return wrapped("build_threshold_schedule", wrap)


def uncalibrated(build):
    # every radius the ball of mass tau/n under the uniform density, as if
    # every pushed density were uniform: a run that skips calibration
    def build_uncalibrated(*args, **kwargs):
        return [replace(ts, deltas=np.full(ts.n, ts.observable.uniform_radius(ts.tau / ts.n)))
                for ts in build(*args, **kwargs)]
    return build_uncalibrated


def orbit_leaves_domain(orbit_of):
    def orbit(*args):
        out = orbit_of(*args)
        out[len(out) // 2] = 1.5
        return out
    return orbit


def decay_rises_at_the_end(decay_of):
    def decay(*args):
        result = decay_of(*args)
        logs = result.log_distances.copy()
        logs[-1] = logs[-2] + 1.0
        return replace(result, log_distances=logs)
    return decay


def decay_falls_exponentially(decay_of):
    # log distance -n/64: the spectral-gap decay the default mesh gives in
    # place of the map's polynomial rate
    def decay(*args):
        result = decay_of(*args)
        logs = -result.ns / 64.0
        return replace(result, distances=np.exp(logs), log_distances=logs)
    return decay


def union_grows(measure_of):
    def measure(schedule, j, params, resolution):
        return measure_of(schedule, j, params, resolution) * j ** 2
    return measure


def return_sets_like_the_grid(measure_of):
    # measure eps^1.8: the slope the grid estimator reports at n = 20
    def measure(schedule, n, eps, resolution):
        return eps ** 1.8
    return measure


def run(kind, tmp_path, settings=None):
    """(exit code, {check name: PASS / FAIL / INFO}) of one CLI run."""
    path = tmp_path / f"{kind}.toml"
    cfg = default_config(kind, n=N, n_samples=SAMPLES, **(settings or {}))
    path.write_text(cfg.to_toml(), encoding="utf-8")
    out = io.StringIO()
    code = main([kind, "--config", str(path), "--out", str(tmp_path / "runs")],
                stdout=out, stderr=io.StringIO())
    return code, {name: status for status, name in
                  re.findall(r"^\[(PASS|FAIL|INFO)\] (\S+):", out.getvalue(), re.M)}


NO_FAULT = [pytest.param(kind, {}, id=kind) for kind in KINDS] + [
    pytest.param("evl", EVL_LADDER, id="evl-ladder"),
    pytest.param("dprime", DPRIME_LADDER, id="dprime-ladder"),
]


@pytest.mark.parametrize("kind,settings", NO_FAULT)
def test_every_kind_passes_with_no_fault(kind, settings, tmp_path):
    code, verdicts = run(kind, tmp_path, settings)
    assert "FAIL" not in verdicts.values(), verdicts
    assert code == 0


def xfail(item):
    return pytest.mark.xfail(strict=True, reason=f"the check cannot see this fault yet: {item}")


# (kind, config settings, fault, pattern of the check names the fault must
# turn to FAIL)
FAULTS = [
    pytest.param("evl", {}, scaled(0.5), r"evl-n250", id="evl-x0.5"),
    pytest.param("evl", {}, scaled(2.0), r"evl-n250", id="evl-x2"),
    pytest.param("calibrate", {}, scaled(0.97), r"first-radius", id="calibrate-x0.97"),
    # step 0 keeps its radius, so first-radius and exceedance-i0 pass
    pytest.param("calibrate", {}, scaled(0.5, first_step=1), r"exceedance-i(?!0$)\d+",
                 id="calibrate-x0.5-after-step-0"),
    pytest.param("evl", {}, scaled(0.97), r"evl-n250", id="evl-x0.97",
                 marks=xfail("ROADMAP item 14 or 4")),
    pytest.param("evl", {}, wrapped("build_threshold_schedule", uncalibrated), r"evl-n250",
                 id="evl-uncalibrated", marks=xfail("ROADMAP item 14, 17 or 4")),
    # x0.5, not x2: x2 scales the pair sum toward tau = 1, where noise
    # could flip a strict xfail
    pytest.param("dprime", {}, scaled(0.5), r"dprime-n250", id="dprime-x0.5",
                 marks=xfail("ROADMAP items 1 and 4")),
    pytest.param("d0", {}, scaled(0.5), r"d0-monotone-t\d+-t\d+", id="d0-x0.5",
                 marks=xfail("ROADMAP items 1 and 4")),
    pytest.param("orbit", {}, wrapped("sequential_orbit", orbit_leaves_domain),
                 r"orbit-in-domain", id="orbit-point-at-1.5"),
    pytest.param("decay", {}, wrapped("loss_of_memory_distance", decay_rises_at_the_end),
                 r"decay-monotone", id="decay-last-rung-rises"),
    pytest.param("recurrence", {}, wrapped("measure_Ej", union_grows),
                 r"union-slope", id="union-grows-with-j"),
    # the short rung keeps its radii, so its evl check passes
    pytest.param("evl", EVL_LADDER, scaled(0.5, longest_only=True),
                 r"evl-n250|evl-error-trend-125-250", id="evl-ladder-x0.5-longest"),
    pytest.param("dprime", DPRIME_LADDER, scaled(2.0, longest_only=True),
                 r"dprime-trend-125-250", id="dprime-ladder-x2-longest"),
    pytest.param("decay", {}, wrapped("loss_of_memory_distance", decay_falls_exponentially),
                 r"decay-slope", id="decay-exponential",
                 marks=xfail("ROADMAP item 11")),
    pytest.param("recurrence", {}, wrapped("measure_En_eps", return_sets_like_the_grid),
                 r"return-slope-n\d+", id="return-sets-eps1.8",
                 marks=xfail("ROADMAP item 12")),
]


@pytest.mark.parametrize("kind,settings,fault,failing", FAULTS)
def test_fault_fails_its_checks(kind, settings, fault, failing, tmp_path, monkeypatch):
    fault(monkeypatch)
    code, verdicts = run(kind, tmp_path, settings)
    expected = {name for name in verdicts if re.fullmatch(failing, name)}
    assert expected, verdicts
    assert {name for name, status in verdicts.items() if status == "FAIL"} == expected
    assert code == 2
