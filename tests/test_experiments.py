"""Experiment pipelines: one density ladder serves every horizon of a run, and
every check passes or fails by its printed measured value, target, tolerance
and side."""

import io
import json
import math
from dataclasses import fields, is_dataclass, replace
from itertools import product
from pathlib import Path

import pytest

from seqevl import experiments, transfer
from seqevl.cli import main
from seqevl.config import KINDS, MeshSpec, ScheduleSpec, _flat, default_config, kind_reads
from seqevl.experiments import TargetCheck, run_experiment
from seqevl.maps import ALPHA_STAR, ParameterSchedule
from seqevl.thresholds import DEFAULT_ZETA

LADDER = (20, 40, 80)


@pytest.mark.parametrize("kind", ["evl", "dprime"])
def test_horizon_ladder_pushes_one_trajectory(kind, tmp_path, monkeypatch):
    pushes = []
    pf_apply = transfer.pf_apply

    def counting_pf_apply(*args, **kwargs):
        pushes.append(args[0])
        return pf_apply(*args, **kwargs)

    monkeypatch.setattr(transfer, "pf_apply", counting_pf_apply)
    cfg = default_config(kind, n_ladder=LADDER, n_samples=3000,
                         mesh=MeshSpec(cells=256))
    ladder = run_experiment(cfg, base_dir=tmp_path / "ladder")
    assert len(pushes) == max(LADDER) - 1
    assert not (tmp_path / "ladder" / "cache").exists()

    singles = {}
    for n in LADDER:
        single = run_experiment(replace(cfg, n_ladder=(), n=n),
                                base_dir=tmp_path / f"n{n}")
        for name, (header, rows) in single.tables.items():
            singles.setdefault(name, (header, []))[1].extend(rows)
    assert ladder.tables == singles


def test_throughput_counts_the_monte_carlo_stage_only(tmp_path):
    cfg = default_config("evl", n=50, n_samples=2000, mesh=MeshSpec(cells=256))
    metrics = run_experiment(cfg, base_dir=tmp_path).metrics
    assert 0.0 < metrics["montecarlo_seconds"] <= metrics["elapsed_seconds"]
    assert metrics["samples_per_second"] == metrics["samples"] / metrics["montecarlo_seconds"]
    orbit = run_experiment(default_config("orbit"), base_dir=tmp_path).metrics
    assert orbit["montecarlo_seconds"] == orbit["samples_per_second"] == 0.0


@pytest.mark.parametrize("tau,radius", [
    (0.5, 0.25),  # tau/(2n) fits between zeta and 1
    (0.8, 0.8 - (1.0 - DEFAULT_ZETA)),  # clipped at 1: tau/n - (1 - zeta)
    (1.0, DEFAULT_ZETA),  # the whole of [0, 1]
])
def test_first_radius_target_is_the_clipped_uniform_ball(tau, radius, tmp_path):
    cfg = default_config("calibrate", n=1, tau=tau, n_samples=2000, mesh=MeshSpec(cells=256))
    check, = [c for c in run_experiment(cfg, base_dir=tmp_path).checks
              if c.name == "first-radius"]
    assert check.target == pytest.approx(radius, rel=1e-15)
    assert check.measured == pytest.approx(radius, abs=1e-12)
    assert check.passed


# bounds of (target 1, tolerance 0.25) per side, each with the direction in
# which the next float lies beyond it
SIDE_BOUNDS = {"both": ((1.25, math.inf), (0.75, -math.inf)),
               "below": ((1.25, math.inf),),
               "above": ((0.75, -math.inf),)}


@pytest.mark.parametrize("side", SIDE_BOUNDS)
def test_verdict_follows_the_printed_triple_and_side(side):
    def check(measured, **kw):
        return TargetCheck(name="c", claim="", measured=measured, target=1.0,
                           tolerance=0.25, side=side, **kw)

    for bound, beyond in SIDE_BOUNDS[side]:
        assert check(bound).passed is True
        assert check(math.nextafter(bound, beyond)).passed is False
        # an INFO check is reported, not checked
        assert check(math.nextafter(bound, beyond), info=True).passed is True
    assert check(1.0).passed is True
    assert check(math.nan).passed is False


def test_unknown_side_is_refused():
    with pytest.raises(ValueError, match="side"):
        TargetCheck(name="c", claim="", measured=0.0, target=0.0, tolerance=0.0, side="near")


def _cli(argv):
    out = io.StringIO()
    code = main(argv, stdout=out, stderr=io.StringIO())
    return code, out.getvalue()


def test_info_check_with_a_failing_triple_prints_info(tmp_path, monkeypatch):
    def runner(config, mc):
        return [TargetCheck(name="far", claim="", measured=2.0, target=0.0,
                            tolerance=0.0, side="below", info=True)], {}

    monkeypatch.setitem(experiments._RUNNERS, "orbit", runner)
    code, out = _cli(["orbit", "--out", str(tmp_path)])
    assert "[INFO] far: measured=2 target=0 tol=0" in out
    assert code == 0


def test_single_horizon_dprime_tolerance_is_tau(tmp_path):
    path = tmp_path / "dprime.toml"
    path.write_text(default_config("dprime", n=250, tau=0.8, n_samples=2000,
                                   mesh=MeshSpec(cells=256)).to_toml(), encoding="utf-8")
    code, out = _cli(["dprime", "--config", str(path), "--out", str(tmp_path)])
    line, = [s for s in out.splitlines() if "dprime-n250:" in s]
    assert line.endswith(" target=0 tol=0.8"), line
    assert code == 0


@pytest.mark.parametrize("kind", KINDS)
def test_summary_verdicts_are_json_booleans(kind, tmp_path):
    cfg = default_config(kind, n=50, n_samples=2000, mesh=MeshSpec(cells=64))
    report = run_experiment(cfg, base_dir=tmp_path)
    summary = json.loads((Path(report.out_dir) / "summary.json").read_text(encoding="utf-8"))
    assert isinstance(summary["passed"], bool)
    assert summary["checks"]
    for check in summary["checks"]:
        assert isinstance(check["passed"], bool) and isinstance(check["info"], bool), check
        assert check["side"] in SIDE_BOUNDS, check


def test_d0_at_its_smallest_horizon_compares_two_separations(tmp_path):
    cfg = default_config("d0", n=KINDS["d0"].min_n, n_samples=2000, mesh=MeshSpec(cells=64))
    (check,) = run_experiment(cfg, base_dir=tmp_path).checks
    assert check.name == "d0-monotone-t2-t3"


def test_run_whose_runner_raises_leaves_no_directory(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("runner fault")

    monkeypatch.setattr(experiments, "sequential_orbit", broken)
    with pytest.raises(ValueError, match="runner fault"):
        run_experiment(default_config("orbit", n=5), base_dir=tmp_path / "runs")
    assert not (tmp_path / "runs").exists()


def _recording(spec, reads: set, prefix: str = ""):
    """A copy of a frozen config or section spec that adds each field read
    to reads, as `key` or `section.field`; a section reads as a recording
    copy of itself, so its fields are recorded, not the section."""
    names = {f.name for f in fields(spec)}

    class Recording(type(spec)):
        def __getattribute__(self, name):
            value = object.__getattribute__(self, name)
            if name not in names:
                return value
            if is_dataclass(value):
                return _recording(value, reads, f"{name}.")
            reads.add(prefix + name)
            return value

    copy = object.__new__(Recording)
    copy.__dict__.update(vars(spec))
    return copy


# (schedule, mesh) pairs that between them take every selector value, each
# with the fields a run reads under it
SELECTIONS = [
    ((ScheduleSpec(), {"mode", "cycle", "alpha_star"}),
     (MeshSpec(cells=32), {"kind", "cells", "ratio", "min_width"})),
    ((ScheduleSpec(mode="iid"), {"mode", "lo", "hi", "seed", "alpha_star"}),
     (MeshSpec(kind="uniform", cells=32), {"kind", "cells"})),
]


@pytest.mark.parametrize("kind", KINDS)
def test_runner_reads_exactly_its_keys(kind, tmp_path, monkeypatch):
    """The keys a runner and its Monte Carlo stage read are those of
    KINDS[kind].reads that `kind_reads` names, with `kind`, through which it
    reads its row (every kind reads `kind`): a read field counts as its
    section where the row names the whole section.  A set n_ladder leaves n
    unread, and a kind that does not read n_ladder steps to n whatever it
    holds.  Of the schedule and the mesh it reads, field for field, what the
    selector's value reads, and those are the keys that `kind_reads` names."""
    reads = set()
    runner = experiments._RUNNERS[kind]

    def recorded(config, mc):
        config = _recording(config, reads)
        return runner(config, experiments._MonteCarlo(config))

    monkeypatch.setitem(experiments._RUNNERS, kind, recorded)
    path = tmp_path / f"{kind}.toml"
    row = KINDS[kind].reads
    for ((schedule, schedule_reads), (mesh, mesh_reads)), ladder in product(
            SELECTIONS, ((), (10, 20))):
        reads.clear()
        cfg = default_config(kind, n=20, n_ladder=ladder, n_samples=200,
                             schedule=schedule, mesh=mesh)
        path.write_text(cfg.to_toml(), encoding="utf-8")
        code, _ = _cli([kind, "--config", str(path), "--out", str(tmp_path / "runs")])
        assert code in (0, 2), (ladder, code)
        assert {key if key in row else key.split(".")[0] for key in reads} == {
            "kind", *(key for key in row if kind_reads(cfg, key))}, ladder
        for section, fields_read in (("schedule", schedule_reads), ("mesh", mesh_reads)):
            expected = {f"{section}.{name}" for name in fields_read} if section in row else set()
            assert {key for key in reads if key.startswith(section + ".")} == expected, section
        assert reads == {key for key in _flat(cfg) if kind_reads(cfg, key)}


def test_schedules_that_step_the_same_exponents_are_equal():
    # a periodic schedule reads its cycle alone, whatever lo, hi and seed hold
    plain = ParameterSchedule(cycle=(0.12,))
    for other in (ScheduleSpec(cycle=(0.12,), lo=0.02).build(),
                  ParameterSchedule(cycle=(0.12,), lo=0.02, hi=0.13, seed=3)):
        assert other == plain and hash(other) == hash(plain)
    assert ParameterSchedule(cycle=(0.11,)) != plain
    assert ParameterSchedule(cycle=(0.12,), alpha_star=0.13) != plain
    iid = ParameterSchedule(mode="iid", seed=3)
    assert iid == ParameterSchedule(mode="iid", seed=3, cycle=(0.05,))
    assert iid != ParameterSchedule(mode="iid", seed=4)


def test_schedules_that_compare_equal_print_equal():
    # the repr shows mode, alpha_star and the mode's fields, which equality compares
    pairs = ((ParameterSchedule(cycle=(0.12,)),
              ParameterSchedule(cycle=(0.12,), lo=0.02, hi=0.13, seed=3)),
             (ParameterSchedule(mode="iid", seed=3),
              ParameterSchedule(mode="iid", seed=3, cycle=(0.05,))))
    for one, two in pairs:
        assert one == two and repr(one) == repr(two)
        assert eval(repr(one), {"ParameterSchedule": ParameterSchedule}) == one
    assert repr(pairs[0][1]) == (
        f"ParameterSchedule(mode='periodic', alpha_star={ALPHA_STAR!r}, cycle=(0.12,))")
    assert repr(pairs[1][1]) == (
        f"ParameterSchedule(mode='iid', alpha_star={ALPHA_STAR!r}, lo=0.01, hi=0.14, seed=3)")
    assert repr(ParameterSchedule(cycle=(0.11,))) != repr(pairs[0][0])
