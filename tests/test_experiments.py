"""Experiment pipelines: one density ladder serves every horizon of a run, and
every check passes or fails by its printed measured value, target, tolerance
and side."""

import json
import math
from dataclasses import fields, is_dataclass, replace
from itertools import product
from pathlib import Path

import pytest

from seqevl import experiments, transfer
from seqevl.config import KINDS, ScheduleSpec, _flat, default_config, kind_reads
from seqevl.experiments import TargetCheck, run_experiment
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
    cfg = default_config(kind, n_ladder=LADDER, n_samples=3000)
    ladder = run_experiment(replace(cfg, out_dir=str(tmp_path / "ladder")))
    assert len(pushes) == max(LADDER) - 1
    assert not (tmp_path / "ladder" / "cache").exists()

    # each table of the ladder run is the header and the rows of the
    # one-horizon runs, in order
    singles = {}
    for n in LADDER:
        single = run_experiment(replace(cfg, n_ladder=(), n=n, out_dir=str(tmp_path / f"n{n}")))
        for path in sorted(Path(single.out_dir).glob("*.csv")):
            header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
            singles.setdefault(path.name, [header]).extend(rows)
    tables = {path.name: path.read_text(encoding="utf-8").splitlines(keepends=True)
              for path in sorted(Path(ladder.out_dir).glob("*.csv"))}
    assert tables == singles


def test_a_run_builds_one_mesh(run_cli, tmp_path, monkeypatch):
    # the mesh is the lab's: a run that pushes densities builds it once, and
    # validate, which checks a config, builds none
    calls = []
    graded_mesh = experiments.graded_mesh

    def counting_graded_mesh(*args):
        calls.append(args)
        return graded_mesh(*args)

    monkeypatch.setattr(experiments, "graded_mesh", counting_graded_mesh)
    built = {}
    for kind in KINDS:
        cfg = default_config(kind, n=20, n_ladder=(4, 8), n_samples=200)
        for command in ("validate", kind):
            calls.clear()
            assert run_cli(command, "--out", str(tmp_path), config=cfg).code in (0, 2), command
            built[command, kind] = len(calls)
    assert {kind: built[kind, kind] for kind in KINDS} == {
        "evl": 1, "calibrate": 1, "dprime": 1, "d0": 1, "decay": 1, "recurrence": 0, "orbit": 0}
    assert {kind: built["validate", kind] for kind in KINDS} == dict.fromkeys(KINDS, 0)


def test_throughput_counts_the_monte_carlo_stage_only(tmp_path):
    cfg = default_config("evl", n=50, n_samples=2000)
    metrics = run_experiment(replace(cfg, out_dir=str(tmp_path))).metrics
    assert 0.0 < metrics["montecarlo_seconds"] <= metrics["elapsed_seconds"]
    assert metrics["samples_per_second"] == metrics["samples"] / metrics["montecarlo_seconds"]
    orbit = run_experiment(default_config("orbit", out_dir=str(tmp_path))).metrics
    assert orbit["montecarlo_seconds"] == orbit["samples_per_second"] == 0.0


@pytest.mark.parametrize("tau,radius", [
    (0.5, 0.25),  # tau/(2n) fits between zeta and 1
    (0.8, 0.8 - (1.0 - DEFAULT_ZETA)),  # clipped at 1: tau/n - (1 - zeta)
    (1.0, DEFAULT_ZETA),  # the whole of [0, 1]
])
def test_first_radius_target_is_the_clipped_uniform_ball(tau, radius, tmp_path):
    cfg = default_config("calibrate", n=1, tau=tau, n_samples=2000)
    check, = [c for c in run_experiment(replace(cfg, out_dir=str(tmp_path))).checks
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


def test_info_check_with_a_failing_triple_prints_info(run_cli, tmp_path, monkeypatch):
    def runner(config, mc):
        return [TargetCheck(name="far", claim="", measured=2.0, target=0.0,
                            tolerance=0.0, side="below", info=True)], {}

    monkeypatch.setitem(experiments._RUNNERS, "orbit", runner)
    code, out, _ = run_cli("orbit", "--out", str(tmp_path))
    assert "[INFO] far: measured=2 target=0 tol=0" in out
    assert code == 0


def test_single_horizon_dprime_tolerance_is_tau(run_cli, tmp_path):
    code, out, _ = run_cli("dprime", "--out", str(tmp_path), config=default_config(
        "dprime", n=250, tau=0.8, n_samples=2000))
    line, = [s for s in out.splitlines() if "dprime-n250:" in s]
    assert line.endswith(" target=0 tol=0.8"), line
    assert code == 0


@pytest.mark.parametrize("kind", KINDS)
def test_summary_verdicts_are_json_booleans(kind, tmp_path):
    cfg = default_config(kind, n=50, n_samples=2000)
    report = run_experiment(replace(cfg, out_dir=str(tmp_path)))
    summary = json.loads((Path(report.out_dir) / "summary.json").read_text(encoding="utf-8"))
    assert isinstance(summary["passed"], bool)
    assert summary["checks"]
    for check in summary["checks"]:
        assert isinstance(check["passed"], bool) and isinstance(check["info"], bool), check
        assert check["side"] in SIDE_BOUNDS, check


def test_d0_at_its_smallest_horizon_compares_two_separations(tmp_path):
    cfg = default_config("d0", n=KINDS["d0"].min_n, n_samples=2000)
    (check,) = run_experiment(replace(cfg, out_dir=str(tmp_path))).checks
    assert check.name == "d0-monotone-t2-t3"


def test_run_whose_runner_raises_leaves_no_directory(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("runner fault")

    monkeypatch.setattr(experiments, "sequential_orbit", broken)
    with pytest.raises(ValueError, match="runner fault"):
        run_experiment(default_config("orbit", n=5, out_dir=str(tmp_path / "runs")))
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


# schedules that between them take every schedule mode, each with the fields
# a run reads under it
SELECTIONS = [
    (ScheduleSpec(), {"mode", "cycle"}),
    (ScheduleSpec(mode="iid"), {"mode", "lo", "hi", "seed"}),
]


@pytest.mark.parametrize("kind", KINDS)
def test_runner_reads_exactly_its_keys(kind, run_cli, tmp_path, monkeypatch):
    """The keys a runner and its Monte Carlo stage read are those of
    KINDS[kind].reads that `kind_reads` names, with `kind`, through which it
    reads its row (every kind reads `kind`): a read field counts as its
    section where the row names the whole section.  A set n_ladder leaves n
    unread, and a kind that does not read n_ladder steps to n whatever it
    holds.  Of the schedule it reads, field for field, what its mode reads,
    and those are the keys that `kind_reads` names."""
    reads = set()
    runner = experiments._RUNNERS[kind]

    def recorded(config, mc):
        config = _recording(config, reads)
        return runner(config, experiments._MonteCarlo(config))

    monkeypatch.setitem(experiments._RUNNERS, kind, recorded)
    row = KINDS[kind].reads
    for (schedule, schedule_reads), ladder in product(SELECTIONS, ((), (10, 20))):
        reads.clear()
        cfg = default_config(kind, n=20, n_ladder=ladder, n_samples=200, schedule=schedule)
        code = run_cli(kind, "--out", str(tmp_path / "runs"), config=cfg).code
        assert code in (0, 2), (ladder, code)
        assert {key if key in row else key.split(".")[0] for key in reads} == {
            "kind", *(key for key in row if kind_reads(cfg, key))}, ladder
        expected = {f"schedule.{name}" for name in schedule_reads} if "schedule" in row else set()
        assert {key for key in reads if key.startswith("schedule.")} == expected
        assert reads == {key for key in _flat(cfg) if kind_reads(cfg, key)}
