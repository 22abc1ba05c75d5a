"""Experiment pipelines: one density ladder serves every horizon of a run."""

from dataclasses import replace

import pytest

from seqevl import transfer
from seqevl.config import MeshSpec, default_config
from seqevl.experiments import run_experiment
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
