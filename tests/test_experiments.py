"""Experiment pipelines: one density ladder serves every horizon of a run."""

from dataclasses import replace

import pytest

from seqevl import transfer
from seqevl.config import MeshSpec, default_config
from seqevl.experiments import run_experiment

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
