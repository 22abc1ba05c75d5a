"""The benchmark's tracer patches program attributes by name, so a rename in
`src/` would break `perfbench/run.py --trace 1`; every target must exist,
and a traced run must complete."""

import io
import sys
from pathlib import Path

import pytest

import seqevl.cli  # imports every module the tracer patches
from seqevl.config import default_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

TARGETS = {**tracing.SPANS, **tracing.COUNTERS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    owner, attr = tracing._target(tracing.program_modules(), TARGETS[name])
    assert attr in owner.__dict__, f"{name}: {TARGETS[name]} no longer exists"


def test_traced_run_records_the_threshold_spans(tmp_path):
    """A whole run under the tracer: its wrappers must read every call shape
    the program uses (for example len() of calibrate_delta_ladder's densities)."""
    cfg = default_config("evl", n_ladder=(40, 80), n_samples=2000)
    path = tmp_path / "evl.toml"
    path.write_text(cfg.to_toml(), encoding="utf-8")
    out = io.StringIO()
    with tracing.Tracer() as tracer:
        code = seqevl.cli.main(["evl", "--config", str(path), "--out", str(tmp_path)],
                               stdout=out, stderr=out)
    assert code in (0, 2), out.getvalue()
    names = {s.name for s in tracer.spans}
    assert {"thresholds.build", "thresholds.calibrate", "transfer.push"} <= names, names
    metrics = tracing.layer_metrics(tracer, {}, 1.0, 1.0, 0)
    assert metrics["transfer.push_steps"][0] == 79  # one streamed push to n = 80
    assert metrics["thresholds.calibrated_steps"][0] == 80  # densities evaluated


def test_traced_decay_run_records_the_decay_span(tmp_path):
    cfg = default_config("decay", n_ladder=(64, 128))
    path = tmp_path / "decay.toml"
    path.write_text(cfg.to_toml(), encoding="utf-8")
    out = io.StringIO()
    with tracing.Tracer() as tracer:
        code = seqevl.cli.main(["decay", "--config", str(path), "--out", str(tmp_path)],
                               stdout=out, stderr=out)
    assert code in (0, 2), out.getvalue()
    assert "transfer.decay" in {s.name for s in tracer.spans}
    metrics = tracing.layer_metrics(tracer, {}, 1.0, 1.0, 0)
    assert metrics["transfer.decay_s"][0] > 0.0
