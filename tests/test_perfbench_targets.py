"""The benchmark's tracer patches program attributes by name, so a rename in
`src/` would break `perfbench/run.py --trace 1`; every target must exist,
and a traced run must complete.  The benchmark's own self-test, of its gate
and its tracer, must pass too."""

import subprocess
import sys
from pathlib import Path

import pytest

import seqevl.cli  # imports every module the tracer patches
from seqevl.config import default_config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import tracing  # noqa: E402

TARGETS = {**tracing.SPANS, **tracing.COUNTERS}


def test_benchmark_selftest_passes():
    ran = subprocess.run([sys.executable, str(PERFBENCH / "selftest.py")],
                         cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=120)
    assert ran.returncode == 0, ran.stdout + ran.stderr


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    owner, attr = tracing._target(tracing.program_modules(), TARGETS[name])
    assert attr in owner.__dict__, f"{name}: {TARGETS[name]} no longer exists"


def test_traced_run_records_the_threshold_spans(run_cli, tmp_path):
    """A whole run under the tracer: its wrappers must read every call shape
    the program uses (for example len() of calibrate_delta_ladder's densities)."""
    cfg = default_config("evl", n_ladder=(40, 80), n_samples=2000)
    with tracing.Tracer() as tracer:
        ran = run_cli("evl", "--out", str(tmp_path), config=cfg)
    assert ran.code in (0, 2), ran
    names = {s.name for s in tracer.spans}
    assert {"thresholds.build", "thresholds.calibrate", "transfer.push"} <= names, names
    metrics = tracing.layer_metrics(tracer, {}, 1.0, 1.0, 0)
    assert metrics["transfer.push_steps"][0] == 79  # one streamed push to n = 80
    assert metrics["thresholds.calibrated_steps"][0] == 80  # densities evaluated


# n = 40, 2,000 samples: calibrate and dprime walk every orbit 39 steps; d0
# walks t + ell - 1 steps, with ell = 6 and t = 4 and 19
@pytest.mark.parametrize("kind, span, sample_steps", [
    ("calibrate", "montecarlo.exceedances", [2000 * 39]),
    ("dprime", "montecarlo.dprime", [2000 * 39]),
    ("d0", "montecarlo.d0", [2000 * 9, 2000 * 24]),
], ids=["calibrate", "dprime", "d0"])
def test_traced_run_records_its_estimator_span(run_cli, tmp_path, kind, span, sample_steps):
    """The tracer binds each estimator's arguments by name to count the
    nominal map steps it walks."""
    with tracing.Tracer() as tracer:
        ran = run_cli(kind, "--out", str(tmp_path),
                      config=default_config(kind, n=40, n_samples=2000))
    assert ran.code in (0, 2), ran
    assert [s.info["sample_steps"] for s in tracer.spans if s.name == span] == sample_steps


def test_traced_decay_run_records_the_decay_span(run_cli, tmp_path):
    with tracing.Tracer() as tracer:
        ran = run_cli("decay", "--out", str(tmp_path),
                      config=default_config("decay", n_ladder=(64, 128)))
    assert ran.code in (0, 2), ran
    assert "transfer.decay" in {s.name for s in tracer.spans}
    metrics = tracing.layer_metrics(tracer, {}, 1.0, 1.0, 0)
    assert metrics["transfer.decay_s"][0] > 0.0
