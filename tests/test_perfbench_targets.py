"""The benchmark's tracer patches program attributes by name, so a rename in
`src/` would break `perfbench/run.py --trace 1`; every target must exist."""

import sys
from pathlib import Path

import pytest

import seqevl.cli  # noqa: F401  (imports every module the tracer patches)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

TARGETS = {**tracing.SPANS, **tracing.COUNTERS}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_trace_target_resolves(name):
    owner, attr = tracing._target(tracing.program_modules(), TARGETS[name])
    assert attr in owner.__dict__, f"{name}: {TARGETS[name]} no longer exists"
