"""The benchmark's inputs stay accepted: every op of every `perfbench/lab.py`
workload, at the default and the held-out seed, loads and validates with no
error or warning, and every flag `lab.call_cli` passes is one the CLI parser
accepts.  So no key or flag the benchmark writes can be deleted without a
change to the benchmark itself."""

import sys
from pathlib import Path

import pytest

from seqevl.cli import build_parser
from seqevl.config import kind_reads, load_config, validate_config

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import lab  # noqa: E402

OPS = [pytest.param(op, id=f"{workload}-{seed}-{op.name}") for workload in lab.WORKLOADS
       for seed in (lab.DEFAULT_SEED, lab.HELD_OUT_SEED)
       for op in lab.workload_ops(workload, seed)]
BUDGETS = ("mixing-gap-budget", "pair-sum-budget", "recurrence-budget", "block-gap-ordering")


@pytest.mark.parametrize("op", OPS)
def test_benchmark_op_validates_clean(op, tmp_path):
    (path,) = lab.write_configs([op], tmp_path).values()
    config = load_config(path)
    assert config.kind == op.kind
    diagnostics = validate_config(config)
    assert [d for d in diagnostics if d.severity in ("error", "warning")] == []
    # a kind that reads [exponents] (dprime) gets its four budgets, each holding
    budgets = BUDGETS if kind_reads(config, "exponents") else ()
    assert [(d.severity, d.code) for d in diagnostics] == [("ledger", name) for name in budgets]


def test_benchmark_flags_are_accepted(tmp_path):
    calls = []

    class Recorder:
        @staticmethod
        def main(argv, stdout, stderr):
            calls.append(argv)
            return 0

    ops = [op for workload in lab.WORKLOADS for op in lab.workload_ops(workload, lab.DEFAULT_SEED)]
    for op in ops:
        lab.call_cli(Recorder, op, tmp_path / f"{op.name}.toml", tmp_path / "out")
    assert len(calls) == len(ops)
    parser = build_parser()
    for op, argv in zip(ops, calls):
        args, unknown = parser.parse_known_args(argv)
        assert unknown == [], argv
        assert args.command == op.kind
        assert (args.config, args.out) == (tmp_path / f"{op.name}.toml", tmp_path / "out")
