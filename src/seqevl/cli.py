"""Command-line entry point.

Every command first prints `validate_config`'s diagnostics, one line each
(`[ERROR]`, `[WARNING]`, or `[LEDGER]` for an exponent budget that holds),
and an error stops it there.  Exit codes: 0 when every check passes, 2 when
a quantitative check fails, 1 on usage, configuration or runtime errors.
INFO checks are reported and never fail a run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from .config import KINDS, ConfigError, default_config, load_config, validate_config
from .experiments import run_experiment


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="TOML config file")
    common.add_argument("--out", type=Path, help="override the output directory")
    parser = argparse.ArgumentParser(
        prog="seqevl",
        description="sequential intermittent maps: transfer operators and "
                    "extreme-value experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [*((kind, row.help) for kind, row in KINDS.items()),
                       ("validate", "check a configuration and report the exponent budgets")]:
        sub.add_parser(name, help=text, parents=[common])
    return parser


def _config_from_args(args) -> object:
    cfg = default_config() if args.config is None else load_config(args.config)
    if args.command in KINDS:
        cfg = replace(cfg, kind=args.command)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    return cfg


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0; a usage error exits 1, as 2 is a failed check
        return 1 if exc.code else 0
    try:
        cfg = _config_from_args(args)
        # every command's first stage, which an error ends
        diagnostics = validate_config(cfg)
        for diag in diagnostics:
            print(f"[{diag.severity.upper()}] {diag.code}: {diag.message}", file=stdout)
        if any(d.severity == "error" for d in diagnostics):
            return 1
        if args.command == "validate":
            print("configuration valid", file=stdout)
            return 0
        report = run_experiment(cfg)
        for check in report.checks:
            status = "INFO" if check.info else "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}: measured={check.measured:.6g} "
                  f"target={check.target:.6g} tol={check.tolerance:.6g}",
                  file=stdout)
        print(f"artifacts: {report.out_dir}", file=stdout)
        return 0 if report.passed else 2
    except (ConfigError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
