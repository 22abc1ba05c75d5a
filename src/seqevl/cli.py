"""Command-line entry point.

Exit codes: 0 when every check passes, 2 when a quantitative check fails,
1 on usage, configuration or runtime errors.  INFO checks are reported and
never fail a run.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from .config import (READS, ConfigError, default_config, ledger_report,
                     load_config, validate_config)
from .experiments import run_experiment

_COMMAND_HELP = {
    "evl": "estimate the no-exceedance probability against exp(-tau)",
    "calibrate": "build the threshold ladder and cross-check it by simulation",
    "dprime": "within-block exceedance pair sums over a horizon ladder",
    "d0": "mixing gap between an exceedance and a later clear window",
    "decay": "loss-of-memory distances for equal-mass inputs",
    "recurrence": "measures of fast-returning sets and their scaling",
    "orbit": "print one sequential orbit",
    "validate": "check a configuration and report the exponent budgets",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="TOML config file")
    common.add_argument("--seed", type=int, help="override the RNG seed")
    common.add_argument("--out", type=Path, help="override the output directory")
    common.add_argument("--mesh", type=int, help="override the mesh cell count")
    parser = argparse.ArgumentParser(
        prog="seqevl",
        description="sequential intermittent maps: transfer operators and "
                    "extreme-value experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMAND_HELP.items():
        sub.add_parser(name, help=text, parents=[common])
    return parser


def _config_from_args(args) -> object:
    kind = args.command if args.command in READS else "evl"
    if args.config is not None:
        cfg = load_config(args.config)
        if args.command in READS:
            cfg = replace(cfg, kind=args.command)
    else:
        cfg = default_config(kind)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    if args.mesh is not None:
        cfg = replace(cfg, mesh=replace(cfg.mesh, cells=args.mesh))
    return cfg


def _run_validate(cfg, stdout) -> int:
    diagnostics = validate_config(cfg)
    for diag in diagnostics:
        print(f"[{diag.severity.upper()}] {diag.code}: {diag.message}",
              file=stdout)
    if any(d.severity == "error" for d in diagnostics):
        return 1
    for check in ledger_report(cfg):
        flag = "ok" if check.satisfied else "violated"
        print(f"[LEDGER] {check.name}: {flag} "
              f"(lhs={check.lhs:.6g}, rhs={check.rhs:.6g})", file=stdout)
    print("configuration valid", file=stdout)
    return 0


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
        if args.command == "validate":
            return _run_validate(cfg, stdout)
        report = run_experiment(cfg)
        for warn in report.warnings:
            print(f"[WARN] {warn.code}: {warn.message}", file=stdout)
        for check in report.checks:
            status = "INFO" if check.info else "PASS" if check.passed else "FAIL"
            print(f"[{status}] {check.name}: measured={check.measured:.6g} "
                  f"target={check.target:.6g} tol={check.tolerance:.6g}",
                  file=stdout)
        print(f"artifacts: {report.out_dir}", file=stdout)
        return 0 if report.passed else 2
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
