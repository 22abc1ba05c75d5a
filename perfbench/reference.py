"""Regenerate the committed reference outputs of the correctness gate.

    python3 perfbench/reference.py

Writes every workload's reference for the default and the held-out seed,
each one pass of the workload as the benchmark runs it.  References are
deterministic, so a workload a change does not touch gets the same bytes.
Only regenerate when a change is meant to alter outputs, and say so.
"""

import shutil
import sys

import lab


def main() -> int:
    lab.cap_threads()
    cli = lab.load_seqevl()
    import gate

    meta = {"workers": 1, "source_sha256": lab.source_digest(),
            "git_commit": lab.git_commit()}
    for workload in lab.WORKLOADS:
        for seed in (lab.DEFAULT_SEED, lab.HELD_OUT_SEED):
            ops = lab.workload_ops(workload, seed)
            work = lab.WORK / f"reference-{workload}-seed{seed}"
            try:
                configs = lab.write_configs(ops, work / "configs")
                results, wall, _ = lab.run_pass(cli, ops, configs, work / "out")
                collected = {r.op.name: gate.collect(r) for r in results}
                for name, got in collected.items():
                    problems = gate.own_checks(got)
                    if problems:
                        print(f"{workload} seed {seed} {name}: {problems}", file=sys.stderr)
                        return 1
                root = gate.save_reference(workload, seed, collected, meta)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            verdicts = {n: (g["exit_code"], sorted(k for k, v in g["checks"].items()
                                                    if v == "FAIL"))
                        for n, g in collected.items()}
            print(f"{workload} seed {seed}: {wall:.1f} s -> {root.relative_to(lab.ROOT)} "
                  f"(exit code, failing checks): {verdicts}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
