"""Benchmark of the seqevl CLI: one workload per run, in this one process.

    python3 perfbench/run.py --workload cli-defaults --seed 0 --seconds 15 --trace 0

The run generates its TOML configs from --seed, then makes passes over the
workload's CLI calls, each into a fresh --out directory so the disk cache
starts cold.  The pass count is fixed per workload and scaled by --seconds
(lab.passes), so that it does not follow the speed of the code.  Every
pass goes through the output-correctness gate.

--trace 0 prints the end-to-end metrics; wall_s and cpu_s are the median
over passes.
--trace 1 runs one untraced pass and then one traced pass, and prints the
per-layer metrics of the traced pass; the wall-time difference between
the two is trace.overhead_s.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  A result file with the environment record
is written under perfbench/results/.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import gate
import lab
import tracing


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=lab.WORKLOADS)
    parser.add_argument("--seed", type=int, default=lab.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def kind_latency(results) -> dict:
    """Mean seconds per CLI call of each kind (0 for kinds the pass did not run)."""
    out = {}
    for kind in lab.CLI_DEFAULT_KINDS:
        secs = [r.seconds for r in results if r.op.kind == kind]
        out[kind] = sum(secs) / len(secs) if secs else 0.0
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = lab.cap_threads()
    load_before = lab.loadavg()
    try:
        cli = lab.load_seqevl()
        ops = lab.workload_ops(args.workload, args.seed)
    except (lab.BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    work = lab.WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        configs = lab.write_configs(ops, work / "configs")
        setup_s = lab.process_start_age()
        reference = gate.load_reference(args.workload, args.seed)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "ops": [{"name": op.name, "kind": op.kind, "config": op.toml()}
                          for op in ops],
                  "reference": reference is not None, "passes": []}
        out = work / "out"
        attempted, failed = 0, 0
        identical, problems, digest = [], [], None

        def one_pass(hook=None):
            nonlocal attempted, failed, digest
            results, wall, cpu = lab.run_pass(cli, ops, configs, out, hook)
            bad, found, same, digest = gate.check_pass(results, reference)
            attempted += len(results)
            failed += len(bad)
            identical.append(same)
            problems.extend(found)
            record["passes"].append({
                "wall_s": wall, "cpu_s": cpu, "failed_ops": bad,
                "outputs_digest": digest, "outputs_identical": same,
                "ops": [{"name": r.op.name, "seconds": r.seconds,
                         "exit_code": r.exit_code,
                         "experiment_id": r.out_dir.name if r.out_dir else None}
                        for r in results]})
            return results, wall, cpu

        if args.trace == 0:
            walls, cpus = [], []
            for _ in range(lab.passes(args.workload, args.seconds)):
                _, wall, cpu = one_pass()
                walls.append(wall)
                cpus.append(cpu)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (statistics.median(walls), "s"),
                "cpu_s": (statistics.median(cpus), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                                / 1024.0, "MB"),
            }
        else:
            _, untraced_wall, _ = one_pass()
            tracer = tracing.Tracer()

            def mark(op):
                tracer.experiment = op.name

            with tracer:
                results, traced_wall, _ = one_pass(mark)
            metrics = tracing.layer_metrics(
                tracer, kind_latency(results), traced_wall, untraced_wall,
                lab.dir_bytes(out / "cache"))
            record["spans"] = [vars(s) for s in tracer.spans]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if reference is None:
        verdict = (f"n/a: no reference for seed {args.seed}; checked exit codes "
                   "and each run's own checks only")
    else:
        verdict = str(all(identical)).lower()
    record.update(environment=lab.environment(nproc), load_before=load_before,
                  load_after=lab.loadavg(), attempted=attempted, failed=failed,
                  problems=problems, outputs_identical=verdict,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = lab.write_result(
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}", record)

    for p in problems:
        print(f"FAILED {p}")
    print(f"workload {args.workload} seed {args.seed}: {len(record['passes'])} pass(es), "
          f"ops {attempted}, ops_failed {failed}")
    print(f"outputs_identical {verdict}; outputs_digest {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"result file {path.relative_to(lab.ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
