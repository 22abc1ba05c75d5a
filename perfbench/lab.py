"""Shared pieces of the benchmark: locating the program, the workloads,
one pass of CLI calls, and the environment record.

A workload is a fixed list of CLI calls ("ops").  Every input is derived
from the workload seed, written as a TOML file, and handed to
`seqevl.cli.main` exactly as `seqevl <kind> --config FILE --out DIR` would.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import platform
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / "work"
RESULTS = BENCH_DIR / "results"
REFERENCE = BENCH_DIR / "reference"

DEFAULT_SEED = 0
HELD_OUT_SEED = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program source, bad arguments)."""


def cap_threads() -> int:
    """Cap native thread pools at the core count before numpy is imported."""
    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ.setdefault(var, str(nproc))
    return nproc


def load_seqevl():
    """Import the program from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "seqevl" / "__init__.py").is_file():
        raise BenchError(f"program source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import seqevl
    from seqevl import cli
    if Path(seqevl.__file__).resolve().parent != (SRC / "seqevl").resolve():
        raise BenchError(f"imported seqevl from {seqevl.__file__}, not {SRC}")
    return cli


def derive(seed: int, *labels) -> int:
    """Experiment seed derived from the workload seed and a label path."""
    text = ":".join(str(p) for p in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Op:
    """One CLI call: `seqevl <kind> --config <name>.toml --out <pass dir>`."""

    name: str
    kind: str
    settings: tuple  # (key, value) pairs written as top-level TOML keys

    def toml(self) -> str:
        lines = [f'kind = "{self.kind}"']
        for key, value in self.settings:
            if isinstance(value, (list, tuple)):
                value = "[" + ", ".join(str(v) for v in value) + "]"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"


# why each workload exists: README.md and BENCHMARK.json
WORKLOADS = ("cli-defaults", "horizon-ladder", "seed-sweep", "operator-only")

CLI_DEFAULT_KINDS = ("evl", "calibrate", "dprime", "d0", "decay", "recurrence", "orbit")

# Passes per run at --seconds 15, scaled by --seconds.  The count does not
# follow the speed of the code, so every run of a workload does the same work
# on every commit.
PASSES_AT_15S = {"cli-defaults": 1, "horizon-ladder": 1, "seed-sweep": 1, "operator-only": 3}


def passes(workload: str, seconds: float) -> int:
    return max(1, round(PASSES_AT_15S[workload] * seconds / 15))


def workload_ops(workload: str, seed: int) -> list[Op]:
    """The ops of a workload, all with workers=1 (see README.md for why)."""
    x0 = 0.05 + 0.9 * (derive(seed, workload, "x0") / 2 ** 32)
    if workload == "cli-defaults":
        ops = []
        for i, kind in enumerate(CLI_DEFAULT_KINDS):
            settings = [("workers", 1)]
            if kind in ("evl", "calibrate", "dprime", "d0"):
                settings.append(("seed", derive(seed, workload, kind)))
            if kind == "orbit":
                settings.append(("x0", x0))
            ops.append(Op(f"{i:02d}-{kind}", kind, tuple(settings)))
        return ops
    if workload == "horizon-ladder":
        return [Op("00-evl", "evl", (("n_ladder", (250, 500, 1000, 2000)),
                                     ("n_samples", 20_000),
                                     ("seed", derive(seed, workload, "evl")),
                                     ("workers", 1)))]
    if workload == "seed-sweep":
        ops = []
        for rep in range(3):
            rep_seed = derive(seed, workload, rep)
            for kind in ("evl", "dprime"):
                ops.append(Op(f"{len(ops):02d}-{kind}", kind,
                              (("n", 250), ("n_samples", 400_000),
                               ("seed", rep_seed),
                               ("workers", 1))))
        return ops
    if workload == "operator-only":
        return [Op("00-decay", "decay",
                   (("n_ladder", tuple(2 ** k for k in range(6, 16))),)),
                Op("01-recurrence", "recurrence", ()),
                Op("02-orbit", "orbit", (("x0", x0),))]
    raise BenchError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_configs(ops, config_dir: Path) -> dict:
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for op in ops:
        path = config_dir / f"{op.name}.toml"
        path.write_text(op.toml(), encoding="utf-8")
        paths[op.name] = path
    return paths


# ---------------------------------------------------------------------------
# one pass


@dataclass
class OpResult:
    op: Op
    exit_code: int | None  # None when the call raised
    error: str
    out_dir: Path | None
    seconds: float


def call_cli(cli, op: Op, config: Path, out: Path) -> OpResult:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        code = cli.main([op.kind, "--config", str(config), "--out", str(out)],
                        stdout=stdout, stderr=stderr)
        error = stderr.getvalue().strip()
    except (Exception, SystemExit) as exc:  # a crash is a failed op, not a dead run
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    out_dir = None
    for line in stdout.getvalue().splitlines():
        if line.startswith("artifacts: "):
            out_dir = Path(line[len("artifacts: "):])
    return OpResult(op, code, error, out_dir, seconds)


def run_pass(cli, ops, configs: dict, out: Path, hook=None):
    """Run every op once into a fresh output directory (cold disk cache).

    Returns (results, wall seconds, process CPU seconds of all threads).
    `hook(op)` is called before each op, outside nothing the caller times.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    results = []
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for op in ops:
        if hook is not None:
            hook(op)
        results.append(call_cli(cli, op, configs[op.name], out))
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return results, wall, cpu


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def loadavg() -> str:
    return _read("/proc/loadavg").strip()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting a process."""
    head = _read(str(ROOT / ".git" / "HEAD")).strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    loose = _read(str(ROOT / ".git" / ref)).strip()
    if loose:
        return loose
    for line in _read(str(ROOT / ".git" / "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    """SHA-256 over the program's source files; identifies a checkout without git."""
    h = hashlib.sha256()
    for path in sorted((SRC / "seqevl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(nproc: int) -> dict:
    import numpy
    import scipy
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 2 prints instead of returning a dict
        blas = None
    return {
        "nproc": nproc,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas": blas,
        "platform": platform.platform(),
    }


def process_start_age() -> float:
    """Seconds since this process was created, from /proc/self/stat."""
    stat = _read("/proc/self/stat")
    try:
        start_ticks = int(stat.rsplit(")", 1)[1].split()[19])
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
    except (IndexError, ValueError, AttributeError, OSError) as exc:
        raise BenchError(f"cannot read this process's start time from /proc: {exc}")
    return now - start_ticks / os.sysconf("SC_CLK_TCK")


def write_result(name: str, payload: dict) -> Path:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{name}.json"
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
