"""Output-correctness gate for one pass of a workload.

Every op is checked on its own.  An op fails when the call raised, when its
exit code disagrees with its own summary, or, where a committed reference
exists for the workload and seed, when its exit code, a check verdict, a
table's shape, or a cell differs from the reference by more than the
tolerance:

* Monte Carlo columns (listed in MC_COLUMNS) may move by the row's own
  reference `se`;
* the event frequencies of d0 (BINOMIAL_COLUMNS) may move by their own
  binomial se, sqrt(p (1 - p) / n_samples), with p the reference value and
  n_samples from the op's config (the row's `se` is that of the gap);
* every other numeric cell (operator, threshold and parameter columns) may
  move by 1e-9 relative, because exact threshold inversion is expected to
  shift radii at the 1e-12 level;
* text cells must match exactly.

A FAIL verdict that matches the reference is a result, not a failed op.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

from lab import REFERENCE

MC_COLUMNS = {
    "evl": {"estimate", "se", "abs_error", "ci_low", "ci_high"},
    "calibration": {"mc_estimate", "se"},
    "dprime": {"pair_sum", "se", "ci_low", "ci_high"},
    "d0": {"gap", "se"},
}
BINOMIAL_COLUMNS = {"d0": {"p_event", "p_window"}}
REL_TOL = 1e-9


def collect(result) -> dict:
    """Exit code, check verdicts, n_samples and CSV bytes of one op's artifacts."""
    out = {"exit_code": result.exit_code, "passed": None, "checks": {}, "tables": {},
           "n_samples": None}
    if result.out_dir is None or not result.out_dir.is_dir():
        return out
    config = result.out_dir / "config.toml"
    if config.is_file():
        from seqevl.config import load_config
        out["n_samples"] = load_config(config).n_samples
    summary = result.out_dir / "summary.json"
    if summary.is_file():
        payload = json.loads(summary.read_text(encoding="utf-8"))
        out["passed"] = payload.get("passed")
        out["checks"] = {c["name"]: "PASS" if c["passed"] else "FAIL"
                         for c in payload.get("checks", [])}
    for path in sorted(result.out_dir.glob("*.csv")):
        out["tables"][path.stem] = path.read_bytes()
    return out


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(data: bytes) -> list:
    return list(csv.reader(io.StringIO(data.decode("utf-8"), newline="")))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_table(name: str, ref: bytes, got: bytes, n_samples: int | None) -> list[str]:
    """Problems found comparing one CSV table with its reference.

    Without n_samples the binomial columns must match exactly.
    """
    ref_rows, got_rows = _rows(ref), _rows(got)
    if not ref_rows or not got_rows or ref_rows[0] != got_rows[0]:
        return [f"{name}: header {got_rows[:1]} != reference {ref_rows[:1]}"]
    if len(ref_rows) != len(got_rows):
        return [f"{name}: {len(got_rows) - 1} rows != reference {len(ref_rows) - 1}"]
    header = ref_rows[0]
    mc = MC_COLUMNS.get(name, set())
    binomial = BINOMIAL_COLUMNS.get(name, set())
    se_col = header.index("se") if "se" in header else None
    problems = []
    for r, (want, have) in enumerate(zip(ref_rows[1:], got_rows[1:]), start=1):
        if len(want) != len(have):
            problems.append(f"{name} row {r}: {len(have)} cells != {len(want)}")
            continue
        for col, a, b in zip(header, want, have):
            x, y = _number(a), _number(b)
            if x is None or y is None:
                ok = a == b
            elif col in mc and se_col is not None:
                ok = abs(x - y) <= float(want[se_col])
            elif col in binomial:
                tol = math.sqrt(x * (1.0 - x) / n_samples) if n_samples else 0.0
                ok = abs(x - y) <= tol
            else:
                ok = x == y or math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)
            if not ok:
                problems.append(f"{name} row {r} {col}: {b} != reference {a}")
    return problems


def own_checks(got: dict) -> list[str]:
    """Checks that need no reference: a clean exit consistent with the summary."""
    code = got["exit_code"]
    if code is None:
        return ["call raised"]
    if code not in (0, 2):
        return [f"exit code {code} (configuration or runtime error)"]
    if got["passed"] is None:
        return ["no summary.json"]
    problems = []
    all_pass = all(v == "PASS" for v in got["checks"].values())
    if (code == 0) != bool(got["passed"]) or bool(got["passed"]) != all_pass:
        problems.append(f"exit code {code} disagrees with summary passed={got['passed']}")
    if not got["tables"]:
        problems.append("no CSV tables written")
    for name, data in got["tables"].items():
        rows = _rows(data)
        if not rows or any(len(row) != len(rows[0]) for row in rows):
            problems.append(f"{name}: ragged or empty CSV")
    return problems


def check_op(got: dict, ref: dict | None) -> tuple[list[str], bool | None]:
    """(problems, outputs byte-identical to the reference or None without one)."""
    problems = own_checks(got)
    if ref is None or got["exit_code"] is None:
        return problems, None
    if got["exit_code"] != ref["exit_code"]:
        problems.append(f"exit code {got['exit_code']} != reference {ref['exit_code']}")
    if got["checks"] != ref["checks"]:
        problems.append(f"verdicts {got['checks']} != reference {ref['checks']}")
    if set(got["tables"]) != set(ref["tables"]):
        problems.append(f"tables {sorted(got['tables'])} != reference {sorted(ref['tables'])}")
    identical = set(got["tables"]) == set(ref["tables"])
    for name in sorted(set(got["tables"]) & set(ref["tables"])):
        data, want = got["tables"][name], ref["tables"][name]
        if sha256(data) != sha256(want):
            identical = False
            problems.extend(compare_table(name, want, data, got["n_samples"]))
    return problems, identical


def check_pass(results, reference: dict | None):
    """Gate every op of one pass: (failed op names, problems, identical, digest)."""
    collected = {r.op.name: collect(r) for r in results}
    failed, problems, identical = [], [], True
    for r in results:
        ref = reference.get(r.op.name) if reference is not None else None
        if reference is not None and ref is None:
            found, same = [f"op {r.op.name} missing from the reference"], False
        else:
            found, same = check_op(collected[r.op.name], ref)
        if r.error and r.exit_code != 0:
            found = found + [r.error]
        if found:
            failed.append(r.op.name)
            problems.extend(f"{r.op.name}: {p}" for p in found)
        identical = identical and bool(same)
    return (failed, problems, identical if reference is not None else None,
            outputs_digest(collected))


def outputs_digest(collected: dict) -> str:
    """One digest over every CSV table of a pass, keyed by op and table."""
    h = hashlib.sha256()
    for op in sorted(collected):
        for name in sorted(collected[op]["tables"]):
            h.update(f"{op}/{name}.csv\0{sha256(collected[op]['tables'][name])}\n".encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# committed references


def reference_dir(workload: str, seed: int) -> Path:
    return REFERENCE / workload / f"seed-{seed}"


def load_reference(workload: str, seed: int) -> dict | None:
    root = reference_dir(workload, seed)
    index = root / "ops.json"
    if not index.is_file():
        return None
    ops = json.loads(index.read_text(encoding="utf-8"))["ops"]
    for name, entry in ops.items():
        tables = {}
        for table, digest in entry["tables"].items():
            data = (root / name / f"{table}.csv").read_bytes()
            if sha256(data) != digest:
                raise ValueError(f"reference {root / name / table}.csv does not match "
                                 "the digest in ops.json")
            tables[table] = data
        entry["tables"] = tables
    return ops


def save_reference(workload: str, seed: int, collected: dict, meta: dict) -> Path:
    root = reference_dir(workload, seed)
    if root.exists():
        shutil.rmtree(root)
    index = {}
    for name, got in collected.items():
        (root / name).mkdir(parents=True)
        for table, data in got["tables"].items():
            (root / name / f"{table}.csv").write_bytes(data)
        index[name] = {"exit_code": got["exit_code"], "checks": got["checks"],
                       "tables": {t: sha256(d) for t, d in sorted(got["tables"].items())}}
    payload = {"workload": workload, "seed": seed, **meta, "ops": index}
    (root / "ops.json").write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n",
                                   encoding="utf-8")
    return root
