"""`src/seqevl` holds what a run executes: every public top-level name of the
package modules is reached from the command-line entry point `cli.main`, and
every function, method and property, private ones and dunders included, is
called when `cli.main` runs a small matrix of configs.  Code that only tests
use belongs in `tests/reference.py`, and each of its functions and classes
is reached from some test.  `validate_config` and `cli` name no kind, and
`experiments` names one only to map it to its runner.  Every config key is
read by some kind, no package module imports another's private name, only
`cli` prints, and tests reach the CLI only through conftest's `run_cli`.
README's Quick start block runs against the package as it stands, and its
imports are all the package exports."""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import seqevl
from seqevl import cli
from seqevl.config import (KINDS, ExperimentConfig, ScheduleSpec, _flat,
                           default_config, kind_reads)

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "seqevl"

# public names that no run reaches, each with the reason it stays
UNREACHED_ALLOWED = {
    # perfbench/tracing.py patches DiskCache methods; ROADMAP item 6a deletes it
    "DiskCache",
}


# functions, methods and properties that no run calls, each with the reason
# it stays
NEVER_CALLED_ALLOWED = {
    # perfbench/tracing.py patches the DiskCache methods; ROADMAP item 6a
    # deletes them with the class
    "DiskCache.load_trajectory", "DiskCache.store_trajectory",
}

# config keys that no kind reads under any schedule mode, each with the
# reason it stays
UNREAD_KEYS_ALLOWED = {
    "out_dir",  # where a run is written, not what it computes
    # perfbench/lab.py still writes it; ROADMAP item 6a deletes it
    "workers",
}

# (command, config overrides) run under the profiler: every kind and every
# schedule mode, each small enough that the matrix runs in about half a
# second; calibrate's 20 samples give its exceedance
# estimates fewer than 10 hits, the exact Clopper-Pearson branch; validate
# then checks the default config
RUNS = (
    ("evl", dict(n_ladder=(8, 16))),
    ("calibrate", dict(n=12, n_samples=20,
                       schedule=ScheduleSpec(mode="periodic", cycle=(0.05, 0.1)))),
    ("dprime", dict(n_ladder=(16, 24), schedule=ScheduleSpec(mode="iid"))),
    ("d0", dict(n=20)),
    ("decay", dict(n_ladder=(4, 8))),
    ("recurrence", {}),
    ("orbit", dict(n=10)),
)


def run_matrix(tmp_path) -> list:
    """The CLI argument lists of RUNS, configs written under tmp_path, then
    validate."""
    runs = []
    for command, overrides in RUNS:
        config = tmp_path / f"{command}.toml"
        settings = {"n_samples": 200, **overrides}
        config.write_text(default_config(command, **settings).to_toml(), encoding="utf-8")
        runs.append([command, "--config", str(config), "--out", str(tmp_path / "runs")])
    return runs + [["validate"]]


def names_used(node) -> set:
    """The names and attribute names read anywhere under an ast node."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def top_level_uses(paths) -> dict:
    """Each top-level def, class or assignment of the modules at paths, mapped
    to the names and attribute names its body uses (bodies of one name in
    several modules are merged, which can only over-count the reached set)."""
    uses = {}
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                uses.setdefault(name, set()).update(names_used(node))
    return uses


def reached_from(uses: dict, roots) -> set:
    """The top-level names of uses that roots reach through their bodies."""
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in uses and name not in reached:
            reached.add(name)
            todo.extend(uses[name])
    return reached


def test_every_public_name_is_reached_from_cli_main():
    uses = top_level_uses(path for path in sorted(SRC.glob("*.py"))
                          if path.name != "__init__.py")
    reached = reached_from(uses, ["main"])
    unreached = {name for name in uses
                 if not name.startswith("_") and name not in reached}
    assert unreached == UNREACHED_ALLOWED


def test_reference_holds_only_what_tests_reach():
    """Every top-level function and class of `tests/reference.py` is read
    in some `tests/test_*.py` (an import alone does not count), or reached
    from one through the bodies of `reference.py`: a reference no test
    compares against is code kept alive by nothing."""
    tests = ROOT / "tests"
    named = set().union(*(names_used(ast.parse(path.read_text(encoding="utf-8")))
                          for path in sorted(tests.glob("test_*.py"))))
    reference = tests / "reference.py"
    defined = {node.name for node in ast.parse(reference.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined - reached_from(top_level_uses([reference]), named) == set()


def defined_functions() -> set:
    """Qualified names of the top-level functions of the package modules and
    of the methods and properties of their classes."""
    names = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                names.add(node.name)
            elif isinstance(node, ast.ClassDef):
                names.update(f"{node.name}.{item.name}" for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return names


# run in a fresh interpreter: run_matrix's argument lists through cli.main,
# then print which functions of the package ran, which of numpy's lazily
# imported subpackages and of scipy are loaded, which numpy.linalg functions
# ran and which numpy sort-family calls were made: the ndarray sort methods
# as C calls, and numpy's Python-level sort, unique and lexsort (whose C
# body sits behind a Python dispatcher, so the profiler sees no C call of
# it).  Python's sorted and list.sort are not numpy's and do not count.
FOOTPRINT = """
import io, json, os, sys
import numpy
from seqevl import cli
package, ran = os.path.dirname(cli.__file__), set()
linalg, called = os.path.dirname(numpy.linalg.__file__), set()
home, sorts = os.path.dirname(numpy.__file__) + os.sep, set()
def profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if os.path.dirname(code.co_filename) == package:
            ran.add(code.co_qualname)
        if os.path.dirname(code.co_filename) == linalg:
            called.add(code.co_qualname)
        if code.co_filename.startswith(home) and code.co_name in ("sort", "unique", "lexsort"):
            sorts.add(code.co_qualname)
    elif (event == "c_call" and isinstance(getattr(arg, "__self__", None), numpy.ndarray)
          and arg.__name__ in ("sort", "argsort", "partition", "argpartition")):
        sorts.add("ndarray." + arg.__name__)
codes = []
sys.setprofile(profile)
for argv in json.loads(sys.argv[1]):
    codes.append(cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO()))
sys.setprofile(None)
print(json.dumps({"codes": codes, "ran": sorted(ran), "linalg": sorted(called),
                  "sorts": sorted(sorts),
                  "loaded": [m for m in ("numpy.ma", "numpy.polynomial", "numpy.random", "scipy")
                             if m in sys.modules]}))
"""


@pytest.fixture(scope="module")
def footprint(tmp_path_factory) -> dict:
    """FOOTPRINT's report on run_matrix, each run of which must exit 0 or 2
    (1 is a config or runtime error)."""
    runs = run_matrix(tmp_path_factory.mktemp("matrix"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(runs)],
                          capture_output=True, text=True, env=env, check=True)
    report = json.loads(done.stdout)
    if not all(code in (0, 2) for code in report["codes"]):
        pytest.fail(f"a run exited 1: {report['codes']}")
    return report


def test_every_function_runs_under_cli_main(footprint):
    """A function, method or property that no run calls serves only the
    tests.  The profiler sees every Python call, so a member that only
    shares its name with one a run calls is still caught."""
    assert defined_functions() - set(footprint["ran"]) == NEVER_CALLED_ALLOWED


def test_runs_load_only_what_they_compute_with(footprint):
    """No run needs numpy.ma, numpy.polynomial or a numpy.linalg routine,
    which sets up LAPACK: together about 2.5 MB of a run's peak memory.
    Nor does one need numpy.random, whose Philox streams `_rng.uniforms`
    draws in plain numpy (2.2 MB), or scipy: an exact Clopper-Pearson
    interval, which the calibrate run reaches, sums binomial tails.  Nor
    does one sort with numpy, whose sort kernels fault in 0.3-0.4 MB of
    code pages: ladders are sorted in Python, the calibration kinks merged
    from two sorted runs and the recurrence nodes built in order."""
    assert (footprint["loaded"], footprint["linalg"], footprint["sorts"]) == ([], [], [])


def test_declared_dependencies_are_the_imported_ones():
    """Every import of the package sits at module top level, so that no
    stage timer is charged with loading a module, and the third-party
    modules they name are the `[project] dependencies` of pyproject.toml."""
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                assert node in tree.body, f"{path.name}:{node.lineno} imports below top level"
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif node.level == 0:
                    imported.add(node.module.split(".")[0])
    with open(ROOT / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[\w.-]+", requirement).group() for requirement in declared}
    assert imported - set(sys.stdlib_module_names) - {"seqevl"} == names


def test_no_module_imports_another_modules_private_name():
    """A package module imports only public names from another: a private
    helper has one home and one caller set, its own module's.  The private
    modules `_numeric` and `_rng` share their public names."""
    private = [f"{path.name}:{node.lineno} {node.module}.{alias.name}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_only_the_cli_prints():
    """The CLI is the one report path: no other package module calls
    `print` or names `sys.stdout` or `sys.stderr`, so what a run or a
    config has to say reaches the terminal only as what `cli.main` prints."""
    streams = {"stdout", "stderr"}
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py")) if path.name != "cli.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name) and node.id == "print"
             or isinstance(node, ast.Attribute) and node.attr in streams
             and ast.unparse(node.value) == "sys"
             or isinstance(node, ast.ImportFrom) and node.module == "sys"
             and streams & {alias.name for alias in node.names}]
    assert found == []


def test_tests_reach_the_cli_through_one_harness():
    """No test module imports `main` from `seqevl.cli` or reads `cli.main`:
    each runs the CLI through conftest's `run_cli` (FOOTPRINT is a string)."""
    found = [f"{path.name}:{node.lineno}" for path in sorted((ROOT / "tests").glob("test_*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "seqevl.cli"
             and "main" in {alias.name for alias in node.names}
             or isinstance(node, ast.Attribute) and node.attr == "main"
             and ast.unparse(node.value).split(".")[-1] == "cli"]
    assert found == []


def test_every_key_is_read_by_some_kind():
    """A key that no kind reads, under any schedule mode, is a knob that
    does nothing."""
    configs = [default_config(kind, schedule=ScheduleSpec(mode=mode))
               for kind in KINDS for mode in ScheduleSpec.READS]
    read = {key for config in configs for key in _flat(config) if kind_reads(config, key)}
    assert set(_flat(ExperimentConfig())) - read == UNREAD_KEYS_ALLOWED


def test_validate_and_cli_name_no_kind():
    """`validate_config` and `cli` read each kind's row of `KINDS`, so no
    string constant in them names a kind.
    A runner reads its row through `config.kind`, so in `experiments` a kind
    is named only as a key of `_RUNNERS`, or as the name of a table a runner
    writes (`evl.csv`), which is a file name."""
    guarded = [node for node in ast.parse((SRC / "config.py").read_text(encoding="utf-8")).body
               if isinstance(node, ast.FunctionDef) and node.name == "validate_config"]
    assert guarded
    guarded.append(ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))
    named = [(node.lineno, node.value) for tree in guarded for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in KINDS]
    experiments = ast.parse((SRC / "experiments.py").read_text(encoding="utf-8"))
    exempt = {id(key) for node in ast.walk(experiments)
              if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
              and [getattr(t, "id", None) for t in node.targets] in (["_RUNNERS"], ["tables"])
              for key in node.value.keys}
    assert len(exempt) > len(KINDS)  # the runner keys and the table names were found
    named += [(node.lineno, node.value) for node in ast.walk(experiments)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value in KINDS and id(node) not in exempt]
    assert named == []


def quick_start() -> str:
    """README's one python block, the Quick start."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    return block


def test_package_exports_the_quick_start_names():
    # every other name has one import route, its module
    (imported,) = [node for node in ast.walk(ast.parse(quick_start()))
                   if isinstance(node, ast.ImportFrom) and node.module == "seqevl"]
    assert sorted(seqevl.__all__) == sorted(alias.name for alias in imported.names)


def test_readme_quick_start_runs():
    block = quick_start()
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), namespace)
    est = namespace["est"]
    assert out.getvalue() == f"{est.value} target {math.exp(-1.0)}\n"
    assert abs(est.value - math.exp(-1.0)) <= 0.05 + 2.0 * est.se
