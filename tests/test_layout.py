"""`src/seqevl` holds what a run executes: every public top-level name of the
package modules is reached from the command-line entry point `cli.main`, and
every function, method and property, private ones and dunders included, is
called when `cli.main` runs a small matrix of configs.  Code that only tests
use belongs in `tests/reference.py`."""

import ast
import io
import os
import sys
from pathlib import Path

from seqevl import cli
from seqevl.config import MeshSpec, ObservableSpec, ScheduleSpec, default_config

SRC = Path(__file__).resolve().parents[1] / "src" / "seqevl"

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
    # the x2 mesh the operator route of ROADMAP item 1 pushes on
    "Mesh.refined",
}

# (command, config overrides) run under the profiler: every kind, every
# schedule mode, both mesh kinds and all three observable forms, each small
# enough that the matrix runs in about half a second; validate then checks
# the default config
RUNS = (
    ("evl", dict(n_ladder=(8, 16))),
    ("calibrate", dict(n=12, schedule=ScheduleSpec(mode="periodic", cycle=(0.05, 0.1)),
                       mesh=MeshSpec(kind="uniform", cells=32),
                       observable=ObservableSpec(form="power-pole"))),
    ("dprime", dict(n_ladder=(16, 24), schedule=ScheduleSpec(mode="iid"),
                    observable=ObservableSpec(form="power-cap"))),
    ("d0", dict(n=20, schedule=ScheduleSpec(mode="explicit", cycle=(0.1,) * 20))),
    ("decay", dict(n_ladder=(4, 8))),
    ("recurrence", {}),
    ("orbit", dict(n=10)),
)


def top_level_uses() -> dict:
    """Each top-level def, class or assignment of the package modules, mapped
    to the names and attribute names its body uses (bodies of one name in
    several modules are merged, which can only over-count the reached set)."""
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                continue
            used = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))}
            for name in names:
                uses.setdefault(name, set()).update(used)
    return uses


def test_every_public_name_is_reached_from_cli_main():
    uses = top_level_uses()
    reached, todo = set(), ["main"]
    while todo:
        name = todo.pop()
        if name in uses and name not in reached:
            reached.add(name)
            todo.extend(uses[name])
    unreached = {name for name in uses
                 if not name.startswith("_") and name not in reached}
    assert unreached == UNREACHED_ALLOWED


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


def test_every_function_runs_under_cli_main(tmp_path):
    """A function, method or property that no run calls serves only the
    tests.  The profiler sees every Python call, so a member that only
    shares its name with one a run calls is still caught."""
    package = os.path.dirname(cli.__file__)
    called = set()

    def profile(frame, event, arg):
        if event == "call" and os.path.dirname(frame.f_code.co_filename) == package:
            called.add(frame.f_code.co_qualname)

    runs = []
    for command, overrides in RUNS:
        config = tmp_path / f"{command}.toml"
        settings = {"n_samples": 200, "mesh": MeshSpec(cells=32), **overrides}
        config.write_text(default_config(command, **settings).to_toml(), encoding="utf-8")
        runs.append([command, "--config", str(config), "--out", str(tmp_path / "runs")])
    for argv in runs + [["validate"]]:
        sys.setprofile(profile)
        try:
            code = cli.main(argv, stdout=io.StringIO(), stderr=io.StringIO())
        finally:
            sys.setprofile(None)
        assert code in (0, 2), argv  # 1 is a config or runtime error
    assert defined_functions() - called == NEVER_CALLED_ALLOWED
