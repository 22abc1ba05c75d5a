"""`src/seqevl` holds what a run executes: every public top-level name of the
package modules is reached from the command-line entry point `cli.main`, and
every public method or property of its classes is read somewhere in `src/`.
Code that only tests use belongs in `tests/reference.py`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "seqevl"

# public names that no run reaches, each with the reason it stays
UNREACHED_ALLOWED = {
    # perfbench/tracing.py patches DiskCache methods; ROADMAP item 6 deletes both
    "DiskCache", "CacheCorruption",
    # the operator route of ROADMAP item 1 decides whether they stay
    "correlation_DC", "mc_correlation_DC",
}


# public methods and properties that no `src/` code reads, each with the
# reason it stays
UNREAD_MEMBERS_ALLOWED = {
    # the x2 mesh the operator route of ROADMAP item 1 pushes on
    "Mesh.refined",
    # the tests' measure of how far two densities are apart
    "Density.l1_distance",
}


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


def test_every_public_member_is_read_in_src():
    """A public method or property whose name no `src/` code reads as an
    attribute serves only the tests.  Members of a class allowed unreached as
    a whole go with that class."""
    read, members = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read.update(n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute))
        members.update(f"{node.name}.{item.name}" for node in tree.body
                       if isinstance(node, ast.ClassDef)
                       and node.name not in UNREACHED_ALLOWED
                       for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("_"))
    unread = {m for m in members if m.split(".")[1] not in read}
    assert unread == UNREAD_MEMBERS_ALLOWED
