"""Source checks over src/coxkit that no verdict depends on but that keep
dead work out: a local that is assigned and never read is a computation
whose result nobody looks at; and that keep verification out of assert
statements, which `python -O` strips."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxkit"

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(fn):
    """The nodes of fn's body, not descending into nested functions."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, FUNCTIONS):
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(tree) -> list:
    """(function, name) for every plain `name = ...` in a function body
    whose name is never read in that function or a function nested in it.
    Names starting with an underscore are exempt."""
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned, shared = set(), set()
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                assigned.update(t.id for t in node.targets
                                if isinstance(t, ast.Name))
            elif isinstance(node, ast.AnnAssign) and node.value is not None \
                    and isinstance(node.target, ast.Name):
                assigned.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read.update(node.target.id for node in ast.walk(fn)
                    if isinstance(node, ast.AugAssign)
                    and isinstance(node.target, ast.Name))
        found.extend((fn.name, name) for name in sorted(assigned - read - shared)
                     if not name.startswith("_"))
    return found


def test_no_function_assigns_a_local_it_never_reads():
    dead = {path.name: dead_locals(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py"))}
    assert not {k: v for k, v in dead.items() if v}


def test_dead_locals_sees_plain_assignments_only():
    tree = ast.parse(
        "def f(a):\n"
        "    unused = a + 1\n"
        "    _ignored = a\n"
        "    x, y = a\n"
        "    total = 0\n"
        "    total += a\n"
        "    kept = a * 2\n"
        "    def g():\n"
        "        return kept\n"
        "    return g\n")
    assert dead_locals(tree) == [("f", "unused")]


def test_growth_series_imports_nothing_from_coxkit():
    # the ball oracle must share no code with the kernel it checks
    imported = set()
    for node in ast.walk(ast.parse((SRC / "growth.py").read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert not {m for m in imported
                if m.startswith(".") or m.split(".")[0] == "coxkit"}


def test_no_assert_statements_in_the_program():
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found


def imported_modules(tree) -> set:
    """Top-level names of the modules a source tree imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module:
            found.add(node.module.split(".")[0])
    return found


def test_no_verdict_rests_on_a_sample():
    # the program decides every check exhaustively: random words live in
    # the tests, as cross-checks of the exact criteria
    found = [str(path.relative_to(SRC)) for path in sorted(SRC.rglob("*.py"))
             if "random" in imported_modules(ast.parse(path.read_text()))]
    assert not found


def test_imported_modules_sees_both_import_forms():
    tree = ast.parse("import random as r\nfrom random import choice\n"
                     "import os.path\nfrom . import certs\n")
    assert imported_modules(tree) == {"random", "os"}
