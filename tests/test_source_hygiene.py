"""Source checks over src/coxkit that no verdict depends on but that keep
dead work out: a local that is assigned and never read is a computation
whose result nobody looks at, a public function that the program never
calls (or that no command runs) is code kept alive by its tests alone,
and a defaulted parameter that no program call sets is an option with
one value in use; that keep verification out of assert statements,
which `python -O` strips; and that keep one builder of trees of groups
(constructions.Builder.tree, over treeprod's edges), one walk of a tree
(TreeOfGroups.paths), two builders of subgroups (the memo
blueprint.GroupCache.root_subgroup and TreeProduct.image), a list that only shrinks of
callers of the one subgroup closure (treeprod.closure_words, which also
proves Builder.edge's maps, so no module defines a homomorphism check),
one root system per Coxeter context (roots.root_system), one caller of
the braid closure (Coxeter.reduced_words), the Coxeter kernel's memo
tables read by the kernel alone, and roots named by what they are, not by where a group
lists them; and that keep sweep items counted through the report, no
new certificate check with the constant status True and no new raise of
PreconditionError."""

import ast
import json
import os
import pathlib
import subprocess
import sys

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


def coxkit_imports(path) -> set:
    """The modules that path imports from coxkit, relative imports
    included."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    return {m for m in imported
            if m.startswith(".") or m.split(".")[0] == "coxkit"}


def test_growth_series_imports_nothing_from_coxkit():
    # the ball oracle must share no code with the kernel it checks
    assert not coxkit_imports(SRC / "growth.py")


def test_the_homomorphism_oracle_imports_nothing_from_coxkit():
    # nor the boundary-map oracle with Builder.edge
    assert not coxkit_imports(pathlib.Path(__file__).with_name(
        "homomorphisms.py"))


# standard-library modules that importing the program must not load:
# dataclasses writes each record's methods as source and execs it, and
# with inspect it pulls in ast, dis and tokenize, which no run reads
NOT_IMPORTED = {"dataclasses", "inspect"}


def test_importing_the_program_generates_no_code():
    # -S: no site hooks, so the modules loaded before the import are the
    # interpreter's own and the ones added are the program's
    snippet = ("import json, sys\n"
               "before = set(sys.modules)\n"
               "import coxkit.cli\n"
               "print(json.dumps([sorted(before), sorted(sys.modules)]))\n")
    done = subprocess.run([sys.executable, "-S", "-c", snippet],
                          env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                          stdout=subprocess.PIPE, text=True, timeout=60,
                          check=True)
    before, after = map(set, json.loads(done.stdout))
    assert {"coxkit.pipeline", "coxkit.reduction"} <= after - before
    assert not before & NOT_IMPORTED
    assert not (after - before) & NOT_IMPORTED, sorted(after - before)


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


# the modules that make edges and trees of groups: treeprod's own moves
# and constructions.Builder.tree, which every other module asks for a tree
TREE_BUILDERS = {"treeprod.py", "constructions.py"}


def tree_building_calls(tree) -> list:
    """The lines of tree that call Edge or TreeOfGroups, by name or as an
    attribute."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in ("Edge", "TreeOfGroups")
                 or getattr(node.func, "attr", None) in ("Edge", "TreeOfGroups"))]


def root_index_picks(tree) -> list:
    """The lines of tree that pick an entry of a `.roots` sequence by an
    integer literal, as in `grp.roots[3]` or `grp.roots[-1]`."""
    def literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "roots" and literal(node.slice)]


def test_trees_are_built_in_one_place_and_roots_are_named():
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    builders = {module: lines for module, tree in trees.items()
                if (lines := tree_building_calls(tree))
                and module not in TREE_BUILDERS}
    picks = {module: lines for module, tree in trees.items()
             if (lines := root_index_picks(tree))}
    assert not builders and not picks, (builders, picks)


def test_source_guards_see_calls_and_integer_root_picks():
    tree = ast.parse(
        "from coxkit import treeprod\n"
        "e = Edge('a', 'b', g, {}, {})\n"
        "t = treeprod.TreeOfGroups({}, [])\n"
        "x = Edge\n"
        "a = grp.roots[3]\n"
        "b = grp.roots[-1]\n"
        "c = grp.roots[i]\n"
        "d = grp.roots[1:]\n"
        "f = grp.other[0]\n")
    assert tree_building_calls(tree) == [2, 3]
    assert sorted(root_index_picks(tree)) == [5, 6]


# the one place in src/coxkit that builds a RootSystem: the accessor that
# keeps it on its context, so every caller of a context shares one system
ROOT_SYSTEM_BUILDERS = {("roots.py", "root_system")}
# the one place that computes a braid closure: Tits' solution is the
# Coxeter kernel's cross-check, computed once per element and checked
BRAID_CLOSURE_CALLERS = {("coxeter.py", "reduced_words")}


def scoped_nodes(tree, fn=None):
    """(innermost enclosing function or None, node) for each node below
    tree, in source order."""
    for child in ast.iter_child_nodes(tree):
        yield fn, child
        yield from scoped_nodes(child, child.name if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)


def calls_of(tree, name: str) -> list:
    """(innermost enclosing function or None, line) for each call of name
    in tree, by name or as an attribute."""
    return [(fn, node.lineno) for fn, node in scoped_nodes(tree)
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def callers_in_src(name: str) -> set:
    return {(str(path.relative_to(SRC)), fn)
            for path in sorted(SRC.rglob("*.py"))
            for fn, _ in calls_of(ast.parse(path.read_text()), name)}


# the two places in src/coxkit that build a Subgroup: the memo of root
# subgroups, the only builder over a blueprint group, so that one ambient
# group and root set is one object; and a tree product's image of a vertex
# subgroup, the member at a contracted vertex of a subgroup family
SUBGROUP_BUILDERS = {("blueprint.py", "root_subgroup"), ("treeprod.py", "image")}


# the one place in src/coxkit that certifies a blueprint group: the cache,
# as it builds the group from a prefix it certified first, so every group
# a cache hands out is certified and no caller certifies one by hand
GROUP_CERTIFIERS = {("blueprint.py", "group")}


# every caller in src/coxkit of the one subgroup-closure routine: a
# Subgroup closed from its generators; Builder.edge, which closes the
# graph of its root-label map and so proves it an injective homomorphism
# (no other program code checks a map as one: every other boundary map
# is an identity into a group with the edge group's product or is built
# from checked maps, and a subgroup embedding U_w -> U_a is read off the
# two groups' certificates); TheoremSetup's words for the letters of V;
# and the twin models' groups and V words.  The set may only shrink
CLOSURE_CALLERS = {("treeprod.py", "__new__"), ("constructions.py", "edge"),
                   ("reduction.py", "__init__"),
                   ("quadrangle.py", "_build_group"),
                   ("quadrangle.py", "v_group_words")}


# the one walk of a tree of groups: its paths, one search from each vertex,
# which validate reads for connectivity and TreeProduct for its hops
TREE_WALKERS = {("treeprod.py", "paths")}


def test_subgroups_are_built_only_by_the_memo_and_product_images():
    assert callers_in_src("Subgroup") == SUBGROUP_BUILDERS


def test_groups_are_certified_only_where_the_cache_builds_them():
    assert callers_in_src("certify_order") == GROUP_CERTIFIERS


def test_closures_are_computed_only_by_the_listed_callers():
    assert callers_in_src("closure_words") == CLOSURE_CALLERS
    defined = {node.name for path in SRC.rglob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
    assert "is_homomorphism" not in defined


def test_trees_are_walked_only_by_their_paths():
    assert callers_in_src("neighbors") == TREE_WALKERS


def test_root_systems_are_built_only_by_the_context_accessor():
    assert callers_in_src("RootSystem") == ROOT_SYSTEM_BUILDERS


def test_braid_closures_are_computed_only_by_reduced_words():
    assert callers_in_src("braid_closure") == BRAID_CLOSURE_CALLERS


def test_root_system_guard_sees_calls_by_name_and_attribute():
    tree = ast.parse(
        "rs = RootSystem(ctx)\n"
        "def f(ctx):\n"
        "    return roots.RootSystem(ctx)\n"
        "class C:\n"
        "    def g(self):\n"
        "        x = RootSystem\n"
        "        return [RootSystem(c) for c in self.ctxs]\n")
    assert calls_of(tree, "RootSystem") == [(None, 1), ("f", 3), ("g", 7)]


def test_braid_closure_guard_sees_calls_outside_reduced_words():
    tree = ast.parse(
        "from coxkit.wordops import braid_closure\n"
        "class Coxeter:\n"
        "    def reduced_words(self, w):\n"
        "        return wordops.braid_closure(w)\n"
        "    def ball(self, radius):\n"
        "        f = wordops.braid_closure\n"
        "        return {min(braid_closure(v)) for v in self.sphere}\n")
    assert calls_of(tree, "braid_closure") == [("reduced_words", 4), ("ball", 7)]


# the private names of Coxeter that another module may take: the slot in
# which roots.root_system keeps the context's one root system.  Every
# other module multiplies through mult_gen and mult, which hold the
# refusals, and never reads the kernel's memo tables
COXETER_PRIVATE_ALLOWED = {("roots.py", "_root_system")}


def private_members(tree, cls: str) -> set:
    """The private names that class cls defines in tree: its methods and
    the attributes its methods assign on self."""
    found = set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    found.add(sub.name)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store) \
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self":
                    found.add(sub.attr)
    return {name for name in found
            if name.startswith("_") and not name.endswith("__")}


def foreign_reads(tree, names: set) -> list:
    """(line, name) for each attribute of tree named in names and taken
    on anything but self, as `x.name` or `getattr(x, "name")`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in names \
                and not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr" \
                and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant) \
                and node.args[1].value in names:
            found.append((node.lineno, node.args[1].value))
    return sorted(found)


def test_only_the_kernel_reads_its_private_state():
    private = private_members(ast.parse((SRC / "coxeter.py").read_text()), "Coxeter")
    assert {"_right", "_canon", "_closure", "_step"} <= private
    found = {(str(path.relative_to(SRC)), name)
             for path in sorted(SRC.rglob("*.py")) if path.name != "coxeter.py"
             for _, name in foreign_reads(ast.parse(path.read_text()), private)}
    assert found == COXETER_PRIVATE_ALLOWED


def test_private_state_guard_sees_reads_off_self():
    kernel = ast.parse(
        "class Coxeter:\n"
        "    def __init__(self):\n"
        "        self._memo = {}\n"
        "        self._n: int = 0\n"
        "        self.public = 1\n"
        "    def _helper(self):\n"
        "        return self._memo\n")
    assert private_members(kernel, "Coxeter") == {"_memo", "_n", "_helper"}
    other = ast.parse(
        "def f(ctx):\n"
        "    ctx._memo['x'] = 1\n"
        "    return ctx._helper() + ctx.public\n"
        "class Mine:\n"
        "    def g(self, ctx):\n"
        "        return self._memo, getattr(ctx, '_n')\n")
    assert foreign_reads(other, {"_memo", "_n", "_helper"}) == [
        (2, "_memo"), (3, "_helper"), (6, "_n")]


# the functions outside certs.py that count sweep items by hand: the four
# lemmas sweeps and the axiom scan, whose per-item loops the benchmark
# times.  Every other sweep counts through SweepReport.require or expect,
# and this list may only shrink
HAND_COUNTED_SWEEPS = {
    ("lemmas.py", "verify_wordsincoxetergroup"),
    ("lemmas.py", "verify_not_both_down"),
    ("lemmas.py", "verify_mingallinrep"),
    ("lemmas.py", "verify_subset_lemma"),
    ("quadrangle.py", "verify_axioms"),
}

# the certificate checks whose status is the literal True, counted by
# function: passes that rest on nothing computed where they are recorded.
# This list may only shrink
CONSTANT_STATUS_ALLOWED = {
    ("pipeline.py", "cert_ccleftcright"): 1,
    ("pipeline.py", "cert_otog0"): 1,
    ("pipeline.py", "cert_main_application"): 1,
    ("reduction.py", "_trace_step"): 4,
}


def counter_stores(tree) -> list:
    """(innermost enclosing function or None, line) for each assignment,
    plain or augmented, to a `.tuples_checked` attribute."""
    return [(fn, node.lineno) for fn, node in scoped_nodes(tree)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and any(isinstance(target, ast.Attribute)
                    and target.attr == "tuples_checked"
                    for target in (node.targets if isinstance(node, ast.Assign)
                                   else [node.target]))]


def constant_status_checks(tree) -> list:
    """(innermost enclosing function or None, line) for each `.check` call
    whose status, its second argument or the keyword, is the literal True."""
    def literal_true(node):
        return isinstance(node, ast.Constant) and node.value is True
    return [(fn, node.lineno) for fn, node in scoped_nodes(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "check"
            and (len(node.args) > 1 and literal_true(node.args[1])
                 or any(k.arg == "status" and literal_true(k.value)
                        for k in node.keywords))]


def test_sweep_items_are_counted_through_the_report():
    found = {(str(path.relative_to(SRC)), fn)
             for path in sorted(SRC.rglob("*.py")) if path.name != "certs.py"
             for fn, _ in counter_stores(ast.parse(path.read_text()))}
    assert found == HAND_COUNTED_SWEEPS, sorted(found ^ HAND_COUNTED_SWEEPS)


def test_no_new_check_has_a_constant_status():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for fn, _ in constant_status_checks(ast.parse(path.read_text())):
            key = (str(path.relative_to(SRC)), fn)
            found[key] = found.get(key, 0) + 1
    assert found == CONSTANT_STATUS_ALLOWED


def test_count_and_status_guards_see_every_form():
    tree = ast.parse(
        "rep.tuples_checked = 0\n"
        "def sweep(rep, cert, ok):\n"
        "    rep.tuples_checked += 1\n"
        "    rep.require(ok)\n"
        "    cert.check('a', True)\n"
        "    cert.check('b', ok)\n"
        "    def inner():\n"
        "        cert.check('c', status=True)\n"
        "        rep.tuples_checked: int = 2\n"
        "    cert.check('d', 1)\n")
    assert counter_stores(tree) == [(None, 1), ("sweep", 3), ("inner", 9)]
    assert constant_status_checks(tree) == [("sweep", 5), ("inner", 8)]


# the raises of PreconditionError, counted by function: each refuses a
# request outside the class of residues, groups or trees that a statement
# of the paper is made for.  This list may only shrink
PRECONDITION_RAISES = {
    # R has rank 2, and a chosen letter s is one of its type letters
    ("constructions.py", "residue_letters"): 2,
    # V at the gate has index 2 in its parent U
    ("constructions.py", "v_spec"): 1,
    # Phi(w) lies inside Phi(ambient), so U_w is a subgroup of the ambient
    ("constructions.py", "image_of_u"): 1,
    # two glued vertex groups share a generating root (the edge group then
    # lies inside both: each vertex group is the closure of its roots)
    ("constructions.py", "edge"): 1,
    # vertex names are declared once and every edge names declared
    # vertices; the graph is a tree (edge checks the boundary maps, so
    # every issue validate finds in a Builder tree is one of shape)
    ("constructions.py", "tree"): 3,
    # the construction kind is one of the paper's six
    ("constructions.py", "vertex_plan"): 1,
    # R lies in T_{i,1}, and for V_Rs and O_Rs, l(w_R srs) = l(w_R)+3
    ("constructions.py", "construction"): 2,
    # the lemma is stated for gate-1 residues
    ("pipeline.py", "cert_krs_gminus1"): 1,
    ("pipeline.py", "cert_otog_minus1"): 1,
    # each requested gate word is the gate of its residue
    ("pipeline.py", "section4_pipeline"): 1,
}


def precondition_raises(tree) -> list:
    """(innermost enclosing function or None, line) for each raise of
    PreconditionError, by name or as an attribute, called or not, or
    picked by a conditional expression."""
    def named(node):
        if isinstance(node, ast.Call):
            node = node.func
        if isinstance(node, ast.IfExp):
            return named(node.body) or named(node.orelse)
        return "PreconditionError" in (getattr(node, "id", None),
                                       getattr(node, "attr", None))
    return [(fn, node.lineno) for fn, node in scoped_nodes(tree)
            if isinstance(node, ast.Raise) and node.exc is not None
            and named(node.exc)]


def test_precondition_errors_are_raised_only_where_listed():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        for fn, _ in precondition_raises(ast.parse(path.read_text())):
            key = (str(path.relative_to(SRC)), fn)
            found[key] = found.get(key, 0) + 1
    assert found == PRECONDITION_RAISES


def test_precondition_guard_sees_both_raise_shapes():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise PreconditionError('a')\n"
        "    raise (TreeError if x else PreconditionError)('b')\n"
        "class B:\n"
        "    def g(self):\n"
        "        raise constructions.PreconditionError\n"
        "    def h(self):\n"
        "        raise (PreconditionError if self else TreeError)('c')\n"
        "    def k(self):\n"
        "        raise TreeError('d')\n"
        "raise PreconditionError('e')\n")
    assert precondition_raises(tree) == [
        ("f", 3), ("f", 4), ("g", 7), ("h", 9), (None, 12)]


# public functions and methods that nothing in src/coxkit calls, each with
# the reason it stays
KEPT_WITHOUT_PROGRAM_CALLER = {
    "collect_seq": "the benchmark pins its call count as never called; "
                   "removing it is a benchmark change",
    "enumerate_constrained": "the benchmark's trace workload and the "
                             "reduction tests enumerate words with it",
}


def uncalled_public_functions(trees: dict) -> list:
    """(module, name) for each public module-level function or class
    method whose name occurs, as a name or an attribute, nowhere in the
    given {module: tree} sources outside its own definition."""
    defs, uses = [], []
    for module, tree in trees.items():
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            defs.extend((module, node) for node in scope.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not node.name.startswith("_"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.append((module, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                uses.append((module, node.lineno, node.attr))
    return [(module, fn.name) for module, fn in defs
            if not any(name == fn.name and not (
                where == module and fn.lineno <= line <= fn.end_lineno)
                for where, line, name in uses)]


def test_every_public_function_has_a_program_caller():
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    found = {name for _, name in uncalled_public_functions(trees)}
    assert found == set(KEPT_WITHOUT_PROGRAM_CALLER), \
        sorted(found ^ set(KEPT_WITHOUT_PROGRAM_CALLER))


def test_uncalled_public_functions_skips_private_and_self_calls():
    tree = ast.parse(
        "def used():\n"
        "    return 1\n"
        "def recursive(n):\n"
        "    return recursive(n - 1)\n"
        "def _private():\n"
        "    return used()\n"
        "class C:\n"
        "    def method(self):\n"
        "        return self.other()\n"
        "    def other(self):\n"
        "        return 2\n")
    assert uncalled_public_functions({"m.py": tree}) == [
        ("m.py", "recursive"), ("m.py", "method")]


# defaulted parameters that no call in src/coxkit sets, each with the
# reason the option stays
MUTANT = "the mutation harness: the program runs each sweep unmutated, and " \
         "the tests and the benchmark run every registered mutant"
UNSET_DEFAULTS_ALLOWED = {
    ("verify_wordsincoxetergroup", "mutant"): MUTANT,
    ("verify_not_both_down", "mutant"): MUTANT,
    ("verify_mingallinrep", "mutant"): MUTANT,
    ("verify_subset_lemma", "mutant"): MUTANT,
    ("main", "argv"): "the entry point: the console script passes none",
}


def defaulted_parameters(tree) -> list:
    """(qualified name, parameter, callee names, positional index, node)
    for each parameter with a default of each function in tree.  A
    method's index leaves out self, and __init__ is called by its class
    name; a keyword-only parameter has index None."""
    owner = {id(fn): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for fn in cls.body}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(fn))
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        skip = 1 if cls is not None and not static else 0
        qualname = fn.name if cls is None else f"{cls.name}.{fn.name}"
        names = {cls.name, fn.name} if cls is not None and fn.name == "__init__" \
            else {fn.name}
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        found.extend((qualname, arg.arg, names, i - skip, fn)
                     for i, arg in enumerate(positional) if i >= first)
        found.extend((qualname, arg.arg, names, None, fn)
                     for arg, default in zip(fn.args.kwonlyargs,
                                             fn.args.kw_defaults)
                     if default is not None)
    return found


def _sets(call, param: str, index) -> bool:
    """Whether call may pass param: by keyword, by position or through a
    starred argument."""
    return any(k.arg in (param, None) for k in call.keywords) \
        or any(isinstance(a, ast.Starred) for a in call.args) \
        or (index is not None and len(call.args) > index)


def unset_defaults(trees: dict) -> list:
    """(qualified name, parameter) for each defaulted parameter in the
    given {module: tree} sources that no call outside its own function
    passes, matching calls by the callee's name or attribute."""
    calls = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else \
                    func.attr if isinstance(func, ast.Attribute) else None
                calls.append((module, node, name))
    return [(qualname, param)
            for module, tree in trees.items()
            for qualname, param, names, index, fn in defaulted_parameters(tree)
            if fn.name not in KEPT_WITHOUT_PROGRAM_CALLER
            and not any(name in names and _sets(call, param, index)
                        and not (where == module
                                 and fn.lineno <= call.lineno <= fn.end_lineno)
                        for where, call, name in calls)]


def test_every_defaulted_parameter_is_set_by_a_program_caller():
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    found = set(unset_defaults(trees))
    assert found == set(UNSET_DEFAULTS_ALLOWED), \
        sorted(found ^ set(UNSET_DEFAULTS_ALLOWED))


def test_unset_defaults_reads_positions_keywords_and_classes():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3):\n"
        "    return f(a, 0, c=1, d=2)\n"
        "def g(a, b=1, c=2, *, d=3):\n"
        "    return a\n"
        "class C:\n"
        "    def __init__(self, x=0, y=0):\n"
        "        self.x = x\n"
        "    def m(self, z=0):\n"
        "        return z\n"
        "    @staticmethod\n"
        "    def s(z=0):\n"
        "        return z\n"
        "g(1, 2, d=4)\n"
        "C(1)\n"
        "C.s(1)\n"
        "C().m()\n")
    assert unset_defaults({"m.py": tree}) == [
        ("f", "b"), ("f", "c"), ("f", "d"), ("g", "c"), ("C.__init__", "y"),
        ("C.m", "z")]


# public functions and methods that none of the commands below runs, each
# with the reason it stays
NOT_REACHED_ALLOWED = {
    "TheoremSetup.enumerate_constrained":
        KEPT_WITHOUT_PROGRAM_CALLER["enumerate_constrained"],
    "collect_seq": KEPT_WITHOUT_PROGRAM_CALLER["collect_seq"],
    "TreeProduct.inv": "the group protocol (mul, inv, elements) that tree "
                       "products share with the vertex groups",
    "TreeProduct.elements": "the group protocol (mul, inv, elements) that "
                            "tree products share with the vertex groups",
}

README_TREE = """\
vertex v0 U sr
vertex v1 V :st
vertex v2 U trt
edge v0 v1
edge v1 v2
"""

# the profile hook is set before coxkit is imported, so every function
# the commands run is seen, memo or not
REACHED = """
import json
import sys
codes = set()
sys.setprofile(lambda frame, event, arg: codes.add(frame.f_code))
from coxkit.cli import main
out, tree = sys.argv[1:]
for argv in (["report", "--out", out + ".report.json"],
             ["verify", "blueprint", "--max-length", "2"],
             ["reduce", "--word", "u_sr,1,u_sr,u_t"],
             ["trace", "--word", "u_rt,u_t"],
             ["nf", "--tree", tree, "--word", "u_sr,u_s,u_sr"]):
    main(argv)
sys.setprofile(None)
with open(out, "w") as fh:
    json.dump(sorted({(c.co_filename, c.co_firstlineno) for c in codes}), fh)
"""


def public_functions(trees: dict) -> dict:
    """{(module, first line): qualified name} for each public module-level
    function and class method; the first line is that of the first
    decorator, as a code object counts it."""
    found = {}
    for module, tree in trees.items():
        for scope in [tree] + [n for n in tree.body if isinstance(n, ast.ClassDef)]:
            prefix = "" if scope is tree else scope.name + "."
            for node in scope.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not node.name.startswith("_"):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    found[module, first] = prefix + node.name
    return found


def test_public_functions_count_decorator_lines():
    tree = ast.parse(
        "def f():\n"
        "    pass\n"
        "class C:\n"
        "    @property\n"
        "    def p(self):\n"
        "        return 1\n"
        "    def _q(self):\n"
        "        return 2\n")
    assert public_functions({"m.py": tree}) == {("m.py", 1): "f", ("m.py", 4): "C.p"}


def test_every_public_function_is_reached_by_a_verdict(tmp_path):
    tree = tmp_path / "tree.txt"
    tree.write_text(README_TREE)
    out = tmp_path / "reached.json"
    path = os.pathsep.join(p for p in (str(SRC.parent), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", REACHED, str(out), str(tree)],
                          env=dict(os.environ, PYTHONPATH=path), cwd=tmp_path,
                          stdout=subprocess.DEVNULL, timeout=300)
    assert proc.returncode == 0
    reached = set()
    for filename, line in json.loads(out.read_text()):
        module = pathlib.Path(filename).resolve()
        if module.is_relative_to(SRC):
            reached.add((str(module.relative_to(SRC)), line))
    trees = {str(path.relative_to(SRC)): ast.parse(path.read_text())
             for path in sorted(SRC.rglob("*.py"))}
    found = {name for key, name in public_functions(trees).items()
             if key not in reached}
    assert found == set(NOT_REACHED_ALLOWED), \
        sorted(found ^ set(NOT_REACHED_ALLOWED))
