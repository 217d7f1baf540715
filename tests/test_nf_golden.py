"""Exact normal forms pinned against tests/golden/nf_battery.txt.

The golden file holds the flatten_word letters (the carry at the root,
unless trivial, then the normal form's letters) of seeded random words in
the subgroup-theorem product U_sr * V * U_trt and in V_R, O_R and O_Rs at
the gate-1 st-residue, in V_R contracted so that one vertex is itself a
tree product, and the `coxkit nf` output for the README tree.
Any move in the choice of coset representatives shows up here.

Regenerate (only for an intended change of normal forms) from the
repository root with

    PYTHONPATH=src:tests python -c "import test_nf_golden as t; t.write_golden()"
"""

import ast
import contextlib
import io
import os
import random
import tempfile

from coxkit.cli import main
from coxkit.constructions import Builder
from coxkit.treeprod import TreeProduct, contract
from nested_oracle import NestedProduct
from walks import random_word

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "nf_battery.txt")
WORDS = 100
README_TREE = """\
vertex v0 U sr
vertex v1 V :st
vertex v2 U trt
edge v0 v1
edge v1 v2
"""


def _any_letters(tog, rng, length: int) -> list:
    """Letters at random vertices, identity and edge-group images included."""
    verts = sorted(tog.vertices)
    word = []
    for _ in range(length):
        v = rng.choice(verts)
        word.append((v, rng.choice(list(tog.vertices[v].elements()))))
    return word


def _words(label: str, product, seed: int, source=None, translate=None):
    """(line name, product, word) for seeded words drawn in `source`
    (default: product itself), mapped into product by `translate`."""
    source = source or product
    rng = random.Random(seed)
    for i in range(WORDS):
        for kind in ("reduced", "any"):
            length = rng.randint(1, 6)
            if kind == "reduced":
                word = random_word(source, rng, length)
            else:
                word = _any_letters(source.tog, rng, length)
            if translate is not None:
                word = translate(word)
            yield f"{label} {kind} {i}", product, word


def battery_words(cache, setup) -> list:
    """(line name, product, word) for every word of the golden file."""
    b = Builder(cache)
    ctx = b.ctx
    R = ctx.residue("st", "")
    entries = list(_words("U_sr*V*U_trt", setup.product, 1))
    cons = {kind: b.construction(kind, R) for kind in ("V_R", "O_R", "O_Rs")}
    for seed, (kind, c) in enumerate(cons.items(), start=2):
        entries += _words(kind, TreeProduct(c.tog), seed)
    # V_R with {v1, v2} contracted to a vertex carrying its own tree product
    vr = cons["V_R"]
    tog2, name, sub = contract(vr.tog, {"v1", "v2"})

    def translate(word):
        return [(name, sub.include(v, x)) if v in ("v1", "v2") else (v, x)
                for v, x in word]
    entries += _words("V_R contracted", TreeProduct(tog2), 6,
                      TreeProduct(vr.tog), translate)
    return entries


def battery_text(cache, setup) -> str:
    lines = [f"{name}: {product.flatten_word(product.eval_word(word))!r}"
             for name, product, word in battery_words(cache, setup)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "tree.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(README_TREE)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["nf", "--tree", path, "--word", "u_sr,u_s,u_sr"])
    lines.append(f"nf README tree u_sr,u_s,u_sr exit {code}:")
    lines.append(out.getvalue().rstrip("\n"))
    return "\n".join(lines) + "\n"


def write_golden() -> None:
    from coxkit.blueprint import GroupCache
    from coxkit.coxeter import standard_coxeter
    from coxkit.reduction import TheoremSetup
    cache = GroupCache(standard_coxeter())
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        fh.write(battery_text(cache, TheoremSetup(cache)))


def test_nf_battery_golden(cache, theorem_setup):
    with open(GOLDEN, encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert battery_text(cache, theorem_setup).splitlines() == want


def test_golden_letters_are_the_nested_value_of_each_word(cache, theorem_setup):
    """The pinned letters of every golden word, evaluated by the nested
    oracle, equal the oracle's value of the word itself; the flat and
    nested forms give the same identity verdicts and the same equality
    partition on the golden words."""
    with open(GOLDEN, encoding="utf-8") as fh:
        pinned = dict(line.split(": ", 1) for line in fh
                      if line[0] != " " and ": [" in line)
    oracles: dict = {}
    flat_of, nested_of = {}, {}
    entries = battery_words(cache, theorem_setup)
    for name, product, word in entries:
        N = oracles.get(id(product))
        if N is None:
            N = oracles[id(product)] = NestedProduct(product.tog)
        ref = N.eval_word(word)
        assert N.eval_word(ast.literal_eval(pinned[name])) == ref, name
        el = product.eval_word(word)
        assert product.is_identity(el) == (ref == N.identity), name
        key = (id(product), el)
        assert flat_of.setdefault(key, ref) == ref, name
        assert nested_of.setdefault((id(product), ref), el) == el, name
    assert len(pinned) == len(entries) == 1000
