import copy
import json
import os
import random

import pytest

from coxkit import quadrangle, suites
from coxkit.certs import SweepReport
from coxkit.quadrangle import (IDENT, PERM_A, PERM_B, TwinModel, build_model,
                               is_symplectic, mat_inv, mat_mul, mat_transpose,
                               verify_rt_relabel)
from coxkit.treeprod import closure_words

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_model_invariants(st_model):
    m = st_model
    assert len(m.elems) == 720
    assert len(m.borel_plus) == 16 and len(m.borel_minus) == 16
    assert len(m.chambers(1)) == 45 and len(m.chambers(-1)) == 45
    for c in (m.c_minus, m.c_plus):
        for letter in m.letters:
            assert len(m.panel(c, letter)) == 3


def _labels_by_element(model) -> dict:
    """The per-element Bruhat labeling the per-chamber cells replaced,
    kept as their oracle: every product b1*rep(w)*b2 over both Borels."""
    out = {}
    for (sx, sy), kind in quadrangle._KINDS.items():
        table = out[kind] = {}
        for w in model.weyl_elements():
            rep = model.weyl_rep(w)
            for b1 in model._borel[sx]:
                x = mat_mul(b1, rep)
                for b2 in model._borel[sy]:
                    table[mat_mul(x, b2)] = w
    return out


def test_bruhat_cells_partition(st_model):
    """The 8 cells of each sign pair partition the group (cell sizes sum
    to 720 in the oracle), and the label the model reads through each
    element's chamber is the oracle's label of that element."""
    m = st_model
    oracle = _labels_by_element(m)
    for (sx, sy), kind in quadrangle._KINDS.items():
        assert len(oracle[kind]) == 720
        assert len(m._label[kind]) == 45
        assert all(m._label[kind][m._coset_id[sx][g]] == oracle[kind][g]
                   for g in m.elems), kind


def test_borel_has_a_greedy_generating_set_of_three(monkeypatch):
    calls = []
    real = quadrangle.closure_words

    def counting(mul, identity, gens, limit=None):
        calls.append(list(gens))
        return real(mul, identity, gens, limit)

    monkeypatch.setattr(quadrangle, "closure_words", counting)
    model = TwinModel(("s", "t"))
    monkeypatch.undo()
    group_gens = next(g for g in calls if PERM_A in g)
    assert group_gens[-2:] == [PERM_A, PERM_B]
    borel_gens = group_gens[:-2]
    assert len(borel_gens) == 3
    assert set(real(mat_mul, IDENT, borel_gens)) == model.borel_plus


def test_distinguished_pair(st_model):
    m = st_model
    assert m.codistance(m.c_plus, m.c_minus) == ""
    assert m.weyl_distance(m.c_minus, m.c_adjacent("s")) == "s"
    assert m.weyl_distance(m.c_minus, m.c_minus) == ""


def test_axioms_exhaustive(st_model):
    rep = st_model.verify_axioms()
    assert rep.passed and rep.tuples_checked > 40000


def _axioms_by_chambers(model) -> SweepReport:
    """The chamber-walking sweep that verify_axioms replaced, kept as its
    oracle: chambers, panels and distances through the model's public
    interface, and a Coxeter product for every tuple."""
    rep = SweepReport("building_and_twinning_axioms", 0)
    ctx = model.ctx
    for sign in (1, -1):
        cs = model.chambers(sign)
        for x in cs:
            for y in cs:
                w = model.weyl_distance(x, y)
                rep.tuples_checked += 1
                if (w == "") != (x == y):
                    rep.violations.append({"axiom": "Bu1", "x": str(x), "y": str(y)})
                for letter in model.letters:
                    targets = set()
                    for zc in model.panel(y, letter):
                        if zc == y:
                            continue
                        dxz = model.weyl_distance(x, zc)
                        targets.add(dxz)
                        rep.tuples_checked += 1
                        ws = ctx.mult(w, letter)
                        if dxz not in (w, ws):
                            rep.violations.append(
                                {"axiom": "Bu2", "x": str(x), "y": str(y), "z": str(zc)})
                        elif len(ws) == len(w) + 1 and dxz != ws:
                            rep.violations.append(
                                {"axiom": "Bu2+", "x": str(x), "y": str(y), "z": str(zc)})
                    rep.tuples_checked += 1
                    if ctx.mult(w, letter) not in targets:
                        rep.violations.append(
                            {"axiom": "Bu3", "x": str(x), "y": str(y), "letter": letter})
    for x in model.chambers(1):
        for y in model.chambers(-1):
            w = model.codistance(x, y)
            rep.tuples_checked += 1
            if model.codistance(y, x) != ctx.inv(w):
                rep.violations.append({"axiom": "Tw1", "x": str(x), "y": str(y)})
            for letter in model.letters:
                ws = ctx.mult(w, letter)
                down = len(ws) == len(w) - 1
                targets = set()
                for zc in model.panel(y, letter):
                    if zc == y:
                        continue
                    dxz = model.codistance(x, zc)
                    targets.add(dxz)
                    rep.tuples_checked += 1
                    if down and dxz != ws:
                        rep.violations.append(
                            {"axiom": "Tw2", "x": str(x), "y": str(y), "z": str(zc)})
                rep.tuples_checked += 1
                if ws not in targets:
                    rep.violations.append(
                        {"axiom": "Tw3", "x": str(x), "y": str(y), "letter": letter})
    return rep


def _without_elapsed(rep: SweepReport) -> dict:
    out = rep.to_dict()
    del out["elapsed"]
    return out


@pytest.mark.parametrize("letters", [("s", "t"), ("r", "t"), ("r", "s")])
def test_axiom_sweep_matches_the_chamber_oracle(letters):
    m = build_model(letters)
    got = _without_elapsed(m.verify_axioms())
    assert got == _without_elapsed(_axioms_by_chambers(m))
    assert got["pass"] and got["tuples_checked"] == 42525


def test_axiom_sweep_matches_the_oracle_on_corrupted_tables(st_model):
    # a copy with its own tables: the registry's model stays intact
    m = copy.copy(st_model)
    m._delta = copy.deepcopy(st_model._delta)
    for row, col in ((m._delta[1, 1][3], 7), (m._delta[1, -1][2], 5)):
        row[col] = next(w for w in m.weyl_elements() if w != row[col])
    got = _without_elapsed(m.verify_axioms())
    assert got == _without_elapsed(_axioms_by_chambers(m))
    axioms = {v["axiom"] for v in got["violations"]}
    assert not got["pass"] and axioms & {"Bu1", "Bu2", "Bu2+", "Bu3"} \
        and axioms & {"Tw1", "Tw2", "Tw3"}
    assert st_model.verify_axioms().passed


def test_simple_root_elements(st_model):
    m = st_model
    us, ut = map(m.u_of, m.letters)
    assert mat_mul(us, us) == mat_mul(ut, ut)   # both involutions -> identity
    closure = closure_words(mat_mul, IDENT, (us, ut))
    assert len(closure) == 8
    moved = m.act(m.c_minus, us)
    assert moved != m.c_minus
    assert moved in m.panel(m.c_minus, m.letters[0])
    assert m.act(m.c_plus, us) == m.c_plus


def test_diagram(st_model):
    rep = st_model.verify_diagram()
    assert rep.passed
    assert rep.tuples_checked >= 29


def test_lemma_uplus_items(st_model):
    rep = st_model.verify_lemma_uplus()
    assert rep.passed
    notes = rep.notes
    assert notes["a.i l(c_s, c_s.u_t)"] == 3
    assert notes["a.ii l(c_s, c_s.u_tu_s)"] == 3
    assert notes["b.i l(c_s, c_t)"] == 2
    assert notes["b.ii l(c_s, c_t.u_s)"] == 2
    assert notes["b.iii l(c_s, c_t.u_su_t)"] == 4
    assert notes["b.iv l(c_s, c_t.u_su_tu_s)"] == 4
    assert notes["c.i l(c_t.u_s, p)"] == [2, 3]
    assert notes["c.ii l(c_t.u_su_t, p)"] == [2, 3]
    assert notes["c.iii l(c_t.u_su_tu_s, p)"] == [3, 4]


def test_root_group_fixings(st_model):
    assert st_model.verify_root_group_fixings().passed


def test_rt_relabel(rt_model):
    rep = verify_rt_relabel()
    assert rep.passed
    assert rep.notes["delta(c, c.u_rt)"] == "rtr"
    assert rep.notes["delta(c, c.u_rt u_tr)"] == rt_model.ctx.longest("rt")
    assert rep.notes["delta(c, c.u_tr)"] == "trt"


def test_projection_commutes_with_action(st_model):
    m = st_model
    rng = random.Random(3)
    for _ in range(200):
        g = rng.choice(m.elems)
        c = rng.choice(m.chambers(-1))
        letter = rng.choice(m.letters)
        x = rng.choice(m.chambers(-1))
        panel = m.panel(c, letter)
        lhs = m.act(m.proj_panel(panel, x), g)
        rhs = m.proj_panel([m.act(d, g) for d in panel], m.act(x, g))
        assert lhs == rhs


def test_panel_convexity(st_model):
    m = st_model
    for c in m.chambers(-1):
        for letter in m.letters:
            for d in m.panel(c, letter):
                assert m.weyl_distance(c, d) in ("", letter)


def test_sign_mismatch_errors(st_model):
    m = st_model
    with pytest.raises(ValueError):
        m.weyl_distance(m.c_plus, m.c_minus)
    with pytest.raises(ValueError):
        m.codistance(m.c_minus, m.c_minus)


def dump(model) -> str:
    """Deterministic text dump of a twin model: chambers, panels, distance
    table."""
    lines = [f"twin model letters={model.letters[0]}{model.letters[1]} "
             f"group={len(model.elems)} borel={len(model.borel_plus)} "
             f"chambers={len(model.chambers(-1))} "
             f"panel={len(model.panel(model.c_minus, model.letters[0]))}"]
    for sign, tag in ((1, "+"), (-1, "-")):
        for c in model.chambers(sign):
            for letter in model.letters:
                members = ",".join(str(d.coset) for d in model.panel(c, letter))
                lines.append(f"panel {tag}{c.coset} {letter} {members}")
    for x in model.chambers(-1):
        row = " ".join(model.weyl_distance(x, y) or "1"
                       for y in model.chambers(-1))
        lines.append(f"dist -{x.coset} {row}")
    for x in model.chambers(1):
        row = " ".join(model.codistance(x, y) or "1"
                       for y in model.chambers(-1))
        lines.append(f"codist +{x.coset} {row}")
    return "\n".join(lines) + "\n"


def test_dump_golden(st_model):
    with open(os.path.join(GOLDEN, "twin_model_st.txt")) as fh:
        assert fh.read() == dump(st_model)


def test_blueprint_matches_matrix_unipotent(st_model, cache):
    # the collection group at r_{s,t} and the positive unipotent matrix
    # group are built independently; the root-generator map must be an
    # isomorphism onto the Borel's unipotent part
    from coxkit.quadrangle import IDENT
    m = st_model
    g = cache.group("stst")
    mats = [m.root_group_element("", "s"), m.root_group_element("s", "t"),
            m.root_group_element("st", "s"), m.root_group_element("", "t")]

    def to_model(mask):
        out = IDENT
        for i in range(4):
            if mask >> i & 1:
                out = mat_mul(out, mats[i])
        return out

    images = {x: to_model(x) for x in range(16)}
    assert len(set(images.values())) == 16
    assert set(images.values()) == set(m.borel_plus)
    for x in range(16):
        for y in range(16):
            assert images[g.mul(x, y)] == mat_mul(images[x], images[y])


def test_opposite_counts_and_twin_apartment(st_model):
    m = st_model
    # the opposite set of a chamber is a big cell of 16 chambers
    ops = [y for y in m.chambers(-1) if m.codistance(m.c_plus, y) == ""]
    assert len(ops) == 16
    # the standard twin apartment meets each opposite set exactly once
    plus = {w: m.chamber(1, m.weyl_rep(w)) for w in m.weyl_elements()}
    minus = {w: m.chamber(-1, m.weyl_rep(w)) for w in m.weyl_elements()}
    for w, x in plus.items():
        partners = [v for v, y in minus.items() if m.codistance(x, y) == ""]
        assert len(partners) == 1


def test_trace_v_map_is_multiplicative(st_model, theorem_setup):
    # the tracer converts blueprint V masks to model elements through
    # shortest words; that conversion must be a homomorphism
    s = theorem_setup
    masks = sorted(s._v_words)
    to_model = {x: st_model.v_element(s.v_word(x)) for x in masks}
    assert len(set(to_model.values())) == 8
    for x in masks:
        for y in masks:
            assert to_model[s.ambientV.mul(x, y)] == mat_mul(
                to_model[x], to_model[y])


def test_elems_are_the_symplectic_group(st_model):
    # the group comes from generators; the full filter lives on only here
    assert st_model.elems == [x for x in range(1 << 16) if is_symplectic(x)]


def test_mat_inv_is_two_sided(st_model):
    for g in st_model.elems:
        assert mat_mul(g, mat_inv(g)) == IDENT == mat_mul(mat_inv(g), g)


# the kernel's oracle: matrices as lists of 0/1 rows, row i column j at
# bit 4i + j, multiplied by the textbook sum of products mod 2
def _bit_rows(m: int) -> list:
    return [[m >> (4 * i + j) & 1 for j in range(4)] for i in range(4)]


def _pack(rows: list) -> int:
    return sum(bit << (4 * i + j) for i, row in enumerate(rows)
               for j, bit in enumerate(row))


def _oracle_mul(a: int, b: int) -> int:
    ra, rb = _bit_rows(a), _bit_rows(b)
    return _pack([[sum(ra[i][k] & rb[k][j] for k in range(4)) % 2
                   for j in range(4)] for i in range(4)])


def test_mat_mul_matches_row_oracle(st_model):
    m = st_model
    # the closure generators are the upper unitriangular (Borel) elements
    # and the two permutation matrices
    others = sorted(m.borel_plus | m.borel_minus) + [PERM_A, PERM_B]
    for g in m.elems:
        for x in others:
            assert mat_mul(g, x) == _oracle_mul(g, x)
            assert mat_mul(x, g) == _oracle_mul(x, g)
    rng = random.Random(14)
    for _ in range(20000):
        a, b = rng.randrange(1 << 16), rng.randrange(1 << 16)
        assert mat_mul(a, b) == _oracle_mul(a, b)


def test_borel_masks_match_the_row_definition():
    # upper: row i has its bit i set and no bit j < i; lower: no bit j > i
    def row(m, i):
        return m >> 4 * i & 0xF

    for m in range(1 << 16):
        upper = all(row(m, i) >> i & 1 and row(m, i) & ((1 << i) - 1) == 0
                    for i in range(4))
        lower = all(row(m, i) >> i & 1 and row(m, i) >> (i + 1) == 0
                    for i in range(4))
        assert quadrangle._is_upper(m) == upper and quadrangle._is_lower(m) == lower, m


def test_generator_actions_compose_along_closure_words(st_model):
    # for every element g and both halves, the chamber permutation the
    # distance tables read is c -> c.g, each image its own product
    m = st_model
    assert len(m._words) == 720
    for sign in (1, -1):
        for g, word in m._words.items():
            assert list(m._move(sign, word)) == [
                m.chamber(sign, mat_mul(m.rep(c), g)).coset
                for c in m.chambers(sign)], (sign, g)


def test_mat_transpose_matches_row_oracle():
    for a in range(1 << 16):
        rows = _bit_rows(a)
        assert mat_transpose(a) == _pack(
            [[rows[j][i] for j in range(4)] for i in range(4)])


# (selector, byte, bit) of one _PAIR entry to flip, each byte the low or
# high byte of some element of Sp(4,2), so the products of the build read it
@pytest.mark.parametrize("entry", [(1, 0x21, 1), (2, 0x68, 4), (3, 0x3d, 4)])
def test_flipped_kernel_entry_fails_the_construction(monkeypatch, entry):
    # one wrong table entry: the build's checks (or, failing those, the
    # quadrangle suite) must catch it
    r, x, bit = entry
    elems = build_model(("s", "t")).elems
    assert x in {g & 0xFF for g in elems} | {g >> 8 for g in elems}
    table = [list(row) for row in quadrangle._PAIR]
    table[r][x] ^= bit
    monkeypatch.setattr(quadrangle, "_PAIR", table)
    monkeypatch.setattr(quadrangle, "_MODELS", {})
    try:
        TwinModel(("s", "t"))
    except quadrangle.CalibrationError:
        return
    assert suites.run_quadrangle()["pass"] is False


def _counted_mat_mul(monkeypatch) -> list:
    calls = []

    def counted(a, b, real=quadrangle.mat_mul):
        calls.append(1)
        return real(a, b)
    monkeypatch.setattr(quadrangle, "mat_mul", counted)
    return calls


def test_good_build_multiplies_no_table_entry_by_entry(monkeypatch):
    # a good st build makes 7,924 products: the 450 generator actions on
    # chambers give the distance tables, where reading each of the
    # 4 x 45 x 45 entries off its own product would add 8,100
    monkeypatch.setattr(quadrangle, "_MODELS", {})
    calls = _counted_mat_mul(monkeypatch)
    TwinModel(("s", "t"))
    assert 0 < len(calls) < 10_000


def test_wrong_group_fails_before_it_is_enumerated(monkeypatch):
    # with this entry flipped the generators give a group far larger than
    # Sp(4,2); the closure stops past 720 elements (a good build makes
    # 7,924 products, the whole wrong group over a million)
    table = [list(row) for row in quadrangle._PAIR]
    table[2][0x84] ^= 1
    monkeypatch.setattr(quadrangle, "_PAIR", table)
    monkeypatch.setattr(quadrangle, "_MODELS", {})
    calls = _counted_mat_mul(monkeypatch)
    with pytest.raises(quadrangle.CalibrationError, match="Sp"):
        TwinModel(("s", "t"))
    assert 0 < len(calls) < 50_000


@pytest.mark.parametrize("letters", [("s", "t"), ("r", "t"), ("r", "s"), ("t", "s")])
def test_tables_match_double_cosets(letters):
    # every distance-table entry against double cosets B w B listed
    # element by element, without the model's label maps
    m = build_model(letters)
    borel = {1: m.borel_plus, -1: m.borel_minus}
    for sx, sy in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
        cells = {w: {mat_mul(mat_mul(b1, m.weyl_rep(w)), b2)
                     for b1 in borel[sx] for b2 in borel[sy]}
                 for w in m.weyl_elements()}
        read = m.weyl_distance if sx == sy else m.codistance
        for x in m.chambers(sx):
            for y in m.chambers(sy):
                g = mat_mul(m.rep(x), mat_inv(m.rep(y)))
                assert [w for w, cell in cells.items() if g in cell] == [read(x, y)]


def test_labelings_share_one_build(monkeypatch):
    # asking for rt first still builds st once, and rs reuses it: one
    # group enumeration and one calibration for every labeling
    calls = []
    for name in ("_build_group", "_calibrate"):
        def counted(self, name=name, real=getattr(TwinModel, name)):
            calls.append(name)
            real(self)
        monkeypatch.setattr(TwinModel, name, counted)
    monkeypatch.setattr(quadrangle, "_MODELS", {})
    rt, st, rs = (build_model(letters) for letters in (("r", "t"), ("s", "t"), ("r", "s")))
    assert calls == ["_build_group", "_calibrate"]
    for m in (rt, rs):
        assert m.elems is st.elems and m._coset_rep is st._coset_rep
        assert [m.u_of(x) for x in m.letters] == [st.u_of(x) for x in st.letters]
        assert m.weyl_rep(m.letters[0]) == st.weyl_rep("s")


# two chambers of an s-panel are both at distance 1 from the third; under
# -O an assert would let min() pick one of them
PROJ_TIE_UNDER_O = """
from coxkit.quadrangle import build_model
m = build_model(("s", "t"))
a, b, c = m.panel(m.c_minus, "s")
try:
    m.proj_panel([b, c], a)
except ValueError:
    print("raised")
"""


def test_proj_panel_tie_survives_optimize(run_optimized):
    out = run_optimized(PROJ_TIE_UNDER_O)
    assert out.returncode == 0 and out.stdout.strip() == "raised"


# a lower Borel of order 1 must be caught where it is built, not later
# as a calibration that finds no generators
BOREL_UNDER_O = """
from coxkit import quadrangle
quadrangle._is_lower = lambda m: m == quadrangle.IDENT
try:
    quadrangle.TwinModel(("s", "t"))
except quadrangle.CalibrationError as exc:
    print(exc)
"""


def test_borel_check_survives_optimize(run_optimized):
    out = run_optimized(BOREL_UNDER_O)
    assert out.returncode == 0 and out.stdout.strip() == "Borel of sign -1 has order 1"


# one corrupted codistance must fail the whole quadrangle suite, with
# assert statements stripped
CORRUPT_SUITE_UNDER_O = """
import json
from coxkit import suites
from coxkit.quadrangle import build_model
m = build_model(("s", "t"))
row = m._delta[1, -1][3]
row[7] = next(w for w in m.weyl_elements() if w != row[7])
out = suites.run_quadrangle()
axioms = out["reports"]["axioms"]
print(json.dumps([out["pass"], axioms["pass"], len(axioms["violations"])]))
"""


def test_corrupted_codistance_fails_suite_under_optimize(run_optimized):
    out = run_optimized(CORRUPT_SUITE_UNDER_O)
    assert out.returncode == 0
    suite_pass, axioms_pass, violations = json.loads(out.stdout)
    assert suite_pass is False and axioms_pass is False and violations > 0


# one cell moved onto another (weyl_rep of st read as s): the cells meet
# and must be refused where they are built, with assert statements stripped
OVERLAP_UNDER_O = """
from coxkit import quadrangle
real = quadrangle.TwinModel.weyl_rep
quadrangle.TwinModel.weyl_rep = lambda self, w: real(self, "s" if w == "st" else w)
try:
    quadrangle.TwinModel(("s", "t"))
except quadrangle.CalibrationError as exc:
    print(exc)
"""


def test_overlapping_bruhat_cells_fail_under_optimize(run_optimized):
    out = run_optimized(OVERLAP_UNDER_O)
    assert out.returncode == 0
    assert out.stdout.strip() == "-- double cosets 's' and 'st' meet"
