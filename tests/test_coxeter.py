from fractions import Fraction

import pytest

from coxkit import coxeter, growth, lemmas, suites, wordops, zroot2
from coxkit.coxeter import (ELEMENTARY_ROOTS, GENS, MAX_RADIUS, NEGATIVE, OUT,
                             REFLECTION_TABLE, Coxeter, KernelError, ResidueError,
                             ResourceLimit)
from galleries import gallery, gallery_shift, has_left_descent


def test_normalize_examples(ctx):
    assert ctx.normalize("ss") == ""
    assert ctx.normalize("tsts") == "stst"
    assert ctx.normalize("ststs") == "tst"
    assert ctx.normalize(["s", "t"]) == "st"
    assert ctx.normalize(ctx.normalize("tsrrst")) == ctx.normalize("tsrrst")


def test_multiply_invert_length(ctx):
    assert len(ctx.normalize("stst")) == 4
    assert ctx.inv("st") == "ts"
    assert ctx.mult("stst", "s") == "tst"
    for w in ctx.ball(8):
        assert len(ctx.inv(w)) == len(w)
    for w in ctx.ball(6):
        assert ctx.mult(w, ctx.inv(w)) == ""


def test_ball_sizes_and_oracle(ctx):
    sizes = [len(ctx.ball(L)) for L in range(9)]
    assert sizes[2] == 10
    assert sizes[4] == 43
    for L in range(7):
        assert len(ctx.ball(L)) == ctx.ball_oracle_size(L)
    ball = ctx.ball(5)
    assert ball == tuple(sorted(ball, key=lambda w: (len(w), w)))
    assert len(set(ball)) == len(ball)


def test_ball_radius_cap():
    fresh = Coxeter()
    with pytest.raises(ResourceLimit):
        fresh.ball(MAX_RADIUS + 1)
    assert len(fresh.ball(3)) == 22


def test_negative_ball_radius_is_refused():
    # read as an index, -1 would give the largest ball built so far
    fresh = Coxeter()
    for built in (0, 3):
        fresh.ball(built)
        with pytest.raises(ValueError, match="negative ball radius -1"):
            fresh.ball(-1)


def test_parabolic_and_longest(ctx):
    assert len(ctx.parabolic("st")) == 8
    assert ctx.longest("st") == "stst"
    assert ctx.longest("rt") == "rtrt"
    assert len(ctx.parabolic("s")) == 2
    with pytest.raises(ValueError):
        ctx.parabolic("rst")


def chambers(ctx, res) -> tuple:
    """The chambers of res: its gate times each element of its parabolic."""
    return tuple(ctx.mult(res.gate, u) for u in ctx.parabolic(res.types))


def proj(ctx, res, x: str) -> str:
    """Gate of res seen from x: the unique chamber of res nearest to x."""
    xi = ctx.inv(x)
    dist = {z: len(ctx.mult(xi, z)) for z in chambers(ctx, res)}
    least = min(dist.values())
    nearest = [z for z, d in dist.items() if d == least]
    if len(nearest) != 1:
        raise ResidueError(f"no unique chamber of {res} nearest to {x!r}")
    return nearest[0]


def test_residues_and_projection(ctx):
    R = ctx.residue("st", "")
    assert proj(ctx, R, "") == ""
    assert ctx.residue("st", "r").gate == "r"
    assert proj(ctx, ctx.residue("st", ""), ctx.normalize("str")) == "st"
    # gate condition: ascents at both letters
    for u in "st":
        assert len(ctx.mult(R.gate, u)) == len(R.gate) + 1


def test_equal_residues_are_one_key(ctx):
    # the st-residue of s is the one at the gate 1, built a second time
    R, same = ctx.residue("st", ""), ctx.residue("ts", "s")
    assert R is not same and R == same and hash(R) == hash(same)
    assert {R: "found"}[same] == "found"
    assert R != ctx.residue("st", "r")
    # the text PreconditionError messages embed
    assert str(R) == repr(R) == "Residue('st' at '')"


def test_projection_gate_property(ctx):
    # delta(x, y) = delta(x, proj) * delta(proj, y), additively in length
    import itertools
    for types in itertools.combinations("rst", 2):
        for base in ctx.ball(4):
            R = ctx.residue(types, base)
            for x in ctx.ball(6)[::7]:
                z = proj(ctx, R, x)
                dxz = len(ctx.mult(ctx.inv(x), z))
                for y in chambers(ctx, R):
                    dxy = len(ctx.mult(ctx.inv(x), y))
                    dzy = len(ctx.mult(ctx.inv(z), y))
                    assert dxy == dxz + dzy


def test_prefix_order(ctx):
    for w in ctx.ball(5):
        assert ctx.prefix_leq("", w)
    assert len(ctx.prefix_set("stst")) == 8
    assert ctx.prefix_leq("st", "stst")
    assert not ctx.prefix_leq("rs", "stst")


def test_galleries(ctx):
    # a gallery is its type word; the canonical one is the element itself
    assert ctx.min_galleries("stst") == ("stst", "tsts")
    assert ctx.min_galleries("tsts") == ("stst", "tsts")
    assert gallery(ctx, "st") == "st"
    with pytest.raises(ValueError):
        gallery(ctx, "ss")
    # the shift operation in both directions
    assert gallery_shift(ctx, "s", gallery(ctx, "st")) == "t"
    assert gallery_shift(ctx, "r", gallery(ctx, "st")) == "rst"
    with pytest.raises(ValueError, match="not in Min_s"):
        gallery_shift(ctx, "t", gallery(ctx, "stst"))
    assert [g for g in ctx.min_galleries("stst") if g.startswith("s")] == ["stst"]


def test_descents(ctx):
    assert has_left_descent(ctx, "stst", "t")
    assert has_left_descent(ctx, "stst", "s")
    assert not has_left_descent(ctx, "st", "t")
    # right descents are the left descents of the inverse
    assert has_left_descent(ctx, ctx.inv("stst"), "s")
    assert has_left_descent(ctx, ctx.inv("stst"), "t")
    assert not has_left_descent(ctx, ctx.inv("st"), "s")


def _series_quotient(num, den, n):
    # the first n coefficients of num/den as power series, den[0] != 0
    num = [Fraction(c) for c in num] + [Fraction(0)] * n
    out = []
    for d in range(n):
        c = num[d] / den[0]
        out.append(c)
        for e, b in enumerate(den):
            if d + e < len(num):
                num[d + e] -= c * b
    return out


def test_ball_sizes_match_steinberg_series(ctx):
    # Steinberg: 1/W(t) = 1 - 3t/(1+t) + 3t^4/((1+t)(1+t+t^2+t^3)) for the
    # (4,4,4) triangle group, so W(t) = Q/P with Q = (1+t)(1+t+t^2+t^3)
    # and P = Q - 3t(1+t+t^2+t^3) + 3t^4.  Computed without coxkit.
    q = [1, 2, 2, 2, 1]
    p = [a - 3 * b + 3 * c
         for a, b, c in zip(q, [0, 1, 1, 1, 1], [0, 0, 0, 0, 1])]
    coeffs = _series_quotient(q, p, 11)
    assert all(c.denominator == 1 for c in coeffs)
    sums = [int(sum(coeffs[:L + 1])) for L in range(11)]
    assert sums == [1, 4, 10, 22, 43, 79, 142, 250, 436, 757, 1309]
    assert growth.sphere_sizes(10) == coeffs
    assert [ctx.ball_oracle_size(L) for L in range(11)] == sums
    assert [len(ctx.ball(L)) for L in range(11)] == sums


def _braid_closure(word: str, skip: str = "") -> frozenset:
    """Every word reached from word by braid moves abab <-> baba, with the
    move on the letter pair skip left out; string operations only."""
    skip = set(skip)
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 3):
            a, b = w[i], w[i + 1]
            if a != b and {a, b} != skip and w[i + 2] == a and w[i + 3] == b:
                v = w[:i] + b + a + b + a + w[i + 4:]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return frozenset(seen)


def _oracle_product(w: str, g: str) -> str:
    # Tits: wg is shorter than w exactly when a reduced word of w ends with
    # g, and the braid closure of a reduced word holds all its reduced words
    for e in _braid_closure(w):
        if e.endswith(g):
            return min(_braid_closure(e[:-1]))
    return min(_braid_closure(w + g))


def test_kernel_matches_the_braid_closure_oracle():
    fresh = Coxeter()
    for fn, radius in lemmas.SWEEPS.values():
        assert fn(fresh, radius).passed
    # every product the sweeps left in the memo, and ball(10) times a letter
    pairs = {(w, g) for g, row in fresh._right.items() for w in row} \
        | {(w, g) for w in fresh.ball(10) for g in GENS}
    assert len(pairs) > 3 * len(fresh.ball(10))
    assert [p for p in pairs if fresh.mult_gen(*p) != _oracle_product(*p)] == []
    assert all(fresh.inv(w) == min(_braid_closure(w[::-1])) for w in fresh.ball(8))


_STEP = Coxeter._step


def _without_rule_2(self, w, g, y):
    # takes wg = w[1:] for b + y = b + w, a word that is not reduced
    return w[0] + y if y == w else _STEP(self, w, g, y)


def _without_rule_3(self, w, g, y):
    # misses the new least left descent g of wg = g w
    out = _STEP(self, w, g, y)
    return w[0] + y if out == g + w else out


@pytest.mark.parametrize("step, radius, size, first", [
    (_without_rule_2, 2, 13, "rr"), (_without_rule_3, 4, 46, "rsrs")])
def test_each_kernel_rule_is_needed(monkeypatch, step, radius, size, first):
    monkeypatch.setattr(Coxeter, "_step", step)
    broken = Coxeter()
    # the ball as the step alone builds it, which the series rejects
    ball = {""}
    for L in range(radius):
        ball |= {v for w in ball if len(w) == L for g in GENS
                 if len(v := broken.mult_gen(w, g)) == L + 1}
    assert len(ball) == size != growth.ball_size(radius)
    # the braid-closure cross-check stops it at its first wrong element,
    # before any verdict is read
    for run in (lambda: Coxeter().ball(radius),
                lambda: suites.run_coxeter(Coxeter(), 8)):
        with pytest.raises(KernelError, match=repr(first)):
            run()


def _root(i: int, j: int | None = None) -> zroot2.Vector:
    """alpha_i, or alpha_i + sqrt(2)*alpha_j, over the basis (e_r, e_s, e_t)."""
    vec = [(0, 0)] * 3
    vec[i] = (1, 0)
    if j is not None:
        vec[j] = (0, 1)
    return tuple(vec)


def test_elementary_roots_and_their_reflection_table():
    # the 3 simple roots first, then the 6 roots alpha_i + sqrt(2)*alpha_j
    assert ELEMENTARY_ROOTS[:3] == tuple(_root(i) for i in range(3))
    assert set(ELEMENTARY_ROOTS[3:]) == {_root(i, j) for i in range(3)
                                         for j in range(3) if i != j}
    assert len(ELEMENTARY_ROOTS) == len(REFLECTION_TABLE) == 9
    for beta, row in zip(ELEMENTARY_ROOTS, REFLECTION_TABLE):
        for j, s in enumerate(GENS):
            if row[s] == NEGATIVE:
                assert beta == _root(j)
            elif row[s] == OUT:
                assert zroot2.sign(zroot2.sub(zroot2.form(beta, _root(j)), (-2, 0))) <= 0
            else:
                assert ELEMENTARY_ROOTS[row[s]] == zroot2.reflect(j, beta)
    # the roots a walk from alpha_r or alpha_s reaches
    reached, stack = {0, 1}, [0, 1]
    while stack:
        for i in REFLECTION_TABLE[stack.pop()].values():
            if i >= 0 and i not in reached:
                reached.add(i)
                stack.append(i)
    assert {ELEMENTARY_ROOTS[i] for i in reached} == {
        _root(0), _root(1), _root(0, 1), _root(0, 2), _root(1, 0), _root(1, 2)}


def test_table_walk_matches_the_exact_image_on_ball_10():
    fresh = Coxeter()
    pairs = [(w, g) for w in fresh.ball(10) for g in GENS
             if len(fresh.mult_gen(w, g)) > len(w)]
    assert len(pairs) == 2487
    for w, g in pairs:
        vec = alpha = _root(GENS.index(g))
        for s in reversed(w):
            vec = zroot2.reflect(GENS.index(s), vec)
        assert coxeter._fixes_simple_root(w, g) == (vec == alpha), (w, g)


def test_kernel_computes_no_root_arithmetic_after_import(monkeypatch):
    def refuse(*args):
        raise AssertionError("zroot2 called after import")
    for name in ("reflect", "form"):
        monkeypatch.setattr(zroot2, name, refuse)
    fresh = Coxeter()
    assert len(fresh.ball(10)) == growth.ball_size(10)
    for types in ("rs", "rt", "st"):
        assert len(fresh.parabolic(types)) == 8


def test_a_walk_to_a_negative_root_raises():
    # rs * s is shorter than rs: the letter s sends alpha_s to -alpha_s
    with pytest.raises(KernelError, match="'rs' sends alpha_s to a negative root"):
        coxeter._fixes_simple_root("rs", "s")


def _without_root(beta: zroot2.Vector) -> tuple:
    # the table with beta left out of Sigma: every step into it leaves Sigma
    k = ELEMENTARY_ROOTS.index(beta)
    return tuple({s: OUT if i == k else i for s, i in row.items()}
                 for row in REFLECTION_TABLE)


# rule 3 walks from alpha_g with g < w[0], so never from alpha_t, and a
# walk from alpha_r or alpha_s never reaches alpha_t + sqrt(2)*alpha_r or
# alpha_t + sqrt(2)*alpha_s (test_elementary_roots_and_their_reflection_table):
# dropping either of those changes no product, so no mutant drops them
@pytest.mark.parametrize("i, j, first", [
    (0, 1, "rsrs"), (0, 2, "rtrt"), (1, 0, "ststrsr"), (1, 2, "stst")])
def test_each_reachable_elementary_root_is_needed(monkeypatch, i, j, first):
    monkeypatch.setattr(coxeter, "REFLECTION_TABLE", _without_root(_root(i, j)))
    # rule 3 then misses a new least left descent, and the braid-closure
    # cross-check stops the ball at its first wrong element
    for run in (lambda: Coxeter().ball(10),
                lambda: suites.run_coxeter(Coxeter(), 8)):
        with pytest.raises(KernelError, match=repr(first)):
            run()


# the closure of rsrs without the move rsrs <-> srsr: its reduced words
# then all end with s, while the kernel shortens it by r and by s
DROPPED_MOVE_UNDER_O = """
from coxkit import coxeter, wordops
real = wordops.braid_closure
wordops.braid_closure = lambda w: frozenset([w]) if w == "rsrs" else real(w)
try:
    coxeter.Coxeter().ball(4)
except coxeter.KernelError as exc:
    print(exc)
"""


def test_cross_check_catches_a_dropped_braid_move(monkeypatch, run_optimized):
    monkeypatch.setattr(wordops, "braid_closure",
                        lambda word: _braid_closure(word, skip="rs"))
    assert len(Coxeter().ball(3)) == 22
    for run in (lambda: Coxeter().ball(4), lambda: Coxeter().parabolic("rs"),
                lambda: suites.run_coxeter(Coxeter(), 8)):
        with pytest.raises(KernelError, match="'rsrs'"):
            run()
    out = run_optimized(DROPPED_MOVE_UNDER_O)
    assert out.returncode == 0 and "'rsrs'" in out.stdout


def test_mult_starts_at_known_left_factor(ctx):
    # mult from a memoized left factor against normalize's letter walk; on
    # the fresh context mult meets many w before the memo holds them
    for cox in (ctx, Coxeter()):
        for w in ctx.ball(6):
            for v in ctx.ball(2):
                assert cox.mult(w, v) == cox.normalize(w + v)
        assert cox.mult("tsts") == "stst"
        assert cox.mult("ss", "r") == "r"
        # the three-factor products of the sweeps
        for r, s, t in lemmas.LABELINGS:
            dihedral = cox.parabolic({s, t})
            for w in ctx.ball(5):
                for wp in dihedral:
                    assert cox.mult(w, wp, r) == cox.normalize(w + wp + r)
                assert cox.mult(w, s, r, t) == cox.normalize(w + s + r + t)


@pytest.mark.parametrize("method, args", [
    ("mult_gen", ("", "x")), ("reduced_words", ("x",)), ("canon_reduced", ("x",)),
    ("mult_gen", ("st", "")), ("mult_gen", ("ss", "s")),
    ("reduced_words", ("rr",)), ("canon_reduced", ("tsst",)),
    ("parabolic", ("xs",))])
def test_bad_words_stay_out_of_the_memo(method, args):
    # a word the memo stored would be a known left factor to mult
    cox = Coxeter()
    with pytest.raises(ValueError):
        getattr(cox, method)(*args)
    # an unknown letter after a memo hit reaches mult_gen's refusal
    for factors in (("x",), ("x", "s"), ("rs", "x"), ("rs", "tx")):
        with pytest.raises(ValueError):
            cox.mult(*factors)
    assert cox.mult("ss", "r") == "r" and cox.mult("tsst") == ""
    assert all(set(k) <= set(GENS) for k in cox._canon)
    assert all(len(cox.normalize(k)) == len(k) for k in cox._canon)
    # one memo per generator, each keyed by canonical words only
    assert set(cox._right) == set(GENS)
    for row in cox._right.values():
        assert all(set(w) <= set(GENS) and cox.canon_reduced(w) == w
                   for w in list(row))


@pytest.mark.parametrize("wrong", [
    lambda ball: tuple(w for w in ball if w != "stst"),
    lambda ball: ball + ("st",)], ids=["missing", "extra"])
def test_parabolic_refuses_a_ball_with_the_wrong_count(monkeypatch, wrong):
    # <st> is read off ball(4): one element too few or too many there is
    # a kernel fault, and nothing is memoized
    fresh = Coxeter()
    ball = fresh.ball(4)
    monkeypatch.setattr(fresh, "ball", lambda radius: wrong(ball))
    with pytest.raises(KernelError, match="<st> does not have 8 elements"):
        fresh.parabolic("st")
    assert frozenset("st") not in fresh._parabolics


def test_parabolic_memo_does_not_outlive_its_group():
    import gc
    import weakref
    fresh = Coxeter()
    assert fresh.parabolic("st") == fresh.parabolic({"t", "s"})
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None
