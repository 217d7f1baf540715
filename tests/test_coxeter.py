from fractions import Fraction

import pytest

from coxkit import growth, suites, wordops
from coxkit.coxeter import (GENS, MAX_RADIUS, Coxeter, KernelError, ResidueError,
                             ResourceLimit)
from coxkit.lemmas import LABELINGS
from galleries import gallery


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
    gals = ctx.min_galleries("stst")
    assert {g.type_word for g in gals} == {"stst", "tsts"}
    g = gallery(ctx, "st")
    assert ctx.gallery_chambers(g) == ("", "s", "st")
    with pytest.raises(ValueError):
        gallery(ctx, "ss")
    # the shift operation in both directions
    assert ctx.gallery_shift("s", gallery(ctx, "st")).type_word == "t"
    assert ctx.gallery_shift("r", gallery(ctx, "st")).type_word == "rst"
    assert [g.type_word for g in ctx.min_galleries("stst")
            if g.type_word.startswith("s")] == ["stst"]


def test_descents(ctx):
    assert ctx.has_left_descent("stst", "t")
    assert ctx.has_left_descent("stst", "s")
    assert not ctx.has_left_descent("st", "t")
    # right descents are the left descents of the inverse
    assert ctx.has_left_descent(ctx.inv("stst"), "s")
    assert ctx.has_left_descent(ctx.inv("stst"), "t")
    assert not ctx.has_left_descent(ctx.inv("st"), "s")


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


def _closure_without_rs_braid(word: str) -> frozenset:
    # wordops.braid_closure with the move rsrs <-> srsr left out
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 3):
            a, b = w[i], w[i + 1]
            if a != b and {a, b} != {"r", "s"} and w[i + 2] == a and w[i + 3] == b:
                v = w[:i] + b + a + b + a + w[i + 4:]
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return frozenset(seen)


def test_series_oracle_catches_a_dropped_braid_move(monkeypatch):
    # the kernel then takes rsrs and srsr for two elements; an oracle that
    # normalizes words with that kernel would agree with it
    monkeypatch.setattr(wordops, "braid_closure", _closure_without_rs_braid)
    broken = Coxeter()
    for L in range(4, 9):
        assert broken.ball_oracle_size(L) != len(broken.ball(L))
    out = suites.run_coxeter(Coxeter(), 8)
    assert out["pass"] is False and out["sweeps"] == {}
    assert [b["pass"] for b in out["ball_checks"]] == [True] * 4 + [False] * 5
    # <r,s> is now infinite dihedral: enumerating it stops past order 8
    with pytest.raises(KernelError):
        broken.parabolic("rs")


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
        for r, s, t in LABELINGS:
            dihedral = cox.parabolic({s, t})
            for w in ctx.ball(5):
                for wp in dihedral:
                    assert cox.mult(w, wp, r) == cox.normalize(w + wp + r)
                assert cox.mult(w, s, r, t) == cox.normalize(w + s + r + t)


@pytest.mark.parametrize("method, args", [
    ("mult_gen", ("", "x")), ("reduced_words", ("x",)), ("canon_reduced", ("x",)),
    ("mult_gen", ("st", "")), ("mult_gen", ("ss", "s")),
    ("reduced_words", ("rr",)), ("canon_reduced", ("tsst",))])
def test_bad_words_stay_out_of_the_memo(method, args):
    # a word the memo stored would be a known left factor to mult
    cox = Coxeter()
    with pytest.raises(ValueError):
        getattr(cox, method)(*args)
    for factors in (("x",), ("x", "s")):
        with pytest.raises(ValueError):
            cox.mult(*factors)
    assert cox.mult("ss", "r") == "r" and cox.mult("tsst") == ""
    assert all(set(k) <= set(GENS) for k in cox._canon)
    assert all(len(cox.normalize(k)) == len(k) for k in cox._canon)


def test_parabolic_memo_does_not_outlive_its_group():
    import gc
    import weakref
    fresh = Coxeter()
    assert fresh.parabolic("st") == fresh.parabolic({"t", "s"})
    ref = weakref.ref(fresh)
    del fresh
    gc.collect()
    assert ref() is None
