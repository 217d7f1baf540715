import os
import random

import pytest

from coxkit import wordops
from coxkit.blueprint import (BlueprintError, GroupCache, GroupMono,
                              gallery_independence, subgroup)

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def test_small_orders(cache):
    assert cache.group("s").order == 2
    g4 = cache.group("st")
    assert g4.order == 4
    assert all(g4.mul(x, y) == g4.mul(y, x)
               for x in g4.elements() for y in g4.elements())


def test_rank2_commutator(cache):
    g = cache.group("stst")
    assert g.order == 16
    u1, u4 = g.generator(0), g.generator(3)
    assert g.mul(g.mul(u1, u4), g.mul(u1, u4)) == 0b0110
    assert any(g.mul(x, y) != g.mul(y, x)
               for x in g.elements() for y in g.elements())
    assert g.certify_order() > 0


def test_cb2_values(ctx, cache):
    bp = cache.blueprint
    g = ctx.gallery("stst")
    seq = cache.rsys.inversion_sequence(g)
    assert bp.value(g, seq[0], seq[3]) == (seq[1], seq[2])
    assert bp.value(g, seq[0], seq[1]) == ()
    assert bp.value(g, seq[1], seq[2]) == ()


def test_nested_pairs_give_empty_value(ctx, cache):
    bp = cache.blueprint
    rs = cache.rsys
    nested = []
    for w in ctx.ball(5):
        g = ctx.min_galleries(w)[0]
        seq = rs.inversion_sequence(g)
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if rs.pair_class(a, b).kind == "nested":
                    nested.append((g, a, b))
    assert nested
    for g, a, b in nested:
        assert bp.value(g, a, b) == ()


def test_cb3_and_bijection(ctx, cache):
    for w in ctx.ball(5):
        grp = cache.group(w)
        assert grp.order == 2 ** len(w)
        grp.certify_order(all_galleries=True)


def test_tables_match_direct_collection(ctx, cache):
    groups = [cache.group(w) for w in ctx.ball(5)]
    # the galleries gallery_independence compares against the canonical one
    groups += [cache.group("stst", h) for h in ctx.min_galleries("stst")]
    for g in groups:
        for x in g.elements():
            for y in g.elements():
                assert g.mul(x, y) == wordops.collect_mul(x, y, g.k, g._comm)


def test_generator_rows_match_collection_for_report_groups(ctx, cache):
    # every group the blueprint suite builds: ball(7) under canonical
    # galleries and the other minimal galleries of ball(6)
    groups = [cache.group(w) for w in ctx.ball(7)]
    for w in ctx.ball(6):
        canonical = cache.group(w).gallery.type_word
        groups += [cache.group(w, h) for h in ctx.min_galleries(w)
                   if h.type_word != canonical]
    for g in groups:
        for i in range(g.k):
            assert g.left_perm(i) == [wordops.collect_mul(1 << i, y, g.k, g._comm)
                                      for y in g.elements()], (g, i)


def test_abelian_table_fails_certification(ctx, cache):
    # a table derived with every insertion dropped presents the abelian
    # group of the same order; the certificate, not the build, rejects it
    g = cache.group("stst", ctx.gallery("stst"))
    g._comm = bytes(len(g._comm))
    g._table = g._build_table()
    assert all(g.mul(x, y) == x ^ y for x in g.elements() for y in g.elements())
    with pytest.raises(BlueprintError, match=r"relation \[u_0, u_3\] = \(1, 2\) fails"):
        g.certify_order()


def test_collection_checked_mode(ctx):
    from coxkit.roots import RootSystem
    checked = GroupCache(ctx, RootSystem(ctx), check_measure=True)
    g = checked.group("stsr")
    rng = random.Random(3)
    for _ in range(200):
        x, y = rng.randrange(g.order), rng.randrange(g.order)
        assert g.mul(g.mul(x, y), g.inv(y)) == x
        assert g.mul(x, g.inv(x)) == g.mul(g.inv(x), x) == g.identity


def test_gallery_independence(ctx, cache):
    assert gallery_independence(cache, "rst")    # unique reduced word
    assert gallery_independence(cache, "stst")   # two reduced words
    for w in ctx.ball(4):
        assert gallery_independence(cache, w)


def test_v_subgroup_listing(cache):
    g = cache.group("stst")
    v = cache.v_subgroup("", "st")
    assert v.order == 8 and g.order // v.order == 2
    us, ut = g.root_mask(g.roots[0]), g.root_mask(g.roots[3])
    lhs = g.mul(g.mul(g.mul(us, ut), us), ut)
    rhs = g.mul(g.mul(g.mul(ut, us), ut), us)
    assert lhs == rhs
    expected = {0, us, ut, g.mul(us, ut), g.mul(ut, us),
                g.mul(g.mul(us, ut), us), g.mul(g.mul(ut, us), ut), lhs}
    assert frozenset(v.elements()) == frozenset(expected)


def test_v_subgroup_general_gate(ctx, cache):
    v = cache.v_subgroup("r", "st")
    amb = cache.group(ctx.mult("r", "stst"))
    assert v.order * 2 == amb.order


def test_v_subgroup_rejects_non_gate(cache):
    with pytest.raises(ValueError):
        cache.v_subgroup("s", "st")


def test_inclusions(ctx, cache):
    mono = cache.inclusion("s", "st")
    assert mono.source.order == 2 and mono.target.order == 4
    mono = cache.inclusion("stst", "ststr")
    assert mono.source.order == 16 and mono.target.order == 32
    # composition along a reduced word equals the direct inclusion
    rng = random.Random(9)
    for _ in range(20):
        w = rng.choice(ctx.ball(5))
        exts = [g for g in "rst" if len(ctx.mult(w, g)) == len(w) + 1]
        if len(w) < 1 or not exts:
            continue
        g1 = rng.choice(exts)
        mid = ctx.mult(w, g1)
        exts2 = [g for g in "rst" if len(ctx.mult(mid, g)) == len(mid) + 1]
        g2 = rng.choice(exts2)
        top = ctx.mult(mid, g2)
        direct = cache.inclusion(w, top)
        first = cache.inclusion(w, mid)
        second = cache.inclusion(mid, top)
        for x in cache.group(w).elements():
            assert direct(x) == second(first(x))
    with pytest.raises(ValueError):
        cache.inclusion("st", "sr")


def test_intersections(ctx, cache):
    # inside U at w = s * r_rt
    amb = cache.group(ctx.mult("s", ctx.longest("rt")))
    a = subgroup(amb, [amb.root_mask(r) for r in cache.phi("sr")])
    b = subgroup(amb, [amb.root_mask(r) for r in cache.phi("st")])
    ea, eb = frozenset(a.elements()), frozenset(b.elements())
    expect = subgroup(amb, [amb.root_mask(r) for r in cache.phi("s")])
    assert ea & eb == frozenset(expect.elements())
    trivial = subgroup(amb, [])
    assert frozenset(trivial.elements()) & ea == {0}


def test_group_mono_rejects_non_hom(cache):
    src = cache.group("st")
    dst = cache.group("stst")
    bad = {x: x for x in src.elements()}
    bad[3] = 5
    with pytest.raises(BlueprintError):
        GroupMono(src, dst, bad)


def test_local_weyl_invariance_sampled(ctx, cache):
    rs = cache.rsys
    bp = cache.blueprint
    rng = random.Random(17)
    done = 0
    while done < 200:
        w = rng.choice(ctx.ball(6))
        if not w:
            continue
        s = rng.choice("rst")
        gals = ctx.min_galleries(w)
        if ctx.has_left_descent(w, s):
            gals = tuple(g for g in gals if g.type_word.startswith(s))
        g = rng.choice(gals)
        seq = rs.inversion_sequence(g)
        simple_s = rs.simple(s)
        pool = [a for a in seq if a != simple_s]
        if len(pool) < 2:
            continue
        i, j = sorted(rng.sample(range(len(pool)), 2))
        a, b = pool[i], pool[j]
        if rs.pair_class(a, b).kind != "finite":
            continue
        sg = ctx.gallery_shift(s, g)
        sa, sb = rs.act(s, a), rs.act(s, b)
        lhs = bp.value(sg, sa, sb)
        rhs = tuple(rs.act(s, c) for c in bp.value(g, a, b))
        assert set(lhs) == set(rhs)
        done += 1


def test_table_export_golden(cache):
    text = cache.group("stst").export_table()
    path = os.path.join(GOLDEN, "table_stst.txt")
    with open(path) as fh:
        assert fh.read() == text
