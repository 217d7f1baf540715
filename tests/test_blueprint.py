import collections
import os
import random
import re

import pytest

from coxkit import blueprint, wordops
from coxkit.blueprint import (BlueprintError, BlueprintGroup, GroupCache,
                              GroupMono, KacMoodyBlueprint,
                              gallery_independence, subgroup)
from coxkit.suites import run_blueprint

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _gallery_independence_by_monos(cache, w):
    """The per-gallery check gallery_independence replaced, kept as its
    oracle: build U_h for every other minimal gallery h and check the
    generator-identity map U_h -> U_w as a GroupMono, |U_h|^2 products."""
    base = cache.group(w)
    for h in cache.ctx.min_galleries(base.w):
        if h.type_word == base.gallery.type_word:
            continue
        try:
            other = cache.group(w, h)
            GroupMono(other, base, {x: base.root_product(other.word_of(x))
                                    for x in other.elements()})
        except BlueprintError:
            return False
    return True


def _mutated_cache(cache, mutate):
    """A fresh GroupCache whose blueprint answers mutate(seq, a, b, M) in
    place of M on the non-canonical minimal gallery tsts of stst, with seq
    that gallery's crossing order."""
    fresh = GroupCache(cache.ctx, cache.rsys)
    value = fresh.blueprint.value

    def wrapped(g, a, b):
        mids = value(g, a, b)
        if g.type_word != "tsts":
            return mids
        return mutate(fresh.rsys.inversion_sequence(g), a, b, mids)
    fresh.blueprint.value = wrapped
    assert fresh.group("stst").gallery.type_word == "stst"
    return fresh


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
        grp.certify_order()


def test_tables_match_direct_collection(ctx, cache):
    groups = [cache.group(w) for w in ctx.ball(5)]
    # groups along the galleries the GroupMono oracle compares
    groups += [cache.group("stst", h) for h in ctx.min_galleries("stst")]
    for g in groups:
        for x in g.elements():
            for y in g.elements():
                assert g.mul(x, y) == wordops.collect_mul(x, y, g.k, g._comm)


def test_generator_rows_match_collection_for_report_groups(ctx, cache):
    # every group the blueprint suite builds: ball(7) under canonical
    # galleries, whose rows certify_order and gallery_independence read
    for g in (cache.group(w) for w in ctx.ball(7)):
        for i in range(g.k):
            assert g.rows[i] == [wordops.collect_mul(1 << i, y, g.k, g._comm)
                                 for y in g.elements()], (g, i)


def test_abelian_table_fails_certification(ctx, cache):
    # rows derived with every insertion dropped present the abelian group
    # of the same order; the certificate, not the build, rejects them
    g = cache.group("stst", ctx.gallery("stst"))
    g._comm = bytes(len(g._comm))
    for name in ("rows", "_table"):   # recomposed from _comm on next use
        vars(g).pop(name, None)
    assert all(g.mul(x, y) == x ^ y for x in g.elements() for y in g.elements())
    with pytest.raises(BlueprintError, match=r"relation \[u_0, u_3\] = \(1, 2\) fails"):
        g.certify_order()


def test_certification_composes_no_table(ctx, cache):
    fresh = GroupCache(ctx, cache.rsys)
    groups = [fresh.group(w) for w in ctx.ball(7)]
    for g in groups:
        g.certify_order()
    assert not [g for g in groups if "_table" in vars(g)]
    g = fresh.group("stst")
    assert g.mul(8, 1) == 0b1111
    assert "_table" in vars(g)


def test_blueprint_suite_builds_each_group_once_and_one_table(ctx, monkeypatch):
    built = []
    init = BlueprintGroup.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(BlueprintGroup, "__init__", counted)
    assert run_blueprint(ctx, 7)["pass"]
    assert len(built) == len(ctx.ball(7)) == 250
    assert [g.w for g in built if "_table" in vars(g)] == ["stst"]


def test_blueprint_suite_counts_only_the_groups_that_certify(ctx, monkeypatch):
    # one group whose certification fails is a problem, not a certified group
    ball = ctx.ball(4)
    broken = ball[len(ball) // 2]
    certify = BlueprintGroup.certify_order

    def failing(self):
        if self.w == broken:
            raise BlueprintError(f"forced failure in U_{self.w}")
        return certify(self)
    monkeypatch.setattr(BlueprintGroup, "certify_order", failing)
    out = run_blueprint(ctx, 4)
    assert out["groups_certified"] == len(ball) - 1
    assert out["problems"] == [{"w": broken, "error": f"forced failure in U_{broken}"}]
    assert out["pass"] is False


def test_blueprint_suite_harvests_relations_once_per_group(ctx, monkeypatch):
    # gallery independence on ball(6) reuses the verdicts of the ball(7)
    # certification instead of checking every relation a second time;
    # the harvests inside insertion_table are per gallery and not counted
    harvests = collections.Counter()
    in_table = []
    relations = KacMoodyBlueprint.relations
    table = blueprint.insertion_table

    def counted(self, galleries):
        galleries = tuple(galleries)
        if not in_table:
            harvests[ctx.normalize(galleries[0].type_word)] += 1
        return relations(self, galleries)

    def insertion(bp, gallery):
        in_table.append(gallery)
        try:
            return table(bp, gallery)
        finally:
            in_table.pop()
    monkeypatch.setattr(KacMoodyBlueprint, "relations", counted)
    monkeypatch.setattr(blueprint, "insertion_table", insertion)
    assert run_blueprint(ctx, 7)["pass"]
    assert sorted(harvests) == sorted(ctx.ball(7))
    assert set(harvests.values()) == {1}


def test_certified_verdict_goes_with_its_rows(ctx, cache):
    g = cache.group("stst", ctx.gallery("stst"))
    assert g.certify_order() == g.certify_order() > 0
    g._comm = bytes(len(g._comm))
    del g.rows   # recomposed from the abelian insertions on next use
    with pytest.raises(BlueprintError, match="fails"):
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
    for w in ctx.ball(6):
        # the former per-gallery GroupMono check agrees
        assert gallery_independence(cache, w) \
            and _gallery_independence_by_monos(cache, w), w


def test_gallery_independence_rejects_a_dropped_insertion(cache):
    # [u_a, u_d] = u_b on tsts, where the blueprint says u_b u_c
    bad = _mutated_cache(cache, lambda seq, a, b, mids: mids[:1])
    assert not gallery_independence(bad, "stst")
    assert not _gallery_independence_by_monos(bad, "stst")
    grp = bad.group("stst")
    a, b, c, d = (grp._pos[root] for root in
                  cache.rsys.inversion_sequence(cache.ctx.gallery("tsts")))
    with pytest.raises(BlueprintError,
                       match=re.escape(f"relation [u_{a}, u_{d}] = ({b},) fails")):
        grp.certify_order()


@pytest.mark.parametrize("insertion", [
    # [u_a, u_c] = u_d on tsts with d crossed after both a and c
    lambda seq: ((seq[0], seq[2]), (seq[3],)),
    # [u_a, u_d] = u_a u_a u_b u_c: the relation still holds on the rows,
    # but the bound |U_h| <= 2^k no longer follows from collection along h
    lambda seq: ((seq[0], seq[3]), (seq[0], seq[0], seq[1], seq[2])),
], ids=["after-pair", "cancelling"])
def test_gallery_independence_rejects_an_insertion_outside_its_pair(cache, insertion):
    def outside(seq, a, b, mids):
        pair, mids_out = insertion(seq)
        return mids_out if (a, b) == pair else mids
    bad = _mutated_cache(cache, outside)
    assert not gallery_independence(bad, "stst")
    assert not _gallery_independence_by_monos(bad, "stst")


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
