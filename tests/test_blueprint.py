import collections
import os
import random
import re

import pytest

from coxkit import blueprint, wordops
from coxkit import zroot2 as z2
from coxkit.blueprint import (TABLE_CAP, BlueprintError, BlueprintGroup,
                              GroupCache, KacMoodyBlueprint,
                              gallery_independence, insertion_column)
from coxkit.coxeter import Coxeter
from coxkit.roots import RootSystemError
from coxkit.suites import run_blueprint, run_section4
from galleries import gallery, gallery_shift, group_along, has_left_descent

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


class GroupMono:
    """A verified injective homomorphism between blueprint-style groups."""

    def __init__(self, source, target, images: dict):
        self.source = source
        self.target = target
        self.images = images
        src = list(source.elements())
        if len({images[x] for x in src}) != len(src):
            raise BlueprintError("map is not injective")
        for x in src:
            for y in src:
                lhs = images[source.mul(x, y)]
                rhs = target.mul(images[x], images[y])
                if lhs != rhs:
                    raise BlueprintError("map is not a homomorphism")

    def __call__(self, x):
        return self.images[x]


def inclusion(cache, w: str, target_w: str) -> GroupMono:
    """The natural inclusion U_w -> U_w' for w a prefix of w', matching
    the root generators."""
    ctx = cache.ctx
    w = ctx.normalize(w)
    target_w = ctx.normalize(target_w)
    if not ctx.prefix_leq(w, target_w):
        raise ValueError(f"{w!r} is not a prefix of {target_w!r}")
    src = cache.group(w)
    dst = cache.group(target_w)
    images = {x: dst.root_product(src.word_of(x)) for x in src.elements()}
    return GroupMono(src, dst, images)


def generator(i: int) -> int:
    """The bitmask of the generator u_{i+1} of a blueprint group."""
    return 1 << i


def rows_by_recurrence(grp) -> list:
    """The whole-row recurrence the grown rows replaced, kept as their
    oracle: every row over all 2^k normal forms, filled in increasing i
    and y from one collection per pair j < i.  With j the lowest letter
    of y below i, y = u_j * y' and u_i * u_j = u_j * z, so u_i * y =
    u_j * (z * y'), read from rows already filled."""
    k, order = grp.k, grp.order
    rows = []
    for i in range(k):
        bit = 1 << i
        tails = []
        for j in range(i):
            z = wordops.collect_mul(bit, 1 << j, k, grp._comm) ^ (1 << j)
            tails.append([a for a in range(i, j, -1) if z >> a & 1])
        row = [0] * order
        rows.append(row)
        for y in range(order):
            low = y & -y
            if low == 0 or low >= bit:
                row[y] = y ^ bit
                continue
            v = y ^ low
            for a in tails[low.bit_length() - 1]:
                v = rows[a][v]
            row[y] = low | v
    return rows


def table_from_scratch(bp, g: str) -> bytes:
    """The insertion table of the gallery g with every pair's M-value
    computed on g itself, kept as the oracle of the tables grown one
    column per prefix: the pair i < j at entry j(j-1)/2 + i."""
    roots = bp.rsys.inversion_sequence(g)
    pos = {root: i for i, root in enumerate(roots)}
    k = len(roots)
    comm = bytearray(3 * (k * (k - 1) // 2))
    for j in range(k):
        for i in range(j):
            mpos = [pos[m] for m in bp.value(g, roots[i], roots[j])]
            base = (j * (j - 1) // 2 + i) * 3
            comm[base:base + 1 + len(mpos)] = [len(mpos), *mpos]
    return bytes(comm)


def recorded_builds(monkeypatch) -> list:
    """The blueprint groups built from here on, in build order."""
    built = []
    init = BlueprintGroup.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)
    monkeypatch.setattr(BlueprintGroup, "__init__", counted)
    return built


def relations_of(bp, galleries) -> set:
    """The per-gallery harvest the grown one replaced, kept as its oracle:
    (a, b, M^h_{a,b}) for every gallery h and every root a crossed before
    b by h."""
    rels = set()
    for h in galleries:
        roots = bp.rsys.inversion_sequence(h)
        for i, a in enumerate(roots):
            for b in roots[i + 1:]:
                rels.add((a, b, bp.value(h, a, b)))
    return rels


def certify_in_full(ctx, grp, rows) -> int:
    """The full certification the grown one replaced, kept as its oracle:
    every row an involution and every relation of every minimal gallery
    of w checked on rows.  Returns the number of relations."""
    for i, row in enumerate(rows):
        if any(row[y] != x for x, y in enumerate(row)):
            raise BlueprintError(f"generator {i} is not an involution")
    pos = grp._pos
    rels = {(pos[a], pos[b], tuple(pos[m] for m in mids)) for a, b, mids
            in relations_of(grp.blueprint, ctx.min_galleries(grp.w))}
    identity = list(range(grp.order))
    for a, b, mids in rels:
        pa, pb = rows[a], rows[b]
        lhs = [pa[pb[pa[y]]] for y in pb]
        rhs = identity
        for m in reversed(mids):
            rhs = [rows[m][x] for x in rhs]
        if lhs != rhs:
            raise BlueprintError(f"relation [u_{a}, u_{b}] = {mids} fails")
    return len(rels)


def _gallery_independence_by_monos(cache, w):
    """The per-gallery check gallery_independence replaced, kept as its
    oracle: build U_h for every other minimal gallery h and check the
    generator-identity map U_h -> U_w as a GroupMono, |U_h|^2 products."""
    try:
        base = cache.group(w)
        for h in cache.ctx.min_galleries(base.w):
            if h != base.gallery:
                other = group_along(cache, h)
                GroupMono(other, base, {x: base.root_product(other.word_of(x))
                                        for x in other.elements()})
    except BlueprintError:
        return False
    return True


def _mutated_cache(cache, mutate):
    """A fresh GroupCache whose blueprint answers mutate(seq, a, b, M) in
    place of M on the non-canonical minimal gallery tsts of stst and on
    every gallery that is a prefix of it, with seq the crossing order of
    tsts: a group along tsts grows its insertion table from the tables of
    its prefixes, so a pair (a, b) of tsts is computed on the first
    prefix that crosses b."""
    fresh = GroupCache(cache.ctx)
    value = fresh.blueprint.value
    seq = fresh.rsys.inversion_sequence(gallery(cache.ctx, "tsts"))

    def wrapped(g, a, b):
        mids = value(g, a, b)
        if not "tsts".startswith(g):
            return mids
        return mutate(seq, a, b, mids)
    fresh.blueprint.value = wrapped
    assert fresh.ctx.normalize("tsts") == "stst"
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
    u1, u4 = generator(0), generator(3)
    assert g.mul(g.mul(u1, u4), g.mul(u1, u4)) == 0b0110
    assert any(g.mul(x, y) != g.mul(y, x)
               for x in g.elements() for y in g.elements())
    assert g.certify_order() > 0


def test_cb2_values(ctx, cache):
    bp = cache.blueprint
    g = gallery(ctx, "stst")
    seq = cache.rsys.inversion_sequence(g)
    assert bp.value(g, seq[0], seq[3]) == (seq[1], seq[2])
    assert bp.value(g, seq[0], seq[1]) == ()
    assert bp.value(g, seq[1], seq[2]) == ()


def test_value_rejects_a_form_value_no_finite_pair_takes(ctx, cache, monkeypatch):
    # B' = 1 (60 degrees) is of finite order, B'^2 < 4, but no dihedral
    # subgroup of (4,4,4) has that angle: the closed form's premise fails
    g = gallery(ctx, "st")
    a, b = cache.rsys.inversion_sequence(g)
    monkeypatch.setattr(z2, "form", lambda u, v: (1, 0))
    with pytest.raises(RootSystemError, match=r"impossible form value \(1, 0\)"):
        cache.blueprint.value(g, a, b)


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
    groups += [group_along(cache, h) for h in ctx.min_galleries("stst")]
    for g in groups:
        for x in g.elements():
            row = [wordops.collect_mul(x, y, g.k, g._comm) for y in g.elements()]
            assert [g.mul(x, y) for y in g.elements()] == row


def test_generator_rows_match_collection_for_report_groups(ctx, cache):
    # every group the blueprint suite builds: ball(7) under canonical
    # galleries, whose rows certify_order and gallery_independence read
    for g in (cache.group(w) for w in ctx.ball(7)):
        for i in range(g.k):
            assert list(g.rows[i][:g.order]) == [
                wordops.collect_mul(1 << i, y, g.k, g._comm)
                for y in g.elements()], (g, i)


def test_grown_rows_and_counts_match_the_full_oracle(ctx):
    # the grown rows and the certificate along the prefix tree against the
    # whole-row recurrence and the full certification: every group of
    # ball(7), the groups along every minimal gallery of stst and ststr,
    # and the groups of order 256 (byte rows) and 512 (list rows) along
    # the first gallery of length 9 in ball(9), as in the table-cap test
    fresh = GroupCache(ctx)
    groups = [fresh.group(w) for w in ctx.ball(7)]
    groups += [group_along(fresh, h) for w in ("stst", "ststr")
               for h in ctx.min_galleries(w)]
    assert len(groups) == 250 + 2 + 2
    w = next(w for w in ctx.ball(9) if len(w) == 9)
    groups += [fresh.group(w[:-1]), fresh.group(w)]
    for g in groups:
        rows = rows_by_recurrence(g)
        assert [list(row[:g.order]) for row in g.rows] == rows, g
        assert g.certify_order() == certify_in_full(ctx, g, rows), g


def test_grown_harvest_matches_the_per_gallery_harvest(ctx, cache):
    # the harvest lemma on ball(7): the relations of every minimal gallery
    # of w, and they contain those of the canonical prefix
    bp = cache.blueprint
    for w in ctx.ball(7):
        got = bp.harvest(w)
        assert got == relations_of(bp, ctx.min_galleries(w)), w
        if w:
            assert bp.harvest(w[:-1]) <= got, w


def test_harvest_by_descents_matches_the_per_gallery_oracle_on_ball_8(ctx):
    # one gallery per right descent gives the relation set of every
    # minimal gallery, M-letters in the same order, on all of ball(8)
    bp = GroupCache(ctx).blueprint
    total = 0
    for w in ctx.ball(8):
        got = bp.harvest(w)
        assert got == relations_of(bp, ctx.min_galleries(w)), w
        total += len(got)
    assert total == 9741


def test_prefix_grown_tables_match_the_tables_built_from_scratch(ctx, monkeypatch):
    # every canonical group the blueprint and section-4 suites build: the
    # prefix's table plus the column of the new root is the table of every
    # pair computed on the whole gallery
    built = recorded_builds(monkeypatch)
    assert run_blueprint(ctx, 7)["pass"]
    assert run_section4(ctx)["pass"]
    assert built and all(g.gallery == g.w for g in built)
    for g in built:
        assert g._comm == table_from_scratch(g.blueprint, g.gallery), g


def test_blueprint_suite_value_calls(monkeypatch):
    # the tables compute only the k-1 pairs of each new root, and the
    # harvest one gallery per right descent: 1,503 + 1,323 calls, where
    # whole tables and one gallery per minimal gallery took 4,044 + 1,524
    calls = []
    value = KacMoodyBlueprint.value

    def counted(self, g, a, b):
        calls.append((g, a, b))
        return value(self, g, a, b)
    monkeypatch.setattr(KacMoodyBlueprint, "value", counted)
    assert run_blueprint(Coxeter(), 7)["pass"]
    assert len(calls) == 2826


def test_canonical_prefix_inclusion_is_the_identity_on_bitmasks(ctx):
    # the rows lemma seen through the natural inclusion: U_w' -> U_w along
    # the canonical prefix sends each normal form to itself
    fresh = GroupCache(ctx)
    for w in ctx.ball(6)[1:]:
        mono = inclusion(fresh, w[:-1], w)
        assert mono.images == {x: x for x in mono.source.elements()}, w


def _tampered_builds(monkeypatch, w) -> list:
    """Patch the group build: from here on U_w is built with entry y of
    row i changed, for the last (i, y) appended to the list returned,
    before the cache that builds it certifies it."""
    tamper = []
    build = BlueprintGroup.__init__

    def tampered(self, *args):
        build(self, *args)
        if self.w == w:
            i, y = tamper[-1]
            self.rows[i][y] ^= 1
    monkeypatch.setattr(BlueprintGroup, "__init__", tampered)
    return tamper


def test_tampered_prefix_rows_fail_the_extension(ctx, cache, monkeypatch):
    # every single-entry change to the rows of U_stst makes its canonical
    # extension ststr fail: a fresh cache certifies U_stst before it grows
    # ststr from it, old rows checked grown from U_sts, the new row an
    # involution
    grp = cache.group("stst")
    tamper = _tampered_builds(monkeypatch, "stst")
    for i in range(grp.k):
        for y in grp.elements():
            tamper.append((i, y))
            with pytest.raises(BlueprintError, match=r"in U_stst|U_stst is"):
                GroupCache(ctx).group("ststr")


# run under -O, where an assert would be stripped: tampered prefix rows
# must still fail the extension's build
TAMPER_UNDER_O = """
from coxkit.blueprint import BlueprintError, BlueprintGroup, GroupCache
from coxkit.coxeter import standard_coxeter
ctx = standard_coxeter()
build = BlueprintGroup.__init__
for i, y in ((0, 5), (3, 9)):
    def tampered(self, *args, i=i, y=y):
        build(self, *args)
        if self.w == "stst":
            self.rows[i][y] ^= 1
    BlueprintGroup.__init__ = tampered
    try:
        GroupCache(ctx).group("ststr")
    except BlueprintError as exc:
        print("raised", exc)
"""


@pytest.mark.parametrize("w", ["stst", "rsrstrsrs"])
def test_a_row_entry_past_the_order_fails_certification(ctx, monkeypatch, w):
    # entry 5 of the newest row of U_stst (byte rows) and of a group of
    # order 512 (list rows) set to the order: a typed failure, not an
    # IndexError, whether the identity padding or the range check sees it
    build = BlueprintGroup.__init__

    def tampered(self, *args):
        build(self, *args)
        if self.w == w:
            self.rows[-1][5] = self.order
    monkeypatch.setattr(BlueprintGroup, "__init__", tampered)
    failure = f"generator {len(w) - 1} is not an involution in U_{w}"
    with pytest.raises(BlueprintError, match=re.escape(failure)):
        GroupCache(ctx).group(w)


def test_tampered_prefix_rows_fail_under_optimize(run_optimized):
    out = run_optimized(TAMPER_UNDER_O)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "raised row 0 of U_stst is not grown from U_sts",
        "raised generator 3 is not an involution in U_stst"]


# a blueprint wrapped to give the pair (0, 4) of ststr an M-value of three
# letters, all strictly between 0 and 4: the table has room for two, so
# it must refuse the value, also under -O
THREE_LETTERS = """
from coxkit.blueprint import BlueprintError, GroupCache, insertion_column
from coxkit.coxeter import standard_coxeter
cache = GroupCache(standard_coxeter())
g = "ststr"
seq = cache.rsys.inversion_sequence(g)
value = cache.blueprint.value
cache.blueprint.value = lambda h, a, b: (
    seq[1:4] if (h, a, b) == (g, seq[0], seq[4]) else value(h, a, b))
try:
    insertion_column(cache.blueprint, g)
except BlueprintError as exc:
    print("raised", exc)
"""
THREE_LETTERS_ERROR = ("raised M-value of the pair (0, 4) has 3 letters, "
                       "more than the two the table holds")


def test_insertion_table_rejects_an_m_value_of_three_letters(cache):
    fresh = GroupCache(cache.ctx)
    g = gallery(fresh.ctx, "ststr")
    seq = fresh.rsys.inversion_sequence(g)
    value = fresh.blueprint.value
    fresh.blueprint.value = lambda h, a, b: (
        seq[1:4] if (h, a, b) == (g, seq[0], seq[4]) else value(h, a, b))
    with pytest.raises(BlueprintError) as err:
        insertion_column(fresh.blueprint, g)
    assert "raised " + str(err.value) == THREE_LETTERS_ERROR


def test_insertion_table_rejects_three_letters_under_optimize(run_optimized):
    out = run_optimized(THREE_LETTERS)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [THREE_LETTERS_ERROR]


def test_collection_above_the_table_cap_agrees_with_the_certified_rows(ctx, cache):
    # order 512: mul reads the certified rows instead of a table; order
    # 256, its prefix: mul reads the table translated from the byte rows;
    # collection is the oracle
    w = next(w for w in ctx.ball(9) if len(w) == 9)
    g = cache.group(w)
    assert g.order == 512 > TABLE_CAP and g._table is None
    for h in (g.prefix, g):
        h.certify_order()
        ys = random.Random(9).sample(range(h.order), 12) + [0, h.order - 1]
        for x in h.elements():
            for y in ys:
                assert h.mul(x, y) == wordops.collect_mul(x, y, h.k, h._comm), (x, y)
            assert h.mul(h.inv(x), x) == h.mul(x, h.inv(x)) == 0, x
    assert g._table is None


def test_abelian_table_fails_certification(ctx, monkeypatch):
    # rows grown with every insertion dropped present the abelian group
    # of the same order; the certificate rejects them, so neither the
    # cache nor group_along hands the group out
    column = blueprint.insertion_column
    monkeypatch.setattr(blueprint, "insertion_column",
                        lambda bp, g: bytes(len(column(bp, g))))
    fresh = GroupCache(ctx)
    g = BlueprintGroup(ctx, fresh.rsys, "stst", fresh.blueprint,
                       fresh.group("sts"))
    assert not any(g._comm)
    assert all(g.mul(x, y) == x ^ y for x in g.elements() for y in g.elements())
    failure = r"relation \[u_0, u_3\] = \(1, 2\) fails in U_stst"
    for build in (g.certify_order, lambda: fresh.group("stst"),
                  lambda: group_along(fresh, gallery(ctx, "stst"))):
        with pytest.raises(BlueprintError, match=failure):
            build()


def test_certification_composes_no_table(ctx, cache):
    fresh = GroupCache(ctx)
    groups = [fresh.group(w) for w in ctx.ball(7)]
    for g in groups:
        g.certify_order()
    assert not [g for g in groups if g._table is not None]
    g = fresh.group("stst")
    assert g.mul(8, 1) == 0b1111
    assert g._table is not None


def test_blueprint_suite_builds_each_group_once_and_one_table(ctx, monkeypatch):
    built = recorded_builds(monkeypatch)
    assert run_blueprint(ctx, 7)["pass"]
    assert len(built) == len(ctx.ball(7)) == 250
    assert [g.w for g in built if g._table is not None] == ["stst"]


def test_phi_is_the_group_roots_and_builds_no_group(ctx, monkeypatch):
    # Phi(w) is read off the root system: on a fresh cache it builds no
    # group, and it is the roots of U_w along the canonical gallery
    fresh = GroupCache(ctx)
    built = recorded_builds(monkeypatch)
    ball = ctx.ball(6)
    phis = {w: fresh.phi(w) for w in ball}
    assert fresh.phi("tsts") == phis["stst"]
    assert built == []
    assert all(phis[w] == fresh.group(w).roots for w in ball)
    assert len(built) == len(ball)


def test_blueprint_suite_counts_only_the_groups_that_certify(ctx, monkeypatch):
    # a group whose certification fails is a problem, not a certified
    # group, and so is every group grown from it: the cache keeps no
    # uncertified tst, so building tstr certifies its prefix tst again,
    # and its error names tst
    ball = ctx.ball(4)
    broken = ball[len(ball) // 2]
    assert broken == "tst"
    certify = BlueprintGroup.certify_order

    def failing(self):
        if self.w == broken:
            raise BlueprintError(f"forced failure in U_{self.w}")
        return certify(self)
    monkeypatch.setattr(BlueprintGroup, "certify_order", failing)
    out = run_blueprint(ctx, 4)
    assert out["problems"] == [{"w": "tst", "error": "forced failure in U_tst"},
                               {"w": "tstr", "error": "forced failure in U_tst"}]
    assert out["groups_certified"] == len(ball) - 2
    assert out["gallery_independence_failures"] == ["tst"]
    assert out["pass"] is False


def test_blueprint_suite_at_length_zero_reads_ball_zero(ctx):
    # the gallery-independence radius max_length - 1 is floored at 0, and
    # the verdict does not depend on which balls were built before
    def strip(out):
        return {k: v for k, v in out.items() if k != "elapsed"}
    cold = run_blueprint(Coxeter(), 0)
    ctx.ball(8)
    warm = run_blueprint(ctx, 0)
    assert cold["gallery_independence_radius"] == 0 and cold["pass"]
    assert strip(cold) == strip(warm)
    assert run_blueprint(ctx, 1)["gallery_independence_radius"] == 0
    assert run_blueprint(ctx, 7)["gallery_independence_radius"] == 6


def test_blueprint_suite_harvests_relations_once_per_group(ctx, monkeypatch):
    # each element's relation set is built once: the ball(7) certification
    # grows it from the sets of the right-descent neighbours, and gallery
    # independence on ball(6) reads the sets already built
    built = collections.Counter()
    harvest = KacMoodyBlueprint.harvest

    def counted(self, w):
        if w not in self._harvests:
            built[w] += 1
        return harvest(self, w)
    monkeypatch.setattr(KacMoodyBlueprint, "harvest", counted)
    assert run_blueprint(ctx, 7)["pass"]
    assert sorted(built) == sorted(ctx.ball(7))
    assert set(built.values()) == {1}


def test_gallery_independence(ctx, cache):
    assert gallery_independence(cache, "rst")    # unique reduced word
    assert gallery_independence(cache, "stst")   # two reduced words
    for w in ctx.ball(6):
        # the former per-gallery GroupMono check agrees
        assert gallery_independence(cache, w) \
            and _gallery_independence_by_monos(cache, w), w


def test_gallery_independence_rejects_a_dropped_insertion(cache):
    # [u_a, u_d] = u_b on tsts, where the blueprint says u_b u_c: a
    # relation of a minimal gallery of stst, so the cache refuses U_stst
    bad = _mutated_cache(cache, lambda seq, a, b, mids: mids[:1])
    a, b, c, d = (cache.group("stst")._pos[root] for root in
                  cache.rsys.inversion_sequence(gallery(cache.ctx, "tsts")))
    with pytest.raises(BlueprintError, match=re.escape(
            f"relation [u_{a}, u_{d}] = ({b},) fails in U_stst")):
        bad.group("stst")
    assert not gallery_independence(bad, "stst")
    assert not _gallery_independence_by_monos(bad, "stst")


@pytest.mark.parametrize("insertion, holds", [
    # [u_a, u_c] = u_d on tsts with d crossed after both a and c: it
    # fails on the rows, so the cache refuses U_stst
    (lambda seq: ((seq[0], seq[2]), (seq[3],)), False),
    # [u_a, u_d] = u_a u_a u_b u_c: the relation still holds on the rows,
    # but the bound |U_h| <= 2^k no longer follows from collection along h
    (lambda seq: ((seq[0], seq[3]), (seq[0], seq[0], seq[1], seq[2])), True),
], ids=["after-pair", "cancelling"])
def test_gallery_independence_rejects_an_insertion_outside_its_pair(
        cache, insertion, holds):
    def outside(seq, a, b, mids):
        pair, mids_out = insertion(seq)
        return mids_out if (a, b) == pair else mids
    bad = _mutated_cache(cache, outside)
    if holds:
        assert bad.group("stst").order == 16
    else:
        with pytest.raises(BlueprintError,
                           match=r"\[u_3, u_1\] = \(0,\) fails in U_stst"):
            bad.group("stst")
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


def test_root_subgroup_is_one_memoized_closure(cache):
    """The root generators in (refl, positive) order whatever order the
    roots come in, closed once per ambient group and root set; V reads
    the same closure."""
    g = cache.group("stst")
    alpha_s, alpha_t = cache.rsys.simple("s"), cache.rsys.simple("t")
    sub = cache.root_subgroup(g, (alpha_t, alpha_s))
    assert cache.root_subgroup(g, [alpha_s, alpha_t]) is sub
    assert sub.gens == (g.root_mask(alpha_s), g.root_mask(alpha_t))
    assert sub.order == 8
    v = cache.v_subgroup("", "st")
    assert cache.v_subgroup("", "ts") is v
    assert set(v.elements()) == sub


def test_v_subgroup_general_gate(ctx, cache):
    v = cache.v_subgroup("r", "st")
    amb = cache.group(ctx.mult("r", "stst"))
    assert v.order * 2 == amb.order


def test_v_subgroup_rejects_non_gate(cache):
    with pytest.raises(ValueError):
        cache.v_subgroup("s", "st")


def test_inclusions(ctx, cache):
    mono = inclusion(cache, "s", "st")
    assert mono.source.order == 2 and mono.target.order == 4
    mono = inclusion(cache, "stst", "ststr")
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
        direct = inclusion(cache, w, top)
        first = inclusion(cache, w, mid)
        second = inclusion(cache, mid, top)
        for x in cache.group(w).elements():
            assert direct(x) == second(first(x))
    with pytest.raises(ValueError):
        inclusion(cache, "st", "sr")


def test_intersections(ctx, cache):
    # inside U at w = s * r_rt
    amb = cache.group(ctx.mult("s", ctx.longest("rt")))
    ea, eb, expect = (cache.root_subgroup(amb, cache.phi(w))
                      for w in ("sr", "st", "s"))
    assert ea & eb == expect
    trivial = cache.root_subgroup(amb, [])
    assert trivial == {0} and trivial.gens == ()


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
        if has_left_descent(ctx, w, s):
            gals = tuple(g for g in gals if g.startswith(s))
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
        sg = gallery_shift(ctx, s, g)
        sa, sb = rs.act(s, a), rs.act(s, b)
        lhs = bp.value(sg, sa, sb)
        rhs = tuple(rs.act(s, c) for c in bp.value(g, a, b))
        assert set(lhs) == set(rhs)
        done += 1


def export_table(group) -> str:
    """The group's multiplication table as text, under a header line."""
    lines = [f"group w={group.w} gallery={group.gallery} "
             f"order={group.order}"]
    for x in range(group.order):
        lines.append(" ".join(str(group.mul(x, y)) for y in range(group.order)))
    return "\n".join(lines) + "\n"


def test_table_export_golden(cache):
    text = export_table(cache.group("stst"))
    path = os.path.join(GOLDEN, "table_stst.txt")
    with open(path) as fh:
        assert fh.read() == text
