import random

import pytest

from coxkit import blueprint
from coxkit import zroot2 as z2
from coxkit.blueprint import GroupCache, KacMoodyBlueprint
from coxkit.cli import main
from coxkit.coxeter import Coxeter
from coxkit.roots import (PairClass, Root, RootSystem, RootSystemError,
                          ball_members, root_system)
from galleries import gallery, inversions_by_prefixes


def prenilpotent(rs, a, b) -> bool:
    """Whether the root pair {a, b} is prenilpotent: equal, of finite
    order, or nested."""
    return a == b or rs.pair_class(a, b).kind in ("finite", "nested")


def member_vec(rs, w: str, a: Root) -> bool:
    """Independent membership oracle: w^-1 * alpha is positive."""
    vec = rs.act_vec(rs.ctx.inv(w), rs.vector(a))
    return z2.vector_sign(vec) == 1


def interval_ball(rs, a, b, g, radius: int) -> tuple:
    """Ball-approximate closed interval [a, b] of any prenilpotent pair:
    the roots of Phi(g) that no element of ball(radius) keeps out of it."""
    return tuple(c for c in rs.inversion_sequence(g)
                 if not rs._refutations(a, b, c, radius))


class IntervalNotExact(RuntimeError):
    """An exact interval was asked of a pair of infinite order."""


def _in_cone(v, va, vb) -> bool:
    """Exact test: v in R>=0 va + R>=0 vb (2-dim cone)."""
    for i, j in ((0, 1), (0, 2), (1, 2)):
        det = z2.sub(z2.mul(va[i], vb[j]), z2.mul(va[j], vb[i]))
        if det != z2.ZERO:
            lam = z2.sub(z2.mul(v[i], vb[j]), z2.mul(v[j], vb[i]))
            mu = z2.sub(z2.mul(va[i], v[j]), z2.mul(va[j], v[i]))
            # residual on all coordinates: det*v - lam*va == mu*vb
            for m in range(3):
                lhs = z2.sub(z2.mul(det, v[m]), z2.mul(lam, va[m]))
                if lhs != z2.mul(mu, vb[m]):
                    return False
            sd = z2.sign(det)
            return z2.sign(lam) * sd >= 0 and z2.sign(mu) * sd >= 0
    raise RootSystemError("independent roots must have a nonzero minor")


def interval(rs, a, b, g) -> tuple:
    """Closed interval [a, b] ordered by the gallery's crossing order: the
    roots of Phi(G) in the cone of a and b.

    The cone-test oracle of the blueprint's closed form.  Exact for
    finite-order pairs (their walls meet in a point, so membership in the
    interval is the cone test on vectors).  Raises IntervalNotExact for
    nested pairs, whose walls do not meet."""
    roots = rs.inversion_sequence(g)
    order = {root: i for i, root in enumerate(roots)}
    if a not in order or b not in order:
        raise ValueError("interval endpoints must lie in Phi(G)")
    if order[a] > order[b]:
        raise ValueError("endpoints must satisfy a <=_G b")
    if a == b:
        return (a,)
    if rs.pair_class(a, b).kind != "finite":
        raise IntervalNotExact(
            "exact intervals are only computed for finite-order pairs")
    va, vb = rs.vector(a), rs.vector(b)
    out = tuple(c for c in roots if _in_cone(rs.vector(c), va, vb))
    if a not in out or b not in out:
        raise RootSystemError(f"interval [{a!r}, {b!r}] misses an endpoint")
    return out


def open_interval(rs, a, b, g) -> tuple:
    if a == b:
        return ()
    return tuple(c for c in interval(rs, a, b, g) if c not in (a, b))


def oracle_value(rs, g, a, b) -> tuple:
    """M^G_{a,b} by its definition: the open interval of a finite-order
    pair when it holds exactly two roots, else empty."""
    if rs.pair_class(a, b).kind != "finite":
        return ()
    mids = open_interval(rs, a, b, g)
    return mids if len(mids) == 2 else ()


def compare_with_oracle(ctx, bp, radius: int):
    """bp.value against oracle_value on every pair of Phi(w) along the
    canonical gallery, for every w in ball(radius).  Returns the number of
    pairs, {unordered pair: oracle value} and the (w, a, b) where value
    disagrees or raises RootSystemError."""
    rs = bp.rsys
    pairs, values, wrong = 0, {}, []
    for w in ctx.ball(radius):
        g = w
        seq = rs.inversion_sequence(g)
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                pairs += 1
                want = values[frozenset((a, b))] = oracle_value(rs, g, a, b)
                try:
                    got = bp.value(g, a, b)
                except RootSystemError:
                    got = None
                if got != want:
                    wrong.append((w, a, b))
    return pairs, values, wrong


# _GRAM[j][k] = B'(e_j, e_k), so the reflection k sends e_j to
# e_j - _GRAM[j][k] e_k
_GRAM = tuple(tuple(z2.form(z2.basis(j), z2.basis(k)) for k in range(3))
              for j in range(3))


def oracle_crossings(ctx, radius: int) -> dict:
    """The crossing table of RootSystem._crossings built the long way:
    each image by the general reflection formula over the Gram matrix,
    and each element's whole inversion set ORed in wall by wall."""
    ball = ctx.ball(radius)
    index = {w: i for i, w in enumerate(ball)}
    images = [tuple(z2.basis(k) for k in range(3))]
    inversions = [()]
    for x in ball[1:]:
        y, k = index[x[:-1]], "rst".index(x[-1])
        iy = images[y]
        wall = iy[k]
        assert z2.vector_sign(wall) == 1, x
        images.append(tuple(z2.vsub(iy[j], z2.vscale(_GRAM[j][k], wall))
                            for j in range(3)))
        inversions.append(inversions[y] + (wall,))
    got = {}
    for i, walls in enumerate(inversions):
        for wall in walls:
            got[wall] = got.get(wall, 0) | 1 << i
    return got


@pytest.fixture(scope="module")
def rs(ctx):
    return RootSystem(ctx)


def test_one_root_system_per_context(ctx):
    rs = root_system(ctx)
    assert root_system(ctx) is rs and GroupCache(ctx).rsys is rs
    assert root_system(Coxeter()) is not rs


@pytest.mark.parametrize("radii", [(10, 8), (8, 10)], ids=["10-then-8", "8-then-10"])
def test_crossing_tables_match_the_gram_oracle(ctx, radii):
    rs = RootSystem(ctx)
    for radius in radii:
        assert rs._crossings(radius) == oracle_crossings(ctx, radius)
    assert sorted(rs._crossed) == [8, 10]


def test_each_crossing_table_walks_its_own_ball(ctx, monkeypatch):
    # each table makes one sign check per element of its own ball but the
    # identity, and the root system keeps no walk once the tables are built
    rs = RootSystem(ctx)
    signs = []
    vector_sign = z2.vector_sign
    monkeypatch.setattr(z2, "vector_sign", lambda vec: signs.append(vec) or
                        vector_sign(vec))
    for radius in (8, 10):
        del signs[:]
        rs._crossings(radius)
        assert len(signs) == len(ctx.ball(radius)) - 1
    assert set(vars(rs)) == {"ctx", "_vectors", "_roots_from", "_inversions",
                             "_crossed"}


def test_root_is_a_tuple_key(ctx):
    # hash and equality are tuple's own; a Root never equals a gallery's
    # type word, a product memo's key or a (word, letter) pair
    assert Root.__hash__ is tuple.__hash__ and Root.__eq__ is tuple.__eq__
    rs = root_system(ctx)
    a = rs.simple("s")
    assert a == Root("s", True) and hash(a) == hash(("s", True))
    assert repr(a) == "Root(+s)" and repr(rs.opposite(a)) == "Root(-s)"
    assert a != "s" and "s" != a
    for w in ctx.ball(4):
        for s in "rst":
            rs.root_from(w, s)
    pairs = {(w, g) for g, row in ctx._right.items() for w in row}
    assert rs._vectors and rs._roots_from and pairs
    assert set(rs._roots_from).isdisjoint(rs._vectors)
    assert pairs.isdisjoint(rs._vectors)
    assert {w for w, _ in pairs}.isdisjoint(rs._vectors)
    rs.inversion_sequence("stst")
    assert set(rs._inversions).isdisjoint(rs._vectors)


@pytest.mark.parametrize("radius", [4, 8, 10])
def test_halfspace_agrees_with_member_vec_on_a_sample(ctx, rs, radius):
    rng = random.Random(radius)
    ball = ctx.ball(radius)
    for _ in range(300):
        a = rs.root_from(rng.choice(ball), rng.choice("rst"))
        if rng.random() < 0.5:
            a = rs.opposite(a)
        i = rng.randrange(len(ball))
        assert bool(rs.halfspace(a, radius) >> i & 1) == \
            member_vec(rs, ball[i], a), (a, ball[i])


def test_root_examples(ctx, rs):
    a_s = rs.simple("s")
    assert rs.member("", a_s)
    rt = rs.root_from("r", "t")
    assert rt.refl == "rtr" and rt.positive
    assert rs.root_from("s", "s") == rs.opposite(a_s)
    assert rs.opposite(rs.opposite(a_s)) == a_s


def test_membership_cross_checks(ctx, rs):
    roots = {rs.root_from(w, g) for w in ctx.ball(4) for g in "rst"}
    for w in ctx.ball(5):
        for a in roots:
            assert rs.member(w, a) == member_vec(rs, w, a)
    small = {rs.root_from(w, g) for w in ctx.ball(2) for g in "rst"}
    for w in ctx.ball(8):
        for a in small:
            assert rs.member(w, a) != rs.member(w, rs.opposite(a))


def test_halfspace_agrees_with_member_and_oracle(ctx, rs):
    # every root met from ball(6), the opposites, and a wall that ball(7)
    # never crosses (rsrstrs*t, of length 8, crosses it)
    roots = {rs.root_from(v, g) for v in ctx.ball(6) for g in "rst"}
    roots |= {rs.opposite(a) for a in roots}
    far = rs.root_from("rsrstrs", "t")
    roots |= {far, rs.opposite(far)}
    ball = ctx.ball(7)
    for a in roots:
        bits = rs.halfspace(a, 7)
        assert bits >> len(ball) == 0
        got = [bool(bits >> i & 1) for i in range(len(ball))]
        assert got == [rs.member(w, a) for w in ball], a
        assert got == [member_vec(rs, w, a) for w in ball], a
    assert rs.halfspace(far, 7) == (1 << len(ball)) - 1
    assert rs.halfspace(rs.opposite(far), 7) == 0


def test_ball_members_in_ball_order(ctx):
    ball = ctx.ball(2)
    assert list(ball_members(ball, 0b1011)) == [ball[0], ball[1], ball[3]]
    assert list(ball_members(ball, 0)) == []


def test_pair_class_is_a_tuple_key(ctx):
    # like Root, a pair class hashes and compares as its plain tuple
    assert PairClass.__hash__ is tuple.__hash__
    assert PairClass.__eq__ is tuple.__eq__
    rs = root_system(ctx)
    a, b = rs.simple("s"), rs.simple("t")
    pc = rs.pair_class(a, b)
    assert pc == ("finite", 4, None, None, None) and pc == PairClass("finite", 4)
    assert {pc: 1}[("finite", 4, None, None, None)] == 1
    assert rs.pair_class(a, rs.opposite(a)) == PairClass(kind="opposite")


def test_root_from_hit_makes_no_product_and_keys_stay_canonical(ctx, monkeypatch):
    rs = RootSystem(ctx)
    calls = []
    mult = Coxeter.mult
    monkeypatch.setattr(Coxeter, "mult",
                        lambda self, *words: calls.append(words) or
                        mult(self, *words))
    a = rs.root_from("rs", "t")
    assert calls
    del calls[:]
    assert rs.root_from("rs", "t") is a and not calls
    # a word that is not reduced (rsrs = srsr, so rsrsr = srs) gives the
    # root of its canonical form and is stored under that form only
    word = "rsrsr"
    canon = ctx.normalize(word)
    assert canon != word
    got = rs.root_from(word, "s")
    assert got == rs.root_from(canon, "s") == RootSystem(ctx).root_from(canon, "s")
    assert (word, "s") not in rs._roots_from and (canon, "s") in rs._roots_from
    assert all(ctx.normalize(v) == v for v, _ in rs._roots_from)


def _wall_point(rs, a):
    """A time-like point on the wall of a: 2*tau - B'(tau, a)*a, with
    tau = (-1, -1, -1) in the forward cone."""
    tau = ((-1, 0), (-1, 0), (-1, 0))
    va = rs.vector(a)
    return z2.vsub(z2.vscale((2, 0), tau), z2.vscale(z2.form(tau, va), va))


def pair_class_by_wall_point(rs, a, b) -> tuple:
    """pair_class with its orientation read off B'(b, p) at the wall
    point p of a, computed as a vector: the closed form's oracle."""
    if b == rs.opposite(a):
        return PairClass(kind="opposite")
    c = z2.form(rs.vector(a), rs.vector(b))
    if z2.sign(z2.sub(z2.mul(c, c), (4, 0))) < 0:
        return PairClass(kind="finite", order=2 if c == z2.ZERO else 4)
    side = z2.sign(z2.form(rs.vector(b), _wall_point(rs, a)))
    assert side != 0
    if z2.sign(c) > 0:
        small, large = (a, b) if side > 0 else (b, a)
        return PairClass(kind="nested", contained=small, container=large)
    return PairClass(kind="anti_nested",
                     detail="cover" if side > 0 else "disjoint")


def test_pair_class_closed_form_matches_the_wall_point_oracle(ctx):
    rs = RootSystem(ctx)
    roots = sorted({rs.root_from(w, g) for w in ctx.ball(5) for g in "rst"})
    kinds = set()
    for a in roots:
        for b in roots:
            if a != b:
                got = rs.pair_class(a, b)
                assert got == pair_class_by_wall_point(rs, a, b), (a, b)
                kinds.add((got.kind, got.detail))
    assert kinds == {("opposite", None), ("finite", None), ("nested", None),
                     ("anti_nested", "cover"), ("anti_nested", "disjoint")}


def test_action(ctx, rs):
    a_t = rs.simple("t")
    b = rs.act("r", a_t)
    assert b == rs.root_from("r", "t")
    assert rs.act("s", rs.simple("s")) == rs.opposite(rs.simple("s"))


def test_pair_class_finite(ctx, rs):
    pc = rs.pair_class(rs.simple("s"), rs.simple("t"))
    assert pc.kind == "finite" and pc.order == 4
    assert prenilpotent(rs, rs.root_from("r", "s"), rs.root_from("r", "t"))
    assert not prenilpotent(rs, rs.simple("s"), rs.opposite(rs.simple("s")))
    # orthogonal pair inside a rank-2 gallery
    seq = rs.inversion_sequence(gallery(ctx, "stst"))
    pc = rs.pair_class(seq[0], seq[2])
    assert pc.kind == "finite" and pc.order == 2


def test_inversion_sequence(ctx, rs):
    for w in ctx.ball(6):
        for g in ctx.min_galleries(w):
            seq = rs.inversion_sequence(g)
            assert len(seq) == len(w)
            assert all(a.positive for a in seq)
        # the crossed-root set does not depend on the gallery
        sets = {frozenset(rs.inversion_sequence(g))
                for g in ctx.min_galleries(w)}
        assert len(sets) == 1


def test_inversion_sequence_grown_from_the_prefix_matches_the_chamber_walk(ctx):
    # every minimal gallery of every element of ball(7): the sequence grown
    # from the prefix's memoized one against each root taken from its own
    # chamber, on a separate root system
    grown, walked = RootSystem(ctx), RootSystem(ctx)
    galleries = [g for w in ctx.ball(7) for g in ctx.min_galleries(w)]
    assert len(galleries) == 310
    for g in galleries:
        assert grown.inversion_sequence(g) == inversions_by_prefixes(walked, g), g


@pytest.mark.parametrize("word", ["ss", "ststs"])
def test_inversion_sequence_rejects_a_word_that_is_not_reduced(ctx, word):
    with pytest.raises(RootSystemError, match="negative inversion root"):
        RootSystem(ctx).inversion_sequence(word)


def test_vector_refuses_a_root_the_system_never_made(ctx):
    rs = RootSystem(ctx)
    for a in (Root("s", True), Root("rtr", False)):
        with pytest.raises(RootSystemError, match="this root system never made it"):
            rs.vector(a)
    a = rs.simple("s")
    assert rs.vector(a) == z2.basis(1)
    assert rs.vector(rs.opposite(a)) == z2.vneg(z2.basis(1))
    # the opposite of a root made is made with it; another root is not
    with pytest.raises(RootSystemError, match=r"no vector for Root\(-rtr\)"):
        rs.vector(Root("rtr", False))


def test_intervals_rank2(ctx, rs):
    g = gallery(ctx, "stst")
    seq = rs.inversion_sequence(g)
    assert open_interval(rs, seq[0], seq[3], g) == (seq[1], seq[2])
    assert open_interval(rs, seq[0], seq[1], g) == ()
    assert interval(rs, seq[1], seq[1], g) == (seq[1],)
    with pytest.raises(ValueError):
        interval(rs, seq[3], seq[0], g)
    with pytest.raises(ValueError):
        interval(rs, seq[0], rs.root_from("r", "s"), g)


def test_interval_definitional_cross_check(ctx, rs):
    # cone-test intervals agree with the defining containments on a ball
    ball = ctx.ball(6)
    for type_word in ("stst", "rstr", "tsrt"):
        g = gallery(ctx, type_word)
        seq = rs.inversion_sequence(g)
        for i in range(len(seq)):
            for j in range(i + 1, len(seq)):
                if rs.pair_class(seq[i], seq[j]).kind != "finite":
                    continue
                closed = set(interval(rs, seq[i], seq[j], g))
                for c in seq:
                    ball_in = all(
                        rs.member(w, c)
                        for w in ball
                        if rs.member(w, seq[i]) and rs.member(w, seq[j]))
                    ball_out = all(
                        not rs.member(w, c)
                        for w in ball
                        if not rs.member(w, seq[i]) and not rs.member(w, seq[j]))
                    if c in closed:
                        assert ball_in and ball_out
                    else:
                        assert not (ball_in and ball_out)


def _nested_pairs(ctx, rs, radius=5):
    out = []
    for w in ctx.ball(radius):
        g = ctx.min_galleries(w)[0]
        seq = rs.inversion_sequence(g)
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if rs.pair_class(a, b).kind == "nested":
                    out.append((g, a, b))
    return out


def test_interval_nested_not_exact(ctx, rs):
    nested = _nested_pairs(ctx, rs)
    assert nested
    g, a, b = nested[0]
    with pytest.raises(IntervalNotExact):
        interval(rs, a, b, g)
    roots = interval_ball(rs, a, b, g, 6)
    assert a in roots and b in roots


def test_nested_orientation_against_ball_oracle(ctx, rs):
    rng = random.Random(7)
    ball6 = ctx.ball(6)
    ball8 = ctx.ball(8)
    full = set(ball8)
    checked = 0
    while checked < 200:
        a = rs.root_from(rng.choice(ball6), rng.choice("rst"))
        b = rs.root_from(rng.choice(ball6), rng.choice("rst"))
        if a == b or a.refl == b.refl:
            continue
        pc = rs.pair_class(a, b)
        if pc.kind == "finite":
            continue
        A = {w for w in ball8 if rs.member(w, a)}
        B = {w for w in ball8 if rs.member(w, b)}
        if pc.kind == "nested":
            small, large = (A, B) if pc.contained == a else (B, A)
            assert small <= large
        elif pc.detail == "disjoint":
            assert not (A & B)
        else:
            assert A | B == full
        checked += 1


def test_emptiness_certificate(ctx, rs):
    # for w in C_0 every nested pair of Phi(w) has a certifiably empty
    # open interval; outside C_0 that can fail (rstrs carries a nested
    # pair whose interval contains a third root)
    from coxkit.constructions import c_set_0
    checked = 0
    for w in sorted(c_set_0(ctx)):
        g = ctx.min_galleries(w)[0]
        seq = rs.inversion_sequence(g)
        for i, a in enumerate(seq):
            for b in seq[i + 1:]:
                if rs.pair_class(a, b).kind != "nested":
                    continue
                ok, data = rs.emptiness_certificate(a, b, g, 8)
                assert ok, (g, a, b, data)
                checked += 1
    assert checked > 0
    # and the counterexample outside C_0 stays a counterexample
    g = ctx.min_galleries("rstrs")[0]
    seq = rs.inversion_sequence(g)
    pairs = [(a, b) for i, a in enumerate(seq) for b in seq[i + 1:]
             if rs.pair_class(a, b).kind == "nested"]
    assert any(not rs.emptiness_certificate(a, b, g, 8)[0]
               for a, b in pairs)


# the negative root s*alpha_s gets a vector that the patched sign calls
# positive; under -O an assert would register it anyway
ROOT_SIGN_UNDER_O = """
from coxkit import zroot2
from coxkit.coxeter import standard_coxeter
from coxkit.roots import RootSystem, RootSystemError
zroot2.vector_sign = lambda vec: 1
rs = RootSystem(standard_coxeter())
rs.simple("s")
try:
    rs.root_from("s", "s")
except RootSystemError:
    print("raised")
"""


def test_root_sign_check_survives_optimize(run_optimized):
    out = run_optimized(ROOT_SIGN_UNDER_O)
    assert out.returncode == 0 and out.stdout.strip() == "raised"


def test_blueprint_value_matches_the_cone_test_oracle(ctx):
    bp = KacMoodyBlueprint(RootSystem(ctx))
    pairs, values, wrong = compare_with_oracle(ctx, bp, 7)
    assert (pairs, len(values), wrong) == (3741, 813, [])
    assert sum(1 for mids in values.values() if mids) == 24
    # M is nonempty exactly at B' = -sqrt(2), 135 degrees
    for pair, mids in values.items():
        a, b = pair
        obtuse = z2.form(bp.rsys.vector(a), bp.rsys.vector(b)) == (0, -1)
        assert bool(mids) == obtuse, pair


def test_a_positive_obtuse_constant_is_caught(ctx, monkeypatch, capsys):
    # the mutant: M taken at B' = +sqrt(2), 45 degrees, in place of -sqrt(2)
    monkeypatch.setattr(blueprint, "OBTUSE", z2.SQRT2)
    bp = KacMoodyBlueprint(RootSystem(ctx))
    _, values, wrong = compare_with_oracle(ctx, bp, 7)
    assert {frozenset(p[1:]) for p in wrong} >= {p for p, mids in values.items() if mids}
    with pytest.raises(RootSystemError, match="missing from Phi"):
        main(["verify", "blueprint", "--max-length", "2"])
    assert "internal failure" in capsys.readouterr().err


# alpha_t and alpha_s lie 135 degrees apart; Phi(ts) holds r_t(alpha_s) but
# not r_s(alpha_t), so the blueprint value has no M to give; under -O an
# assert would hand back one root
VALUE_MISSING_ROOT_UNDER_O = """
from coxkit.blueprint import KacMoodyBlueprint
from coxkit.coxeter import standard_coxeter
from coxkit.roots import RootSystem, RootSystemError
rs = RootSystem(standard_coxeter())
try:
    KacMoodyBlueprint(rs).value("ts", rs.simple("t"), rs.simple("s"))
except RootSystemError as exc:
    print("raised", exc)
"""


def test_missing_blueprint_root_raises_under_optimize(run_optimized):
    out = run_optimized(VALUE_MISSING_ROOT_UNDER_O)
    assert out.returncode == 0
    assert out.stdout.splitlines() == [
        "raised r_a(b) or r_b(a) of (Root(+t), Root(+s)) is missing from "
        "Phi('ts')"]
