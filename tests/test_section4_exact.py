"""The exact section-4 criteria against the seeded samples they replace.

Each of the five checks that once passed on 400 seeded random words is
now decided on the finite vertex and edge groups.  Here each sample runs
again, with the seed and the words of the program that sampled, as a
cross-check: on every gate-1 residue the sampled verdict and the exact
verdict agree.  The mutants at the end break the V_R family inside O_R,
and the O_R family at the contracted middle of K_Rs, and show what each
kind of check sees.
"""

import random

import pytest

from coxkit.constructions import RANK2, Builder
from coxkit.pipeline import Section4, _levels_coincide, _round_trip_is_identity
from coxkit.roots import Root
from coxkit.treeprod import (Edge, Subgroup, TreeOfGroups, TreeProduct,
                             check_subtree_conditions, contract, family_embeds,
                             fold)
from nested_oracle import NestedProduct
from walks import random_word

SEED = 20240444
SAMPLES = 400
PAIRS = list(RANK2)


@pytest.fixture(scope="module")
def sec(cache):
    return Section4(Builder(cache))


def _residue(sec, pair):
    R = sec.ctx.residue(set(pair), "")
    return R, sec._frame(R)


def _or_product(sec, pair):
    """O_R and its V_R family, as in the V_R -> O_R certificate."""
    R, (s, *_) = _residue(sec, pair)
    orr = sec.b.construction("O_R", R, s)
    members = sec.family_from_roots(
        orr, sec.b.construction("V_R", R, s).roots)
    return TreeProduct(orr.tog), members


def sampled_family_words_nontrivial(product, members) -> bool:
    rng = random.Random(SEED)
    words = (random_word(product, rng, rng.randint(1, 4), members)
             for _ in range(SAMPLES))
    return not any(word and product.is_identity(product.eval_word(word))
                   for word in words)


@pytest.mark.parametrize("pair", PAIRS)
def test_family_battery_agrees_with_family_embeds(sec, pair):
    product, members = _or_product(sec, pair)
    report = family_embeds(product, members,
                           check_subtree_conditions(product.tog, members))
    assert report["pass"] is sampled_family_words_nontrivial(product, members) \
        is True
    assert (report["letters"], report["pairs"]) == (13, 48)


def _chain_a(sec, pair):
    """V_{R,s} folded at U[w_R sr] and its tail contracted: the full
    product, the outer product, the letter translation and the map from
    flattened leaf vertices back to V_{R,s} vertices."""
    R, (s, t, d, g, m) = _residue(sec, pair)
    vrs = sec.b.construction("V_Rs", R, s)
    H = sec.b.image_of_u(m(g, s, d), vrs.specs[0].group)
    tog3, name, sub = contract(fold(vrs.tog, "v0", "v1", H, "x"),
                               {"x", "v1", "v2"})
    home = {sp.name: sp.name for sp in vrs.specs}
    home["x"] = "v0"

    def translate(v, x):
        return (name, sub.include(v, x)) if v in ("v1", "v2") else (v, x)
    return TreeProduct(vrs.tog), TreeProduct(tog3), translate, home


def sampled_round_trip(full, outer, translate, home) -> bool:
    rng = random.Random(SEED)
    for _ in range(SAMPLES):
        word = random_word(full, rng, rng.randint(1, 4))
        el = full.eval_word(word)
        el2 = outer.eval_word([translate(v, x) for v, x in word])
        back = [(home[v], val) for v, val in outer.flatten(el2)]
        if full.eval_word(back) != el:
            return False
    return True


@pytest.mark.parametrize("pair", PAIRS)
def test_sampled_round_trip_agrees_with_the_exact_check(sec, pair):
    chain = _chain_a(sec, pair)
    ok, counts = _round_trip_is_identity(*chain)
    assert ok is sampled_round_trip(*chain) is True
    assert counts == {"edge_elements": 12, "vertex_elements": 20}


def test_round_trip_check_sees_a_wrong_translation(sec):
    full, outer, translate, home = _chain_a(sec, ("s", "t"))
    G1 = full.tog.vertices["v1"]
    twist = next(x for x in G1.elements() if x != G1.identity)

    def shifted(v, x):
        # v1 letters pick up a fixed extra factor: no homomorphism
        return translate(v, G1.mul(x, twist) if v == "v1" else x)
    assert not _round_trip_is_identity(full, outer, shifted, home)[0]
    assert not sampled_round_trip(full, outer, shifted, home)


def _levels_data(sec, pair):
    """The two trees of the K_Rs cap G_{-1} certificate (O_T and O_Rs),
    each with the vertex set it compares on, its Y and V_T families as
    dicts, and one nested oracle per family, which reads membership in
    the family off a word's letters."""
    R, (s, t, d, g, m) = _residue(sec, pair)
    ctx, b = sec.ctx, sec.b
    T = ctx.residue({d, t}, s)
    ot, vt = b.construction("O_R", T), b.construction("V_R", T)
    ors = b.construction("O_Rs", R, s)
    vt_roots = vt.roots
    y_roots = frozenset().union(*(sec.cache.phi(m(g, *w))
                                  for w in ((s, d), (s, t), (s, t, s))))
    x_outer = next(sp.name for sp in ot.specs
                   if sp.label.startswith(f"V[{m(g, s, t)}|"))
    out = []
    for cons, vertices in ((ot, {"v1", x_outer}), (ors, {"v1", "v2", "v3"})):
        y = sec.family_from_roots(cons, y_roots)
        v = sec.family_from_roots(cons, vt_roots)
        out.append((vertices, y, v,
                    NestedProduct(cons.tog, y), NestedProduct(cons.tog, v)))
    return out


def sampled_levels_agree(y_product, v_product, vertices, rng) -> bool:
    """Words at the given vertices, each evaluated in the oracle that
    prefers Y and in the one that prefers V_T: membership agrees."""
    verts = sorted(vertices)
    for _ in range(SAMPLES):
        word = []
        for _ in range(rng.randint(1, 4)):
            v = rng.choice(verts)
            G = y_product.tog.vertices[v]
            word.append((v, rng.choice([x for x in G.elements()
                                        if x != G.identity])))
        if v_product.in_family(v_product.eval_word(word)) \
                != y_product.in_family(y_product.eval_word(word)):
            return False
    return True


@pytest.mark.parametrize("pair", PAIRS)
def test_sampled_levels_agree_with_the_exact_check(sec, pair):
    rng = random.Random(SEED)   # one stream: X elements, then O_R elements
    for vertices, y, v, y_product, v_product in _levels_data(sec, pair):
        exact, sizes = _levels_coincide(y, v, vertices)
        assert exact is sampled_levels_agree(y_product, v_product, vertices,
                                             rng) is True
        assert all(a == b for a, b in sizes.values())


def test_levels_check_sees_a_smaller_y(sec):
    (vertices, y, v, y_product, _), _ = _levels_data(sec, ("s", "t"))
    vertex = sorted(vertices)[0]
    G = y_product.tog.vertices[vertex]
    smaller = dict(y, **{vertex: frozenset([G.identity])})
    assert not _levels_coincide(smaller, v, vertices)[0]


def _z_data(sec, pair):
    """Z = K_Rs *_{U[w_R srt]} V[w_R sr|st], K_Rs, its O_R family, the
    nested oracle that reads membership in that family, and the letter
    pools of the sampled words."""
    R, (s, t, d, g, m) = _residue(sec, pair)
    b = sec.b
    krs = b.construction("K_Rs", R, s)
    or_family = sec.family_from_roots(
        krs, b.construction("O_R", R, s).roots)
    kprod = TreeProduct(krs.tog)
    vsd = b.v_spec("w", m(g, s, d), (s, t))
    edge = b.edge(krs.specs[0], vsd)
    into_k = {c: kprod.include("v0", x) for c, x in edge.into_u.items()}
    srs_img = b.image_of_u(m(g, s, d, s), vsd.ambient)
    z = TreeProduct(TreeOfGroups({"K": kprod, "W": vsd.group},
                                 [Edge("K", "W", edge.group, into_k, edge.into_v)]))
    pools = {v: sorted(members) for v, members in or_family.items()}
    return (R, krs, kprod, or_family, NestedProduct(krs.tog, or_family), vsd,
            z, pools, sorted(srs_img))


def _k_value(el):
    """The K element equal to el in Z = K *_E W, or None: K is the root
    of Z, so el lies in K exactly when its normal form has no letter."""
    carry, letters = el
    return None if letters else carry


def sampled_z_intersection(z, kprod, oracle, pools, srs_pool) -> bool:
    rng = random.Random(SEED)
    for _ in range(SAMPLES):
        word = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                v = rng.choice(["v0", "v1", "v2", "v3"])
                word.append(("K", kprod.include(v, rng.choice(pools[v]))))
            else:
                word.append(("W", rng.choice(srs_pool)))
        val = _k_value(z.eval_word(word))
        if val is not None and not oracle.in_family(
                oracle.eval_word(kprod.flatten_word(val))):
            return False
    return True


@pytest.mark.parametrize("pair", PAIRS)
def test_sampled_z_intersection_agrees_with_the_amalgam_criterion(sec, pair):
    R, krs, kprod, or_family, oracle, vsd, z, pools, srs_pool = \
        _z_data(sec, pair)
    desc, exact = sec._z_product_check(R, krs, or_family["v0"], vsd, True)[-1]
    assert "land in K_{R,s} lie in O_R" in desc
    assert exact is sampled_z_intersection(z, kprod, oracle, pools,
                                           srs_pool) is True
    # the criterion's status rests on the letter-decidability verdict
    assert not sec._z_product_check(R, krs, or_family["v0"], vsd, False)[-1][1]


def test_vertex_lemma_agrees_with_the_nested_oracle(sec):
    """The vertex lemma of coxkit.treeprod, which lets the certificates
    read family membership at v0 as a set test: for the V_R family in O_R
    and the O_R family in K_Rs, at every gate-1 residue and one residue
    of gate length 1 per pair, every element x of every vertex group G_v
    lies in the subgroup the family generates exactly when x lies in the
    family's member at v, as the nested oracle reads membership."""
    cases = 0
    for pair, gate in (("st", ""), ("rs", ""), ("rt", ""),
                       ("st", "r"), ("rs", "t"), ("rt", "s")):
        R = sec.ctx.residue(set(pair), gate)
        assert R.gate == gate
        for outer, inner in (("O_R", "V_R"), ("K_Rs", "O_R")):
            cons = sec.b.construction(outer, R)
            family = sec.family_from_roots(
                cons, sec.b.construction(inner, R).roots)
            assert check_subtree_conditions(cons.tog, family)["pass"]
            N = NestedProduct(cons.tog, family)
            for v, G in cons.tog.vertices.items():
                for x in G.elements():
                    assert N.in_family(N.eval_word([(v, x)])) \
                        == (x in family[v]), (R, outer, v, x)
                    cases += 1
    assert cases == 1296


# -- mutants of the V_R family inside O_R ---------------------------------
# The bare-set mutants are no Subgroup, so the family check refuses them
# by type alone; the root-subgroup mutants are subgroups, and fail on the
# edge preimages that the check computes.


def _dropped_member(sec, product, members):
    vertex = "v1"
    G = product.tog.vertices[vertex]
    x = max(a for a in members[vertex] if a != G.identity)
    return dict(members, **{vertex: members[vertex] - {x}})


def _added_non_member(sec, product, members):
    vertex = "v1"
    G = product.tog.vertices[vertex]
    x = min(a for a in G.elements() if a not in members[vertex])
    return dict(members, **{vertex: members[vertex] | {x}})


def _root_mutant(root: Root):
    """The mutant whose member at v1 is the root subgroup of the member's
    roots with root dropped, or added when the member lacks it."""
    def mutate(sec, product, members):
        H = members["v1"]
        roots = frozenset(H.words[g][0] for g in H.gens)
        roots = roots - {root} if root in roots else roots | {root}
        return dict(members, v1=sec.cache.root_subgroup(H.parent, roots))
    return mutate


@pytest.mark.parametrize("mutate, sampled_caught", [
    (_dropped_member, False), (_added_non_member, False),
    (_root_mutant(Root("s", True)), False),
    (_root_mutant(Root("sts", True)), False)],
    ids=["dropped-member", "added-non-member", "dropped-root-s",
         "added-root-sts"])
def test_family_mutant_turns_the_exact_check_red(sec, mutate, sampled_caught):
    product, members = _or_product(sec, ("s", "t"))
    mutant = mutate(sec, product, members)
    assert mutant != members
    conditions = check_subtree_conditions(product.tog, mutant)
    if isinstance(mutant["v1"], Subgroup):
        assert mutant["v1"].mul == product.tog.vertices["v1"].mul
        assert not all(e["preimages_equal"] for e in conditions["edges"])
    else:
        assert not conditions["pass"]
    assert family_embeds(product, mutant, conditions)["pass"] is False
    # what the 400-word sample that this check replaces made of it
    assert sampled_family_words_nontrivial(product, mutant) is not sampled_caught


def test_contracted_union_mutant_turns_the_family_check_red(cache):
    """At st@1 the O_R member at v1 of K_Rs becomes all of G_v1: its
    image in the contracted middle (order 32) and the v2 member's image
    (order 16) do not contain each other, so their union is no subgroup
    and the contracted family check of CCleftCright is red, the K_Rt one
    still green."""
    sec = Section4(Builder(cache))
    R, (s, *_) = _residue(sec, ("s", "t"))
    krs = sec.b.construction("K_Rs", R, s)
    G1 = krs.tog.vertices["v1"]
    family_from_roots = sec.family_from_roots

    def mutated(cons, roots):
        family = family_from_roots(cons, roots)
        return dict(family, v1=G1) if cons is krs else family
    sec.family_from_roots = mutated
    family = mutated(krs, sec.b.construction("O_R", R, s).roots)
    sub = contract(krs.tog, {"v1", "v2"})[2]
    images = [sub.image(v, family[v]) for v in ("v1", "v2")]
    assert [len(x) for x in images] == [32, 16]
    assert not images[0] <= images[1] and not images[1] <= images[0]
    status = {c["description"]: c["status"]
              for c in sec.cert_ccleftcright(R).checks}
    assert status["subgroup-family conditions for O_R inside K_Rs"] is False
    assert status["subgroup-family conditions for O_R inside K_Rt"] is True
