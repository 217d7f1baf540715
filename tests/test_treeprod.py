import functools
import itertools
import random

import pytest

from coxkit import constructions
from coxkit.blueprint import BlueprintGroup, GroupCache
from coxkit.constructions import KINDS, RANK2, Builder
from coxkit.pipeline import Section4
from coxkit.treeprod import (Edge, Subgroup, TreeError, TreeOfGroups,
                             TreeProduct, check_subtree_conditions,
                             closure_words, contract, cut, fold)
from galleries import gallery, group_along
from homomorphisms import is_homomorphism
from nested_oracle import NestedProduct
from walks import random_word


@pytest.fixture(scope="module")
def z2_free(cache):
    A = group_along(cache, gallery(cache.ctx, "s"))
    B = group_along(cache, gallery(cache.ctx, "t"))
    triv = Subgroup(A, [])
    tog = TreeOfGroups({"a": A, "b": B},
                       [Edge("a", "b", triv, {0: 0}, {0: 0})])
    return tog, TreeProduct(tog)


@pytest.fixture(scope="module")
def theorem_tree(cache):
    ctx = cache.ctx
    U_sr, U_trt = cache.group("sr"), cache.group("trt")
    amb = cache.group("stst")
    V = cache.v_subgroup("", "st")
    us, ut = amb.root_mask(amb.roots[0]), amb.root_mask(amb.roots[3])
    e1 = Edge("0", "1", cache.group("s"),
              {0: 0, 1: U_sr.root_mask(U_sr.roots[0])}, {0: 0, 1: us})
    e2 = Edge("1", "2", cache.group("t"),
              {0: 0, 1: ut}, {0: 0, 1: U_trt.root_mask(U_trt.roots[0])})
    tog = TreeOfGroups({"0": U_sr, "1": V, "2": U_trt}, [e1, e2])
    return tog, TreeProduct(tog)


def test_free_product_word(z2_free):
    tog, P = z2_free
    el = P.eval_word([("a", 1), ("b", 1), ("a", 1)])
    assert P.syllables(el) == 3
    assert not P.is_identity(el)


def test_edge_maps_are_checked_without_a_generator_search(ctx, monkeypatch):
    # every edge group is a Subgroup and carries its generators, so
    # Builder.edge proves its root-label map by closing the graph of the
    # map from their pairs: |E| * k pair products, each one product in
    # the edge group's ambient and one in the vertex group's, per edge,
    # and none to find gens; validate then multiplies nothing
    calls = []
    mul = BlueprintGroup.mul

    def counted(self, x, y):
        calls.append(None)
        return mul(self, x, y)
    monkeypatch.setattr(BlueprintGroup, "mul", counted)
    closed = []

    def closure(*args, **kwargs):
        before = len(calls)
        graph = closure_words(*args, **kwargs)
        closed.append(len(calls) - before)
        return graph
    monkeypatch.setattr(constructions, "closure_words", closure)
    b = Builder(GroupCache(ctx))
    _, built = b.tree([("0", ("U", "sr")), ("1", ("V", "", "st")),
                       ("2", ("U", "trt"))], [("0", "1"), ("1", "2")])
    assert closed == [2 * e.group.order * len(e.group.gens)
                      for e in built.edges]
    assert all(closed)
    tog = TreeOfGroups(built.vertices, built.edges)
    calls.clear()
    assert tog.validate() == [] and calls == []


def test_validate_rejects_kernel(cache):
    A = cache.group("st")
    B = cache.group("sr")
    E = cache.group("s")
    # into_u collapses both edge elements onto the identity
    bad = Edge("a", "b", E, {0: 0, 1: 0}, {0: 0, 1: B.root_mask(B.roots[0])})
    tog = TreeOfGroups({"a": A, "b": B}, [bad])
    assert any("injective" in issue for issue in tog.validate())


def test_tree_product_refuses_an_invalid_tree(cache):
    A, B, E = cache.group("st"), cache.group("sr"), cache.group("s")
    bad = Edge("a", "b", E, {0: 0, 1: 0}, {0: 0, 1: B.root_mask(B.roots[0])})
    tog = TreeOfGroups({"a": A, "b": B}, [bad])
    for _ in range(2):
        with pytest.raises(TreeError, match="not injective"):
            TreeProduct(tog)
    assert tog.issues == tuple(tog.validate())


def test_validate_reports_an_edge_that_names_no_vertex(cache):
    U = cache.group("s")
    edge = Edge("a", "b", U, {0: 0, 1: 1}, {0: 0, 1: 1})
    tog = TreeOfGroups({"a": U}, [edge])
    assert tog.issues == ("edge count is not |V| - 1",
                          "underlying graph is not connected",
                          "edge a-b names no vertex b")
    with pytest.raises(TreeError, match="edge a-b names no vertex b"):
        TreeProduct(tog)


def test_validate_reports_an_empty_tree():
    assert TreeOfGroups({}, []).validate() == ["the tree has no vertices"]


def test_one_group_object_may_sit_at_two_vertices(cache):
    """U_sr * V * U_sr with one U_sr object at both ends is a valid tree:
    the two inclusions agree exactly on the subgroup that the two edges
    identify through V, and an element outside it keeps its vertex's
    name as the last letter of its normal form."""
    _, tog = Builder(cache).tree(
        [("v0", ("U", "sr")), ("v1", ("V", "", "st")), ("v2", ("U", "sr"))],
        [("v0", "v1"), ("v1", "v2")])
    G = tog.vertices["v0"]
    assert tog.vertices["v2"] is G and tog.validate() == []
    shared = set(tog.edges[0].into_u.values())
    assert shared == set(tog.edges[1].into_v.values()) and len(shared) < G.order
    P = TreeProduct(tog)
    for x in G.elements():
        at0, at2 = P.include("v0", x), P.include("v2", x)
        assert (at0 == at2) is (x in shared)
        if x not in shared:
            for v, el in (("v0", at0), ("v2", at2)):
                letters = list(P.flatten(el))
                assert letters[-1][0] == v and P.eval_word(letters) == el


def test_theorem_setup_tree_is_the_hand_built_one(theorem_tree, theorem_setup):
    """Builder.tree glues U_sr * V * U_trt along edge groups that are
    subgroups of the vertex groups, not the groups U_s and U_t of the
    hand-built tree, but each edge identifies the same pairs of vertex
    elements, so the normal forms agree."""
    tog, P = theorem_tree
    built = theorem_setup.tog
    assert {v: set(G.elements()) for v, G in built.vertices.items()} == \
        {v: set(G.elements()) for v, G in tog.vertices.items()}
    for mine, theirs in zip(built.edges, tog.edges):
        assert (mine.u, mine.v) == (theirs.u, theirs.v)
        assert {(mine.into_u[c], mine.into_v[c]) for c in mine.group.elements()} \
            == {(theirs.into_u[c], theirs.into_v[c])
                for c in theirs.group.elements()}
    rng = random.Random(5)
    for _ in range(200):
        word = random_word(P, rng, rng.randint(1, 8))
        assert theorem_setup.product.eval_word(word) == P.eval_word(word)


def test_cut_keeps_the_edges_inside(theorem_tree):
    tog, _ = theorem_tree
    sub = cut(tog, {"1", "2"})
    assert list(sub.vertices) == ["1", "2"] and sub.edges == [tog.edges[1]]
    assert not sub.validate()
    assert cut(tog, {"0", "2"}).validate()


def test_validate_rejects_cycles(cache):
    A, B = group_along(cache, gallery(cache.ctx, "s")), cache.group("t")
    triv = Subgroup(A, [])
    tog = TreeOfGroups({"a": A, "b": B},
                       [Edge("a", "b", triv, {0: 0}, {0: 0}),
                        Edge("b", "a", triv, {0: 0}, {0: 0})])
    assert tog.validate()


def vertex_walk(tog, u, t) -> list:
    """The vertices from u to t in the tree tog, by a breadth-first search
    over its edge list that keeps each vertex's parent."""
    parent, frontier = {u: None}, [u]
    while frontier:
        reached = []
        for a in frontier:
            for e in tog.edges:
                for x, w in ((e.u, e.v), (e.v, e.u)):
                    if x == a and w not in parent:
                        parent[w] = a
                        reached.append(w)
        frontier = reached
    walk = [t]
    while walk[-1] != u:
        walk.append(parent[walk[-1]])
    return walk[::-1]


def test_paths_are_the_tree_walks(cache, theorem_setup):
    # the theorem tree, every construction tree at the three gate-1
    # residues and one contracted tree
    builder = Builder(cache)
    trees = [theorem_setup.tog]
    for pair in RANK2:
        R = cache.ctx.residue(set(pair), "")
        trees += [builder.construction(kind, R, s).tog
                  for kind in KINDS for s in pair]
    trees.append(contract(trees[1], {"v0", "v1"})[0])
    for tog in trees:
        edges = {frozenset((e.u, e.v)) for e in tog.edges}
        assert tog.paths.keys() == tog.vertices.keys()
        for u in tog.vertices:
            assert tog.paths[u].keys() == tog.vertices.keys()
            for t, path in tog.paths[u].items():
                walk = [u] + [w for _, w in path]
                assert [a for a, _ in path] == walk[:-1]
                assert walk[-1] == t and len(set(walk)) == len(walk)
                assert all(frozenset(step) in edges for step in path)
                assert walk == vertex_walk(tog, u, t)


def test_a_forest_is_walked_within_its_components(cache):
    groups = {v: cache.group(w) for v, w in zip("abcd", ("s", "t", "r", "sr"))}
    triv = Subgroup(groups["a"], [])
    forest = TreeOfGroups(groups, [Edge("a", "b", triv, {0: 0}, {0: 0}),
                                   Edge("c", "d", triv, {0: 0}, {0: 0})])
    assert {u: set(walks) for u, walks in forest.paths.items()} == {
        "a": {"a", "b"}, "b": {"a", "b"}, "c": {"c", "d"}, "d": {"c", "d"}}
    assert "underlying graph is not connected" in forest.validate()


@pytest.mark.parametrize("gate, letters, pairs", [("", 13, 48), ("r", 29, 192)],
                         ids=["gate-1", "gate-r"])
def test_syllables_count_reduced_letters(cache, gate, letters, pairs):
    """Over the V_R family in O_R, each nontrivial family letter is one
    syllable and each reduced two-letter family word across an edge is
    two: an amalgam's carry is never a syllable of its own."""
    b = Builder(cache)
    R = b.ctx.residue("st", gate)
    orr = b.construction("O_R", R, "s")
    members = Section4(b).family_from_roots(
        orr, b.construction("V_R", R, "s").roots)
    P = TreeProduct(orr.tog)
    singles = [P.include(v, a) for v, G in orr.tog.vertices.items()
               for a in members[v] if a != G.identity]
    assert len(singles) == letters
    assert all(P.syllables(el) == 1 for el in singles)
    products = []
    for e in orr.tog.edges:
        reduced = {v: [P.include(v, a) for a in members[v]
                       if a not in set(e.endpoint_map(v).values())]
                   for v in (e.u, e.v)}
        for u, v in ((e.u, e.v), (e.v, e.u)):
            products += [P.mul(x, y) for x in reduced[u] for y in reduced[v]]
    assert len(products) == pairs
    assert all(P.syllables(el) == 2 for el in products)


def test_collapsing_word(theorem_tree, cache):
    tog, H = theorem_tree
    U_sr = tog.vertices["0"]
    amb = cache.group("stst")
    u_sr = U_sr.root_mask(U_sr.roots[1])
    us = amb.root_mask(amb.roots[0])
    el = H.eval_word([("0", u_sr), ("1", us), ("0", u_sr)])
    assert el == H.include("1", us)
    assert H.syllables(el) == 1


def _check_one_pass(P, words):
    """eval_word agrees with the letter-by-letter product of inclusions;
    the nested oracle gives the same identity verdicts and the same
    equality partition and reads the same element off flatten_word."""
    N = NestedProduct(P.tog)
    flat, nested = {}, {}
    for word in words:
        el = P.eval_word(word)
        folded = functools.reduce(
            P.mul, (P.include(v, x) for v, x in word), P.identity)
        assert el == folded
        assert P.eval_word(P.flatten_word(el)) == el
        ref = N.eval_word(word)
        assert P.is_identity(el) == (ref == N.identity)
        assert flat.setdefault(el, ref) == ref
        assert nested.setdefault(ref, el) == el
        assert N.eval_word(P.flatten_word(el)) == ref
        assert P.eval_word(N.letters(ref)) == el


def _mixed_words(P, seed: int, count: int = 150) -> list:
    """Reduced random words and words of arbitrary letters (identity and
    edge-group images included)."""
    rng = random.Random(seed)
    verts = sorted(P.tog.vertices)
    words = []
    for _ in range(count):
        words.append(random_word(P, rng, rng.randint(0, 6)))
        words.append([(v, rng.choice(list(P.tog.vertices[v].elements())))
                      for v in (rng.choice(verts)
                                for _ in range(rng.randint(0, 6)))])
    return words


def test_batteries(theorem_tree):
    tog, H = theorem_tree
    rng = random.Random(0)
    for _ in range(10000):
        word = random_word(H, rng, rng.randint(1, 6))
        if not word:
            continue
        el = H.eval_word(word)
        assert not H.is_identity(el)
        assert H.is_identity(H.mul(el, H.inv(el)))
    for _ in range(10000):
        a = H.eval_word(random_word(H, rng, rng.randint(1, 4)))
        b = H.eval_word(random_word(H, rng, rng.randint(1, 4)))
        # normal forms respect multiplication: recombining the normal
        # forms gives the same element as multiplying directly
        assert H.mul(a, b) == H.mul(H.mul(a, H.identity), b)
    _check_one_pass(H, _mixed_words(H, 21))


def _theorem_letters(setup, word) -> list:
    """The (vertex, element) letters of an alternating word (h0, pairs)
    of the subgroup theorem, as TheoremSetup.eval_word reads them."""
    h0, pairs = word
    letters = [("1", h0)] if h0 else []
    for g, h in pairs:
        letters.append(setup._g_letters[g])
        if h:
            letters.append(("1", h))
    return letters


def test_flat_and_nested_agree_on_the_constrained_enumeration(theorem_setup):
    """Every constrained word with at most three pairs and its reduce
    output: the same identity verdicts and the same equality partition in
    the flat form and the nested oracle."""
    P = theorem_setup.product
    N = NestedProduct(P.tog)
    flat_of, nested_of = {}, {}
    words = list(theorem_setup.enumerate_constrained(3))
    assert len(words) == 24320
    for word in words:
        for w in {word, theorem_setup.reduce(word)[0]}:
            letters = _theorem_letters(theorem_setup, w)
            el, ref = P.eval_word(letters), N.eval_word(letters)
            assert el == theorem_setup.eval_word(w)
            assert P.is_identity(el) == (ref == N.identity)
            assert flat_of.setdefault(el, ref) == ref
            assert nested_of.setdefault(ref, el) == el
    assert len(flat_of) == len(nested_of) > 1


def _orr_family_battery(cache):
    """The one-pass battery on O_R, with words of V_R family letters among
    the mixed words; returns the product."""
    b = Builder(cache)
    ctx = b.ctx
    orr = b.construction("O_R", ctx.residue("st", ""))
    m = ctx.mult
    members = {
        "v0": b.image_of_u(m("s", "r"), orr.specs[0].ambient),
        "v1": b.image_of_v("", ("s", "t"), orr.specs[1].ambient),
        "v2": b.image_of_u(m("t", "r"), orr.specs[2].ambient),
    }
    P = TreeProduct(orr.tog)
    words = _mixed_words(P, 23)
    # words inside the family
    rng = random.Random(24)
    for _ in range(50):
        words.append([(v, rng.choice(sorted(members[v])))
                      for v in (rng.choice(sorted(members))
                                for _ in range(rng.randint(1, 5)))])
    _check_one_pass(P, words)
    return P


def test_one_pass_eval_with_family_and_inner(cache):
    _orr_family_battery(cache)


def test_decomposition_cache_entries_are_canonical(cache):
    # a miss stores the split of its whole coset; each stored (e, t) of
    # the table of u -> w must rebuild its key and t must split to itself
    P = _orr_family_battery(cache)
    assert any(len(table) > len({t for _, t in table.values()})
               for table in P._tables.values())
    for (u, w), table in P._tables.items():
        G = P.tog.vertices[u]
        edge = P.tog.edge_between(u, w)
        back = {y: c for c, y in edge.endpoint_map(w).items()}
        for x, (e, t) in list(table.items()):
            assert G.mul(edge.endpoint_map(u)[back[e]], t) == x
            assert P._split(u, w, t) == (P.tog.vertices[w].identity, t)


def test_one_pass_eval_contracted_vertex(cache):
    b = Builder(cache)
    vr = b.construction("V_R", b.ctx.residue("st", ""))
    tog2, name, sub = contract(vr.tog, {"v1", "v2"})
    P = TreeProduct(tog2)
    words = [[(name, sub.include(v, x)) if v in ("v1", "v2") else (v, x)
              for v, x in word]
             for word in _mixed_words(TreeProduct(vr.tog), 25)]
    _check_one_pass(P, words)


def _random_element(G, rng):
    """A seeded element of G: in a tree product, the value of up to six
    letters at random vertices, about a quarter of them edge-group images
    so that carries and absorbed letters occur."""
    if not isinstance(G, TreeProduct):
        return rng.choice(list(G.elements()))
    verts = sorted(G.tog.vertices)
    word = []
    for _ in range(rng.randint(0, 6)):
        v = rng.choice(verts)
        if rng.random() < 0.25:
            edge = rng.choice([e for e in G.tog.edges if v in (e.u, e.v)])
            x = rng.choice(sorted(edge.endpoint_map(v).values(), key=repr))
        else:
            x = _random_element(G.tog.vertices[v], rng)
        word.append((v, x))
    return G.eval_word(word)


def _junction_products(cache, theorem_tree):
    """(label, product) pairs, built one at a time, so that a wrong
    multiplication fails on the small shapes before the later builds,
    whose boundary-map checks multiply too, can raise."""
    yield "U_sr*V*U_trt", theorem_tree[1]
    b = Builder(cache)
    R = b.ctx.residue("st", "")
    yield "V_R", TreeProduct(b.construction("V_R", R).tog)
    orr = b.construction("O_R", R)
    yield "O_R", TreeProduct(orr.tog)
    yield "O_Rs", TreeProduct(b.construction("O_Rs", R).tog)
    # Z shape: {v1, v2} contracted to a vertex that is itself a tree product
    yield "Z", TreeProduct(contract(orr.tog, {"v1", "v2"})[0])


def test_junction_mul_matches_full_normalization(cache, theorem_tree):
    rng = random.Random(8)
    for label, P in _junction_products(cache, theorem_tree):
        N = NestedProduct(P.tog)
        pool = [_random_element(P, rng) for _ in range(16)]
        # the same letters with trivial carry, so products of factors
        # without a carry letter occur too; the first assertion restates
        # mul, and the nested oracle, associativity and inverses check it
        pool += [(P.identity[0], el[1]) for el in pool]
        for x, y, z in ((rng.choice(pool), rng.choice(pool), rng.choice(pool))
                        for _ in range(120)):
            xy = P.mul(x, y)
            assert xy == P.eval_word(P.flatten_word(x) + P.flatten_word(y)), label
            assert N.eval_word(P.flatten_word(xy)) == N.mul(
                N.eval_word(P.flatten_word(x)), N.eval_word(P.flatten_word(y)))
            assert P.mul(xy, z) == P.mul(x, P.mul(y, z)), label
            assert P.mul(x, P.inv(x)) == P.identity, label


@pytest.mark.parametrize("label", ["U_sr*V*U_trt", "V_R", "O_R", "O_Rs"])
def test_slide_pairs_give_the_slid_form(cache, theorem_tree, label):
    """A letter at u in the edge group toward its right neighbour w
    slides into that neighbour: (u, iota_u(c)) (w, y) and (w, iota_w(c) y)
    have one normal form, on every edge in both directions, for every c
    and y, alone and between seeded context words."""
    P = dict(_junction_products(cache, theorem_tree))[label]
    rng = random.Random(9)
    contexts = [([], [])] + [(random_word(P, rng, rng.randint(1, 3)),
                              random_word(P, rng, rng.randint(1, 3)))
                             for _ in range(3)]
    pairs = 0
    for e in P.tog.edges:
        for u, w in ((e.u, e.v), (e.v, e.u)):
            G = P.tog.vertices[w]
            for c in e.group.elements():
                for y in G.elements():
                    slid = [(w, G.mul(e.endpoint_map(w)[c], y))]
                    pair = [(u, e.endpoint_map(u)[c]), (w, y)]
                    for pre, post in contexts:
                        assert P.eval_word(pre + pair + post) == \
                            P.eval_word(pre + slid + post), (label, u, w, c, y)
                    pairs += 1
    assert pairs == sum(e.group.order * (P.tog.vertices[e.u].order
                                         + P.tog.vertices[e.v].order)
                        for e in P.tog.edges)


def _min_lengths(P, bound: int) -> dict:
    """Every element of P that is a product of at most bound vertex
    elements, mapped to the least such number, by breadth-first search
    over the vertex groups' elements."""
    singles = {P.include(v, x) for v, G in P.tog.vertices.items()
               for x in G.elements()}
    lengths = {P.identity: 0}
    frontier = [P.identity]
    for k in range(1, bound + 1):
        nxt = []
        for el in frontier:
            for s in singles:
                y = P.mul(el, s)
                if y not in lengths:
                    lengths[y] = k
                    nxt.append(y)
        frontier = nxt
    return lengths


@pytest.mark.parametrize("label", ["U_sr*V*U_trt", "V_R"])
def test_syllables_match_a_brute_force_minimal_length(cache, theorem_tree, label):
    """syllables is the least number of vertex elements whose product is
    the element, checked by search up to three letters on 300 short
    words of arbitrary letters (edge-group images included)."""
    P = dict(_junction_products(cache, theorem_tree))[label]
    lengths = _min_lengths(P, 3)
    rng = random.Random(10)
    verts = sorted(P.tog.vertices)
    counts = []
    for _ in range(300):
        word = [(v, rng.choice(list(P.tog.vertices[v].elements())))
                for v in (rng.choice(verts) for _ in range(rng.randint(0, 4)))]
        el = P.eval_word(word)
        got, want = P.syllables(el), lengths.get(el)
        assert got == want if want is not None else got > 3, (word, got, want)
        counts.append(got)
    assert set(counts) >= {0, 1, 2, 3}


def _count_ball(product, tog, bound, vertex_names, translate=None):
    seen = set()
    for length in range(bound + 1):
        for vs in itertools.product(vertex_names, repeat=length):
            if any(vs[i] == vs[i + 1] for i in range(len(vs) - 1)):
                continue
            pools = [sorted(x for x in tog.vertices[v].elements())
                     for v in vs]
            for letters in itertools.product(*pools):
                word = list(zip(vs, letters))
                if translate:
                    word = translate(word)
                seen.add(product.eval_word(word))
    return len(seen)


def test_contract_preserves_counts(z2_free):
    tog, P = z2_free
    tog2, name, sub = contract(tog, {"b"})
    P2 = TreeProduct(tog2)
    bound = 4
    n1 = _count_ball(P, tog, bound, ("a", "b"))

    def translate(word):
        return [(name, sub.include(v, x)) if v == "b" else (v, x)
                for v, x in word]
    n2 = _count_ball(P2, tog, bound, ("a", "b"), translate)
    assert n1 == n2


def test_contract_single_vertex_is_identity_move(theorem_tree):
    tog, H = theorem_tree
    tog2, name, sub = contract(tog, {"2"})
    P2 = TreeProduct(tog2)
    rng = random.Random(4)
    for _ in range(500):
        word = random_word(H, rng, rng.randint(1, 5))
        el = H.eval_word(word)
        w2 = [(name, sub.include(v, x)) if v == "2" else (v, x)
              for v, x in word]
        el2 = P2.eval_word(w2)
        assert P2.is_identity(el2) == H.is_identity(el)


def test_contract_and_fold_round_trip(theorem_tree, cache):
    tog, H = theorem_tree
    # contract the second edge
    tog2, name, sub = contract(tog, {"1", "2"})
    P2 = TreeProduct(tog2)
    rng = random.Random(11)
    for _ in range(2000):
        word = random_word(H, rng, rng.randint(1, 5))
        el = H.eval_word(word)
        w2 = [(name, sub.include(v, x)) if v in ("1", "2") else (v, x)
              for v, x in word]
        el2 = P2.eval_word(w2)
        assert H.eval_word(P2.flatten(el2)) == el
    # fold the first edge at its own edge-group image (redundant vertex)
    U_sr = tog.vertices["0"]
    Hsub = Subgroup(U_sr, [U_sr.root_mask(U_sr.roots[0])])
    tog3 = fold(tog, "0", "1", Hsub, "x")
    assert not tog3.validate()
    P3 = TreeProduct(tog3)
    home = {"0": "0", "1": "1", "2": "2", "x": "0"}
    for _ in range(2000):
        word = random_word(H, rng, rng.randint(1, 5))
        el = H.eval_word(word)
        el3 = P3.eval_word(word)
        back = [(home[v], x) for v, x in P3.flatten(el3)]
        assert H.eval_word(back) == el


def test_fold_counts_match(z2_free, cache):
    tog, P = z2_free
    A = tog.vertices["a"]
    Hsub = Subgroup(A, [1])
    tog2 = fold(tog, "a", "b", Hsub, "x")
    P2 = TreeProduct(tog2)
    bound = 4
    n1 = _count_ball(P, tog, bound, ("a", "b"))
    n2 = _count_ball(P2, tog, bound, ("a", "b"), None)
    assert n1 == n2


def test_fold_requires_intermediate(theorem_tree, cache):
    tog, _ = theorem_tree
    U_sr = tog.vertices["0"]
    bad = Subgroup(U_sr, [])
    with pytest.raises(TreeError):
        fold(tog, "0", "1", bad, "x")


def test_fold_refuses_a_subgroup_of_another_group(theorem_tree, cache):
    # the root subgroup of U_stst at its first root holds the edge image
    # at 0 as a set of masks, but its product is U_stst's: the identity
    # maps of the folded edge would be no homomorphisms into U_sr, so fold
    # refuses it, and a bare set with it
    tog, _ = theorem_tree
    other = cache.group("stst")
    H = cache.root_subgroup(other, other.roots[:1])
    assert set(tog.edges[0].into_u.values()) <= H
    for bad in (H, frozenset(H)):
        with pytest.raises(TreeError, match="not a Subgroup of the group at 0"):
            fold(tog, "0", "1", bad, "x")


def test_fold_with_full_vertex(theorem_tree, cache):
    tog, H = theorem_tree
    U_sr = tog.vertices["0"]
    full = cache.root_subgroup(U_sr, U_sr.roots)
    tog2 = fold(tog, "0", "1", full, "x")
    assert not tog2.validate()


def _full_family(cache, tog) -> dict:
    """Each vertex group of U_sr * V * U_trt as a Subgroup: V is one, and
    each U_w is the root subgroup of all its roots."""
    U_sr, U_trt = tog.vertices["0"], tog.vertices["2"]
    return {"0": cache.root_subgroup(U_sr, U_sr.roots), "1": tog.vertices["1"],
            "2": cache.root_subgroup(U_trt, U_trt.roots)}


def test_check_subtree_conditions(theorem_tree, cache):
    tog, _ = theorem_tree
    amb = cache.group("stst")
    full = _full_family(cache, tog)
    assert {v: set(m) for v, m in full.items()} \
        == {v: set(G.elements()) for v, G in tog.vertices.items()}
    assert check_subtree_conditions(tog, full)["pass"]
    # deliberately enlarged edge subgroup fails condition (iii)
    bad = check_subtree_conditions(
        tog,
        {"0": cache.root_subgroup(tog.vertices["0"], ()),
         "1": cache.root_subgroup(amb, amb.roots[:1]),
         "2": cache.root_subgroup(tog.vertices["2"], ())},
        edge_groups={frozenset(("0", "1")): frozenset({0, 1})})
    assert bad["edges"][0]["matches_claimed_edge_group"] is False
    assert not bad["pass"]


def _preimages_agree(report) -> bool:
    return all(entry["preimages_equal"] for entry in report["edges"])


def test_check_subtree_conditions_rejects_bad_members(theorem_tree, cache):
    # each family below has agreeing edge preimages, so only the vertex
    # clause can fail it: a member must be a Subgroup with its vertex
    # group's product, and a bare set, even the whole vertex group, is not
    tog, _ = theorem_tree
    full = _full_family(cache, tog)
    assert check_subtree_conditions(tog, full)["pass"]
    bare = {v: frozenset(G.elements()) for v, G in tog.vertices.items()}
    for members in (bare, dict(full, **{"0": bare["0"]})):
        report = check_subtree_conditions(tog, members)
        assert _preimages_agree(report) and not report["pass"]
    # {0, 1, 2} in U_sr misses the product 1 * 2 = 3
    assert tog.vertices["0"].mul(1, 2) == 3
    open_set = check_subtree_conditions(tog, dict(full, **{"0": frozenset({0, 1, 2})}))
    assert _preimages_agree(open_set) and not open_set["pass"]
    empty = check_subtree_conditions(tog, dict.fromkeys(tog.vertices, frozenset()))
    assert _preimages_agree(empty) and not empty["pass"]
    # U_srs holds U_sr's four masks, but it multiplies them as U_srs does
    other = cache.group("srs")
    assert set(full["0"]) <= set(other.elements())
    foreign = Subgroup(other, full["0"].gens)
    assert set(foreign) == set(full["0"]) and foreign.mul != full["0"].mul
    report = check_subtree_conditions(tog, dict(full, **{"0": foreign}))
    assert _preimages_agree(report) and not report["pass"]


def test_check_subtree_conditions_rejects_bad_members_at_a_contracted_vertex(
        theorem_tree, cache):
    tog, _ = theorem_tree
    tog2, name, sub = contract(tog, {"1", "2"})
    V = tog.vertices["1"]
    base = {"0": _full_family(cache, tog)["0"], name: sub.image("1", V)}
    assert check_subtree_conditions(tog2, base)["pass"]
    # the same elements as a bare set are refused
    as_set = dict(base, **{name: frozenset(base[name])})
    report = check_subtree_conditions(tog2, as_set)
    assert _preimages_agree(report) and not report["pass"]
    # a letter at vertex 2 joined to V's image: its products with V leave
    # the set
    t = max(tog.vertices["2"].elements())
    grown = base[name] | {sub.include("2", t)}
    open_set = check_subtree_conditions(tog2, dict(base, **{name: grown}))
    assert _preimages_agree(open_set) and not open_set["pass"]
    empty = check_subtree_conditions(tog2, dict.fromkeys(tog2.vertices, frozenset()))
    assert _preimages_agree(empty) and not empty["pass"]


@pytest.mark.parametrize("pair", list(RANK2), ids="".join)
def test_image_is_the_included_subgroup(cache, pair):
    # at the contracted middle {v1, v2} of K_Rs and K_Rt, the image of
    # each vertex group and of the O_R family's member there is a copy:
    # order |H|, the set of included elements
    sec = Section4(Builder(cache))
    R = sec.ctx.residue(set(pair), "")
    s, t, *_ = sec._frame(R)
    orr = sec.b.construction("O_R", R)
    for side in (s, t):
        kons = sec.b.construction("K_Rs", R, side)
        _, _, sub = contract(kons.tog, {"v1", "v2"})
        family = sec.family_from_roots(kons, orr.roots)
        for v in ("v1", "v2"):
            for H in (family[v], kons.tog.vertices[v]):
                image = sub.image(v, H)
                assert isinstance(image, Subgroup) and image.mul == sub.mul
                assert image.order == len(set(H.elements()))
                assert image == {sub.include(v, x) for x in H.elements()}


def _table_closure(table, S) -> frozenset:
    """The least superset of S closed under the product table."""
    S = frozenset(S)
    while True:
        grown = S | {table[x][y] for x in S for y in S}
        if grown == S:
            return S
        S = grown


def test_subgroup_is_the_closure_of_its_generators_by_the_product_table(cache):
    # every subset of U_stst's four root generators, and a few sets with
    # other elements (the identity among them), against the fixpoint of
    # the |S|^2 product table; each closure word multiplies out to its
    # element and is as long as the element's distance from 1 in the
    # generators' Cayley graph, both read off the table
    G = cache.group("stst")
    table = [[G.mul(x, y) for y in G.elements()] for x in G.elements()]
    families = [[G.root_mask(root) for root in subset]
                for n in range(len(G.roots) + 1)
                for subset in itertools.combinations(G.roots, n)]
    families += [[3], [5, 10], [15], [6, 9], [0, 12]]
    for gens in families:
        H = Subgroup(G, gens)
        S = _table_closure(table, {0, *gens})
        assert set(H) == S, gens
        assert H.gens == tuple(gens)
        assert H.elements() == S and H.order == len(S)
        dist, reached, n = {0: 0}, {0}, 0
        while len(reached) < len(S):
            n += 1
            reached = reached | {table[x][g] for x in reached for g in gens}
            for x in reached:
                dist.setdefault(x, n)
        words = closure_words(G.mul, G.identity, gens)
        assert words.keys() == S, gens
        for x, word in words.items():
            y = G.identity
            for i in word:
                y = table[y][gens[i]]
            assert y == x and len(word) == dist[x], (gens, x, word)


def test_generators_decide_closure_as_the_product_table_does(cache):
    # every subset of U_stst (order 16) that holds the identity, against
    # the |S|^2 definition: the Subgroup closed from the elements of S is
    # S itself exactly when S is closed, and always holds the identity
    G = cache.group("stst")
    table = [[G.mul(x, y) for y in G.elements()] for x in G.elements()]
    subgroups = 0
    for bits in range(1 << 15):
        S = frozenset([0] + [i + 1 for i in range(15) if bits >> i & 1])
        closed = all(table[x][y] in S for x in S for y in S)
        H = Subgroup(G, sorted(S))
        assert (H == S) == closed, sorted(S)
        assert H == _table_closure(table, S)
        subgroups += closed
        assert H != S - {0}
    assert subgroups == 35


def test_homomorphisms_on_generators_as_on_the_product_table(cache):
    # all 256 maps of U_st (the Klein four-group) to itself, and the 4,096
    # maps into the nonabelian U_stst that send 0 to 0, against the |E|^2
    # definition: the 16 endomorphisms, and the 112 images of the two
    # generators that commute and square to 0, pass.  Into U_st a map that
    # respects one generator respects both, so the second family is the
    # one that needs every generator checked
    E = cache.group("st")
    for Q, first, count in ((E, E.elements(), 16),
                            (cache.group("stst"), [0], 112)):
        homs = 0
        for images in itertools.product(first, *[Q.elements()] * 3):
            phi = dict(zip(E.elements(), images))
            by_table = all(phi[E.mul(x, y)] == Q.mul(phi[x], phi[y])
                           for x in E.elements() for y in E.elements())
            assert is_homomorphism(E, phi, Q) == by_table, images
            homs += by_table
        assert homs == count
    # the trivial group has no generators, so phi(1) = 1 is checked alone
    trivial = Subgroup(E, [])
    assert is_homomorphism(trivial, {0: 0}, E)
    assert not is_homomorphism(trivial, {0: 1}, E)


def test_elements_not_enumerable(theorem_tree):
    _, H = theorem_tree
    with pytest.raises(TreeError):
        H.elements()


def test_subproduct_value_vertex_intersection(theorem_tree, cache):
    # U_sr cap V = U_s inside U_sr * V * U_trt
    tog, P = theorem_tree
    amb = cache.group("stst")
    us = amb.root_mask(amb.roots[0])
    in_1 = {P.include("1", x) for x in tog.vertices["1"].elements()}
    got = {P.include("0", x) for x in tog.vertices["0"].elements()} & in_1
    assert got == {P.include("1", x) for x in (0, us)}


def test_subproduct_value_full_edge(cache):
    # a segment whose edge group is everything: the two sides coincide
    A = group_along(cache, gallery(cache.ctx, "s"))
    B = group_along(cache, gallery(cache.ctx, "t"))
    full = Subgroup(A, [1])
    tog = TreeOfGroups({"a": A, "b": B},
                       [Edge("a", "b", full, {0: 0, 1: 1}, {0: 0, 1: 1})])
    P = TreeProduct(tog)
    in_b = {P.include("b", y): y for y in B.elements()}
    assert [in_b.get(P.include("a", x)) for x in A.elements()] == [0, 1]


# a bare set, even all of U_sr, is no family member, and the root
# subgroup of U_sr's roots is; under -O an assert would let any set
# through, so the verdict must not rest on one
SUBGROUP_UNDER_O = """
from coxkit.blueprint import GroupCache
from coxkit.coxeter import standard_coxeter
from coxkit.treeprod import TreeOfGroups, check_subtree_conditions
cache = GroupCache(standard_coxeter())
U = cache.group("sr")
tog = TreeOfGroups({"0": U}, [])
for members in (frozenset((0, 1, 2, 3)), cache.root_subgroup(U, U.roots)):
    print(check_subtree_conditions(tog, {"0": members})["pass"])
"""


def test_subgroup_check_survives_optimize(run_optimized):
    out = run_optimized(SUBGROUP_UNDER_O)
    assert out.returncode == 0 and out.stdout.split() == ["False", "True"]
