import pytest

from coxkit import constructions, pipeline
from coxkit.blueprint import BlueprintError, BlueprintGroup, GroupCache
from coxkit.constructions import (KINDS, RANK2, Builder, PreconditionError,
                                  c_set_0, c_set_minus1, c_set_r,
                                  classify_residue, d_set, dset_certificate,
                                  harvest_relations, roots_violated)
from coxkit.reduction import TheoremSetup
from coxkit.treeprod import TreeOfGroups, TreeProduct
from homomorphisms import is_homomorphism


@pytest.fixture(scope="module")
def builder(cache):
    return Builder(cache)


def test_residue_classes(ctx):
    tag = classify_residue(ctx, ctx.residue("st", ""))
    assert tag.i == 0 and tag.in_T_i1
    tag = classify_residue(ctx, ctx.residue("st", "r"))
    assert tag.i == 1 and tag.in_T_i1
    # rsr is the gate of its st-residue but both gate*s*r and gate*t*r drop
    tag = classify_residue(ctx, ctx.residue("st", ctx.normalize("rsr")))
    assert tag.i == 3 and not tag.in_T_i1


def test_construction_orders(ctx, builder):
    R = ctx.residue("st", "")
    assert builder.construction("V_R", R).orders() == (4, 8, 4)
    edges = builder.construction("V_R", R).tog.edges
    assert [e.group.order for e in edges] == [2, 2]
    assert builder.construction("O_R", R).orders() == (16, 16, 16)
    assert builder.construction("H_R", R).orders() == (32, 32, 16, 32, 32)
    assert builder.construction("K_Rs", R, "s").orders() == (32, 32, 16, 16)
    assert builder.construction("O_Rs", R, "s").orders() == (8, 16, 16, 16)


def test_vrs_precondition(ctx, builder):
    R2 = ctx.residue("st", "r")
    cons = builder.construction("V_Rs", R2, "s")
    assert cons.orders()[0] == 16
    # a refusal is not memoized: the second call raises as the first did
    for _ in range(2):
        # outside the residue class entirely
        with pytest.raises(PreconditionError, match="violates l.w_R s r"):
            builder.construction("V_R", ctx.residue("st", ctx.normalize("rsr")))
        # a letter outside the type is refused first, by residue_letters
        with pytest.raises(PreconditionError, match="^'r' is not in the type"):
            builder.construction("V_R", ctx.residue("st", ctx.normalize("rsr")), "r")
        # in the class, but l(w_R srs) = l(w_R)+3 fails for this s
        with pytest.raises(PreconditionError, match="with s=s violates"):
            builder.construction("V_Rs", ctx.residue("st", ctx.normalize("sr")), "s")


def test_construction_is_memoized_by_its_resolved_letter(ctx, builder):
    R = ctx.residue("st", "")
    cons = builder.construction("K_Rs", R)
    assert builder.construction("K_Rs", R, "s") is cons
    assert builder.construction("K_Rs", R, "t") is not cons
    with pytest.raises(AttributeError):
        cons.specs = ()
    assert isinstance(cons.specs, tuple)


def test_the_letter_s_is_chosen_once(ctx, cache, monkeypatch):
    # with residue_letters made to take the second type letter when s is
    # None, s=None and s="t" are one memo entry, built once: construction
    # keys its memo on the letter that residue_letters returns
    residue_letters = constructions.residue_letters
    monkeypatch.setattr(constructions, "residue_letters", lambda R, s=None:
                        residue_letters(R, sorted(R.types)[1] if s is None else s))
    tree, built = Builder.tree, []
    monkeypatch.setattr(Builder, "tree", lambda self, vertices, edges:
                        built.append(1) or tree(self, vertices, edges))
    builder, R = Builder(cache), ctx.residue("st", "")
    got = [builder.construction("V_R", R), builder.construction("V_R", R),
           builder.construction("V_R", R, "t")]
    assert got[0] is got[1] is got[2] and got[0].s == "t"
    assert len(built) == 1


def test_records_refuse_attribute_assignment(ctx, builder):
    R = ctx.residue("st", "r")
    records = [(R, "gate", "s"), (classify_residue(ctx, R), "in_T_i1", False),
               (builder.u_spec("a", "sr"), "roots", frozenset())]
    for record, field, value in records:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    assert R.gate == "r" and classify_residue(ctx, R).in_T_i1
    assert builder.u_spec("a", "sr").roots


def test_section4_leaves_the_memoized_trees_as_built(cache, monkeypatch):
    # record which constructions the battery asks for, build them all on a
    # fresh builder, and run the battery again on that builder
    first = Builder(cache)
    monkeypatch.setattr(pipeline, "Builder", lambda _cache: first)
    pipeline.section4_pipeline(cache)
    shared = Builder(cache)
    for kind, R, s in first._constructions:
        shared.construction(kind, R, s)

    def snapshot():
        return {key: (dict(cons.tog.vertices), list(cons.tog.edges),
                      [(dict(e.into_u), dict(e.into_v)) for e in cons.tog.edges])
                for key, cons in shared._constructions.items()}
    before = snapshot()
    assert len(before) == 32
    monkeypatch.setattr(pipeline, "Builder", lambda _cache: shared)
    assert all(c.passed for c in pipeline.section4_pipeline(cache))
    assert snapshot() == before


def test_section4_validates_each_tree_once(cache, monkeypatch):
    # every tree the battery builds, by Builder.tree, cut or contract, is
    # checked once, also when a product is built on it afterwards
    real = TreeOfGroups.validate
    checked = []

    def validate(tog):
        checked.append(tog)
        return real(tog)
    monkeypatch.setattr(TreeOfGroups, "validate", validate)
    products = []
    monkeypatch.setattr(TreeProduct, "__init__",
                        lambda self, tog, _init=TreeProduct.__init__:
                        products.append(tog) or _init(self, tog))
    assert all(c.passed for c in pipeline.section4_pipeline(cache))
    assert len({id(tog) for tog in checked}) == len(checked)
    assert {id(tog) for tog in products} <= {id(tog) for tog in checked}


def test_every_boundary_map_is_an_injective_homomorphism(cache, monkeypatch):
    # validate multiplies nothing, so each map rests on its maker:
    # Builder.edge checks the root-label map it computes, and fold,
    # contract and cut build from checked maps.  The oracle checks both
    # maps of every edge of every tree that the default section 4 and the
    # theorem set-up build, each edge once however many trees share it
    trees = []
    monkeypatch.setattr(TreeOfGroups, "__init__",
                        lambda self, vertices, edges, _init=TreeOfGroups.__init__:
                        trees.append(self) or _init(self, vertices, edges))
    assert all(c.passed for c in pipeline.section4_pipeline(cache))
    TheoremSetup(cache)
    seen = {}
    for tog in trees:
        for e in tog.edges:
            for vertex in (e.u, e.v):
                seen[id(e), vertex] = (e.group, e.endpoint_map(vertex),
                                       tog.vertices[vertex])
    for group, phi, target in seen.values():
        assert phi.keys() == set(group.elements())
        assert len(set(phi.values())) == len(phi)
        assert is_homomorphism(group, phi, target)
    # 75 trees with 120 distinct edges, each checked at both ends
    assert (len(trees), len(seen)) == (75, 240)


def test_validate_multiplies_nothing(ctx, monkeypatch):
    # every test validate makes is a set operation: over the default
    # section 4, on a cache built under the counter, it makes no product
    inside, calls = [], []
    mul, validate = BlueprintGroup.mul, TreeOfGroups.validate

    def counted(self, x, y):
        if inside:
            calls.append(None)
        return mul(self, x, y)

    def watched(tog):
        inside.append(tog)
        try:
            return validate(tog)
        finally:
            inside.pop()
    monkeypatch.setattr(BlueprintGroup, "mul", counted)
    monkeypatch.setattr(TreeOfGroups, "validate", watched)
    assert all(c.passed for c in pipeline.section4_pipeline(GroupCache(ctx)))
    assert len(calls) == 0


def test_edge_groups_are_common_root_subgroups(ctx, builder):
    R = ctx.residue("st", "")
    cons = builder.construction("O_R", R)
    for edge, expected in zip(cons.tog.edges, ("st", "ts")):
        img = builder.image_of_u(ctx.normalize(expected),
                                 cons.spec(edge.u).ambient)
        assert frozenset(edge.group.elements()) == img
    assert not cons.tog.validate()


def test_edge_groups_are_the_memoized_root_subgroups(ctx, builder):
    # every edge over one ambient group and root set carries one checked
    # Subgroup, the cache's own
    cache, edges = builder.cache, 0
    for pair in RANK2:
        R = ctx.residue(set(pair), "")
        for kind in KINDS:
            for s in pair:
                try:
                    cons = builder.construction(kind, R, s)
                except PreconditionError:
                    continue
                for edge in cons.tog.edges:
                    a, b = cons.spec(edge.u), cons.spec(edge.v)
                    assert edge.group is cache.root_subgroup(
                        a.ambient, a.roots & b.roots)
                    edges += 1
    # 36 constructions, none refused at the gate-1 residues
    assert edges == 96


def test_tree_builds_the_construction_path(ctx, builder):
    R = ctx.residue("st", "")
    cons = builder.construction("O_R", R)
    plan = builder.vertex_plan("O_R", R.gate, *constructions.residue_letters(R))
    specs, tog = builder.tree([("v0", plan[0]), ("v1", plan[1]), ("v2", plan[2])],
                              [("v0", "v1"), ("v1", "v2")])
    assert [sp.label for sp in specs] == [sp.label for sp in cons.specs]
    assert tog.vertices == cons.tog.vertices
    assert [(e.u, e.v, e.into_u, e.into_v) for e in tog.edges] == \
        [(e.u, e.v, e.into_u, e.into_v) for e in cons.tog.edges]


@pytest.mark.parametrize("vertices, edges, error", [
    ([], [], "the tree has no vertices"),
    ([("a", ("U", "sr")), ("a", ("U", "trt"))], [], "vertex a is declared twice"),
    ([("a", ("U", "sr"))], [("a", "b")], "an edge names no vertex b"),
    ([("a", ("U", "sr")), ("b", ("U", "trt"))], [], "not connected"),
], ids=["empty", "duplicate", "unknown", "disconnected"])
def test_tree_refusals(builder, vertices, edges, error):
    with pytest.raises(PreconditionError, match=error):
        builder.tree(vertices, edges)


def test_image_of_u_refuses_a_group_outside_the_ambient(cache, builder):
    with pytest.raises(PreconditionError,
                       match=r"^Phi\(rs\) is not inside Phi\(st\): "
                             r"U\[rs\] is not a subgroup of U\[st\]$"):
        builder.image_of_u("rs", cache.group("st"))


def test_image_of_u_refuses_a_subgroup_of_the_wrong_order(cache, monkeypatch):
    # the roots Phi(sr) made to generate the subgroup at one of them only
    root_subgroup = GroupCache.root_subgroup
    monkeypatch.setattr(GroupCache, "root_subgroup", lambda self, ambient, roots:
                        root_subgroup(self, ambient, list(roots)[:1]))
    with pytest.raises(BlueprintError,
                       match=r"^the roots Phi\(sr\) generate a subgroup of "
                             r"order 2 in U\[srs\], not 2\^2$"):
        Builder(cache).image_of_u("sr", cache.group("srs"))


def test_image_of_u_refuses_an_ambient_without_a_relation_of_u(
        ctx, monkeypatch):
    # U[ststr]'s harvest made to lack one relation of U[stst]: the roots
    # Phi(stst) still generate a subgroup of order 16 = 2^4, but the
    # certificate of U[ststr] no longer holds that relation
    builder = Builder(GroupCache(ctx))
    ambient = builder.cache.group("ststr")
    assert builder.image_of_u("stst", ambient).order == 16
    harvests = builder.cache.blueprint._harvests
    dropped = min(harvests["stst"])
    monkeypatch.setitem(harvests, "ststr", harvests["ststr"] - {dropped})
    with pytest.raises(BlueprintError,
                       match=r"^a relation of U\[stst\] is not a relation of "
                             r"U\[ststr\]$"):
        builder.image_of_u("stst", ambient)


def test_image_of_u_on_built_groups_multiplies_nothing(ctx, monkeypatch):
    # the embedding reads the two certificates: once the groups and the
    # subgroup are built, a call makes no product in any group
    builder = Builder(GroupCache(ctx))
    ambient = builder.cache.group("ststr")
    first = builder.image_of_u("stst", ambient)
    calls = []
    mul = BlueprintGroup.mul
    monkeypatch.setattr(BlueprintGroup, "mul",
                        lambda self, x, y: calls.append(x) or mul(self, x, y))
    assert builder.image_of_u("stst", ambient) is first
    assert calls == []


def test_image_of_u_agrees_with_the_root_label_map_oracle(ctx, cache, builder):
    # every a in ball(7) and every prefix w of a: the root-label map
    # U_w -> U_a, built element by element, is a homomorphism whose values
    # are exactly the subgroup image_of_u returns
    pairs = 0
    for a in ctx.ball(7):
        ambient = cache.group(a)
        for w in sorted(ctx.prefix_set(a)):
            image = builder.image_of_u(w, ambient)
            grp = cache.group(w)
            label = {x: ambient.root_product(grp.word_of(x))
                     for x in grp.elements()}
            assert is_homomorphism(grp, label, ambient), (w, a)
            assert frozenset(label.values()) == image, (w, a)
            pairs += 1
    assert pairs == 1879


def test_v_spec_index_two(ctx, builder):
    sp = builder.v_spec("x", "r", "st")
    assert sp.group.order * 2 == sp.ambient.order


def test_c_sets(ctx):
    C_r = c_set_r(ctx, ("s", "t"))
    assert "" in C_r and ctx.normalize("srs") in C_r and "tr" in C_r
    assert len(C_r) == 14
    C1 = c_set_minus1(ctx)
    assert ctx.normalize("rsrs") in C1 and ctx.normalize("rtr") in C1
    assert len(C1) == 19
    C0 = c_set_0(ctx)
    assert len(C0) == 34
    assert C1 <= C0
    # prefix closure
    for w in C0:
        for e in ctx.reduced_words(w):
            assert ctx.canon_reduced(e[:-1]) in C0 or not e


def test_d_sets_match_lists(ctx):
    m = ctx.mult
    assert d_set(ctx, c_set_r(ctx, ("s", "t"))) == frozenset({
        ctx.longest("rs"), ctx.longest("st"), ctx.longest("rt"),
        m("r", ctx.longest("st"))})
    d1 = d_set(ctx, c_set_minus1(ctx))
    assert m("s", ctx.longest("rt")) in d1 and m("t", ctx.longest("rs")) in d1
    assert len(d1) == 6
    assert len(d_set(ctx, c_set_0(ctx))) == 12


def test_generator_counts(cache, ctx):
    assert len(roots_violated(cache, c_set_r(ctx, ("s", "t")))) == 7
    assert len(roots_violated(cache, c_set_minus1(ctx))) == 9
    assert len(roots_violated(cache, c_set_0(ctx))) == 15


def test_dset_certificate(cache):
    cert = dset_certificate(cache)
    assert cert.passed
    assert len(cert.checks) == 10


def test_labelings_cover_all_pairs():
    assert {frozenset(p) for p in RANK2} == {
        frozenset("st"), frozenset("rs"), frozenset("rt")}


def test_colimit_generators_and_relations(cache):
    # generators of each direct limit are the roots some w in C violates;
    # every harvested commutator relation stays among them
    ctx = cache.ctx
    for C, count in ((c_set_r(ctx, ("s", "t")), 7), (c_set_minus1(ctx), 9),
                     (c_set_0(ctx), 15)):
        gens = roots_violated(cache, C)
        assert len(gens) == count
        rels = harvest_relations(cache, C)
        assert rels
        assert all(gens.issuperset((a, b, *mids)) for a, b, mids in rels)
