import collections
import hashlib
import json
import random

import pytest

from coxkit import pipeline, treeprod
from coxkit.blueprint import TABLE_CAP, BlueprintGroup, GroupCache
from coxkit.certs import Certificate
from coxkit.constructions import (RANK2, Builder, PreconditionError,
                                  residue_letters)
from coxkit.pipeline import Section4, _family_check, section4_pipeline
from coxkit.treeprod import TreeProduct
from walks import random_word


@pytest.fixture(scope="module")
def sec(cache):
    return Section4(Builder(cache))


@pytest.fixture(scope="module")
def full_run(cache):
    return section4_pipeline(cache)


def test_all_certificates_pass(full_run):
    failures = {c.name: [ch["description"] for ch in c.checks
                         if not ch["status"]]
                for c in full_run if not c.passed}
    assert not failures, failures


def test_residues_past_gate_one_pass(ctx):
    # st at gate rstr and rs at gate trst read groups of order 1024, above
    # TABLE_CAP: their products come from the rows, and every subgroup,
    # boundary-map and family check runs there
    cache = GroupCache(ctx)
    certs = section4_pipeline(cache, [("st", "rstr"), ("rs", "trst")])
    assert max(g.order for g in cache._groups.values()) == 1024 > TABLE_CAP
    assert [sum(f"@{gate}" in c.name for c in certs)
            for gate in ("rstr", "trst")] == [6, 6]
    failures = {c.name: [ch["description"] for ch in c.checks
                         if not ch["status"]]
                for c in certs if not c.passed}
    assert len(certs) == 16 and not failures, failures


def test_a_refused_residue_runs_no_certificate(ctx, monkeypatch):
    # rt at gate rs has l(w_R srs) != l(w_R)+3: the V_Rs construction
    # refuses it before any of its certificates runs, and only the two
    # residue-free certificates, which come first, have run
    ran = []

    def logged(name, cert):
        def run(*args):
            ran.append(name)
            return cert(*args)
        return run
    for name in dir(Section4):
        if name.startswith("cert_"):
            monkeypatch.setattr(Section4, name,
                                logged(name, getattr(Section4, name)))
    monkeypatch.setattr(pipeline, "dset_certificate", logged(
        "dset_certificate", pipeline.dset_certificate))
    with pytest.raises(PreconditionError,
                       match=r"l\(w_R srs\) = l\(w_R\)\+3"):
        section4_pipeline(GroupCache(ctx), [("rt", "rs")])
    assert ran == ["dset_certificate", "cert_nested_intervals_empty"]


def test_certificate_bytes_pinned(full_run):
    docs = [{k: v for k, v in c.to_dict().items() if k != "elapsed"}
            for c in full_run]
    text = json.dumps(docs, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert (len(docs), digest) == (
        31, "dc1f6a1fe67df84dc6ba3497e8728e29c9f10a74327dc48164e04b68c81217e3")


def test_one_subgroup_is_built_per_memo_entry(ctx, monkeypatch):
    built = []
    new = treeprod.Subgroup.__new__

    def counting(cls, *args):
        built.append(new(cls, *args))
        return built[-1]
    monkeypatch.setattr(treeprod.Subgroup, "__new__", counting)
    cache = GroupCache(ctx)
    assert all(c.passed for c in section4_pipeline(cache))
    # over a blueprint group only the memo builds; the others are the
    # images that close the contracted members of CCleftCright
    over = {kind: [g for g in built if isinstance(g.parent, kind)]
            for kind in (BlueprintGroup, TreeProduct)}
    assert len(over[BlueprintGroup]) == len(cache._subgroups) == 84
    assert {id(g) for g in over[BlueprintGroup]} \
        == {id(g) for g in cache._subgroups.values()}
    assert len(over[TreeProduct]) == 12 and len(built) == 96


def test_family_checks_multiply_nothing(ctx, monkeypatch):
    # every member is a Subgroup, closed by construction, so the family
    # checks of the default section 4 make no product in a blueprint group
    mul, check = BlueprintGroup.mul, pipeline.check_subtree_conditions
    calls = collections.Counter()

    def counted_mul(self, x, y):
        calls["inside" if calls["depth"] else "outside"] += 1
        return mul(self, x, y)

    def counted_check(*args):
        calls["checks"] += 1
        calls["depth"] += 1
        try:
            return check(*args)
        finally:
            calls["depth"] -= 1
    monkeypatch.setattr(BlueprintGroup, "mul", counted_mul)
    monkeypatch.setattr(pipeline, "check_subtree_conditions", counted_check)
    assert all(c.passed for c in section4_pipeline(GroupCache(ctx)))
    assert calls["checks"] > 0 and calls["outside"] > 0
    assert calls["inside"] == 0


def test_certificate_inventory(full_run):
    names = [c.name for c in full_run]
    assert "colimit_generating_data" in names
    assert "nested_intervals_empty_over_C0" in names
    for pair in ("st", "rs", "rt"):
        assert f"VRtoORinjective[{pair}@1]" in names
        assert f"CCleftCright[{pair}@1]" in names
        assert f"GeneratingRemark[{pair}@1]" in names
    assert "OtoG0" in names and "MainApplicationCorollary" in names


def test_rank2_table_runs_in_the_report_residue_order(full_run):
    # each key is a sorted type whose letters and third letter are r, s, t
    assert all(pair == tuple(sorted(pair)) and {*pair, d} == set("rst")
               for pair, d in RANK2.items())
    assert list(RANK2) == [("s", "t"), ("r", "s"), ("r", "t")]
    remarks = [c.name for c in full_run if c.name.startswith("GeneratingRemark")]
    assert remarks == [f"GeneratingRemark[{s}{t}@1]" for s, t in RANK2]


def test_assumptions_are_exactly_colimit_steps(full_run):
    keywords = ("colimit", "G_{-1}", "G_0", "G_{s,t}", "word problem",
                "infinite V_R")
    for cert in full_run:
        for assumption in cert.assumptions:
            assert any(k in assumption for k in keywords), assumption
    tagged = {c.name for c in full_run if c.assumptions}
    for name in tagged:
        assert name.startswith(("VRs_to_ORs", "KRs_cap_Gminus1", "OtoG-1",
                                "OtoG0", "MainApplication"))


def test_displayed_equalities_present(full_run):
    texts = [ch["description"] for c in full_run for ch in c.checks]
    assert any("cap U[st] = U[s] in U[stst]" in t for t in texts)
    assert any("cap U[ts] = U[t]" in t for t in texts)
    assert any("= U[sr] inside K_Rs" in t for t in texts)


def test_seven_step_chain(full_run):
    for cert in full_run:
        if cert.name.startswith("CCleftCright"):
            assert cert.data.get("chain_steps") == 7


def test_vr_to_or_at_deeper_residue(sec, ctx):
    cert = sec.cert_vr_to_or(ctx.residue("st", "r"))
    assert cert.passed


@pytest.mark.parametrize("cert", ["cert_krs_gminus1", "cert_otog_minus1"])
def test_gate_one_certificates_require_gate_one(sec, ctx, cert):
    with pytest.raises(PreconditionError, match="gate 1 residues"):
        getattr(sec, cert)(ctx.residue("st", "r"))


@pytest.mark.parametrize("kind", ["O_R", "K_Rs"])
def test_battery_ban_is_read_in_the_vertex_group(sec, ctx, kind):
    """The reduced-word walker (walks.random_word) and the two-letter base
    case of treeprod.family_embeds ban x at v when x lies in the edge
    group's image in G_v; that agrees with banning include(v, x) in the
    edge group's image in the product because include is injective."""
    R = ctx.residue("st", "")
    s = "s"
    cons = sec.b.construction(kind, R, s)
    product = TreeProduct(cons.tog)
    for e in cons.tog.edges:
        images = {product.include(e.u, e.into_u[c]) for c in e.group.elements()}
        assert images == {product.include(e.v, e.into_v[c])
                          for c in e.group.elements()}
        for v in (e.u, e.v):
            G = cons.tog.vertices[v]
            banned = {x for x in G.elements() if product.include(v, x) in images}
            assert banned == set(e.endpoint_map(v).values())


def test_family_walker_stays_in_the_family(sec, ctx):
    """Over the O_R family every letter of a filtered walk lies in the
    family at its vertex and avoids the edge-group image toward the
    vertex before it."""
    R = ctx.residue("st", "")
    orr = sec.b.construction("O_R", R, "s")
    members = sec.family_from_roots(
        orr, sec.b.construction("V_R", R, "s").roots)
    product = TreeProduct(orr.tog)
    rng = random.Random(7)
    letters = 0
    for _ in range(200):
        word = random_word(product, rng, rng.randint(1, 6), members)
        prev = None
        for v, x in word:
            assert x in members[v]
            if prev is None:
                assert x != orr.tog.vertices[v].identity
            else:
                edge = orr.tog.edge_between(prev, v)
                assert x not in set(edge.endpoint_map(v).values())
            prev = v
        letters += len(word)
    assert letters > 200


def test_family_check_fails_on_a_broken_family(sec, ctx):
    R = ctx.residue("st", "")
    orr = sec.b.construction("O_R", R, "s")
    members = sec.family_from_roots(
        orr, sec.b.construction("V_R", R, "s").roots)
    cert = Certificate("broken")
    assert _family_check(cert, "intact", orr.tog, members)
    broken = dict(members, v1=members["v1"] - {orr.tog.vertices["v1"].identity})
    assert not _family_check(cert, "no identity at v1", orr.tog, broken)
    assert [ch["status"] for ch in cert.checks] == [True, False]
    assert cert.checks[1]["description"] == "no identity at v1"
    assert "edges" in cert.checks[1]["data"]
    assert not cert.passed


def paper_listings(sec, R, s):
    """The subgroup families of the tree-product lemmas as the paper lists
    them, vertex by vertex: (name, product, product whose roots support
    the family, {vertex: subgroup}).  The oracle for the root-support
    families that the certificates use."""
    b = sec.b
    _, t, d = residue_letters(R, s)
    g, m = R.gate, sec.ctx.mult
    orr, krs, hr = (b.construction(kind, R, s) for kind in ("O_R", "K_Rs", "H_R"))
    gts = m(g, t, s)
    vt = b.construction("V_R", sec.ctx.residue({d, t}, gts))

    def amb(cons, v):
        return cons.spec(v).ambient

    def whole(cons, v):
        return frozenset(cons.spec(v).group.elements())
    return [
        ("V_R in O_R", orr, b.construction("V_R", R, s), {
            "v0": b.image_of_u(m(g, s, d), amb(orr, "v0")),
            "v1": b.image_of_v(g, (s, t), amb(orr, "v1")),
            "v2": b.image_of_u(m(g, t, d), amb(orr, "v2"))}),
        ("O_R in K_Rs", krs, orr, {
            "v0": b.image_of_v(m(g, s), (d, t), amb(krs, "v0")),
            "v1": b.image_of_u(m(g, s, t, s), amb(krs, "v1")),
            "v2": whole(krs, "v2"),
            "v3": whole(krs, "v3")}),
        ("V_T in H_R", hr, vt, {
            "v2": b.image_of_u(m(gts, t, s), amb(hr, "v2")),
            "v3": b.image_of_v(gts, (d, t), amb(hr, "v3")),
            "v4": b.image_of_u(m(gts, d, s), amb(hr, "v4"))}),
    ]


@pytest.mark.parametrize("pair, gate", [
    ("st", ""), ("rs", ""), ("rt", ""), ("st", "r"), ("rt", "s"), ("rs", "t")])
@pytest.mark.parametrize("first", [0, 1], ids=["s-first", "t-first"])
def test_root_support_families_match_the_paper_listings(sec, ctx, pair, gate,
                                                        first):
    R = ctx.residue(set(pair), gate)
    s = sorted(pair)[first]
    for name, cons, support, listing in paper_listings(sec, R, s):
        family = sec.family_from_roots(cons, support.roots)
        assert {v: family[v] for v in listing} == listing, name
