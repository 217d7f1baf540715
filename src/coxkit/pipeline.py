"""Certificates for the tree-product lemmas: every displayed finite-group
equality is recomputed by enumeration inside a recorded ambient group,
every subgroup-family injectivity criterion is checked edge by edge,
every fold/contract move chain is replayed with its preconditions, and
the steps that would need a word-problem oracle for one of the colimits
are emitted as explicit assumptions rather than silently passed.
"""

from __future__ import annotations

from coxkit.blueprint import GroupCache
from coxkit.certs import Certificate, timed
from coxkit.constructions import (KINDS, RANK2, Builder, PreconditionError,
                                  classify_residue, c_set_0, c_set_minus1,
                                  c_set_r, dset_certificate, harvest_relations,
                                  residue_letters, roots_violated)
from coxkit.coxeter import Residue
from coxkit.treeprod import (TreeProduct, check_subtree_conditions, contract,
                             cut, family_embeds, fold, respects_edges)

# ball radius of the half-space and interval-witness checks
RADIUS = 8


def _family_check(cert, label: str, tog, members: dict) -> bool:
    """Check the subgroup-family conditions of members over every vertex
    of tog and record the verdict under label with its per-edge report."""
    rep = check_subtree_conditions(tog, members)
    return cert.check(label, rep["pass"], edges=rep["edges"])


def _levels_coincide(y_family: dict, x_family: dict, vertices) -> tuple:
    """Whether membership in the family X agrees with membership in the
    nested family Y on the subproduct over vertices, with the per-vertex
    family sizes.

    Criterion.  Let Y = (Y_v) and X = (X_v) be subgroup families
    over one tree of groups, each with equal edge preimages (so each
    family's tree product embeds; treeprod.family_embeds), with
    Y_v <= X_v at every vertex.  On the subproduct P_S over a connected
    vertex set S, membership in X agrees with membership in Y exactly
    when Y_v = X_v for every v in S.

    Proof.  By the normal-form theorem, X cap P_S is the tree product of
    (X_v) over S and Y cap P_S that of (Y_v).  If Y_v = X_v on S, the two
    intersections are one subgroup.  If some a lies in X_v but not Y_v,
    the one-letter element a of G_v <= P_S lies in X and not in Y, by
    the vertex lemma of coxkit.treeprod: a family with equal edge
    preimages meets G_v in its own vertex subgroup.  Nesting, the
    hypothesis Y <= X, is checked at every vertex.
    """
    nested = all(y_family[v] <= x_family[v] for v in y_family)
    sizes = {v: (len(y_family[v]), len(x_family[v])) for v in sorted(vertices)}
    return nested and all(y_family[v] == x_family[v] for v in vertices), sizes


def _round_trip_is_identity(full: TreeProduct, outer: TreeProduct, translate,
                            home: dict) -> tuple:
    """Whether translating full's words letter by letter into outer and
    flattening the value back is the identity of full, with the number
    of edge-group elements and vertex elements it was decided on.

    translate maps a letter (v, x) of full to a letter of outer; home maps
    each leaf vertex that outer's deep flattening names its letters by to
    the vertex of full whose group holds those elements.

    Criterion.  The round trip is the identity when (a) the forward maps
    x -> translate(v, x) respect every edge of full's tree, (b) the back
    maps respect every edge of outer's tree and, at a vertex of outer that
    is itself a tree product, every edge of that tree, and (c) the round
    trip fixes every element of every vertex group of full.

    Proof.  Vertex homomorphisms that respect every edge extend uniquely
    to the tree product (universal property; respects_edges).  By (a) the
    forward maps give a homomorphism Phi: full -> outer, and evaluating a
    translated word is Phi of the word's value.  By (b) the back maps give
    Psi: outer -> full, at an inner tree-product vertex first through that
    product's own universal property; flattening a normal form and
    evaluating its letters computes Psi, since Psi of an element is the
    product of Psi of its letters.  Psi Phi is a homomorphism of full that
    fixes the vertex groups, which generate full, so by (c) it is the
    identity; the round trip holds on every word, not only on samples.
    """
    def forward(v, x):
        return outer.eval_word([translate(v, x)])

    def back(el):
        return full.eval_word([(home[v], y) for v, y in outer.flatten(el)])

    def leaf(v, x):
        return full.include(home[v], x)

    trees = [(full.tog, forward),
             (outer.tog, lambda v, x: back(outer.include(v, x)))]
    trees += [(G.tog, leaf) for G in outer.tog.vertices.values()
              if isinstance(G, TreeProduct)]
    broken = [e for tog, image in trees for e in respects_edges(tog, image)]
    moved = [(v, x) for v, G in full.tog.vertices.items()
             for x in G.elements() if back(forward(v, x)) != full.include(v, x)]
    counts = {"edge_elements": sum(e.group.order for tog, _ in trees
                                   for e in tog.edges),
              "vertex_elements": sum(G.order
                                     for G in full.tog.vertices.values())}
    return not broken and not moved, counts


class Section4:
    def __init__(self, builder: Builder):
        self.b = builder
        self.ctx = self.b.ctx
        self.cache = self.b.cache

    # -- small helpers -----------------------------------------------------

    def _frame(self, R: Residue):
        """(s, t, d, gate, mult): the residue letters of R, s the letter
        `residue_letters` chooses, its gate and the Coxeter product."""
        s, t, d = residue_letters(R)
        return s, t, d, R.gate, self.ctx.mult

    def _edge_is_u(self, cons, edge, w: str) -> bool:
        """Whether the edge group of edge, an edge of cons, is the image of
        U_w inside the ambient group of the edge's first vertex."""
        return edge.group == self.b.image_of_u(w, cons.spec(edge.u).ambient)

    def _cap_check(self, cert, ambient: str, *operands) -> bool:
        """Check the displayed equality A cap B = C inside U[ambient] and
        record it with its ambient.  The operands A, B, C are each a word w
        for the image of U_w or a pair (gate, types) for the image of V at
        that gate, labelled with its types in the order given."""
        amb = self.cache.group(ambient)

        def image(op):
            if isinstance(op, str):
                return self.b.image_of_u(op, amb), f"U[{op}]"
            gate, types = op
            return (self.b.image_of_v(gate, types, amb),
                    f"V[{gate or '1'}|{types}]")
        (A, label_a), (B, label_b), (C, label_c) = map(image, operands)
        return cert.check(f"{label_a} cap {label_b} = {label_c} in U[{amb.w}]",
                          A & B == C, ambient=amb.w)

    def _fold_contract(self, cert, desc: str, tog, edge: tuple, H, sub,
                       expected) -> tuple:
        """Fold tog at H on edge (a, b), the new vertex named x, contract the
        vertex set sub, and check that the contracted product's sorted
        vertex orders are those of expected, recording them under desc;
        returns contract's (tree, vertex name, product)."""
        contracted = contract(fold(tog, *edge, H, "x"), sub)
        got = sorted(G.order for G in contracted[2].tog.vertices.values())
        cert.check(desc, got == sorted(expected), got=got)
        return contracted

    # -- Lemma: V_R -> O_R is injective -------------------------------------

    @timed
    def cert_vr_to_or(self, R: Residue) -> Certificate:
        b, ctx = self.b, self.ctx
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"VRtoORinjective[{s}{t}@{g or '1'}]")
        vr = b.construction("V_R", R)
        orr = b.construction("O_R", R)
        cert.data["V_R"] = [sp.label for sp in vr.specs]
        cert.data["O_R"] = [sp.label for sp in orr.specs]
        # vertex containments
        for sp, w in ((orr.specs[0], m(g, s, d)), (orr.specs[2], m(g, t, d))):
            cert.check(f"U[{w}] <= {sp.label}",
                       b.image_of_u(w, sp.ambient) <= sp.group)
        # displayed equalities, each with its ambient recorded
        r_J = ctx.longest({s, t})
        self._cap_check(cert, m(g, s, ctx.longest({d, t})),
                        m(g, s, d), m(g, s, t), m(g, s))
        self._cap_check(cert, m(g, r_J), (g, s + t), m(g, s, t), m(g, s))
        self._cap_check(cert, m(g, r_J), (g, s + t), m(g, t, s), m(g, t))
        self._cap_check(cert, m(g, t, ctx.longest({d, s})),
                        m(g, t, d), m(g, t, s), m(g, t))
        # subgroup-family conditions over O_R
        members = self.family_from_roots(orr, vr.roots)
        claimed = {
            frozenset(("v0", "v1")): b.image_of_u(m(g, s), orr.specs[0].ambient),
            frozenset(("v1", "v2")): b.image_of_u(m(g, t), orr.specs[1].ambient),
        }
        conditions = check_subtree_conditions(orr.tog, members, claimed)
        cert.check("subgroup-family conditions (i)-(iii) over O_R hold with "
                   "edge groups U[w_R s], U[w_R t]", conditions["pass"],
                   edges=conditions["edges"])
        # the V_R family's tree product injects into O_R
        rep = family_embeds(TreeProduct(orr.tog), members, conditions)
        cert.check("V_R inside O_R: reduced family words are reduced in O_R, "
                   "so nontrivial (subgroups with equal edge preimages; one- "
                   "and two-letter base cases)", rep["pass"],
                   letters=rep["letters"], pairs=rep["pairs"])
        return cert

    def family_from_roots(self, cons, roots) -> dict:
        """Per-vertex subgroups generated by the family's root support:
        the canonical subgroup family carried by a root-generated subgroup."""
        roots = frozenset(roots)
        return {sp.name: self.cache.root_subgroup(sp.ambient, roots & sp.roots)
                for sp in cons.specs}

    # -- Lemma: V_{R,s} and O_{R,s} --------------------------------------------

    @timed
    def cert_vrs_ors(self, R: Residue) -> Certificate:
        b = self.b
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"VRs_to_ORs_injective[{s}{t}@{g or '1'},s={s}]")
        vr = b.construction("V_R", R)
        orr = b.construction("O_R", R)
        vrs = b.construction("V_Rs", R)
        ors = b.construction("O_Rs", R)
        cert.check("precondition l(w_R srs) = l(w_R)+3",
                   len(m(g, s, d, s)) == len(g) + 3)
        # chain A: fold V_{R,s} at U[w_R sr], contract the rest to V_R
        H = b.image_of_u(m(g, s, d), vrs.specs[0].group)
        cert.check("fold V_Rs at U[w_R sr]: edge image inside H",
                   frozenset(vrs.tog.edges[0].into_u.values()) <= H)
        tog3, name, sub = self._fold_contract(
            cert, "contract the folded tail of V_Rs to a V_R-shaped product",
            vrs.tog, ("v0", "v1"), H, {"x", "v1", "v2"}, vr.orders())
        home = {sp.name: sp.name for sp in vrs.specs}
        home["x"] = "v0"

        def translate(v, x):
            return (name, sub.include(v, x)) if v in ("v1", "v2") else (v, x)
        ok, counts = _round_trip_is_identity(
            TreeProduct(vrs.tog), TreeProduct(tog3), translate, home)
        cert.check("fold/contract translation round-trips on every word "
                   "(both translations respect every edge identification and "
                   "the round trip fixes every vertex group)", ok, **counts)
        # chain B for O_{R,s}
        H2 = b.image_of_u(m(g, s, d), ors.specs[0].group)
        self._fold_contract(
            cert, "contract the folded tail of O_Rs to an O_R-shaped product",
            ors.tog, ("v0", "v1"), H2, {"x", "v1", "v2", "v3"},
            (H2.order,) + orr.orders())
        # segment-level injectivity data: U[w_R sr]-preimage of V_R in O_R,
        # read at v0 by the vertex lemma of coxkit.treeprod
        vr_v0 = self.family_from_roots(orr, vr.roots)["v0"]
        img = b.image_of_u(m(g, s, d), orr.specs[0].ambient)
        cert.check("U[w_R sr] lies inside the V_R family of O_R "
                   "(edge condition of the segment criterion)", img <= vr_v0)
        cert.assume("V_{R,s} *_{V_R} O_R ~ U[w_R srs] *_{U[w_R sr]} O_R ~ O_{R,s}"
                    " is the replayed chain; the amalgam over the infinite V_R"
                    " is not built as a computable group")
        return cert

    # -- Lemma: H_R decomposes over O_R ---------------------------------------

    @timed
    def cert_ccleftcright(self, R: Residue) -> Certificate:
        b, ctx = self.b, self.ctx
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"CCleftCright[{s}{t}@{g or '1'}]")
        hr = b.construction("H_R", R)
        krs = b.construction("K_Rs", R)
        krt = b.construction("K_Rs", R, t)
        orr = b.construction("O_R", R)
        # displayed equality, s side
        self._cap_check(cert, m(g, s, ctx.longest({d, t})),
                        (m(g, s), d + t), m(g, s, t, d), m(g, s, t))
        # C0 edge group identity inside K_{R,s}
        middle = krs.tog.edges[1]
        cert.check(f"K_Rs middle edge: edge {krs.specs[1].label}^"
                   f"{krs.specs[2].label} is U[{m(g, s, t, s)}]",
                   self._edge_is_u(krs, middle, m(g, s, t, s)),
                   order=middle.group.order)
        # second displayed equality via the two-vertex product C0' = v1*v2,
        # the middle of K_Rs contracted to one vertex
        contracted = {"K_Rs": contract(krs.tog, {"v1", "v2"}),
                      "K_Rt": contract(krt.tog, {"v1", "v2"})}
        c0prod = contracted["K_Rs"][2]
        amb1 = krs.specs[1].ambient
        in_v2 = {c0prod.include("v2", y) for y in krs.specs[2].group.elements()}
        got = {x for x in b.image_of_u(m(g, s, t, d), amb1)
               if c0prod.include("v1", x) in in_v2}
        cert.check(
            f"U[{m(g,s,t,d)}] cap U[{m(g, ctx.longest({s,t}))}] "
            f"= U[{m(g,s,t)}] inside the contracted middle of K_Rs",
            got == b.image_of_u(m(g, s, t), amb1))
        # chain replay: seven steps
        steps = []
        steps.append(cert.check(
            "step 1 (contract H_R): edge between U[w_R r_J] and "
            f"V[{m(g,t,s)}|{d}{t}] is U[{m(g,t,s,t)}]",
            self._edge_is_u(hr, hr.tog.edges[2], m(g, t, s, t))))
        steps.append(cert.check(
            "step 2 (fold at C0): U[w_R tst] <= U[w_R r_J] <= C0",
            ctx.prefix_leq(m(g, t, s, t), m(g, ctx.longest({s, t})))))
        steps.append(cert.check(
            "step 3 (recognize K_Rt): edge between V[ts..] and U[r_J] in K_Rt "
            "is U[w_R tst]", self._edge_is_u(krt, krt.tog.edges[1],
                                             m(g, t, s, t))))
        steps.append(cert.check(
            "step 4 (insert O_R): C0 is the subtree {v0,v1} of O_R",
            {orr.specs[0].label, orr.specs[1].label}
            == {krt.specs[3].label, krt.specs[2].label}))
        steps.append(cert.check("step 5 (associativity of the tree product)",
                                True))
        steps.append(cert.check(
            "step 6 (expand O_R): edge between U[r_J] and V[t..] is U[w_R ts]",
            self._edge_is_u(orr, orr.tog.edges[1], m(g, t, s))))
        steps.append(cert.check(
            "step 7 (recognize K_Rs): its last edge is U[w_R ts]",
            self._edge_is_u(krs, krs.tog.edges[2], m(g, t, s))))
        cert.data["chain_steps"] = len(steps)
        # O_R family conditions inside contracted K_{R,s} and K_{R,t}; the
        # contracted vertex's member is the union of the images of its two
        # vertices' members.  A union of two subgroups is a subgroup exactly
        # when one contains the other (else h in H - K and k in K - H give
        # hk in neither), so it is the larger image, or a bare set that the
        # family check refuses
        for kname, kons in (("K_Rs", krs), ("K_Rt", krt)):
            tog2, cname, c0sub = contracted[kname]
            family = self.family_from_roots(kons, orr.roots)
            small, big = sorted((c0sub.image(v, family[v]) for v in ("v1", "v2")),
                                key=len)
            members = {"v0": family["v0"], "v3": family["v3"],
                       cname: big if small <= big else small | big}
            _family_check(cert, f"subgroup-family conditions for O_R inside "
                          f"{kname}", tog2, members)
        cert.data["conclusion"] = "H_R ~ K_Rs *_{O_R} K_Rt"
        return cert

    # -- the generating-set remark --------------------------------------------

    @timed
    def cert_generating_remark(self, R: Residue) -> Certificate:
        """Root containments behind the generator bookkeeping of the tree
        products: -w_R alpha_t is contained in w_R s alpha_r (and the s<->t
        mirror), checked both by half-space bitsets on a ball and by the exact
        form criterion, plus the non-generator consequences."""
        rsys = self.cache.rsys
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"GeneratingRemark[{s}{t}@{g or '1'}]")
        pairs = [
            (rsys.opposite(rsys.root_from(g, t)), rsys.root_from(m(g, s), d),
             f"-w_R alpha_{t} <= w_R {s} alpha_{d}"),
            (rsys.opposite(rsys.root_from(g, s)), rsys.root_from(m(g, t), d),
             f"-w_R alpha_{s} <= w_R {t} alpha_{d}"),
            (rsys.opposite(rsys.act(m(g, t), rsys.simple(d))),
             rsys.root_from(g, s), f"-w_R {t} alpha_{d} <= w_R alpha_{s}"),
            (rsys.opposite(rsys.act(m(g, s), rsys.simple(d))),
             rsys.root_from(g, t), f"-w_R {s} alpha_{d} <= w_R alpha_{t}"),
        ]
        for small, large, label in pairs:
            sweep_ok = not (rsys.halfspace(small, RADIUS)
                            & ~rsys.halfspace(large, RADIUS))
            pc = rsys.pair_class(small, large)
            form_ok = pc.kind == "nested" and pc.contained == small
            cert.check(f"{label} (ball radius {RADIUS} and form criterion agree)",
                       sweep_ok and form_ok)
        vr = self.b.construction("V_R", R)
        alpha = rsys.root_from(m(g, s), d)
        cert.check(f"u at w_R {s} alpha_{d} is a generator of no other V_R "
                   "vertex", all(alpha not in sp.roots for sp in vr.specs[1:]))
        ws = rsys.root_from(g, s)
        cert.check(f"u at w_R alpha_{s} is not a generator of U[w_R {t}{d}]",
                   ws not in vr.specs[2].roots)
        return cert

    # -- Lemma: V_T embeds in H_R ------------------------------------------------

    @timed
    def cert_jrt(self, R: Residue) -> Certificate:
        b, ctx = self.b, self.ctx
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"JRt[{s}{t}@{g or '1'}]")
        hr = b.construction("H_R", R)
        T = ctx.residue({d, t}, m(g, t, s))
        tagT = classify_residue(ctx, T)
        cert.check("T = R_{d,t}(w_R ts) lies in T_{i+2,1}",
                   tagT.in_T_i1 and tagT.i == len(g) + 2, i=tagT.i)
        vt = b.construction("V_R", T)
        cert.data["V_T"] = [sp.label for sp in vt.specs]
        # the H_R subtree {v2,v3,v4} and the V_T family inside it
        subtree = {"v2", "v3", "v4"}
        sub_tog = cut(hr.tog, subtree)
        cert.check("U[r_J] * V[ts..] * U[t r_ds] is a subtree of H_R",
                   not sub_tog.issues)
        # the V_T family over the subtree: U[w_R tsts], V[w_R ts|dt] and
        # U[w_R tsrs]
        members = self.family_from_roots(hr, vt.roots)
        cert.check("U[w_R tsts] is all of U[w_R r_J]",
                   members["v2"] == frozenset(hr.specs[2].group.elements()))
        cert.check("V_T's middle vertex group is H_R's fourth vertex group",
                   members["v3"] == hr.specs[3].group)
        cert.check("U[w_R tsrs] embeds in U[w_R t r_ds]",
                   members["v4"] <= frozenset(hr.specs[4].group.elements()))
        _family_check(cert, "subgroup-family conditions for V_T in the subtree",
                      sub_tog, members)
        return cert

    # -- Lemma: K_{R,s} cap O_{R,s} = O_R  --------------------------------------

    @timed
    def cert_cleftcright_isos(self, R: Residue) -> Certificate:
        b, ctx = self.b, self.ctx
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"CleftCrightisos[{s}{t}@{g or '1'},s={s}]")
        orr = b.construction("O_R", R)
        ors = b.construction("O_Rs", R)
        krs = b.construction("K_Rs", R)
        vt = b.construction("V_R", ctx.residue({d, t}, m(g, s)))
        # fold O_{R,s} at U[w_R sts] (a subgroup of the U[r_J] vertex) and
        # recognize V_T in the contracted head
        cert.check("edge of O_Rs between V[s..] and U[r_J] is U[w_R st]",
                   self._edge_is_u(ors, ors.tog.edges[1], m(g, s, t)))
        amb2 = ors.specs[2].ambient
        sts_img = b.image_of_u(m(g, s, t, s), amb2)
        cert.check("U[w_R st] <= U[w_R sts] inside U[w_R r_J]",
                   b.image_of_u(m(g, s, t), amb2) <= sts_img)
        self._fold_contract(
            cert, "contracting the folded head of O_Rs gives a V_T-shaped "
            "product", ors.tog, ("v2", "v1"), sts_img, {"v0", "v1", "x"},
            vt.orders())
        # displayed equalities
        self._cap_check(cert, m(g, s, d, ctx.longest({s, t})),
                        m(g, s, d, s), m(g, s, d, t), m(g, s, d))
        # O_R cap U[w_R srt] = U[w_R sr], computed inside K_{R,s}
        or_family = self.family_from_roots(krs, orr.roots)
        decidable = _family_check(
            cert, "O_R family conditions over the four K_Rs vertices "
            "(so membership is letter-decidable)", krs.tog, or_family)
        # read at v0 by the vertex lemma of coxkit.treeprod
        srt_img = b.image_of_u(m(g, s, d, t), krs.specs[0].ambient)
        cert.check(f"O_R cap U[{m(g,s,d,t)}] = U[{m(g,s,d)}] inside K_Rs",
                   srt_img & or_family["v0"]
                   == b.image_of_u(m(g, s, d), krs.specs[0].ambient))
        # final shape: K_{R,s} *_{U[w_R srt]} V[w_R sr | s,t]
        vsd = b.v_spec("w", m(g, s, d), (s, t))
        common = krs.specs[0].roots & vsd.roots
        closure = self.cache.root_subgroup(krs.specs[0].ambient, common)
        cert.check("common generating roots of U[w_R s r_dt] and "
                   f"V[{m(g,s,d)}|{s}{t}] generate U[{m(g,s,d,t)}]",
                   closure == srt_img)
        # conclusion: O_{R,s} cap K_{R,s} = O_R inside Z
        for desc, okv in self._z_product_check(R, krs, or_family["v0"], vsd,
                                               decidable):
            cert.check(desc, okv)
        return cert

    def _z_product_check(self, R, krs, or_v0: frozenset, vsd,
                         decidable: bool):
        """Z = K_{R,s} *_{U[w_R srt]} V[w_R sr|st]: the edge preimages of
        O_R and U[w_R srs], and the amalgam criterion that decides
        O_{R,s} cap K_{R,s} = O_R from them.

        Criterion (Serre, Trees, I.1; Karrass and Solitar, Trans. AMS 150,
        1970).  In Z = K *_E W let A <= K and B <= W have the same
        preimage D in E.  Then <A, B> ~ A *_D B and <A, B> cap K = A.

        Proof.  A cap E = D = B cap E, so an alternating word in A - D and
        B - D alternates in K - E and W - E: it is reduced in Z, and by
        the normal-form theorem its syllable length in Z is its length.
        Every element of <A, B> is such a word times an element of D, so
        no reduced word of A *_D B is trivial in Z, and an element of
        <A, B> lies in K only when its word is a single A letter or empty
        (a lone B letter outside D lies outside E = K cap W).  Here A = O_R,
        B is U[w_R srs] and D is U[w_R sr].  E = U[w_R srt] sits in the
        vertex v0 of K_{R,s}, and when the O_R family passes its
        conditions (decidable), A cap G_v0 is the family's member or_v0
        (the vertex lemma of coxkit.treeprod), so D is computed at v0.
        """
        b = self.b
        s, _, d, g, m = self._frame(R)
        # the common roots of U[w_R s r_dt] and V[w_R sr|st] are Phi(w_R srt)
        edge = b.edge(krs.specs[0], vsd)
        srs_img = b.image_of_u(m(g, s, d, s), vsd.ambient)
        pre_k = {c for c, x in edge.into_u.items() if x in or_v0}
        pre_v = {c for c, y in edge.into_v.items() if y in srs_img}
        b_ok = srs_img <= vsd.group
        return [("edge preimages of (O_R, U[w_R srs]) in U[w_R srt] agree "
                 "and equal U[w_R sr]",
                 pre_k == pre_v
                 and pre_k == b.image_of_u(m(g, s, d), krs.specs[0].ambient)),
                ("O_{R,s} elements that land in K_{R,s} lie in O_R (amalgam "
                 "criterion: O_R letter-decidable in K_Rs, U[w_R srs] a "
                 "subgroup of V[w_R sr|st], equal edge preimages)",
                 decidable and b_ok and pre_k == pre_v)]

    # -- Lemma: K_{R,s} cap G_{-1} = O_R (finite parts) -------------------------

    def _levels_check(self, cert, cons, where: str, y_name: str, vt_roots,
                      y_roots, vertices, claim: str) -> None:
        """Check the family conditions of the V_T family and of its part
        Y over cons, each given by its root support, then record claim:
        membership in the two agrees on the subproduct over vertices
        (_levels_coincide), with the per-vertex family sizes."""
        vt = self.family_from_roots(cons, vt_roots)
        y = self.family_from_roots(cons, y_roots)
        vt_ok = _family_check(cert, f"V_T family conditions inside {where}",
                              cons.tog, vt)
        y_ok = _family_check(cert, f"{y_name} family conditions inside {where}",
                             cons.tog, y)
        ok, sizes = _levels_coincide(y, vt, vertices)
        cert.check(claim, vt_ok and y_ok and ok, sizes=sizes)

    @timed
    def cert_krs_gminus1(self, R: Residue) -> Certificate:
        b, ctx = self.b, self.ctx
        s, t, d, g, m = self._frame(R)
        if g:
            raise PreconditionError("this lemma is stated for gate 1 residues")
        cert = Certificate(f"KRs_cap_Gminus1[{s}{t},s={s}]")
        T = ctx.residue({d, t}, s)
        ot = b.construction("O_R", T)
        vt = b.construction("V_R", T)
        krs = b.construction("K_Rs", R)
        ors = b.construction("O_Rs", R)
        cert.data["O_T"] = [sp.label for sp in ot.specs]
        # X = the subtree of O_T spanned by its middle vertex and the
        # V[w_R st|..] end; V_T family inside O_T
        gst = m(g, s, t)
        x_roots = self.cache.v_roots(gst, (s, d))
        x_outer = next(sp.name for sp in ot.specs if sp.roots == x_roots)
        # Y = V[s|dt] * U[sts]: the V_T part supported away from U[srs]
        y_roots = (frozenset(self.cache.phi(m(g, s, d)))
                   | frozenset(self.cache.phi(m(g, s, t)))
                   | frozenset(self.cache.phi(m(g, s, t, s))))
        self._levels_check(
            cert, ot, "O_T", "Y = V[s|dt] * U[sts]", vt.roots, y_roots,
            {"v1", x_outer}, "X elements: membership in V_T agrees with "
            "membership in Y (Y and V_T agree at every X vertex)")
        # O_R cap V_T = Y inside O_{R,s}; O_R is the subtree {v1, v2, v3}
        self._levels_check(
            cert, ors, "O_Rs", "Y", vt.roots, y_roots, {"v1", "v2", "v3"},
            "O_R elements: membership in V_T agrees with membership in Y (so "
            "O_R cap V_T = Y; Y and V_T agree at every O_R vertex)")
        # X *_Y O_R ~ K_{R,s} chain
        cert.check("edge of O_T between U[s r_dt] and V[st|ds] is U[w_R std]",
                   self._edge_is_u(ot, ot.tog.edge_between("v1", x_outer),
                                   m(g, s, t, d)))
        cert.check("fold O_R at U[sts]: U[st] <= U[sts] <= U[r_J]",
                   b.image_of_u(m(g, s, t), orr_amb := self.cache.group(
                       m(g, ctx.longest({s, t}))))
                   <= b.image_of_u(m(g, s, t, s), orr_amb))
        cert.check("K_Rs middle edge is U[sts] (chain landing shape)",
                   self._edge_is_u(krs, krs.tog.edges[1], m(g, s, t, s)))
        cert.assume("O_R -> O_{R,s} -> G_{-1} injective uses the colimit "
                    "universal property")
        cert.assume("the conclusion K_{R,s} cap G_{-1} = O_R lives in "
                    "D_T = O_T *_{V_T} G_{-1}, whose word problem is not decided")
        return cert

    # -- the colimit lemmas --------------------------------------------------

    @timed
    def cert_nested_intervals_empty(self) -> Certificate:
        """For every w in C_0 and every nested prenilpotent pair inside
        Phi(w), the open interval is empty: each candidate third root is
        refuted by an explicit ball witness.  This is the finite input to
        the homomorphism-extension argument for the colimits."""
        ctx = self.ctx
        rsys = self.cache.rsys
        cert = Certificate("nested_intervals_empty_over_C0")
        pairs = 0
        failures = []
        for w in sorted(c_set_0(ctx)):
            seq = rsys.inversion_sequence(w)
            for i, a in enumerate(seq):
                for b in seq[i + 1:]:
                    if rsys.pair_class(a, b).kind != "nested":
                        continue
                    pairs += 1
                    good, _ = rsys.emptiness_certificate(a, b, w, RADIUS)
                    if not good:
                        failures.append((w, repr(a), repr(b)))
        cert.check("every nested pair inside Phi(w), w in C_0, has an empty "
                   f"open interval (witnesses at radius {RADIUS})", not failures,
                   pairs=pairs, failures=failures)
        return cert

    @timed
    def cert_otog_minus1(self, R: Residue) -> Certificate:
        b, ctx = self.b, self.ctx
        s, t, d, g, m = self._frame(R)
        if g:
            raise PreconditionError("this lemma is stated for gate 1 residues")
        cert = Certificate(f"OtoG-1[{s}{t}]")
        C_r = c_set_r(ctx, (s, t))
        cert.check(f"srs and tr lie in C_r: {m(s,d,s)!r}, {m(t,d)!r}",
                   m(s, d, s) in C_r and m(t, d) in C_r)
        ors = b.construction("O_Rs", R)
        ors_roots = ors.roots
        cert.check("O_{R,s} has seven generating roots", len(ors_roots) == 7,
                   got=len(ors_roots))
        gst_roots = roots_violated(self.cache, C_r)
        cert.check("the two-letter colimit has seven generating roots",
                   len(gst_roots) == 7)
        overlap = ors_roots & gst_roots
        cert.check("five shared generators between the two parts",
                   len(overlap) == 5, got=len(overlap))
        union = ors_roots | gst_roots
        m1_roots = roots_violated(self.cache, c_set_minus1(ctx))
        cert.check("the union is the nine-generator set of G_{-1}",
                   union == m1_roots, got=len(union))
        # relator check: relations of every U_w, w a prefix of srs or tr,
        # hold in the O_{R,s} tree product
        prod = TreeProduct(ors.tog)
        root_home = {}
        for sp in ors.specs:
            for root in sp.roots:
                root_home.setdefault(root, (sp.name, sp.ambient.root_mask(root)))
        ws = set(ctx.prefix_set(m(s, d, s))) | set(ctx.prefix_set(m(t, d)))
        rels = harvest_relations(self.cache, ws)

        def holds(a, bb, mids) -> bool:
            # (u_a u_b)^2 = the product of the u_c, c in mids, in O_{R,s}
            if not root_home.keys() >= {a, bb, *mids}:
                return False
            ab = prod.eval_word((root_home[a], root_home[bb]))
            return prod.mul(ab, ab) == prod.eval_word(root_home[c] for c in mids)
        cert.check("every harvested relation of the U_w, w <= srs or tr, "
                   "holds in O_{R,s}",
                   all(holds(*rel) for rel in sorted(rels, key=repr)),
                   relations=len(rels))
        cert.assume("G_{-1} ~ G_{s,t} *_{V_{R,s}} O_{R,s} is an isomorphism of "
                    "colimits; only its generator bookkeeping is checked here")
        cert.assume("injectivity of V_{R,s} -> G_{s,t} descends from the "
                    "subgroup theorem through the colimit")
        return cert

    @timed
    def cert_otog0(self) -> Certificate:
        b, ctx = self.b, self.ctx
        m = ctx.mult
        cert = Certificate("OtoG0")
        C_m1 = c_set_minus1(ctx)
        cert.check("rsrs and rtr lie in C_{-1}",
                   m("r", "s", "r", "s") in C_m1 and m("r", "t", "r") in C_m1)
        R = ctx.residue("st", "r")
        for kind in ("V_R", "V_Rs"):
            cons = b.construction(kind, R, "s")
            cert.check(f"{kind} at R_(st)(r) is constructible "
                       f"(orders {cons.orders()})", True)
        # fresh generators per R_1 residue are pairwise distinct
        m1_roots = roots_violated(self.cache, C_m1)
        fresh = {}
        for pair, dd in RANK2.items():
            T = ctx.residue(set(pair), dd)
            otT = b.construction("O_R", T)
            fresh[dd] = otT.roots - m1_roots
        names = sorted(fresh)
        ok = all(not (fresh[a] & fresh[bb])
                 for i, a in enumerate(names) for bb in names[i + 1:])
        cert.check("fresh roots of distinct D_T factors are distinct", ok,
                   sizes={k: len(v) for k, v in fresh.items()})
        total = len(m1_roots) + sum(len(v) for v in fresh.values())
        cert.check("nine old plus fresh roots give the fifteen generators "
                   "of G_0", total == 15, got=total)
        cert.assume("G_0 ~ star_{G_{-1}} D_T is an isomorphism of colimits; "
                    "only its generator bookkeeping is checked here")
        return cert

    @timed
    def cert_main_application(self, R: Residue) -> Certificate:
        ctx = self.ctx
        s, t, d, g, m = self._frame(R)
        cert = Certificate(f"MainApplication[{s}{t}@{g or '1'}]")
        C_0 = c_set_0(ctx)
        needed = [m(g, s, ctx.longest({d, t})), m(g, ctx.longest({s, t})),
                  m(g, t, ctx.longest({d, s}))]
        cert.check("C_0 contains s*r_dt, r_J and t*r_ds",
                   all(w in C_0 for w in needed), words=needed)
        hr = self.b.construction("H_R", R)
        cert.check(f"H_R constructible with orders {hr.orders()}", True)
        cert.assume("H_R -> G_0 factors through D_{R(s)} *_{G_{-1}} D_{R(t)}; "
                    "the D-products quantify over colimits")
        cert.assume("K_{R,s} cap G_{-1} = O_R is certified only in its finite "
                    "ingredients (see the K_Rs cap G_{-1} certificate)")
        return cert

    @timed
    def cert_corollary(self) -> Certificate:
        b, ctx = self.b, self.ctx
        m = ctx.mult
        cert = Certificate("MainApplicationCorollary")
        T = ctx.residue("rt", m("r", "s"))
        T2 = ctx.residue("rs", m("r", "t"))
        for name, res in (("T", T), ("T'", T2)):
            tag = classify_residue(ctx, res)
            cert.check(f"{name} lies in T_(2,1)", tag.in_T_i1 and tag.i == 2)
            b.construction("V_R", res)
        rsys = self.cache.rsys
        beta = [rsys.root_from(m("r", "s", "r"), "t"),
                rsys.root_from(m("r", "s", "t"), "r"),
                rsys.root_from(m("r", "t", "r"), "s"),
                rsys.root_from(m("r", "t", "s"), "r")]
        cert.check("the four fresh roots are distinct", len(set(beta)) == 4)
        C_0 = c_set_0(ctx)
        ok = all(rsys.member(w, root) for root in beta for w in C_0)
        cert.check("C_0 is contained in each fresh root", ok)
        cert.assume("the target (G_0 * O_T) *_{G_0} (G_0 * O_T') quantifies "
                    "over G_0; its word problem is not decided")
        return cert


def section4_pipeline(cache: GroupCache, residues: list | None = None) -> list:
    """Run the full certificate battery over the groups of cache.

    residues, when given, is a list of (types, gate-word) pairs for the
    residue-parameterized lemmas; the default is the three gate-1 rank-2
    residues, as in the application.  Each residue runs once, however
    many pairs name it.  A gate word that is not the gate of its residue
    raises PreconditionError, and so does a residue that a construction
    refuses, before any certificate of that residue runs.  The gate-1
    certificates (K_{R,s} cap G_{-1}, O to G_{-1} and the main
    application) run when the residue's gate is 1."""
    sec = Section4(Builder(cache))
    out = [dset_certificate(sec.cache), sec.cert_nested_intervals_empty()]
    if residues is None:
        residues = [(pair, "") for pair in RANK2]
    chosen = {}
    for types, gate in residues:
        R = sec.ctx.residue(set(types), gate)
        if sec.ctx.normalize(gate) != R.gate:
            raise PreconditionError(
                f"{gate!r} is not the gate of {R!r}; its gate is {R.gate!r}")
        chosen[R] = None
    for R in chosen:
        # every certificate builds all six, and the builder keeps them
        for kind in KINDS:
            sec.b.construction(kind, R)
        out.append(sec.cert_generating_remark(R))
        out.append(sec.cert_vr_to_or(R))
        out.append(sec.cert_vrs_ors(R))
        out.append(sec.cert_ccleftcright(R))
        out.append(sec.cert_jrt(R))
        out.append(sec.cert_cleftcright_isos(R))
        if not R.gate:
            out.append(sec.cert_krs_gminus1(R))
            out.append(sec.cert_otog_minus1(R))
            out.append(sec.cert_main_application(R))
    out.append(sec.cert_otog0())
    out.append(sec.cert_corollary())
    return out
