"""The named tree products over rank-2 residues and the colimit data.

Each construction is a path of vertex groups: full blueprint groups U_w
and index-2 subgroups V (generated by the root generators of the two
gate-adjacent U's).  Edge groups are always the subgroup generated by the
common generating roots of adjacent vertices, with boundary maps matched
root-by-root, which is exactly the hat-star convention.  That subgroup is
GroupCache.root_subgroup of the first vertex's ambient group, so every
edge over one ambient group and root set, in any tree, carries one
memoized Subgroup, closed once from its root generators.  Every vertex
group is the closure of its own generating roots (u_spec and v_spec make
every spec), so an edge group and its root-label image lie inside both
vertex groups, and Builder.edge checks no containment.  Builder.edge
computes the one map it reads from data, the root-label map into the
second vertex, by one closure that also proves it an injective
homomorphism, and raises TreeError naming both vertices when it is not
one.  The first side needs no check: the edge group is a closure under
the first ambient group's product of roots that the first vertex group
holds, so its identity map is an injective homomorphism into that
vertex group.

Graph lemma.  Let E = <g_1, ..., g_k> <= G_a, let h_1, ..., h_k lie in
G_b, and let Gamma be the subgroup of G_a x G_b generated by the pairs
(g_i, h_i).  The first projection maps Gamma onto E.  The map g_i -> h_i
extends to a homomorphism phi: E -> G_b exactly when |Gamma| = |E|, and
Gamma is then the graph of phi.  If phi exists, its graph is a subgroup
of order |E| that holds every (g_i, h_i), so it contains Gamma, which
projects onto E: the two agree.  If |Gamma| = |E|, the projection is a
bijection, so Gamma is the graph of a map phi with phi(g_i) = h_i, and
phi is a homomorphism because Gamma is closed under the product.  phi is
injective exactly when the second coordinates of Gamma are distinct.
Builder.edge closes the pairs of root generators at the common roots
(closure_words) and stops at |E| + 1 elements, so a wrong map costs no
more than a right one.

Builder.tree builds every tree of such groups: the constructions, the
`coxkit nf` tree files and the subgroup theorem's U_sr * V * U_trt.

The colimit side computes the prefix sets C and gate sets D that define
the three direct limits, their generator roots and commutator relations;
those groups have no word-problem oracle here and are carried as that
data plus the amalgam decompositions certified in coxkit.pipeline.
"""

from __future__ import annotations

from typing import NamedTuple

from coxkit.blueprint import BlueprintError, BlueprintGroup, GroupCache
from coxkit.certs import Certificate, timed
from coxkit.coxeter import Coxeter, Residue, standard_coxeter
from coxkit.treeprod import (Edge, Subgroup, TreeError, TreeOfGroups,
                             closure_words)

KINDS = ("V_R", "O_R", "V_Rs", "O_Rs", "H_R", "K_Rs")
# each rank-2 type J, its letters sorted, with the third letter, in the
# order the report lists its residues
RANK2 = {("s", "t"): "r", ("r", "s"): "t", ("r", "t"): "s"}


class PreconditionError(ValueError):
    """A construction was requested for a residue outside its class."""


class ResidueClassTag(NamedTuple):
    i: int
    in_T_i1: bool


def residue_letters(R: Residue, s: str | None = None):
    """(s, t, d): the chosen type letter, the other one, the third letter."""
    types = tuple(sorted(R.types))
    if len(types) != 2:
        raise PreconditionError("constructions need rank-2 residues")
    d = RANK2[types]
    if s is None:
        s, t = types
    else:
        if s not in types:
            raise PreconditionError(f"{s!r} is not in the type of {R}")
        (t,) = set(types) - {s}
    return s, t, d


def classify_residue(ctx: Coxeter, R: Residue) -> ResidueClassTag:
    s, t, d = residue_letters(R)
    g = R.gate
    i = len(g)
    in_t = (len(ctx.mult(g, s, d)) == i + 2 and len(ctx.mult(g, t, d)) == i + 2)
    return ResidueClassTag(i, in_t)


class VertexSpec(NamedTuple):
    name: str
    label: str
    group: object
    ambient: BlueprintGroup
    roots: frozenset


class Construction(NamedTuple):
    kind: str
    residue: Residue
    s: str
    specs: tuple
    tog: TreeOfGroups

    def spec(self, name: str) -> VertexSpec:
        for sp in self.specs:
            if sp.name == name:
                return sp
        raise KeyError(name)

    def orders(self) -> tuple:
        return tuple(sp.group.order for sp in self.specs)

    @property
    def roots(self) -> frozenset:
        """The root support: every vertex's generating roots."""
        return frozenset().union(*(sp.roots for sp in self.specs))


class Builder:
    def __init__(self, cache: GroupCache | None = None):
        self.cache = cache = cache or GroupCache(standard_coxeter())
        self.ctx = cache.ctx
        self._constructions: dict[tuple, Construction] = {}

    # -- groups and subgroup images -----------------------------------------

    def u_spec(self, name: str, w: str) -> VertexSpec:
        grp = self.cache.group(w)
        return VertexSpec(name, f"U[{grp.w}]", grp, grp, frozenset(grp.roots))

    def v_spec(self, name: str, gate: str, types) -> VertexSpec:
        grp = self.cache.v_subgroup(gate, types)
        u, v = sorted(types)
        label = f"V[{self.ctx.normalize(gate)}|{u}{v}]"
        if grp.order * 2 != grp.parent.order:
            raise PreconditionError(f"{label} does not have index 2")
        return VertexSpec(name, label, grp, grp.parent,
                          self.cache.v_roots(gate, types))

    def image_of_u(self, w: str, ambient: BlueprintGroup) -> Subgroup:
        """U_w as the subgroup of ambient at the roots Phi(w), the image of
        the root-label map U_w -> ambient, which sends the generator of U_w
        at each root to the ambient one and is an isomorphism onto it by
        the blueprint module's embedding corollary.  PreconditionError
        unless Phi(w) lies inside Phi(ambient); BlueprintError unless the
        subgroup has U_w's order 2^l(w) and every relation of U_w (its
        harvest) is one of ambient, which ambient's certificate holds."""
        roots = self.cache.phi(w)
        if not set(ambient.roots).issuperset(roots):
            raise PreconditionError(
                f"Phi({w}) is not inside Phi({ambient.w}): U[{w}] is not "
                f"a subgroup of U[{ambient.w}]")
        image = self.cache.root_subgroup(ambient, roots)
        if image.order != 2 ** len(roots):
            raise BlueprintError(
                f"the roots Phi({w}) generate a subgroup of order "
                f"{image.order} in U[{ambient.w}], not 2^{len(roots)}")
        # building U_w checks its insertion columns, the corollary's bound
        # |U_w| <= 2^l(w)
        harvest = self.cache.blueprint.harvest
        if not harvest(self.cache.group(w).w) <= harvest(ambient.w):
            raise BlueprintError(
                f"a relation of U[{w}] is not a relation of U[{ambient.w}]")
        return image

    def image_of_v(self, gate: str, types, ambient: BlueprintGroup) -> Subgroup:
        return self.cache.root_subgroup(ambient, self.cache.v_roots(gate, types))

    # -- edges and trees ---------------------------------------------------

    def edge(self, a: VertexSpec, b: VertexSpec) -> Edge:
        common = a.roots & b.roots
        if not common:
            raise PreconditionError(
                f"no common generating roots between {a.label} and {b.label}")
        group = self.cache.root_subgroup(a.ambient, common)
        # the graph of the root-label map (graph lemma): each generator of
        # group, a's root generator at a common root, paired with b's
        mul_a, mul_b = a.ambient.mul, b.ambient.mul
        graph = closure_words(
            lambda x, y: (mul_a(x[0], y[0]), mul_b(x[1], y[1])),
            (a.ambient.identity, b.ambient.identity),
            [(g, b.ambient.root_mask(a.ambient.word_of(g)[0]))
             for g in group.gens],
            limit=group.order)
        into_b = dict(list(graph))
        if len(graph) != group.order \
                or len(set(into_b.values())) != len(into_b):
            raise TreeError(f"the root-label map from {a.label} into "
                            f"{b.label} is not an injective homomorphism")
        return Edge(a.name, b.name, group, {x: x for x in group}, into_b)

    def tree(self, vertices, edges) -> tuple[tuple, TreeOfGroups]:
        """The tree of groups with these vertices and edges: vertices lists
        (name, ("U", w)) for U_w and (name, ("V", gate, types)) for V at
        that gate, edges lists the pairs of names glued along their common
        roots (edge).  Returns the vertex specs, in the given order, and
        the validated tree; PreconditionError on a duplicate or unknown
        vertex name or a graph that is not a tree, the empty one
        included.  A root-label map that is not an injective homomorphism
        raises TreeError (edge): the groups are at fault, not the
        request.  Every boundary map edge returns is defined on its whole
        edge group and injective, so validate finds nothing but shape
        issues here."""
        specs, edges = {}, list(edges)
        for name, (kind, *data) in vertices:
            if name in specs:
                raise PreconditionError(f"vertex {name} is declared twice")
            specs[name] = (self.u_spec if kind == "U" else self.v_spec)(
                name, *data)
        unknown = sorted({v for pair in edges for v in pair} - specs.keys())
        if unknown:
            raise PreconditionError(f"an edge names no vertex {unknown[0]}")
        tog = TreeOfGroups({name: sp.group for name, sp in specs.items()},
                           [self.edge(specs[a], specs[b]) for a, b in edges])
        if tog.issues:
            raise PreconditionError(
                "invalid tree of groups: " + "; ".join(tog.issues))
        return tuple(specs.values()), tog

    # -- the constructions ---------------------------------------------------

    def vertex_plan(self, kind: str, g: str, s: str, t: str, d: str) -> list:
        """The vertices of the named construction, in path order, at the
        gate g with the letters (s, t, d) that residue_letters resolved."""
        m = self.ctx.mult
        r_J = self.ctx.longest({s, t})
        r_dt = self.ctx.longest({d, t})
        r_ds = self.ctx.longest({d, s})
        if kind == "V_R":
            return [("U", m(g, s, d)), ("V", g, (s, t)), ("U", m(g, t, d))]
        if kind == "O_R":
            return [("V", m(g, s), (d, t)), ("U", m(g, r_J)), ("V", m(g, t), (d, s))]
        if kind == "V_Rs":
            return [("U", m(g, s, d, s)), ("V", g, (s, t)), ("U", m(g, t, d))]
        if kind == "O_Rs":
            return [("U", m(g, s, d, s)), ("V", m(g, s), (d, t)),
                    ("U", m(g, r_J)), ("V", m(g, t), (d, s))]
        if kind == "H_R":
            return [("U", m(g, s, r_dt)), ("V", m(g, s, t), (d, s)),
                    ("U", m(g, r_J)), ("V", m(g, t, s), (d, t)),
                    ("U", m(g, t, r_ds))]
        if kind == "K_Rs":
            return [("U", m(g, s, r_dt)), ("V", m(g, s, t), (d, s)),
                    ("U", m(g, r_J)), ("V", m(g, t), (d, s))]
        raise PreconditionError(f"unknown construction kind {kind!r}")

    def construction(self, kind: str, R: Residue, s: str | None = None) -> Construction:
        """The tree of groups of the named construction at the rank-2
        residue R, with s its chosen type letter (residue_letters' choice
        when None).

        The letter is resolved first, by residue_letters, and the memo on
        this builder is keyed by (kind, R, resolved letter), so s=None and
        the letter it resolves to share one entry; the entry is shared,
        and nothing in it may be changed.  Only a construction that passes
        every precondition is memoized: a refused one raises
        PreconditionError on every call."""
        s, t, d = residue_letters(R, s)
        key = (kind, R, s)
        got = self._constructions.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        if not classify_residue(ctx, R).in_T_i1:
            raise PreconditionError(
                f"{R} violates l(w_R s r) = l(w_R)+2 = l(w_R t r)")
        plan = self.vertex_plan(kind, R.gate, s, t, d)
        if kind in ("V_Rs", "O_Rs") and \
                len(ctx.mult(R.gate, s, d, s)) != len(R.gate) + 3:
            raise PreconditionError(
                f"{R} with s={s} violates l(w_R srs) = l(w_R)+3")
        names = [f"v{idx}" for idx in range(len(plan))]
        specs, tog = self.tree(zip(names, plan), zip(names, names[1:]))
        got = self._constructions[key] = Construction(kind, R, s, specs, tog)
        return got


# -- colimit data ------------------------------------------------------------


def c_set_r(ctx: Coxeter, pair) -> frozenset:
    """C for the two-letter colimit of the pair {s,t}: prefixes of the
    longest elements of the two parabolic types containing the third letter."""
    d = RANK2[tuple(sorted(pair))]
    out = set()
    for x in pair:
        out |= ctx.prefix_set(ctx.longest({d, x}))
    return frozenset(out)


def c_set_minus1(ctx: Coxeter) -> frozenset:
    out = set()
    for pair in RANK2:
        out |= ctx.prefix_set(ctx.longest(set(pair)))
    return frozenset(out)


def c_set_0(ctx: Coxeter) -> frozenset:
    out = set(c_set_minus1(ctx))
    for pair, d in RANK2.items():
        out |= ctx.prefix_set(ctx.mult(d, ctx.longest(set(pair))))
    return frozenset(out)


def d_set(ctx: Coxeter, C: frozenset) -> frozenset:
    """Gates w_R of rank-2 residues with both w_R*u, w_R*v in C, recorded
    as the elements w_R * r_J."""
    out = set()
    for w in C:
        for u, v in RANK2:
            wu, wv = ctx.mult(w, u), ctx.mult(w, v)
            if len(wu) == len(w) + 1 and len(wv) == len(w) + 1 \
                    and wu in C and wv in C:
                out.add(ctx.mult(w, ctx.longest({u, v})))
    return frozenset(out)


def roots_violated(cache: GroupCache, C) -> frozenset:
    """The roots alpha with C not contained in alpha: the generator set of
    the colimit presentation over C."""
    out = set()
    for w in C:
        out |= set(cache.phi(w))
    return frozenset(out)


def harvest_relations(cache: GroupCache, C) -> set:
    """Deduplicated commutator relations of all U_w, w in C, as root tuples."""
    return set().union(*(cache.blueprint.harvest(w) for w in C))


@timed
def dset_certificate(cache: GroupCache) -> Certificate:
    """The explicit D_r, D_-1, D_0 lists and the generator counts."""
    ctx = cache.ctx
    cert = Certificate("colimit_generating_data")
    m = ctx.mult
    r_J = {pair: ctx.longest(set(pair)) for pair in RANK2}
    r_st, r_rs, r_rt = r_J.values()
    C_r = c_set_r(ctx, ("s", "t"))
    C_m1 = c_set_minus1(ctx)
    C_0 = c_set_0(ctx)
    d_r = {ctx.normalize(x) for x in (r_rs, r_st, r_rt, m("r", r_st))}
    cert.check("D_r matches the explicit four-element list",
               d_set(ctx, C_r) == frozenset(d_r),
               got=sorted(d_set(ctx, C_r)), expected=sorted(d_r))
    d_m1 = set(d_r) | {m("s", r_rt), m("t", r_rs)}
    cert.check("D_-1 matches the explicit six-element list",
               d_set(ctx, C_m1) == frozenset(d_m1),
               got=sorted(d_set(ctx, C_m1)), expected=sorted(d_m1))
    d_0 = set(d_m1) | {m("rs", r_rt), m("rt", r_rs), m("sr", r_st),
                       m("st", r_rs), m("tr", r_st), m("ts", r_rt)}
    cert.check("D_0 matches the explicit twelve-element list",
               d_set(ctx, C_0) == frozenset(d_0),
               got=sorted(d_set(ctx, C_0)), expected=sorted(d_0))
    n7 = len(roots_violated(cache, C_r))
    cert.check("the two-letter colimit has seven generators", n7 == 7, got=n7)
    n9 = len(roots_violated(cache, C_m1))
    cert.check("the middle colimit has nine generators", n9 == 9, got=n9)
    small = [cache.phi(r_J[pair]) for pair in RANK2]
    big = [cache.phi(m(d, r_J[pair])) for pair, d in RANK2.items()]
    pairs12 = sum(map(len, small))
    cert.check("twelve generators indexed by the r_J groups", pairs12 == 12,
               got=pairs12)
    pairs15 = sum(map(len, big))
    cert.check("fifteen generators indexed by the r*r_J groups", pairs15 == 15,
               got=pairs15)
    n15 = len(roots_violated(cache, C_0))
    cert.check("fifteen roots do not contain all of C_0", n15 == 15, got=n15)
    cert.check("every r_J generator is also an r*r_J generator",
               set().union(*small) <= set().union(*big))
    rels = harvest_relations(cache, C_0)
    gens = roots_violated(cache, C_0)
    ok = all(a in gens and b in gens and all(c in gens for c in mids)
             for a, b, mids in rels)
    cert.check("every harvested relation is supported on the generators", ok,
               relations=len(rels))
    cert.data["c_sizes"] = {"C_r": len(C_r), "C_-1": len(C_m1), "C_0": len(C_0)}
    return cert
