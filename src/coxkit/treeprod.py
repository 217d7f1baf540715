"""Trees of finite groups and the word problem in their tree products.

Vertex groups are "computable groups": objects with identity, mul, inv
and, when finite, elements().  Their elements are canonical and hashable
(ints for the blueprint groups and their subgroups, ("nf", carry,
letters) tuples for amalgams and tree products), so equal elements
compare equal and every element is its own dict key.  Edge groups must be
finite.  A tree product is realized by contracting edges one at a time,
each contraction an amalgamated product whose elements are canonical
normal forms c * t1 * ... * tn with alternating transversal letters;
uniqueness is the classical normal form theorem, and it needs nothing
beyond a canonical coset representative per edge-group coset, chosen here
as the least element in the fixed order of _rank (preferring members of
the product's subgroup family when one is installed, which is what makes
membership in that family readable off the letters).

Normal forms are computed right to left by one routine: a carry (an
edge-group element) is pushed leftwards through the letters, and each
letter is replaced by its coset representative.  Multiplying two normal
forms starts that routine with the right factor's letters already in
place and walks the left factor's letters only while something can
change: once the carry is trivial and the next letter cannot merge with
the one to its right, the rest of the left factor is canonical as it
stands, because a representative is the least element of its own coset
and so decomposes to itself.  The product thus costs the letters near
the junction, not both factors in full.

The contraction order is kept as one cluster tree: each contracted vertex
set maps to the two clusters it was amalgamated from.  Evaluating a word
splits it into runs by half, recursively, with one normal form per
cluster; flattening, syllable counts and family membership walk the same
tree.

closure_words enumerates a finite subgroup from generators, and Subgroup
promotes a finite subset of a group to a computable group of its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

__all__ = [
    "Subgroup", "closure_words", "Edge", "TreeOfGroups", "Amalgam", "TreeProduct",
    "contract", "fold", "check_subtree_conditions", "respects_edges",
    "family_embeds", "TreeError",
]


class TreeError(ValueError):
    pass


def closure_words(mul, identity, gens, limit: int | None = None) -> dict:
    """Every element of the finite group generated by gens, mapped to a
    shortest word: a tuple of indices into gens whose product, multiplied
    on the right starting from the identity, is that element.

    Breadth first, each level in discovery order and the generators tried
    in the given order, so each element gets the first shortest word in
    that order and the dict lists the elements in that order.  With a
    limit, the search stops as soon as the dict holds more than limit
    elements, so a caller that expects at most limit can reject a wrong
    group without enumerating it.
    """
    words = {identity: ()}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = mul(x, g)
                if y not in words:
                    words[y] = words[x] + (i,)
                    if limit is not None and len(words) > limit:
                        return words
                    nxt.append(y)
        frontier = nxt
    return words


class Subgroup:
    """A finite subgroup of a computable group, itself a computable group.

    Construction checks that elems hold the identity and are closed under
    inverses and products, and raises TreeError otherwise.
    """

    def __init__(self, parent, elems, name: str = ""):
        self.parent = parent
        self._set = frozenset(elems)
        self._elems = tuple(sorted(self._set))
        self.name = name
        self.identity = parent.identity
        if self.identity not in self._set:
            raise TreeError(f"{self!r} does not contain the identity")
        for x in self._elems:
            if parent.inv(x) not in self._set:
                raise TreeError(f"{self!r} is not closed under inverses")
            for y in self._elems:
                if parent.mul(x, y) not in self._set:
                    raise TreeError(f"{self!r} is not closed under products")

    @property
    def order(self) -> int:
        return len(self._elems)

    def elements(self):
        return self._elems

    def mul(self, x, y):
        return self.parent.mul(x, y)

    def inv(self, x):
        return self.parent.inv(x)

    def __contains__(self, x) -> bool:
        return x in self._set

    def __repr__(self) -> str:
        return self.name or f"Subgroup(order {self.order})"


def _rank(x) -> str:
    """The fixed order in which the least coset element is chosen: repr
    for an int, the letters' ranks joined for an ("nf", carry, letters)
    normal form."""
    if isinstance(x, tuple):
        _, carry, letters = x
        parts = [_rank(carry)]
        parts.extend(f"{side}:{_rank(v)}" for side, v in letters)
        return "nf[" + "|".join(parts) + "]"
    return repr(x)


def _merged(letters, group_of) -> list:
    """The (key, element) letters with adjacent letters under one key
    multiplied together and trivial products dropped; group_of maps a key
    to the group its elements lie in."""
    merged: list = []
    for key, x in letters:
        G = group_of(key)
        if merged and merged[-1][0] == key:
            x = G.mul(merged.pop()[1], x)
        if x != G.identity:
            merged.append((key, x))
    return merged


@dataclass
class Edge:
    u: str
    v: str
    group: object              # finite computable group
    into_u: dict               # edge elem -> G_u elem
    into_v: dict               # edge elem -> G_v elem

    def endpoint_map(self, vertex: str) -> dict:
        if vertex == self.u:
            return self.into_u
        if vertex == self.v:
            return self.into_v
        raise KeyError(vertex)

    def other(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u


class TreeOfGroups:
    def __init__(self, vertices: dict, edges: list):
        self.vertices = dict(vertices)
        self.edges = list(edges)

    def neighbors(self, v: str):
        return [e.other(v) for e in self.edges if v in (e.u, e.v)]

    def edge_between(self, a: str, b: str) -> Edge:
        for e in self.edges:
            if {e.u, e.v} == {a, b}:
                return e
        raise KeyError((a, b))

    def validate(self) -> list:
        """Tree-ness, distinct vertex groups, boundary maps injective homs."""
        issues = []
        names = list(self.vertices)
        if len({id(g) for g in self.vertices.values()}) != len(names):
            issues.append("vertex groups must be distinct objects")
        if len(self.edges) != len(names) - 1:
            issues.append("edge count is not |V| - 1")
        reach = {names[0]}
        frontier = [names[0]]
        while frontier:
            v = frontier.pop()
            for w in self.neighbors(v):
                if w not in reach:
                    reach.add(w)
                    frontier.append(w)
        if reach != set(names):
            issues.append("underlying graph is not connected")
        for e in self.edges:
            if e.u == e.v:
                issues.append(f"self loop at {e.u}")
            for vertex, mapping in ((e.u, e.into_u), (e.v, e.into_v)):
                G = self.vertices[vertex]
                elems = list(e.group.elements())
                if set(mapping) != set(elems):
                    issues.append(f"boundary map {e.u}-{e.v} into {vertex}: "
                                  "domain mismatch")
                    continue
                if len({mapping[c] for c in elems}) != len(elems):
                    issues.append(f"boundary map into {vertex} not injective")
                for c in elems:
                    for d in elems:
                        lhs = mapping[e.group.mul(c, d)]
                        rhs = G.mul(mapping[c], mapping[d])
                        if lhs != rhs:
                            issues.append(
                                f"boundary map into {vertex} not a homomorphism")
                            break
                    else:
                        continue
                    break
        return issues


class Amalgam:
    """A *_C B with canonical normal forms ('nf', carry, letters).

    carry is an edge-group element; letters are (side, tau) with side 0
    for A and 1 for B, tau a canonical nontrivial coset representative,
    sides alternating.

    nf, mul and inv share one right-to-left normalizer, _normalize.  mul
    does not re-normalize its factors: it stacks the right factor's
    letters, carries the right factor's carry into the left factor's
    letters and stops at the first letter where the carry is trivial and
    no merge is pending.  The stop is sound because a canonical letter is
    the least element of its coset C*tau in the fixed _rank and priority
    order, so _decompose would return it with trivial carry.
    """

    def __init__(self, A, B, C, c_into_a: dict, c_into_b: dict,
                 priority=(None, None)):
        self.sides = (A, B)
        self.C = C
        self.embed_maps = (c_into_a, c_into_b)
        self.priority = priority   # per side: None or rank callable -> bool
        self._unembed = tuple({v: c for c, v in m.items()}
                              for m in (c_into_a, c_into_b))
        self._decomp_cache: dict = {}
        self.identity = ("nf", C.identity, ())

    def embed(self, c, side: int):
        return self.embed_maps[side][c]

    def _decompose(self, side: int, x):
        """x = embed(c) * tau with tau the canonical rep of the coset Cx.

        A miss ranks the coset once and stores the decomposition of each
        of its elements: with tau = embed(c*) * x the least candidate,
        y = embed(c) * x is embed(c * c*^-1) * tau.  The _rank string is
        computed only for the candidates tied at the least priority rank.
        """
        got = self._decomp_cache.get((side, x))
        if got is not None:
            return got
        G, C = self.sides[side], self.C
        coset = [(c, G.mul(self.embed(c, side), x)) for c in C.elements()]
        rank_fn = self.priority[side]
        if rank_fn is not None:
            ranks = [rank_fn(y) for _, y in coset]
            least = min(ranks)
            tied = [cy for cy, rank in zip(coset, ranks) if rank == least]
        else:
            tied = coset
        c_star, tau = min(tied, key=lambda cy: _rank(cy[1]))
        c_star_inv = C.inv(c_star)
        for c, y in coset:
            self._decomp_cache[(side, y)] = (C.mul(c, c_star_inv), tau)
        return self._decomp_cache[(side, x)]

    def _normalize(self, letters, carry, stack: list, head=None) -> tuple:
        """Normal form of letters * embed(carry) * stack, right to left.

        stack holds canonical letters, rightmost first, with alternating
        sides.  Each step folds the running carry into the next letter on
        its left, merges it with the stack top when their sides agree, and
        pushes the canonical representative of its coset, leaving the edge
        part as the new carry.

        head, when given, is an edge element standing left of letters,
        which are then canonical (the letters of a normal form).  The walk
        stops as soon as the carry is trivial and the next letter's side
        differs from the stack top: nothing is left to merge, and each
        remaining letter, being the canonical representative of its own
        coset, would decompose to itself with trivial carry.  The result's
        carry is then head itself.
        """
        identity = self.C.identity
        for i in range(len(letters) - 1, -1, -1):
            side, x = letters[i]
            if head is not None and carry == identity and (
                    not stack or stack[-1][0] != side):
                return ("nf", head, letters[:i + 1] + tuple(reversed(stack)))
            G = self.sides[side]
            if carry != identity:
                x = G.mul(x, self.embed(carry, side))
            if stack and stack[-1][0] == side:
                x = G.mul(x, stack.pop()[1])
            if x == G.identity:
                carry = identity
                continue
            un = self._unembed[side].get(x)
            if un is not None:
                carry = un
                continue
            carry, tau = self._decompose(side, x)
            stack.append((side, tau))
        if head is not None:
            carry = self.C.mul(head, carry)
        return ("nf", carry, tuple(reversed(stack)))

    def nf(self, letters) -> tuple:
        """Normal form of a word of (side, element) letters."""
        return self._normalize(letters, self.C.identity, [])

    # -- computable group interface ---------------------------------------

    def letters_of(self, el) -> list:
        tag, carry, letters = el
        out = [(0, self.embed(carry, 0))]
        out.extend(letters)
        return out

    def mul(self, x, y):
        """x * y normalized at the junction: y's letters are already the
        canonical stack, and x's letters are walked leftwards only until
        nothing more can change."""
        _, cx, xl = x
        _, cy, yl = y
        return self._normalize(xl, cy, list(reversed(yl)), head=cx)

    def inv(self, x):
        _, carry, letters = x
        out = [(side, self.sides[side].inv(v)) for side, v in reversed(letters)]
        return self._normalize(out, self.C.inv(carry), [])

    def __repr__(self) -> str:
        return f"Amalgam({self.sides[0]!r} * {self.sides[1]!r})"


class TreeProduct:
    """Tree product realized by contracting edges in a deterministic order.

    _halves maps each contracted cluster (a vertex set) to the two
    clusters it was amalgamated from, clusters maps every cluster to its
    group (the vertex group or an Amalgam) and _top is the whole vertex set.

    family, when given, maps every vertex to a frozenset of its vertex
    group's elements; coset representatives then prefer elements whose
    letters all lie in the family, which is what makes membership in the
    family readable off normal-form letters once the family passes the
    subtree conditions.
    """

    def __init__(self, tog: TreeOfGroups, family: dict | None = None):
        issues = tog.validate()
        if issues:
            raise TreeError("; ".join(issues))
        if family is not None and set(family) != set(tog.vertices):
            raise TreeError("a subgroup family must cover every vertex")
        self.tog = tog
        self.family = family
        self._vertex_images: dict = {}
        self._build(sorted(tog.edges, key=lambda e: (min(e.u, e.v), max(e.u, e.v))))

    def _build(self, plan) -> None:
        cluster_of = {v: frozenset([v]) for v in self.tog.vertices}
        self.clusters = {frozenset([v]): g for v, g in self.tog.vertices.items()}
        self._halves: dict = {}
        for e in plan:
            ca, cb = cluster_of[e.u], cluster_of[e.v]
            into_a = {c: self._eval(ca, [(e.u, x)]) for c, x in e.into_u.items()}
            into_b = {c: self._eval(cb, [(e.v, x)]) for c, x in e.into_v.items()}
            am = Amalgam(self.clusters[ca], self.clusters[cb], e.group,
                         into_a, into_b,
                         (self._family_rank(ca), self._family_rank(cb)))
            cu = ca | cb
            self.clusters[cu] = am
            self._halves[cu] = (ca, cb)
            cluster_of.update(dict.fromkeys(cu, cu))
        self._top = frozenset(self.tog.vertices)
        self.group = self.clusters[self._top]
        self.identity = self.group.identity

    def _eval(self, cluster: frozenset, word):
        """The element of the cluster's group equal to the product of the
        (vertex, element) letters of word: each run of letters in one half
        is evaluated in that half, then the runs are normalized at once."""
        halves = self._halves.get(cluster)
        if halves is None:
            (vertex,) = cluster
            G = self.tog.vertices[vertex]
            for v, _ in word:
                if v != vertex:
                    raise KeyError(v)   # a letter at no vertex of the tree
            return reduce(G.mul, (x for _, x in word)) if word else G.identity
        ca = halves[0]
        runs = itertools.groupby(word, key=lambda letter: 0 if letter[0] in ca else 1)
        return self.clusters[cluster].nf(
            [(side, self._eval(halves[side], list(run))) for side, run in runs])

    def _letters(self, cluster: frozenset, el, out: list) -> None:
        """Append the nontrivial (vertex, element) letters of el, an element
        of the cluster's group, left to right."""
        halves = self._halves.get(cluster)
        if halves is None:
            (vertex,) = cluster
            if el != self.tog.vertices[vertex].identity:
                out.append((vertex, el))
            return
        am = self.clusters[cluster]
        _, carry, letters = el
        if carry != am.C.identity:
            self._letters(halves[0], am.embed(carry, 0), out)
        for side, x in letters:
            self._letters(halves[side], x, out)

    def _in_family(self, letters) -> bool:
        return all(x in self.family[v] for v, x in letters)

    def _family_rank(self, cluster: frozenset):
        """None without a family; else the rank that puts the cluster's
        elements with every letter in the family (False) first."""
        if self.family is None:
            return None

        def rank(el):
            out: list = []
            self._letters(cluster, el, out)
            return not self._in_family(out)
        return rank

    # -- elements ------------------------------------------------------------

    def include(self, vertex: str, x):
        return self._eval(self._top, [(vertex, x)])

    def eval_word(self, word):
        return self._eval(self._top, list(word))

    def mul(self, x, y):
        return self.group.mul(x, y)

    def inv(self, x):
        return self.group.inv(x)

    def is_identity(self, x) -> bool:
        return x == self.identity

    def elements(self):
        raise TreeError("tree products are not enumerable")

    # -- structure queries ------------------------------------------------------

    def _group_letters(self, el):
        out: list = []
        self._letters(self._top, el, out)
        for vertex, x in out:
            G = self.tog.vertices[vertex]
            if isinstance(G, TreeProduct):
                yield from G._group_letters(x)
            else:
                yield G, x

    def flatten(self, el) -> list:
        """Nontrivial (vertex group, element) letters whose product is el,
        letters at vertices that are themselves tree products expanded
        down to their own leaves."""
        return _merged(self._group_letters(el), lambda G: G)

    def _syllables(self, cluster: frozenset, el) -> int:
        halves = self._halves.get(cluster)
        if halves is None:
            return int(el != self.clusters[cluster].identity)
        am = self.clusters[cluster]
        _, carry, letters = el
        if not letters:
            return self._syllables(halves[0], am.embed(carry, 0))
        (side, x), rest = letters[0], letters[1:]
        head = am.sides[side].mul(am.embed(carry, side), x)
        return self._syllables(halves[side], head) + sum(
            self._syllables(halves[s], y) for s, y in rest)

    def syllables(self, el) -> int:
        """The number of letters of a reduced word for el, one letter per
        vertex of this tree (a contracted vertex counts once).  In every
        amalgam the carry is multiplied into the first letter after it, so
        it is never a letter of its own; with no letter it is counted alone.
        """
        return self._syllables(self._top, el)

    def flatten_word(self, el) -> list:
        """Nontrivial (vertex, element) letters whose product is el."""
        out: list = []
        self._letters(self._top, el, out)
        return _merged(out, self.tog.vertices.__getitem__)

    def in_family(self, el) -> bool:
        """All letters of el lie in the installed subgroup family."""
        if self.family is None:
            raise TreeError("no subgroup family installed")
        out: list = []
        self._letters(self._top, el, out)
        return self._in_family(out)

    def vertex_value(self, el, vertex: str):
        """The G_vertex element equal to el, or None (finite groups only)."""
        images = self._vertex_images.get(vertex)
        if images is None:
            G = self.tog.vertices[vertex]
            images = {self.include(vertex, x): x for x in G.elements()}
            self._vertex_images[vertex] = images
        return images.get(el)


def contract(tog: TreeOfGroups, sub):
    """Contract a connected subtree to one vertex carrying its tree product.

    Returns (new tree, new vertex name, sub product); the new vertex is
    named after the subtree's vertices, as in "(v1+v2)".  Boundary maps of
    crossing edges compose with the inclusion into the sub product.
    """
    sub = frozenset(sub)
    keep = [v for v in tog.vertices if v not in sub]
    sub_edges = [e for e in tog.edges if e.u in sub and e.v in sub]
    if len(sub_edges) != len(sub) - 1:
        raise TreeError("vertex set is not a connected subtree")
    sub_tog = TreeOfGroups({v: tog.vertices[v] for v in sub}, sub_edges)
    subprod = TreeProduct(sub_tog)
    name = "(" + "+".join(sorted(sub)) + ")"
    vertices = {v: tog.vertices[v] for v in keep}
    vertices[name] = subprod
    edges = []
    for e in tog.edges:
        if e.u in sub and e.v in sub:
            continue
        if e.u in sub:
            edges.append(Edge(name, e.v,
                              e.group,
                              {c: subprod.include(e.u, x)
                               for c, x in e.into_u.items()},
                              e.into_v))
        elif e.v in sub:
            edges.append(Edge(e.u, name, e.group, e.into_u,
                              {c: subprod.include(e.v, x)
                               for c, x in e.into_v.items()}))
        else:
            edges.append(e)
    return TreeOfGroups(vertices, edges), name, subprod


def fold(tog: TreeOfGroups, a: str, b: str, H, new_vertex: str):
    """Subdivide the edge a-b at an intermediate subgroup H of G_a.

    H is a Subgroup of G_a containing the a-side image of the edge group;
    the new vertex carries H, its edge toward a carries H itself and its
    edge toward b carries the old edge group.
    """
    e = tog.edge_between(a, b)
    if not set(e.endpoint_map(a).values()) <= set(H.elements()):
        raise TreeError("H does not contain the edge-group image")
    vertices = dict(tog.vertices)
    vertices[new_vertex] = H
    edges = [x for x in tog.edges if x is not e]
    edges.append(Edge(a, new_vertex, H,
                      {h: h for h in H.elements()},
                      {h: h for h in H.elements()}))
    edges.append(Edge(new_vertex, b, e.group,
                      dict(e.endpoint_map(a)), dict(e.endpoint_map(b))))
    return TreeOfGroups(vertices, edges)


def check_subtree_conditions(tog: TreeOfGroups, members: dict,
                             edge_groups: dict | None = None) -> dict:
    """The injectivity conditions for a subgroup family over a tree.

    members maps every vertex to a frozenset of its group's elements:
    each must be a subgroup, and on every edge the preimages of the two
    endpoint members must agree.  edge_groups, when given, maps frozenset
    edge keys to the claimed edge subgroups, checked against the computed
    preimages.  Returns a dict report with per-edge preimage sizes.
    """
    ok = True
    for v, G in tog.vertices.items():
        m = members[v]
        ok = ok and G.identity in m and all(
            G.mul(x, y) in m for x in m for y in m)
    report = {"edges": []}
    for e in tog.edges:
        pre_u = {c for c in e.group.elements() if e.into_u[c] in members[e.u]}
        pre_v = {c for c in e.group.elements() if e.into_v[c] in members[e.v]}
        entry = {"edge": (e.u, e.v), "preimage_size": len(pre_u),
                 "preimages_equal": pre_u == pre_v}
        ok = ok and entry["preimages_equal"]
        if edge_groups is not None:
            claimed = edge_groups.get(frozenset((e.u, e.v)))
            if claimed is not None:
                entry["matches_claimed_edge_group"] = set(claimed) == pre_u
                ok = ok and entry["matches_claimed_edge_group"]
        report["edges"].append(entry)
    report["pass"] = ok
    return report


def respects_edges(tog: TreeOfGroups, image) -> list:
    """The edges (u, v) of tog on which the vertex maps disagree: some c
    in the edge group has image(u, into_u[c]) != image(v, into_v[c]).

    By the universal property of the tree product, vertex homomorphisms
    G_v -> Q that respect every edge (an empty list here) extend to one
    homomorphism from the tree product, and uniquely.
    """
    return [(e.u, e.v) for e in tog.edges
            if any(image(e.u, e.into_u[c]) != image(e.v, e.into_v[c])
                   for c in e.group.elements())]


def family_embeds(product: TreeProduct, members: dict) -> dict:
    """Decide, on the finite groups, that the tree product of a subgroup
    family A_v <= G_v (members: vertex -> frozenset) injects into product.

    Criterion.  Suppose every A_v is a subgroup of G_v and on every edge
    e = uv the preimages of A_u and A_v in E_e agree; call them D_e.
    Then (A_v, D_e) is a tree of groups A, every reduced word of A is a
    reduced word of the product, and A -> product is injective.

    Proof.  Call a word g_1...g_n with g_i in G_(v_i) reduced when
    v_1..v_n walks the tree, at every backtrack (v_(i-1) = v_(i+1)) the
    letter g_i avoids that edge's group, and either n = 1 and g_1 != 1 or
    g_n avoids the edge group toward v_(n-1).  A reduced word is
    nontrivial: the cosets g_1...g_(i-1) G_(v_i) walk the Bass-Serre tree
    without backtracking (Serre, Trees, I.4), so g_1...g_n = 1 would make
    that walk the geodesic from G_(v_1) to G_(v_n) inside the copy of the
    tree; then g_1...g_(n-1) lies in G_(v_(n-1)) cap G_(v_n) = E and so
    does g_n.  Every nontrivial element of A is a reduced word of A: write
    it along a walk, then merge each backtrack letter in D_e and a last
    letter in D_e into its neighbours; the word shortens each time.  A
    family letter at v avoids iota_v(D_e) exactly when it avoids
    iota_v(E_e), since A_v cap iota_v(E_e) = iota_v(D_e) is the
    definition of D_e; so reduced words of A are reduced, hence
    nontrivial, in the product.

    Computed here: the subgroup and edge-preimage hypotheses at every
    vertex and edge (check_subtree_conditions), membership of each A_v
    in G_v, and the base cases of the induction on the engine's normal
    forms: every nontrivial family letter is a one-syllable element (it
    lies in G_v and is not the identity), and every reduced two-letter
    family word across an edge, in either direction, lies in no vertex
    group (two syllables).
    """
    tog = product.tog
    report = check_subtree_conditions(tog, members)
    ok = report["pass"] and all(
        members[v] <= frozenset(G.elements()) for v, G in tog.vertices.items())
    include = product.include
    letters = 0
    for v, G in tog.vertices.items():
        for a in members[v]:
            if a != G.identity:
                letters += 1
                el = include(v, a)
                ok = ok and el != product.identity \
                    and product.vertex_value(el, v) == a
    pairs = 0
    for e in tog.edges:
        reduced = {}
        for v in (e.u, e.v):
            banned = set(e.endpoint_map(v).values())
            reduced[v] = [include(v, a) for a in members[v] if a not in banned]
        for u, v in ((e.u, e.v), (e.v, e.u)):
            for x in reduced[u]:
                for y in reduced[v]:
                    pairs += 1
                    el = product.mul(x, y)
                    ok = ok and all(product.vertex_value(el, w) is None
                                    for w in tog.vertices)
    report.update({"pass": ok, "letters": letters, "pairs": pairs})
    return report
