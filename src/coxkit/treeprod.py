"""Trees of finite groups and the word problem in their tree products.

Vertex groups are "computable groups": objects with identity, mul, inv
and, when finite, elements() and gens, generating elements.  The
edge-map checks multiply by those generators alone (is_homomorphism).
Their elements are canonical and hashable
(ints for the blueprint groups and their subgroups, (carry, letters)
pairs for tree products), so equal elements compare equal and every
element is its own dict key.  Edge groups must be finite.

Normal form (J.-P. Serre, Trees, ch. I §1 and §4).  Fix the root r, the
least vertex name.  An element of a tree product is a pair (carry,
letters): carry lies in G_r and letters is a tuple (v_1, t_1), ...,
(v_n, t_n) with t_i in G_(v_i), standing for carry * t_1 * ... * t_n,
such that
  (i)  v_1 != r and v_i != v_(i+1), and
  (ii) t_i is the chosen representative of its coset E_i t_i and does
       not lie in E_i, where E_i is the image in G_(v_i) of the group of
       the first edge on the tree path from v_i toward v_(i-1) (toward r
       for i = 1).
The representative of a coset E x is the identity when x lies in E,
else the least element in the fixed order of _rank.

Existence.  One right-to-left pass, _normalize, computes the form of a
word, reading each letter once.  It keeps a stack of finished letters,
leftmost on top, and one pending element at a vertex, which it walks
along the tree path to the next letter's vertex (to r after the last
letter).  At every vertex on the way it first absorbs the stack top if
the top sits there; to cross an edge u -> w it splits the pending
element x = e * t by the edge's table, pushes (u, t) unless t is
trivial and carries e on to w.  A pushed letter meets (ii) for whatever
is pushed next, because the pending element cannot leave the side of
the top's edge it stands on without reaching the top's vertex and
absorbing the top.  The table of u -> w maps x in G_u to (e, t), e the
edge part as an element of G_w; it is filled one coset at a time on
first use, so a vertex that is itself a tree product (contract) needs
nothing but its mul.  The walks are the tree's paths
(TreeOfGroups.paths), read from a hop table built with the product that
gives each edge of a path its table and the identities at its two ends.

Uniqueness, for every choice of root at once, by induction on the
number of edges.  With one vertex the form is the carry alone.
Otherwise take a leaf l != r, joined to p by an edge with group E; the
product is the amalgam P *_E G_l, P the tree product of the tree
without l (Serre I.4).  Cut a normal form at its letters at l:
carry * R_0 * t_1 * R_1 * t_2 * ... with runs R_j of letters away from
l.  Each t_j is a nontrivial representative of E in G_l.  Each R_j with
j >= 1, read with root p, is a normal form of P whose carry is 1 or a
nontrivial representative of E in G_p (its first letter, when that
sits at p).  Left multiplication by E changes only that carry, so the
elements of P whose carry with root p is a representative form a
transversal of E in P, and R_j is its nontrivial member of E R_j.  That
is the amalgam's normal form (Serre I.1, Theorem 1): it determines
carry * R_0, every t_j and every R_j, and the hypothesis for P, with
roots r and p, determines their letters.

Vertex lemma.  Let A_v <= G_v be a subgroup family whose edge
preimages agree (D_e on each edge e; check_subtree_conditions).  Then
<A> cap G_v = A_v at every vertex v: an element of G_v lies in the
subgroup the family generates exactly when it lies in A_v, so that
membership is a set test at the vertex.  Proof.  By the proof of
family_embeds, a nontrivial element of <A> is a reduced family word,
and that word is reduced in the product.  A reduced word of two or
more letters lies in no vertex group (Serre I.1, Theorem 1, and I.4),
so a nontrivial a in <A> cap G_v is one family letter a in A_u.  If
u != v, a lies in G_u cap G_v, which lies in iota_u(E_e) for the first
edge e on the path from u to v; so a lies in A_u cap iota_u(E_e) =
iota_u(D_e), and a is the image of a family letter at the next vertex
of the path.  Induction along the path ends at a in A_v.

Syllables.  syllables counts the letters of a reduced word for an
element: one left-to-right slide pass over its normal form.  Starting
with the carry, each element moves right along the tree path toward the
next letter's vertex while it lies in the edge group of the next edge,
and is multiplied into that letter when it gets there; what stops on
the way stays a letter.  Each letter left avoids the edge group toward
its right neighbour, so at every backtrack of the word's walk on the
tree the letter avoids that edge's group, as Serre's reduced words do.
Reduced words of one element have equal length (Serre I.1, Theorem 1),
so the count does not depend on which reduced word the pass leaves.

closure_words enumerates a finite subgroup from generators, each element
with a shortest word, and Subgroup makes that closure a computable group
of its own, generators kept: a frozenset of the elements, so one object
is at once a vertex or edge group, a member of a subgroup family and the
set that the certificates intersect and compare.  A Subgroup is a
subgroup by construction, so a family member is one exactly when it is a
Subgroup with its vertex group's product (check_subtree_conditions), and
no check searches a set for generators.  TreeProduct.image closes a
vertex subgroup's image in the product, for the member at a contracted
vertex.
"""

from __future__ import annotations

from functools import cached_property

__all__ = [
    "Subgroup", "closure_words", "is_homomorphism", "Edge",
    "TreeOfGroups", "TreeProduct", "contract", "cut", "fold",
    "check_subtree_conditions", "respects_edges", "family_embeds", "TreeError",
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


def is_homomorphism(group, phi: dict, target) -> bool:
    """Whether phi, a dict on the elements of the finite computable group
    group, is a homomorphism into target: phi(1) = 1 and phi(x * g) =
    phi(x) * phi(g) for every x and every g in group.gens.

    Homomorphisms.  A map phi on E = <g_1, ..., g_k> is a homomorphism
    exactly when phi(x * g_i) = phi(x) * phi(g_i) for all x in E and all
    i.  Then phi(g_1) = phi(1) * phi(g_1) gives phi(1) = 1 by
    cancellation (the trivial group has no g_i, so phi(1) = 1 is checked
    on its own), and induction on the length of a word w over the g_i
    gives phi(x * w) = phi(x) * phi(w): phi(x * w * g_i) =
    phi(x * w) * phi(g_i) = phi(x) * phi(w) * phi(g_i) = phi(x) *
    phi(w * g_i).  Every element of E is such a word.
    """
    return phi[group.identity] == target.identity and all(
        phi[group.mul(x, g)] == target.mul(y, phi[g])
        for x, y in phi.items() for g in group.gens)


class Subgroup(frozenset):
    """The subgroup of the finite computable group parent that gens
    generates, itself a computable group: the set of its elements, with
    the parent's mul, inv and identity.

    gens maps a label to each generating element.  The elements are the
    closure of the generators under right multiplication (closure_words),
    which is the subgroup they generate, so construction checks nothing.
    self.gens keeps the generating elements in order, and words maps each
    element to its first shortest word in breadth-first order, a tuple of
    labels.

    Subgroups.  Let S be a finite subset of a group that holds 1, and
    g_1, ..., g_k elements of S with S * g_i inside S for every i and
    every element of S reached from 1 by right multiplications with the
    g_i.  Right multiplication by g_i is injective, so it permutes the
    finite S and S * g_i^-1 = S as well; hence S = <g_1, ..., g_k>.  In
    particular the closure of g_1, ..., g_k under right multiplication by
    them, when finite, is the subgroup they generate: it holds 1 and is
    closed under the parent's product.
    """

    def __new__(cls, parent, gens: dict):
        labels, elems = tuple(gens), tuple(gens.values())
        words = closure_words(parent.mul, parent.identity, elems)
        self = super().__new__(cls, words)
        self.parent = parent
        self.gens = elems
        self.words = {x: tuple(labels[i] for i in word)
                      for x, word in words.items()}
        self.mul = parent.mul
        self.inv = parent.inv
        self.identity = parent.identity
        self._elems = tuple(sorted(self))
        return self

    @property
    def order(self) -> int:
        return len(self)

    def elements(self):
        return self._elems

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order})"


def _rank(x) -> str:
    """The fixed order in which the least coset element is chosen: repr
    for an int, the ranks of the carry and the letters joined for a
    (carry, letters) tree-product element."""
    if isinstance(x, tuple):
        carry, letters = x
        parts = [_rank(carry)]
        parts.extend(f"{v}:{_rank(t)}" for v, t in letters)
        return "nf[" + "|".join(parts) + "]"
    return repr(x)


class Edge:
    def __init__(self, u: str, v: str, group, into_u: dict, into_v: dict):
        self.u, self.v = u, v
        self.group = group         # finite computable group
        self.into_u = into_u       # edge elem -> G_u elem
        self.into_v = into_v       # edge elem -> G_v elem

    def endpoint_map(self, vertex: str) -> dict:
        if vertex == self.u:
            return self.into_u
        if vertex == self.v:
            return self.into_v
        raise KeyError(vertex)

    def other(self, vertex: str) -> str:
        return self.v if vertex == self.u else self.u


class TreeOfGroups:
    """A tree of finite groups.  It is not changed once built, so it is
    checked once and walked once: `issues` holds validate's findings from
    its first read, and Builder.tree and TreeProduct both read it;
    `paths` holds the walks between its vertices, which validate reads
    for connectivity and TreeProduct for its hops."""

    def __init__(self, vertices: dict, edges: list):
        self.vertices = dict(vertices)
        self.edges = list(edges)

    @cached_property
    def issues(self) -> tuple:
        return tuple(self.validate())

    @cached_property
    def paths(self) -> dict:
        """paths[u][t]: the walk from u to t, one (a, w) step per edge
        a -> w, empty when u = t, for every vertex t that u reaches; one
        depth-first search from each vertex.  In a tree it is the path."""
        paths = {}
        for u in self.vertices:
            walks, frontier = {u: ()}, [u]
            while frontier:
                a = frontier.pop()
                for w in self.neighbors(a):
                    if w not in walks:
                        walks[w] = walks[a] + ((a, w),)
                        frontier.append(w)
            paths[u] = walks
        return paths

    def neighbors(self, v: str):
        return [e.other(v) for e in self.edges if v in (e.u, e.v)]

    def edge_between(self, a: str, b: str) -> Edge:
        for e in self.edges:
            if {e.u, e.v} == {a, b}:
                return e
        raise KeyError((a, b))

    def validate(self) -> list:
        """Tree-ness, edges between named vertices and boundary maps
        injective homs."""
        names = list(self.vertices)
        if not names:
            return ["the tree has no vertices"]
        issues = []
        if len(self.edges) != len(names) - 1:
            issues.append("edge count is not |V| - 1")
        if self.paths[names[0]].keys() != set(names):
            issues.append("underlying graph is not connected")
        for e in self.edges:
            if e.u == e.v:
                issues.append(f"self loop at {e.u}")
            missing = sorted({e.u, e.v} - self.vertices.keys())
            issues += [f"edge {e.u}-{e.v} names no vertex {x}" for x in missing]
            if missing:
                continue
            group = e.group
            members = set(group.elements())
            for vertex, mapping in ((e.u, e.into_u), (e.v, e.into_v)):
                if set(mapping) != members:
                    issues.append(f"boundary map {e.u}-{e.v} into {vertex}: "
                                  "domain mismatch")
                    continue
                if len(set(mapping.values())) != len(mapping):
                    issues.append(f"boundary map into {vertex} not injective")
                if not is_homomorphism(group, mapping, self.vertices[vertex]):
                    issues.append(f"boundary map into {vertex} not a homomorphism")
        return issues


class TreeProduct:
    """The tree product of a tree of groups, its elements in the normal
    form of the module docstring.

    _tables[u, w] is the edge table of u -> w, seeded with the edge
    group's own coset.  _hops[u][t] is the tree path tog.paths[u][t] with
    one (a, w, _tables[a, w], identity of G_a, identity of G_w) per edge
    a -> w, and is empty when u = t.  mul and inv normalize a word: x's
    letters then y's, and the inverses of x's letters in reverse order.
    """

    def __init__(self, tog: TreeOfGroups):
        if tog.issues:
            raise TreeError("; ".join(tog.issues))
        self.tog = tog
        groups = tog.vertices
        self.root = min(groups)
        self.identity = (groups[self.root].identity, ())
        self._mul = {v: G.mul for v, G in groups.items()}
        self._one = {v: G.identity for v, G in groups.items()}
        self._edges: dict = {}
        self._tables: dict = {}
        for e in tog.edges:
            for u, w in ((e.u, e.v), (e.v, e.u)):
                into_u, into_w = e.endpoint_map(u), e.endpoint_map(w)
                self._edges[u, w] = (e.group, into_u, into_w)
                self._tables[u, w] = {into_u[c]: (into_w[c], groups[u].identity)
                                      for c in e.group.elements()}
        self._hops = {u: {t: tuple((a, w, self._tables[a, w], self._one[a],
                                    self._one[w]) for a, w in walk)
                          for t, walk in walks.items()}
                      for u, walks in tog.paths.items()}
        self._vertex_images: dict = {}

    def _split(self, u: str, w: str, x):
        """(e, t) with x = e * t in G_u, t the representative of x's coset
        modulo the edge group of u - w and e the edge part as an element
        of G_w.  A miss fills the table for the whole coset: with
        t = iota_u(c*) * x the chosen element, y = iota_u(c) * x is
        iota_u(c * c*^-1) * t."""
        table = self._tables[u, w]
        got = table.get(x)
        if got is None:
            E, into_u, into_w = self._edges[u, w]
            mul = self._mul[u]
            coset = [(c, mul(into_u[c], x)) for c in E.elements()]
            c_star, t = min(coset, key=lambda cy: _rank(cy[1]))
            c_star_inv = E.inv(c_star)
            for c, y in coset:
                table[y] = (into_w[E.mul(c, c_star_inv)], t)
            got = table[x]
        return got

    def _normalize(self, letters) -> tuple:
        """The normal form of the word letters, right to left: the stack
        holds the finished letters, leftmost last."""
        root, mul, one, hops = self.root, self._mul, self._one, self._hops
        at, pending, stack = root, one[root], []
        # the stack top's vertex, None while the stack is empty
        top = None
        # the last walk, to r, carries no letter
        for v, x in (*reversed(letters), (root, None)):
            for a, w, table, one_a, one_w in hops[at][v]:
                if top == a:
                    pending = mul[a](pending, stack.pop()[1])
                    top = stack[-1][0] if stack else None
                if pending == one_a:
                    pending = one_w
                else:
                    pending, t = table.get(pending) \
                        or self._split(a, w, pending)
                    if t != one_a:
                        stack.append((a, t))
                        top = a
            if top == v:
                pending = mul[v](pending, stack.pop()[1])
                top = stack[-1][0] if stack else None
            if x is not None:
                pending = mul[v](x, pending) if pending != one[v] else x
            at = v
        return (pending, tuple(reversed(stack)))

    # -- elements ------------------------------------------------------------

    def include(self, vertex: str, x):
        return self._normalize(((vertex, x),))

    def image(self, vertex: str, H) -> Subgroup:
        """The Subgroup of this product closed from include(vertex, g) for
        g in H.gens, H a subgroup of G_vertex that carries its gens, each
        generator labelled by its element of H.  include is injective on G_vertex (the normal
        form is unique) and a homomorphism, so the image is a copy of H,
        finite, of order |H|."""
        return Subgroup(self, {g: self.include(vertex, g) for g in H.gens})

    def eval_word(self, word):
        return self._normalize(tuple(word))

    def mul(self, x, y):
        return self._normalize(self.flatten_word(x) + self.flatten_word(y))

    def inv(self, x):
        groups = self.tog.vertices
        return self._normalize([(v, groups[v].inv(t))
                                for v, t in reversed(self.flatten_word(x))])

    def is_identity(self, x) -> bool:
        return x == self.identity

    def elements(self):
        raise TreeError("tree products are not enumerable")

    # -- structure queries ------------------------------------------------------

    def flatten_word(self, el) -> list:
        """Nontrivial (vertex, element) letters whose product is el: the
        carry, unless trivial, then the normal form's letters."""
        carry, letters = el
        head = [(self.root, carry)] if carry != self.identity[0] else []
        return head + list(letters)

    def flatten(self, el):
        """The nontrivial (vertex, element) letters of el's normal form,
        left to right, whose product is el: a letter at a vertex that is
        itself a tree product is expanded into its own letters, down to
        the leaves, each named by its vertex in the innermost tree."""
        for vertex, x in self.flatten_word(el):
            G = self.tog.vertices[vertex]
            if isinstance(G, TreeProduct):
                yield from G.flatten(x)
            else:
                yield vertex, x

    def syllables(self, el) -> int:
        """The number of letters of a reduced word for el, one letter per
        vertex of this tree (a contracted vertex counts once): the letters
        left by the slide pass of the module docstring."""
        carry, letters = el
        count = 0
        cur, at = carry, self.root
        for v, t in letters:
            for a, w, _, one_a, _ in self._hops[at][v]:
                e, rest = self._split(a, w, cur)
                if rest != one_a:
                    break
                cur, at = e, w
            if at == v:
                cur = self._mul[v](cur, t)
            else:
                count += 1
                cur, at = t, v
        return count + (cur != self._one[at])

    def vertex_value(self, el, vertex: str):
        """The G_vertex element equal to el, or None (finite groups only)."""
        images = self._vertex_images.get(vertex)
        if images is None:
            G = self.tog.vertices[vertex]
            images = {self.include(vertex, x): x for x in G.elements()}
            self._vertex_images[vertex] = images
        return images.get(el)


def cut(tog: TreeOfGroups, sub) -> TreeOfGroups:
    """The vertices of tog in sub and the edges of tog between two of
    them; a tree exactly when sub spans a connected subtree."""
    return TreeOfGroups({v: G for v, G in tog.vertices.items() if v in sub},
                        [e for e in tog.edges if e.u in sub and e.v in sub])


def contract(tog: TreeOfGroups, sub):
    """Contract a connected subtree to one vertex carrying its tree product.

    Returns (new tree, new vertex name, sub product); the new vertex is
    named after the subtree's vertices, as in "(v1+v2)".  Boundary maps of
    crossing edges compose with the inclusion into the sub product.
    """
    sub = frozenset(sub)
    keep = [v for v in tog.vertices if v not in sub]
    sub_tog = cut(tog, sub)
    if len(sub_tog.edges) != len(sub) - 1:
        raise TreeError("vertex set is not a connected subtree")
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
    if not set(e.endpoint_map(a).values()) <= H:
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

    members maps every vertex to a subgroup of its group: each must be a
    Subgroup with the vertex group's mul, which holds 1 and is closed
    under that product by construction (the subgroup lemma of Subgroup),
    so the vertex clause multiplies nothing; a bare set is refused.  On
    every edge the preimages of the two endpoint members must agree.
    edge_groups, when given, maps frozenset edge keys to the claimed edge
    subgroups, checked against the computed preimages.  Returns a dict
    report with per-edge preimage sizes.
    """
    ok = all(isinstance(members[v], Subgroup) and members[v].mul == G.mul
             for v, G in tog.vertices.items())
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


def family_embeds(product: TreeProduct, members: dict,
                  conditions: dict) -> dict:
    """Decide, on the finite groups, that the tree product of a subgroup
    family A_v <= G_v (members: vertex -> Subgroup) injects into product,
    given conditions, the check_subtree_conditions report of members over
    product's tree (claimed edge groups it checked only make it stricter).

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

    Read from conditions: the subgroup and edge-preimage hypotheses at
    every vertex and edge.  Computed here: membership of each A_v in G_v,
    and the base cases of the induction on the engine's normal forms:
    every nontrivial family letter is a one-syllable element (it lies in
    G_v and is not the identity), and every reduced two-letter family
    word across an edge, in either direction, lies in no vertex group
    (two syllables).
    """
    tog = product.tog
    ok = conditions["pass"] and all(
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
    return {**conditions, "pass": ok, "letters": letters, "pairs": pairs}
