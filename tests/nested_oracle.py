"""The nested realization of a tree product, kept as the oracle of the
flat normal form in coxkit.treeprod.

A tree product is built by contracting edges one at a time in sorted
order, each contraction an amalgamated product A *_C B whose elements
are ("nf", carry, letters): carry an edge-group element, letters (side,
tau) with alternating sides and tau the least element of its coset in
this module's own order (family members first).  Evaluating a word
splits it into runs by half, recursively, with one normal form per
cluster.  Nothing here is shared with the flat form: the two agree on
an identity verdict or an equality only because both are normal forms
of the same group.
"""

import itertools
from functools import reduce


def _rank(x) -> str:
    """The oracle's fixed order: its own nested normal forms letter by
    letter, anything else (ints, elements of a vertex that is itself a
    flat tree product) by repr."""
    if isinstance(x, tuple) and len(x) == 3 and x[0] == "nf":
        _, carry, letters = x
        parts = [_rank(carry)]
        parts.extend(f"{side}:{_rank(v)}" for side, v in letters)
        return "nf[" + "|".join(parts) + "]"
    return repr(x)


class Amalgam:
    """A *_C B with canonical normal forms ("nf", carry, letters), one
    right-to-left normalizer; mul normalizes the two factors' letters in
    full."""

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
        """x = embed(c) * tau with tau the canonical rep of the coset Cx;
        a miss stores the decomposition of the whole coset."""
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

    def nf(self, letters) -> tuple:
        """Normal form of a word of (side, element) letters: right to
        left, the carry is folded into each letter, merged with the stack
        top on the same side, and split into carry and representative."""
        identity = self.C.identity
        carry, stack = identity, []
        for side, x in reversed(letters):
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
        return ("nf", carry, tuple(reversed(stack)))

    def _letters_of(self, el) -> list:
        _, carry, letters = el
        return [(0, self.embed(carry, 0))] + list(letters)

    def mul(self, x, y):
        return self.nf(self._letters_of(x) + self._letters_of(y))


class NestedProduct:
    """The tree product of tog as a cluster tree of Amalgams: _halves maps
    each contracted cluster (a vertex set) to the two clusters it was
    amalgamated from, clusters maps every cluster to its group."""

    def __init__(self, tog, family: dict | None = None):
        self.tog = tog
        self.family = family
        cluster_of = {v: frozenset([v]) for v in tog.vertices}
        self.clusters = {frozenset([v]): g for v, g in tog.vertices.items()}
        self._halves: dict = {}
        plan = sorted(tog.edges, key=lambda e: (min(e.u, e.v), max(e.u, e.v)))
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
        self._top = frozenset(tog.vertices)
        self.group = self.clusters[self._top]
        self.identity = self.group.identity

    def _eval(self, cluster: frozenset, word):
        halves = self._halves.get(cluster)
        if halves is None:
            (vertex,) = cluster
            G = self.tog.vertices[vertex]
            for v, _ in word:
                if v != vertex:
                    raise KeyError(v)
            return reduce(G.mul, (x for _, x in word)) if word else G.identity
        ca = halves[0]
        runs = itertools.groupby(word, key=lambda letter: 0 if letter[0] in ca else 1)
        return self.clusters[cluster].nf(
            [(side, self._eval(halves[side], list(run))) for side, run in runs])

    def _letters(self, cluster: frozenset, el, out: list) -> None:
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

    def _family_rank(self, cluster: frozenset):
        if self.family is None:
            return None

        def rank(el):
            out: list = []
            self._letters(cluster, el, out)
            return not all(x in self.family[v] for v, x in out)
        return rank

    def eval_word(self, word):
        return self._eval(self._top, list(word))

    def mul(self, x, y):
        return self.group.mul(x, y)

    def letters(self, el) -> list:
        """The (vertex, element) letters of el, left to right."""
        out: list = []
        self._letters(self._top, el, out)
        return out

    def in_family(self, el) -> bool:
        return all(x in self.family[v] for v, x in self.letters(el))
