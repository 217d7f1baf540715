"""Commutator blueprints and the finite 2-groups they present.

A group U_w is generated by involutions u_1 .. u_k, one per root crossed
by a fixed minimal gallery of w, with [u_i, u_j] prescribed by the
blueprint as a product of generators strictly between i and j.  Elements
are bitmasks: bit i set means u_{i+1} occurs in the normal form
u_1^e1 ... u_k^ek.  Multiplication is collection from the left (see
coxkit.wordops).  Up to TABLE_CAP elements the product table is built
from the k generator rows u_i * y alone: every other row follows by
composing them, since x = u_low * x' with low the lowest set bit of x is
already a normal form (collection from the left as a permutation action;
Leedham-Green & Soicher 1990).  The generator rows themselves follow by a
recurrence over the pair products u_i * u_j, one collection per pair j < i;
every other entry is a few reads of rows already filled.

Order certification: collection terminates (well-founded measure) and
only uses relation consequences, so |U_w| <= 2^k; the left-regular
permutations of the generators act on the 2^k normal vectors with full
orbit, and once every defining relation (from every minimal gallery of w)
holds for those permutations, the permutation group is a quotient of U_w
of order >= 2^k.  Both together pin |U_w| = 2^k exactly.
"""

from __future__ import annotations

from coxkit import wordops
from coxkit.coxeter import Coxeter, Gallery
from coxkit.roots import Root, RootSystem
from coxkit.treeprod import Subgroup, closure_words

TABLE_CAP = 256


class BlueprintError(ValueError):
    """The family fails a blueprint axiom (CB1-CB3) or an order constraint."""


class KacMoodyBlueprint:
    """The locally Weyl-invariant blueprint: M = (a,b) when o(r_a r_b) is
    finite and the open interval has exactly two roots, else empty."""

    def __init__(self, rsys: RootSystem):
        self.rsys = rsys
        self._cache: dict[frozenset, frozenset] = {}

    def value(self, g: Gallery, a: Root, b: Root) -> tuple[Root, ...]:
        """M^G_{a,b}, ordered by the gallery's crossing order."""
        key = frozenset((a, b))
        got = self._cache.get(key)
        if got is None:
            pc = self.rsys.pair_class(a, b)
            if pc.kind == "finite":
                mid = self.rsys.open_interval(a, b, g)
                got = frozenset(mid) if len(mid) == 2 else frozenset()
            else:
                got = frozenset()
            self._cache[key] = got
        if not got:
            return ()
        return tuple(sorted(got, key=self.rsys.inversion_sequence(g).index))


class BlueprintGroup:
    """The collection group U_w for one gallery and one blueprint."""

    def __init__(self, ctx: Coxeter, rsys: RootSystem, gallery: Gallery,
                 blueprint: KacMoodyBlueprint, check_measure: bool = False):
        self.ctx = ctx
        self.rsys = rsys
        self.gallery = gallery
        self.blueprint = blueprint
        self.w = ctx.normalize(gallery.type_word)
        self.roots = rsys.inversion_sequence(gallery)
        self.k = len(self.roots)
        self.order = 1 << self.k
        self.identity = 0
        self.check_measure = check_measure
        self._pos = {root: i for i, root in enumerate(self.roots)}
        self._comm = self._build_comm()
        self._table: list | None = None
        if self.order <= TABLE_CAP:
            self._table = self._build_table()

    def _build_comm(self) -> bytes:
        k = self.k
        comm = bytearray(3 * k * k)
        for i in range(k):
            for j in range(i + 1, k):
                mids = self.blueprint.value(self.gallery, self.roots[i], self.roots[j])
                pos = [self._pos[m] for m in mids]
                if any(not (i < p < j) for p in pos):
                    raise BlueprintError(
                        f"M-letter positions {pos} not strictly between {i} and {j}")
                base = (i * k + j) * 3
                comm[base] = len(pos)
                for tix, p in enumerate(pos):
                    comm[base + 1 + tix] = p
        return bytes(comm)

    def _build_table(self) -> list:
        # generator row i is u_i * y for every normal form y, filled in
        # increasing i and y.  With j the lowest letter of y below i,
        # y = u_j * y' and u_i * u_j = u_j * z for a normal form z with
        # letters in (j, i], so u_i * y = u_j * (z * y'): the rows of z's
        # letters, highest first, applied to y' < y, all read from rows
        # already filled.  z comes from one collection of the pair (i, j).
        k = self.k
        rows = []
        for i in range(k):
            bit = 1 << i
            tails = []
            for j in range(i):
                z = wordops.collect_mul(bit, 1 << j, k, self._comm,
                                        self.check_measure) ^ (1 << j)
                tails.append([a for a in range(i, j, -1) if z >> a & 1])
            row = [0] * self.order
            rows.append(row)
            for y in range(self.order):
                low = y & -y
                if low == 0 or low >= bit:
                    row[y] = y ^ bit
                    continue
                v = y ^ low
                for a in tails[low.bit_length() - 1]:
                    v = rows[a][v]
                row[y] = low | v
        table = [list(range(self.order))]
        for x in range(1, self.order):
            low = (x & -x).bit_length() - 1
            row = rows[low]
            table.append([row[v] for v in table[x ^ (1 << low)]])
        return table

    def __repr__(self) -> str:
        return f"U({self.w!r} via {self.gallery.type_word!r}, order {self.order})"

    # -- group operations -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        if self._table is not None:
            return self._table[x][y]
        return wordops.collect_mul(x, y, self.k, self._comm, self.check_measure)

    def inv(self, x: int) -> int:
        return wordops.collect_inv(x, self.k, self._comm, self.check_measure)

    def elements(self) -> range:
        return range(self.order)

    def generator(self, i: int) -> int:
        return 1 << i

    def root_mask(self, root: Root) -> int:
        return 1 << self._pos[root]

    def word_of(self, x: int) -> tuple[Root, ...]:
        return tuple(self.roots[i] for i in range(self.k) if x >> i & 1)

    def root_product(self, roots) -> int:
        """The product of the root generators at roots, left to right."""
        acc = self.identity
        for root in roots:
            acc = self.mul(acc, self.root_mask(root))
        return acc

    # -- certification ------------------------------------------------------

    def left_perm(self, i: int) -> list:
        g = 1 << i
        return [self.mul(g, x) for x in range(self.order)]

    def _relations(self, galleries) -> set:
        rels = set()
        for h in galleries:
            hroots = self.rsys.inversion_sequence(h)
            hpos = [self._pos[root] for root in hroots]
            for a in range(self.k):
                for b in range(a + 1, self.k):
                    mids = self.blueprint.value(h, hroots[a], hroots[b])
                    rels.add((hpos[a], hpos[b],
                              tuple(self._pos[m] for m in mids)))
        return rels

    def certify_order(self, all_galleries: bool = True) -> int:
        """Check every defining relation on the left-regular permutations.

        Returns the number of relations checked; raises BlueprintError on
        any failure.  With all_galleries the presentation quantifier over
        Min(w) is honored in full.
        """
        perms = [self.left_perm(i) for i in range(self.k)]
        n = self.order
        for i, p in enumerate(perms):
            if any(p[p[x]] != x for x in range(n)):
                raise BlueprintError(f"generator {i} is not an involution")
        galleries = (self.ctx.min_galleries(self.w) if all_galleries
                     else (self.gallery,))
        rels = self._relations(galleries)
        for a, b, mids in rels:
            pa, pb = perms[a], perms[b]
            for x in range(n):
                lhs = pa[pb[pa[pb[x]]]]
                rhs = x
                for m in reversed(mids):
                    rhs = perms[m][rhs]
                if lhs != rhs:
                    raise BlueprintError(
                        f"relation [u_{a}, u_{b}] = {mids} fails in U_{self.w}")
        return len(rels)

    def export_table(self) -> str:
        lines = [f"group w={self.w} gallery={self.gallery.type_word} "
                 f"order={self.order}"]
        for x in range(self.order):
            lines.append(" ".join(str(self.mul(x, y)) for y in range(self.order)))
        return "\n".join(lines) + "\n"


def subgroup(ambient: BlueprintGroup, gen_masks, name: str = "") -> Subgroup:
    return Subgroup(ambient, closure_words(ambient.mul, ambient.identity,
                                           tuple(gen_masks)), name)


class GroupMono:
    """A verified injective homomorphism between blueprint-style groups."""

    def __init__(self, source, target, images: dict, verify: bool = True):
        self.source = source
        self.target = target
        self.images = images
        if verify:
            self._verify()

    def _verify(self) -> None:
        src = list(self.source.elements())
        img = {self.images[x] for x in src}
        if len(img) != len(src):
            raise BlueprintError("map is not injective")
        for x in src:
            for y in src:
                lhs = self.images[self.source.mul(x, y)]
                rhs = self.target.mul(self.images[x], self.images[y])
                if lhs != rhs:
                    raise BlueprintError("map is not a homomorphism")

    def __call__(self, x):
        return self.images[x]


class GroupCache:
    """Shared builder for the blueprint groups and V-subgroups of one context.

    With check_measure, the termination measure is checked on every
    collection the groups make: the pair products their generator
    rows are built from, inverses, and products above TABLE_CAP.
    """

    def __init__(self, ctx: Coxeter, rsys: RootSystem | None = None,
                 check_measure: bool = False):
        self.ctx = ctx
        self.rsys = rsys or RootSystem(ctx)
        self.blueprint = KacMoodyBlueprint(self.rsys)
        self.check_measure = check_measure
        self._groups: dict[str, BlueprintGroup] = {}

    def group(self, w: str, gallery: Gallery | None = None) -> BlueprintGroup:
        w = self.ctx.normalize(w)
        if gallery is None:
            got = self._groups.get(w)
            if got is None:
                got = BlueprintGroup(self.ctx, self.rsys,
                                     Gallery(min(self.ctx.reduced_words(w))),
                                     self.blueprint, self.check_measure)
                self._groups[w] = got
            return got
        return BlueprintGroup(self.ctx, self.rsys, gallery, self.blueprint,
                              self.check_measure)

    def phi(self, w: str) -> tuple[Root, ...]:
        """Phi(w): inversion set along the canonical gallery."""
        return self.group(w).roots

    def inclusion(self, w: str, target_w: str) -> GroupMono:
        """Natural inclusion U_w -> U_{w'} for w a prefix of w'."""
        ctx = self.ctx
        w = ctx.normalize(w)
        target_w = ctx.normalize(target_w)
        if not ctx.prefix_leq(w, target_w):
            raise ValueError(f"{w!r} is not a prefix of {target_w!r}")
        src = self.group(w)
        dst = self.group(target_w)
        images = {x: dst.root_product(src.word_of(x)) for x in src.elements()}
        return GroupMono(src, dst, images)

    def v_subgroup(self, gate: str, types) -> Subgroup:
        """V at the rank-2 residue with this gate: generated by the root
        generators of Phi(gate*u) and Phi(gate*v) inside U_{gate*r_J}."""
        ctx = self.ctx
        u, v = sorted(types)
        gate = ctx.normalize(gate)
        for x in (u, v):
            if len(ctx.mult(gate, x)) != len(gate) + 1:
                raise ValueError(f"{gate!r} is not the gate of a {u}{v}-residue")
        ambient = self.group(ctx.mult(gate, ctx.longest({u, v})))
        return subgroup(ambient, [ambient.root_mask(root)
                                  for root in self.v_roots(gate, types)],
                        f"V[{gate}|{u}{v}]")

    def v_roots(self, gate: str, types) -> frozenset:
        """Phi(gate*u) | Phi(gate*v), the generating roots of V at this gate."""
        u, v = sorted(types)
        return (frozenset(self.phi(self.ctx.mult(gate, u)))
                | frozenset(self.phi(self.ctx.mult(gate, v))))


def gallery_independence(cache: GroupCache, w: str) -> bool:
    """All minimal galleries of w present isomorphic collection groups via
    the generator-identity map, checked as a GroupMono into the canonical
    gallery's group."""
    ctx = cache.ctx
    w = ctx.normalize(w)
    base = cache.group(w)
    for h in ctx.min_galleries(w):
        if h.type_word == base.gallery.type_word:
            continue
        other = cache.group(w, h)
        images = {x: base.root_product(other.word_of(x))
                  for x in other.elements()}
        try:
            GroupMono(other, base, images)
        except BlueprintError:
            return False
    return True
