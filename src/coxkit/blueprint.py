"""Commutator blueprints and the finite 2-groups they present.

A group U_w is generated by involutions u_1 .. u_k, one per root crossed
by a fixed minimal gallery of w, with [u_i, u_j] prescribed by the
blueprint as a product of generators strictly between i and j.  Elements
are bitmasks: bit i set means u_{i+1} occurs in the normal form
u_1^e1 ... u_k^ek.  Multiplication is collection from the left (see
coxkit.wordops).  The generator rows u_i * y follow by a recurrence over
the pair products u_i * u_j, one collection per pair j < i.  Up to
TABLE_CAP elements the product table is composed from them on the first
product, since x = u_low * x' with low the lowest set bit of x is already
a normal form (collection from the left as a permutation action;
Leedham-Green & Soicher 1990).

Order theorem: collection terminates and only uses relation consequences,
so |U_w| <= 2^k.  The rows are the left-regular action of the u_i, and
the orbit of the identity under them is all 2^k normal forms.  Once the
rows are involutions and every relation of every minimal gallery of w
holds on them, they generate a quotient of U_w of order >= 2^k, so
|U_w| = 2^k (certify_order).

Corollary (von Dyck; Sims, Computation with Finitely Presented Groups,
1994, ch. 2).  If every M-letter of a minimal gallery h lies strictly
between its pair in h's crossing order, h's collection group U_h has
order <= 2^k; if h's relations also hold on the rows, the generator-
identity map U_h -> U_w is a homomorphism, onto because its images
generate U_w and injective because |U_h| <= |U_w| (gallery_independence).
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

    def relations(self, galleries) -> set:
        """(a, b, M^h_{a,b}) for every gallery h and every root a crossed
        before b by h: the relation [u_a, u_b] = product of M^h_{a,b}."""
        rels = set()
        for h in galleries:
            roots = self.rsys.inversion_sequence(h)
            for i, a in enumerate(roots):
                for b in roots[i + 1:]:
                    rels.add((a, b, self.value(h, a, b)))
        return rels


def insertion_table(blueprint: KacMoodyBlueprint, gallery: Gallery) -> bytes:
    """The collection data of the gallery: for i < j in its crossing order,
    the number and positions of the letters of M_{i,j}.  BlueprintError
    unless each lies strictly between i and j, which makes collection
    terminate, so that the group the gallery presents has order <= 2^k."""
    roots = blueprint.rsys.inversion_sequence(gallery)
    pos = {root: i for i, root in enumerate(roots)}
    k = len(roots)
    comm = bytearray(3 * k * k)
    for a, b, mids in blueprint.relations((gallery,)):
        i, j = pos[a], pos[b]
        mpos = [pos[m] for m in mids]
        if any(not (i < p < j) for p in mpos):
            raise BlueprintError(
                f"M-letter positions {mpos} not strictly between {i} and {j}")
        base = (i * k + j) * 3
        comm[base] = len(mpos)
        for tix, p in enumerate(mpos):
            comm[base + 1 + tix] = p
    return bytes(comm)


class _FilledOnFirstUse:
    """A method read as an attribute: the first read stores its value on
    the instance by plain assignment, and later reads find that instance
    attribute.  Deleting it recomputes the value on the next read.

    Later reads are plain instance attribute loads, so the table read in
    BlueprintGroup.mul needs no branch.  functools.cached_property writes
    through the instance __dict__, which on CPython 3.11 turns every
    later attribute read on that instance into a dict lookup, and a
    __getattr__ hook keeps CPython 3.11 from specializing any attribute
    read on the class's instances."""

    def __init__(self, compose):
        self.compose = compose
        self.name = compose.__name__
        self.__doc__ = compose.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = self.compose(obj)
        setattr(obj, self.name, value)
        return value


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
        self._comm = insertion_table(blueprint, gallery)
        # (rows, relation count) of the last successful certify_order
        self._certified = None

    @_FilledOnFirstUse
    def rows(self) -> list:
        """The generator rows: rows[i][y] = u_i * y for every normal form y."""
        # filled in increasing i and y.  With j the lowest letter of y
        # below i, y = u_j * y' and u_i * u_j = u_j * z for a normal form z
        # with letters in (j, i], so u_i * y = u_j * (z * y'): the rows of
        # z's letters, highest first, applied to y' < y, all read from rows
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
        return rows

    @_FilledOnFirstUse
    def _table(self) -> list | None:
        """The product table, composed from the rows; None above TABLE_CAP."""
        if self.order > TABLE_CAP:
            return None
        rows = self.rows
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
        table = self._table
        if table is not None:
            return table[x][y]
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

    def certify_order(self) -> int:
        """The module's order theorem: the generator rows are involutions
        and every relation of every minimal gallery of w holds on them.
        Returns the number of relations; BlueprintError on any failure.
        A success is kept with the rows it checked and answered again
        while those rows stand."""
        rows = self.rows
        if self._certified is not None and self._certified[0] is rows:
            return self._certified[1]
        for i, row in enumerate(rows):
            if any(row[y] != x for x, y in enumerate(row)):
                raise BlueprintError(f"generator {i} is not an involution")
        pos = self._pos
        rels = {(pos[a], pos[b], tuple(pos[m] for m in mids)) for a, b, mids
                in self.blueprint.relations(self.ctx.min_galleries(self.w))}
        identity = list(range(self.order))
        for a, b, mids in rels:
            pa, pb = rows[a], rows[b]
            lhs = [pa[pb[pa[y]]] for y in pb]
            rhs = identity
            for m in reversed(mids):
                rhs = [rows[m][x] for x in rhs]
            if lhs != rhs:
                raise BlueprintError(
                    f"relation [u_{a}, u_{b}] = {mids} fails in U_{self.w}")
        self._certified = (rows, len(rels))
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

    def __init__(self, source, target, images: dict):
        self.source = source
        self.target = target
        self.images = images
        src = list(source.elements())
        if len({images[x] for x in src}) != len(src):
            raise BlueprintError("map is not injective")
        for x in src:
            for y in src:
                lhs = images[source.mul(x, y)]
                rhs = target.mul(images[x], images[y])
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
        """U_w along gallery; without one, the memoized group along the
        canonical gallery, the least reduced word of w."""
        if gallery is not None:
            return BlueprintGroup(self.ctx, self.rsys, gallery, self.blueprint,
                                  self.check_measure)
        w = self.ctx.normalize(w)
        got = self._groups.get(w)
        if got is None:
            got = self._groups[w] = self.group(
                w, Gallery(min(self.ctx.reduced_words(w))))
        return got

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
    """Every minimal gallery of w presents U_w through the generator-identity
    map (the module's von Dyck corollary): each gallery's M-letters lie
    strictly between their pair in its crossing order, and the relations
    of every minimal gallery hold on the generator rows of U_w."""
    grp = cache.group(w)
    try:
        for h in cache.ctx.min_galleries(grp.w):
            insertion_table(cache.blueprint, h)
        grp.certify_order()
    except BlueprintError:
        return False
    return True
