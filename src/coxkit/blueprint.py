"""Commutator blueprints and the finite 2-groups they present.

A group U_w is generated by involutions u_1 .. u_k, one per root crossed
by a fixed minimal gallery of w, with [u_i, u_j] prescribed by the
blueprint as a product of generators strictly between i and j.  Elements
are bitmasks: bit i set means u_{i+1} occurs in the normal form
u_1^e1 ... u_k^ek.  Multiplication is collection from the left (see
coxkit.wordops), read off the certified generator rows u_i * y: since
x = u_low * x' with low the lowest set bit of x is already a normal form,
x * y is the rows of x's letters applied to y, highest letter first, and
x^-1 is the same rows applied to the identity, lowest letter first
(collection from the left as a permutation action; Leedham-Green &
Soicher 1990).  Up to TABLE_CAP = 256 elements a row is a byte
permutation of all 256 points, the identity past the order (the padding
lemma below), so composing two rows is one bytes.translate; larger
groups keep list rows.  Up to TABLE_CAP the product table is composed
from the rows on first use, each table row one translate of another,
and a product is one table read.  Collection itself grows the rows when
the group is built, one pair product u_k * u_j per new generator
(below).

Every group is grown from its prefix: for the gallery h = h'x, U_w' is
the group along h', with w' the element of h'.  Canonical galleries (the
least reduced words) are prefix-closed, so a canonical group grows from
the canonical group of w'.  Two growth lemmas (Sims, Computation with
Finitely Presented Groups, 1994, ch. 9, the series U_[1,i]):

Rows.  The roots of h' are the first k-1 roots of h and their insertions
are the same: M_{a,b} depends on the pair alone, and h' crosses its
letters in the same order as h.  The table is laid out triangularly,
pair i < j at entry j(j-1)/2 + i, so the insertion table of h is that
of h' plus one column, the k-1 pairs of the new root (insertion_column).
Collecting a word in the first k-1 letters inserts only letters strictly
between, so it never touches bit k-1.  Hence for i < k-1 row i of U_w
is row i of U_w' on [0, 2^(k-1)), and the same row with bit k-1 set on
the upper half.  Only the new row u_k * y is computed: on the
lower half by a recurrence over the k-1 pair products u_k * u_j, and on
the upper half, where y = x * u_k, by toggling bit k-1 of u_k * x.  A
word in the old rows acts on the upper half as it does on the lower
half, so an identity in the first k-1 generators holds on U_w exactly
when it holds on U_w'.

Harvest.  Every minimal gallery of w is g s, with s a right descent of w
and g a minimal gallery of ws; its last root is (ws)alpha_s whatever g
is, and the M-letters of a pair are crossed in the same order by every
reduced gallery.  So the relations of all minimal galleries of w are
the union, over the right descents s, of those of ws and the pairs
(a, (ws)alpha_s) of the one gallery canon(ws) s (KacMoodyBlueprint.harvest,
with the proof).  They contain the relations of w'.

Order theorem: collection terminates and only uses relation consequences,
so |U_w| <= 2^k.  The rows are the left-regular action of the u_i, and
the orbit of the identity under them is all 2^k normal forms.  Once the
rows are involutions and every relation of every minimal gallery of w
holds on them, they generate a quotient of U_w of order >= 2^k, so
|U_w| = 2^k (certify_order).  Along the prefix tree the certificate of
U_w is that of U_w', rows checked grown from it, the new row an
involution, and the relations of w that w' does not have holding.
GroupCache.group certifies each group as it builds it, from a prefix it
certified before, and keeps only the groups that pass: every group a
cache hands out is certified.

Padding.  A byte row has 256 entries and the group's points are the y <
order; the entries past order are the padding, built as the identity.
Every row is checked either grown from the prefix over all 256 entries,
padding included, or to be an involution of all 256 points that fixes
the padding.  An involution is a bijection, so one that fixes every
point past order maps the points below order onto themselves.  So no
value at a y < order ever reaches the padding, and an entry >= order
below it fails the involution check, while a relation holds on all 256
points exactly when it holds on the group, both sides being the
identity on the padding.  List rows have no padding; their new row is
checked in range before it is composed.

Corollary (von Dyck; Sims, Computation with Finitely Presented Groups,
1994, ch. 2).  If every M-letter of a minimal gallery h lies strictly
between its pair in h's crossing order, h's collection group U_h has
order <= 2^k; if h's relations also hold on the rows, the generator-
identity map U_h -> U_w is a homomorphism, onto because its images
generate U_w and injective because |U_h| <= |U_w| (gallery_independence).

Embedding (von Dyck, as above).  Let Phi(w) lie inside Phi(a).  The
root-label map U_w -> U_a, the generator of U_w at each root to the
generator of U_a at that root, is then an isomorphism onto the subgroup
of U_a generated by the root generators at Phi(w), once that subgroup
has order 2^l(w) (Builder.image_of_u):
1. Phi(w) inside Phi(a) makes w a prefix of a, a = wv with l(a) = l(w) +
   l(v) (Bjorner & Brenti, GTM 231, 3.1.3), so every minimal gallery of w
   extends to one of a and harvest(w) lies inside harvest(a).  The
   inclusion is checked rather than assumed.
2. U_a's certificate holds every relation of harvest(a) on its rows, and
   its rows are involutions.  So the group presented by involutions at
   Phi(w) and the relations harvest(w) maps by root labels onto that
   subgroup.
3. The presented group has order <= 2^l(w): its relations include those
   of the canonical gallery of w, whose insertion columns (built with
   U_w) make collection terminate.  The image has order 2^l(w), so the
   presented group maps isomorphically onto it; U_w, of order 2^l(w) with
   harvest(w) holding on its rows, is that presented group too.
"""

from __future__ import annotations

from coxkit import wordops
from coxkit import zroot2 as z2
from coxkit.coxeter import GENS, Coxeter
from coxkit.roots import Root, RootSystem, RootSystemError, root_system
from coxkit.treeprod import Subgroup

TABLE_CAP = 256
# the identity byte row; bytes.translate takes 256-entry tables, so
# TABLE_CAP is also the largest order with byte rows
IDENTITY = bytes(range(TABLE_CAP))

# B'(a, b) = 2cos(135 degrees) of two roots whose open interval holds two
# roots (KacMoodyBlueprint.value)
OBTUSE = z2.neg(z2.SQRT2)
# B'(a, b) at 90, 45 and 135 degrees: the values a pair of finite order takes
FINITE_FORMS = (z2.ZERO, z2.SQRT2, z2.neg(z2.SQRT2))


class BlueprintError(ValueError):
    """The family fails a blueprint axiom (CB1-CB3) or an order constraint."""


class KacMoodyBlueprint:
    """The locally Weyl-invariant blueprint: M = (a,b) when o(r_a r_b) is
    finite and the open interval (a,b) holds exactly two roots, which in
    type (4,4,4) is when B'(a, b) = -sqrt(2); else empty."""

    def __init__(self, rsys: RootSystem):
        self.rsys = rsys
        self._harvests: dict[str, frozenset] = {}

    def value(self, g: str, a: Root, b: Root) -> tuple[Root, ...]:
        """M^G_{a,b}, ordered by the gallery's crossing order.

        Closed form from the dihedral root subsystem (Abramenko & Brown,
        Buildings, GTM 248, 8.5; M. Dyer, Reflection subgroups of Coxeter
        systems, J. Algebra 135, 1990).  Let a != b with o(r_a r_b)
        finite, that is B'(a, b)^2 < 4.  The form is then positive
        definite on span(a, b), so the roots of Phi in that plane are
        those of the finite dihedral reflection subgroup they generate.
        Every finite dihedral subgroup of W lies in a conjugate of a rank-2
        standard parabolic, of order 8, so the plane holds at most 8
        roots, 45 degrees apart, and B' = 2cos(angle) is 0 or +-sqrt(2):
        - B' = 0 (90 degrees): at most one root lies strictly between a
          and b;
        - B' = sqrt(2) (45 degrees): none does;
        - B' = -sqrt(2) (135 degrees): the plane holds all 8 roots, and
          the two strictly between are r_a(b) = b + sqrt(2)*a and
          r_b(a) = a + sqrt(2)*b.
        An inversion set holds every root that is a nonnegative combination
        of two of its roots, so for a, b in Phi(G) both lie in Phi(G);
        RootSystemError if either does not.  Any other value with B'^2 < 4
        contradicts the premise and raises RootSystemError; B'^2 >= 4
        (infinite order) gives ()."""
        rsys = self.rsys
        va, vb = rsys.vector(a), rsys.vector(b)
        c = z2.form(va, vb)
        if c != OBTUSE:
            if c not in FINITE_FORMS and z2.sign(z2.sub(z2.mul(c, c), (4, 0))) < 0:
                raise RootSystemError(f"impossible form value {c} in type (4,4,4)")
            return ()
        want = (z2.vsub(vb, z2.vscale(c, va)), z2.vsub(va, z2.vscale(c, vb)))
        mids = tuple(x for x in rsys.inversion_sequence(g) if rsys.vector(x) in want)
        if len(mids) != 2:
            raise RootSystemError(
                f"r_a(b) or r_b(a) of ({a!r}, {b!r}) is missing from Phi({g!r})")
        return mids

    def harvest(self, w: str) -> frozenset:
        """(a, b, M^h_{a,b}) for every minimal gallery h of w and every root
        a crossed before b by h: the relation [u_a, u_b] = product of
        M^h_{a,b}.  By the module's harvest lemma it is, over the right
        descents s of w, the relations of ws and the pairs (a, beta_s) of
        the one gallery h_s = canon(ws) s, for a in Phi(ws) and beta_s =
        (ws)alpha_s its last root; built once per element.

        Proof.  A minimal gallery of w ends with a right descent s of w,
        and its part before s is a minimal gallery g of ws, so it is g s.
        Its last root is (ws)alpha_s = beta_s whatever g is, and the roots
        before it are Phi(ws) = Phi(w) minus beta_s, the inversion set
        being the same along every minimal gallery.  So the relations of
        g s are those of g, whose union over g is harvest(ws), and the
        pairs (a, beta_s), a in Phi(ws).  The value of such a pair depends
        on the pair alone (value) except for the order of its two
        M-letters, and that order is the same along every reduced gallery
        that crosses a before b: the roots of the dihedral reflection
        subgroup of r_a and r_b are crossed monotonically (M. Dyer, Hecke
        algebras and shellings of Bruhat intervals, Compositio Math. 89,
        1993; Bjorner & Brenti, GTM 231, 5.2), here in the order a,
        r_a(b), r_b(a), b.  So h_s gives the value of every g s."""
        got = self._harvests.get(w)
        if got is None:
            rsys = self.rsys
            ctx = rsys.ctx
            rels = set()
            for s in GENS:
                ws = ctx.mult_gen(w, s)
                if len(ws) > len(w):
                    continue
                rels |= self.harvest(ws)
                h = ws + s
                *before, last = rsys.inversion_sequence(h)
                rels.update((a, last, self.value(h, a, last)) for a in before)
            got = self._harvests[w] = frozenset(rels)
        return got


def insertion_column(blueprint: KacMoodyBlueprint, gallery: str) -> bytes:
    """The collection data of the last root of a nonempty gallery: for
    each pair (i, k-1), i < k-1 in its crossing order, the number and
    positions of the letters of M_{i,k-1}, three bytes at 3*i.  Appended
    to the table of the gallery without its last letter it gives the
    gallery's table, the pair i < j at entry j(j-1)/2 + i (the module's
    rows lemma).

    BlueprintError unless each M-value has at most two letters, the room
    a pair has in the table, and each letter lies strictly between i and
    k-1 (a root the gallery does not cross has position -1), which makes
    collection terminate, so that the group the gallery presents has
    order <= 2^k.  The prefix's columns passed the same checks when they
    were built."""
    roots = blueprint.rsys.inversion_sequence(gallery)
    pos = {root: i for i, root in enumerate(roots)}
    j = len(roots) - 1
    b = roots[j]
    column = bytearray(3 * j)
    for i in range(j):
        mids = blueprint.value(gallery, roots[i], b)
        if not mids:
            continue
        if len(mids) > 2:
            raise BlueprintError(
                f"M-value of the pair ({i}, {j}) has {len(mids)} letters, "
                "more than the two the table holds")
        mpos = [pos.get(m, -1) for m in mids]
        if any(not (i < p < j) for p in mpos):
            raise BlueprintError(
                f"M-letter positions {mpos} not strictly between {i} and {j}")
        column[3 * i] = len(mpos)
        column[3 * i + 1:3 * i + 1 + len(mpos)] = mpos
    return bytes(column)


def _identity_row(order: int):
    """The identity row of a group of this order: IDENTITY, padding
    included, up to TABLE_CAP, else a list."""
    return IDENTITY if order <= TABLE_CAP else list(range(order))


def _then(q, p):
    """The row y -> p[q[y]], q followed by p: one translate for byte
    rows, a list for list rows."""
    return [p[v] for v in q] if type(q) is list else q.translate(p)


class BlueprintGroup:
    """The collection group U_w for one gallery (its type word) and one
    blueprint, grown from prefix, the group along the gallery without its
    last letter (None for the empty gallery)."""

    def __init__(self, ctx: Coxeter, rsys: RootSystem, gallery: str,
                 blueprint: KacMoodyBlueprint, prefix: BlueprintGroup | None):
        self.gallery = gallery
        self.blueprint = blueprint
        self.prefix = prefix
        self.w = ctx.normalize(gallery)
        self.roots = rsys.inversion_sequence(gallery)
        self.k = len(self.roots)
        self.order = 1 << self.k
        self.identity = 0
        # the root generators, which generate U_w
        self.gens = tuple(1 << i for i in range(self.k))
        self._pos = {root: i for i, root in enumerate(self.roots)}
        self._comm = prefix._comm + insertion_column(blueprint, gallery) \
            if prefix else b""
        # the generator rows: rows[i][y] = u_i * y for every normal form y,
        # up to TABLE_CAP bytearrays of 256 entries, the identity past
        # order (the module's padding lemma), and lists above.  The
        # prefix's rows doubled (the module's rows lemma), then the new row
        # u_top * y.  On the lower half, with j the lowest letter of y, y =
        # u_j * y' for the normal form y' = y minus u_j, so u_top * y = p *
        # y' for p the normal form of the pair product u_top * u_j, one
        # collection: the rows of p's letters, which lie in [j, top],
        # highest first, applied to y'.  y' is 0 or has its lowest letter
        # above j, so the row is filled one class (the y of lowest letter
        # j) at a time, from high j to low, and the first of p's rows, the
        # new row itself, is read at a y' filled before: a class's y' are a
        # strided slice of the identity, composed with p's rows and stored
        # at a strided slice of the row.  On the upper half y = x * u_top,
        # and a normal form times u_top toggles the top bit.
        self.rows = rows = []
        if prefix is not None:
            k, order = self.k, self.order
            top = 1 << (k - 1)
            ident = _identity_row(order)
            mutable = bytearray if ident is IDENTITY else list
            # v ^ top below order, which is v | top on the prefix's values
            flip = ident[top:order] + ident[:top] + ident[order:]
            for row in prefix.rows:
                old = mutable(row[:top])
                rows.append(old + _then(old, flip) + ident[order:])
            new = mutable(ident)
            new[0] = top
            rows.append(new)
            for j in reversed(range(k - 1)):
                pair = wordops.collect_mul(top, 1 << j, k, self._comm)
                step = 2 << j
                v = ident[:top:step]
                for a in range(k - 1, j - 1, -1):
                    if pair >> a & 1:
                        v = _then(v, rows[a])
                new[1 << j:top:step] = v
            new[top:order] = _then(new[:top], flip)
        # the product table, composed from the rows by the first mul up to
        # TABLE_CAP
        self._table = None

    def __repr__(self) -> str:
        return f"U({self.w!r} via {self.gallery!r}, order {self.order})"

    # -- group operations -------------------------------------------------

    def mul(self, x: int, y: int) -> int:
        """x * y: a table read up to TABLE_CAP, the table composed from the
        rows on first use, else the rows of x's letters applied to y,
        highest letter first."""
        table = self._table
        if table is None:
            if self.order > TABLE_CAP:
                rows = self.rows
                for i in reversed(range(x.bit_length())):
                    if x >> i & 1:
                        y = rows[i][y]
                return y
            table = self._compose_table()
        return table[x][y]

    def _compose_table(self) -> list:
        """The product table, row z the rows of z's letters composed,
        highest letter first; kept for every later product."""
        rows = self.rows
        table = [IDENTITY[:self.order]]
        for z in range(1, self.order):
            low = z & -z
            table.append(table[z ^ low].translate(rows[low.bit_length() - 1]))
        self._table = table
        return table

    def inv(self, x: int) -> int:
        """x^-1: the rows of x's letters applied to the identity, lowest
        letter first."""
        rows = self.rows
        y = self.identity
        for i in range(x.bit_length()):
            if x >> i & 1:
                y = rows[i][y]
        return y

    def elements(self) -> range:
        return range(self.order)

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
        """The module's order theorem along the prefix tree, the prefix
        certified (GroupCache.group certifies each group as it builds it,
        the prefix first): the rows are grown from the prefix's rows,
        padding included, the new generator row is an involution (of all
        256 points, fixing the padding, for a byte row; of points in range
        for a list row), and every relation of every minimal gallery of w
        that the prefix does not have holds on the rows.  Returns the
        number of relations of w; BlueprintError on any failure."""
        rows = self.rows
        order = self.order
        ident = _identity_row(order)
        rels = self.blueprint.harvest(self.w)
        new = rels
        prefix = self.prefix
        if prefix is not None:
            new = rels - self.blueprint.harvest(prefix.w)
            half = order >> 1
            flip = ident[half:order] + ident[:half] + ident[order:]
            for i, old in enumerate(prefix.rows):
                low = type(ident)(old[:half])
                if rows[i] != low + _then(low, flip) + ident[order:]:
                    raise BlueprintError(
                        f"row {i} of U_{self.w} is not grown from U_{prefix.w}")
            top = rows[-1]
            if (top[order:] != ident[order:]
                    or order > TABLE_CAP
                    and not all(0 <= y < order for y in top)
                    or _then(top, top) != ident):
                raise BlueprintError(
                    f"generator {self.k - 1} is not an involution in U_{self.w}")
        pos = self._pos
        for a, b, mids in sorted((pos[a], pos[b], tuple(pos[m] for m in mids))
                                 for a, b, mids in new):
            pa, pb = rows[a], rows[b]
            lhs = _then(_then(_then(pb, pa), pb), pa)
            rhs = ident
            for m in reversed(mids):
                rhs = _then(rhs, rows[m])
            if lhs != rhs:
                raise BlueprintError(
                    f"relation [u_{a}, u_{b}] = {mids} fails in U_{self.w}")
        return len(rels)


class GroupCache:
    """Shared builder for the blueprint groups and their root subgroups,
    V included, of one context, over the context's one root system
    (roots.root_system)."""

    def __init__(self, ctx: Coxeter):
        self.ctx = ctx
        self.rsys = root_system(ctx)
        self.blueprint = KacMoodyBlueprint(self.rsys)
        self._groups: dict[str, BlueprintGroup] = {}
        self._subgroups: dict[tuple, Subgroup] = {}

    def group(self, w: str) -> BlueprintGroup:
        """U_w along the canonical gallery, the least reduced word of w,
        which is its canonical form, certified.  Canonical galleries are
        prefix-closed, so each group is grown from the group of its
        gallery without the last letter, which this cache built and
        certified first; the new group's certify_order then completes its
        certificate, and it is memoized only once that passes.
        BlueprintError if it fails, here or at a prefix."""
        w = self.ctx.normalize(w)
        got = self._groups.get(w)
        if got is None:
            prefix = self.group(w[:-1]) if w else None
            got = BlueprintGroup(self.ctx, self.rsys, w, self.blueprint, prefix)
            got.certify_order()
            self._groups[w] = got
        return got

    def phi(self, w: str) -> tuple[Root, ...]:
        """Phi(w): inversion set along the canonical gallery."""
        return self.rsys.inversion_sequence(self.ctx.normalize(w))

    def root_subgroup(self, ambient: BlueprintGroup, roots) -> Subgroup:
        """The subgroup of ambient generated by the root generators at
        roots, its gens in the order of their roots by (refl, positive).
        Memoized by the ambient group and the root set, so each such
        subgroup is closed from its root generators once."""
        roots = frozenset(roots)
        key = (ambient, roots)
        got = self._subgroups.get(key)
        if got is None:
            gens = sorted(roots, key=lambda root: (root.refl, root.positive))
            got = self._subgroups[key] = Subgroup(
                ambient, [ambient.root_mask(root) for root in gens])
        return got

    def v_subgroup(self, gate: str, types) -> Subgroup:
        """V at the rank-2 residue with this gate: generated by the root
        generators of Phi(gate*u) and Phi(gate*v) inside U_{gate*r_J}, the
        memoized root_subgroup; ValueError unless gate is the gate of a
        residue of these types."""
        ctx = self.ctx
        u, v = sorted(types)
        gate = ctx.normalize(gate)
        if any(len(ctx.mult(gate, x)) != len(gate) + 1 for x in (u, v)):
            raise ValueError(f"{gate!r} is not the gate of a {u}{v}-residue")
        ambient = self.group(ctx.mult(gate, ctx.longest({u, v})))
        return self.root_subgroup(ambient, self.v_roots(gate, types))

    def v_roots(self, gate: str, types) -> frozenset:
        """Phi(gate*u) | Phi(gate*v), the generating roots of V at this gate."""
        u, v = sorted(types)
        return (frozenset(self.phi(self.ctx.mult(gate, u)))
                | frozenset(self.phi(self.ctx.mult(gate, v))))


def gallery_independence(cache: GroupCache, w: str) -> bool:
    """Every minimal gallery of w presents U_w through the generator-identity
    map (the module's von Dyck corollary): each gallery's M-letters lie
    strictly between their pair in its crossing order, checked one column
    per prefix of the gallery, and the relations of every minimal gallery
    hold on the generator rows of U_w, which the cache certified when it
    built the group.  The group's own gallery passed the column check when
    its table was built."""
    try:
        grp = cache.group(w)
        for h in cache.ctx.min_galleries(grp.w):
            if h != grp.gallery:
                for n in range(1, len(h) + 1):
                    insertion_column(cache.blueprint, h[:n])
    except BlueprintError:
        return False
    return True
