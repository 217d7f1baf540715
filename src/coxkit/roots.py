"""Roots of the (4,4,4) system as half-spaces, with exact pair geometry.

A Coxeter context has one root system, ``root_system(ctx)``, built on first
use and kept on the context; every sweep, blueprint group and section-4
certificate of that context reads the same vectors, memos and ball
crossing tables.  Its memo tables only record exact facts (a root's
vector, a gallery's inversion sequence, a ball's crossing bitsets), so
what one caller registers cannot change another caller's answer.

A root is keyed by its wall (the reflection, canonical word) and the side
containing the identity, as a tuple, so it is its own hash key.  Each
root also carries an exact vector in the geometric representation,
registered when root_from, act or opposite first makes the root (vector
refuses a root the system never made); the vector of a positive root has
nonnegative coordinates.  The scaled form B' = 2B from
:mod:`coxkit.zroot2` decides everything: |B'| < 2 means the walls cross
(finite dihedral order), B' >= 2 means nested half-spaces, B' <= -2
means disjoint-or-covering.  For non-crossing walls the orientation is
the sign of B'(b, p) at the time-like point p = 2*tau - B'(tau, a)*a on
the wall of a, tau = (-1, -1, -1); it has a closed form.  Summing the
Gram matrix, B'(x, tau) = (2*sqrt(2) - 2)*sum(x), sum(x) the sum of x's
coordinates, so with c = B'(a, b) the value B'(b, p) is
(2*sqrt(2) - 2)*(2*sum(b) - sum(a)*c), and 2*sqrt(2) - 2 > 0: the sign is
that of 2*sum(b) - sum(a)*c, exact in Z[sqrt(2)].

A gallery is its type word, a reduced word (coxkit.coxeter).  Its
inversion sequence grows from the prefix: that of g[:-1], then the one
new root g[:-1] alpha_(last letter), by the inversion-set step below.

Membership on a ball comes from inversion sets (Bjorner & Brenti, GTM 231,
1.3-1.4 and 4.2): walking ball(R) in order, N(yg) = N(y) + {wall of y
alpha_g} whenever l(yg) = l(y) + 1, with a wall named by its positive root
vector, so no product ever leaves the ball.  Transposed, this gives one
bitset per wall of the elements that cross it, and ``halfspace(a, R)`` is
the ball minus that set (a positive) or the set itself (a negative); bit i
is ball(R)[i].  Each radius's table is built once per root system, from
its own walk of the ball.  For a single query, ``member`` uses the length
test: for positive alpha, w lies in alpha iff l(r_alpha * w) > l(w).  The
vector test (w^-1 alpha positive, in tests/test_roots.py) is the
independent oracle.
"""

from __future__ import annotations

from typing import NamedTuple

from coxkit import zroot2 as z2
from coxkit.coxeter import Coxeter

_IDX = {"r": 0, "s": 1, "t": 2}


def ball_members(ball: tuple[str, ...], mask: int):
    """The elements of ball whose bits are set in mask, in ball order."""
    while mask:
        low = mask & -mask
        yield ball[low.bit_length() - 1]
        mask ^= low


class Root(NamedTuple):
    """A root: its wall, named by the reflection's canonical word, and
    whether it is the side containing the identity.

    A tuple, so hashing and equality run in C for every dict and set
    keyed by roots.  It equals the plain tuple (refl, positive); no dict
    or set in coxkit mixes Root keys with other 2-tuples, and the (str,
    str) keys of root_from's memo never equal a Root, whose second field
    is a bool."""

    refl: str
    positive: bool

    def __repr__(self) -> str:
        sign = "+" if self.positive else "-"
        return f"Root({sign}{self.refl})"


class PairClass(NamedTuple):
    """The geometry of a pair of distinct roots; a tuple, like Root."""

    kind: str              # "opposite" | "finite" | "nested" | "anti_nested"
    order: int | None = None     # o(r_a r_b) when finite
    contained: Root | None = None    # nested: contained half-space
    container: Root | None = None
    detail: str | None = None    # anti_nested: "disjoint" or "cover"


class RootSystemError(RuntimeError):
    """The exact root geometry contradicted itself."""


class RootSystem:
    def __init__(self, ctx: Coxeter):
        self.ctx = ctx
        self._vectors: dict[Root, z2.Vector] = {}
        self._roots_from: dict[tuple[str, str], Root] = {}
        # inversion sequences by gallery type word, grown from the prefix
        self._inversions: dict[str, tuple[Root, ...]] = {"": ()}
        self._crossed: dict[int, dict[z2.Vector, int]] = {}

    # -- construction ---------------------------------------------------

    def _register(self, root: Root, vec: z2.Vector) -> Root:
        want = 1 if root.positive else -1
        if z2.vector_sign(vec) != want:
            raise RootSystemError(f"vector/side mismatch for {root!r}")
        old = self._vectors.get(root)
        if old is None:
            self._vectors[root] = vec
        elif old != vec:
            raise RootSystemError(f"inconsistent vector for {root!r}")
        return root

    def act_vec(self, u: str, vec: z2.Vector) -> z2.Vector:
        for ch in reversed(u):
            vec = z2.reflect(_IDX[ch], vec)
        return vec

    def root_from(self, v: str, s: str) -> Root:
        """The half-space v*alpha_s (it always contains v).

        The memo is keyed by canonical words only, so a canonical v is
        read before any normalizing, and only a miss normalizes."""
        got = self._roots_from.get((v, s))
        if got is None:
            ctx = self.ctx
            v = ctx.normalize(v)
            got = self._roots_from.get((v, s))
            if got is None:
                refl = ctx.mult(v, s, ctx.inv(v))
                positive = len(ctx.mult(v, s)) > len(v)
                vec = self.act_vec(v, z2.basis(_IDX[s]))
                got = self._register(Root(refl, positive), vec)
                self._roots_from[v, s] = got
        return got

    def simple(self, s: str) -> Root:
        return self.root_from("", s)

    def opposite(self, a: Root) -> Root:
        out = Root(a.refl, not a.positive)
        if out not in self._vectors:
            self._register(out, z2.vneg(self.vector(a)))
        return out

    def vector(self, a: Root) -> z2.Vector:
        """The vector of a root this system has met (root_from, act,
        opposite); RootSystemError for any other."""
        vec = self._vectors.get(a)
        if vec is None:
            raise RootSystemError(
                f"no vector for {a!r}: this root system never made it")
        return vec

    # -- membership and action -------------------------------------------

    def member(self, w: str, a: Root) -> bool:
        ctx = self.ctx
        up = len(ctx.mult(a.refl, w)) > len(w)
        return up if a.positive else not up

    def _crossings(self, radius: int) -> dict[z2.Vector, int]:
        """Per wall, keyed by its positive root vector, the bitset of the
        elements of ball(radius) whose inversion set contains it; built
        once per radius, so once per context through root_system, each
        from its own walk of the ball's prefix tree.

        The ShortLex forms of the ball are prefix-closed, so each x != 1
        is y*s_k with y = x[:-1] earlier in the ball and l(x) = l(y) + 1;
        then N(x) = N(y) + {the wall of y*alpha_k}, and that root must be
        positive (checked, RootSystemError otherwise).  Every wall of N(x)
        is therefore the new wall of x or of one of its prefixes, and the
        elements crossing a wall are the union of the prefix-tree subtrees
        below the elements whose new wall it is: the subtree bitsets are
        gathered leaves first, then ORed once per element.

        The images x*alpha_j come from y's by the reflection identity
        s_k(alpha_j) = alpha_j + sqrt(2)*alpha_k for j != k and
        s_k(alpha_k) = -alpha_k.  Proof: s_k(v) = v - B'(v, alpha_k)*alpha_k
        with the scaled form B' = 2B, and B'(alpha_j, alpha_k) is 2 for
        j = k and -2*cos(pi/4) = -sqrt(2) for j != k, every m being 4.  By
        linearity x*alpha_j = y*alpha_j + sqrt(2)*(y*alpha_k), and on the
        int pairs sqrt(2)*(a + b*sqrt(2)) = 2b + a*sqrt(2): additions
        only."""
        got = self._crossed.get(radius)
        if got is None:
            ball = self.ctx.ball(radius)
            # index[x] is x's place in the ball; images[i][j] is ball[i] *
            # alpha_j; walls[i] is ball[i]'s new wall, crossed from its
            # prefix ball[parent[i]]
            index = {"": 0}
            images = [tuple(z2.basis(j) for j in range(3))]
            parent = [0]
            walls = [None]
            for x in ball[1:]:
                y, k = index[x[:-1]], _IDX[x[-1]]
                wall = images[y][k]
                if z2.vector_sign(wall) != 1:
                    raise RootSystemError(f"{x!r} crosses a wall with a negative root")
                (a0, b0), (a1, b1), (a2, b2) = wall
                ix = [((c0 + 2 * b0, d0 + a0), (c1 + 2 * b1, d1 + a1),
                       (c2 + 2 * b2, d2 + a2))
                      for (c0, d0), (c1, d1), (c2, d2) in images[y]]
                ix[k] = ((-a0, -b0), (-a1, -b1), (-a2, -b2))
                index[x] = len(images)
                images.append(ix)
                parent.append(y)
                walls.append(wall)
            n = len(ball)
            below = [1 << i for i in range(n)]
            for i in range(n - 1, 0, -1):
                below[parent[i]] |= below[i]
            got = {}
            for i in range(1, n):
                got[walls[i]] = got.get(walls[i], 0) | below[i]
            self._crossed[radius] = got
        return got

    def halfspace(self, a: Root, radius: int) -> int:
        """The elements of ball(radius) in a, as a bitset: bit i is ball[i].

        Exactly ``member``'s predicate; a wall the ball never crosses gives
        the whole ball or nothing."""
        vec = self._vectors.get(a)
        if vec is None:
            vec = self.vector(a)
        crossed = self._crossed.get(radius)
        if crossed is None:
            crossed = self._crossings(radius)
        if not a.positive:
            return crossed.get(z2.vneg(vec), 0)
        full = (1 << len(self.ctx.ball(radius))) - 1
        return full & ~crossed.get(vec, 0)

    def act(self, u: str, a: Root) -> Root:
        ctx = self.ctx
        u = ctx.normalize(u)
        refl = ctx.mult(u, a.refl, ctx.inv(u))
        positive = self.member(ctx.inv(u), a)
        vec = self.act_vec(u, self.vector(a))
        return self._register(Root(refl, positive), vec)

    # -- pair geometry ------------------------------------------------------

    def pair_class(self, a: Root, b: Root) -> PairClass:
        if a == b:
            raise ValueError("pair_class requires distinct roots")
        if a.refl == b.refl:
            return PairClass(kind="opposite")
        va, vb = self.vector(a), self.vector(b)
        c = z2.form(va, vb)
        csq_minus_4 = z2.sub(z2.mul(c, c), (4, 0))
        if z2.sign(csq_minus_4) < 0:
            if c == z2.ZERO:
                return PairClass(kind="finite", order=2)
            if c in ((0, 1), (0, -1)):
                return PairClass(kind="finite", order=4)
            raise RootSystemError(f"impossible form value {c} in type (4,4,4)")
        # B'(b, p) at the wall point p of a, up to the factor 2*sqrt(2) - 2
        # (module docstring): 2*sum(b) - sum(a)*c
        sb0, sb1 = z2.vsum(vb)
        sa_c0, sa_c1 = z2.mul(z2.vsum(va), c)
        side = z2.sign((2 * sb0 - sa_c0, 2 * sb1 - sa_c1))
        if side == 0:
            raise RootSystemError(f"wall point of {a!r} landed on the wall of {b!r}")
        if z2.sign(c) > 0:
            if side > 0:
                return PairClass(kind="nested", contained=a, container=b)
            return PairClass(kind="nested", contained=b, container=a)
        return PairClass(kind="anti_nested",
                         detail="cover" if side > 0 else "disjoint")

    # -- inversion sequences and interval emptiness --------------------------

    def inversion_sequence(self, g: str) -> tuple[Root, ...]:
        """Phi(G) in crossing order for the gallery of type word g: the
        sequence of g[:-1] and the root g[:-1]*alpha_(last letter), by the
        inversion-set step N(yg) = N(y) + {y alpha_g}; memoized per word.
        The new root must be positive and not crossed before
        (RootSystemError otherwise), which by induction covers every root
        of the sequence."""
        roots = self._inversions.get(g)
        if roots is None:
            head = self.inversion_sequence(g[:-1])
            new = self.root_from(g[:-1], g[-1])
            if new in head:
                raise RootSystemError(f"gallery {g!r} crosses a wall twice")
            if not new.positive:
                raise RootSystemError(f"gallery {g!r} has a negative inversion root")
            roots = self._inversions[g] = head + (new,)
        return roots

    def _refutations(self, a: Root, b: Root, c: Root, radius: int) -> int:
        """The elements of ball(radius) that keep c out of the interval
        [a, b]: in a and b but not in c, or in c but in neither."""
        in_a, in_b, in_c = (self.halfspace(x, radius) for x in (a, b, c))
        return in_a & in_b & ~in_c | in_c & ~(in_a | in_b)

    def emptiness_certificate(self, a: Root, b: Root, g: str, radius: int):
        """Exact emptiness certificate for the open interval (a, b) within
        Phi(G).

        (a,b) is contained in Phi(G) by inversion-set closure, so emptiness
        follows if every candidate root of Phi(G) other than a, b is
        refuted by an explicit ball witness.  Returns (True, witnesses) on
        success, (False, unrefuted-candidates) otherwise.
        """
        ball = self.ctx.ball(radius)
        witnesses = {}
        unrefuted = []
        for c in self.inversion_sequence(g):
            if c in (a, b):
                continue
            found = next(ball_members(ball, self._refutations(a, b, c, radius)),
                         None)
            if found is None:
                unrefuted.append(c)
            else:
                witnesses[c] = found
        if unrefuted:
            return False, tuple(unrefuted)
        return True, witnesses


def root_system(ctx: Coxeter) -> RootSystem:
    """The one RootSystem of ctx, built on first use and kept on ctx."""
    got = ctx._root_system
    if got is None:
        got = ctx._root_system = RootSystem(ctx)
    return got
