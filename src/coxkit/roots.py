"""Roots of the (4,4,4) system as half-spaces, with exact pair geometry.

A root is keyed by its wall (the reflection, canonical word) and the side
containing the identity.  Each root also carries an exact vector in the
geometric representation; the vector of a positive root has nonnegative
coordinates.  The scaled form B' = 2B from :mod:`coxkit.zroot2` decides
everything: |B'| < 2 means the walls cross (finite dihedral order), B' >= 2
means nested half-spaces, B' <= -2 means disjoint-or-covering; for
non-crossing walls the orientation is read off the sign of B' at a
time-like point on one wall.

Membership uses the length test: for positive alpha, w lies in alpha iff
l(r_alpha * w) > l(w).  The vector test (w^-1 alpha positive) is kept as an
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxkit import zroot2 as z2
from coxkit.coxeter import Coxeter, Gallery

_IDX = {"r": 0, "s": 1, "t": 2}

# forward time-like reference: B'(e_i, tau) = 2*sqrt(2) - 2 > 0 for all i
_TAU = ((-1, 0), (-1, 0), (-1, 0))


@dataclass(frozen=True)
class Root:
    refl: str
    positive: bool

    def __repr__(self) -> str:
        sign = "+" if self.positive else "-"
        return f"Root({sign}{self.refl})"


@dataclass(frozen=True)
class PairClass:
    kind: str              # "opposite" | "finite" | "nested" | "anti_nested"
    order: int | None = None     # o(r_a r_b) when finite
    contained: Root | None = None    # nested: contained half-space
    container: Root | None = None
    detail: str | None = None    # anti_nested: "disjoint" or "cover"


class IntervalNotExact(RuntimeError):
    """Raised when an exact interval is requested for an infinite-order pair."""


class RootSystemError(RuntimeError):
    """The exact root geometry contradicted itself."""


class RootSystem:
    def __init__(self, ctx: Coxeter):
        self.ctx = ctx
        self._vectors: dict[Root, z2.Vector] = {}

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
        """The half-space v*alpha_s (it always contains v)."""
        ctx = self.ctx
        v = ctx.normalize(v)
        refl = ctx.mult(v, s, ctx.inv(v))
        positive = len(ctx.mult(v, s)) > len(v)
        vec = self.act_vec(v, z2.basis(_IDX[s]))
        return self._register(Root(refl, positive), vec)

    def simple(self, s: str) -> Root:
        return self.root_from("", s)

    def opposite(self, a: Root) -> Root:
        out = Root(a.refl, not a.positive)
        if out not in self._vectors:
            self._register(out, z2.vneg(self.vector(a)))
        return out

    def vector(self, a: Root) -> z2.Vector:
        vec = self._vectors.get(a)
        if vec is None:
            self._from_reflection(a.refl)
            vec = self._vectors.get(a)
            if vec is None:
                vec = z2.vneg(self._vectors[Root(a.refl, not a.positive)])
                self._register(a, vec)
        return vec

    def _from_reflection(self, refl: str) -> Root:
        # every reflection has a palindromic reduced expression
        for e in self.ctx.reduced_words(refl):
            if e == e[::-1]:
                m = len(e) // 2
                return self.root_from(e[:m], e[m])
        raise ValueError(f"{refl!r} has no palindromic reduced word; not a reflection?")

    def from_reflection(self, refl: str, positive: bool = True) -> Root:
        a = self._from_reflection(self.ctx.normalize(refl))
        return a if positive else self.opposite(a)

    # -- membership and action -------------------------------------------

    def member(self, w: str, a: Root) -> bool:
        ctx = self.ctx
        up = len(ctx.mult(a.refl, w)) > len(w)
        return up if a.positive else not up

    def member_vec(self, w: str, a: Root) -> bool:
        """Independent membership oracle: w^-1 * alpha is positive."""
        vec = self.act_vec(self.ctx.inv(w), self.vector(a))
        return z2.vector_sign(vec) == 1

    def act(self, u: str, a: Root) -> Root:
        ctx = self.ctx
        u = ctx.normalize(u)
        refl = ctx.mult(u, a.refl, ctx.inv(u))
        positive = self.member(ctx.inv(u), a)
        vec = self.act_vec(u, self.vector(a))
        return self._register(Root(refl, positive), vec)

    # -- pair geometry ------------------------------------------------------

    def _wall_point(self, a: Root) -> z2.Vector:
        # time-like point on the wall of a, in the forward cone
        va = self.vector(a)
        c = z2.form(_TAU, va)
        return z2.vsub(z2.vscale((2, 0), _TAU), z2.vscale(c, va))

    def pair_class(self, a: Root, b: Root) -> PairClass:
        if a == b:
            raise ValueError("pair_class requires distinct roots")
        if b == Root(a.refl, not a.positive):
            return PairClass(kind="opposite")
        c = z2.form(self.vector(a), self.vector(b))
        csq_minus_4 = z2.sub(z2.mul(c, c), (4, 0))
        if z2.sign(csq_minus_4) < 0:
            if c == z2.ZERO:
                return PairClass(kind="finite", order=2)
            if c in ((0, 1), (0, -1)):
                return PairClass(kind="finite", order=4)
            raise RootSystemError(f"impossible form value {c} in type (4,4,4)")
        side = z2.sign(z2.form(self.vector(b), self._wall_point(a)))
        if side == 0:
            raise RootSystemError(f"wall point of {a!r} landed on the wall of {b!r}")
        if z2.sign(c) > 0:
            if side > 0:
                return PairClass(kind="nested", contained=a, container=b)
            return PairClass(kind="nested", contained=b, container=a)
        return PairClass(kind="anti_nested",
                         detail="cover" if side > 0 else "disjoint")

    def prenilpotent(self, a: Root, b: Root) -> bool:
        if a == b:
            return True
        pc = self.pair_class(a, b)
        return pc.kind in ("finite", "nested")

    # -- inversion sequences and intervals -----------------------------------

    def inversion_sequence(self, g: Gallery) -> tuple[Root, ...]:
        ctx = self.ctx
        prefixes = ctx.gallery_chambers(g)
        roots = tuple(self.root_from(prefixes[i], g.type_word[i])
                      for i in range(len(g.type_word)))
        if len(set(roots)) != len(roots):
            raise RootSystemError(f"gallery {g!r} crosses a wall twice")
        if not all(a.positive for a in roots):
            raise RootSystemError(f"gallery {g!r} has a negative inversion root")
        return roots

    def _in_cone(self, v: z2.Vector, va: z2.Vector, vb: z2.Vector) -> bool:
        """Exact test: v in R>=0 va + R>=0 vb (2-dim cone)."""
        pairs = [(0, 1), (0, 2), (1, 2)]
        for i, j in pairs:
            det = z2.sub(z2.mul(va[i], vb[j]), z2.mul(va[j], vb[i]))
            if not z2.is_zero(det):
                lam = z2.sub(z2.mul(v[i], vb[j]), z2.mul(v[j], vb[i]))
                mu = z2.sub(z2.mul(va[i], v[j]), z2.mul(va[j], v[i]))
                # residual on all coordinates: det*v == lam*va + mu*vb
                for m in range(3):
                    lhs = z2.mul(det, v[m])
                    rhs = z2.add(z2.mul(lam, va[m]), z2.mul(mu, vb[m]))
                    if lhs != rhs:
                        return False
                sd = z2.sign(det)
                return z2.sign(lam) * sd >= 0 and z2.sign(mu) * sd >= 0
        raise RootSystemError("independent roots must have a nonzero minor")

    def interval(self, a: Root, b: Root, g: Gallery) -> tuple[Root, ...]:
        """Closed interval [a, b] ordered by the gallery's crossing order.

        Exact for finite-order pairs (their walls meet in a point, so
        membership in the interval is the cone test on vectors).  Raises
        IntervalNotExact for nested pairs; use interval_ball for those.
        """
        roots = self.inversion_sequence(g)
        order = {root: i for i, root in enumerate(roots)}
        if a not in order or b not in order:
            raise ValueError("interval endpoints must lie in Phi(G)")
        if order[a] > order[b]:
            raise ValueError("endpoints must satisfy a <=_G b")
        if a == b:
            return (a,)
        pc = self.pair_class(a, b)
        if pc.kind != "finite":
            raise IntervalNotExact(
                "exact intervals are only computed for finite-order pairs")
        va, vb = self.vector(a), self.vector(b)
        out = [c for c in roots if self._in_cone(self.vector(c), va, vb)]
        if a not in out or b not in out:
            raise RootSystemError(f"interval [{a!r}, {b!r}] misses an endpoint")
        out.sort(key=lambda c: order[c])
        return tuple(out)

    def open_interval(self, a: Root, b: Root, g: Gallery) -> tuple[Root, ...]:
        if a == b:
            return ()
        return tuple(c for c in self.interval(a, b, g) if c not in (a, b))

    def interval_ball(self, a: Root, b: Root, g: Gallery, radius: int):
        """Ball-approximate closed interval for any prenilpotent pair.

        Returns (roots, exact) where exact is False: candidates from Phi(G)
        that pass the defining containments on every element of the ball.
        """
        roots = self.inversion_sequence(g)
        ball = self.ctx.ball(radius)
        out = []
        for c in roots:
            ok = True
            for w in ball:
                in_a, in_b = self.member(w, a), self.member(w, b)
                in_c = self.member(w, c)
                if in_a and in_b and not in_c:
                    ok = False
                    break
                if not in_a and not in_b and in_c:
                    ok = False
                    break
            if ok:
                out.append(c)
        order = {root: i for i, root in enumerate(roots)}
        out.sort(key=lambda c: order[c])
        return tuple(out), False

    def open_interval_empty_certificate(self, a: Root, b: Root, g: Gallery,
                                        radius: int):
        """Exact emptiness certificate for (a, b) within Phi(G).

        (a,b) is contained in Phi(G) by inversion-set closure, so emptiness
        follows if every candidate root of Phi(G) other than a, b is
        refuted by an explicit ball witness.  Returns (True, witnesses) on
        success, (False, unrefuted-candidates) otherwise.
        """
        roots = self.inversion_sequence(g)
        ball = self.ctx.ball(radius)
        witnesses = {}
        unrefuted = []
        for c in roots:
            if c in (a, b):
                continue
            found = None
            for w in ball:
                in_a, in_b = self.member(w, a), self.member(w, b)
                in_c = self.member(w, c)
                if (in_a and in_b and not in_c) or (not in_a and not in_b and in_c):
                    found = w
                    break
            if found is None:
                unrefuted.append(c)
            else:
                witnesses[c] = found
        if unrefuted:
            return False, tuple(unrefuted)
        return True, witnesses
