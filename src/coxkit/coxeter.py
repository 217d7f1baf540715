"""Exact arithmetic in the Coxeter system of type (4,4,4).

Generators are the letters r < s < t (that order fixes ShortLex).  Every
element is carried as its ShortLex-least reduced word, its canonical
form, so words compare and hash as plain strings and the empty string is
the identity.  A minimal gallery from the identity is its type word, a
reduced word, so the minimal galleries of w (min_galleries) are its
reduced words and the canonical one is w itself.

Products.  mult_gen(w, g) finds the canonical form of wg from that of w
by peeling off w's first letter, after W. Casselman, "Computation in
Coxeter groups I", Electron. J. Combin. 9 (2002), and Bjorner and
Brenti, Combinatorics of Coxeter Groups, GTM 231, sections 1.5 and 4.2.
Write D_L(x) for the set of left descents of x.  Three facts carry it:

  (F1) ShortLex forms are closed under prefixes and suffixes, and
       canon(x) = a + canon(a x) for a = min D_L(x): a letter starts a
       reduced word for x exactly when it is a left descent of x.
  (F2) D_L(wg) is contained in D_L(w) when wg is shorter than w, and
       contains D_L(w) when wg is longer: for x the shorter of the two,
       every a in D_L(x) is in D_L(xg), as l(a x g) <= l(a x) + 1 =
       l(x) < l(xg).
  (F3) If wg is longer than w and a is a left descent of wg but not of
       w, then a w = w g.  By the exchange condition a wg is w g with
       one letter of a reduced word w g deleted; deleting a letter of w
       would make a w shorter than w, so the letter is g.  Then
       w r_g w^-1 = r_a, so w(alpha_g) = alpha_a (it is positive since
       wg is longer); conversely w(alpha_g) = alpha_a gives a w = w g.

Let w be canonical and nonempty, b = w[0] = min D_L(w) and w1 = w[1:] =
canon(b w) (F1), and let y = canon(w1 g) = mult_gen(w1, g), so wg = b y.
  1. len(y) < len(w1): wg is shorter than w and b is a left descent of
     it, so b = min D_L(wg) by (F2) and canon(wg) = b + y.
  2. y == w: then w1 g = b w1, so wg = b w1 g = w1.
  3. Otherwise wg is longer than w (were it shorter, the exchange
     condition would delete the letter b, as w1 g is longer than w1, and
     then y = w).  By (F2) D_L(wg) contains b, so its least element is
     b or a new descent a < b, which (F3) finds by w(alpha_g) = alpha_a;
     then canon(wg) = a + canon(a wg) = a + w.  With every m even no two
     distinct generators are conjugate, so a = g, and the rule reads
     g + w when g < b and w(alpha_g) = alpha_g.
  4. Otherwise the least left descent of wg is b and canon(wg) = b + y.
The products are memoized one table per generator: _right[g][w] is
canon(w g), keyed by the canonical word w alone.  mult_gen peels w down
to the longest suffix that _right[g] holds and builds back up, with no
recursion.

Rule 3's question, whether w(alpha_g) = alpha_g, is answered by a walk
through a fixed table of elementary roots (B. Brink and R. Howlett,
Math. Ann. 296 (1993); Casselman's minimal-root reflection table, loc.
cit.; Bjorner and Brenti, section 4.7).  With the scaled form B' = 2B of
coxkit.zroot2, Sigma is the least set of roots that holds the simple
roots and, for beta in Sigma with beta != alpha_s, holds s(beta) exactly
when B'(beta, alpha_s) > -2.  In type (4,4,4) it has 9 roots: the 3 simple
roots and the 6 roots alpha_i + sqrt(2)*alpha_j.  ELEMENTARY_ROOTS lists
them, simple roots first, and REFLECTION_TABLE[i][s] is the index of
s(beta_i), or OUT when B'(beta_i, alpha_s) <= -2, or NEGATIVE when beta_i
= alpha_s.  Both are built once at import, the one use of zroot2 here.
The walk starts at alpha_g's index and applies the letters of w from the
right end; rule 3 fires exactly when it ends at alpha_g's index.

Proof.  Let w be canonical with wg longer than w, as in rule 3, and let
beta_i = w[i:](alpha_g).  Each beta_i is positive, because w[i:]g is
reduced; so a letter that meets NEGATIVE contradicts the kernel's
lengths and raises KernelError.  While beta_(i+1) is in Sigma, the table
gives beta_i exactly.  Claim: if beta_(i+1) is not in Sigma, then beta_i
is not either.  Suppose instead that delta = beta_i is in Sigma, with s =
w[i].  Then s(delta) = beta_(i+1) is not, so B'(delta, alpha_s) <= -2, so
B'(beta_(i+1), alpha_s) >= 2.  By the dominance criterion (Bjorner and
Brenti, 4.7: for positive roots, beta dominates gamma iff B(beta, gamma)
>= 1 and dp(beta) >= dp(gamma)), beta_(i+1) dominates alpha_s: every x
that sends beta_(i+1) to a negative root sends alpha_s to one too.  Yet x =
(w[i+1:]g)^-1 sends beta_(i+1) to -alpha_g and alpha_s to a positive root,
because s w[i+1:] g = w[i:]g is longer than w[i+1:]g.  That contradicts
the dominance.  So OUT is absorbing, the walk stops there, and w(alpha_g)
= alpha_g, a root of Sigma, exactly when the walk ends at alpha_g's index.

Every key of _right is a generator and every key of _right[g] a
canonical word: mult_gen refuses an unknown generator, and a left factor
the kernel has not met yet is first walked letter by letter from the
identity (canon_reduced); unless each letter makes it longer and the
walk ends at the factor itself it raises ValueError, with nothing about
it stored.  mult reads _right[letter][product so far], two dict reads on
a hit, and calls mult_gen only on a miss or an unknown letter; a product
whose left factor the kernel has met starts from that factor's canonical
form, one dict read, and walks only the later factors.

Cross-check.  Tits' solution to the word problem, the braid-move closure
of a reduced word being the complete set of its reduced expressions and
xg being shorter than x exactly when one of them ends with g, shares no
code with the four rules.  reduced_words computes it lazily, and ball()
checks it on every new element v: the closure of v is all reduced, its
least word is v, and its last letters are exactly the right descents of
v by the kernel, the letters g by which the kernel reaches v as wg from
the sphere below.  A disagreement raises KernelError.

Ball sizes are checked against Steinberg's growth series (coxkit.growth),
which shares no code with either solver.  parabolic() reads the spherical
parabolic subgroup <J> off the ball: its elements are those of
ball(l(r_J)) whose canonical word uses only letters of J, 0, 1 and 4
letters deep for |J| = 0, 1 and 2, so each is cross-checked there.  A
count other than the order the Coxeter matrix gives <J> raises
KernelError.
"""

from __future__ import annotations

from typing import NamedTuple

from coxkit import growth, wordops, zroot2

GENS = "rst"
MAX_RADIUS = 10


class ResourceLimit(RuntimeError):
    """A ball/sweep radius exceeded MAX_RADIUS."""


class ResidueError(RuntimeError):
    """A residue has no unique gate, or a chamber no unique projection."""


class KernelError(RuntimeError):
    """The word-problem solver contradicts the Coxeter matrix."""


# REFLECTION_TABLE entries that are not an index into ELEMENTARY_ROOTS
OUT = -1         # s(beta) is not elementary
NEGATIVE = -2    # beta = alpha_s, so s(beta) = -alpha_s


def _elementary_roots() -> tuple[tuple, tuple]:
    """Sigma over the basis (e_r, e_s, e_t), simple roots first, and its
    reflection table (module docstring), closed from the simple roots."""
    roots = [zroot2.basis(i) for i in range(len(GENS))]
    index = {beta: i for i, beta in enumerate(roots)}
    table = []
    for beta in roots:    # roots grows as the loop runs
        row = {}
        for j, s in enumerate(GENS):
            alpha = zroot2.basis(j)
            if beta == alpha:
                row[s] = NEGATIVE
            elif zroot2.sign(zroot2.sub(zroot2.form(beta, alpha), (-2, 0))) > 0:
                image = zroot2.reflect(j, beta)
                if image not in index:
                    index[image] = len(roots)
                    roots.append(image)
                row[s] = index[image]
            else:
                row[s] = OUT
        table.append(row)
    return tuple(roots), tuple(table)


ELEMENTARY_ROOTS, REFLECTION_TABLE = _elementary_roots()


def _fixes_simple_root(w: str, g: str) -> bool:
    """w(alpha_g) == alpha_g, for w canonical with wg longer than w: the
    walk of alpha_g through REFLECTION_TABLE, letters of w from the right
    (module docstring).  KernelError if the walk meets a negative root."""
    start = i = GENS.index(g)
    for s in reversed(w):
        i = REFLECTION_TABLE[i][s]
        if i < 0:
            if i == OUT:
                return False
            raise KernelError(f"{w!r} sends alpha_{g} to a negative root, so "
                              f"{w + g!r} is not longer than {w!r}")
    return i == start


class Residue(NamedTuple):
    """Spherical residue of the Coxeter building, keyed by type and gate."""

    types: frozenset
    gate: str

    def __repr__(self) -> str:
        return f"Residue({''.join(sorted(self.types))!r} at {self.gate!r})"


class Coxeter:
    def __init__(self):
        self._canon: dict[str, str] = {"": ""}
        # the elements whose braid closure agreed with the kernel
        self._closure: dict[str, frozenset] = {"": frozenset([""])}
        # _right[g][w] = canon(w g), one memo per generator
        self._right: dict[str, dict[str, str]] = {g: {"": g} for g in GENS}
        self._parabolics: dict[frozenset, tuple[str, ...]] = {}
        self._balls: list[tuple[str, ...]] = [("",)]
        # the context's one coxkit.roots.RootSystem (roots.root_system)
        self._root_system = None

    # -- canonical forms ------------------------------------------------

    def canon_reduced(self, word: str) -> str:
        """Canonical form of a reduced word, walked letter by letter;
        ValueError unless every letter makes the product longer."""
        c = self._canon.get(word)
        if c is None:
            c = ""
            for ch in word:
                nxt = self.mult_gen(c, ch)
                if len(nxt) <= len(c):
                    raise ValueError(f"{word!r} is not reduced")
                c = nxt
            self._canon[word] = c
        return c

    def reduced_words(self, w: str) -> frozenset:
        """All reduced expressions of w (given in canonical form): Tits'
        braid closure, computed on first use and checked against the
        kernel."""
        got = self._closure.get(w)
        if got is None:
            if self.canon_reduced(w) != w:
                raise ValueError(f"{w!r} is not canonical")
            got = wordops.braid_closure(w)
            # Tits: a word is reduced iff no braid-equivalent word repeats a letter
            for v in got:
                if "rr" in v or "ss" in v or "tt" in v:
                    raise KernelError(f"the kernel takes {w!r} for reduced, but "
                                      f"{v!r} in its braid closure repeats a letter")
            if min(got) != w:
                raise KernelError(f"the kernel takes {w!r} for canonical, but "
                                  f"{min(got)!r} is a smaller reduced word")
            self._closure[w] = got
        return got

    def _cross_check(self, v: str, down: set) -> None:
        """Raise KernelError unless Tits' solution agrees with the kernel
        on v, whose right descents by the kernel are down: reduced_words
        checks the closure, this its last letters."""
        last = {e[-1] for e in self.reduced_words(v) if e}
        if last != down:
            raise KernelError(
                f"the reduced words of {v!r} end with {''.join(sorted(last))!r}, "
                f"but the kernel shortens it by {''.join(sorted(down))!r}")

    def mult_gen(self, w: str, g: str) -> str:
        """Canonical form of w*g for a single generator g."""
        right = self._right.get(g)
        if right is None:
            raise ValueError(f"unknown generator {g!r}")
        out = right.get(w)
        if out is None:
            if self._canon.get(w) != w and self.canon_reduced(w) != w:
                raise ValueError(f"{w!r} is not canonical")
            # peel w down to a suffix whose product with g is memoized
            # (the identity's always is), then build back up by the rules
            peeled = []
            while w not in right:
                peeled.append(w)
                w = w[1:]
            out = right[w]
            for w in reversed(peeled):
                out = right[w] = self._step(w, g, out)
                self._canon[out] = out
        return out

    def _step(self, w: str, g: str, y: str) -> str:
        """canon(w g) from canon(w[1:] g) = y, for w canonical and
        nonempty: the four rules of the module docstring."""
        b, w1 = w[0], w[1:]
        if len(y) < len(w1):
            return b + y
        if y == w:
            return w1
        if g < b and _fixes_simple_root(w, g):
            return g + w
        return b + y

    def normalize(self, letters) -> str:
        """Canonical form of an arbitrary product of generators."""
        return self.mult("".join(letters))

    def mult(self, *words: str) -> str:
        """Canonical form of the product of the words, left to right."""
        right = self._right
        out = ""
        for w in words:
            if not out:
                # the product so far is the identity, so a factor the
                # memo has met, its letters checked when it was met, is
                # just its canonical form
                c = self._canon.get(w)
                if c is not None:
                    out = c
                    continue
            for ch in w:
                # a memo hit costs two dict reads; mult_gen takes the
                # misses and refuses an unknown letter
                row = right.get(ch)
                nxt = None if row is None else row.get(out)
                out = self.mult_gen(out, ch) if nxt is None else nxt
        return out

    def inv(self, w: str) -> str:
        if not w:
            return w
        return self.canon_reduced(self.normalize(w)[::-1])

    # -- balls ------------------------------------------------------------

    def ball(self, radius: int) -> tuple[str, ...]:
        """All elements of length <= radius, sorted by (length, ShortLex)."""
        if radius < 0:
            raise ValueError(f"negative ball radius {radius}")
        if radius > MAX_RADIUS:
            raise ResourceLimit(
                f"radius {radius} exceeds configured maximum {MAX_RADIUS}")
        while len(self._balls) <= radius:
            frontier_len = len(self._balls) - 1
            prev = self._balls[-1]
            # each element of the next sphere, with the letters g by which
            # the kernel reaches it as wg from this sphere: its right descents
            reached: dict[str, set] = {}
            for w in prev:
                if len(w) == frontier_len:
                    for g in GENS:
                        v = self.mult_gen(w, g)
                        if len(v) == frontier_len + 1:
                            reached.setdefault(v, set()).add(g)
            nxt = tuple(sorted(reached))
            for v in nxt:
                self._cross_check(v, reached[v])
            self._balls.append(prev + nxt)
        return self._balls[radius]

    def ball_oracle_size(self, radius: int) -> int:
        """Independent ball count: partial sum of Steinberg's growth series."""
        return growth.ball_size(radius)

    # -- parabolic subgroups and residues ---------------------------------

    def parabolic(self, types) -> tuple[str, ...]:
        types = frozenset(types)
        got = self._parabolics.get(types)
        if got is not None:
            return got
        if not types <= set(GENS):
            raise ValueError(f"unknown generator {min(types - set(GENS))!r}")
        if len(types) >= 3:
            raise ValueError("full parabolic is not spherical in type (4,4,4)")
        # the trivial group, order 2, or dihedral of order 2m with m = 4,
        # and the length of its longest element r_J
        order, depth = ((1, 0), (2, 1), (8, 4))[len(types)]
        got = tuple(w for w in self.ball(depth) if types.issuperset(w))
        if len(got) != order:
            raise KernelError(f"<{''.join(sorted(types))}> does not have "
                              f"{order} elements")
        self._parabolics[types] = got
        return got

    def longest(self, types) -> str:
        """r_J, the longest element of the spherical parabolic <J>."""
        elems = self.parabolic(types)
        top = max(len(w) for w in elems)
        (w0,) = [w for w in elems if len(w) == top]
        return w0

    def residue(self, types, x: str) -> Residue:
        types = frozenset(types)
        members = [self.mult(x, u) for u in self.parabolic(types)]
        gate = min(members, key=len)
        if sum(1 for m in members if len(m) == len(gate)) != 1:
            raise ResidueError(f"the {sorted(types)} residue of {x!r} has no unique gate")
        return Residue(types, gate)

    # -- prefix order -----------------------------------------------------

    def prefix_leq(self, w1: str, w2: str) -> bool:
        a = self.normalize(w1)
        b = self.normalize(w2)
        return len(a) + len(self.mult(self.inv(a), b)) == len(b)

    def prefix_set(self, w: str) -> frozenset:
        """C(w): all prefixes of all reduced expressions of w."""
        w = self.normalize(w)
        out = set()
        for e in self.reduced_words(w):
            for i in range(len(e) + 1):
                out.add(self.canon_reduced(e[:i]))
        return frozenset(out)

    # -- minimal galleries --------------------------------------------------

    def min_galleries(self, w: str) -> tuple[str, ...]:
        """The minimal galleries from the identity to w, each its type
        word: the reduced words of w, sorted."""
        return tuple(sorted(self.reduced_words(self.normalize(w))))


_STANDARD: Coxeter | None = None


def standard_coxeter() -> Coxeter:
    """Shared kernel instance (the memo tables are expensive to rebuild)."""
    global _STANDARD
    if _STANDARD is None:
        _STANDARD = Coxeter()
    return _STANDARD
