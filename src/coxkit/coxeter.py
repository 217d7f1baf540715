"""Exact arithmetic in the Coxeter system of type (4,4,4).

Generators are the letters r < s < t (that order fixes ShortLex).  Every
element is carried as its ShortLex-least reduced word, so words compare
and hash as plain strings and the empty string is the identity.

Normalization is Tits' solution to the word problem: the braid-move
closure of a reduced word is the complete set of its reduced expressions,
and a product ws is shorter than w exactly when some reduced expression
of w ends with s.  Closures are memoized per element, which makes the
whole kernel a growing set of lookup tables.  Every key of those tables
is a reduced word over r, s, t: a word that is not one raises
ValueError before anything is stored.  So a product whose left factor
the kernel has already met starts from that factor's memoized canonical
form, one dict read, and walks only the later factors letter by letter.

Ball sizes are checked against Steinberg's growth series (coxkit.growth),
which shares no code with the word-problem solver.  A spherical parabolic
subgroup whose enumeration passes the order the Coxeter matrix gives it
raises KernelError instead of running on.
"""

from __future__ import annotations

from dataclasses import dataclass

from coxkit import growth, wordops
from coxkit.treeprod import closure_words

GENS = "rst"
MAX_RADIUS = 10


class ResourceLimit(RuntimeError):
    """A ball/sweep radius exceeded MAX_RADIUS."""


class ResidueError(RuntimeError):
    """A residue has no unique gate, or a chamber no unique projection."""


class KernelError(RuntimeError):
    """The word-problem solver contradicts the Coxeter matrix."""


_GENERATORS = frozenset(GENS)


def _check_letters(word: str) -> None:
    for ch in word:
        if ch not in GENS:
            raise ValueError(f"unknown generator {ch!r}")


@dataclass(frozen=True)
class Residue:
    """Spherical residue of the Coxeter building, keyed by type and gate."""

    types: frozenset
    gate: str

    @property
    def rank(self) -> int:
        return len(self.types)

    def __repr__(self) -> str:
        return f"Residue({''.join(sorted(self.types))!r} at {self.gate!r})"


@dataclass(frozen=True)
class Gallery:
    """Minimal gallery from the identity, recorded by its (reduced) type word."""

    type_word: str

    def __len__(self) -> int:
        return len(self.type_word)

    def __repr__(self) -> str:
        return f"Gallery({self.type_word!r})"


class Coxeter:
    def __init__(self):
        self._canon: dict[str, str] = {"": ""}
        self._closure: dict[str, frozenset] = {"": frozenset([""])}
        self._mult_gen: dict[tuple[str, str], str] = {}
        self._parabolics: dict[frozenset, tuple[str, ...]] = {}
        self._balls: list[tuple[str, ...]] = [("",)]
        # the context's one coxkit.roots.RootSystem (roots.root_system)
        self._root_system = None

    # -- canonical forms ------------------------------------------------

    def _learn(self, word: str) -> str:
        """Memoize the element of a reduced word; return its canonical form."""
        _check_letters(word)
        closure = wordops.braid_closure(word)
        # Tits: a word is reduced iff no braid-equivalent word repeats a letter
        for v in closure:
            if "rr" in v or "ss" in v or "tt" in v:
                raise ValueError(f"{word!r} is not reduced")
        c = min(closure)
        for v in closure:
            self._canon[v] = c
        self._closure[c] = closure
        return c

    def canon_reduced(self, word: str) -> str:
        """Canonical form of a word known to be reduced."""
        c = self._canon.get(word)
        if c is None:
            c = self._learn(word)
        return c

    def reduced_words(self, w: str) -> frozenset:
        """All reduced expressions of w (given in canonical form)."""
        got = self._closure.get(w)
        if got is None:
            if self._learn(w) != w:
                raise ValueError(f"{w!r} is not canonical")
            got = self._closure[w]
        return got

    def mult_gen(self, w: str, g: str) -> str:
        """Canonical form of w*g for a single generator g."""
        key = (w, g)
        out = self._mult_gen.get(key)
        if out is None:
            if g not in _GENERATORS:
                raise ValueError(f"unknown generator {g!r}")
            for e in self.reduced_words(w):
                if e.endswith(g):
                    out = self.canon_reduced(e[:-1])
                    break
            else:
                out = self.canon_reduced(w + g)
            self._mult_gen[key] = out
        return out

    def normalize(self, letters) -> str:
        """Canonical form of an arbitrary product of generators."""
        return self.mult("".join(letters))

    def mult(self, *words: str) -> str:
        """Canonical form of the product of the words, left to right."""
        out = ""
        for w in words:
            if not out:
                # the product so far is the identity, so a factor the
                # memo has met, its letters checked when it was learned,
                # is just its canonical form
                c = self._canon.get(w)
                if c is not None:
                    out = c
                    continue
            _check_letters(w)
            for ch in w:
                out = self.mult_gen(out, ch)
        return out

    def inv(self, w: str) -> str:
        if not w:
            return w
        return self.canon_reduced(self.normalize(w)[::-1])

    # -- descents -------------------------------------------------------

    def has_left_descent(self, w: str, g: str) -> bool:
        return any(e.startswith(g) for e in self.reduced_words(w))

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
            sphere = {w for w in prev if len(w) == frontier_len}
            nxt = set()
            for w in sphere:
                for g in GENS:
                    v = self.mult_gen(w, g)
                    if len(v) == frontier_len + 1:
                        nxt.add(v)
            self._balls.append(prev + tuple(sorted(nxt)))
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
        if len(types) >= 3:
            raise ValueError("full parabolic is not spherical in type (4,4,4)")
        # the trivial group, order 2, or dihedral of order 2m with m = 4
        order = (1, 2, 8)[len(types)]
        # a wrong kernel can make the group infinite: stop past its order
        elems = closure_words(self.mult_gen, "", sorted(types), limit=order)
        if len(elems) != order:
            raise KernelError(f"<{''.join(sorted(types))}> does not have "
                              f"{order} elements")
        got = tuple(sorted(elems, key=lambda x: (len(x), x)))
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

    def min_galleries(self, w: str) -> tuple[Gallery, ...]:
        w = self.normalize(w)
        return tuple(Gallery(e) for e in sorted(self.reduced_words(w)))

    def gallery_chambers(self, g: Gallery) -> tuple[str, ...]:
        out = [""]
        for ch in g.type_word:
            out.append(self.mult_gen(out[-1], ch))
        return tuple(out)

    def gallery_shift(self, s: str, g: Gallery) -> Gallery:
        """The gallery sG; g must lie in Min_s of its endpoint."""
        w = self.normalize(g.type_word)
        if self.has_left_descent(w, s):
            if not g.type_word.startswith(s):
                raise ValueError("gallery not in Min_s: type must start with s")
            return Gallery(g.type_word[1:])
        return Gallery(s + g.type_word)


_STANDARD: Coxeter | None = None


def standard_coxeter() -> Coxeter:
    """Shared kernel instance (the memo tables are expensive to rebuild)."""
    global _STANDARD
    if _STANDARD is None:
        _STANDARD = Coxeter()
    return _STANDARD
