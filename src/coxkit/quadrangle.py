"""A finite rank-2 Moufang twin building over F2 (both panel orders 4).

The ambient group is the symplectic group on F2^4 preserving the
antidiagonal alternating form: 720 elements, Borel subgroups of order 16
(upper and lower triangular), 45 chambers per half, every panel of size
3.  Chambers are right cosets of the Borels with the group acting on the
right, so c.g composes the way the diagram labels read.  The Weyl
distance of a pair is the Bruhat class of a*b^-1 and the codistance the
Birkhoff class.  The building and twinning axioms are not assumed:
verify_axioms checks them exhaustively in every report, and the
chamber-walking sweep in tests/test_quadrangle.py is its oracle.

Matrices are 16-bit ints, row-major, 4 bits a row.  Products and
transposes are table reads: the row-combination ("Four Russians") method
of M4RI at n = 4, with one 4 x 256 table of row-pair XORs (_PAIR, two
reads per output row) and two 256-entry byte tables for the transpose.

The group is generated by two permutation matrices and a greedy
generating set of B_+ (3 of its 15 nontrivial elements).
build_model(("s", "t")) builds and calibrates it once per process.  It
labels the Bruhat cells by chamber: the chambers of sign x in B_x w B_y
are the chambers of weyl_rep(w)*b for b in B_y, 8 x 16 products per
sign pair, and the 8 cells must partition the 45 chambers.  From those
labels it makes one 45x45 table of Weyl words per sign pair, so
weyl_distance, codistance and panel are table reads.  The tables come
from chamber permutations.  The Weyl distance is G-invariant
(Abramenko & Brown, Buildings, GTM 248, ch. 6), so delta(x, y) is the
cell label of the chamber x.rep(y)^-1; the build records each
generator's right action on the 45 chambers of each half (450
products), and the action of rep(y)^-1 is those actions composed along
its closure word with bytes.translate.  A failed construction fact
(group or Borel order, chamber count, a double-coset partition, panel
size) raises CalibrationError.

The two simple-root one-parameter groups each have a single nontrivial
element over F2.  Which matrix node type carries which letter is not
canonical, so the calibration searches the (at most two) labelings and
the candidate generators until the configuration drawn in the rank-2
action diagram holds, then freezes the choice.

Every rank-2 residue of the (4,4,4) building is the same generalized
quadrangle, so any other pair of letters (the {r,t} and {r,s} residues,
or {s,t} read as (t,s)) is a letter map over that one build: it shares
the group, the chambers and the calibration by reference, and its tables
are the {s,t} tables with each Weyl word renamed letter by letter and
normalized once, when the model is made.
"""

from __future__ import annotations

import itertools
from functools import reduce
from typing import NamedTuple

from coxkit.certs import SweepReport, timed
from coxkit.coxeter import standard_coxeter
from coxkit.treeprod import closure_words

# 4x4 matrices over F2 as 16-bit ints, row-major, row i = bits 4i..4i+3.
IDENT = 0x8421  # rows 1000 0100 0010 0001 -> bits: e_i in column i


def _from_rows(rows) -> int:
    out = 0
    for i, r in enumerate(rows):
        out |= (r & 0xF) << (4 * i)
    return out


# _PAIR[r][x]: the XOR of the rows packed in byte x (low nibble first)
# that the 2 bits of r select.  Row i of a*b is the XOR of the rows of b
# picked by row i of a; the low 2 bits of that row pick among b's rows
# 0-1 (b's low byte), the high 2 bits among rows 2-3 (its high byte).
_PAIR = [[(x & 0xF) * (r & 1) ^ (x >> 4) * (r >> 1) for x in range(256)]
         for r in range(4)]


def mat_mul(a: int, b: int) -> int:
    lo, hi = b & 0xFF, b >> 8
    return (_PAIR[a & 3][lo] ^ _PAIR[a >> 2 & 3][hi]
            | (_PAIR[a >> 4 & 3][lo] ^ _PAIR[a >> 6 & 3][hi]) << 4
            | (_PAIR[a >> 8 & 3][lo] ^ _PAIR[a >> 10 & 3][hi]) << 8
            | (_PAIR[a >> 12 & 3][lo] ^ _PAIR[a >> 14][hi]) << 12)


# _SPREAD[n] puts bit j of the nibble n at bit 4j, turning a row into
# column 0; row i of a matrix is then column i, shifted by i.  The low
# byte (rows 0-1) and high byte (rows 2-3) land on disjoint bits, so a
# transpose is two reads OR-ed together.
_SPREAD = [sum((n >> j & 1) << 4 * j for j in range(4)) for n in range(16)]
_TRANSPOSE_LO = [_SPREAD[x & 0xF] | _SPREAD[x >> 4] << 1 for x in range(256)]
_TRANSPOSE_HI = [t << 2 for t in _TRANSPOSE_LO]


def mat_transpose(a: int) -> int:
    return _TRANSPOSE_LO[a & 0xFF] | _TRANSPOSE_HI[a >> 8]


# antidiagonal alternating form: row i has its single 1 in column 3-i
FORM = _from_rows([0b1000, 0b0100, 0b0010, 0b0001])


def is_symplectic(m: int) -> bool:
    return mat_mul(m, mat_mul(FORM, mat_transpose(m))) == FORM


def mat_inv(m: int) -> int:
    """Inverse of a symplectic matrix: m F m^T = F and F F = 1 give F m^T F."""
    return mat_mul(FORM, mat_mul(mat_transpose(m), FORM))


def _perm_matrix(perm) -> int:
    # perm maps basis index i to perm[i]
    return _from_rows([1 << perm[i] for i in range(4)])


PERM_A = _perm_matrix([1, 0, 3, 2])   # swaps e1<->e2, e3<->e4
PERM_B = _perm_matrix([0, 2, 1, 3])   # swaps e2<->e3


# the entries below (above) the diagonal: bit 4i + j for row i and a
# column j < i (j > i)
_BELOW = 0x7310
_ABOVE = 0x08CE


def _is_upper(m: int) -> bool:
    """Ones on the diagonal and zeros below it."""
    return m & (_BELOW | IDENT) == IDENT


def _is_lower(m: int) -> bool:
    """Ones on the diagonal and zeros above it."""
    return m & (_ABOVE | IDENT) == IDENT


# the chambers of a half in coset order: the identity permutation
_CHAMBERS = bytes(range(45))

# sign pair of (x, y) -> the Bruhat/Birkhoff label kind of x*y^-1
_KINDS = {(-1, -1): "--", (1, 1): "++", (1, -1): "+-", (-1, 1): "-+"}


class TwinChamber(NamedTuple):
    """A chamber: its half and its coset id within that half.  A tuple,
    like roots.Root, so hashing and equality run in C; no dict or set in
    coxkit mixes chambers with other pairs of ints."""

    sign: int   # +1 or -1
    coset: int  # coset id within its half

    def __repr__(self) -> str:
        return f"Chamber({'+' if self.sign > 0 else '-'}{self.coset})"


class CalibrationError(RuntimeError):
    """The group or its chambers are not the expected ones, or no labeling
    of the transvection generators satisfies the diagram."""


# the labeling built from the group; every other one is a letter map over it
BASE_LETTERS = ("s", "t")


class TwinModel:
    """The twin building labelled by letters, a pair of distinct type
    letters: built and calibrated for BASE_LETTERS, a letter map over
    build_model(BASE_LETTERS) for any other pair."""

    def __init__(self, letters: tuple[str, str]):
        if len(letters) != 2 or letters[0] == letters[1]:
            raise ValueError("need two distinct letters")
        self.letters = letters
        self.ctx = standard_coxeter()
        if letters == BASE_LETTERS:
            self._build_group()
            self._calibrate()
        else:
            self._relabel(build_model(BASE_LETTERS))

    # -- group enumeration ---------------------------------------------------

    def _build_group(self) -> None:
        unitriangular = [_from_rows([1 | a << 1, 2 | b << 2, 4 | c << 3, 8])
                         for a in range(8) for b in range(4) for c in range(2)]
        # a greedy generating set of B_+: a symplectic unitriangular matrix
        # joins only if the ones before it do not generate it (3 of the 15
        # besides IDENT); the Borel order is checked below
        gens, spanned = [], {IDENT}
        for m in unitriangular:
            if m not in spanned and is_symplectic(m):
                gens.append(m)
                spanned = closure_words(mat_mul, IDENT, gens, limit=16)
        gens += [PERM_A, PERM_B]
        # a wrong kernel can generate a far larger group: stop past 720
        self._words = closure_words(mat_mul, IDENT, gens, limit=720)
        self.elems = sorted(self._words)
        if len(self.elems) != 720 or not all(map(is_symplectic, self.elems)):
            raise CalibrationError("the generators do not give Sp(4,2)")
        self.borel_plus = frozenset(m for m in self.elems if _is_upper(m))
        self.borel_minus = frozenset(m for m in self.elems if _is_lower(m))
        self._borel = {1: self.borel_plus, -1: self.borel_minus}
        # chamber i of a half is the i-th Borel orbit met in sorted order,
        # represented by its least element
        self._coset_id = {1: {}, -1: {}}
        self._coset_rep = {1: [], -1: []}
        for sign, borel in self._borel.items():
            if len(borel) != 16:
                raise CalibrationError(f"Borel of sign {sign:+d} has order {len(borel)}")
            ids, reps = self._coset_id[sign], self._coset_rep[sign]
            for m in self.elems:
                if m not in ids:
                    for b in borel:
                        ids[mat_mul(b, m)] = len(reps)
                    reps.append(m)
            if len(reps) != 45:
                raise CalibrationError(f"{len(reps)} chambers of sign {sign:+d}")
        # _actions[sign][i][c]: the chamber c.gens[i] of that sign, as a
        # bytes.translate table (the 45 chambers, then padding to 256)
        pad = bytes(range(45, 256))
        self._actions = {
            sign: [bytes(ids[mat_mul(r, g)] for r in self._coset_rep[sign]) + pad
                   for g in gens]
            for sign, ids in self._coset_id.items()}

    # -- Weyl group of the model ---------------------------------------------

    def weyl_elements(self) -> tuple[str, ...]:
        return self.ctx.parabolic(set(self.letters))

    def weyl_rep(self, word: str) -> int:
        reps = {self.letters[0]: self._rep0, self.letters[1]: self._rep1}
        return reduce(mat_mul, (reps[ch] for ch in word), IDENT)

    # -- calibration -------------------------------------------------------

    def _calibrate(self) -> None:
        for rep0, rep1 in ((PERM_A, PERM_B), (PERM_B, PERM_A)):
            self._rep0, self._rep1 = rep0, rep1
            self._build_tables()
            # u in B_+ moving c_- within its letter-panel: u in B_- rep B_-
            candidates = [[u for u in sorted(self.borel_plus)
                           if self._label["--"][self._coset_id[-1][u]] == letter]
                          for letter in self.letters]
            for u0, u1 in itertools.product(*candidates):
                self._u0, self._u1 = u0, u1
                if self.verify_diagram().passed:
                    return
        raise CalibrationError("no generator labeling satisfies the diagram")

    # -- chambers and distances -----------------------------------------------

    def _build_tables(self) -> None:
        # Bruhat cells by chamber: x*y^-1 lies in B_x w B_y exactly when
        # the chamber of sign x holding it is chamber(x, weyl_rep(w)*b)
        # for some b in B_y; _label[kind][coset] is the cell's w, and the
        # cells must partition the 45 chambers
        self._label = {}
        for (sx, sy), kind in _KINDS.items():
            ids, label = self._coset_id[sx], [None] * len(self._coset_rep[sx])
            for w in self.weyl_elements():
                rep = self.weyl_rep(w)
                for coset in {ids[mat_mul(rep, b)] for b in self._borel[sy]}:
                    if label[coset] is not None:
                        raise CalibrationError(
                            f"{kind} double cosets {label[coset]!r} and {w!r} meet")
                    label[coset] = w
            if None in label:
                raise CalibrationError(f"{kind} double cosets do not cover the group")
            self._label[kind] = label
        # one 45x45 Weyl-word table per sign pair.  delta is G-invariant,
        # so delta(x, y) is the label of the chamber x.rep(y)^-1: column y
        # holds the labels of the chambers as rep(y)^-1 moves them
        words = {sign: [self._words[mat_inv(r)] for r in reps]
                 for sign, reps in self._coset_rep.items()}
        self._delta = {}
        for (sx, sy), kind in _KINDS.items():
            columns = (map(self._label[kind].__getitem__, self._move(sx, word))
                       for word in words[sy])
            self._delta[sx, sy] = [list(row) for row in zip(*columns)]
        if any(sum(w in ("", letter) for w in row) != 3 for letter in self.letters
               for sign in (1, -1) for row in self._delta[sign, sign]):
            raise CalibrationError("a panel does not have 3 chambers")

    def _move(self, sign: int, word: tuple) -> bytes:
        """Entry c is the chamber c.g of this sign, for the g whose
        closure word this is: the generator actions composed along it."""
        perm, actions = _CHAMBERS, self._actions[sign]
        for i in word:
            perm = perm.translate(actions[i])
        return perm

    def _relabel(self, base: TwinModel) -> None:
        """Share base's group, chambers and calibration by reference; map
        each of its Weyl words once through base.letters -> self.letters.
        The double-coset label tables stay with base, whose calibration
        reads them."""
        self.elems = base.elems
        self.borel_plus, self.borel_minus = base.borel_plus, base.borel_minus
        self._borel, self._coset_id, self._coset_rep = \
            base._borel, base._coset_id, base._coset_rep
        self._u0, self._u1, self._rep0, self._rep1 = \
            base._u0, base._u1, base._rep0, base._rep1
        rename = dict(zip(base.letters, self.letters))
        word = {w: self.ctx.normalize(rename[ch] for ch in w)
                for w in base.weyl_elements()}
        self._delta = {pair: [[word[w] for w in row] for row in rows]
                       for pair, rows in base._delta.items()}

    # -- public chamber interface ----------------------------------------------

    def chamber(self, sign: int, g: int = IDENT) -> TwinChamber:
        return TwinChamber(sign, self._coset_id[sign][g])

    def chambers(self, sign: int):
        return [TwinChamber(sign, i) for i in range(len(self._coset_rep[sign]))]

    def rep(self, c: TwinChamber) -> int:
        return self._coset_rep[c.sign][c.coset]

    def act(self, c: TwinChamber, g: int) -> TwinChamber:
        return self.chamber(c.sign, mat_mul(self.rep(c), g))

    def act_word(self, c: TwinChamber, gs) -> TwinChamber:
        for g in gs:
            c = self.act(c, g)
        return c

    def weyl_distance(self, x: TwinChamber, y: TwinChamber) -> str:
        if x.sign != y.sign:
            raise ValueError("weyl_distance needs chambers of the same sign")
        return self._delta[x.sign, y.sign][x.coset][y.coset]

    def codistance(self, x: TwinChamber, y: TwinChamber) -> str:
        if x.sign == y.sign:
            raise ValueError("codistance needs chambers of opposite signs")
        return self._delta[x.sign, y.sign][x.coset][y.coset]

    def dist(self, x: TwinChamber, y: TwinChamber) -> int:
        return len(self.weyl_distance(x, y))

    def panel(self, c: TwinChamber, letter: str) -> tuple:
        row = self._delta[c.sign, c.sign][c.coset]
        return tuple(TwinChamber(c.sign, i) for i, w in enumerate(row)
                     if w == "" or w == letter)

    def proj_panel(self, members, x: TwinChamber) -> TwinChamber:
        best = min(members, key=lambda zc: self.dist(x, zc))
        if sum(self.dist(x, zc) == self.dist(x, best) for zc in members) != 1:
            raise ValueError(f"no unique chamber of {members} nearest to {x}")
        return best

    # -- distinguished data ------------------------------------------------

    @property
    def c_plus(self) -> TwinChamber:
        return self.chamber(1)

    @property
    def c_minus(self) -> TwinChamber:
        return self.chamber(-1)

    def c_adjacent(self, letter: str) -> TwinChamber:
        """The chamber of the standard twin apartment letter-adjacent to c_-."""
        return self.chamber(-1, self.weyl_rep(letter))

    def u_of(self, letter: str) -> int:
        return self._u0 if letter == self.letters[0] else self._u1

    def root_group_element(self, prefix: str, letter: str) -> int:
        """Generator of the root group at (prefix)*alpha_letter: the
        conjugate of the simple element by the Weyl representative."""
        w = self.weyl_rep(prefix)
        return mat_mul(w, mat_mul(self.u_of(letter), mat_inv(w)))

    def v_group_words(self) -> dict:
        """All elements of <u_s, u_t> keyed by matrix, valued by a shortest
        word over the two letters reaching them."""
        words = closure_words(mat_mul, IDENT, (self._u0, self._u1))
        return {m: "".join(self.letters[i] for i in w) for m, w in words.items()}

    def v_element(self, word: str) -> int:
        return reduce(mat_mul, map(self.u_of, word), IDENT)

    # -- verification sweeps -------------------------------------------------

    @timed
    def verify_axioms(self) -> SweepReport:
        """(Bu1)-(Bu3) on both halves and (Tw1)-(Tw3), exhaustively: one
        panel scan per sign pair (x, y) in (+, +), (-, -), (+, -).

        Every tuple is read off the distance tables by coset index:
        mates[sign][letter][y] lists the cosets z != y with
        delta(y, z) in {"", letter} (y's letter-panel without y), and
        rules[twin, letter][w] holds ws = w*letter, the axiom a chamber z
        of that panel breaks when delta(x, z) = w ("Bu2+" if l(ws) > l(w)
        on one half, "Tw2" if l(ws) < l(w) across), and the one it breaks
        at any other distance but ws ("Bu2" on one half, the same as at w
        across).  Chambers are named only in a recorded violation."""
        rep = SweepReport("building_and_twinning_axioms", 0)
        ctx, delta = self.ctx, self._delta
        mates = {sign: {letter: [[z for z, w in enumerate(row)
                                  if z != y and (w == "" or w == letter)]
                                 for y, row in enumerate(delta[sign, sign])]
                        for letter in self.letters}
                 for sign in (1, -1)}
        pairs = ((1, 1), (-1, -1), (1, -1))
        # every word that stands as w below
        words = {w for pair in pairs for row in delta[pair] for w in row}
        rules = {}
        for letter in self.letters:
            same, across = rules[False, letter], rules[True, letter] = {}, {}
            for w in words:
                ws = ctx.mult(w, letter)
                tw2 = "Tw2" if len(ws) < len(w) else None
                same[w] = (ws, "Bu2+" if len(ws) > len(w) else None, "Bu2")
                across[w] = (ws, tw2, tw2)
        inverse = {w: ctx.inv(w) for row in delta[1, -1] for w in row}

        def name(sign: int, coset: int) -> str:
            return str(TwinChamber(sign, coset))

        for sx, sy in pairs:
            twin = sx != sy
            first, miss = ("Tw1", "Tw3") if twin else ("Bu1", "Bu3")
            back = delta[sy, sx]
            panels = [(letter, rules[twin, letter], mates[sy][letter])
                      for letter in self.letters]
            for x, row in enumerate(delta[sx, sy]):
                for y, w in enumerate(row):
                    rep.tuples_checked += 1
                    if (back[y][x] != inverse[w]) if twin else \
                            (w == "") != (x == y):
                        rep.violations.append(
                            {"axiom": first, "x": name(sx, x), "y": name(sy, y)})
                    for letter, rule, panel in panels:
                        ws, at_w, elsewhere = rule[w]
                        hit = False
                        others = panel[y]
                        rep.tuples_checked += len(others) + 1
                        for z in others:
                            dxz = row[z]
                            if dxz == ws:
                                hit = True
                            elif axiom := (at_w if dxz == w else elsewhere):
                                rep.violations.append(
                                    {"axiom": axiom, "x": name(sx, x),
                                     "y": name(sy, y), "z": name(sy, z)})
                        if not hit:
                            rep.violations.append(
                                {"axiom": miss, "x": name(sx, x),
                                 "y": name(sy, y), "letter": letter})
        return rep

    @timed
    def verify_diagram(self) -> SweepReport:
        rep = SweepReport("uplus_action_diagram", 0)
        s, t = self.letters
        us, ut = self._u0, self._u1
        v_order = len(self.v_group_words())
        rep.require(v_order == 8, check="order of <u_s,u_t>", got=v_order)
        w1 = mat_mul(mat_mul(ut, us), mat_mul(ut, us))
        w2 = mat_mul(mat_mul(us, ut), mat_mul(us, ut))
        rep.require(w1 == w2, check="utusutus == usutusut")
        c = self.c_minus
        cs, ct = self.c_adjacent(s), self.c_adjacent(t)

        def at(base: TwinChamber, word: str) -> TwinChamber:
            return self.act(base, self.v_element(word))

        lower = [at(c, t + s + t + s), at(c, s + t + s), at(c, t + s), at(c, s),
                 c, at(c, t), at(c, s + t), at(c, t + s + t), at(c, s + t + s + t)]
        upper = [at(ct, s + t + s), at(cs, t + s), at(ct, s), cs,
                 ct, at(cs, t), at(ct, s + t), at(cs, t + s + t)]
        rep.require(lower[0] == lower[8],
                    check="left and right lower corners agree")
        labeled = set(lower) | set(upper)
        rep.require(len(labeled) == 16, check="sixteen distinct chambers",
                    got=len(labeled))
        panel_types = [t, s, t, s, t, s, t, s]
        for i, ptype in enumerate(panel_types):
            tri = {lower[i], lower[i + 1], upper[i]}
            rep.require(len(tri) == 3 and set(self.panel(lower[i], ptype)) == tri,
                        check=f"triangle {i} is the {ptype}-panel")
        for d in lower:
            rep.require(self.codistance(self.c_plus, d) == "",
                        check="lower chamber opposite c_+", chamber=str(d))
        for d in upper:
            rep.require(len(self.codistance(self.c_plus, d)) == 1,
                        check="upper chamber at codistance 1", chamber=str(d))
        return rep

    @timed
    def verify_lemma_uplus(self) -> SweepReport:
        """Assertions (a)-(f) of the rank-2 action lemma, exhaustively,
        plus the itemized distance values of its proof."""
        rep = SweepReport("uplus_acts_on_deltaminus", 0)
        s, t = self.letters
        words = self.v_group_words()
        c = self.c_minus
        cs, ct = self.c_adjacent(s), self.c_adjacent(t)
        us, ut = self._u0, self._u1
        V = list(words)

        ell = self.dist
        for h in V:
            hw = words[h]
            if h not in (IDENT, us):
                rep.require(ell(cs, self.act(cs, h)) >= 3, assertion="a", h=hw)
            rep.require(ell(cs, self.act(ct, h)) >= 2, assertion="b", h=hw)
            for p in self.panel(c, t):
                if h not in (IDENT, ut):
                    rep.require(ell(self.act(ct, h), p) >= 2,
                                assertion="c", h=hw, p=str(p))
                rep.require(ell(self.act(cs, h), p) >= 2
                            or self.weyl_distance(self.act(cs, h), p) == s,
                            assertion="d", h=hw, p=str(p))
            for p in self.panel(self.act(c, h), t):
                if h not in (IDENT, ut):
                    for q in self.panel(c, t):
                        rep.require(ell(p, q) >= 2 or self.weyl_distance(p, q) == s,
                                    assertion="e", h=hw, p=str(p), q=str(q))
                rep.require(ell(p, cs) >= 2 or self.weyl_distance(p, cs) == s,
                            assertion="f", h=hw, p=str(p))
        items = {
            "a.i l(c_s, c_s.u_t)": (ell(cs, self.act_word(cs, [ut])), 3),
            "a.ii l(c_s, c_s.u_tu_s)": (ell(cs, self.act_word(cs, [ut, us])), 3),
            "b.i l(c_s, c_t)": (ell(cs, ct), 2),
            "b.ii l(c_s, c_t.u_s)": (ell(cs, self.act_word(ct, [us])), 2),
            "b.iii l(c_s, c_t.u_su_t)": (ell(cs, self.act_word(ct, [us, ut])), 4),
            "b.iv l(c_s, c_t.u_su_tu_s)": (ell(cs, self.act_word(ct, [us, ut, us])), 4),
        }
        for name, (got, want) in items.items():
            rep.expect(name, got, want)
        set_items = {
            "c.i l(c_t.u_s, p)": ([us], {2, 3}),
            "c.ii l(c_t.u_su_t, p)": ([us, ut], {2, 3}),
            "c.iii l(c_t.u_su_tu_s, p)": ([us, ut, us], {3, 4}),
        }
        for name, (word, want) in set_items.items():
            got = {ell(self.act_word(ct, word), p) for p in self.panel(c, t)}
            rep.expect(name, sorted(got), sorted(want))
        rep.notes["assumption"] = (
            "rank-2 model stands in for the {%s,%s}-residue of the rank-3 "
            "building: residues are convex and the induced root-group action "
            "on the residue is the rank-2 Moufang action" % (s, t))
        return rep

    @timed
    def verify_root_group_fixings(self) -> SweepReport:
        """Each simple root group fixes every chamber of its twin root in
        the standard twin apartment."""
        rep = SweepReport("root_groups_fix_halves", 0)
        for letter in self.letters:
            u = self.u_of(letter)
            for w in self.weyl_elements():
                # right-coset chambers with a right action mirror membership:
                # the +w chamber sits in the twin root of alpha_letter iff
                # l(w*letter) rises
                in_alpha = len(self.ctx.mult(w, letter)) > len(w)
                plus = self.chamber(1, self.weyl_rep(w))
                minus = self.chamber(-1, self.weyl_rep(w))
                rep.require((self.act(plus, u) == plus) == in_alpha,
                            letter=letter, w=w, half="+")
                rep.require((self.act(minus, u) == minus) != in_alpha,
                            letter=letter, w=w, half="-")
        return rep


_MODELS: dict[tuple, TwinModel] = {}


def build_model(letters: tuple[str, str]) -> TwinModel:
    """The TwinModel labelled by letters, built once per process."""
    if letters not in _MODELS:
        _MODELS[letters] = TwinModel(letters)
    return _MODELS[letters]


@timed
def verify_rt_relabel() -> SweepReport:
    """In the {r,t}-labeled model the element of the root group at r*alpha_t
    moves c_- to Weyl distance rtr, its product with the t*alpha_r element
    reaches the longest dihedral element, and the symmetric value is trt."""
    model = build_model(("r", "t"))
    rep = SweepReport("rt_relabel_distances", 0)
    c = model.c_minus
    u_rt = model.root_group_element("r", "t")
    u_tr = model.root_group_element("t", "r")
    r_rt = model.ctx.longest({"r", "t"})
    checks = {
        "delta(c, c.u_rt)": (model.weyl_distance(c, model.act(c, u_rt)), "rtr"),
        "delta(c, c.u_rt u_tr)": (
            model.weyl_distance(c, model.act_word(c, [u_rt, u_tr])), r_rt),
        "delta(c, c.u_tr)": (model.weyl_distance(c, model.act(c, u_tr)), "trt"),
    }
    for name, (got, want) in checks.items():
        rep.expect(name, got, want)
    return rep
