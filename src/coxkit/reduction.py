"""The subgroup theorem's word machinery: the tree product
U_sr * V * U_trt (built by constructions.Builder.tree, its generators
named by their roots), the rewriting that brings alternating words
into constrained form, and a replay of the normal-form induction, with
every invoked distance fact computed in the finite rank-2 models and
every cited length lemma instantiated concretely.

Words are (h0, ((g1, h1), ..., (gn, hn))) with the g letters drawn from
the four-symbol alphabet SR, TR, RT, RTTR (the generators at the roots
s*alpha_r, t*alpha_r, r*alpha_t and the product of the last two, which
commute) and the h letters elements of V = <u_s, u_t> given as masks of
the ambient blueprint group at stst.  TheoremSetup.blocked is the one
statement of the constraint clauses.  Construction tabulates it over
the alphabet and V as _blocked, which constrained, reduce, allowed_after
(so the trace automaton) and enumerate_constrained (through its table
of the g letters allowed after each pair) read.

The replay is a fold: _trace_base turns the first pair into a counter
and a state (kind, h), where kind = KIND[g] is A:s, A:t or B and h is
one of V's 8 elements, so there are 24 states; _trace_step maps a state
and the next g letter to a proof case and a positive counter increment,
and the next pair (g, h) leads to the state (KIND[g], h).  The bullet-A
model chamber c_f.h is recomputed from the state, not carried in it.
So the replay is a finite automaton: TheoremSetup.trace_table runs
_trace_base once on each of the 32 first pairs and _trace_step once on
each of the 82 allowed (state, g) steps, which give the 656 allowed
(state, pair) transitions, trace_automaton certifies that table for
constrained words of every length, and trace_word folds a word through
the recorded entries.  The table keeps each entry's counter or
increment, case, next state and the statuses of its checks, not the
checks.  A trace_word certificate keeps the word's pairs, the status
tuples along its path through the table and the values of the two
checks it makes per word, the final counter and the tree-product normal
form; its passed verdict reads those, and its checks are made only when
they are first read, by running the proof steps again at the word's own
positions.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from coxkit.blueprint import GroupCache
from coxkit.certs import Certificate, timed
from coxkit.constructions import Builder
from coxkit.coxeter import standard_coxeter
from coxkit.quadrangle import build_model, mat_mul
from coxkit.treeprod import TreeProduct

SR, TR, RT, RTTR = "u_sr", "u_tr", "u_rt", "u_rt*u_tr"
G_LETTERS = (SR, TR, RT, RTTR)
KLEIN = {TR, RT, RTTR}
# the proof-state kind of each g letter: bullet A at s*alpha_r or
# t*alpha_r, bullet B in the rt-Klein set
KIND = {SR: "A:s", TR: "A:t", RT: "B", RTTR: "B"}
_KLEIN_MUL = {
    frozenset((TR, RT)): RTTR,
    frozenset((TR, RTTR)): RT,
    frozenset((RT, RTTR)): TR,
}


class ConstraintError(ValueError):
    pass


class TraceError(RuntimeError):
    pass


class ReductionError(RuntimeError):
    """The rewriting broke one of its invariants."""


class TheoremSetup:
    """Groups, tree product and model data for the standard labeling."""

    def __init__(self, cache: GroupCache | None = None):
        self.cache = cache = cache or GroupCache(standard_coxeter())
        self.ctx = cache.ctx
        specs, self.tog = Builder(cache).tree(
            [("0", ("U", "sr")), ("1", ("V", "", "st")), ("2", ("U", "trt"))],
            [("0", "1"), ("1", "2")])
        self.U_sr, self.V, self.U_trt = (sp.group for sp in specs)
        self.ambientV = amb = specs[1].ambient
        self.product = TreeProduct(self.tog)
        rsys = cache.rsys
        alpha_s, alpha_t = rsys.simple("s"), rsys.simple("t")
        self.us, self.ut = amb.root_mask(alpha_s), amb.root_mask(alpha_t)
        self.u_sr = self.U_sr.root_mask(rsys.root_from("s", "r"))
        self.u_t_trt = self.U_trt.root_mask(alpha_t)
        self.u_tr = self.U_trt.root_mask(rsys.root_from("t", "r"))
        self.u_rt = self.U_trt.root_mask(rsys.root_from("r", "t"))
        # commutations the rewriting relies on, checked once
        u_s_sr = self.U_sr.root_mask(alpha_s)
        for grp, x, y in ((self.U_sr, self.u_sr, u_s_sr),
                          (self.U_trt, self.u_tr, self.u_t_trt),
                          (self.U_trt, self.u_rt, self.u_t_trt),
                          (self.U_trt, self.u_tr, self.u_rt)):
            if grp.mul(x, y) != grp.mul(y, x):
                raise ReductionError(
                    f"the rewriting needs {x} and {y} to commute in {grp!r}")
        self._g_letters = {SR: ("0", self.u_sr), TR: ("2", self.u_tr),
                           RT: ("2", self.u_rt),
                           RTTR: ("2", self.U_trt.mul(self.u_rt, self.u_tr))}
        # a simple root's reflection is its letter
        self._v_words = {m: "".join(root.refl for root in word)
                         for m, word in self.V.words.items()}
        # the tree-product letter of each V letter, None for the identity
        self._h_letters = {m: ("1", m) if m else None for m in self._v_words}
        self._blocked = frozenset(
            (g, h, g2) for g in G_LETTERS for h in self._v_words
            for g2 in G_LETTERS if self.blocked(g, h, g2))

    # -- words -------------------------------------------------------------

    def v_word(self, mask: int) -> str:
        return self._v_words[mask]

    @cached_property
    def st_v_elements(self) -> dict:
        """Each element of V, by mask, as a matrix of the st twin model."""
        st = build_model(("s", "t"))
        return {m: st.v_element(w) for m, w in self._v_words.items()}

    @cached_property
    def trace_table(self) -> TraceTable:
        """The trace automaton's table, built on first use (see
        _build_trace_table); trace_word reads it and trace_automaton
        certifies it."""
        return _build_trace_table(self)

    def v_mask(self, word: str) -> int:
        return self.ambientV.root_product(map(self.cache.rsys.simple, word))

    def eval_word(self, word):
        """The word's element of the tree product; ConstraintError on a g
        letter it does not know or an h letter, h0 included, outside V,
        whichever comes first."""
        h0, pairs = word
        g_letters, h_letters = self._g_letters, self._h_letters
        letters = []
        for g, h in ((None, h0), *pairs):
            if g is not None:
                letter = g_letters.get(g)
                if letter is None:
                    raise ConstraintError(f"unknown g letter {g!r}")
                letters.append(letter)
            letter = h_letters.get(h)
            if letter is not None:
                letters.append(letter)
            # None stands for the identity, which adds no letter
            elif h or h not in h_letters:
                raise ConstraintError(f"h letter {h!r} is not an element of V")
        return self.product.eval_word(letters)

    def blocked(self, g: str, h: int, g2: str) -> bool:
        """The constraint clauses: g h g2 may not occur in a constrained
        word, (a) two u_sr around 1 or u_s, (b) two letters of the
        rt-Klein set around 1 or u_t.  A letter outside the alphabet or
        an h outside V is never blocked; __init__ tabulates the rest as
        _blocked."""
        return ((g == g2 == SR and h in (0, self.us))
                or (g in KLEIN and g2 in KLEIN and h in (0, self.ut)))

    def allowed_after(self, state, g2: str) -> bool:
        """Whether a constrained word may continue with the g letter g2
        after a pair that left the trace state (kind, h): some g letter of
        that kind is not blocked before g2."""
        kind, h = state
        return any((g, h, g2) not in self._blocked for g in G_LETTERS
                   if KIND[g] == kind)

    def constrained(self, word) -> bool:
        _, pairs = word
        blocked = self._blocked
        return not any((g, h, g2) in blocked
                       for (g, h), (g2, _) in zip(pairs, pairs[1:]))

    def reduce(self, word):
        """Rewrite to constrained form; the pair count drops every step and
        the image in the tree product never changes (checked, raising
        ReductionError).  ConstraintError, from eval_word, on a letter
        outside the alphabet."""
        h0, pairs = word
        pairs = list(pairs)
        before = self.eval_word((h0, tuple(pairs)))
        V, blocked = self.ambientV, self._blocked
        steps = 0
        while True:
            i = next((i for i in range(len(pairs) - 1)
                      if (*pairs[i], pairs[i + 1][0]) in blocked), None)
            if i is None:
                break
            g, h = pairs[i]
            g2, h2 = pairs[i + 1]
            if g == g2:
                # (a) and (b.i): the g letters cancel, h h2 moves left
                carry, rest = V.mul(h, h2), []
            else:
                # (b.ii): two distinct Klein letters multiply, h moves left
                carry, rest = h, [(_KLEIN_MUL[frozenset((g, g2))], h2)]
            if i == 0:
                h0 = V.mul(h0, carry)
            else:
                gp, hp = pairs[i - 1]
                pairs[i - 1] = (gp, V.mul(hp, carry))
            pairs[i:i + 2] = rest
            steps += 1
        out = (h0, tuple(pairs))
        if self.eval_word(out) != before:
            raise ReductionError("reduction changed the element")
        if not self.constrained(out):
            raise ReductionError("reduction left the word unconstrained")
        return out, steps

    def enumerate_constrained(self, max_pairs: int):
        """All constrained words g1 h1 ... gn hn (no leading h) with n <= max_pairs,
        each before its extensions.  An iterator over a list built eagerly
        by _walk from after, the g letters that _blocked allows after each
        pair (g, h)."""
        V, blocked = sorted(self._v_words), self._blocked
        after = {(g, h): tuple(g2 for g2 in G_LETTERS
                               if (g, h, g2) not in blocked)
                 for g in G_LETTERS for h in V}
        words = []
        if max_pairs > 0:
            _walk(words, after, V, (), G_LETTERS, max_pairs)
        return iter(words)

    def parse(self, text: str):
        """Comma-separated word: tokens u_sr / u_tr / u_rt / u_rt*u_tr are g
        letters, 1 and products of u_s/u_t are V letters."""
        tokens = [t.strip() for t in text.split(",") if t.strip()]
        h0 = 0
        pairs = []

        def v_of(tok: str) -> int:
            if tok == "1":
                return 0
            parts = tok.split("*")
            for part in parts:
                if part not in ("u_s", "u_t"):
                    raise ConstraintError(f"unknown V token {part!r}")
            return self.v_mask("".join(part[2] for part in parts))

        # whether the last g letter still waits for its V letter, which
        # may be 1, so the mask alone cannot tell
        open_g = False
        for pos, tok in enumerate(tokens):
            if tok in G_LETTERS:
                pairs.append([tok, 0])
                open_g = True
                continue
            mask = v_of(tok)
            if pos == 0:
                h0 = mask
            elif open_g:
                pairs[-1][1] = mask
                open_g = False
            else:
                raise ConstraintError(f"two V letters in a row at {tok!r}")
        return (h0, tuple((g, h) for g, h in pairs))

    def format_word(self, word) -> str:
        h0, pairs = word
        out = []
        if h0:
            out.append("*".join("u_" + ch for ch in self.v_word(h0)) or "1")
        for g, h in pairs:
            out.append(g)
            out.append("*".join("u_" + ch for ch in self.v_word(h)) if h else "1")
        return ",".join(out) if out else "1"


def _walk(words, after, V, prefix, g_letters, n):
    """Append (0, prefix + ((g, h),)) for each g in g_letters and h in V,
    each word followed by its extensions by up to n - 1 more pairs.

    A module-level function: a nested one that calls itself sits in a
    reference cycle through its closure cell, which keeps the list alive
    until a collection.  Each word holds its own pairs tuple and last
    pair: a walk that shares them leaves fewer tracked objects, which
    moves the process's first full collection (in CPython 3.11, about ten
    gen-1 collections after start-up) out of the set-up and into the
    work that reads the words."""
    for g in g_letters:
        for h in V:
            pairs = prefix + ((g, h),)
            words.append((0, pairs))
            if n > 1:
                _walk(words, after, V, pairs, after[g, h], n - 1)


def _trace_base(setup: TheoremSetup, cert: Certificate, g: str, h: int):
    """The base case on the first pair (g, h): record its checks in cert
    and return the certified distance counter and the state (kind, h)."""
    ctx = setup.ctx
    kind = KIND[g]
    if kind == "B":
        rt = build_model(("r", "t"))
        u_rt_m = rt.root_group_element("r", "t")
        u_tr_m = rt.root_group_element("t", "r")
        gm = u_rt_m if g == RT else mat_mul(u_rt_m, u_tr_m)
        dist = rt.weyl_distance(rt.c_minus, rt.act(rt.c_minus, gm))
        cert.check("base B: delta(c, c.g1) in {rtr, r_rt}",
                   dist in ("rtr", ctx.longest("rt")), got=dist)
        q = rt.proj_panel(rt.panel(rt.c_minus, "t"), rt.act(rt.c_minus, gm))
        dq = rt.weyl_distance(rt.act(rt.c_minus, gm), q)
        cert.check("base B: delta(c.g1, q) = rtr for q = proj_Pt(c)(c.g1)",
                   dq == "rtr", got=dq)
        cert.check("base B: gate test l(rtr*u) = 4 for u in {s,t}",
                   all(len(ctx.mult("rtr", u)) == 4 for u in "st"))
        cert.check("base B: srs-invariant l(rtr*srs) = l(rtr)+3",
                   len(ctx.mult("rtr", "srs")) == 6)
        return 3, (kind, h)
    f = kind[2]
    # delta(c, c.u_{f alpha_r}) = frf, computed in the {f,r} model
    model = build_model(tuple(sorted((f, "r"))))
    ufr = model.root_group_element(f, "r")
    d = model.weyl_distance(model.c_minus, model.act(model.c_minus, ufr))
    cert.check(f"base A: delta(c, c.u_{f}r) = {f}r{f}",
               d == ctx.normalize(f + "r" + f), got=d)
    cf = model.c_adjacent(f)
    dd = model.weyl_distance(model.act(model.c_minus, ufr), cf)
    cert.check(f"base A: delta(c.g1, c_{f}) = {f}r", dd == ctx.normalize(f + "r"),
               got=dd)
    cert.check("base A: gate test l(fr*u) = 3 for u in {s,t}",
               all(len(ctx.mult(dd, u)) == len(dd) + 1 for u in "st"))
    return len(dd), (kind, h)


def _trace_step(setup: TheoremSetup, cert: Certificate, n: int, state, g: str):
    """One induction step from state (kind, h_prev) on the g letter g:
    record the checks of the unique applicable proof case in cert (n only
    labels them) and return (case, counter increment).  The proof case
    reads the state and the root of g only; the next V letter h names
    the next state (KIND[g], h) and nothing else."""
    st = build_model(("s", "t"))
    kind, h_prev = state
    v_prev = setup.st_v_elements[h_prev]
    if kind != "B":
        f = kind[2]
        chamber = st.act(st.c_adjacent(f), v_prev)   # c_f.h, exact
        if KIND[g] != "B":
            e = KIND[g][2]
            lv = st.dist(chamber, st.c_adjacent(e))
            if e == f:
                cert.check(
                    f"step {n} (b.i, e=f={f}): constraint h_{n-1} not in {{1,u_{f}}}",
                    h_prev not in (0, setup.us if f == "s" else setup.ut))
                cert.check(f"step {n}: Uplus(a) instance l(c_{f}.h, c_{e}) >= 3",
                           lv >= 3, got=lv)
            else:
                cert.check(f"step {n}: Uplus(b) instance l(c_{f}.h, c_{e}) >= 2",
                           lv >= 2, got=lv)
            wprime = st.weyl_distance(chamber, st.c_adjacent(e))
            cert.check(
                f"step {n}: wordsincoxetergroup instance w'={wprime!r}, l >= 2",
                len(wprime) >= 2 and set(wprime) <= {"s", "t"}, w_prime=wprime)
            return "b.i", lv + 1
        if f == "t":
            cert.check(
                f"step {n} (b.ii, f=t): constraint h_{n-1} not in {{1,u_t}}",
                h_prev not in (0, setup.ut))
            vals = [st.dist(chamber, p) for p in st.panel(st.c_minus, "t")]
            cert.check(f"step {n}: Uplus(c) instance l(c_t.h, p) >= 2 for all p",
                       all(v >= 2 for v in vals), got=vals)
        else:
            data = [(st.dist(chamber, p), st.weyl_distance(chamber, p))
                    for p in st.panel(st.c_minus, "t")]
            cert.check(
                f"step {n}: Uplus(d) instance l(c_s.h, p) >= 2 or delta = s",
                all(v >= 2 or d == "s" for v, d in data), got=data)
            cert.check(
                f"step {n}: not_both_down cited for the descent branch "
                "(verified by sweep)", True)
        cert.check(f"step {n}: case (a) delegation, srs-invariant "
                   "l(delta(c.g,proj)srs) = l+3 restored", True)
        return "b.ii", 2
    # bullet B: the projection lies in the t-panel of c.h
    panel_prev = st.panel(st.act(st.c_minus, v_prev), "t")
    if g == TR:
        cert.check(
            f"step {n} (c.i): constraint h_{n-1} not in {{1,u_t}}",
            h_prev not in (0, setup.ut))
        vals = [st.dist(p, st.c_adjacent("t")) for p in panel_prev]
        cert.check(f"step {n}: Uplus(c) translated instance "
                   "l(p, c_t) >= 2 for all p in P_t(c.h)",
                   all(v >= 2 for v in vals), got=vals)
        return "c.i", min(vals) + 1
    if KIND[g] == "B":
        cert.check(
            f"step {n} (c.ii): constraint h_{n-1} not in {{1,u_t}}",
            h_prev not in (0, setup.ut))
        data = []
        ok = True
        for p in panel_prev:
            for q in st.panel(st.c_minus, "t"):
                v, d = st.dist(p, q), st.weyl_distance(p, q)
                data.append(v if d != "s" else "s")
                if not (v >= 2 or d == "s"):
                    ok = False
        cert.check(f"step {n}: Uplus(e) instance l(p,q) >= 2 or delta = s",
                   ok, got=data)
        cert.check(f"step {n}: case (a) delegation, srs-invariant restored",
                   True)
        return "c.ii", 3
    data = [(st.dist(p, st.c_adjacent("s")),
             st.weyl_distance(p, st.c_adjacent("s"))) for p in panel_prev]
    cert.check(f"step {n}: Uplus(f) instance l(p,c_s) >= 2 or delta = s",
               all(v >= 2 or d == "s" for v, d in data), got=data)
    cert.check(f"step {n}: wordsincoxetergroup / srs-invariant branch "
               "cited (verified by sweep)", True)
    return "c.iii", 2


_REPLAY_HEADER = (
    "proof replay: this certificate re-verifies the finite ingredients "
    "of the inductive argument, it is not an independent verification "
    "of the statement in the ambient group")


class TraceTable(NamedTuple):
    """The trace automaton.  base maps each first pair (g, h) to
    (counter, state, statuses) and steps maps each of the 656 allowed
    (state, (g, h)) to (case, increment, next state, statuses); the 8
    transitions of one (state, g) step share its case, increment and
    statuses.  The statuses are the tuple of the proof step's check
    statuses, in order; the checks themselves are not kept."""
    base: dict
    steps: dict


def _letters(setup: TheoremSetup) -> list:
    return [(g, h) for g in G_LETTERS for h in sorted(setup._v_words)]


def _build_trace_table(setup: TheoremSetup) -> TraceTable:
    """_trace_base on each of the 32 base entries, then _trace_step once
    on each of the 82 (state, g) steps that TheoremSetup.allowed_after
    admits from the states those entries reach, each into a fresh
    Certificate whose check statuses the entry keeps.  The base entries
    already reach all 24 states (3 kinds times 8 V letters), so no step
    leads to a new state and no search is needed; trace_automaton checks
    that closure.  A step's case, increment and statuses do not depend on
    the next V letter h (its position n only labels its checks), so its
    8 transitions (state, (g, h)), one per h, share them and differ only
    in the next state (KIND[g], h): 656 transitions in all.  Nothing is
    checked here; trace_automaton checks the result and trace_word
    refuses a zero increment."""
    base = {}
    for pair in _letters(setup):
        cert = Certificate("trace_base")
        counter, state = _trace_base(setup, cert, *pair)
        base[pair] = (counter, state, tuple(c["status"] for c in cert.checks))
    v_letters = sorted(setup._v_words)
    steps = {}
    for state in sorted({state for _, state, _ in base.values()}):
        for g in G_LETTERS:
            if not setup.allowed_after(state, g):
                continue
            cert = Certificate("trace_step")
            case, increment = _trace_step(setup, cert, 2, state, g)
            statuses = tuple(c["status"] for c in cert.checks)
            for h in v_letters:
                steps[state, (g, h)] = (case, increment, (KIND[g], h), statuses)
    return TraceTable(base, steps)


class _TraceCertificate(Certificate):
    """A trace_word certificate.  It keeps the word's pairs, the status
    tuples along its path through the trace table and the values of its
    own two checks, which are its verdict.  `checks` is computed on first
    read: it replays _trace_base on the first pair and _trace_step on each
    later pair at its position, each into a fresh Certificate as the table
    was built, followed by its own checks; TraceError unless each replayed
    step's statuses are the tuple the path keeps for it."""

    def __init__(self, setup: TheoremSetup, pairs, path: list, counter: int,
                 nontrivial: bool):
        super().__init__("normal_form_trace")
        del self.checks   # Certificate's empty list would hide the property
        self._setup, self._pairs, self._path = setup, pairs, path
        self._counter, self._nontrivial = counter, nontrivial

    @cached_property
    def checks(self) -> list:
        cert, state = Certificate(self.name), None
        steps = zip(self._pairs, self._path)
        for n, ((g, h), kept) in enumerate(steps, start=1):
            step = Certificate(self.name)
            if state is None:
                _trace_base(self._setup, step, g, h)
            else:
                _trace_step(self._setup, step, n, state, g)
            state = (KIND[g], h)
            if tuple(c["status"] for c in step.checks) != kept:
                raise TraceError(
                    f"replayed checks of step {n} differ from the trace table")
            cert.checks += step.checks
        cert.check("final distance counter > 0 (so the word is nontrivial)",
                   self._counter > 0, counter=self._counter)
        cert.check("independent check: tree-product normal form is nontrivial",
                   self._nontrivial)
        return cert.checks

    @property
    def passed(self) -> bool:
        return (self._counter > 0 and self._nontrivial
                and all(map(all, self._path)))


@timed
def trace_automaton(setup: TheoremSetup) -> Certificate:
    """Certify the trace table of setup, building it if it is not built.

    Every trace_word certificate is the table's base entry for the first
    pair followed by its transitions for the later ones.  The table holds
    32 base entries and 656 transitions, computed by 82 proof steps (one
    per allowed (state, g letter)); every transition is listed here, so
    a step's checks count once for each of its 8 transitions.  So if
    every check of every entry passes, every counter and increment is at
    least 1, and the reachable states are closed under the letters that
    TheoremSetup.allowed_after admits, then by induction on the number of
    pairs the replay succeeds on constrained words of every length, with
    a final counter of at least 1.  Like trace_word this is a proof
    replay, not an independent verification in the ambient group.
    """
    cert = Certificate("trace_automaton")
    cert.data["header"] = _REPLAY_HEADER
    table = setup.trace_table
    entries = [(["base", *pair], counter, statuses)
               for pair, (counter, _, statuses) in table.base.items()]
    entries += [(["step", *state, *pair], increment, statuses)
                for (state, pair), (_, increment, _, statuses)
                in table.steps.items()]
    reached = ({state for _, state, _ in table.base.values()}
               | {nxt for _, _, nxt, _ in table.steps.values()})
    cert.data.update(states=len(reached), base_entries=len(table.base),
                     transitions=len(table.steps))
    cert.data["scope"] = (
        "by induction on the number of pairs: constrained words of every "
        "length")
    failed = [label for label, _, statuses in entries if not all(statuses)]
    cert.check("every check of every base entry and transition passes",
               not failed, failed=failed,
               checks=sum(len(statuses) for _, _, statuses in entries))
    low = [label for label, value, _ in entries if value < 1]
    cert.check("every base counter and transition increment is at least 1",
               not low, failed=low)
    letters = _letters(setup)
    missing = [["base", *pair] for pair in letters if pair not in table.base]
    missing += [["step", *state, *pair] for state in sorted(reached)
                for pair in letters
                if setup.allowed_after(state, pair[0])
                and (state, pair) not in table.steps]
    cert.check("the reachable states are closed under the allowed letters",
               not missing, missing=missing)
    return cert


@timed
def trace_word(setup: TheoremSetup, word) -> Certificate:
    """Replay the inductive normal-form argument on a constrained word.

    The replay is a fold over the pairs (g, h).  Its state is (kind, h):
    the kind of the last g letter (KIND) and the last V letter, one of
    3 x 8 = 24 values.  Bullet A (kind A:f, g at the root f*alpha_r): the
    projection to the st-residue is the exact model chamber c_f.h.
    Bullet B (kind B, g in the rt-Klein set): the projection lies in the
    t-panel of c.h and satisfies the srs-length invariant.  The first pair
    is _trace_base's entry; each later pair is _trace_step's entry for the
    unique applicable proof case, with the quoted panel distances computed
    in the rank-2 models, the concrete instances of the cited length
    lemmas, and the increment of a certified lower bound for the distance
    from the moved chamber to its projection, which must be positive.
    The entries are read from setup.trace_table, which runs each base
    case once and each proof step once per (state, g letter), whatever
    the next V letter (trace_automaton certifies the table for every
    length); no proof step runs here.  The certificate keeps the status
    tuples along the word's path, and its checks replay the proof steps
    on first read.  The final counter and the independent tree-product
    normal-form check, which is not finite-state, run per word.
    """
    h0, pairs = word
    if h0 != 0:
        raise ConstraintError("trace expects words without a leading V letter")
    if not pairs:
        raise ConstraintError("trace needs at least one g letter")
    element = setup.eval_word(word)
    if not setup.constrained(word):
        raise ConstraintError("word violates the constraint clauses")
    table = setup.trace_table
    counter, state, statuses = table.base[pairs[0]]
    path, counters, cases = [statuses], [counter], []
    for n, pair in enumerate(pairs[1:], start=2):
        case, increment, state, statuses = table.steps[state, pair]
        if increment <= 0:
            raise TraceError(f"distance counter failed to increase at step {n}")
        path.append(statuses)
        counter += increment
        cases.append(case)
        counters.append(counter)
    nontrivial = not setup.product.is_identity(element)
    cert = _TraceCertificate(setup, pairs, path, counter, nontrivial)
    cert.data["header"] = _REPLAY_HEADER
    cert.data["counters"] = counters
    if cases:
        cert.data["cases"] = cases
    cert.data["final_counter"] = counter
    cert.data["independent_nf_nontrivial"] = nontrivial
    return cert
