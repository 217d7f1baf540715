"""Exhaustive ball sweeps for the length/root lemmas of the (4,4,4) system.

Each sweep quantifies over a ball in W and all six ordered labelings of
the generators, reports every concrete counterexample tuple, and carries
its radius: a clean sweep is evidence on that ball, not a proof over W.

Every sweep accepts a registered mutant name which perturbs the claim;
the mutation harness checks that each mutant produces violations at
radius 4, guarding against vacuous quantifier ranges.
"""

from __future__ import annotations

import itertools

from coxkit.certs import SweepReport, timed
from coxkit.coxeter import Coxeter
from coxkit.roots import ball_members, root_system

LABELINGS = tuple("".join(p) for p in itertools.permutations("rst"))

MUTANTS = {
    "wordsincoxetergroup": ("plus_two",),
    "not_both_down": ("both_up",),
    "mingallinrep": ("swap_containment",),
    "subset_lemma": ("opposite_target",),
}


def _unknown_mutant(lemma: str, mutant) -> None:
    if mutant is not None and mutant not in MUTANTS[lemma]:
        raise ValueError(f"unknown mutant {mutant!r} for {lemma}")


@timed
def verify_wordsincoxetergroup(ctx: Coxeter, radius: int,
                               mutant: str | None = None) -> SweepReport:
    """l(w w' r f) = l(w) + l(w') + 1 + l(f) whenever l(ws) = l(w)+1 = l(wt),
    w' in <s,t> with l(w') >= 2 and f in {1, s, t}."""
    _unknown_mutant("wordsincoxetergroup", mutant)
    if radius < 2:
        raise ValueError("radius must be >= 2")
    rep = SweepReport("wordsincoxetergroup", radius)
    bump = 2 if mutant == "plus_two" else 1
    ball = ctx.ball(radius)
    for lab in LABELINGS:
        r, s, t = lab
        dihedral = [x for x in ctx.parabolic({s, t}) if len(x) >= 2]
        for w in ball:
            ws = ctx.mult_gen(w, s)
            if len(ws) != len(w) + 1:
                continue
            wt = ctx.mult_gen(w, t)
            if len(wt) != len(w) + 1:
                continue
            # w w' one letter past w w'[:-1]: the dihedral list is sorted
            # by length and ShortLex forms are closed under prefixes (F1
            # in coxkit.coxeter), so w'[:-1] is s, t or an earlier w'
            prefix = {s: ws, t: wt}
            for wp in dihedral:
                wwp = prefix[wp] = ctx.mult_gen(prefix[wp[:-1]], wp[-1])
                base = ctx.mult_gen(wwp, r)
                for f in ("", s, t):
                    rep.tuples_checked += 1
                    expect = len(w) + len(wp) + bump + len(f)
                    got = len(ctx.mult_gen(base, f) if f else base)
                    if got != expect:
                        rep.violations.append(
                            {"labeling": lab, "w": w, "w'": wp, "f": f,
                             "expected": expect, "got": got})
    return rep


@timed
def verify_not_both_down(ctx: Coxeter, radius: int,
                         mutant: str | None = None) -> SweepReport:
    """l(w)+2 in {l(wsr), l(wtr)}; and if l(wsr) = l(w) then l(wsrt) = l(w)+1."""
    _unknown_mutant("not_both_down", mutant)
    if radius < 1:
        raise ValueError("radius must be >= 1")
    rep = SweepReport("not_both_down", radius)
    vacuous = 0
    ball = ctx.ball(radius)
    for lab in LABELINGS:
        r, s, t = lab
        for w in ball:
            ws = ctx.mult_gen(w, s)
            if len(ws) != len(w) + 1:
                continue
            wt = ctx.mult_gen(w, t)
            if len(wt) != len(w) + 1:
                continue
            rep.tuples_checked += 1
            wsr = ctx.mult_gen(ws, r)
            lsr = len(wsr)
            ltr = len(ctx.mult_gen(wt, r))
            if mutant == "both_up":
                ok = lsr == len(w) + 2 and ltr == len(w) + 2
            else:
                ok = len(w) + 2 in (lsr, ltr)
            if not ok:
                rep.violations.append(
                    {"labeling": lab, "w": w, "clause": 1,
                     "l(wsr)": lsr, "l(wtr)": ltr})
            if lsr == len(w):
                rep.tuples_checked += 1
                lsrt = len(ctx.mult_gen(wsr, t))
                if lsrt != len(w) + 1:
                    rep.violations.append(
                        {"labeling": lab, "w": w, "clause": 2, "l(wsrt)": lsrt})
            else:
                vacuous += 1
    rep.notes["clause2_vacuous"] = vacuous
    return rep


@timed
def verify_mingallinrep(ctx: Coxeter, radius: int,
                        mutant: str | None = None) -> SweepReport:
    """For minimal galleries of type (r,s,t,r): the first crossed root
    (oriented to contain the start chamber) is strictly contained in the
    third-step and fourth-step roots.  Checked both by half-space bitsets
    on the ball and by the exact form criterion; a tuple passes only when
    both verdicts do."""
    _unknown_mutant("mingallinrep", mutant)
    if radius < 4:
        raise ValueError("radius must be >= 4")
    rep = SweepReport("mingallinrep", radius)
    swap = mutant == "swap_containment"
    rs = root_system(ctx)
    ball = ctx.ball(radius)
    for lab in LABELINGS:
        r, s, t = lab
        for d0 in ctx.ball(radius - 4):
            beta = rs.root_from(d0, r)
            in_beta = rs.halfspace(beta, radius)
            d2 = ctx.mult(d0, r, s)
            d3 = ctx.mult(d2, t)
            gammas = [rs.root_from(d2, t), rs.root_from(d3, r)]
            for which, gamma in enumerate(gammas):
                rep.tuples_checked += 1
                if gamma.refl == beta.refl:
                    rep.violations.append(
                        {"labeling": lab, "d0": d0, "gamma": which,
                         "reason": "walls coincide"})
                    continue
                in_gamma = rs.halfspace(gamma, radius)
                if swap:
                    small, large = gamma, beta
                    outside = in_gamma & ~in_beta
                else:
                    small, large = beta, gamma
                    outside = in_beta & ~in_gamma
                counterexample = next(ball_members(ball, outside), None)
                pc = rs.pair_class(small, large)
                form_nested = pc.kind == "nested" and pc.contained == small
                if counterexample is not None or not form_nested:
                    rep.violations.append(
                        {"labeling": lab, "d0": d0, "gamma": which,
                         "ball_counterexample": counterexample,
                         "form_kind": pc.kind})
    return rep


@timed
def verify_subset_lemma(ctx: Coxeter, radius: int,
                        mutant: str | None = None) -> SweepReport:
    """tstr*alpha_s  intersect  stsr*alpha_t, minus the single chamber
    r_{st}r, is contained in r_{st}*alpha_r."""
    _unknown_mutant("subset_lemma", mutant)
    if radius < 5 and mutant is None:
        raise ValueError("radius must be >= 5")
    rep = SweepReport("subset_lemma", radius)
    rs = root_system(ctx)
    ball = ctx.ball(radius)
    boundary = 0
    for lab in LABELINGS:
        r, s, t = lab
        hyp1 = rs.root_from(ctx.normalize(t + s + t + r), s)
        hyp2 = rs.root_from(ctx.normalize(s + t + s + r), t)
        r_st = ctx.longest({s, t})
        excluded = ctx.mult(r_st, r)
        target = rs.root_from(r_st, r)
        if mutant == "opposite_target":
            target = rs.opposite(target)
        rep.tuples_checked += len(ball)
        hyps = rs.halfspace(hyp1, radius) & rs.halfspace(hyp2, radius)
        excluded_bit = 1 << ball.index(excluded) if len(excluded) <= radius else 0
        if hyps & excluded_bit:
            boundary += 1
        outside = hyps & ~excluded_bit & ~rs.halfspace(target, radius)
        rep.violations.extend({"labeling": lab, "w": w}
                              for w in ball_members(ball, outside))
    rep.notes["boundary_cases"] = boundary
    return rep


SWEEPS = {
    "wordsincoxetergroup": (verify_wordsincoxetergroup, 6),
    "not_both_down": (verify_not_both_down, 7),
    "mingallinrep": (verify_mingallinrep, 8),
    "subset_lemma": (verify_subset_lemma, 10),
}
