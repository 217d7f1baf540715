import hashlib
import json

import pytest

from coxkit import lemmas
from coxkit.coxeter import Coxeter
from coxkit.roots import RootSystem, root_system


def test_wordsincoxetergroup_instance(ctx):
    # w = 1, w' = st, f = 1: l(str) = 3
    assert len(ctx.mult("", "st", "r", "")) == 0 + 2 + 1 + 0


def test_not_both_down_instance(ctx):
    assert len(ctx.mult("r", "s", "r")) == len("r") + 2 or \
        len(ctx.mult("r", "t", "r")) == len("r") + 2


def test_sweeps_pass_at_small_radius(ctx):
    # fast versions; the default radii run in the acceptance suite
    assert lemmas.verify_wordsincoxetergroup(ctx, 4).passed
    rep = lemmas.verify_not_both_down(ctx, 5)
    assert rep.passed and rep.notes["clause2_vacuous"] > 0
    assert lemmas.verify_mingallinrep(ctx, 5).passed
    rep = lemmas.verify_subset_lemma(ctx, 6)
    assert rep.passed and rep.notes["boundary_cases"] == 6


def test_every_mutant_fires_at_radius_4(ctx):
    for name, mutants in lemmas.MUTANTS.items():
        fn = lemmas.SWEEPS[name][0]
        for mutant in mutants:
            rep = fn(ctx, 4, mutant=mutant)
            assert len(rep.violations) >= 1, (name, mutant)


def _clean_sweeps(ctx) -> dict:
    out = {}
    for name, (fn, radius) in lemmas.SWEEPS.items():
        rep = fn(ctx, radius).to_dict()
        rep.pop("elapsed")
        out[name] = rep
    return out


def test_mutants_leave_the_shared_root_system_clean():
    # the sweeps of one context share its root system; a mutant run first,
    # at the radius of its clean sweep, must not change what that sweep
    # reports (opposite_target registers the opposite target's vector)
    ctx = Coxeter()
    for name, mutants in lemmas.MUTANTS.items():
        fn, radius = lemmas.SWEEPS[name]
        for mutant in mutants:
            assert not fn(ctx, radius, mutant=mutant).passed, (name, mutant)
    after_mutants = _clean_sweeps(ctx)
    assert sorted(root_system(ctx)._crossed) == [8, 10]
    assert after_mutants == _clean_sweeps(Coxeter())
    assert all(rep["pass"] for rep in after_mutants.values())


def test_swap_containment_counterexamples_pinned(ctx):
    # each counterexample is the first element of ball(6), in ball order,
    # that lies in gamma and not in beta, found here by a member scan
    rs = RootSystem(ctx)
    ball = ctx.ball(6)
    rep = lemmas.verify_mingallinrep(ctx, 6, mutant="swap_containment")
    assert len(rep.violations) == rep.tuples_checked == 120
    for v in rep.violations:
        r, s, t = v["labeling"]
        d2 = ctx.mult(v["d0"], r, s)
        gamma = (rs.root_from(d2, t) if v["gamma"] == 0
                 else rs.root_from(ctx.mult(d2, t), r))
        beta = rs.root_from(v["d0"], r)
        want = next(x for x in ball
                    if rs.member(x, gamma) and not rs.member(x, beta))
        assert v["ball_counterexample"] == want


# sha256 of each report's to_dict() without elapsed, as sorted-key JSON:
# every sweep at radius 8 and at its SWEEPS radius, every mutant at 4
SWEEP_REPORT_SHA256 = {
    "wordsincoxetergroup@6": "4de5e5d65b8c16a6a4658a72444a111b92ff59a57f6a436c0a0cc514d081641e",
    "wordsincoxetergroup@8": "451d4becf91da81afedb69fc2c3b13a97de564976bb740c1d001f179cd97e439",
    "wordsincoxetergroup:plus_two@4": "ec5551b9eb01edb1fbde94ef3d20a2991c1a0b7858a7873a96cec1a11a2df94a",
    "not_both_down@7": "0d70e54cd3954dfcb92b81692272ed10efa6b7d7d97c1ed12ebac43429c9c008",
    "not_both_down@8": "30df59e79f195eb6f3395800e3434928b02d8ae2e2542de9e4b46bb23d0ee05c",
    "not_both_down:both_up@4": "64d53e0d916db8c0bc5f5a4bff54dd681f5d775c06a59079ec35a509e37bbcfa",
    "mingallinrep@8": "f16f12c7d1736ec10220ac665e4759b111fd942530b7626728752bcc56c63df2",
    "mingallinrep:swap_containment@4": "0681240b6c25c1425c5e04fc56d9db7bc39896568a1a7b5881a349b98f3e300e",
    "subset_lemma@8": "87b428726891feaf657338d9fa69afd4570ea5ed21564d280084209842db76ac",
    "subset_lemma@10": "aca978e7b08642b5c71c0a5c9ffe73dd2920403b41fd95fa8c819bdd9b4a5aec",
    "subset_lemma:opposite_target@4": "15c4aa4f60b4eea96d947d7bbaecf2983977e93fb361dbd105012730a803043d",
}


def _report_sha256(rep) -> str:
    doc = rep.to_dict()
    doc.pop("elapsed")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_sweep_reports_pinned():
    # tuple counts, violations and notes, byte for byte, on a cold context
    ctx = Coxeter()
    got = {}
    for name, (fn, radius) in lemmas.SWEEPS.items():
        for r in sorted({8, radius}):
            got[f"{name}@{r}"] = _report_sha256(fn(ctx, r))
        for mutant in lemmas.MUTANTS[name]:
            got[f"{name}:{mutant}@4"] = _report_sha256(fn(ctx, 4, mutant=mutant))
    assert got == SWEEP_REPORT_SHA256


def test_a_clause_2_violation_records_the_length_it_checked():
    # a context that answers one product a letter too long, once: the
    # violation record carries the length that failed the check
    class OnceWrong(Coxeter):
        lie = None

        def mult_gen(self, w, g):
            out = super().mult_gen(w, g)
            if (w, g) == self.lie:
                self.lie = None
                return out + "?"
            return out

    ctx = OnceWrong()
    ctx.ball(4)
    ctx.lie = ("srs", "t")   # w s r t for w = rsr under the labeling rst
    rep = lemmas.verify_not_both_down(ctx, 4)
    assert rep.violations == [
        {"labeling": "rst", "w": "rsr", "clause": 2, "l(wsrt)": 5}]


def test_unknown_mutant_rejected(ctx):
    with pytest.raises(ValueError):
        lemmas.verify_subset_lemma(ctx, 5, mutant="nope")


def test_radius_preconditions(ctx):
    with pytest.raises(ValueError):
        lemmas.verify_wordsincoxetergroup(ctx, 1)
    with pytest.raises(ValueError):
        lemmas.verify_mingallinrep(ctx, 3)


def test_report_determinism(ctx):
    a = lemmas.verify_not_both_down(ctx, 5).to_dict()
    b = lemmas.verify_not_both_down(ctx, 5).to_dict()
    a.pop("elapsed")
    b.pop("elapsed")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_serialization_fields(ctx):
    rep = lemmas.verify_wordsincoxetergroup(ctx, 3)
    doc = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
    for field in ("lemma", "radius", "tuples_checked", "violations", "pass"):
        assert field in doc
