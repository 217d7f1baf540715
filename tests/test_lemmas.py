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
