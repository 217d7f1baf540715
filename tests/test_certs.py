import itertools

import pytest

from coxkit import certs, lemmas, suites
from coxkit.reduction import trace_word

# the least radius each sweep accepts
MIN_RADII = {"wordsincoxetergroup": 2, "not_both_down": 1, "mingallinrep": 4,
             "subset_lemma": 5}


def _by_runner(elapsed) -> bool:
    # the fake clock reads 0, 1, 2, ...: a span it timed is a whole number
    # of ticks, while one read from a real clock almost never is
    return elapsed >= 1 and float(elapsed).is_integer()


def test_every_record_is_timed_by_the_runner(monkeypatch, ctx, theorem_setup):
    ticks = itertools.count()
    monkeypatch.setattr(certs, "clock", lambda: float(next(ticks)))
    assert set(MIN_RADII) == set(lemmas.SWEEPS)
    monkeypatch.setattr(lemmas, "SWEEPS", {
        name: (fn, MIN_RADII[name]) for name, (fn, _) in lemmas.SWEEPS.items()})
    cox = suites.run_coxeter(ctx, 2)
    assert {name: rep["radius"] for name, rep in cox["sweeps"].items()} \
        == MIN_RADII
    blueprint = suites.run_blueprint(ctx, 2)
    quad = suites.run_quadrangle()
    # runs section4_pipeline(GroupCache(ctx), [("st", "")])
    sec4 = suites.run_section4(ctx, [("st", "")])
    records = {f"suite {out['suite']}": out["elapsed"]
               for out in (cox, blueprint, quad, sec4)}
    records.update((f"sweep {name}", rep["elapsed"])
                   for name, rep in cox["sweeps"].items())
    records.update((f"quadrangle {name}", rep["elapsed"])
                   for name, rep in quad["reports"].items())
    records.update((c["name"], c["elapsed"]) for c in sec4["certificates"])
    records["trace_automaton"] = sec4["trace_automaton"]["elapsed"]
    word = next(theorem_setup.enumerate_constrained(2))
    records["trace_word"] = trace_word(theorem_setup, word).elapsed
    assert len(sec4["certificates"]) == 13 and len(quad["reports"]) == 5
    assert {name for name, elapsed in records.items()
            if not _by_runner(elapsed)} == set()


def test_elapsed_keeps_the_clock_resolution(monkeypatch):
    """A span far below a millisecond reads as itself, not 0.0: on a
    certificate's and a sweep's dict and on a suite dict."""
    ticks = itertools.count()
    monkeypatch.setattr(certs, "clock", lambda: next(ticks) * 0.0004)

    @certs.timed
    def certificate():
        return certs.Certificate("c")

    @certs.timed
    def sweep():
        return certs.SweepReport("lemma", 0)

    @certs.timed
    def suite():
        return {"suite": "s"}

    spans = [certificate().to_dict()["elapsed"], sweep().to_dict()["elapsed"],
             suite()["elapsed"]]
    assert spans == [pytest.approx(0.0004, rel=1e-9)] * 3


def test_require_counts_every_item_and_records_the_failing_ones():
    rep = certs.SweepReport("lemma", 0)
    for i in range(5):
        rep.require(i % 2 == 0, item=i, parity="odd")
    assert rep.tuples_checked == 5 and not rep.passed
    assert rep.violations == [{"item": 1, "parity": "odd"},
                              {"item": 3, "parity": "odd"}]


def test_expect_notes_its_value_and_records_a_mismatch():
    rep = certs.SweepReport("lemma", 0)
    rep.expect("holds", 3, 3)
    rep.expect("fails", [1, 2], [2, 3])
    assert rep.tuples_checked == 2 and rep.notes == {"holds": 3, "fails": [1, 2]}
    assert rep.violations == [{"item": "fails", "expected": [2, 3], "got": [1, 2]}]
    assert list(rep.violations[0]) == ["item", "expected", "got"]
