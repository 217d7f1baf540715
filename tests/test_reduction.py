import copy
import gc
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from coxkit import reduction
from coxkit.blueprint import GroupCache
from coxkit.certs import Certificate
from coxkit.coxeter import Coxeter
from coxkit.quadrangle import TwinModel
from coxkit.reduction import (G_LETTERS, KIND, KLEIN, RT, RTTR, SR, TR,
                              ConstraintError, TraceError, _trace_base,
                              _trace_step, trace_automaton, trace_word)


def test_tree_product_shape(theorem_setup):
    s = theorem_setup
    assert s.U_sr.order == 4
    assert s.V.order == 8
    assert s.U_trt.order == 8
    # the Klein triple inside U_trt
    assert s.U_trt.mul(s.u_tr, s.u_rt) == s.U_trt.mul(s.u_rt, s.u_tr)


def test_setup_works_in_the_context_of_its_cache():
    # a setup over a cache of its own context mixes no second kernel in
    cache = GroupCache(Coxeter())
    setup = reduction.TheoremSetup(cache)
    assert setup.ctx is setup.cache.ctx is cache.ctx


def test_generators_are_named_by_their_roots(theorem_setup):
    """u_s, u_t, u_sr, u_tr and u_rt are the generators at alpha_s,
    alpha_t, s*alpha_r, t*alpha_r and r*alpha_t, which are the roots the
    canonical galleries of stst, sr and trt cross at these positions."""
    s = theorem_setup
    amb, U_sr, U_trt = s.ambientV, s.U_sr, s.U_trt
    assert (s.us, s.ut) == (amb.root_mask(amb.roots[0]),
                            amb.root_mask(amb.roots[3]))
    assert s.u_sr == U_sr.root_mask(U_sr.roots[1])
    assert (s.u_t_trt, s.u_tr, s.u_rt) == tuple(
        U_trt.root_mask(root) for root in U_trt.roots)
    assert s.v_word(s.v_mask("tsts")) == "stst"


def test_parse_and_format(theorem_setup):
    s = theorem_setup
    word = s.parse("u_sr,1,u_sr,u_t")
    assert word[0] == 0 and len(word[1]) == 2
    assert s.format_word(word) == "u_sr,1,u_sr,u_t"
    word = s.parse("u_s*u_t,u_rt*u_tr,u_t")
    assert word[0] == s.v_mask("st")
    with pytest.raises(ConstraintError):
        s.parse("u_s,u_t")   # two V letters in a row


@pytest.mark.parametrize("text", ["u_sr,1,u_t", "u_sr,1,1", "u_sr,u_s,u_t"])
def test_parse_refuses_a_second_v_letter_after_1(theorem_setup, text):
    # 1 is a V letter given, not a missing one
    with pytest.raises(ConstraintError, match="two V letters in a row"):
        theorem_setup.parse(text)


def test_parse_keeps_1_as_the_v_letter_of_its_pair(theorem_setup):
    s = theorem_setup
    word = s.parse("u_sr,1,u_sr,u_t")
    assert word == (0, (("u_sr", 0), ("u_sr", s.v_mask("t"))))
    assert s.parse("u_sr,u_tr") == (0, (("u_sr", 0), ("u_tr", 0)))


def test_reduce_rule_a(theorem_setup):
    s = theorem_setup
    out, steps = s.reduce(s.parse("u_sr,1,u_sr,u_t"))
    assert steps == 1
    assert s.format_word(out) == "u_t"


def test_reduce_rule_b_merge(theorem_setup):
    s = theorem_setup
    out, steps = s.reduce(s.parse("u_rt,u_t,u_tr"))
    assert steps == 1
    h0, pairs = out
    assert len(pairs) == 1 and pairs[0][0] == RTTR


def test_reduce_fixed_point(theorem_setup):
    s = theorem_setup
    word = s.parse("u_sr,u_t,u_tr,u_s")
    out, steps = s.reduce(word)
    assert steps == 0 and out == word


def test_reduce_battery(theorem_setup):
    s = theorem_setup
    rng = random.Random(11)
    velems = sorted(s._v_words)
    for _ in range(10000):
        n = rng.randint(1, 6)
        pairs = tuple((rng.choice((SR, TR, RT, RTTR)), rng.choice(velems))
                      for _ in range(n))
        word = (rng.choice(velems), pairs)
        out, steps = s.reduce(word)   # element preservation asserted inside
        assert s.constrained(out)
        assert len(out[1]) <= n


def test_constrained_enumeration_counts(theorem_setup):
    s = theorem_setup
    words = list(s.enumerate_constrained(2))
    assert len(words) == 32 + 864
    assert all(s.constrained(w) for w in words)


def _constrained_by_generators(s, max_pairs):
    """The oracle: the recursive generator that enumerate_constrained was
    before it became a table walk."""
    V, blocked = sorted(s._v_words), s._blocked

    def extend(pairs, n):
        if pairs:
            yield (0, tuple(pairs))
        if n == 0:
            return
        for g in G_LETTERS:
            if pairs and (*pairs[-1], g) in blocked:
                continue
            for h in V:
                yield from extend(pairs + [(g, h)], n - 1)

    yield from extend([], max_pairs)


def test_enumeration_walk_matches_the_generator_oracle(cache, theorem_setup):
    """The same words in the same order for n = 0...3, also under one
    more clause; the n = 3 order is pinned by the sha256 of the reprs."""
    for n, count in enumerate((0, 32, 896, 24320)):
        words = list(theorem_setup.enumerate_constrained(n))
        assert len(words) == count
        assert words == list(_constrained_by_generators(theorem_setup, n))
    digest = hashlib.sha256()
    for word in words:
        digest.update(repr(word).encode())
    assert digest.hexdigest().startswith("b67ea600")
    x = _ExtraClause(cache)
    assert (list(x.enumerate_constrained(2))
            == list(_constrained_by_generators(x, 2)))


def test_enumeration_leaves_no_reference_cycle(theorem_setup):
    """A walk that ties the word list into a cycle (a nested function that
    calls itself through its closure) keeps it alive until a collection,
    which raised trace's peak RSS past its bound."""
    gc.collect()
    words = list(theorem_setup.enumerate_constrained(3))
    del words
    assert gc.collect() == 0


def test_trace_base_cases(theorem_setup):
    s = theorem_setup
    cert = trace_word(s, s.parse("u_sr,u_s"))
    assert cert.passed and cert.data["final_counter"] == 2
    cert = trace_word(s, s.parse("u_rt,u_t"))
    assert cert.passed and cert.data["final_counter"] == 3
    cert = trace_word(s, s.parse("u_rt*u_tr,u_t"))
    assert cert.passed


def test_trace_counter_strictly_increases(theorem_setup):
    s = theorem_setup
    cert = trace_word(s, s.parse("u_sr,u_t,u_sr,u_s,u_tr,1"))
    assert cert.passed
    counters = cert.data["counters"]
    assert all(b > a for a, b in zip(counters, counters[1:]))
    assert cert.data["final_counter"] > 0


def test_trace_rejects_bad_words(theorem_setup):
    s = theorem_setup
    with pytest.raises(ConstraintError):
        trace_word(s, s.parse("u_sr,1,u_sr,u_t"))   # violates the constraint
    with pytest.raises(ConstraintError):
        trace_word(s, s.parse("u_s,u_sr,u_t"))      # leading V letter
    with pytest.raises(ConstraintError):
        trace_word(s, (0, ()))


@pytest.mark.parametrize("word", [
    (0, (("u_xx", 0),)),                                  # unknown g letter
    (0, (("u_sr", 99),)),                                 # h not in V
    (0, (("u_sr", 0), ("u_tr", 99), ("u_rt", 0))),        # h not in V, mid-word
])
def test_trace_rejects_letters_outside_the_alphabet(theorem_setup, word):
    with pytest.raises(ConstraintError):
        trace_word(theorem_setup, word)


@pytest.mark.parametrize("word", [
    (0, (("u_sr", 2),)),      # an element of U_stst, not of V
    (0, (("u_sr", 99),)),     # no element of U_stst either
    (2, (("u_sr", 0),)),      # h0 outside V
])
def test_reduce_and_eval_word_reject_h_letters_outside_v(theorem_setup, word):
    assert sorted(theorem_setup._v_words) == [0, 1, 6, 7, 8, 9, 14, 15]
    with pytest.raises(ConstraintError, match="is not an element of V"):
        theorem_setup.reduce(word)
    with pytest.raises(ConstraintError, match="is not an element of V"):
        theorem_setup.eval_word(word)


def test_g_letters_are_read_from_one_table(theorem_setup):
    s = theorem_setup
    assert s._g_letters == {
        SR: ("0", 2), TR: ("2", 2), RT: ("2", 4), RTTR: ("2", 6)}
    assert s._g_letters[RTTR][1] == s.U_trt.mul(s.u_rt, s.u_tr)
    with pytest.raises(ConstraintError, match="unknown g letter 'u_ss'"):
        s.eval_word((0, (("u_ss", 0),)))


# malformed words and the ConstraintError text each entry point gives,
# None where it takes the word; the first refusal in reading order wins
REFUSALS = [
    ((2, ((SR, 0),)), "h letter 2 is not an element of V",
     "trace expects words without a leading V letter"),
    ((0, (("u_ss", 1),)), "unknown g letter 'u_ss'", "unknown g letter 'u_ss'"),
    ((0, (("u_ss", 99),)), "unknown g letter 'u_ss'",
     "unknown g letter 'u_ss'"),
    ((0, ((SR, 1), ("u_ss", 99))), "unknown g letter 'u_ss'",
     "unknown g letter 'u_ss'"),
    ((99, (("u_ss", 1),)), "h letter 99 is not an element of V",
     "trace expects words without a leading V letter"),
    ((0, ((SR, None),)), "h letter None is not an element of V",
     "h letter None is not an element of V"),
    ((1, ((SR, 1),)), None, "trace expects words without a leading V letter"),
    ((0, ()), None, "trace needs at least one g letter"),
    ((0, ((SR, 0), (SR, 1))), None, "word violates the constraint clauses"),
    # letter errors come before the constraint error
    ((0, ((SR, 0), (SR, 1), ("u_ss", 1))), "unknown g letter 'u_ss'",
     "unknown g letter 'u_ss'"),
]


@pytest.mark.parametrize("word, eval_text, trace_text", REFUSALS)
def test_refusal_messages_are_pinned(theorem_setup, word, eval_text,
                                     trace_text):
    s = theorem_setup
    for call, text in ((s.eval_word, eval_text), (s.reduce, eval_text),
                       (lambda w: trace_word(s, w), trace_text)):
        if text is None:
            call(word)
            continue
        with pytest.raises(ConstraintError) as info:
            call(word)
        assert str(info.value) == text


def test_v_is_the_memoized_root_subgroup(cache, theorem_setup):
    alpha_s, alpha_t = cache.rsys.simple("s"), cache.rsys.simple("t")
    v = cache.v_subgroup("", "st")
    assert v is cache.root_subgroup(cache.group("stst"), (alpha_s, alpha_t))
    assert theorem_setup.V is v
    assert set(theorem_setup._v_words) == v


def test_trace_all_short_words(theorem_setup):
    s = theorem_setup
    for word in s.enumerate_constrained(2):
        cert = trace_word(s, word)
        assert cert.passed, s.format_word(word)
        assert not s.product.is_identity(s.eval_word(word))


def test_trace_certificates_digest(theorem_setup):
    """Every certificate of the 896 constrained words with at most two
    pairs, apart from its elapsed time, pinned byte for byte."""
    s = theorem_setup
    digest = hashlib.sha256()
    count = 0
    for word in s.enumerate_constrained(2):
        doc = trace_word(s, word).to_dict()
        del doc["elapsed"]
        digest.update(json.dumps(doc, sort_keys=True).encode())
        count += 1
    assert count == 896
    assert digest.hexdigest() == (
        "604b908efd5d66776e1379b2dd5b318e0a4389bb94959d50e75742ae7a8ed40f")


def test_trace_step_is_a_finite_transition_table(theorem_setup):
    """The proof step reads only its state (kind, h) and the next g
    letter: at positions 2 and 7 it gives the same case, increment and
    checks on each of the 82 allowed (state, g) steps of the 24 states,
    every increment is positive, the 8 V letters after each step give the
    656 transitions, and every state is reached."""
    s = theorem_setup
    velems = sorted(s._v_words)
    last_g = {"A:s": SR, "A:t": TR, "B": RT}
    states = [(kind, h) for kind in last_g for h in velems]
    reached = set()
    steps = 0
    for (kind, h), g in itertools.product(states, G_LETTERS):
        if s.blocked(last_g[kind], h, g):
            continue
        steps += 1
        runs = []
        for n in (2, 7):
            cert = Certificate("step")
            case, increment = _trace_step(s, cert, n, (kind, h), g)
            runs.append((case, increment,
                         [(c["status"], c.get("data")) for c in cert.checks]))
        assert runs[0] == runs[1], ((kind, h), g)
        _, increment, checks = runs[0]
        assert increment >= 1 and all(status for status, _ in checks)
        reached |= {(KIND[g], h2) for h2 in velems}
    assert steps == 82
    assert steps * len(velems) == 656
    assert reached == set(states)


def test_trace_table_runs_one_proof_step_per_state_and_g_letter(
        monkeypatch, cache, theorem_setup):
    """One table build calls _trace_step exactly once per allowed
    (state, g): 82 calls for its 656 transitions."""
    real = reduction._trace_step
    calls = []

    def step(setup, cert, n, state, g):
        calls.append((state, g))
        return real(setup, cert, n, state, g)

    monkeypatch.setattr(reduction, "_trace_step", step)
    table = reduction.TheoremSetup(cache).trace_table
    assert len(calls) == len(set(calls)) == 82
    assert len(table.steps) == 656
    assert set(calls) == {(state, g) for state, (g, _) in table.steps}


def test_blocked_is_the_two_constraint_clauses(theorem_setup):
    s = theorem_setup
    count = 0
    for g, h, g2 in itertools.product(G_LETTERS, sorted(s._v_words), G_LETTERS):
        clause_a = g == g2 == SR and h in (0, s.us)
        clause_b = g in KLEIN and g2 in KLEIN and h in (0, s.ut)
        assert s.blocked(g, h, g2) == (clause_a or clause_b), (g, h, g2)
        count += s.blocked(g, h, g2)
    assert count == 2 + 9 * 2


def test_blocked_table_is_blocked_tabulated(theorem_setup):
    s = theorem_setup
    triples = list(itertools.product(G_LETTERS, sorted(s._v_words), G_LETTERS))
    assert len(triples) == 4 * 8 * 4
    assert s._blocked == {t for t in triples if s.blocked(*t)}
    # a letter outside the alphabet or an h outside V is never blocked
    strays = [(SR, 0, "u_ss"), ("u_ss", 0, SR), (SR, 99, SR), (TR, 99, RT),
              (TR, None, RT)]
    assert not any(s.blocked(*t) for t in strays)
    assert not any(t in s._blocked for t in strays)
    assert s.constrained((0, ((SR, 99), (SR, 0))))


class _ExtraClause(reduction.TheoremSetup):
    """The standard setup with one more clause: u_sr u_t u_sr."""

    def blocked(self, g, h, g2):
        return super().blocked(g, h, g2) or (g == g2 == SR and h == self.ut)


def test_an_extra_clause_reaches_every_reader_of_the_table(cache,
                                                            theorem_setup):
    s, x = theorem_setup, _ExtraClause(cache)
    assert x._blocked == s._blocked | {(SR, s.ut, SR)}
    word = (0, ((SR, s.ut), (SR, 0)))
    assert s.constrained(word) and not x.constrained(word)
    assert s.allowed_after(("A:s", s.ut), SR)
    assert not x.allowed_after(("A:s", s.ut), SR)
    assert s.reduce(word) == (word, 0)
    # reduce rewrites at the new clause, as if u_sr commuted with u_t,
    # and its element check refuses the result
    with pytest.raises(reduction.ReductionError, match="changed the element"):
        x.reduce(word)


# a wrong Klein product makes rule b.ii change the element; under -O an
# assert would let that through
KLEIN_UNDER_O = """
from coxkit import reduction
reduction._KLEIN_MUL = {pair: reduction.TR for pair in reduction._KLEIN_MUL}
setup = reduction.TheoremSetup()
try:
    setup.reduce(setup.parse("u_tr,1,u_rt"))
except reduction.ReductionError:
    print("raised")
"""


def test_reduction_check_survives_optimize(run_optimized):
    out = run_optimized(KLEIN_UNDER_O)
    assert out.returncode == 0 and out.stdout.strip() == "raised"


def _direct_fold(s, word):
    """trace_word's replay written out on _trace_base and _trace_step,
    every entry computed afresh: the oracle for the table fold."""
    _, pairs = word
    cert = Certificate("oracle")
    counter, state = _trace_base(s, cert, *pairs[0])
    counters, cases = [counter], []
    for n, (g, h) in enumerate(pairs[1:], start=2):
        case, increment = _trace_step(s, cert, n, state, g)
        state = (KIND[g], h)
        counter += increment
        counters.append(counter)
        cases.append(case)
    return counters, cases, counter, cert.checks


def _assert_table_fold_matches(s, words):
    for word in words:
        cert = trace_word(s, word)
        counters, cases, final, checks = _direct_fold(s, word)
        assert cert.data["counters"] == counters, word
        assert cert.data.get("cases", []) == cases, word
        assert cert.data["final_counter"] == final, word
        # the last two checks are the final counter and the independent one
        assert cert.checks[:-2] == checks, word


def test_trace_table_fold_matches_direct_fold_on_two_pairs(theorem_setup):
    s = theorem_setup
    words = list(s.enumerate_constrained(2))
    assert len(words) == 896
    _assert_table_fold_matches(s, words)


def test_trace_table_fold_matches_direct_fold_on_four_pairs(theorem_setup):
    """A seeded uniform sample of the constrained words with exactly four
    pairs, which the acceptance battery (at most three) never reaches."""
    s = theorem_setup
    letters = list(itertools.product(G_LETTERS, sorted(s._v_words)))
    # count the words by their last pair, from the constraint clauses alone
    ending = {pair: 1 for pair in letters}
    counts = [len(ending)]
    for _ in range(3):
        ending = {(g2, h2): sum(count for (g, h), count in ending.items()
                                if not s.blocked(g, h, g2))
                  for g2, h2 in letters}
        counts.append(sum(ending.values()))
    assert counts == [32, 864, 23424, 634752]
    assert sum(counts) == 659072   # enumerate_constrained(4)
    _assert_table_fold_matches(s, _four_pair_sample(s))


def _four_pair_sample(s):
    """2,000 constrained words with exactly four pairs, drawn uniformly
    with a fixed seed."""
    letters = list(itertools.product(G_LETTERS, sorted(s._v_words)))
    rng = random.Random(4)
    words = []
    while len(words) < 2000:
        word = (0, tuple(rng.choice(letters) for _ in range(4)))
        if s.constrained(word):
            words.append(word)
    return words


def test_trace_automaton_certifies_the_table(theorem_setup):
    cert = trace_automaton(theorem_setup)
    assert cert.passed and len(cert.checks) == 3
    assert (cert.data["states"], cert.data["base_entries"],
            cert.data["transitions"]) == (24, 32, 656)
    assert cert.data["header"].startswith("proof replay")


def _steps(word):
    """The (state, g) proof steps a word's trace goes through."""
    _, pairs = word
    state = (KIND[pairs[0][0]], pairs[0][1])
    for g, h in pairs[1:]:
        yield state, g
        state = (KIND[g], h)


def _mutant_setup(monkeypatch, cache, target, mutate):
    """A fresh TheoremSetup whose trace table was built with _trace_step
    altered on the one (state, g) step target."""
    real = reduction._trace_step

    def step(setup, cert, n, state, g):
        out = real(setup, cert, n, state, g)
        return mutate(cert, out) if (state, g) == target else out

    monkeypatch.setattr(reduction, "_trace_step", step)
    setup = reduction.TheoremSetup(cache)
    setup.trace_table
    monkeypatch.undo()
    return setup


def _zero_increment(cert, out):
    case, _ = out
    return case, 0


def _flip_one_check(cert, out):
    cert.checks[0]["status"] = not cert.checks[0]["status"]
    return out


@pytest.mark.parametrize("mutate", [_zero_increment, _flip_one_check])
def test_trace_mutants_fire(monkeypatch, cache, theorem_setup, mutate):
    s = theorem_setup
    target = (("A:t", s.us), SR)
    mutant = _mutant_setup(monkeypatch, cache, target, mutate)
    assert not trace_automaton(mutant).passed
    using = [w for w in s.enumerate_constrained(3) if target in _steps(w)]
    # every V letter after the step: all 8 of its transitions are broken
    assert {w[1][1][1] for w in using if len(w[1]) == 2} == set(s._v_words)
    for word in using:
        if mutate is _zero_increment:
            with pytest.raises(TraceError):
                trace_word(mutant, word)
        else:
            assert not trace_word(mutant, word).passed, word
    avoiding = [w for w in s.enumerate_constrained(2) if target not in _steps(w)]
    assert len(avoiding) > len(using)
    for word in avoiding:
        assert trace_word(mutant, word).passed, word


# mutant 1 under -O: the zero increment still fails the automaton and
# raises in trace_word, and a word that avoids the step still passes
ZERO_INCREMENT_UNDER_O = """
from coxkit import reduction
real = reduction._trace_step
def step(setup, cert, n, state, g):
    case, increment = real(setup, cert, n, state, g)
    return case, 0 if (state, g) == (("B", 0), reduction.SR) else increment
reduction._trace_step = step
setup = reduction.TheoremSetup()
print("automaton", reduction.trace_automaton(setup).passed)
for word in ("u_rt,1,u_sr,1", "u_rt,1,u_sr,u_s*u_t"):
    try:
        reduction.trace_word(setup, setup.parse(word))
    except reduction.TraceError:
        print("raised")
print("avoiding", reduction.trace_word(setup, setup.parse("u_rt,u_s,u_sr,1")).passed)
"""


def test_trace_increment_check_survives_optimize(run_optimized):
    out = run_optimized(ZERO_INCREMENT_UNDER_O)
    assert out.returncode == 0
    assert out.stdout.split("\n")[:4] == [
        "automaton False", "raised", "raised", "avoiding True"]


def test_trace_word_reads_the_table_only(monkeypatch, theorem_setup):
    s = theorem_setup
    s.trace_table
    calls = []
    for name in ("dist", "weyl_distance", "panel", "act"):
        real = getattr(TwinModel, name)

        def counting(*args, _real=real, _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(TwinModel, name, counting)
    words = list(s.enumerate_constrained(2))
    for word in words:
        trace_word(s, word)
    assert calls == []
    # the probe sees the model queries of a table build
    reduction.TheoremSetup(s.cache).trace_table
    assert {"dist", "weyl_distance", "panel", "act"} <= set(calls)


def test_trace_certificates_share_nothing_with_the_table(theorem_setup):
    s = theorem_setup
    word = s.parse("u_sr,u_t,u_rt,u_s,u_sr,u_s*u_t")
    first = trace_word(s, word)
    want = copy.deepcopy(first.to_dict())
    del want["elapsed"]
    assert any(isinstance(v, list) for c in first.checks
               for v in c.get("data", {}).values())
    for check in first.checks:
        check["status"] = not check["status"]
        check["description"] += " (edited)"
        for value in check.get("data", {}).values():
            if isinstance(value, list):
                value.append("edited")
    first.checks.append({"description": "extra", "status": False})
    for value in first.data.values():
        if isinstance(value, list):
            value.append(0)
    again = trace_word(s, word).to_dict()
    del again["elapsed"]
    assert again == want


@pytest.mark.parametrize("sample", ["two_pairs", "four_pairs"])
def test_trace_verdict_is_read_before_the_checks(theorem_setup, sample):
    """passed, read before the checks are, is the verdict of the checks
    written out afterwards and of the direct fold: every check of the
    fold, a positive final counter and a nontrivial normal form."""
    s = theorem_setup
    words = (list(s.enumerate_constrained(2)) if sample == "two_pairs"
             else _four_pair_sample(s))
    for word in words:
        cert = trace_word(s, word)
        passed = cert.passed
        assert passed == all(c["status"] for c in cert.checks), word
        _, _, final, checks = _direct_fold(s, word)
        nontrivial = not s.product.is_identity(s.eval_word(word))
        assert passed == (all(c["status"] for c in checks) and final > 0
                          and nontrivial), word


def test_trace_verdict_reads_the_checks_of_its_own(monkeypatch,
                                                  theorem_setup):
    """A failed per-word check fails the verdict before the table checks
    are written out."""
    s = theorem_setup
    word = s.parse("u_sr,u_t,u_rt,u_s")
    monkeypatch.setattr(s.product, "is_identity", lambda el: True)
    cert = trace_word(s, word)
    assert not cert.passed
    assert [c["status"] for c in cert.checks[-2:]] == [True, False]
    assert all(c["status"] for c in cert.checks[:-2])


def test_trace_verdict_stays_when_the_replay_disagrees(monkeypatch, cache):
    """A table built with a failed check on the step from ("B", 0) on
    u_sr, then replayed by the true step: the verdict reads the kept
    statuses and stays False, and the first read of the checks raises
    TraceError instead of giving a second verdict."""
    mutant = _mutant_setup(monkeypatch, cache, (("B", 0), SR), _flip_one_check)
    cert = trace_word(mutant, mutant.parse("u_rt,1,u_sr,1"))
    assert not cert.passed
    with pytest.raises(TraceError, match="step 2 differ"):
        cert.checks
    assert not cert.passed


def test_trace_checks_are_written_out_on_first_read(monkeypatch,
                                                    theorem_setup):
    """trace_word runs no proof step; the first read of checks runs one
    base case and one step per later pair, at its position; a second read
    runs none and returns the same list."""
    s = theorem_setup
    s.trace_table
    calls = []
    for name in ("_trace_base", "_trace_step"):
        real = getattr(reduction, name)

        def counting(setup, cert, *args, _real=real, _name=name):
            calls.append((_name, *args))
            return _real(setup, cert, *args)
        monkeypatch.setattr(reduction, name, counting)
    words = list(s.enumerate_constrained(2)) + _four_pair_sample(s)
    certs = [trace_word(s, word) for word in words]
    assert all(cert.passed for cert in certs) and calls == []
    for (_, pairs), cert in zip(words, certs):
        checks = cert.checks
        state = (KIND[pairs[0][0]], pairs[0][1])
        want = [("_trace_base", *pairs[0])]
        for n, (g, h) in enumerate(pairs[1:], start=2):
            want.append(("_trace_step", n, state, g))
            state = (KIND[g], h)
        assert calls == want and len(checks) > 2
        calls.clear()
        assert cert.checks is checks and calls == []


# passed read before the checks agrees with the checks written out, on a
# clean table and on one with a failed check in the step from the state
# ("B", 0) (V letter 1) on u_sr; no assert stands between the verdict and
# its checks under -O
PASSED_UNDER_O = """
from coxkit import reduction
def agree(setup):
    certs = [reduction.trace_word(setup, word)
             for word in setup.enumerate_constrained(2)]
    early = [cert.passed for cert in certs]
    late = [all(c["status"] for c in cert.checks) for cert in certs]
    print(early == late, len(certs), early.count(False))
agree(reduction.TheoremSetup())
real = reduction._trace_step
def step(setup, cert, n, state, g):
    out = real(setup, cert, n, state, g)
    if (state, g) == (("B", 0), reduction.SR):
        cert.checks[0]["status"] = False
    return out
reduction._trace_step = step
agree(reduction.TheoremSetup())
"""


def test_trace_verdict_survives_optimize(run_optimized):
    out = run_optimized(PASSED_UNDER_O)
    assert out.returncode == 0
    # the failed step is taken by u_rt or u_rt*u_tr, then 1, then u_sr
    # and any of the 8 V letters
    assert out.stdout.split("\n")[:2] == ["True 896 0", "True 896 16"]


def test_kept_trace_certificates_stay_small(theorem_setup):
    """The bytes that 2,000 kept four-pair certificates hold, by
    tracemalloc.  Copying every table check into each certificate held
    about 5.5 KB apiece; the path through the table holds about 1.1 KB."""
    s = theorem_setup
    words = _four_pair_sample(s)
    for word in words:
        # the table and every product cache a trace reads are built now
        trace_word(s, word)
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        certs = [trace_word(s, word) for word in words]
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert held / len(certs) < 2048, held / len(certs)
