"""Acceptance gate: every criterion, exact tolerances, one line each.

Run with -s to see the per-criterion lines as they pass:
    pytest tests/test_acceptance.py -s
"""

import itertools
import random
import time

from coxkit import lemmas
from coxkit.blueprint import gallery_independence
from coxkit.pipeline import section4_pipeline
from coxkit.reduction import trace_automaton, trace_word
from walks import random_word


def _criterion(name: str, ok: bool, elapsed: float, cap: float) -> None:
    status = "PASS" if ok and elapsed < cap else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.1f}s / cap {cap:.0f}s)",
          flush=True)
    assert ok, name
    assert elapsed < cap, f"{name} exceeded its runtime cap"


def test_acceptance_coxeter_kernel(ctx):
    t0 = time.perf_counter()
    ok = True
    for radius in range(9):
        got = len(ctx.ball(radius))
        ok = ok and got == ctx.ball_oracle_size(radius)
    ok = ok and len(ctx.ball(2)) == 10 and len(ctx.ball(4)) == 43
    _criterion("coxeter-kernel", ok, time.perf_counter() - t0, 60)


def test_acceptance_lemma_sweeps(ctx):
    t0 = time.perf_counter()
    ok = True
    for name, (fn, default) in lemmas.SWEEPS.items():
        rep = fn(ctx, default)
        ok = ok and rep.passed and rep.tuples_checked > 0
    for name, mutants in lemmas.MUTANTS.items():
        fn = lemmas.SWEEPS[name][0]
        for mutant in mutants:
            ok = ok and len(fn(ctx, 4, mutant=mutant).violations) >= 1
    _criterion("lemma-sweeps", ok, time.perf_counter() - t0, 300)


def test_acceptance_blueprint(ctx, cache):
    t0 = time.perf_counter()
    ok = True
    for w in ctx.ball(7):
        grp = cache.group(w)
        ok = ok and grp.order == 2 ** len(w)
        try:
            grp.certify_order()
        except Exception:   # noqa: BLE001
            ok = False
    for w in ctx.ball(6):
        ok = ok and gallery_independence(cache, w)
    v = cache.v_subgroup("", "st")
    g = cache.group("stst")
    us, ut = g.root_mask(g.roots[0]), g.root_mask(g.roots[3])
    listing = {0, us, ut, g.mul(us, ut), g.mul(ut, us),
               g.mul(g.mul(us, ut), us), g.mul(g.mul(ut, us), ut),
               g.mul(g.mul(us, ut), g.mul(us, ut))}
    ok = ok and frozenset(v.elements()) == frozenset(listing) \
        and g.order // v.order == 2
    _criterion("blueprint-suite", ok, time.perf_counter() - t0, 180)


def test_acceptance_quadrangle():
    from coxkit.quadrangle import TwinModel, verify_rt_relabel
    t0 = time.perf_counter()
    model = TwinModel(("s", "t"))
    ok = (len(model.elems) == 720 and len(model.borel_plus) == 16
          and len(model.chambers(-1)) == 45
          and len(model.panel(model.c_minus, "s")) == 3)
    ok = ok and model.verify_axioms().passed
    ok = ok and model.verify_diagram().passed
    uplus = model.verify_lemma_uplus()
    ok = ok and uplus.passed
    ok = ok and uplus.notes["a.i l(c_s, c_s.u_t)"] == 3
    ok = ok and uplus.notes["b.iii l(c_s, c_t.u_su_t)"] == 4
    relabel = verify_rt_relabel()
    ok = ok and relabel.passed
    ok = ok and relabel.notes["delta(c, c.u_rt)"] == "rtr"
    ok = ok and relabel.notes["delta(c, c.u_rt u_tr)"] == "rtrt"
    _criterion("quadrangle-model", ok, time.perf_counter() - t0, 60)


def _product_battery(product, rng, rounds=10000):
    for _ in range(rounds):
        word = random_word(product, rng, rng.randint(1, 5))
        if not word:
            continue
        el = product.eval_word(word)
        if product.is_identity(el):
            return False
        if not product.is_identity(product.mul(el, product.inv(el))):
            return False
        again = product.eval_word(word)
        if el != again:
            return False
    return True


def test_acceptance_bass_serre(ctx, cache, theorem_setup):
    from coxkit.constructions import Builder
    from coxkit.treeprod import TreeProduct, contract

    t0 = time.perf_counter()
    rng = random.Random(123)
    builder = Builder(cache)
    R = ctx.residue("st", "")
    products = {
        "U_sr*V*U_trt": theorem_setup.product,
        "V_R": TreeProduct(builder.construction("V_R", R).tog),
        "O_R": TreeProduct(builder.construction("O_R", R).tog),
    }
    ok = all(_product_battery(p, rng) for p in products.values())

    # contract round-trip word counts at syllable lengths <= 4
    vr = builder.construction("V_R", R)
    P = TreeProduct(vr.tog)
    tog2, name, sub = contract(vr.tog, {"v1", "v2"})
    P2 = TreeProduct(tog2)

    def count(product, translate):
        seen = set()
        for length in range(5):
            for vs in itertools.product(("v0", "v1", "v2"), repeat=length):
                if any(vs[i] == vs[i + 1] for i in range(len(vs) - 1)):
                    continue
                pools = [sorted(vr.tog.vertices[v].elements()) for v in vs]
                for letters in itertools.product(*pools):
                    word = list(zip(vs, letters))
                    seen.add(product.eval_word(translate(word)))
        return len(seen)

    n1 = count(P, lambda word: word)
    n2 = count(P2, lambda word: [
        (name, sub.include(v, x)) if v in ("v1", "v2") else (v, x)
        for v, x in word])
    ok = ok and n1 == n2
    _criterion("bass-serre-engine", ok, time.perf_counter() - t0, 300)


def test_acceptance_theorem_reduction(theorem_setup):
    from coxkit.reduction import G_LETTERS

    s = theorem_setup
    t0 = time.perf_counter()
    rng = random.Random(7)
    velems = sorted(s._v_words)
    ok = True
    for _ in range(10000):
        n = rng.randint(1, 6)
        pairs = tuple((rng.choice(G_LETTERS), rng.choice(velems))
                      for _ in range(n))
        out, steps = s.reduce((rng.choice(velems), pairs))
        ok = ok and s.constrained(out)
    # constrained words of every length, then the battery on its table
    automaton = trace_automaton(s)
    ok = ok and automaton.passed and (
        automaton.data["states"], automaton.data["base_entries"],
        automaton.data["transitions"]) == (24, 32, 656)
    count = 0
    for word in s.enumerate_constrained(3):   # syllable length <= 6
        count += 1
        if s.product.is_identity(s.eval_word(word)):
            ok = False
            break
        cert = trace_word(s, word)
        if not (cert.passed and cert.data["final_counter"] > 0):
            ok = False
            break
    ok = ok and count == 24320
    _criterion("theorem-reduction", ok, time.perf_counter() - t0, 300)


def test_acceptance_section4(cache):
    t0 = time.perf_counter()
    certs = section4_pipeline(cache)
    ok = all(c.passed for c in certs)
    by_name = {c.name: c for c in certs}
    colimit = by_name["colimit_generating_data"]
    descriptions = {c["description"]: c["status"] for c in colimit.checks}
    for want in ("the two-letter colimit has seven generators",
                 "the middle colimit has nine generators",
                 "twelve generators indexed by the r_J groups",
                 "fifteen generators indexed by the r*r_J groups",
                 "fifteen roots do not contain all of C_0"):
        ok = ok and descriptions.get(want, False)
    # D lists
    ok = ok and all(descriptions_startswith
                    for descriptions_startswith in
                    [any(d.startswith(f"D_{tag} matches") and v
                         for d, v in descriptions.items())
                     for tag in ("r", "-1", "0")])
    # assumption-tagged certificates are exactly the colimit-dependent ones
    tagged = {c.name for c in certs if c.assumptions}
    ok = ok and all(name.startswith(("VRs_to_ORs", "KRs_cap_Gminus1",
                                     "OtoG-1", "OtoG0", "MainApplication"))
                    for name in tagged)
    keywords = ("colimit", "word problem", "infinite V_R", "G_{-1}")
    for c in certs:
        for assumption in c.assumptions:
            ok = ok and any(k in assumption for k in keywords)
    _criterion("section4-pipeline", ok, time.perf_counter() - t0, 300)
