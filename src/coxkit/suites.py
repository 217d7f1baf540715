"""Suite runners shared by the command line and the acceptance tests.

Each runner returns a JSON-ready dict with a top-level "pass" flag;
emit_report aggregates them into one deterministic document (equal runs
differ only in the elapsed fields).
"""

from __future__ import annotations

import coxkit
from coxkit import lemmas
from coxkit.blueprint import BlueprintError, GroupCache, gallery_independence
from coxkit.certs import timed
from coxkit.coxeter import Coxeter
from coxkit.pipeline import section4_pipeline
from coxkit.quadrangle import build_model, verify_rt_relabel
from coxkit.reduction import TheoremSetup, trace_automaton

BALL_PINS = {2: 10, 4: 43}


@timed
def run_coxeter(ctx: Coxeter, radius: int) -> dict:
    out = {"suite": "coxeter", "radius": radius}
    balls = []
    ok = True
    for L in range(radius + 1):
        got = len(ctx.ball(L))
        oracle = ctx.ball_oracle_size(L)
        pinned = BALL_PINS.get(L)
        good = got == oracle and (pinned is None or got == pinned)
        ok = ok and good
        balls.append({"radius": L, "size": got, "oracle": oracle, "pass": good})
    out["ball_checks"] = balls
    sweeps = {}
    # a sweep over balls that the series rejects checks nothing, and on
    # such a kernel it can raise (KernelError, RootSystemError) mid-sweep
    if ok:
        for name, (fn, sweep_radius) in lemmas.SWEEPS.items():
            rep = fn(ctx, sweep_radius)
            sweeps[name] = rep.to_dict()
            ok = ok and rep.passed
    out["sweeps"] = sweeps
    out["pass"] = ok
    return out


@timed
def run_blueprint(ctx: Coxeter, max_length: int) -> dict:
    out = {"suite": "blueprint", "max_length": max_length}
    cache = GroupCache(ctx)
    problems = []
    for w in ctx.ball(max_length):
        try:
            cache.group(w)
        except BlueprintError as exc:
            problems.append({"w": w, "error": str(exc)})
    ok = not problems
    out["groups_certified"] = len(ctx.ball(max_length)) - len(problems)
    gi_bound = max(0, min(max_length - 1, 6))
    gi_fail = [w for w in ctx.ball(gi_bound) if not gallery_independence(cache, w)]
    ok = ok and not gi_fail
    out["gallery_independence_radius"] = gi_bound
    out["gallery_independence_failures"] = gi_fail
    v = cache.v_subgroup("", "st")
    amb = cache.group("stst")
    us, ut = (amb.root_mask(cache.rsys.simple(x)) for x in "st")
    listing = {0, us, ut, amb.mul(us, ut), amb.mul(ut, us),
               amb.mul(amb.mul(us, ut), us), amb.mul(amb.mul(ut, us), ut),
               amb.mul(amb.mul(us, ut), amb.mul(us, ut))}
    v_ok = v == listing and v.order == 8 \
        and amb.order // v.order == 2
    ok = ok and v_ok
    out["v_listing"] = v_ok
    out["problems"] = problems
    out["pass"] = ok
    return out


@timed
def run_quadrangle() -> dict:
    out = {"suite": "quadrangle"}
    model = build_model(("s", "t"))
    facts = {"group": len(model.elems), "borel": len(model.borel_plus),
             "chambers": len(model.chambers(-1)),
             "panel": len(model.panel(model.c_minus, "s"))}
    ok = facts == {"group": 720, "borel": 16, "chambers": 45, "panel": 3}
    out["model"] = {**facts, "pass": ok}
    reports = {}
    for name, rep in (("axioms", model.verify_axioms()),
                      ("diagram", model.verify_diagram()),
                      ("uplus", model.verify_lemma_uplus()),
                      ("root_fixings", model.verify_root_group_fixings()),
                      ("rt_relabel", verify_rt_relabel())):
        reports[name] = rep.to_dict()
        ok = ok and rep.passed
    out["reports"] = reports
    out["pass"] = ok
    return out


@timed
def run_section4(ctx: Coxeter, residues: list | None = None) -> dict:
    out = {"suite": "section4"}
    cache = GroupCache(ctx)
    certs = section4_pipeline(cache, residues)
    out["certificates"] = [c.to_dict() for c in certs]
    out["assumptions"] = sorted({a for c in certs for a in c.assumptions})
    automaton = trace_automaton(TheoremSetup(cache))
    out["trace_automaton"] = automaton.to_dict()
    out["pass"] = all(c.passed for c in certs) and automaton.passed
    return out


SUITE_RUNNERS = {
    "coxeter": lambda ctx, cfg: run_coxeter(ctx, cfg["radius"]),
    "blueprint": lambda ctx, cfg: run_blueprint(ctx, cfg["max_length"]),
    "quadrangle": lambda ctx, cfg: run_quadrangle(),
    "section4": lambda ctx, cfg: run_section4(ctx, cfg.get("residues")),
}


def emit_report(results: dict, config: dict) -> dict:
    return {
        "tool": f"coxkit {coxkit.__version__}",
        "config": {k: config[k] for k in sorted(config)},
        "suites": {k: results[k] for k in sorted(results)},
        "pass": all(r.get("pass") for r in results.values()),
    }
