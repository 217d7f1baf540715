"""The three workloads.  Each one runs in its own fresh interpreter.

A workload has a set-up (imports are already done by then), a timed
phase that makes the calls a user's run makes, one after another, and a
gate that checks every verdict afterwards.  The program keeps
process-wide memo state (standard_coxeter(), the twin-model registry,
the lru_cache on Coxeter._parabolic), so a second pass in the same
process would measure warm caches; the runner never does that.

Calls go through module attributes (``reduction.trace_word``, not a name
bound at import time), so that probes installed in a traced run see them.
"""

from __future__ import annotations

import itertools
import random
import statistics
import time

from coxkit import coxeter, lemmas, quadrangle, reduction, suites
from coxkit.cli import DEFAULT_SUITES

from gate import (Gate, check_report, check_sweeps, check_twin_model,
                  CONSTRAINED_WORDS, report_digest)

# `coxkit report`: all four suites at radius 8, max_length 7 and the
# default three gate-1 residues (cmd_report's config, which the CLI does
# not name)
REPORT_SUITES = DEFAULT_SUITES
REPORT_CONFIG = {"radius": 8, "max_length": 7}

# sweeps: mingallinrep takes about 3 s at radius 8 and 12 s at radius 9
SWEEP_RADIUS = 8
MUTANT_RADIUS = 4

# trace: a seeded sample of the constrained words, and a seeded stream of
# random alternating words for reduce, near the battery's proportion
# (10000 to 24320) and enough that each p99 has ten latencies above it;
# about 3.5 s together, against about 3 s of set-up
TRACE_WORDS = 2000
REDUCE_WORDS = 1000
TWIN_LETTERS = (("s", "t"), ("r", "t"), ("r", "s"))


def _attempt(gate: Gate, what: str, fn, *args):
    try:
        return fn(*args)
    except Exception as exc:   # noqa: BLE001 - counted as a failed operation
        gate.error(what, exc)
        return None


def _percentile_ms(samples: list, q: int) -> float:
    return statistics.quantiles(samples, n=100)[q - 1] * 1e3


class Report:
    name = "report"

    def setup(self, seed: int):
        return None

    def run(self, fixture, gate: Gate) -> dict:
        ctx = coxeter.standard_coxeter()
        results = {}
        for name in REPORT_SUITES:
            got = _attempt(gate, f"suite {name}", suites.SUITE_RUNNERS[name],
                           ctx, dict(REPORT_CONFIG))
            if got is not None:
                results[name] = got
        return suites.emit_report(results, dict(REPORT_CONFIG))

    def check(self, fixture, doc: dict, gate: Gate) -> dict:
        check_report(gate, doc, REPORT_SUITES)
        return {"digest": report_digest(doc)}

    def derive(self, fixture, doc: dict) -> dict:
        got = doc["suites"]
        out = {}
        subreports = {
            "coxeter": lambda r: r["sweeps"].values(),
            "quadrangle": lambda r: r["reports"].values(),
            "section4": lambda r: r["certificates"],
        }
        unreported = 0.0
        for name, result in got.items():
            out[f"suites.{name}_s"] = result["elapsed"]
            if name in subreports:
                unreported += result["elapsed"] - sum(
                    sub["elapsed"] for sub in subreports[name](result))
        out["suites.unreported_s"] = unreported
        for name, rep in got.get("coxeter", {}).get("sweeps", {}).items():
            out[f"lemmas.{name}_s"] = rep["elapsed"]
            out[f"lemmas.{name}_tuples"] = rep["tuples_checked"]
        certs = got.get("section4", {}).get("certificates", [])
        for cert in certs:
            key = f"pipeline.cert_s.{cert['name'].split('[', 1)[0]}"
            out[key] = out.get(key, 0.0) + cert["elapsed"]
        if certs:
            out["pipeline.checks"] = sum(len(c["checks"]) for c in certs)
        return out


class Sweeps:
    name = "sweeps"

    def setup(self, seed: int):
        return None

    def run(self, fixture, gate: Gate) -> dict:
        ctx = coxeter.Coxeter()
        balls = []
        for radius in range(SWEEP_RADIUS + 1):
            ball = _attempt(gate, f"ball({radius})", ctx.ball, radius)
            oracle = _attempt(gate, f"ball_oracle_size({radius})",
                              ctx.ball_oracle_size, radius)
            balls.append({"radius": radius, "oracle": oracle,
                          "size": None if ball is None else len(ball)})
        sweeps = {}
        for name, (fn, _default) in lemmas.SWEEPS.items():
            rep = _attempt(gate, f"sweep {name}", fn, ctx, SWEEP_RADIUS)
            if rep is not None:
                sweeps[name] = rep
        t0 = time.perf_counter()
        mutants = {}
        for name, names in lemmas.MUTANTS.items():
            fn = lemmas.SWEEPS[name][0]
            for mutant in names:
                rep = _attempt(gate, f"mutant {name}:{mutant}", fn, ctx,
                               MUTANT_RADIUS, mutant)
                if rep is not None:
                    mutants[f"{name}:{mutant}"] = rep
        return {"radius": SWEEP_RADIUS, "ball_checks": balls, "sweeps": sweeps,
                "mutants": mutants, "mutants_s": time.perf_counter() - t0}

    def check(self, fixture, result: dict, gate: Gate) -> dict:
        check_sweeps(gate, {
            **result,
            "sweeps": {k: rep.to_dict() for k, rep in result["sweeps"].items()},
            "mutants": {k: rep.to_dict() for k, rep in result["mutants"].items()},
        })
        return {}

    def derive(self, fixture, result: dict) -> dict:
        out = {"lemmas.mutants_s": result["mutants_s"]}
        for name, rep in result["sweeps"].items():
            out[f"lemmas.{name}_s"] = rep.elapsed
            out[f"lemmas.{name}_tuples"] = rep.tuples_checked
        return out


class Trace:
    name = "trace"

    def setup(self, seed: int) -> dict:
        setup = reduction.TheoremSetup()
        models = [quadrangle.build_model(letters) for letters in TWIN_LETTERS]
        words = list(setup.enumerate_constrained(3))
        rng = random.Random(seed)
        # all eight elements of V, sorted, as the battery lists them
        v_elems = sorted({setup.v_mask("".join(p)) for n in range(5)
                          for p in itertools.product("st", repeat=n)})
        # drawn as the theorem-reduction battery draws them
        # (tests/test_acceptance.py): 1 to 6 pairs, then the leading V element
        reduce_words = []
        for _ in range(REDUCE_WORDS):
            pairs = tuple((rng.choice(reduction.G_LETTERS), rng.choice(v_elems))
                          for _ in range(rng.randint(1, 6)))
            reduce_words.append((rng.choice(v_elems), pairs))
        picks = sorted(rng.sample(range(len(words)), min(TRACE_WORDS, len(words))))
        return {"setup": setup, "models": models, "enumerated": len(words),
                "reduce_words": reduce_words,
                "trace_words": [words[i] for i in picks]}

    def run(self, fx: dict, gate: Gate) -> dict:
        setup = fx["setup"]
        clock = time.perf_counter
        reduced, reduce_lat = [], []
        for word in fx["reduce_words"]:
            t0 = clock()
            out = _attempt(gate, f"reduce {word}", setup.reduce, word)
            reduce_lat.append(clock() - t0)
            reduced.append(out)
        certs, trace_lat = [], []
        for word in fx["trace_words"]:
            t0 = clock()
            cert = _attempt(gate, f"trace_word {word}", reduction.trace_word,
                            setup, word)
            trace_lat.append(clock() - t0)
            certs.append(cert)
        return {"reduced": reduced, "certs": certs,
                "reduce_lat": reduce_lat, "trace_lat": trace_lat}

    def check(self, fx: dict, result: dict, gate: Gate) -> dict:
        setup = fx["setup"]
        product = setup.product
        for model in fx["models"]:
            check_twin_model(gate, model)
        gate.check(f"{fx['enumerated']} constrained words, pinned "
                   f"{CONSTRAINED_WORDS}", fx["enumerated"] == CONSTRAINED_WORDS)
        for word, got in zip(fx["reduce_words"], result["reduced"]):
            if got is None:
                continue
            out, steps = got
            same = product.is_identity(product.mul(
                setup.eval_word(word), product.inv(setup.eval_word(out))))
            gate.check(f"reduce {word} -> {out} in {steps} steps: constrained, "
                       "same element, one pair fewer per step",
                       setup.constrained(out) and same
                       and len(out[1]) <= len(word[1]) - steps)
        for word, cert in zip(fx["trace_words"], result["certs"]):
            if cert is None:
                continue
            gate.check(f"trace_word {word}: pass with final counter "
                       f"{cert.data.get('final_counter')}",
                       cert.passed and cert.data.get("final_counter", 0) > 0)
        return {}

    def derive(self, fx: dict, result: dict) -> dict:
        return {
            "reduction.trace_p50_ms": _percentile_ms(result["trace_lat"], 50),
            "reduction.trace_p99_ms": _percentile_ms(result["trace_lat"], 99),
            "reduction.reduce_p50_ms": _percentile_ms(result["reduce_lat"], 50),
            "reduction.reduce_p99_ms": _percentile_ms(result["reduce_lat"], 99),
        }


WORKLOADS = {w.name: w for w in (Report(), Trace(), Sweeps())}
