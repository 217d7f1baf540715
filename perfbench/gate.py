"""Correctness gate: every verdict and pinned invariant is one operation.

An operation fails when a verdict is false, a pinned invariant is broken
or the call raised.  The pins are the invariants the acceptance tests fix
(ball sizes, sweep tuple counts, 250 certified groups, the 720/45/16/3
twin model, 24320 constrained words); they do not depend on timing.
"""

from __future__ import annotations

import hashlib
import json

BALL_PINS = {2: 10, 4: 43}
# tuples_checked of each sweep at each radius the workloads use
SWEEP_TUPLES = {
    ("wordsincoxetergroup", 6): 3960,
    ("wordsincoxetergroup", 8): 11880,
    ("not_both_down", 7): 540,
    ("not_both_down", 8): 942,
    ("mingallinrep", 8): 516,
    ("subset_lemma", 8): 2616,
    ("subset_lemma", 10): 7854,
}
GROUPS_CERTIFIED = 250          # |ball(7)|, each certified at order 2^l(w)
TWIN_MODEL = {"group": 720, "borel": 16, "chambers": 45, "panel": 3}
CONSTRAINED_WORDS = 24320       # constrained words with at most 3 pairs


class Gate:
    """Counts attempted and failed operations, keeping what failed."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def check(self, what: str, ok) -> None:
        """ok must be exactly True; anything else is a failure."""
        self.attempted += 1
        if ok is not True:
            self.problems.append(what)

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.problems.append(f"{what}: {type(exc).__name__}: {exc}")


def _pass_flags(node, path: str):
    if isinstance(node, dict):
        if "pass" in node:
            yield path or "report", node["pass"]
        for key in sorted(node):
            yield from _pass_flags(node[key], f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _pass_flags(item, f"{path}[{i}]")


def check_balls(gate: Gate, ball_checks: list, radius: int) -> None:
    gate.check(f"ball checks cover radii 0..{radius}",
               [b["radius"] for b in ball_checks] == list(range(radius + 1)))
    for b in ball_checks:
        pin = BALL_PINS.get(b["radius"], b["oracle"])
        gate.check(f"|ball({b['radius']})| = {b['size']}, oracle {b['oracle']}, "
                   f"pinned {pin}", b["size"] == b["oracle"] == pin)


def check_sweep(gate: Gate, name: str, rep: dict) -> None:
    pin = SWEEP_TUPLES.get((name, rep["radius"]))
    gate.check(f"sweep {name} at radius {rep['radius']}: pass with "
               f"{len(rep['violations'])} violations",
               rep["pass"] is True and not rep["violations"])
    gate.check(f"sweep {name} at radius {rep['radius']}: checked "
               f"{rep['tuples_checked']} tuples, pinned {pin}",
               rep["tuples_checked"] == pin if pin is not None
               else rep["tuples_checked"] > 0)


def check_sweeps(gate: Gate, result: dict) -> None:
    """The sweeps workload: balls to R, the four sweeps at R, every mutant."""
    check_balls(gate, result["ball_checks"], result["radius"])
    for name, rep in sorted(result["sweeps"].items()):
        check_sweep(gate, name, rep)
    for name, rep in sorted(result["mutants"].items()):
        gate.check(f"mutant {name} fires ({len(rep['violations'])} violations)",
                   len(rep["violations"]) > 0)


def check_report(gate: Gate, doc: dict, suites: tuple) -> None:
    """The report document: every pass flag, plus the pinned invariants."""
    for name in suites:
        gate.check(f"suite {name} ran", name in doc.get("suites", {}))
    for path, flag in _pass_flags(doc, ""):
        gate.check(f"{path}: pass", flag)
    got = doc.get("suites", {})
    if "coxeter" in got:
        cox = got["coxeter"]
        check_balls(gate, cox["ball_checks"], cox["radius"])
        for name, rep in sorted(cox["sweeps"].items()):
            check_sweep(gate, name, rep)
    if "blueprint" in got:
        bp = got["blueprint"]
        gate.check(f"{bp['groups_certified']} groups certified, pinned "
                   f"{GROUPS_CERTIFIED}", bp["groups_certified"] == GROUPS_CERTIFIED)
        gate.check("no group failed certification", not bp["problems"])
        gate.check("gallery independence holds",
                   not bp["gallery_independence_failures"])
    if "quadrangle" in got:
        model = got["quadrangle"]["model"]
        gate.check(f"twin model {model} matches {TWIN_MODEL}",
                   all(model.get(k) == v for k, v in TWIN_MODEL.items()))
    if "section4" in got:
        for cert in got["section4"]["certificates"]:
            gate.check(f"certificate {cert['name']}: every check holds",
                       bool(cert["checks"])
                       and all(c["status"] is True for c in cert["checks"]))


def check_twin_model(gate: Gate, model) -> None:
    letters = "".join(model.letters)
    got = {"group": len(model.elems), "borel": len(model.borel_plus),
           "chambers": len(model.chambers(-1)),
           "panel": len(model.panel(model.c_minus, model.letters[0]))}
    gate.check(f"{letters} twin model {got} matches {TWIN_MODEL}", got == TWIN_MODEL)


def report_digest(doc: dict) -> str:
    """sha256 of the report without its elapsed and kernel fields."""
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()
                    if k not in ("elapsed", "kernel")}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node
    text = json.dumps(strip(doc), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
