"""The gate is not vacuous: a mutant run and a flipped verdict both fail."""

import copy

import pytest

import probes
import workloads
from coxkit import lemmas, quadrangle, suites
from coxkit.coxeter import Coxeter
from coxkit.quadrangle import TwinModel
from gate import Gate, check_report, check_sweeps


@pytest.fixture(scope="module")
def sweeps_result():
    gate = Gate()
    result = workloads.WORKLOADS["sweeps"].run(None, gate)
    assert gate.failed == 0, gate.problems
    return result


def _as_dicts(result: dict) -> dict:
    return {**result,
            "sweeps": {k: r.to_dict() for k, r in result["sweeps"].items()},
            "mutants": {k: r.to_dict() for k, r in result["mutants"].items()}}


def test_clean_sweeps_pass(sweeps_result):
    gate = Gate()
    check_sweeps(gate, _as_dicts(sweeps_result))
    assert gate.attempted == 9 + 1 + 2 * 4 + 4
    assert gate.failed == 0, gate.problems


@pytest.mark.parametrize("name,mutant", [
    (name, mutant) for name, mutants in lemmas.MUTANTS.items() for mutant in mutants])
def test_sweep_run_with_registered_mutant_fails(sweeps_result, name, mutant):
    fn = lemmas.SWEEPS[name][0]
    bad = _as_dicts(sweeps_result)
    bad["sweeps"][name] = fn(Coxeter(), workloads.SWEEP_RADIUS, mutant).to_dict()
    gate = Gate()
    check_sweeps(gate, bad)
    assert gate.failed >= 1


def test_flipped_sweep_and_mutant_verdicts_fail(sweeps_result):
    clean = _as_dicts(sweeps_result)
    flipped = copy.deepcopy(clean)
    flipped["sweeps"]["subset_lemma"]["pass"] = False
    gate = Gate()
    check_sweeps(gate, flipped)
    assert gate.failed == 1
    silent = copy.deepcopy(clean)
    silent["mutants"]["not_both_down:both_up"]["violations"] = []
    gate = Gate()
    check_sweeps(gate, silent)
    assert gate.failed == 1


def test_flipped_report_verdict_fails():
    doc = suites.emit_report({"quadrangle": suites.run_quadrangle()}, {})
    gate = Gate()
    check_report(gate, doc, ("quadrangle",))
    assert gate.attempted > 0 and gate.failed == 0, gate.problems
    doc["suites"]["quadrangle"]["reports"]["axioms"]["pass"] = False
    gate = Gate()
    check_report(gate, doc, ("quadrangle",))
    assert gate.failed == 1


def test_raised_exception_counts_as_failed():
    gate = Gate()
    assert workloads._attempt(gate, "ball(11)", Coxeter().ball, 11) is None
    assert (gate.attempted, gate.failed) == (1, 1)


def test_missing_probe_targets_are_absent(monkeypatch):
    monkeypatch.setattr(probes, "PROBES", (
        ("gone.function", "coxkit.wordops", "no_such_function"),
        ("gone.module", "coxkit.no_such_module", "f"),
        ("gone.method", "coxkit.quadrangle", "TwinModel.no_such_method"),
        ("gone.class", "coxkit.quadrangle", "NoSuchClass.method"),
    ))
    installed, absent = probes.install()
    assert installed == {}
    assert sorted(absent) == sorted(
        f"gone.{kind}_{field}" for kind in ("class", "function", "method", "module")
        for field in ("calls", "s"))


def test_probes_never_called_are_absent(monkeypatch):
    # restored after the test, so the probe does not outlive it
    monkeypatch.setattr(TwinModel, "verify_axioms", TwinModel.__dict__["verify_axioms"])
    monkeypatch.setattr(TwinModel, "panel", TwinModel.__dict__["panel"])
    monkeypatch.setattr(probes, "PROBES", (
        ("idle.axioms", "coxkit.quadrangle", "TwinModel.verify_axioms"),
        ("busy.panel", "coxkit.quadrangle", "TwinModel.panel"),
    ))
    installed, absent = probes.install()
    assert sorted(installed) == ["busy.panel", "idle.axioms"] and not absent
    model = quadrangle.build_model(("s", "t"))
    model.panel(model.c_minus, "s")
    values, idle = probes.snapshot(installed)
    assert values["busy.panel_calls"] == 1 and values["busy.panel_s"] > 0
    assert sorted(idle) == ["idle.axioms_calls", "idle.axioms_s"]
    assert "verify_axioms was never called" in idle["idle.axioms_s"]
