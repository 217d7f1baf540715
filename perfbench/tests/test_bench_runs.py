"""Every pass starts cold, every per-layer metric is measured, and the
runner refuses to run without the program.  These tests start fresh
interpreters; the report passes take about a minute each.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import probes
import run
from conftest import BENCH, ROOT

# the trace set-up twice in one interpreter: the second finds the
# process-wide memo tables (standard_coxeter(), the twin-model registry)
WARM_RERUN = """
import probes, workloads
got, _ = probes.install()
counts = []
for _ in range(2):
    before = {k: got[k].calls for k in ("quadrangle.model_build", "wordops.braid_closure")}
    workloads.WORKLOADS["trace"].setup(1)
    counts.append([got[k].calls - n for k, n in before.items()])
print(counts)
"""


@pytest.fixture(scope="module")
def traced():
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        yield {w: [run.run_child(w, 1, trace=True) for _ in range(2)]
               for w in ("sweeps", "report", "trace")}
    finally:
        os.chdir(cwd)


def test_sweeps_passes_start_cold(traced):
    a, b = (p["probes"]["wordops.braid_closure_calls"] for p in traced["sweeps"])
    assert a == b > 0


def test_warm_rerun_would_report_fewer_calls():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    out = subprocess.run([sys.executable, "-c", WARM_RERUN], cwd=BENCH, env=env,
                         stdout=subprocess.PIPE, text=True, check=True)
    (builds, closures), (warm_builds, warm_closures) = json.loads(out.stdout)
    assert builds == 3 and warm_builds == 0
    assert warm_closures < closures


def test_report_passes_start_cold(traced):
    a, b = (p["probes"]["wordops.collect_mul_calls"] for p in traced["report"])
    assert a == b > 0


def test_passes_are_correct_and_digest_repeats(traced):
    for passes in traced.values():
        for p in passes:
            assert p["attempted"] > 0 and p["failed"] == 0, p["problems"]
    a, b = traced["report"]
    assert a["digest"] == b["digest"]


# per-layer metrics the program never reaches: BlueprintGroup.collect is
# the only caller of collect_seq, and nothing calls it
NEVER_CALLED = {"wordops.collect_seq_calls"}


def test_every_per_layer_metric_is_measured(traced):
    """Each per-layer metric is non-zero on some workload, or never
    called anywhere and named so; each probe metric a pass does not
    report is named absent, with a reason."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    probe_metrics = {m for name, _, _ in probes.PROBES
                     for m in probes.Probe(name, "").metrics}
    nonzero = {"bench.trace_overhead_frac"}
    for passes in traced.values():
        for p in passes:
            assert set(p["probes"]).isdisjoint(p["absent"])
            assert set(p["probes"]) | set(p["absent"]) == probe_metrics
            assert all(p["absent"].values())
            nonzero |= {k for k, v in {**p["probes"], **p["derived"]}.items() if v}
            for name in NEVER_CALLED:
                assert p["absent"][name].endswith("was never called")
    assert {m["name"] for m in spec["per_layer"]} - NEVER_CALLED <= nonzero


def test_runner_refuses_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sweeps",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, stdout=subprocess.PIPE, text=True,
                         timeout=60, check=False)
    assert out.returncode != 0 and out.stdout == ""

