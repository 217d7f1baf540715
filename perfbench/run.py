#!/usr/bin/env python3
"""coxkit benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload report --seed 1 --seconds 10 --trace 0

Run from the repository root; the program is imported from ``src``.
Every pass of a workload runs in a fresh interpreter (perfbench/child.py),
one at a time, so no pass sees another pass's memo tables.

--trace 0 measures the end-to-end metrics with no probes: it starts
passes until --seconds have gone by and MIN_PASSES are done, with
set-up-only passes before and after them for enough set-up times, and
reports medians.  Times are in seconds at the reference speed
(speed.py); the metadata keeps every sample, and the wall times too.

--trace 1 runs one plain pass and one traced pass.  The per-layer
metrics come from the traced pass's probes, except those the program
reports itself (suite, sweep and certificate elapsed fields) and the
trace/reduce latencies, which come from the plain pass.
bench.trace_overhead_frac compares the two passes' verdict times.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the run's metadata (commit, Python, CPU, kernel, seed, samples, failures,
report digest, absent metrics).  Metrics are listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
# at least SETUP_SAMPLES set-up times per run; where set-up is cheap
# (imports only), MAX_SETUP_SAMPLES of them, half taken before the passes
# and the rest after, so that one slow spell cannot hold all of them
SETUP_SAMPLES = 5
MAX_SETUP_SAMPLES = 15
CHEAP_SETUP_S = 1.0
CHILD_TIMEOUT_S = 170
# passes per run; a sweeps pass takes about 3 s, a trace pass about 8 s
# and a report pass about 45 s
MIN_PASSES = {"sweeps": 5, "trace": 3}


class BenchError(RuntimeError):
    pass


def run_child(workload: str, seed: int, trace: bool = False,
              setup_only: bool = False) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    cmd += ["--spawned", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass exceeded {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        got = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, text=True, check=False)
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(root, name)
                digest.update(path.encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def samples(setups: list, passes: list) -> dict:
    """Every time sample of a run, for its metadata."""
    return {"setup_samples": [p["setup_s"] for p in setups],
            "setup_wall_samples": [p["setup_wall_s"] for p in setups],
            "verdict_samples": [p["verdict_s"] for p in passes],
            "verdict_wall_samples": [p["verdict_wall_s"] for p in passes]}


def untraced(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    passes, setups = [], []

    def setup_only() -> None:
        setups.append(run_child(workload, seed, setup_only=True))

    def cheap() -> bool:
        return len(setups) < MAX_SETUP_SAMPLES \
            and statistics.median(s["setup_s"] for s in setups) < CHEAP_SETUP_S

    setup_only()
    while cheap() and len(setups) < MAX_SETUP_SAMPLES // 2:
        setup_only()
    start = time.monotonic()
    while len(passes) < MIN_PASSES.get(workload, 1) \
            or time.monotonic() - start < seconds:
        passes.append(run_child(workload, seed))
        setups.append(passes[-1])
    while len(setups) < SETUP_SAMPLES or cheap():
        setup_only()
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "verdict_s": statistics.median(p["verdict_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, {"values": values, **samples(setups, passes)}


def traced(workload: str, seed: int) -> tuple[list, dict]:
    plain = run_child(workload, seed)
    probed = run_child(workload, seed, trace=True)
    values = {**plain["derived"], **probed["probes"]}
    values["bench.trace_overhead_frac"] = probed["verdict_s"] / plain["verdict_s"] - 1
    return [plain, probed], {"values": values, "probe_absent": probed["absent"],
                             **samples([plain, probed], [plain, probed])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind through subprocess.run, which kills the running pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join("src", "coxkit", "__init__.py")):
        print("error: run from the repository root; src/coxkit is missing",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        if args.trace:
            passes, info = traced(args.workload, args.seed)
        else:
            passes, info = untraced(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    values = info.pop("values")
    probe_absent = info.pop("probe_absent", {})
    metrics, absent = {}, {}
    for m in wanted:
        name = m["name"]
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
            continue
        # reported as 0 and named in the metadata, never left out
        metrics[name] = {"value": 0, "unit": m["unit"]}
        absent[name] = probe_absent.get(
            name, f"not measured on the {args.workload} workload")
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **machine(),
        "kernel": sorted({p["kernel"] for p in passes}),
        "passes": len(passes),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "failed_frac": failed / attempted if attempted else 1.0,
        "problems": [x for p in passes for x in p["problems"]][:20],
        "report_digest": sorted({p["digest"] for p in passes if "digest" in p}),
        "absent": absent,
        **info,
    }
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
