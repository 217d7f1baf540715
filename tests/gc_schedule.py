"""Garbage collections per generation in one benchmark pass, set-up | timed.

    PYTHONPATH=src python3 tests/gc_schedule.py --workload trace --seed 1

Runs perfbench/child.py in this interpreter, as perfbench/run.py runs
one pass, with a gc.callbacks hook installed from this script's first
line.  The set-up phase is everything before the workload's run method,
the collections of the interpreter's start-up included (read from
gc.get_stats); the timed phase is that method.  Prints one line:

    trace seed 1: set-up 134/12/1 (start-up 24/2/0 of it) | timed 31/2/0 (gen-0/1/2); gen-2 in timed: 0.0 ms

The first full (gen-2) collection of a process is the one to watch: in
CPython 3.11 it comes after about ten gen-1 collections from start-up,
so a set-up that keeps fewer tracked objects can push it into the timed
phase.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import sys
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def main() -> None:
    spawned = time.monotonic()
    startup = [s["collections"] for s in gc.get_stats()]
    counts = {"set-up": list(startup), "timed": [0, 0, 0]}
    phase = ["set-up"]
    started = [0.0]
    gen2_timed_ms = [0.0]

    def hook(stage: str, info: dict) -> None:
        if phase[0] not in counts:
            return
        if stage == "start":
            counts[phase[0]][info["generation"]] += 1
            started[0] = time.perf_counter()
        elif phase[0] == "timed" and info["generation"] == 2:
            gen2_timed_ms[0] += (time.perf_counter() - started[0]) * 1e3

    gc.callbacks.append(hook)
    sys.path.insert(0, PERFBENCH)
    import workloads

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", default="trace",
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    work = type(workloads.WORKLOADS[args.workload])
    run = work.run

    def timed_run(self, fixture, gate):
        phase[0] = "timed"
        try:
            return run(self, fixture, gate)
        finally:
            phase[0] = "after"

    work.run = timed_run
    child = os.path.join(PERFBENCH, "child.py")
    sys.argv = [child, "--workload", args.workload, "--seed", str(args.seed),
                "--spawned", str(spawned)]
    with open(child) as f:
        code = compile(f.read(), child, "exec")
    # the pass prints its JSON line to stdout; keep it for the failure check
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        exec(code, {"__name__": "__main__", "__file__": child})
    finally:
        out, sys.stdout = sys.stdout, stdout
        gc.callbacks.remove(hook)
    result = json.loads(out.getvalue())
    if result["failed"]:
        sys.exit(f"the pass failed {result['failed']} checks: "
                 f"{result['problems']}")
    setup, timed, before = ("/".join(map(str, c)) for c in (
        counts["set-up"], counts["timed"], startup))
    print(f"{args.workload} seed {args.seed}: set-up {setup} (start-up "
          f"{before} of it) | timed {timed} (gen-0/1/2); gen-2 in timed: "
          f"{gen2_timed_ms[0]:.1f} ms")


if __name__ == "__main__":
    main()
