"""One pass of one workload in a fresh interpreter; prints one JSON line.

    PYTHONPATH=src python3 perfbench/child.py --workload trace --seed 1 \\
        --spawned <monotonic clock> [--trace | --setup-only]

run.py starts one per pass.

--spawned is the monotonic clock just before the parent started this
process.  The set-up time runs from there to the first timed call:
interpreter start, imports and the workload's fixtures.  With
--setup-only the pass stops there.  With --trace the probes are
installed before the fixtures are built and read back before the gate
runs, so the gate's own calls are not counted.

The machine's speed is sampled from the first line on (speed.py); each
time is reported both as wall time (*_wall_s) and in seconds at the
reference speed.
"""

from __future__ import annotations

import speed

SPEEDOMETER = speed.Speedometer()
SPEEDOMETER.start()

# the imports below are part of the set-up time, so they come after the
# speedometer starts
import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

import workloads  # noqa: E402
from gate import Gate  # noqa: E402


def kernel() -> str:
    """The word kernel that ran (compiled or pure Python), if the program
    still has a kernel selector."""
    try:
        from coxkit import wordops
    except ImportError:
        return "none"
    return str(getattr(wordops, "IMPL", "none"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    work = workloads.WORKLOADS[args.workload]

    installed, absent = {}, {}
    if args.trace:
        import probes
        installed, absent = probes.install()
    fixture = work.setup(args.seed)
    t_first = time.monotonic()
    times = {"setup_wall_s": t_first - args.spawned}
    if not args.setup_only:
        gate = Gate()
        result = work.run(fixture, gate)
        t_end = time.monotonic()
        times["verdict_wall_s"] = t_end - t_first
    SPEEDOMETER.stop()
    times["setup_s"] = SPEEDOMETER.reference_s(args.spawned, t_first)
    times["speed_samples"] = len(SPEEDOMETER.samples)
    if args.setup_only:
        print(json.dumps(times))
        return

    times["verdict_s"] = SPEEDOMETER.reference_s(t_first, t_end)
    probed = {}
    if args.trace:
        probed, idle = probes.snapshot(installed)
        absent.update(idle)
    info = work.check(fixture, result, gate)
    print(json.dumps({
        **times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "kernel": kernel(),
        "attempted": gate.attempted,
        "failed": gate.failed,
        "problems": gate.problems[:20],
        "derived": work.derive(fixture, result),
        "probes": probed,
        "absent": absent,
        **info,
    }))


if __name__ == "__main__":
    main()
