"""Section 4 at every rank-2 residue up to a gate length, one line each.

    PYTHONPATH=src python3 tests/residue_sweep.py --gate-length 4

Runs coxkit.pipeline.section4_pipeline on each rank-2 residue whose gate
has length at most N, one residue per call and all in one GroupCache,
the residues in ball order (length, then ShortLex) and each gate's types
in the report's order.  Prints one line per residue, its types, its gate
(1 for the empty word) and its outcome: pass, FAIL with the failing
certificates, or refused with the PreconditionError text.  Any other
error ends the run with its traceback.  Then one summary line:

    st@1         pass
    ...
    sr@st        refused: Residue('rs' at 'st') violates l(w_R s r) = ...
    42 residues: 18 pass, 0 FAIL, 24 refused; 2.31 s, peak RSS 56.2 MB
    sha256 0f3c...

The digest is taken over the residues' labels and outcomes, with every
certificate dict of a residue that ran, elapsed fields dropped, and the
refusal text of one that did not, so two runs that print the same
digest computed the same certificates.  The wall time covers the sweep
alone; the peak RSS is the process's.  Not a test module: pytest does
not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time

from coxkit.blueprint import GroupCache
from coxkit.constructions import RANK2, PreconditionError
from coxkit.coxeter import standard_coxeter
from coxkit.pipeline import section4_pipeline
from report_diff import without_elapsed


def residues(ctx, gate_length: int) -> list:
    """(types, gate) for every rank-2 residue whose gate has length at
    most gate_length: each w of the ball with no right descent in the
    types is the gate of the residue of those types at w."""
    return [(pair, w) for w in ctx.ball(gate_length) for pair in RANK2
            if all(len(ctx.mult(w, u)) > len(w) for u in pair)]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--gate-length", type=int, required=True)
    args = parser.parse_args(argv)
    cache = GroupCache(standard_coxeter())
    counts = {"pass": 0, "FAIL": 0, "refused": 0}
    digest = hashlib.sha256()
    start = time.perf_counter()
    for types, gate in residues(cache.ctx, args.gate_length):
        label = f"{''.join(types)}@{gate or '1'}"
        try:
            certs = section4_pipeline(cache, [(types, gate)])
        except PreconditionError as exc:
            outcome, detail, record = "refused", f": {exc}", str(exc)
        else:
            failed = [c.name for c in certs if not c.passed]
            outcome = "FAIL" if failed else "pass"
            detail = f" {', '.join(failed)}" if failed else ""
            record = [without_elapsed(c.to_dict()) for c in certs]
        counts[outcome] += 1
        digest.update(json.dumps([label, outcome, record],
                                 sort_keys=True).encode())
        print(f"{label:<12} {outcome}{detail}")
    elapsed = time.perf_counter() - start
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{sum(counts.values())} residues: {counts['pass']} pass, "
          f"{counts['FAIL']} FAIL, {counts['refused']} refused; "
          f"{elapsed:.2f} s, peak RSS {peak_mb:.1f} MB")
    print(f"sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:])
