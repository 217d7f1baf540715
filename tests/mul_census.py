"""Calls of BlueprintGroup.mul in one coxkit command, grouped by caller.

    PYTHONPATH=src python3 tests/mul_census.py verify section4 --residue rstr:st

Wraps coxkit.blueprint.BlueprintGroup.mul with a counter before the
command builds any group (objects that keep a bound `mul`, such as a
Subgroup or a TreeProduct, then keep the wrapper), runs coxkit.cli.main
with the given arguments in this interpreter, its own output discarded,
and prints the total and one line per caller chain, most calls first:

    158298 BlueprintGroup.mul calls (exit 0, 0.36 s)
       77776  is_homomorphism < validate < issues
       36980  closure_words < __new__ < root_subgroup
       25183  _normalize < mul < family_embeds
        7764  _normalize < mul < closure_words
    ...

A caller chain names the function that called mul, its caller and
theirs, comprehension frames skipped, so the mul calls of closure_words
are told apart by who asked for the closure: a root subgroup's closure
calls mul itself, and the closure of a tree-product image (the member at
a contracted vertex) reaches it through the product's normal form.  The wrapper slows the
command down; the wall time printed is the wrapped run's.  When the
reader closes the pipe (`| head`), it stops with exit 1 and no
traceback.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import collections
import contextlib
import io
import os
import sys
import time

# frames that stand for their enclosing function, not a caller of their own
INLINE = ("<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>")
DEPTH = 3


def callers(frame) -> str:
    """The names of the DEPTH nearest non-comprehension frames from frame
    outward, nearest first."""
    names = []
    while frame is not None and len(names) < DEPTH:
        name = frame.f_code.co_name
        if name not in INLINE:
            names.append(name)
        frame = frame.f_back
    return " < ".join(names)


def main(argv: list[str]) -> None:
    from coxkit.blueprint import BlueprintGroup
    from coxkit.cli import main as coxkit_main

    counts: collections.Counter = collections.Counter()
    mul = BlueprintGroup.mul

    def counted(self, x, y):
        counts[callers(sys._getframe(1))] += 1
        return mul(self, x, y)

    BlueprintGroup.mul = counted
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = coxkit_main(argv)
    finally:
        BlueprintGroup.mul = mul
    elapsed = time.perf_counter() - start
    print(f"{sum(counts.values())} BlueprintGroup.mul calls "
          f"(exit {code}, {elapsed:.2f} s)")
    for chain, n in counts.most_common():
        print(f"{n:>8}  {chain}")


if __name__ == "__main__":
    try:
        main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (`| head`): stop without a traceback,
        # stdout pointed at devnull so that the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
