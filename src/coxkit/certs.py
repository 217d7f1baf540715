"""Verdict records and the one clock that times them.

A Certificate itemizes the finite checks behind one tree-product lemma; a
SweepReport lists the counterexample tuples of one exhaustive sweep, one
item at a time through `require` (count the item, record its violation
unless it holds) or `expect` (a named value against its expected one).  Both
are plain mutable classes: each starts with empty lists and dicts and
`elapsed` 0.0, the checks append to them, and two records are equal only
when they are the same object.  The `elapsed` field of either record, and
of a suite runner's dict, is set only by `timed`, which wraps the function
that returns the record.
"""

from __future__ import annotations

import functools
import time

clock = time.perf_counter


def timed(fn):
    """Time the whole call and set `elapsed`, in seconds at the clock's
    full resolution, on the record it returns: an attribute, or a suite
    dict's "elapsed"."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        t0 = clock()
        record = fn(*args, **kwargs)
        elapsed = clock() - t0
        if isinstance(record, dict):
            record["elapsed"] = elapsed
        else:
            record.elapsed = elapsed
        return record
    return run


class Certificate:
    def __init__(self, name: str):
        self.name = name
        self.checks = []
        self.assumptions = []
        self.data = {}
        self.elapsed = 0.0

    @property
    def passed(self) -> bool:
        return all(c.get("status") for c in self.checks)

    def check(self, description: str, status: bool, **data) -> bool:
        entry = {"description": description, "status": bool(status)}
        if data:
            entry["data"] = data
        self.checks.append(entry)
        return status

    def assume(self, description: str) -> None:
        self.assumptions.append(description)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "checks": self.checks,
            "assumptions": self.assumptions,
            "data": self.data,
            "elapsed": self.elapsed,
        }


class SweepReport:
    def __init__(self, lemma: str, radius: int):
        self.lemma = lemma
        self.radius = radius
        self.tuples_checked = 0
        self.violations = []
        self.elapsed = 0.0
        self.notes = {}

    @property
    def passed(self) -> bool:
        return not self.violations

    def require(self, ok: bool, **violation) -> None:
        """One item: count it and record violation unless ok."""
        self.tuples_checked += 1
        if not ok:
            self.violations.append(violation)

    def expect(self, name: str, got, want) -> None:
        """One named item: note its value and require it to equal the
        expected one."""
        self.notes[name] = got
        self.require(got == want, item=name, expected=want, got=got)

    def to_dict(self) -> dict:
        return {
            "lemma": self.lemma,
            "radius": self.radius,
            "tuples_checked": self.tuples_checked,
            "violations": self.violations,
            "pass": self.passed,
            "notes": self.notes,
            "elapsed": self.elapsed,
        }
