"""Check-level difference of two coxkit report documents.

    python3 tests/report_diff.py A.json B.json

Reads two documents written by `coxkit report --out` or `coxkit verify
... --out` and prints, suite by suite, what changed from A to B, with
every `elapsed` field left out:

    suite coxeter
      ~ sweep mingallinrep tuples_checked: 516 -> 517
    suite section4
      - certificate CleftCrightisos[st@1,s=s]
      ~ certificate VRtoORinjective[st@1] check 2 data: {...} -> {...}
      ~ pass: true -> false
    ~ pass: true -> false

A certificate is a record with checks, named by its name, and a sweep a
record with a lemma, named by it.  Lines starting with - and + name the
records and suites only A or only B holds; a check is keyed by its
certificate and its position, and each of its status, description and
data that changed is one ~ line.  Every other field that changed is one
~ line with its path, the order of the records both hold among them, so
a nonempty difference always prints something.
Exits 0 with no output when the two documents are equal apart from
elapsed, 1 otherwise.  Not a test module: pytest does not collect it.
"""

from __future__ import annotations

import json
import sys

ABSENT = "(absent)"
CHECK_FIELDS = ("status", "description", "data")


def without_elapsed(doc):
    """doc with every elapsed field dropped, at any depth."""
    if isinstance(doc, dict):
        return {k: without_elapsed(v) for k, v in doc.items() if k != "elapsed"}
    if isinstance(doc, list):
        return [without_elapsed(v) for v in doc]
    return doc


def _show(value) -> str:
    return ABSENT if value is ABSENT else json.dumps(value, sort_keys=True)


def _record_key(value):
    """("certificate", name) or ("sweep", lemma) for a record, else None."""
    if isinstance(value, dict):
        if "checks" in value and "name" in value:
            return "certificate", value["name"]
        if "lemma" in value and "violations" in value:
            return "sweep", value["lemma"]
    return None


def _split(doc, records: dict):
    """doc with each record at any depth replaced by its key, a tuple,
    which no JSON value is, the records stored in records under that key;
    a key met again is numbered, as in "name #2", so that no record hides
    another."""
    key = _record_key(doc)
    if key is not None:
        kind, name = key
        n = 1
        while key in records:
            n += 1
            key = kind, f"{name} #{n}"
        records[key] = doc
        return key
    if isinstance(doc, dict):
        return {k: _split(v, records) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_split(v, records) for v in doc]
    return doc


def _without(doc, keys: set):
    """doc without the record keys in keys, at any depth."""
    if isinstance(doc, dict):
        return {k: _without(v, keys) for k, v in doc.items()
                if not (isinstance(v, tuple) and v in keys)}
    if isinstance(doc, list):
        return [_without(v, keys) for v in doc
                if not (isinstance(v, tuple) and v in keys)]
    return doc


def _leaves(a, b, path: str):
    """(path, a value, b value) for every leaf at which a and b differ:
    dicts by key, lists of one length by position."""
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(a.keys() | b.keys()):
            yield from _leaves(a.get(k, ABSENT), b.get(k, ABSENT),
                               f"{path}.{k}" if path else k)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _leaves(x, y, f"{path}[{i}]")
    elif a != b:
        yield path, a, b


def _record_lines(kind: str, name: str, a: dict, b: dict):
    label = f"{kind} {name}"
    if kind == "certificate":
        checks_a, checks_b = a.get("checks", []), b.get("checks", [])
        for i in range(max(len(checks_a), len(checks_b))):
            if i >= len(checks_b):
                yield f"- {label} check {i}: {checks_a[i]['description']}"
            elif i >= len(checks_a):
                yield f"+ {label} check {i}: {checks_b[i]['description']}"
            else:
                for field in CHECK_FIELDS:
                    x = checks_a[i].get(field, ABSENT)
                    y = checks_b[i].get(field, ABSENT)
                    if x != y:
                        yield (f"~ {label} check {i} {field}: "
                               f"{_show(x)} -> {_show(y)}")
        a = {k: v for k, v in a.items() if k != "checks"}
        b = {k: v for k, v in b.items() if k != "checks"}
    for path, x, y in _leaves(a, b, ""):
        yield f"~ {label} {path}: {_show(x)} -> {_show(y)}"


def _suite_lines(a, b):
    """The lines of one suite: records only in a, only in b, changed in
    both, and then the other fields, among them the order of the records
    that both hold."""
    records_a, records_b = {}, {}
    rest_a, rest_b = _split(a, records_a), _split(b, records_b)
    for key in sorted(records_a.keys() - records_b.keys()):
        yield "- {} {}".format(*key)
    for key in sorted(records_b.keys() - records_a.keys()):
        yield "+ {} {}".format(*key)
    for key in sorted(records_a.keys() & records_b.keys()):
        yield from _record_lines(*key, records_a[key], records_b[key])
    once = records_a.keys() ^ records_b.keys()
    for path, x, y in _leaves(_without(rest_a, once), _without(rest_b, once), ""):
        yield f"~ {path}: {_show(x)} -> {_show(y)}"


def diff_lines(a: dict, b: dict) -> list[str]:
    """The lines that main prints for the documents a and b."""
    a, b = without_elapsed(a), without_elapsed(b)
    suites_a, suites_b = a.get("suites", {}), b.get("suites", {})
    lines = []
    for name in sorted(suites_a.keys() | suites_b.keys()):
        if name not in suites_b:
            lines.append(f"- suite {name}")
            continue
        if name not in suites_a:
            lines.append(f"+ suite {name}")
            continue
        body = [f"  {line}" for line in _suite_lines(suites_a[name],
                                                     suites_b[name])]
        if body:
            lines += [f"suite {name}", *body]
    top_a = {k: v for k, v in a.items() if k != "suites"}
    top_b = {k: v for k, v in b.items() if k != "suites"}
    lines += [f"~ {path}: {_show(x)} -> {_show(y)}"
              for path, x, y in _leaves(top_a, top_b, "")]
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: report_diff.py A.json B.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    lines = diff_lines(*docs)
    print("\n".join(lines), end="\n" if lines else "")
    return 1 if without_elapsed(docs[0]) != without_elapsed(docs[1]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
