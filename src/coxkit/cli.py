"""Command-line orchestration of the verification suites.

Subcommands: verify coxeter|blueprint|quadrangle|section4, reduce, trace,
nf, report.  Exit code 0 means every selected check passed, 1 means some
violation or failed certificate, a computed group, boundary map, word
rewriting or trace that fails its check included (BlueprintError,
TreeError, ReductionError, TraceError), 2 is a usage error.

Word specifications are comma-separated letters.  The g alphabet is
u_sr, u_tr, u_rt and u_rt*u_tr; V letters are 1 or * products of u_s and
u_t (so `coxkit reduce --word "u_sr,1,u_sr,u_t"` collapses by the first
rewriting rule).  For `nf`, letters are u_<word> tokens naming the root
generator at (prefix)*alpha_(last letter) of <word>, with * products
allowed inside a letter.
"""

from __future__ import annotations

import argparse
import json
import sys

from coxkit import suites
from coxkit.blueprint import BlueprintError
from coxkit.constructions import PreconditionError
from coxkit.coxeter import MAX_RADIUS, standard_coxeter
from coxkit.reduction import ReductionError, TraceError
from coxkit.treeprod import TreeError

MAX_BLUEPRINT_LENGTH = 8
DEFAULT_SUITES = ("coxeter", "blueprint", "quadrangle", "section4")


class UsageError(ValueError):
    pass


# the options of `verify` that one suite reads: (suite, default, cap); the
# capped ones at their defaults are the configuration of `report`
SUITE_OPTIONS = {"radius": ("coxeter", 8, MAX_RADIUS),
                 "max_length": ("blueprint", 7, MAX_BLUEPRINT_LENGTH),
                 "residue": ("section4", None, None)}


def _usage_error(message) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _parse_residue(text: str):
    if ":" not in text:
        raise UsageError("--residue expects <gate-word>:<two-letter-type>")
    word, types = text.split(":", 1)
    if len(types) != 2 or set(types) - set("rst") or set(word) - set("rst"):
        raise UsageError(f"--residue got a malformed value {text!r}")
    return (types, word)


def _run_suites(names, config: dict) -> dict:
    ctx = standard_coxeter()
    return {n: suites.SUITE_RUNNERS[n](ctx, config) for n in names}


def _print_sweep_lines(result: dict) -> None:
    for name, sweep in sorted(result.get("sweeps", {}).items()):
        status = "pass" if sweep["pass"] else "FAIL"
        print(f"  sweep {name}: radius={sweep['radius']} "
              f"tuples={sweep['tuples_checked']} "
              f"violations={len(sweep['violations'])} [{status}]")


def _emit(args, results: dict, config: dict) -> int:
    doc = suites.emit_report(results, config)
    text = json.dumps(doc, indent=2, sort_keys=True)
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            return _usage_error(f"cannot write report: {exc}")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0 if doc["pass"] else 1


def cmd_verify(args) -> int:
    config = {}
    for option, (suite, default, cap) in SUITE_OPTIONS.items():
        flag, value = "--" + option.replace("_", "-"), getattr(args, option)
        if value is not None and args.target != suite:
            return _usage_error(f"{flag} applies to verify {suite} only")
        if args.target == suite and cap is not None:
            value = default if value is None else value
            if not 0 <= value <= cap:
                return _usage_error(f"{flag} {value} is outside 0..{cap}")
            config[option] = value
    if args.residue:
        try:
            config["residues"] = [_parse_residue(r) for r in args.residue]
        except UsageError as exc:
            return _usage_error(exc)
    try:
        results = _run_suites([args.target], config)
    except PreconditionError as exc:
        if "residues" not in config:   # the default residues meet them all
            raise
        return _usage_error(exc)
    result = results[args.target]
    print(f"suite {args.target}: {'pass' if result['pass'] else 'FAIL'}")
    if args.target == "coxeter":
        _print_sweep_lines(result)
    if args.target == "section4":
        for cert in result["certificates"] + [result["trace_automaton"]]:
            print(f"  certificate {cert['name']}: "
                  f"{'pass' if cert['pass'] else 'FAIL'} "
                  f"({len(cert['checks'])} checks, "
                  f"{len(cert['assumptions'])} assumptions)")
    if args.out:
        return _emit(args, results, config)
    return 0 if result["pass"] else 1


def cmd_report(args) -> int:
    if not args.out:
        return _usage_error("report requires --out <path>")
    config = {option: default for option, (_, default, cap)
              in SUITE_OPTIONS.items() if cap is not None}
    results = _run_suites(DEFAULT_SUITES, config)
    return _emit(args, results, config)


def cmd_reduce(args) -> int:
    from coxkit.reduction import ConstraintError, TheoremSetup
    setup = TheoremSetup()
    try:
        word = setup.parse(args.word)
    except ConstraintError as exc:
        return _usage_error(exc)
    out, steps = setup.reduce(word)
    print(setup.format_word(out))
    print(f"steps: {steps}")
    return 0


def cmd_trace(args) -> int:
    from coxkit.reduction import ConstraintError, TheoremSetup, trace_word
    setup = TheoremSetup()
    try:
        word = setup.parse(args.word)
    except ConstraintError as exc:
        return _usage_error(exc)
    try:
        cert = trace_word(setup, word)
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    return 0 if cert.passed else 1


def _parse_tree_file(path: str):
    from coxkit.constructions import Builder
    from coxkit.treeprod import TreeProduct
    vertices, edges = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "vertex" and len(parts) == 4 and parts[2] == "U":
                vertices.append((parts[1], ("U", parts[3])))
            elif parts[0] == "vertex" and len(parts) == 4 and parts[2] == "V":
                gate, _, types = parts[3].partition(":")
                if len(types) != 2:
                    raise UsageError(f"line {lineno}: V vertex needs gate:xy")
                vertices.append((parts[1], ("V", gate, types)))
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((parts[1], parts[2]))
            else:
                raise UsageError(f"line {lineno}: cannot parse {line!r}")
    builder = Builder()
    specs, tog = builder.tree(vertices, edges)
    return builder, {sp.name: sp for sp in specs}, TreeProduct(tog)


def _parse_nf_word(builder, specs, text: str):
    letters = []
    for token in (t.strip() for t in text.split(",")):
        if not token or token == "1":
            continue
        roots = []
        for part in token.split("*"):
            if not part.startswith("u_") or len(part) < 3:
                raise UsageError(f"cannot parse letter {part!r}")
            word = part[2:]
            if set(word) - set("rst"):
                raise UsageError(f"letter {part!r} is not over r,s,t")
            roots.append(builder.cache.rsys.root_from(word[:-1], word[-1]))
        home = None
        for name in specs:
            if all(root in specs[name].roots for root in roots):
                home = name
                break
        if home is None:
            raise UsageError(f"no vertex group contains all of {token!r}")
        letters.append((home, specs[home].ambient.root_product(roots)))
    return letters


def cmd_nf(args) -> int:
    try:
        builder, specs, product = _parse_tree_file(args.tree)
        letters = _parse_nf_word(builder, specs, args.word)
    except (BlueprintError, TreeError):   # computed defects: main's exit 1
        raise
    except (ValueError, OSError, KeyError) as exc:   # UsageError, bad tree files
        return _usage_error(exc)
    el = product.eval_word(letters)

    def render(vertex: str, mask: int) -> str:
        amb = specs[vertex].ambient
        parts = [f"u({root.refl})" for root in amb.word_of(mask)]
        return "*".join(parts) or "1"

    print(json.dumps({
        "identity": product.is_identity(el),
        "syllables": product.syllables(el),
        "letters": [[v, render(v, x)] for v, x in product.flatten_word(el)],
    }, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxkit",
        description="verification workbench for (4,4,4) Coxeter combinatorics, "
                    "blueprint 2-groups, the rank-2 twin building over F2 and "
                    "tree products")
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("target", choices=sorted(suites.SUITE_RUNNERS))
    ver.add_argument("--radius", type=int, default=None)
    ver.add_argument("--max-length", type=int, default=None)
    ver.add_argument("--residue", action="append",
                     help="gate:types, e.g. r:st (section4 only)")
    ver.add_argument("--out", help="also write the aggregated report here")
    ver.set_defaults(fn=cmd_verify)

    rep = sub.add_parser("report", help="run all suites, write one document")
    rep.add_argument("--out", required=False)
    rep.set_defaults(fn=cmd_report)

    red = sub.add_parser("reduce", help="bring a word into constrained form")
    red.add_argument("--word", required=True)
    red.set_defaults(fn=cmd_reduce)

    tra = sub.add_parser("trace", help="replay the normal-form induction")
    tra.add_argument("--word", required=True)
    tra.set_defaults(fn=cmd_trace)

    nf = sub.add_parser("nf", help="normal form in a tree-of-groups file")
    nf.add_argument("--tree", required=True)
    nf.add_argument("--word", required=True)
    nf.set_defaults(fn=cmd_nf)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BlueprintError, TreeError, ReductionError,
            TraceError) as exc:   # a computed defect
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:   # noqa: BLE001 - fail loudly but with exit 1
        print(f"internal failure: {exc}", file=sys.stderr)
        raise


if __name__ == "__main__":
    sys.exit(main())
