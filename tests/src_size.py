"""Lines and compile time of each module of src/coxkit, with totals.

    python3 tests/src_size.py [--repeat 20] [--src src/coxkit]

For each module prints its total lines, its code lines (lines that
carry a token other than a comment, blank lines and docstrings
excluded) and the best of --repeat compile() times of its source, then
the totals:

    module              lines   code   compile ms
    __init__.py             5      1         0.01
    blueprint.py          442    223         1.24
    ...
    total                5177   3263        18.11

A docstring is the string expression that opens a module, class or
function body; its lines do not count as code, while any other string,
on however many lines, does.  Reads the files and writes nothing.  Not
a test module: pytest does not collect it.
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import sys
import time
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coxkit"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree) -> set:
    """The line numbers of the docstrings of tree's module, classes and
    functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, BODIES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of source that carry code: a token other than a
    comment or layout, outside the docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def compile_ms(source: str, path: str, repeat: int) -> float:
    """The least wall time of repeat compiles of source, in milliseconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        compile(source, path, "exec", dont_inherit=True)
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=20)
    parser.add_argument("--src", type=pathlib.Path, default=SRC)
    args = parser.parse_args(argv)
    rows = []
    for path in sorted(args.src.glob("*.py")):
        source = path.read_text()
        rows.append((path.name, len(source.splitlines()), code_lines(source),
                     compile_ms(source, str(path), args.repeat)))
    print(f"{'module':<18}{'lines':>7}{'code':>7}{'compile ms':>13}")
    for name, lines, code, ms in rows:
        print(f"{name:<18}{lines:>7}{code:>7}{ms:>13.2f}")
    print(f"{'total':<18}{sum(r[1] for r in rows):>7}"
          f"{sum(r[2] for r in rows):>7}{sum(r[3] for r in rows):>13.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
