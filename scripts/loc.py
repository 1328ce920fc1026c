#!/usr/bin/env python3
"""The code lines of each module of the antimagic package.

A code line is a line that is not blank, not comment-only and not inside
a docstring, so the count leaves prose out however long it grows.  A
docstring is the string that opens a module, class or function body, as
``ast`` finds it; every other line that holds a token other than a
comment counts, each line of a multi-line string included.

One row per module under src/antimagic, its name and its code lines,
then the total.

Usage:
    python scripts/loc.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "antimagic"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<14} {count:>6}")
    print(f"{'total':<14} {total:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
