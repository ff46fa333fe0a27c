"""Count the code lines of the package: lines holding a token of a statement,
so no blank line, no comment and no docstring (the string that opens a
module, class or function body).  Prints one line per module of
``src/exactdilation``, then the totals of code lines and of all lines.

Usage: ``python tools/code_lines.py [DIR]`` (default: the package source).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "exactdilation"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _BODIES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else PACKAGE
    code = total = 0
    print(f"{'module':<16} {'code':>5} {'total':>5}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        n, t = code_lines(source), len(source.splitlines())
        print(f"{path.name:<16} {n:>5} {t:>5}")
        code, total = code + n, total + t
    print(f"{'code lines':<16} {code:>5}\n{'total lines':<16} {total:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
