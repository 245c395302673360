"""Count the raw and code lines of each module under src/qnlab.

A code line is a line that holds at least one token other than a comment
or a docstring; blank lines, comment-only lines and the lines of module,
class and function docstrings do not count.

    python3 tools/src_lines.py [package-dir]

prints one row per module (raw, code, name) and a total row.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> tuple:
    """(raw lines, code lines) of one Python source file."""
    text = path.read_text(encoding="utf-8")
    docs = _docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _SKIP:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(text.splitlines()), len(code)


def main(argv: list) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "qnlab"
    total_raw = total_code = 0
    for path in sorted(root.glob("*.py")):
        raw, code = count(path)
        total_raw, total_code = total_raw + raw, total_code + code
        print(f"{raw:6d} {code:6d}  {path.name}")
    print(f"{total_raw:6d} {total_code:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
