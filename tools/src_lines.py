"""Count the raw and code lines of Python source files.

A code line is a line that holds at least one token other than a comment
or a docstring; blank lines, comment-only lines and the lines of module,
class and function docstrings do not count.

    python3 tools/src_lines.py [path ...]

Each path is a file or a directory, whose *.py modules are counted (not
recursively); the default is src/qnlab.  Prints one row per file (raw,
code, name), a total row per directory and, when more than one path is
given, a grand total row:

    python3 tools/src_lines.py src/qnlab tests/test_acceptance.py
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
    roots = [Path(a) for a in argv[1:]] or [Path(__file__).resolve().parents[1] / "src" / "qnlab"]
    grand_raw = grand_code = 0
    for root in roots:
        files = sorted(root.glob("*.py")) if root.is_dir() else [root]
        total_raw = total_code = 0
        for path in files:
            raw, code = count(path)
            total_raw, total_code = total_raw + raw, total_code + code
            print(f"{raw:6d} {code:6d}  {path.name if root.is_dir() else path}")
        if root.is_dir():
            print(f"{total_raw:6d} {total_code:6d}  total")
        grand_raw, grand_code = grand_raw + total_raw, grand_code + total_code
    if len(roots) > 1:
        print(f"{grand_raw:6d} {grand_code:6d}  grand total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
