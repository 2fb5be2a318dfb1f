"""Count code lines per Python module and in total.

A code line is a physical line spanned by a token other than a comment, a
blank (newline, indent or dedent) or a docstring. Docstrings are the string
expressions that open a module, class or function body, found through
``ast``, so the count does not depend on formatting inside them.

Usage: ``python tools/code_lines.py [PATH...]``. Each PATH is a ``.py``
file or a directory searched for ``*.py``; the default is ``src``. Prints
one ``count  path`` line per module, then the total. Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: bytes) -> int:
    """The number of code lines in a module's source."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.tokenize(io.BytesIO(source).readline):
        if token.type in _NOT_CODE:
            continue
        span = range(token.start[0], token.end[0] + 1)
        if token.type == tokenize.STRING and all(line in docstrings for line in span):
            continue
        lines.update(span)
    return len(lines)


def _modules(paths: list[Path]) -> list[Path]:
    return [module for path in paths
            for module in (sorted(path.rglob("*.py")) if path.is_dir() else [path])]


def main(argv: list[str]) -> int:
    total = 0
    for module in _modules([Path(arg) for arg in argv] or [Path("src")]):
        count = code_lines(module.read_bytes())
        total += count
        print(f"{count:6d}  {module}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
