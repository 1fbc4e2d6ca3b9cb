"""Count the lines of the modules of ``src/partkf``.

For each module it prints its code lines and all its lines, and then the
totals.  A code line is a line that is not blank, not only a comment and not
part of a docstring (the string that opens a module, class or function).
Only the standard library is used: ``ast`` finds the docstrings.

Run from the repository root::

    python tools/loc.py [directory]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def string_lines(tree: ast.Module) -> set[int]:
    """The line numbers inside a string of ``tree`` after its first line,
    where a ``#`` does not start a comment."""
    return {n for node in ast.walk(tree)
            if isinstance(node, (ast.Constant, ast.JoinedStr)) and node.end_lineno > node.lineno
            for n in range(node.lineno + 1, node.end_lineno + 1)}


def count(source: str) -> tuple[int, int]:
    """The code lines and all lines of the Python text ``source``."""
    tree = ast.parse(source)
    docs, strings = docstring_lines(tree), string_lines(tree)
    lines = source.splitlines()
    code = sum(1 for n, line in enumerate(lines, 1) if n not in docs and line.strip()
               and (n in strings or not line.strip().startswith("#")))
    return code, len(lines)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "partkf"
    total_code = total_all = 0
    print(f"{'module':<16} {'code':>6} {'lines':>6}")
    for path in sorted(src.glob("*.py")):
        code, lines = count(path.read_text())
        total_code += code
        total_all += lines
        print(f"{path.name:<16} {code:>6} {lines:>6}")
    print(f"{'total':<16} {total_code:>6} {total_all:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
