"""Every name a module of the package imports is used by that module.

No linter ships with the test environment, so this stands in for the
unused-import rule: each ``src/partkf/*.py`` is parsed with ``ast`` and a
name bound by an import must be read somewhere in the module.  Exempt are
names listed in the module's ``__all__``, imports marked ``# noqa: F401``
(deliberate re-exports) and ``__init__.py``, whose imports are the package's
public surface.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "partkf"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    """Names imported by ``source`` that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                if alias.name == "*" or (isinstance(node, ast.ImportFrom)
                                         and node.module == "__future__"):
                    continue
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # A dotted use (``np.linalg``) reads the root name, which is an ast.Name.
    # Names in string annotations are read too.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used and name not in _exported(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_checker_flags_an_unused_import():
    source = ("from typing import Sequence\nimport json\n"
              "from os import path  # noqa: F401\n__all__ = ['x']\n"
              "from math import pi as x\nprint(json)\n")
    assert unused_imports(source) == ["Sequence (line 1)"]
