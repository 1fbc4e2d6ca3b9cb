"""Source rules of the package, checked on its ``ast``.

No linter ships with the test environment, so these stand in for lint rules.
Each ``src/partkf/*.py`` is parsed with ``ast``, and:

- every name bound by an import must be read somewhere in the module.  Exempt
  are names listed in the module's ``__all__``, imports marked
  ``# noqa: F401`` (deliberate re-exports) and ``__init__.py``, whose imports
  are the package's public surface;
- only ``model.py`` Cholesky-factors a matrix or handles a ``LinAlgError``:
  the matrix-health policy has one owner;
- no module uses NumPy API that exists only from NumPy 2.0, because
  ``pyproject.toml`` declares ``numpy>=1.24``;
- every defaulted parameter of a public function (one in its module's
  ``__all__``), unless its name starts with ``_``, is passed by some call in
  ``src/``, ``tests/``, ``bench/`` or ``demos/``: an option that nothing sets
  is a code path that nothing runs.

Each rule's checker is also run on a small source that breaks it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partkf"
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


def _dotted(node: ast.AST) -> str:
    """``np.linalg.cholesky`` for the expression that names it; '' for an
    expression that is not a dotted name."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def matrix_health_sites(source: str) -> list[str]:
    """Cholesky factorizations (``cho_factor``, ``cholesky``) called and
    ``LinAlgError`` handlers in ``source``."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            names = [_dotted(node.func)]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = [_dotted(t) for t in getattr(node.type, "elts", [node.type])]
        else:
            continue
        sites += [(node.lineno, name) for name in names
                  if name.rsplit(".", 1)[-1] in ("cho_factor", "cholesky", "LinAlgError")]
    return [f"{name} (line {line})" for line, name in sorted(sites)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_the_model_owns_matrix_health(path):
    assert matrix_health_sites(path.read_text()) == []


def test_checker_flags_matrix_health_sites():
    source = ("import numpy as np\nfrom scipy.linalg import cho_factor\ntry:\n"
              "    np.linalg.cholesky(m)\nexcept (ValueError, np.linalg.LinAlgError):\n"
              "    c = cho_factor(m)\nnp.linalg.eigvalsh(m)\n")
    assert matrix_health_sites(source) == [
        "np.linalg.cholesky (line 4)", "np.linalg.LinAlgError (line 5)",
        "cho_factor (line 6)"]
    assert matrix_health_sites((SRC / "model.py").read_text())


#: API that NumPy added in 2.0 (``np.cumulative_*`` in 2.1).
NUMPY2_ONLY = frozenset({
    "np.concat", "np.vecdot", "np.matrix_transpose", "np.permute_dims", "np.unstack",
    "np.cumulative_sum", "np.cumulative_prod", "np.astype", "np.isdtype", "np.pow",
    "np.linalg.matrix_transpose", "np.linalg.vecdot", "np.linalg.matrix_norm",
    "np.linalg.vector_norm", "np.linalg.svdvals",
})


def numpy2_only_uses(source: str) -> list[str]:
    """Uses in ``source`` of ``.mT`` or of a name in :data:`NUMPY2_ONLY`."""
    uses = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            name = ".mT" if node.attr == "mT" else _dotted(node)
            if name == ".mT" or name in NUMPY2_ONLY:
                uses.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(uses)]


@pytest.mark.parametrize("path", MODULES + [SRC / "__init__.py"], ids=lambda p: p.name)
def test_module_uses_no_numpy2_only_api(path):
    assert numpy2_only_uses(path.read_text()) == []


def test_checker_flags_numpy2_only_api():
    source = ("import numpy as np\na = m.mT @ m\nb = np.concat([a, a])\n"
              "c = np.linalg.matrix_transpose(b)\nd = np.swapaxes(c, -1, -2)\n"
              "e = np.concatenate([d]) + np.linalg.norm(d)\n")
    assert numpy2_only_uses(source) == [
        ".mT (line 2)", "np.concat (line 3)", "np.linalg.matrix_transpose (line 4)"]


def _options(tree: ast.Module) -> dict[str, list[tuple[str, int | None]]]:
    """Per public function of a module: its defaulted parameters whose names
    do not start with ``_``, each with its position (``None`` when it is
    keyword-only)."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in _exported(tree):
            a = node.args
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            opts = [(arg.arg, pos) for pos, arg in enumerate(positional) if pos >= first]
            opts += [(arg.arg, None) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
                     if d is not None]
            out[node.name] = [(arg, pos) for arg, pos in opts if not arg.startswith("_")]
    return out


def unset_options(modules: list[str], callers: list[str]) -> list[str]:
    """``function.parameter`` for each option of a public function of
    ``modules`` that no call in ``callers`` to a function of that name
    passes, by keyword or positionally at or past its position."""
    passed: dict[str, set] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = _dotted(node.func).rsplit(".", 1)[-1]
                args = [a for a in node.args if not isinstance(a, ast.Starred)]
                passed.setdefault(name, set()).update(
                    [kw.arg for kw in node.keywords if kw.arg], range(len(args)))
    unset = []
    for source in modules:
        for name, opts in _options(ast.parse(source)).items():
            seen = passed.get(name, set())
            unset += [f"{name}.{arg}" for arg, pos in opts
                      if arg not in seen and pos not in seen]
    return sorted(unset)


def test_every_option_is_set_by_some_call():
    callers = [p.read_text() for d in ("src", "tests", "bench", "demos")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unset_options([p.read_text() for p in MODULES], callers) == []


def test_checker_flags_an_unset_option():
    module = ("__all__ = ['run', 'Config']\n"
              "def run(x, order=None, mode='a', *, seed=0, trace=False, _k=None):\n"
              "    pass\n"
              "def helper(x, y=1):\n    pass\n"
              "class Config:\n    def replace(self, z=1):\n        pass\n")
    caller = "run(1, None, trace=True)\nmod.run(*args, **kwargs)\nrun(x, order=2)\n"
    assert unset_options([module], [caller]) == ["run.mode", "run.seed"]
