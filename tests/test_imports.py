"""Source rules of the package, checked on its ``ast``.

No linter ships with the test environment, so these stand in for lint rules.
Each ``src/partkf/*.py`` is parsed with ``ast``, and:

- every name bound by an import must be read somewhere in the module, and in
  every ``tests/*.py`` and ``demos/*.py`` too.  Exempt are names listed in the
  module's ``__all__``, imports marked ``# noqa: F401`` (deliberate
  re-exports) and ``__init__.py``, whose imports are the package's public
  surface;
- only ``model.py`` Cholesky-factors a matrix, calls the LAPACK Cholesky
  routines (``potrf``, ``potrs``, ``get_lapack_funcs``) or handles a
  ``LinAlgError``: the matrix-health policy has one owner;
- only ``fie.py`` and ``harness.py`` call the oracles (the batch estimators
  and the classical EKF, which on a linear plant's maps is the centralized
  Kalman filter): the paper's identities have one owner, ``harness.py``'s
  verification functions.  Every oracle the rule names is in ``fie.py``'s
  ``__all__``, so that the rule cannot outlive an oracle;
- only ``model.py`` calls ``linear_as_nonlinear``: elsewhere the affine view
  of a linear plant is ``aggregate_nonlinear`` of its linear subsystems;
- only ``simulate.py`` draws noise: calls ``.normal(``, ``default_rng`` or
  ``.streams(``, so that every draw follows ``sample_noise``'s rule and
  the stacked ensemble pass cannot drift from it;
- only ``model.py`` calls or reads a subsystem's Jacobian providers
  ``jac_f`` and ``jac_h``, besides the oracles' owners ``fie.py`` and
  ``harness.py``: the extended filter, ``linearize`` and ``_monolithic``
  read the one Jacobian path that writes them into group stacks, so that a
  second Jacobian path cannot come back;
- the messages of the check of a subsystem map result (``returned shape``,
  ``expected real numbers``, ``returned a non-finite value``) appear in one
  function of ``model.py`` only, ``_put``, outside docstrings: every result
  is checked by it, so that a second, drifting copy of the check cannot
  come back;
- ``analysis.py`` reads a record's block fields (``a_cols``, ``c_cols``,
  ``gains``, ``covs``) in one function only, ``_Loop._read``: the monitor
  kernel reads each entry once, so that a second stacking of the same
  entries cannot come back;
- the value rules' type tests (``numbers.Integral``, ``numbers.Real`` and
  ``isinstance(..., bool)``) appear only in the rules of ``model.py``
  (``_integer``, ``_floats`` and ``_flag``): every value from outside the
  program is checked by them, so that a second, drifting copy of "an
  integer" or "a real number" cannot come back;
- ``analysis.py`` and ``cli.py`` reach a config's model only through
  ``harness._resolve``: they call none of the functions that build or keep
  one (``get_benchmark``, ``_inline_model``, ``_benchmark``), and in
  ``harness.py`` only ``_resolve`` calls the kept build ``_benchmark``, so
  that a second, unkept resolution path cannot come back beside it;
- no module uses NumPy API that exists only from NumPy 2.0, because
  ``pyproject.toml`` declares ``numpy>=1.24``;
- every defaulted parameter of a public function (one in its module's
  ``__all__``), unless its name starts with ``_``, is passed by some call in
  ``src/``, ``bench/`` or ``demos/``: an option that nothing sets is a code
  path that nothing runs, and one that only a test sets is a code path that
  only tests run.  The exceptions are listed by name in ``TEST_HOOKS``.

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


#: The test and demo scripts, held to the import rule of the package.
SCRIPTS = sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")])


@pytest.mark.parametrize("path", MODULES + SCRIPTS,
                         ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
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


#: Names of the Cholesky factorizations and LAPACK lookups that only
#: ``model.py`` calls, and of the error that only it handles.
MATRIX_HEALTH = ("cho_factor", "cholesky", "get_lapack_funcs", "LinAlgError")


def matrix_health_sites(source: str) -> list[str]:
    """Cholesky factorizations (``cho_factor``, ``cholesky``, any LAPACK
    ``*potrf``/``*potrs``) and LAPACK lookups called, and ``LinAlgError``
    handlers, in ``source``."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            names = [_dotted(node.func)]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            names = [_dotted(t) for t in getattr(node.type, "elts", [node.type])]
        else:
            continue
        sites += [(node.lineno, name) for name in names
                  if name.rsplit(".", 1)[-1] in MATRIX_HEALTH
                  or name.endswith(("potrf", "potrs"))]
    return [f"{name} (line {line})" for line, name in sorted(sites)]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_the_model_owns_matrix_health(path):
    assert matrix_health_sites(path.read_text()) == []


def test_checker_flags_matrix_health_sites():
    source = ("import numpy as np\nfrom scipy.linalg import cho_factor\ntry:\n"
              "    np.linalg.cholesky(m)\nexcept (ValueError, np.linalg.LinAlgError):\n"
              "    c = cho_factor(m)\nnp.linalg.eigvalsh(m)\n"
              "from scipy.linalg import lapack\nc, info = lapack.dpotrf(m, lower=0)\n"
              "x, info = dpotrs(c, b)\npotrf, = get_lapack_funcs(('potrf',), (m,))\n"
              "spotrf(m)\nnp.linalg.solve(m, b)\n")
    assert matrix_health_sites(source) == [
        "np.linalg.cholesky (line 4)", "np.linalg.LinAlgError (line 5)",
        "cho_factor (line 6)", "lapack.dpotrf (line 9)", "dpotrs (line 10)",
        "get_lapack_funcs (line 11)", "spotrf (line 12)"]
    assert matrix_health_sites((SRC / "model.py").read_text())


#: The oracles of ``fie.py`` that only the verification functions call.
ORACLES = frozenset({"run_dfie", "centralized_fie", "classical_ekf_init", "classical_ekf_step"})


def calls_to(source: str, names: frozenset) -> list[str]:
    """Calls in ``source`` of a function named in ``names``."""
    calls = [(node.lineno, _dotted(node.func)) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Call)
             and _dotted(node.func).rsplit(".", 1)[-1] in names]
    return [f"{name} (line {line})" for line, name in sorted(calls)]


@pytest.mark.parametrize("path", [p for p in MODULES + [SRC / "__init__.py"]
                                  if p.name not in ("fie.py", "harness.py")],
                         ids=lambda p: p.name)
def test_only_the_verification_functions_call_the_oracles(path):
    assert calls_to(path.read_text(), ORACLES) == []


def not_exported(names: frozenset, source: str) -> list[str]:
    """The names in ``names`` that the ``__all__`` of ``source`` does not list."""
    return sorted(names - _exported(ast.parse(source)))


def test_every_oracle_is_exported_by_fie():
    assert not_exported(ORACLES, (SRC / "fie.py").read_text()) == []


def test_checker_flags_an_oracle_missing_from_fie():
    source = "__all__ = ['run_dfie', 'centralized_fie', 'classical_ekf_step']\n"
    assert not_exported(ORACLES, source) == ["classical_ekf_init"]
    assert not_exported(ORACLES | {"centralized_kf_step"},
                        (SRC / "fie.py").read_text()) == ["centralized_kf_step"]


def test_checker_flags_oracle_calls():
    source = ("from partkf import fie\nfrom partkf.fie import run_dfie, centralized_fie\n"
              "d = run_dfie(m, des, ys, 5)\nx = fie.classical_ekf_step(x, P, y, f, h, jf, jh, Q, R)\n"
              "g = centralized_fie\nlocal_fie(problem)\n")
    assert calls_to(source, ORACLES) == ["run_dfie (line 3)", "fie.classical_ekf_step (line 4)"]
    assert calls_to((SRC / "harness.py").read_text(), ORACLES)


#: The wrapper that only ``model.py`` may call.
WRAPPER = frozenset({"linear_as_nonlinear"})


@pytest.mark.parametrize("path", [p for p in MODULES + [SRC / "__init__.py"]
                                  if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_the_model_wraps_linear_subsystems(path):
    assert calls_to(path.read_text(), WRAPPER) == []


def test_checker_flags_wrapper_calls():
    source = ("from partkf import model\nfrom partkf.model import linear_as_nonlinear\n"
              "view = aggregate_nonlinear([linear_as_nonlinear(s) for s in subs], part)\n"
              "one = model.linear_as_nonlinear(sub)\nwrap = linear_as_nonlinear\n"
              "view = aggregate_nonlinear(subs, part)\n")
    assert calls_to(source, WRAPPER) == ["linear_as_nonlinear (line 3)",
                                         "model.linear_as_nonlinear (line 4)"]


#: The calls that draw noise or make its generators, which only
#: ``simulate.py`` makes.
NOISE_DRAWS = frozenset({"normal", "default_rng", "streams"})


def noise_draw_sites(source: str) -> list[str]:
    """Calls in ``source`` of a function or method named in
    :data:`NOISE_DRAWS`, on any object (``gens[i].normal``, say)."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", ""))
            if name in NOISE_DRAWS:
                sites.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(sites)]


@pytest.mark.parametrize("path", [p for p in MODULES + [SRC / "__init__.py"]
                                  if p.name != "simulate.py"],
                         ids=lambda p: p.name)
def test_only_simulate_draws_noise(path):
    assert noise_draw_sites(path.read_text()) == []


def test_checker_flags_noise_draws():
    source = ("import numpy as np\nfrom numpy.random import default_rng\n"
              "w, v = noise.streams(2)\nz = gens[0].normal(0.0, 1.0, size=(5, 2))\n"
              "rng = default_rng(3)\ng = np.random.default_rng(4)\n"
              "x = np.random.SeedSequence(1).generate_state(3)\nnormal = 1.0\n")
    assert noise_draw_sites(source) == ["streams (line 3)", "normal (line 4)",
                                        "default_rng (line 5)", "default_rng (line 6)"]
    assert noise_draw_sites((SRC / "simulate.py").read_text())


#: The Jacobian providers of a subsystem, which only ``model.py`` uses,
#: besides the oracles' owners ``fie.py`` and ``harness.py``.
PROVIDERS = frozenset({"jac_f", "jac_h"})


def provider_uses(source: str) -> list[str]:
    """Reads in ``source`` of a ``jac_f`` or ``jac_h`` attribute (a call of
    a subsystem's provider, or the provider handed to a helper that calls
    it) and calls of a function of that name."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PROVIDERS:
            sites.append((node.lineno, _dotted(node) or node.attr))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", "") in PROVIDERS:
            sites.append((node.lineno, node.func.id))
    return [f"{name} (line {line})" for line, name in sorted(sites)]


@pytest.mark.parametrize("path", [p for p in MODULES + [SRC / "__init__.py"]
                                  if p.name not in ("model.py", "fie.py", "harness.py")],
                         ids=lambda p: p.name)
def test_only_the_model_uses_the_jacobian_providers(path):
    assert provider_uses(path.read_text()) == []


def test_checker_flags_provider_uses():
    source = ("blocks = sub.jac_f(x, nbrs)\nC = model.subsystems[0].jac_h(x)\n"
              "A = jac_f(x)\nblocks = _checked(sub, 'jac_f', sub.jac_f, x, nbrs)\n"
              "own = _reactor_jac_f(0, 0.1)\nview = NonlinearSubsystem(jac_f=f, jac_h=None)\n")
    assert provider_uses(source) == ["sub.jac_f (line 1)", "jac_h (line 2)",
                                     "jac_f (line 3)", "sub.jac_f (line 4)"]
    assert provider_uses((SRC / "model.py").read_text())


#: The messages of the one check of a subsystem map result.
RESULT_CHECK = ("returned shape", "expected real numbers", "returned a non-finite value")


def result_check_sites(source: str) -> list[str]:
    """The functions of ``source`` (``Class.method`` for a method) whose
    strings, docstrings aside, hold a message in :data:`RESULT_CHECK`."""
    tree = ast.parse(source)
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}
    sites = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and id(child) not in docs
                    and any(m in child.value for m in RESULT_CHECK)):
                sites.add(owner or "<module>")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, ".".join(filter(None, (owner, child.name))) if named else owner)

    visit(tree, "")
    return sorted(sites)


def test_one_function_checks_map_results():
    sites = [f"{path.name}:{site}" for path in MODULES + [SRC / "__init__.py"]
             for site in result_check_sites(path.read_text())]
    assert sites == ["model.py:_put"]


def test_checker_flags_a_second_result_check():
    source = ('"""A map that returned a non-finite value is an error."""\n'
              "def _put(dest, i, got):\n"
              "    raise E(f'subsystem {i}: returned shape {got.shape}, '\n"
              "            f'expected {dest.shape}')\n"
              "class Pass:\n"
              "    def put(self, i, what):\n"
              "        raise E(f'subsystem {i}: {what} returned a non-finite '\n"
              "                'value')\n"
              "def note():\n"
              "    'expected real numbers'\n"
              "    return 'shape'\n"
              "LIMIT = 'returned shape'\n")
    assert result_check_sites(source) == ["<module>", "Pass.put", "_put"]
    planted = ((SRC / "model.py").read_text()
               + "\n\ndef _checked_again(sub, what, got):\n"
               "    if got.dtype.kind not in 'iuf':\n"
               "        raise LinearizationError(f'subsystem {sub.index}: {what} returned '\n"
               "                                 f'{got.dtype} values, expected real numbers')\n")
    assert result_check_sites(planted) == ["_checked_again", "_put"]


#: The block fields of a record, which ``analysis.py`` reads in one place.
RECORD_BLOCKS = frozenset({"a_cols", "c_cols", "gains", "covs"})


def record_block_reads(source: str) -> list[str]:
    """The functions of ``source`` (``Class.method`` for a method) that read
    a record's block field: an attribute named in :data:`RECORD_BLOCKS`, or a
    ``getattr`` of a record (``record``, ``self.record``) or of a field
    named in :data:`RECORD_BLOCKS`."""
    def reads(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return node.attr in RECORD_BLOCKS
        if not (isinstance(node, ast.Call) and _dotted(node.func) == "getattr"
                and len(node.args) >= 2):
            return False
        obj, field = node.args[:2]
        return (_dotted(obj).rsplit(".", 1)[-1] == "record"
                or isinstance(field, ast.Constant) and field.value in RECORD_BLOCKS)

    sites = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if reads(child):
                sites.add(owner or "<module>")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, ".".join(filter(None, (owner, child.name))) if named else owner)

    visit(ast.parse(source), "")
    return sorted(sites)


def test_one_function_reads_the_record_blocks_in_analysis():
    assert record_block_reads((SRC / "analysis.py").read_text()) == ["_Loop._read"]


def test_checker_flags_a_second_record_block_read():
    source = ("def head(record):\n    return [record.c_cols[0][i] for i in range(2)]\n"
              "class Loop:\n    def stack(self, field):\n"
              "        return getattr(self.record, field)\n"
              "    def gains(self, rec):\n        return getattr(rec, 'gains')\n"
              "    def as_dict(self):\n        return {k: getattr(self, k) for k in 'ab'}\n"
              "FIELDS = ('covs', 'a_cols')\nrec.covs[0]\n")
    assert record_block_reads(source) == ["<module>", "Loop.gains", "Loop.stack", "head"]
    planted = ((SRC / "analysis.py").read_text()
               + "\n\ndef _head_norms(record):\n"
               "    return _norms(np.array([record.gains[0][i] for i in range(2)]))\n")
    assert record_block_reads(planted) == ["_Loop._read", "_head_norms"]


#: The functions of ``model.py`` that hold the value rules' type tests.
VALUE_RULES = ["model.py:_flag", "model.py:_floats", "model.py:_integer"]


def type_test_sites(source: str) -> list[str]:
    """The functions of ``source`` (``Class.method`` for a method) that test
    a value's type as the value rules do: ``numbers.Integral``,
    ``numbers.Real`` or ``isinstance(..., bool)``."""
    def tests(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute):
            return _dotted(node) in ("numbers.Integral", "numbers.Real")
        if not (isinstance(node, ast.Call) and _dotted(node.func) == "isinstance"
                and len(node.args) == 2):
            return False
        kinds = getattr(node.args[1], "elts", [node.args[1]])
        return any(_dotted(kind) == "bool" for kind in kinds)

    sites = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if tests(child):
                sites.add(owner or "<module>")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, ".".join(filter(None, (owner, child.name))) if named else owner)

    visit(ast.parse(source), "")
    return sorted(sites)


def test_only_the_value_rules_test_value_types():
    sites = [f"{path.name}:{site}" for path in MODULES + [SRC / "__init__.py"]
             for site in type_test_sites(path.read_text())]
    assert sites == VALUE_RULES


def test_checker_flags_a_second_value_type_test():
    source = ("import numbers\n"
              "def _steps(value):\n"
              "    if isinstance(value, bool) or not isinstance(value, numbers.Integral):\n"
              "        raise ValueError('steps')\n"
              "class Params:\n"
              "    def real(self, v):\n"
              "        return isinstance(v, (int, bool)) or isinstance(v, numbers.Real)\n"
              "    def text(self, v):\n"
              "        return isinstance(v, str) and type(v) is not int\n"
              "FLAG = isinstance(True, bool)\n")
    assert type_test_sites(source) == ["<module>", "Params.real", "_steps"]
    planted = ((SRC / "records.py").read_text()
               + "\n\ndef _count(value):\n"
               "    return not isinstance(value, bool) and value >= 0\n")
    assert type_test_sites(planted) == ["_count"]
    assert [f"model.py:{site}" for site in type_test_sites((SRC / "model.py").read_text())
            ] == VALUE_RULES


#: The functions that build a config's model or keep a built benchmark.
RESOLVERS = frozenset({"get_benchmark", "_inline_model", "_benchmark"})
#: Where ``harness.py`` calls them (``caller:callee``): the benchmark
#: fixtures of ``verify_suite`` besides the one resolution path.
RESOLVER_CALLS = ["_benchmark:get_benchmark", "_resolve:_benchmark",
                  "_resolve:_inline_model", "verify_suite:get_benchmark"]


def call_owners(source: str, names: frozenset) -> list[str]:
    """``caller:callee`` for each function of ``source`` (``Class.method``
    for a method, ``<module>`` outside any) that calls a function named in
    ``names``."""
    sites = set()

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = _dotted(child.func).rsplit(".", 1)[-1]
                if name in names:
                    sites.add(f"{owner or '<module>'}:{name}")
            named = isinstance(child, (ast.ClassDef, ast.FunctionDef))
            visit(child, ".".join(filter(None, (owner, child.name))) if named else owner)

    visit(ast.parse(source), "")
    return sorted(sites)


@pytest.mark.parametrize("name", ["analysis.py", "cli.py"])
def test_the_runners_reach_a_model_only_through_resolve(name):
    assert call_owners((SRC / name).read_text(), RESOLVERS) == []


def test_only_resolve_calls_the_kept_build():
    assert call_owners((SRC / "harness.py").read_text(), RESOLVERS) == RESOLVER_CALLS


def test_checker_flags_a_second_resolution_path():
    source = ("def run(config):\n    return get_benchmark(config.model['name']).model\n"
              "class Plan:\n    def bench(self, name):\n        return harness._benchmark(name, {})\n"
              "KEEP = _benchmark\nresolve(config)\n_inline_model(spec)\n")
    assert call_owners(source, RESOLVERS) == ["<module>:_inline_model", "Plan.bench:_benchmark",
                                              "run:get_benchmark"]
    planted = ((SRC / "harness.py").read_text()
               + "\n\ndef _replan(config):\n    return get_benchmark(config.model['name']).model\n")
    assert call_owners(planted, RESOLVERS) == sorted(RESOLVER_CALLS + ["_replan:get_benchmark"])
    planted = ((SRC / "analysis.py").read_text()
               + "\n\ndef _model(config):\n    from .benchmarks import get_benchmark\n"
               "    return get_benchmark(config.model['name']).model\n")
    assert call_owners(planted, RESOLVERS) == ["_model:get_benchmark"]


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


#: The directories whose calls count as setting an option; ``tests/`` does not.
CALLER_DIRS = ("src", "bench", "demos")
#: The options that only tests set: ``order`` is the hook of the determinism
#: check (C10), which runs the agents in another order and compares bits.
TEST_HOOKS = ("run_dekf.order", "run_dkf.order")


def options_set_only_by_tests(modules: list[str], callers: list[str]) -> list[str]:
    """The options of ``modules`` that no call in ``callers`` sets, less the
    listed test hooks."""
    return [name for name in unset_options(modules, callers) if name not in TEST_HOOKS]


def test_every_option_is_set_by_some_call():
    callers = [p.read_text() for d in CALLER_DIRS for p in sorted((ROOT / d).rglob("*.py"))]
    modules = [p.read_text() for p in MODULES]
    assert options_set_only_by_tests(modules, callers) == []
    # A hook that the package stops declaring, or starts to set, leaves the list.
    assert set(TEST_HOOKS) <= set(unset_options(modules, callers))


def test_checker_flags_an_unset_option():
    module = ("__all__ = ['run', 'Config']\n"
              "def run(x, order=None, mode='a', *, seed=0, trace=False, _k=None):\n"
              "    pass\n"
              "def helper(x, y=1):\n    pass\n"
              "class Config:\n    def replace(self, z=1):\n        pass\n")
    caller = "run(1, None, trace=True)\nmod.run(*args, **kwargs)\nrun(x, order=2)\n"
    assert unset_options([module], [caller]) == ["run.mode", "run.seed"]
    # An option that only a test passes is flagged, unless it is a listed hook.
    module = ("__all__ = ['run_dkf']\n"
              "def run_dkf(model, design, traj, order=None, mode='analytic'):\n"
              "    pass\n")
    package = "run_dkf(model, design, traj)\n"
    test = "run_dkf(model, design, traj, order=[1, 0], mode='fd')\n"
    assert unset_options([module], [package, test]) == []
    assert unset_options([module], [package]) == ["run_dkf.mode", "run_dkf.order"]
    assert options_set_only_by_tests([module], [package]) == ["run_dkf.mode"]
