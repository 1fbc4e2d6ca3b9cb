"""Probe the tests with single-edit mutants of the modules of ``src/partkf``.

A mutant changes one thing in one module.  It swaps an arithmetic,
comparison or boolean operator, bumps a numeric constant, drops a ``not``
or a unary minus, deletes a ``raise`` or a call of a check (a ``_check_*``
or ``validate`` call made as a statement), or skips a result check: a
``_put(dest, ...)`` call becomes ``dest``, which writes and checks
nothing.  Annotations and f-strings are left alone.  For each module the probe takes a seeded sample
of its mutants.  It runs each mutant, in a scratch copy of the repository,
against the module's mapped test files (:data:`MAPPED`, by default
``tests/test_<module>.py``), then against the whole suite if it survives
them.  Each mutant is reported as

- ``killed``, naming the first test that failed (a mutant that makes the
  tests time out counts as killed too);
- ``equivalent``, with the reason: it runs the original's instructions, or
  :data:`EQUIVALENT` gives why it cannot change what the program computes;
- ``open``: every test passed.

Only the standard library is used.  Run from the repository root::

    python tools/mutants.py src/partkf/dkf.py src/partkf/records.py --count 30 --seed 1
"""

from __future__ import annotations

import argparse
import ast
import dis
import hashlib
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from types import CodeType
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: Seconds a test run may take before its mutant counts as killed.
TIMEOUT = 600.0

#: The test files of a module that are run first, where they are not (only)
#: ``tests/test_<module>.py``.
MAPPED = {
    "dkf.py": ("tests/test_dkf.py", "tests/test_gain_kernel.py"),
    "analysis.py": ("tests/test_analysis.py", "tests/test_monitor_kernel.py"),
    "model.py": ("tests/test_model.py", "tests/test_stacked_maps.py"),
}

#: Mutants that survive every test but cannot change what the program
#: computes, by :attr:`Mutant.key`, with the reason.
EQUIVALENT = {
    # dkf.py:_NonlinearSource.__init__, 4 * max(p.dims) -> 5 * max(p.dims)
    "ec38bea1": "sets only how many runs share a stacked ensemble pass; every run's "
                "bits are its own at any width",
    # records.py:_blocks, len(set(shapes)) == 1 -> != 1, and 1 -> 2
    "a96beaf1": "picks the whole-field or the per-block conversion, which give equal arrays",
    "433f13dd": "picks the whole-field or the per-block conversion, which give equal arrays",
    # analysis.py:_CHUNK, 2 ** 15 -> 2 ** 16, and _chunks, max(1, ...) -> max(2, ...)
    "dd676f04": "sets only the chunk size of the monitor pass, whose report is bitwise the "
                "same for any chunk (test_chunked_kernel_bitwise_equal_to_reference)",
    "05487789": "sets only the chunk size of the monitor pass, whose report is bitwise the "
                "same for any chunk (test_chunked_kernel_bitwise_equal_to_reference)",
    # model.py:_all_finite, a.size <= 64 -> a.size < 64
    "68a071a9": "picks the sum test or NumPy's test of a 64-entry array, which give the "
                "same verdict (an overflowing sum falls through to NumPy's)",
    # fie.py:_weights, np.eye(m.shape[0]) -> np.eye(m.shape[1])
    "ca873eb3": "differs only for a weight that is not square, which never gets a factor: "
                "its symmetric part does not broadcast or is not positive definite",
}

#: The operator each operator is swapped for.
SWAPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult, ast.MatMult: ast.Mult,
    ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In, ast.And: ast.Or, ast.Or: ast.And,
}


class Mutant(NamedTuple):
    """One edit of a module's text: bytes ``start:end`` become ``text``."""

    module: str
    line: int
    scope: str
    kind: str
    start: int
    end: int
    before: str
    text: str
    key: str

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.text.encode() + source[self.end:]

    def __str__(self) -> str:
        before, text = (t if len(t) <= 72 else t[:69] + "..." for t in (self.before, self.text))
        return f"{self.module}:{self.line} {self.scope}: {self.kind}: {before} -> {text}"


def _skipped(tree: ast.AST) -> set[int]:
    """The ids of the nodes inside an annotation or an f-string."""
    roots = []
    for node in ast.walk(tree):
        if isinstance(node, ast.arg | ast.AnnAssign) and node.annotation is not None:
            roots.append(node.annotation)
        elif isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef) and node.returns:
            roots.append(node.returns)
        elif isinstance(node, ast.JoinedStr):
            roots.append(node)
    return {id(n) for root in roots for n in ast.walk(root)}


def _edits(node: ast.AST, segment) -> list[tuple[str, str]]:
    """The single edits of ``node``, as ``(kind, replacement text)``."""
    if isinstance(node, ast.BinOp | ast.BoolOp) and type(node.op) in SWAPS:
        swapped = type(node)(**{**vars(node), "op": SWAPS[type(node.op)]()})
        return [("swapped operator", f"({ast.unparse(swapped)})")]
    if isinstance(node, ast.Compare):
        edits = []
        for j, op in enumerate(node.ops):
            if type(op) in SWAPS:
                ops = [*node.ops[:j], SWAPS[type(op)](), *node.ops[j + 1:]]
                swapped = ast.Compare(node.left, ops, node.comparators)
                edits.append(("swapped operator", f"({ast.unparse(swapped)})"))
        return edits
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        bumped = node.value + 1 if type(node.value) is int else 2 * node.value or 1.0
        return [("bumped constant", repr(bumped))]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not | ast.USub):
        kind = "dropped not" if isinstance(node.op, ast.Not) else "dropped unary minus"
        return [(kind, f"({segment(node.operand)})")]
    if isinstance(node, ast.Raise):
        return [("deleted raise", "pass")]
    if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_put" and node.args:
        return [("skipped _put", f"({segment(node.args[0])})")]
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
        func = node.value.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name.startswith("_check") or name == "validate":
            return [("deleted check call", "pass")]
    return []


def mutants(module: str, source: bytes) -> list[Mutant]:
    """Every mutant of the module ``module`` whose text is ``source``, in
    text order."""
    tree = ast.parse(source)
    skipped = _skipped(tree)
    starts = [0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node) -> tuple[int, int]:
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    def segment(node) -> str:
        start, end = span(node)
        return source[start:end].decode()

    out, seen = [], {}

    def visit(node, scope):
        if id(node) in skipped:
            return
        if isinstance(node, ast.FunctionDef | ast.AsyncFunctionDef | ast.ClassDef):
            scope = f"{scope}.{node.name}" if scope != "<module>" else node.name
        for kind, text in _edits(node, segment):
            start, end = span(node)
            before = " ".join(segment(node).split())
            ident = (Path(module).name, scope, kind, before, text)
            seen[ident] = seen.get(ident, -1) + 1
            key = hashlib.sha1(repr((*ident, seen[ident])).encode()).hexdigest()[:8]
            out.append(Mutant(module, node.lineno, scope, kind, start, end, before, text, key))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return sorted(out, key=lambda m: (m.start, m.end))


def _instructions(code: CodeType) -> list:
    """The instructions of ``code`` and of the code it nests, without their
    positions."""
    return [(ins.opname, _instructions(ins.argval) if isinstance(ins.argval, CodeType)
             else repr(ins.argval)) for ins in dis.get_instructions(code)]


def same_code(a: bytes, b: bytes) -> bool:
    """Whether two module texts compile to the same instructions."""
    return _instructions(compile(a, "<a>", "exec")) == _instructions(compile(b, "<b>", "exec"))


def run_tests(copy: Path, files: list[str]) -> str | None:
    """The first test that fails in the copy, ``None`` when every test of
    ``files`` (the whole suite when none is given) passes."""
    path = os.pathsep.join([str(copy / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": path}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *files]
    try:
        proc = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return f"timed out after {TIMEOUT:g} s"
    if proc.returncode == 0:
        return None
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M)
    return failed.group(1) if failed else f"pytest exit {proc.returncode}"


def mapped(root: Path, module: str) -> list[str]:
    """The test files run first against a mutant of ``module``."""
    name = Path(module).name
    default = f"tests/test_{Path(module).stem}.py"
    return list(MAPPED.get(name, (default,) if (root / default).exists() else ()))


def _against(copy: Path, path: Path, text: bytes, source: bytes, files: list[str]) -> str | None:
    """:func:`run_tests` with the module at ``path`` reading ``text``; it
    reads ``source`` again afterwards."""
    path.write_bytes(text)
    try:
        return run_tests(copy, files)
    finally:
        path.write_bytes(source)


def probe(root: Path, modules: list[str], count: int, seed: int,
          out=sys.stdout) -> dict[str, list]:
    """Probe each of ``modules`` (paths under ``root``) with a sample of
    ``count`` mutants drawn with ``seed``; print one line per mutant and
    return the verdicts, per module ``(mutant, verdict, detail)``.  The
    unmutated tree must pass the tests first."""
    results = {}
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", "*.pyc", ".pytest_cache", "out"))
        suite_checked = False
        for module in modules:
            path = copy / module
            source = path.read_bytes()
            files = mapped(root, module)
            if files and run_tests(copy, files) is not None:
                raise SystemExit(f"{module}: the unmutated tree fails {files}")
            every = mutants(module, source)
            results[module] = []
            for m in sorted(random.Random(seed).sample(every, min(count, len(every))),
                            key=lambda m: m.start):
                mutated = m.apply(source)
                if same_code(source, mutated):
                    verdict, detail = "equivalent", "runs the original's instructions"
                else:
                    failed = _against(copy, path, mutated, source, files) if files else None
                    if failed is None:
                        if not suite_checked and run_tests(copy, []) is not None:
                            raise SystemExit("the unmutated tree fails the suite")
                        suite_checked = True
                        failed = _against(copy, path, mutated, source, [])
                    verdict, detail = (("killed", failed) if failed is not None else
                                       ("equivalent", EQUIVALENT[m.key]) if m.key in EQUIVALENT
                                       else ("open", "every test passed"))
                results[module].append((m, verdict, detail))
                print(f"{verdict:<10} {m.key} {m}  [{detail}]", file=out, flush=True)
    for module, rows in results.items():
        tally = {v: sum(r[1] == v for r in rows) for v in ("killed", "equivalent", "open")}
        print(f"{module}: {len(rows)} mutants, " + ", ".join(f"{n} {v}" for v, n in tally.items()),
              file=out)
    return results


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="module paths under the root")
    parser.add_argument("--count", type=int, default=30, help="mutants per module")
    parser.add_argument("--seed", type=int, default=1, help="seed of the sample")
    args = parser.parse_args(argv)
    probe(ROOT, args.modules, args.count, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
