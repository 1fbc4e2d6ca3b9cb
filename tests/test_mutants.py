"""``tools/mutants.py``, the mutation probe, on a planted module."""

import importlib.util
import io
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

PLANTED = b'''"""A planted module."""


def double(x: int) -> int:
    if not x:
        raise ValueError(f"x must not be {x - 0}")
    return x + x


def spare():
    if False:
        return 1
'''

#: A planted module whose one mutant skips the result check ``_put``.
PLANTED_PUT = b'''def fill(dest, got):
    return _put(dest, "f", got)
'''


def _plant(root: Path, source: bytes) -> None:
    """A project of one module, ``src/plant.py``, whose mapped test file
    checks ``double``."""
    (root / "src").mkdir()
    (root / "tests").mkdir()
    (root / "src" / "plant.py").write_bytes(source)
    (root / "tests" / "test_plant.py").write_text(
        "from plant import double\n\n\ndef test_double():\n    assert double(3) == 6\n")


def test_planted_module_lists_each_single_edit_in_text_order():
    # Neither the annotations nor the f-string are mutated.
    got = [(m.line, m.scope, m.kind, m.before, m.text)
           for m in mutants.mutants("src/plant.py", PLANTED)]
    assert got == [
        (5, "double", "dropped not", "not x", "(x)"),
        (6, "double", "deleted raise", 'raise ValueError(f"x must not be {x - 0}")', "pass"),
        (7, "double", "swapped operator", "x + x", "(x - x)"),
        (12, "spare", "bumped constant", "1", "2"),
    ]
    assert len({m.key for m in mutants.mutants("src/plant.py", PLANTED)}) == 4
    # A skipped ``_put`` is its destination, which writes and checks nothing.
    [skipped] = mutants.mutants("src/plant.py", PLANTED_PUT)
    assert (skipped.line, skipped.scope, skipped.kind, skipped.before, skipped.text) == (
        2, "fill", "skipped _put", '_put(dest, "f", got)', "(dest)")
    assert skipped.apply(PLANTED_PUT) == b"def fill(dest, got):\n    return (dest)\n"


def test_a_mutant_of_dead_code_runs_the_original_instructions():
    edits = mutants.mutants("src/plant.py", PLANTED)
    assert [mutants.same_code(PLANTED, m.apply(PLANTED)) for m in edits] == [
        False, False, False, True]


def test_a_planted_mutant_is_killed_by_its_mapped_tests(tmp_path):
    # One planted mutant, "x + x" -> "(x - x)", run by pytest in a copy.
    original = b"def double(x):\n    return x + x\n"
    _plant(tmp_path, original)
    out = io.StringIO()
    results = mutants.probe(tmp_path, ["src/plant.py"], 1, 0, out=out)
    [(m, verdict, detail)] = results["src/plant.py"]
    assert (m.text, verdict, detail) == ("(x - x)", "killed", "tests/test_plant.py::test_double")
    assert out.getvalue().splitlines()[-1] == (
        "src/plant.py: 1 mutants, 1 killed, 0 equivalent, 0 open")
    assert (tmp_path / "src" / "plant.py").read_bytes() == original


def test_a_survivor_of_the_mapped_tests_runs_the_whole_suite(tmp_path, monkeypatch):
    # Each tree is run against the mapped file and then, once the mutant
    # survives it, against the suite: the unmutated tree first.
    _plant(tmp_path, b"def double(x):\n    return x + x\n")
    calls = []

    def run_tests(copy, files):
        mutated = b"x - x" in (copy / "src" / "plant.py").read_bytes()
        calls.append((files, mutated))
        return "tests/test_other.py::test_it" if mutated and not files else None

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    results = mutants.probe(tmp_path, ["src/plant.py"], 1, 0, out=io.StringIO())
    assert [(v, d) for _, v, d in results["src/plant.py"]] == [
        ("killed", "tests/test_other.py::test_it")]
    assert calls == [(["tests/test_plant.py"], False), (["tests/test_plant.py"], True),
                     ([], False), ([], True)]


def test_survivors_are_open_unless_classed_equivalent(tmp_path, monkeypatch):
    _plant(tmp_path, PLANTED)
    monkeypatch.setattr(mutants, "run_tests", lambda copy, files: None)
    edits = mutants.mutants("src/plant.py", PLANTED)
    monkeypatch.setitem(mutants.EQUIVALENT, edits[0].key, "a planted reason")
    results = mutants.probe(tmp_path, ["src/plant.py"], 10, 0, out=io.StringIO())
    assert [(m.key, verdict, detail) for m, verdict, detail in results["src/plant.py"]] == [
        (edits[0].key, "equivalent", "a planted reason"),
        (edits[1].key, "open", "every test passed"),
        (edits[2].key, "open", "every test passed"),
        (edits[3].key, "equivalent", "runs the original's instructions"),
    ]
