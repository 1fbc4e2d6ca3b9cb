"""``tools/loc.py``, the line counter of ``src/partkf``, on a planted module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

PLANTED = '''"""A module docstring
over two lines."""

# a comment
import math


def f(x):
    """One docstring line."""
    text = """a string that is
# not a comment"""
    return math.sqrt(x)  # a trailing comment
'''


def test_planted_module_counts_code_lines_only():
    # Code: the import, the def, the two lines of the string, the return.
    assert loc.count(PLANTED) == (5, 12)


def test_a_docstring_line_does_not_count_and_a_code_line_does():
    code, lines = loc.count(PLANTED)
    assert loc.count(PLANTED.replace('"""One docstring line."""',
                                     '"""One docstring line.\n\n    And more."""')) == (
        code, lines + 2)
    assert loc.count(PLANTED + "y = 1\n") == (code + 1, lines + 1)


def test_main_prints_every_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "a.py").write_text(PLANTED)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "lines"], ["a.py", "5", "12"], ["b.py", "1", "1"],
                    ["total", "6", "13"]]
