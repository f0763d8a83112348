"""tools/codelines.py counts code lines without docstrings, comments or blank lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

FIXTURE = '''"""A module docstring
over two lines."""

# a comment
import math


def f(x):
    """A function docstring."""
    y = (x +  # a trailing comment
         1)
    return math.sqrt(y)
'''


def test_the_fixture_counts_its_code_lines_only():
    # import, def, the two lines of the assignment and return
    assert codelines.code_lines(FIXTURE) == 5


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert codelines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["5", "1", "6"]
    assert lines[-1].split()[1] == "total"
