"""``tools/linecount.py``, the line counter that each change's size is quoted from."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("linecount", ROOT / "tools" / "linecount.py")
linecount = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linecount)

SAMPLE = '''"""A module docstring.

Its blank line is a docstring line.
"""
x = 1  # code with a trailing comment
s = """a string
spanning lines"""
# a comment-only line

def f():
    """One line."""
    return x
'''


def test_count_gives_each_line_one_kind():
    # docstring: lines 1-4 and 11; code: 5, both lines of the string, 10 and 12
    assert linecount.count(SAMPLE) == {"total": 12, "code": 5, "docstring": 5, "comment": 1, "blank": 1}


def test_tests_row_totals_the_test_files(tmp_path, monkeypatch, capsys):
    (tmp_path / "src").mkdir()
    (tmp_path / "test_a.py").write_text(SAMPLE)
    (tmp_path / "test_b.py").write_text("x = 1\n\n# a note\n")
    monkeypatch.setattr(linecount, "SOURCE", tmp_path / "src")
    monkeypatch.setattr(linecount, "TESTS", tmp_path)
    linecount.main()
    *_, sources, tests = capsys.readouterr().out.splitlines()
    assert sources.split() == ["all", "0", "0", "0", "0", "0"]
    assert tests.split() == ["tests", "15", "6", "5", "2", "2"]
