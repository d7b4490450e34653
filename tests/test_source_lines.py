import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("source_lines",
                                               ROOT / "scripts" / "source_lines.py")
source_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_lines)

# 18 physical lines: 5 blank, 2 comments, 5 in docstrings and 6 of code
SOURCE = '''"""A module docstring,
on two lines."""

# a comment
import os  # code with a trailing comment


class Thing:
    """A class docstring."""

    def method(self):
        """A method docstring,
        on two lines."""
        text = """a string that is no docstring,

with a blank line"""
        # a comment inside a function
        return os.sep + text
'''


def test_counts_each_kind_of_line():
    assert source_lines.line_counts(SOURCE) == (18, 6)


def test_total_row_sums_the_modules(capsys):
    source_lines.main()
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    *modules, total = rows
    assert total[0] == "total"
    assert [int(v) for v in total[1:]] == [sum(int(row[k]) for row in modules) for k in (1, 2)]
