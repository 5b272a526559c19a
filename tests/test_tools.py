import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _PATH)
count_code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_code_lines)

SOURCE = '''"""Module docstring,
over two lines."""
import os  # a trailing comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        y = (x +
             1)
        return y


NOT_A_DOCSTRING = """a string
that is code"""
'''


def test_code_lines_counts_only_code():
    # import, class, def, the two lines of y = ..., return and the two
    # lines of the assigned string: docstrings, comments and blank lines
    # are left out
    assert count_code_lines.code_lines(SOURCE) == 8
