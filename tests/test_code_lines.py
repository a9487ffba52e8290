"""tools/code_lines.py counts non-blank lines outside comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""A module docstring
over two lines."""

# a comment on its own line
import os  # a trailing comment keeps its line


def f(a,
      b):
    """One line of docstring."""
    total = a + \\
        b

    text = """not a docstring:
a string assigned to a name"""
    return total, text


class C:
    """Docstring."""

    x = 1
'''


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import, def f( / b):, total = / b, text = / a string, return, class C:, x = 1
    assert load_tool().code_lines(SOURCE) == 10


def test_an_empty_source_has_no_code_lines():
    assert load_tool().code_lines("") == 0
    assert load_tool().code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_tokens_leave_out_comments_and_blank_line_tokens():
    tool = load_tool()
    # x = 1 NEWLINE, if x : NEWLINE, INDENT, y = ( x + 2 ) NEWLINE, DEDENT, ENDMARKER
    assert tool.tokens("x = 1  # c\n\nif x:\n    y = (x +\n         2)\n") == 19
    # a docstring is one token: STRING NEWLINE ENDMARKER
    assert tool.tokens('"""A docstring\nover two lines."""\n# a comment\n\n') == 3
    assert tool.tokens(SOURCE) == tool.tokens(SOURCE.replace("# a comment on its own line\n", ""))
