"""The code-line count of scripts/code_lines.py, on a synthetic module."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring,
over two lines."""

import os  # a comment after code counts as its line

# a comment line


def join(x):
    """A function docstring."""
    path = os.path.join(
        x,
        "a",
    )
    note = """a string that is not a docstring,
over two lines"""
    return path, note


class Box:
    "A class docstring."

    size = 1
'''


def test_counts_code_lines_without_docstrings_comments_or_blanks():
    # import, def, the four lines of the call, both lines of the note,
    # return, class and size
    assert code_lines.code_lines(SOURCE) == 11


def test_prints_each_package_file_and_their_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[-1][1] == "total"
    assert all(name.startswith("src/hypercnot/") for _, name in rows[:-1])
    assert int(rows[-1][0]) == sum(int(count) for count, _ in rows[:-1])
