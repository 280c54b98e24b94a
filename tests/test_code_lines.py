import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""
import os  # a comment after code

# a comment line


class A:
    """One line."""

    def f(self, x):
        """Two
        lines."""
        text = """not a docstring:
        it is assigned"""
        return (x +
                1)
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    # import, class, def, the two lines of `text`, and the two of the return
    assert code_lines.code_lines(SOURCE) == 7
    assert code_lines.code_lines("") == 0


def test_the_tool_prints_each_modules_count_and_their_total(tmp_path):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nX = 1\n')
    (tmp_path / "notes.txt").write_text("X = 1\n")
    out = subprocess.run([sys.executable, TOOL, tmp_path], capture_output=True,
                         text=True, check=True)
    assert json.loads(out.stdout) == {"a.py": 7, "b.py": 1, "total": 8}


def test_against_prints_both_sides_and_the_delta_of_each_module(tmp_path):
    here, parent = tmp_path / "here", tmp_path / "parent"
    here.mkdir()
    parent.mkdir()
    (here / "a.py").write_text(SOURCE)
    (parent / "a.py").write_text(SOURCE + "y = 2\n")
    (here / "new.py").write_text("X = 1\n")
    (parent / "gone.py").write_text("X = 1\nY = 2\n")
    out = subprocess.run([sys.executable, TOOL, here, "--against", parent],
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == {
        "a.py": {"against": 8, "here": 7, "delta": -1},
        "gone.py": {"against": 2, "here": 0, "delta": -2},
        "new.py": {"against": 0, "here": 1, "delta": 1},
        "total": {"against": 10, "here": 8, "delta": -2},
    }
