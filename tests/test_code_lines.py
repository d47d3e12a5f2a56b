"""The code-line count of ``tools/code_lines.py``: docstrings, comments and
layout do not count, every line of a continued expression does."""
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""
import math  # a trailing comment

# a comment line


def area(r):
    """Docstring."""
    total = (math.pi
             * r
             ** 2)
    label = """a string
    in an expression"""
    return total, label
'''


def test_counts_only_lines_that_hold_code():
    # import, def, the three lines of total, the two of label, return
    assert code_lines.code_lines(SNIPPET) == 8


def test_prints_each_module_and_the_total(tmp_path):
    pkg = tmp_path / "fctnlr"
    pkg.mkdir()
    (pkg / "a.py").write_text(SNIPPET)
    (pkg / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["a.py", "8"], ["b.py", "1"], ["total", "9"]]
