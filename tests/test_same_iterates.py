"""The bit-identity check of ``tools/same_iterates.py``, run on its tiny
grid: a tree against itself matches, and a copy whose rank-growth noise is
edited differs in every run, which grows its bonds."""
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("noise, rc, lines", [
    ("1e-2", 0, ["2 of 2 runs identical"]),
    ("2e-2", 1, ["differs: 4x3x3/fctnlr/growth (factors, trace, x)",
                 "differs: 4x3x3/afctnlr/growth (factors, trace, x)",
                 "0 of 2 runs identical"]),
], ids=["same", "edited"])
def test_same_iterates_tells_an_edited_tree(tmp_path, noise, rc, lines):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "fctnlr", other / "fctnlr",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = other / "fctnlr" / "solver.py"
    text = solver.read_text()
    assert "\n_GROW_NOISE = 1e-2\n" in text
    solver.write_text(text.replace("\n_GROW_NOISE = 1e-2\n", f"\n_GROW_NOISE = {noise}\n"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "same_iterates.py"),
                           str(other), "--grid", "tiny"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == rc, proc.stderr
    assert proc.stdout.splitlines() == lines
