"""The bit-identity check of ``tools/same_iterates.py``, run on its tiny
grid: a tree against itself matches; a copy whose rank-growth noise is
edited differs in every run, which grows its bonds; and under each run that
differs the tool says how far it moved, which for a one-ulp edit is
roundoff with every sweep count, growth sweep and stop unchanged."""
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MOVED = (r"  X within {0}, objectives within {0}, rel_change within {0}, step_sq within {0}, "
         r"x_norm within {0}; sweeps, growth and converged match")
# zero, or a difference of at most 1e-12
ROUNDOFF = r"(?:0\.0e\+00|\d\.\de-(?:1[2-9]|[2-9]\d|\d{3}))"


@pytest.mark.parametrize("noise, rc, lines", [
    ("1e-2", 0, [r"2 of 2 runs identical"]),
    ("2e-2", 1, [r"differs: 4x3x3/fctnlr/growth \(factors, trace, x\)", MOVED.format(r"\S+"),
                 r"differs: 4x3x3/afctnlr/growth \(factors, trace, x\)", MOVED.format(r"\S+"),
                 r"0 of 2 runs identical"]),
    ("0.010000000000000002", 1, [
        r"differs: 4x3x3/fctnlr/growth \(factors\)", MOVED.format(ROUNDOFF),
        r"differs: 4x3x3/afctnlr/growth \(factors\)", MOVED.format(ROUNDOFF),
        r"0 of 2 runs identical"]),
], ids=["same", "edited", "roundoff"])
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
    got = proc.stdout.splitlines()
    assert len(got) == len(lines), got
    assert all(re.fullmatch(want, line) for want, line in zip(lines, got)), got
