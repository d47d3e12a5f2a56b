"""The in-process timing of ``tools/ab_time.py``, run on the toy workloads:
against a copy of this tree whose X refresh sleeps, it reports that copy as
the slower side for both variants."""
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINE = re.compile(r"(\S+)/(\S+): this ([\d.]+) ms \[[\d.]+, [\d.]+\], other ([\d.]+) ms "
                  r"\[[\d.]+, [\d.]+\]; this faster in (\d+) of 3; this/other ([\d.]+) "
                  r"\(median 3 sweeps\)")


def test_ab_time_tells_the_slower_tree(tmp_path):
    other = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "fctnlr", other / "fctnlr",
                    ignore=shutil.ignore_patterns("__pycache__"))
    solver = other / "fctnlr" / "solver.py"
    text = solver.read_text()
    body = "\n    r = np.asfortranarray(composed)\n"
    assert text.count(body) == 1
    solver.write_text(text.replace(body, "\n    time.sleep(0.02)" + body))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab_time.py"), str(other),
                           "--tiny", "--pairs", "3", "--workload", "dense4",
                           "--workload", "wide3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()[1:]
    assert len(got) == 4, proc.stdout
    for line in got:
        found = LINE.fullmatch(line)
        assert found, line
        # three sweeps, each sleeping 20 ms, on solves of a few ms
        assert float(found[3]) < float(found[4]) and float(found[6]) < 1.0, line
        assert int(found[5]) >= 2, line
    assert [(m[1], m[2]) for m in map(LINE.fullmatch, got)] == [
        ("dense4", "fctnlr"), ("dense4", "afctnlr"), ("wide3", "fctnlr"), ("wide3", "afctnlr")]
