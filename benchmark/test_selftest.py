"""Self-test of the benchmark at toy sizes; finishes in well under a minute.

    python3 -m pytest -q benchmark/test_selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit on
every workload, that the correctness verdicts ran, that a hook whose target
is gone is reported absent without failing the solve, and that the benchmark
refuses to run where there are no sources.
"""
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _bench(workload, trace, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", str(trace), "--tiny",
    ]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    verdicts = [ln for ln in lines if ln.startswith("run ")]
    assert len(verdicts) == result["attempted"]
    assert all(": PASS" in ln for ln in verdicts)
    assert any(ln.startswith("failed/attempted = 0/") for ln in lines)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(ln.startswith(m["name"] + " = ") for ln in lines), m["name"]
    if not trace:
        for m in SPEC["end_to_end"]:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_absent_hook_does_not_fail_the_solve():
    import fctnlr
    import fctnlr.solver
    from layers import layer_metrics
    from tracing import Tracer
    from workloads import TINY, gaussian_truth

    w = TINY["dense4"]
    truth = gaussian_truth(w.dims, 0)
    obs = fctnlr.Observation.from_dense(
        truth, fctnlr.fileio.sample_mask(w.dims, w.sample_rate, 0)
    )
    cfg = fctnlr.SolverConfig(
        eps=0.0, max_iters=2, max_rank=w.rank, initial_rank=w.rank,
        rank_policy="fixed", algorithm="afctnlr",
    )
    saved = fctnlr.solver.compose_except  # unused by afctnlr: a stand-in rename
    del fctnlr.solver.compose_except
    tracer = Tracer(w.dims)
    try:
        tracer.install()
        tracer._hook(fctnlr.solver, "renamed_away", "solver.gone")
        root = tracer.open("solver.run", labels=True)
        res = fctnlr.run(obs, cfg)
        tracer.close(root)
    finally:
        tracer.uninstall()
        fctnlr.solver.compose_except = saved
    assert "fctnlr.solver.compose_except" in tracer.absent
    assert "fctnlr.solver.renamed_away" in tracer.absent
    values, errors = layer_metrics(tracer, res.trace, per_sweep=True)
    assert errors == []
    assert values["network.mk_ms"] > 0  # still fed by the cached partial-network hook
    assert tracer.is_absent(tracer.reduce(), "solver.gone")


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, rel), tmp_path / rel,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    proc = _bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
