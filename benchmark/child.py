"""One solve of one variant in a fresh process; prints one JSON line.

Invoked by run.py as ``python3 child.py SPEC`` with ``FCTN_THREADS`` set in
the environment.  SPEC is a JSON object with the keys root, workload, tiny,
variant, seed, draw, trace and workdir.  The process measures its own
set-up (``import fctnlr`` plus building the Observation), times the solve
from outside, checks the result, and reports its peak RSS.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import resource
import sys
import time
import traceback


def _solve_fixed(fctnlr, w, spec, out, tracer):
    """Fixed-sweep workload through the public ``fctnlr.run``."""
    from workloads import DELTA, LAM, RHO, gaussian_truth

    seed = spec["seed"]
    truth = gaussian_truth(w.dims, seed)
    t0 = time.perf_counter()
    mask = fctnlr.fileio.sample_mask(w.dims, w.sample_rate, seed)
    obs = fctnlr.Observation.from_dense(truth, mask)
    out["setup_s"] += time.perf_counter() - t0

    cfg = fctnlr.SolverConfig(
        lam=LAM, delta=DELTA, rho=RHO, eps=0.0, max_iters=w.sweeps,
        max_rank=w.rank, initial_rank=w.rank, rank_policy="fixed",
        algorithm=spec["variant"], seed=seed,
    )
    if tracer is not None:
        tracer.install()
        root = tracer.open("solver.run", labels=True)
    t0 = time.perf_counter()
    try:
        res = fctnlr.run(obs, cfg)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()

    out["solve_s"] = elapsed
    out["records"] = res.trace
    out["rel_err_offmask"] = fctnlr.metrics.rel_err(res.x, truth, mask=mask)
    objs = [res.initial_objective] + [rec.objective for rec in res.trace]
    if not all(math.isfinite(v) for v in objs):
        out["errors"].append("non-finite objective")
    # Extrapolation is off, so PAM decreases the objective every sweep; the
    # slack only absorbs summation roundoff at a plateau.
    rises = [i for i in range(1, len(objs)) if objs[i] > objs[i - 1] * (1 + 1e-12)]
    if rises:
        out["errors"].append(f"objective rose at sweeps {rises[:5]}")
    got = res.x[mask].view("u8")
    want = obs.values[mask].view("u8")
    if got.shape != want.shape or not (got == want).all():
        out["errors"].append("result differs from the observations on the mask")


def _solve_quality(fctnlr, w, spec, out, tracer):
    """Quality workload through ``fctnlr.cli.main complete``, eps stop."""
    from workloads import CLIP_SEED, mask_seed, smooth_clip

    seed = mask_seed(spec["seed"], spec["draw"])
    work = spec["workdir"]
    paths = {k: os.path.join(work, f"{k}.fctn") for k in ("input", "mask", "output")}
    report = os.path.join(work, "report.csv")
    truth = smooth_clip(w.dims, w.rank, CLIP_SEED)
    mask = fctnlr.fileio.sample_mask(w.dims, w.sample_rate, seed)
    fctnlr.fileio.write_tensor(paths["input"], truth)
    fctnlr.fileio.write_mask(paths["mask"], mask)
    del truth, mask

    t0 = time.perf_counter()
    values = fctnlr.fileio.read_tensor(paths["input"])
    mask = fctnlr.fileio.read_mask(paths["mask"])
    fctnlr.Observation.from_dense(values, mask)
    out["setup_s"] += time.perf_counter() - t0

    argv = [
        "complete", "--input", paths["input"], "--mask", paths["mask"],
        "--output", paths["output"], "--report", report,
        "--algorithm", spec["variant"], "--max-rank", str(w.rank),
        "--initial-rank", str(w.initial_rank),
        "--eps", repr(w.eps), "--seed", str(seed),
    ]
    printed = io.StringIO()
    if tracer is not None:
        tracer.install()
        root = tracer.open("cli.main")
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            code = fctnlr.cli.main(argv)
    finally:
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.close(root)
            tracer.uninstall()

    out["solve_s"] = elapsed
    line = printed.getvalue().strip()
    if code != 0:
        out["errors"].append(f"cli exit code {code}")
        return
    found = re.search(r"iterations=(\d+) converged=(\w+)", line)
    if found is None or found.group(2) != "True":
        out["errors"].append(f"not converged: {line!r}")
        return
    iterations = int(found.group(1))
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != iterations:
        out["errors"].append(f"report has {len(rows)} rows for {iterations} iterations")
    out["csv"] = rows
    if tracer is not None and "solver.run" in tracer.kept:
        out["records"] = tracer.kept["solver.run"].trace
    est = fctnlr.fileio.read_tensor(paths["output"])
    err = fctnlr.metrics.rel_err(est, values, mask=mask)
    out["rel_err_offmask"] = err
    if not err < w.quality_target:
        out["errors"].append(f"off-mask error {err:.3e} not under {w.quality_target:g}")


def main(argv) -> int:
    spec = json.loads(argv[1])
    out = {"errors": [], "setup_s": 0.0}
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import fctnlr  # sets the BLAS thread caps from FCTN_THREADS before numpy loads
    import fctnlr.cli
    import fctnlr.fileio
    import fctnlr.metrics

    out["setup_s"] = time.perf_counter() - t0

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import TINY, WORKLOADS

    w = (TINY if spec["tiny"] else WORKLOADS)[spec["workload"]]
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer(w.dims)
    solve = _solve_fixed if w.kind == "sweeps" else _solve_quality
    try:
        solve(fctnlr, w, spec, out, tracer)
    except Exception:
        out["errors"].append(traceback.format_exc(limit=4))
    records = out.pop("records", None)
    rows = out.pop("csv", None)
    if records:
        out["flops"] = [r.flops for r in records]
        out["wall_ms"] = [r.wall_ms for r in records]
    elif rows:
        out["flops"] = [int(r["flops"]) for r in rows]
        out["wall_ms"] = [float(r["wall_ms"]) for r in rows]
    if "flops" in out:
        out["sweeps"] = len(out["flops"])
    if records and tracer is not None:
        from layers import layer_metrics

        out["layers"], more = layer_metrics(tracer, records, w.kind == "sweeps")
        out["errors"] += more
        out["absent"] = tracer.absent
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
