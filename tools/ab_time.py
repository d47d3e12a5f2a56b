"""Time two source trees of fctnlr against each other in one process.

    python tools/ab_time.py OTHER_SRC [--workload NAME ...] [--pairs N] [--tiny]

Copies the ``fctnlr`` package of ``OTHER_SRC`` (a directory holding it, such
as another checkout's ``src``) into a temporary directory as
``fctnlr_other`` and imports it beside this checkout's ``fctnlr`` in one
process, with ``FCTN_THREADS=1`` set before numpy loads.  For every workload
of ``benchmark/workloads.py`` (imported as it is; ``--tiny`` takes its toy
sizes) and both variants it runs ``--pairs`` pairs of whole ``run`` calls,
one per tree on the same input, the tree that goes first alternating from
pair to pair.  Every pair solves the one input of seed 1, so the quartiles
spread by timing noise alone, not by inputs: the fixed-sweep workloads at
their fixed rank, the quality workload on mask draw 0 of its clip from its
start rank to the eps stop, as ``benchmark/child.py`` sets them.

Per workload and variant it prints each tree's median solve time with its
quartiles, how many pairs this tree won, the median of the per-pair ratio
this/other, and the median sweep count, or in how many pairs the trees ran
different counts, which makes those pairs' times incomparable.  Both trees
share one process, one heap and one BLAS, so a move between checkouts that a
separate-process benchmark cannot resolve can be read here.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import os
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
VARIANTS = ("fctnlr", "afctnlr")


def _workloads():
    """``benchmark/workloads.py`` as a module, loaded without writing bytecode
    next to it."""
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "benchmark" / "workloads.py")
    module = sys.modules["workloads"] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _solve(pkg, wl, w, variant: str, seed: int, truth) -> tuple[float, int]:
    """Wall seconds and sweep count of one ``pkg.run`` call of workload ``w``."""
    quality = w.kind == "quality"
    mask_seed = wl.mask_seed(seed, 0) if quality else seed
    obs = pkg.Observation.from_dense(truth, pkg.fileio.sample_mask(w.dims, w.sample_rate, mask_seed))
    if quality:
        cfg = pkg.SolverConfig(lam=wl.LAM, delta=wl.DELTA, rho=wl.RHO, eps=w.eps,
                               max_rank=w.rank, initial_rank=w.initial_rank,
                               algorithm=variant, seed=mask_seed)
    else:
        cfg = pkg.SolverConfig(lam=wl.LAM, delta=wl.DELTA, rho=wl.RHO, eps=0.0,
                               max_iters=w.sweeps, max_rank=w.rank, initial_rank=w.rank,
                               algorithm=variant, seed=seed)
    gc.collect()
    t0 = time.perf_counter()
    res = pkg.run(obs, cfg)
    return time.perf_counter() - t0, res.iterations


def _line(name: str, this: list, other: list) -> str:
    """One workload and variant's report from its pairs' ``(wall, sweeps)``."""
    def spread(runs):
        walls = [1e3 * wall for wall, _ in runs]
        q1, med, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else walls * 3
        return f"{med:.2f} ms [{q1:.2f}, {q3:.2f}]"

    wins = sum(a[0] < b[0] for a, b in zip(this, other))
    ratio = statistics.median(a[0] / b[0] for a, b in zip(this, other))
    differ = sum(a[1] != b[1] for a, b in zip(this, other))
    count = (f"sweeps differ in {differ} pairs" if differ
             else f"median {statistics.median(a[1] for a in this):g} sweeps")
    return (f"{name}: this {spread(this)}, other {spread(other)}; this faster in "
            f"{wins} of {len(this)}; this/other {ratio:.3f} ({count})")


def main(argv=None) -> int:
    wl_names = ("dense4", "order5", "wide3", "video-recover")
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", type=Path, help="the other tree's src directory")
    parser.add_argument("--workload", action="append", choices=wl_names,
                        help="a workload to time (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tiny", action="store_true", help="the workloads' toy sizes")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if not (args.other / "fctnlr" / "__init__.py").is_file():
        parser.error(f"{args.other} holds no fctnlr package")

    os.environ["FCTN_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("fctnlr.fileio")  # before numpy, so the cap applies
    this = sys.modules["fctnlr"]
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(args.other / "fctnlr", Path(tmp) / "fctnlr_other",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        with warnings.catch_warnings():  # numpy is loaded, its BLAS already capped
            warnings.simplefilter("ignore", RuntimeWarning)
            importlib.import_module("fctnlr_other.fileio")
        other = sys.modules["fctnlr_other"]
        wl = _workloads()
        table = wl.TINY if args.tiny else wl.WORKLOADS
        print(f"this: {Path(this.__file__).parent}  other: {args.other.resolve() / 'fctnlr'}")
        seed = 1  # every pair solves this one input, so pairs differ by noise alone
        for name in args.workload or wl_names:
            w = table[name]
            truth = (wl.smooth_clip(w.dims, w.rank, wl.CLIP_SEED) if w.kind == "quality"
                     else wl.gaussian_truth(w.dims, seed))
            runs = {(v, side): [] for v in VARIANTS for side in ("this", "other")}
            for i in range(args.pairs):
                sides = [("this", this), ("other", other)][:: 1 if i % 2 == 0 else -1]
                for variant in VARIANTS:
                    for side, pkg in sides:
                        runs[variant, side].append(_solve(pkg, wl, w, variant, seed, truth))
            for variant in VARIANTS:
                print(_line(f"{name}/{variant}", runs[variant, "this"], runs[variant, "other"]),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
