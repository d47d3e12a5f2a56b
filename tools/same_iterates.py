"""Check that two source trees of fctnlr produce the same iterates, bit for bit.

    python tools/same_iterates.py OTHER_SRC [--grid full|tiny]

Runs a fixed grid of ``solver.run`` calls once with ``OTHER_SRC`` (a
directory holding the ``fctnlr`` package, such as another checkout's
``src``) and once with this checkout's ``src``, each in one subprocess with
``FCTN_THREADS=1``.  For every run it compares the
SHA-256 of the completed tensor X, of the factors and of every
``IterationRecord`` field but ``wall_ms`` (a run that stops on a
``NumericalFailure`` is compared by its message).  It lists the runs that
differ and exits 1 if any do, else 0.  Under each run that differs it says
how far the run moved: its largest X difference relative to X's largest
entry, its largest relative difference of the objective, of ``rel_change``,
of ``step_sq`` and of ``x_norm`` over the sweeps both trees ran, and whether
the sweep count, the growth sweeps and ``converged`` all match, as they do
when an edit changes only roundoff.

The full grid covers 9 shapes of orders 2 to 6 (both of ``afctnlr``'s
routes), each with both variants under rank growth and under a fixed rank,
and ``afctnlr`` with ``shuffle=True``: 45 runs.  The tiny grid is one
shape, both variants, with rank growth.  A refactor that claims to change
no result should pass the full grid against its parent.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

# (shape, rank): the growth runs grow every bond to the rank, the fixed runs
# start there (initial_rank = max_rank), so no bond grows; 64x64x3x32 at
# rank 3 and 8^6 at rank 2 take afctnlr's environment route, the others its
# prefix/suffix route; at order 2 afctnlr's compose starts from the other
# factor, and the partial network around factor 0 is factor 1 transposed
# (that shape comes last, so the runs before it keep their seeds)
SHAPES = [
    ((8, 7, 5), 3),
    ((24, 3, 16), 3),
    ((5, 4, 3, 4), 3),
    ((12, 12, 3, 8), 2),
    ((64, 64, 3, 32), 3),
    ((4, 3, 4, 3, 2), 3),
    ((5, 5, 5, 5, 5), 3),
    ((8,) * 6, 2),
    ((20, 15), 3),
]


def grid(name: str) -> list:
    """The runs of a grid, each ``(id, shape, SolverConfig keywords)``."""
    growth = dict(eps=0.1, max_iters=30)
    fixed = dict(eps=0.0, max_iters=5)
    if name == "tiny":
        shape = (4, 3, 3)
        return [(f"4x3x3/{alg}/growth", shape,
                 dict(growth, max_rank=2, eps=0.5, max_iters=3, algorithm=alg))
                for alg in ("fctnlr", "afctnlr")]
    runs = []
    for shape, r in SHAPES:
        tag = "x".join(map(str, shape))
        for alg in ("fctnlr", "afctnlr"):
            runs.append((f"{tag}/{alg}/growth", shape, dict(growth, max_rank=r, algorithm=alg)))
            runs.append((f"{tag}/{alg}/fixed", shape,
                         dict(fixed, max_rank=r, initial_rank=r, algorithm=alg)))
        runs.append((f"{tag}/afctnlr/shuffle", shape,
                     dict(growth, max_rank=r, algorithm="afctnlr", shuffle=True)))
    return runs


def _digests(name: str) -> bytes:
    """Run the grid with the fctnlr on the path; an ``.npz`` holding the
    digests and the course (objectives, growth sweeps, ``converged``) of
    each run as JSON, and each run's X under its id."""
    import fctnlr  # before numpy, so FCTN_THREADS caps its BLAS
    import numpy as np

    from fctnlr.fileio import sample_mask
    from fctnlr.solver import Observation, SolverConfig, run
    from fctnlr.sylvester import NumericalFailure

    def sha(*arrays) -> str:
        h = hashlib.sha256()
        for a in arrays:
            h.update(repr(a.shape).encode())
            h.update(np.asarray(a, dtype=np.float64).tobytes(order="F"))
        return h.hexdigest()

    out, xs = {"fctnlr": fctnlr.__file__, "runs": {}, "course": {}}, {}
    for seed, (run_id, shape, kwargs) in enumerate(grid(name)):
        rng = np.random.default_rng(seed)
        obs = Observation.from_dense(rng.standard_normal(shape), sample_mask(shape, 0.5, seed))
        try:
            res = run(obs, SolverConfig(seed=seed, **kwargs))
        except NumericalFailure as exc:  # compared like any other outcome
            out["runs"][run_id] = {"raised": str(exc)}
            continue
        records = [[repr(getattr(rec, fld.name)) for fld in dataclasses.fields(rec)
                    if fld.name != "wall_ms"] for rec in res.trace]
        out["runs"][run_id] = {
            "x": sha(res.x),
            "factors": sha(*(res.factors.factor(k) for k in range(res.factors.n))),
            "trace": hashlib.sha256(json.dumps([records, res.converged]).encode()).hexdigest(),
        }
        out["course"][run_id] = {
            "objectives": [rec.objective for rec in res.trace],
            "rel_change": [rec.rel_change for rec in res.trace],
            "step_sq": [rec.step_sq for rec in res.trace],
            "x_norm": [rec.x_norm for rec in res.trace],
            "growth": [rec.iteration for rec in res.trace if rec.rank_grown],
            "converged": res.converged,
        }
        xs[run_id] = res.x
    buf = io.BytesIO()
    np.savez(buf, meta=json.dumps(out), **xs)
    return buf.getvalue()


def _collect(src: Path, name: str) -> tuple:
    """The digests and the courses, each with its X, of the grid run in a
    subprocess that imports fctnlr from ``src``."""
    import numpy as np

    env = dict(os.environ, PYTHONPATH=str(src), FCTN_THREADS="1")
    proc = subprocess.run([sys.executable, __file__, "--worker", name],
                          env=env, capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"the grid failed to run from {src}:\n{proc.stderr.decode()}")
    with np.load(io.BytesIO(proc.stdout)) as npz:
        got = json.loads(str(npz["meta"]))
        for run_id, course in got["course"].items():
            course["x"] = npz[run_id]
    if not Path(got["fctnlr"]).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"{src}: fctnlr was imported from {got['fctnlr']} instead")
    return got["runs"], got["course"]


def _moved(this: dict, other: dict) -> str:
    """How far a differing run moved between the two trees' courses: X
    relative to its largest entry, and each per-sweep quantity by its
    largest relative difference over the sweeps both trees ran (absolute
    where the other tree's value is 0)."""
    def rel(key):
        pairs = zip(this[key], other[key])
        return max((abs(a - b) / (abs(b) or 1.0) for a, b in pairs), default=0.0)

    dx = abs(this["x"] - other["x"]).max() / abs(other["x"]).max()
    within = ", ".join(f"{key} within {rel(key):.1e}"
                       for key in ("objectives", "rel_change", "step_sq", "x_norm"))
    same = all(this[key] == other[key] for key in ("growth", "converged"))
    same = same and len(this["objectives"]) == len(other["objectives"])
    return (f"  X within {dx:.1e}, {within}; sweeps, growth and "
            f"converged {'match' if same else 'differ'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("other", nargs="?", type=Path, help="the other tree's src directory")
    parser.add_argument("--grid", choices=("full", "tiny"), default="full")
    parser.add_argument("--worker", choices=("full", "tiny"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        sys.stdout.buffer.write(_digests(args.worker))
        return 0
    if args.other is None:
        parser.error("give the other tree's src directory")
    this_src = Path(__file__).resolve().parents[1] / "src"
    (this, this_course), (other, other_course) = (
        _collect(this_src, args.grid), _collect(args.other, args.grid))
    differ = [run_id for run_id in this if this[run_id] != other.get(run_id)]
    for run_id in differ:
        parts = sorted(key for key in this[run_id].keys() | other[run_id].keys()
                       if this[run_id].get(key) != other[run_id].get(key))
        print(f"differs: {run_id} ({', '.join(parts)})")
        if run_id in this_course and run_id in other_course:
            print(_moved(this_course[run_id], other_course[run_id]))
    print(f"{len(this) - len(differ)} of {len(this)} runs identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
