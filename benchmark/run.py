"""Benchmark of the fctnlr solvers: sweep time, time to quality, memory, set-up.

    python3 benchmark/run.py --workload dense4 --seed 1 --seconds 25 --trace 0

Run from a source checkout; nothing needs installing.  It is a closed-loop
batch benchmark: one solve at a time, each (workload, variant, repeat) in a
fresh child process with ``FCTN_THREADS`` set, the two variants interleaved
and alternating which goes first.  Fixed-sweep workloads repeat the same
seeded instance until ``--seconds`` is spent; the quality workload solves a
fixed number of seeded masks of one clip.

``--trace 0`` reports the end-to-end metrics, measured untraced.  ``--trace 1``
runs traced and untraced solves side by side and reports the per-layer
metrics of the traced ones (see tracing.py and layers.py), the tracing
overhead, and the FLOP identities.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--tiny`` runs the same code paths at toy sizes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
VARIANTS = ("fctnlr", "afctnlr")
THREADS = 1  # BLAS threads per child, never more than nproc
DEADLINE_S = 165.0  # the whole run ends well inside 180 s

sys.path.insert(0, HERE)
from layers import CLI_METRICS, LAYER_METRICS  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402

E2E_UNITS = {
    "sweep_ms": "ms",
    "time_to_quality_s": "s",
    "rel_err_offmask": "1",
    "peak_rss_mb": "MB",
}


def host_facts(seed: int) -> dict:
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "FCTN_THREADS": THREADS,
        "seed": seed,
    }


class Runner:
    """Spawns children one at a time and keeps every attempt."""

    def __init__(self, args, workdir):
        self.args = args
        self.workdir = workdir
        self.t_start = time.perf_counter()
        self.attempts = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t_start

    def solve(self, variant, trace, draw=0):
        work = tempfile.mkdtemp(dir=self.workdir)
        spec = {
            "root": ROOT, "workload": self.args.workload, "tiny": self.args.tiny,
            "variant": variant, "seed": self.args.seed, "draw": draw,
            "trace": trace, "workdir": work,
        }
        env = dict(os.environ, FCTN_THREADS=str(THREADS))
        att = {"variant": variant, "draw": draw, "trace": trace, "errors": []}
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                env=env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            att["errors"].append("child timed out")
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                att["errors"].append(
                    f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
                )
            else:
                att.update(json.loads(lines[-1]))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        att["ok"] = not att["errors"]
        self.attempts.append(att)

    def schedule(self, units, trace_modes):
        """Run repeats while the next one is expected to end within half a
        repeat of --seconds (at least one).  A repeat is every (draw, variant,
        trace mode) once; the variant that goes first alternates."""
        rep = 0
        while True:
            t0 = self.elapsed()
            for draw in units:
                order = VARIANTS if (rep + draw) % 2 == 0 else VARIANTS[::-1]
                for variant in order:
                    for trace in trace_modes:
                        self.solve(variant, trace, draw)
            rep += 1
            spent = self.elapsed()
            last = spent - t0
            if spent + last / 2 > self.args.seconds or spent + last > DEADLINE_S - 10:
                return

    def check_repeats(self):
        """FLOP counts must repeat exactly across repeats of one (variant,
        draw), and between traced and untraced solves."""
        ref = {}
        for att in self.attempts:
            if not att["ok"]:
                continue
            key = (att["variant"], att["draw"])
            first = ref.setdefault(key, att["flops"])
            if att["flops"] != first:
                att["errors"].append("FLOP counts differ from the first repeat")
                att["ok"] = False


def median_tail(samples):
    """(median, n, (p, value) for the highest percentile with >= 10 samples
    beyond it, or None)."""
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 49, -1):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return statistics.median(xs), n, (p, xs[rank - 1])
    return statistics.median(xs), n, None


def fmt_median(name, unit, samples):
    med, n, tail = median_tail(samples)
    text = f"{name} = {med:.6g} {unit} (median of n={n}"
    if tail:
        text += f"; p{tail[0]} = {tail[1]:.6g} {unit}"
    return text + ")"


def end_to_end(runner, w):
    good = [a for a in runner.attempts if a["ok"]]
    lines, metrics = [], {}
    for v in VARIANTS:
        mine = [a for a in good if a["variant"] == v]
        if not mine:
            continue
        samples = {
            "sweep_ms": [a["solve_s"] * 1e3 / a["sweeps"] for a in mine],
            "time_to_quality_s": [a["solve_s"] for a in mine],
            "rel_err_offmask": [a["rel_err_offmask"] for a in mine],
            "peak_rss_mb": [a["peak_rss_mb"] for a in mine],
        }
        for key, xs in samples.items():
            name = f"{v}.{key}"
            metrics[name] = {"value": statistics.median(xs), "unit": E2E_UNITS[key]}
            lines.append(fmt_median(name, E2E_UNITS[key], xs))
    setup = [a["setup_s"] for a in good]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        lines.append(fmt_median("setup_s", "s", setup))
    for key in ("sweep_ms", "time_to_quality_s"):
        a, b = metrics.get(f"afctnlr.{key}"), metrics.get(f"fctnlr.{key}")
        if a and b:
            lines.append(
                f"ratio afctnlr/fctnlr {key} = {a['value'] / b['value']:.4f} "
                f"(reported, not gated)"
            )
    return lines, metrics


# The phase each fixed-sweep workload was chosen for, checked on the traced
# medians.  Reported only: an optimisation may rightly change a workload's role.
ROLES = {
    "dense4": (
        "sylvester.gram_flops is the largest FLOP term",
        lambda m: m["sylvester.gram_flops"] > max(
            m["network.mk_flops"], m["network.compose_flops"], m["sylvester.proj_flops"]
        ),
    ),
    "order5": (
        "network.mk_ms exceeds sylvester.gram_eigh_ms and network.compose_ms",
        lambda m: m["network.mk_ms"] > max(m["sylvester.gram_eigh_ms"], m["network.compose_ms"]),
    ),
    "wide3": (
        "sylvester.gram_eigh_ms and network.mk_ms are each < 5% of solver.sweep_ms_traced",
        lambda m: max(m["sylvester.gram_eigh_ms"], m["network.mk_ms"])
        < 0.05 * m["solver.sweep_ms_traced"],
    ),
}


def per_layer(runner, w):
    good = [a for a in runner.attempts if a["ok"]]
    lines, metrics = [], {}
    for v in VARIANTS:
        traced = [a for a in good if a["variant"] == v and "layers" in a]
        plain = [a for a in good if a["variant"] == v and not a["trace"]]
        if not traced:
            continue
        absent = sorted({p for a in traced for p in a.get("absent", [])})
        if absent:
            lines.append(f"{v}: absent hooks: {', '.join(absent)}")
        for name, (unit, _) in {**LAYER_METRICS, **CLI_METRICS}.items():
            xs = [a["layers"][name] for a in traced if a["layers"][name] is not None]
            full = f"{v}.{name}"
            if not xs:
                lines.append(f"{full} = absent")
            elif name in CLI_METRICS and w.kind == "sweeps":
                lines.append(f"{full} = not exercised by this workload")
                continue
            else:
                lines.append(f"{full} = {statistics.median(xs):.6g} {unit}")
            if name in LAYER_METRICS:
                metrics[full] = {
                    "value": statistics.median(xs) if xs else 0, "unit": unit
                }
        if w.name in ROLES:
            text, holds = ROLES[w.name]
            med = {
                name: statistics.median(a["layers"][name] or 0 for a in traced)
                for name in LAYER_METRICS
            }
            verdict = "holds" if holds(med) else "DOES NOT HOLD"
            lines.append(f"{v}: role check, {text}: {verdict}")
        walls = [ms for a in traced for ms in a["wall_ms"]]
        if walls:
            lines.append(fmt_median(f"{v}.IterationRecord.wall_ms (traced)", "ms", walls))
        if plain:
            t = statistics.median(a["layers"]["solver.sweep_ms_traced"] for a in traced)
            u = statistics.median(a["solve_s"] * 1e3 / a["sweeps"] for a in plain)
            lines.append(
                f"{v}: tracing overhead {100 * (t / u - 1):+.1f}% "
                f"(solver.sweep_ms_traced {t:.6g} ms vs untraced {u:.6g} ms per sweep)"
            )
    return lines, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="toy sizes, for the self-test")
    args = ap.parse_args(argv)
    # a terminated run still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "fctnlr", "__init__.py")):
        print(f"no fctnlr sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2

    w = (TINY if args.tiny else WORKLOADS)[args.workload]
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=base)
    try:
        runner = Runner(args, workdir)
        if w.kind == "sweeps":
            draws = 1
        else:  # per-layer figures need fewer solves than the gated medians
            draws = min(w.masks, 2) if args.trace else w.masks
        runner.schedule(range(draws), (False, True) if args.trace else (False,))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    runner.check_repeats()

    print(f"workload {w.name}: dims {w.dims}, rank {w.rank}, sr {w.sample_rate}, "
          + (f"{w.sweeps} sweeps per solve" if w.kind == "sweeps"
             else f"{w.masks} masks, eps {w.eps:g}, target {w.quality_target:g}"))
    print("host " + json.dumps(host_facts(args.seed)))
    for att in runner.attempts:
        verdict = "PASS" if att["ok"] else "FAIL " + " | ".join(att["errors"])
        if "solve_s" in att and "sweeps" in att:
            verdict += (f" ({att['sweeps']} sweeps in {att['solve_s']:.4g} s, "
                        f"rel_err_offmask {att.get('rel_err_offmask', math.nan):.4g})")
        mode = "traced" if att["trace"] else "untraced"
        print(f"run {att['variant']} draw {att['draw']} {mode}: {verdict}")
    report = per_layer if args.trace else end_to_end
    lines, metrics = report(runner, w)
    for line in lines:
        print(line)
    failed = sum(not a["ok"] for a in runner.attempts)
    attempted = len(runner.attempts)
    print(f"failed/attempted = {failed}/{attempted}")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
