"""Command line front end: complete, bench, metrics, import-frames.

Exit codes: 0 success, 1 usage or input error, 2 numeric failure.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import sys

from . import fileio, metrics
from .bench import CSV_FIELDS, BenchConfig, run_bench
from .metrics import quality_report
from .laplacian import _SIGNS
from .solver import _ALGORITHMS, _RANK_POLICIES, IterationRecord, Observation, SolverConfig, run
from .sylvester import NumericalFailure

# --report columns: every IterationRecord field, in declaration order
REPORT_FIELDS = [fld.name for fld in dataclasses.fields(IterationRecord)]


def _report_cell(name: str, value):
    """CSV text of one IterationRecord field: floats with round-trip
    precision (the wall time to the microsecond), flags as 0/1, the rank
    table joined by ``|``."""
    if name == "wall_ms":
        return f"{value:.3f}"
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, tuple):
        return "|".join(str(v) for v in value)
    return value


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; this project reserves 2 for numeric
    # failures, so route usage errors to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_rank(text: str, n: int):
    vals = [int(p) for p in text.replace(",", " ").split()]
    need = n * (n - 1) // 2
    if len(vals) == 1:
        return vals[0]
    if len(vals) == need:
        return vals
    raise ValueError(
        f"rank list needs 1 or {need} entries for an order-{n} tensor, got {len(vals)}"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fctnlr",
        description="Tensor completion by trace-regularized fully-connected "
        "tensor network decomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("complete", help="complete a partially observed tensor")
    pc.add_argument("--input", required=True, help="observed tensor container")
    pc.add_argument("--output", required=True, help="completed tensor container")
    pc.add_argument("--mask", help="mask container marking observed entries")
    pc.add_argument(
        "--sr",
        type=float,
        help="draw the mask at this sampling rate from --seed instead of reading one",
    )
    pc.add_argument("--save-mask", help="write the drawn mask here")
    pc.add_argument("--report", help="write the per-iteration trace CSV here")
    # every default and choice is SolverConfig's
    pc.add_argument("--algorithm", choices=_ALGORITHMS, default=SolverConfig.algorithm)
    pc.add_argument("--lambda", dest="lam", type=float, default=SolverConfig.lam,
                    help="smoothing penalty weight")
    pc.add_argument("--delta", type=float, default=SolverConfig.delta,
                    help="diagonal shift of the smoothing operator")
    pc.add_argument("--rho", type=float, default=SolverConfig.rho, help="proximal damping")
    pc.add_argument("--eps", type=float, default=SolverConfig.eps, help="relative-change stop")
    pc.add_argument("--max-iters", type=int, default=SolverConfig.max_iters)
    pc.add_argument("--max-rank", default=str(SolverConfig.max_rank),
                    help="one value or the full comma-separated bond table")
    pc.add_argument("--initial-rank", default=SolverConfig.initial_rank,
                    help="starting bond table (default: all ones)")
    pc.add_argument("--rank-policy", choices=_RANK_POLICIES, default=SolverConfig.rank_policy)
    pc.add_argument("--laplacian-sign", choices=tuple(_SIGNS),
                    default=SolverConfig.laplacian_sign)
    pc.add_argument("--no-shuffle", dest="shuffle", action="store_false",
                    help="keep the identity visiting order in afctnlr")
    pc.add_argument("--seed", type=int, default=SolverConfig.seed)
    pc.set_defaults(func=_cmd_complete)

    pb = sub.add_parser("bench", help="paired benchmark of the two variants")
    pb.add_argument("--shape", default="40,40,40,40",
                    help="comma-separated equal extents, e.g. 40,40,40,40")
    pb.add_argument("--rank", type=int, default=4)
    pb.add_argument("--iters", type=int, default=30)
    pb.add_argument("--repeat", type=int, default=5)
    pb.add_argument("--sr", type=float, default=0.3)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", help="write measurement + prediction rows here")
    pb.set_defaults(func=_cmd_bench)

    pm = sub.add_parser("metrics", help="quality of a reconstruction")
    pm.add_argument("--truth", required=True, help="reference tensor container")
    pm.add_argument("--est", required=True, help="reconstruction container")
    pm.add_argument("--mask", help="also report the error off the observed set")
    pm.add_argument("--peak", type=float, default=1.0)
    pm.set_defaults(func=_cmd_metrics)

    pi = sub.add_parser(
        "import-frames", help="stack netpbm frames into an order-4 tensor"
    )
    pi.add_argument("--input-dir", required=True)
    pi.add_argument("--output", required=True)
    pi.set_defaults(func=_cmd_import_frames)
    return parser


def _config(args, n: int) -> SolverConfig:
    """The solver settings of ``complete``'s arguments, for an order-n tensor."""
    return SolverConfig(
        lam=args.lam,
        delta=args.delta,
        rho=args.rho,
        eps=args.eps,
        max_iters=args.max_iters,
        max_rank=_parse_rank(args.max_rank, n),
        initial_rank=(
            _parse_rank(args.initial_rank, n) if args.initial_rank is not None else None
        ),
        rank_policy=args.rank_policy,
        algorithm=args.algorithm,
        laplacian_sign=args.laplacian_sign,
        shuffle=args.shuffle,
        seed=args.seed,
    )


def _cmd_complete(args) -> int:
    values = fileio.read_tensor(args.input)
    # the settings are checked before the mask is drawn, read or saved
    cfg = _config(args, values.ndim)
    if (args.mask is None) == (args.sr is None):
        raise ValueError("give exactly one of --mask or --sr")
    if args.mask is not None:
        mask = fileio.read_mask(args.mask)
    else:
        mask = fileio.sample_mask(values.shape, args.sr, args.seed)
    obs = Observation.from_dense(values, mask)
    if args.save_mask:
        fileio.write_mask(args.save_mask, mask)
    res = run(obs, cfg)
    fileio.write_tensor(args.output, res.x)
    if args.report:
        rows = [
            {name: _report_cell(name, getattr(rec, name)) for name in REPORT_FIELDS}
            for rec in res.trace
        ]
        fileio.write_report_csv(args.report, rows, REPORT_FIELDS)
    print(
        f"completed: iterations={res.iterations} converged={res.converged} "
        f"objective={res.objective:.10g}"
    )
    return 0


def _cmd_bench(args) -> int:
    cfg = BenchConfig.from_shape(
        args.shape,
        rank=args.rank,
        iters=args.iters,
        repeats=args.repeat,
        sample_rate=args.sr,
        seed=args.seed,
    )
    res = run_bench(cfg)
    if args.out:
        fileio.write_report_csv(args.out, res.rows(), CSV_FIELDS)
        for alg in ("fctnlr", "afctnlr"):
            print(
                f"{alg}: median_wall_ms={res.medians[alg]:.3f} "
                f"total_flops={res.totals[alg]}"
            )
        print(f"speedup: afctnlr/fctnlr median wall ratio = {res.speedup():.4f}")
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=CSV_FIELDS)
        writer.writeheader()
        writer.writerows(res.rows())
    return 0


def _cmd_metrics(args) -> int:
    est = fileio.read_tensor(args.est)
    truth = fileio.read_tensor(args.truth)
    mask = fileio.read_mask(args.mask) if args.mask else None
    rep = quality_report(est, truth, mask=None, peak=args.peak)
    off = metrics.rel_err(est, truth, mask=mask) if mask is not None else math.nan
    writer = csv.writer(sys.stdout)
    writer.writerow(["psnr", "ssim", "rel_err", "rel_err_offmask"])
    writer.writerow(
        [f"{rep.psnr:.10g}", f"{rep.ssim:.10g}", f"{rep.rel_err:.10g}", f"{off:.10g}"]
    )
    return 0


def _cmd_import_frames(args) -> int:
    tensor = fileio.import_frames(args.input_dir)
    fileio.write_tensor(args.output, tensor)
    print(f"imported: shape={tensor.shape}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalFailure as exc:
        print(f"fctnlr: numeric failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"fctnlr: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
