"""Paired benchmark of the two solver variants on one synthetic instance.

Both variants run the same completion problem (cubic extents, uniform fixed
rank, identical seed) for a fixed iteration budget, several repeats each,
interleaved so slow drift of the machine hits both equally.  Reported per
variant: per-repeat and median wall time (sum of per-iteration times, so
setup is excluded), first-iteration contraction FLOPs split into the
partial-network and composition categories, and total FLOPs, followed by the
accelerated-over-baseline wall ratio.  The closed-form
cost model for the same configuration is emitted alongside, so measured
counts can be checked against it exactly.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass, field

import numpy as np

from .fileio import sample_mask
from .network import (
    compose_flops,
    compose_from_partial_flops,
    factor_matmul_flops,
    partial_sweep_flops,
    partial_sweep_flops_cached,
)
from .solver import Observation, SolverConfig, run

__all__ = ["BenchConfig", "BenchResult", "parse_shape", "run_bench"]

CSV_FIELDS = [
    "kind",
    "algorithm",
    "repeat",
    "wall_ms",
    "mk_flops_iter1",
    "compose_flops_iter1",
    "factor_matmul_flops_iter1",
    "total_flops",
]


def parse_shape(text: str) -> tuple:
    """Comma-separated extents of a synthetic benchmark tensor.  The cost
    model needs one common extent, so unequal entries are rejected."""
    try:
        parts = [int(p) for p in str(text).replace(",", " ").split()]
    except ValueError:
        raise ValueError(f"invalid shape {text!r}: entries must be integers")
    if len(parts) < 2:
        raise ValueError(f"invalid shape {text!r}: need at least two extents")
    if any(p < 1 for p in parts):
        raise ValueError(f"invalid shape {text!r}: extents must be positive")
    if len(set(parts)) != 1:
        raise ValueError(f"invalid shape {text!r}: extents must all be equal")
    return tuple(parts)


@dataclass
class BenchConfig:
    order: int = 4
    extent: int = 40
    rank: int = 4
    iters: int = 30
    repeats: int = 5
    sample_rate: float = 0.3
    seed: int = 0
    lam: float = 0.35
    delta: float = 0.5
    rho: float = 0.1

    def __post_init__(self):
        if self.order < 2 or self.extent < 1 or self.rank < 1:
            raise ValueError("order >= 2, extent >= 1, rank >= 1 required")
        if self.iters < 1 or self.repeats < 1:
            raise ValueError("iters and repeats must be >= 1")

    @classmethod
    def from_shape(cls, shape, **kw) -> "BenchConfig":
        """Build from an explicit extent tuple (or its textual form)."""
        dims = parse_shape(shape) if isinstance(shape, str) else tuple(shape)
        if len(dims) >= 2 and len(set(dims)) != 1:
            raise ValueError(f"invalid shape {shape!r}: extents must all be equal")
        return cls(order=len(dims), extent=dims[0], **kw)

    @property
    def shape(self) -> tuple:
        return (self.extent,) * self.order


@dataclass
class BenchResult:
    config: BenchConfig
    walls: dict = field(default_factory=dict)
    medians: dict = field(default_factory=dict)
    mk_iter1: dict = field(default_factory=dict)
    compose_iter1: dict = field(default_factory=dict)
    factor_matmul_iter1: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    predicted: dict = field(default_factory=dict)

    def speedup(self) -> float:
        """Accelerated over baseline median wall time (< 1 means faster)."""
        return self.medians["afctnlr"] / self.medians["fctnlr"]

    def rows(self) -> list:
        out = []
        for alg in ("fctnlr", "afctnlr"):
            for rep, wall in enumerate(self.walls[alg]):
                out.append(
                    {
                        "kind": "measured",
                        "algorithm": alg,
                        "repeat": rep,
                        "wall_ms": f"{wall:.3f}",
                        "mk_flops_iter1": self.mk_iter1[alg],
                        "compose_flops_iter1": self.compose_iter1[alg],
                        "factor_matmul_flops_iter1": self.factor_matmul_iter1[alg],
                        "total_flops": self.totals[alg],
                    }
                )
            out.append(
                {
                    "kind": "median",
                    "algorithm": alg,
                    "repeat": "",
                    "wall_ms": f"{self.medians[alg]:.3f}",
                    "mk_flops_iter1": self.mk_iter1[alg],
                    "compose_flops_iter1": self.compose_iter1[alg],
                    "factor_matmul_flops_iter1": self.factor_matmul_iter1[alg],
                    "total_flops": self.totals[alg],
                }
            )
        pred_mk = {
            "fctnlr": self.predicted["mk_plain"],
            "afctnlr": self.predicted["mk_cached"],
        }
        pred_compose = {
            "fctnlr": self.predicted["compose_chain"],
            "afctnlr": self.predicted["compose_from_partial"],
        }
        for alg in ("fctnlr", "afctnlr"):
            out.append(
                {
                    "kind": "predicted",
                    "algorithm": alg,
                    "repeat": "",
                    "wall_ms": "",
                    "mk_flops_iter1": pred_mk[alg],
                    "compose_flops_iter1": pred_compose[alg],
                    "factor_matmul_flops_iter1": self.predicted["factor_matmuls"],
                    "total_flops": "",
                }
            )
        out.append(
            {
                "kind": "ratio",
                "algorithm": "afctnlr/fctnlr",
                "repeat": "",
                "wall_ms": f"{self.speedup():.6f}",
                "mk_flops_iter1": "",
                "compose_flops_iter1": "",
                "factor_matmul_flops_iter1": "",
                "total_flops": "",
            }
        )
        return out


def run_bench(cfg: BenchConfig) -> BenchResult:
    dims = cfg.shape
    rng = np.random.default_rng(cfg.seed)
    truth = rng.standard_normal(dims)
    mask = sample_mask(dims, cfg.sample_rate, cfg.seed)
    obs = Observation.from_dense(truth, mask)

    result = BenchResult(config=cfg)
    n, i, r = cfg.order, cfg.extent, cfg.rank
    result.predicted = {
        "mk_plain": partial_sweep_flops(n, i, r),
        "mk_cached": partial_sweep_flops_cached(n, i, r),
        "compose_chain": compose_flops(n, i, r),
        "compose_from_partial": compose_from_partial_flops(n, i, r),
        "factor_matmuls": factor_matmul_flops(n, i, r),
    }

    algs = ("fctnlr", "afctnlr")
    configs = {
        alg: SolverConfig(
            lam=cfg.lam,
            delta=cfg.delta,
            rho=cfg.rho,
            eps=0.0,
            max_iters=cfg.iters,
            max_rank=cfg.rank,
            initial_rank=cfg.rank,
            rank_policy="fixed",
            algorithm=alg,
            seed=cfg.seed,
        )
        for alg in algs
    }
    walls = {alg: [] for alg in algs}
    last = {}
    for _rep in range(cfg.repeats):
        for alg in algs:
            res = run(obs, configs[alg])
            walls[alg].append(sum(rec.wall_ms for rec in res.trace))
            last[alg] = res
    for alg in algs:
        result.walls[alg] = walls[alg]
        result.medians[alg] = statistics.median(walls[alg])
        res = last[alg]
        first = res.trace[0]
        result.mk_iter1[alg] = first.mk_flops
        result.compose_iter1[alg] = first.compose_flops
        result.factor_matmul_iter1[alg] = (
            first.flops - first.mk_flops - first.compose_flops
        )
        result.totals[alg] = sum(rec.flops for rec in res.trace)
    return result
