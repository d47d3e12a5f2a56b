"""Paired benchmark of the two solver variants on one synthetic instance.

Both variants run the same completion problem (cubic extents, uniform fixed
rank, identical seed) for a fixed iteration budget, several repeats each,
interleaved so slow drift of the machine hits both equally.  Per variant the
benchmark keeps only what it measures (:class:`BenchResult`): each repeat's
wall time (the sum of its per-iteration times, so setup is excluded), the
last repeat's first :class:`~fctnlr.solver.IterationRecord`, which splits the
first sweep's FLOPs by phase, that run's total FLOPs, and the FLOPs the sweep
plan (:func:`fctnlr.network.sweep_plan`) sizes for the same first sweep,
so measured counts can be checked against it exactly.  Medians, the
per-phase counts and the accelerated-over-baseline wall ratio are derived
from these.
"""
from __future__ import annotations

import itertools
import os
import statistics
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .fileio import sample_mask
from .network import FctnRank, sweep_plan
from .solver import _ALGORITHMS, Observation, SolverConfig, run

__all__ = ["BenchConfig", "BenchResult", "host_facts", "parse_shape", "run_bench"]

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


def parse_shape(shape) -> tuple:
    """Extents of a synthetic benchmark tensor, comma- or space-separated
    text or a sequence.  The benchmark's instance is cubic, so unequal
    entries are rejected."""
    entries = shape.replace(",", " ").split() if isinstance(shape, str) else shape
    try:
        parts = [int(p) for p in entries]
    except (TypeError, ValueError):
        raise ValueError(f"invalid shape {shape!r}: entries must be integers")
    if len(parts) < 2:
        raise ValueError(f"invalid shape {shape!r}: need at least two extents")
    if any(p < 1 for p in parts):
        raise ValueError(f"invalid shape {shape!r}: extents must be positive")
    if len(set(parts)) != 1:
        raise ValueError(f"invalid shape {shape!r}: extents must all be equal")
    return tuple(parts)


@dataclass
class BenchConfig:
    """One benchmark instance and its budget.  The solver runs with
    :class:`~fctnlr.solver.SolverConfig`'s default ``lam``, ``delta`` and
    ``rho``, no eps stop and the rank fixed at ``rank``."""

    order: int = 4
    extent: int = 40
    rank: int = 4
    iters: int = 30
    repeats: int = 5
    sample_rate: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.order < 2 or self.extent < 1 or self.rank < 1:
            raise ValueError("order >= 2, extent >= 1, rank >= 1 required")
        if self.iters < 1 or self.repeats < 1:
            raise ValueError("iters and repeats must be >= 1")

    @classmethod
    def from_shape(cls, shape, **kw) -> "BenchConfig":
        """Build from an explicit extent tuple (or its textual form)."""
        dims = parse_shape(shape)
        return cls(order=len(dims), extent=dims[0], **kw)

    @property
    def shape(self) -> tuple:
        return (self.extent,) * self.order


def _first_sweep(flops):
    """A per-variant view of the first sweep's FLOPs, ``flops`` of its
    :class:`~fctnlr.solver.IterationRecord`."""
    return property(lambda self: {alg: flops(rec) for alg, rec in self.first.items()})


def _row(*cells) -> dict:
    """A CSV row from its leading cells; the cells not given are empty."""
    return dict(itertools.zip_longest(CSV_FIELDS, cells, fillvalue=""))


@dataclass
class BenchResult:
    """What one paired benchmark measured, per variant: ``walls`` holds each
    repeat's wall ms, ``first`` the last repeat's first iteration record,
    ``totals`` that run's FLOPs over every sweep, and ``predicted`` the
    sweep plan's FLOPs by label for the first sweep.

    ``medians`` and the first sweep's FLOPs by phase (``mk_iter1``,
    ``compose_iter1``, ``proj_iter1``, ``gram_iter1``, and
    ``factor_matmul_iter1``, everything but the partial networks and
    composition) are derived from them, as is each CSV row."""

    config: BenchConfig
    walls: dict
    first: dict
    totals: dict
    predicted: dict

    mk_iter1 = _first_sweep(attrgetter("mk_flops"))
    compose_iter1 = _first_sweep(attrgetter("compose_flops"))
    proj_iter1 = _first_sweep(attrgetter("proj_flops"))
    gram_iter1 = _first_sweep(attrgetter("gram_flops"))
    factor_matmul_iter1 = _first_sweep(lambda rec: rec.flops - rec.mk_flops - rec.compose_flops)

    @property
    def medians(self) -> dict:
        return {alg: statistics.median(walls) for alg, walls in self.walls.items()}

    def speedup(self) -> float:
        """Accelerated over baseline median wall time (< 1 means faster)."""
        return self.medians["afctnlr"] / self.medians["fctnlr"]

    def rows(self) -> list:
        out = []
        for alg in _ALGORITHMS:
            flops = (self.mk_iter1[alg], self.compose_iter1[alg],
                     self.factor_matmul_iter1[alg], self.totals[alg])
            out += [_row("measured", alg, rep, f"{wall:.3f}", *flops)
                    for rep, wall in enumerate(self.walls[alg])]
            out.append(_row("median", alg, "", f"{self.medians[alg]:.3f}", *flops))
        for alg in _ALGORITHMS:
            pred = self.predicted[alg]
            out.append(_row("predicted", alg, "", "", pred["mk"], pred["compose"],
                            pred["proj"] + pred["gram"]))
        out.append(_row("ratio", "afctnlr/fctnlr", "", f"{self.speedup():.6f}"))
        return out


def run_bench(cfg: BenchConfig) -> BenchResult:
    dims = cfg.shape
    rng = np.random.default_rng(cfg.seed)
    truth = rng.standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, cfg.sample_rate, cfg.seed))
    rank, order = FctnRank.uniform(cfg.order, cfg.rank), tuple(range(cfg.order))
    predicted = {alg: dict(sweep_plan(rank, dims, order, alg).flops) for alg in _ALGORITHMS}
    configs = {
        alg: SolverConfig(eps=0.0, max_iters=cfg.iters, max_rank=cfg.rank, initial_rank=cfg.rank,
                          algorithm=alg, seed=cfg.seed)
        for alg in _ALGORITHMS
    }
    walls = {alg: [] for alg in _ALGORITHMS}
    first, totals = {}, {}
    for _rep in range(cfg.repeats):
        for alg in _ALGORITHMS:
            res = run(obs, configs[alg])
            walls[alg].append(sum(rec.wall_ms for rec in res.trace))
            first[alg], totals[alg] = res.trace[0], sum(rec.flops for rec in res.trace)
    return BenchResult(cfg, walls, first, totals, predicted)


def host_facts() -> str:
    """One line naming what a timing depends on: numpy, its BLAS, the core
    count and the ``FCTN_THREADS`` cap."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas = "unknown"
    return (f"host: numpy={np.__version__} blas={blas} cpus={os.cpu_count()} "
            f"FCTN_THREADS={os.environ.get('FCTN_THREADS', 'unset')}")
