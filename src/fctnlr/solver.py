"""Alternating proximal minimization for network completion.

Objective over the dense tensor X and the network factors {A_k}:

    f(X, {A_k}) = 1/2 ||X - compose({A_k})||_F^2
                  + sum_k lam_k/2 tr(A_k_(k)^T L_k A_k_(k))

subject to X agreeing with the observed entries.  A sweep (:func:`_sweep`)
maps the accepted iterate ``(f, x)`` to a new one and leaves its input as it
is: it solves the factors in the current visiting order (each solve is exact
and proximally damped by rho), then refreshes X by blending the composed
tensor with the previous iterate off the observed set and restoring the
observations exactly.  :class:`~fctnlr.network.FctnFactors` is immutable, so
the sweep rebinds its own network at each position.

:func:`run` is one loop: sweep from the accepted ``(f, x)``; check the new
iterate (finite, no rise); accept it; grow the bonds; check the gauge;
record; test the stop; and, when ``shuffle`` is set, draw the next visiting
order.

The data side touches X as few times as its arithmetic needs.  Each factor
reads X once, through the data product ``X_(k) M^T``
(:func:`~fctnlr.sylvester.data_product`), which views X in place instead of
unfolding it wherever the layouts allow.  The X refresh is one residual pass
(:func:`refresh_x`): with r = composed - X, off the observed set the new
iterate is X + r/(1+rho), so the data term of the objective, the step
``||X_new - X||`` and the new iterate all come from r and one gather on the
observed set.  It runs block by block, ``_BLOCK`` entries at a time, so
each block's arithmetic stays in cache, and each block also adds its share
of ``||X_new||^2``, which the next sweep's relative change and the rise
check need, so no pass over X is left for it.  The tests check it against a
direct refresh (``update_x`` in ``tests/oracles.py``) and
:func:`objective`.

The variants differ only in their sweep plans and their visiting order; a
sweep runs every chain its :func:`~fctnlr.network.sweep_plan` names and
does not branch on the variant.  Both build every partial network by the
one build :func:`~fctnlr.network._compose_except_cached_labeled`, which
runs a position's chain and writes the result in
:func:`~fctnlr.network.matrix_labels` layout, so its network matrix M is a
view of it, never a copy, and both compose the X-refresh tensor by the
plan's compose chain (:func:`~fctnlr.network.compose`).  The baseline's
chains rebuild every partial network from scratch by the plain ascending
chain; it takes every data product from M and composes by the whole chain.
The accelerated variant composes from the partial network its last build
kept, as ``X_(k) = A_(k) M``, and reuses work within the sweep: each M's
chain extends a prefix kept by an earlier position and joins a suffix kept
the same way, each kept for the one later build that uses it, or it takes
its data products from X-environments kept the same way
(:func:`~fctnlr.network.env_data_product`), in one store per sweep.  The
plan also names each position's Gram matrix, and
:func:`~fctnlr.sylvester.data_product` picks the GEMM form of a product
from M.  Both variants visit the factors in the identity order by default,
so they follow the same iterates and ``afctnlr`` runs every sweep from one
cached plan; ``shuffle`` draws a fresh random order for ``afctnlr`` every
sweep instead, as the paper does (``fctnlr`` refuses it).  Bonds grow by
one when the relative change ``||X_new - X|| / ||X||`` falls below
``10 * eps``, and the run stops when it is at most eps after a sweep
without growth.

A sweep holds at most one network matrix M at a time: the previous factor's
M and its data product are freed before the next M is built, and the last
M before composing, unless the compose chain starts from it (``afctnlr``).
Besides it a sweep holds the chain intermediates or X-environments still
to be used (``afctnlr``) and X-sized arrays.

A sweep cannot raise the objective beyond roundoff (PAM decreases it), so
one that does stops the run with :class:`~fctnlr.sylvester.NumericalFailure`.
So does a largest factor norm that grows past ``1e10`` times its smallest
value so far: the objective can keep falling while the factors run off along
the gauge of the network (one factor scaled by c, another by 1/c), as with
the as-printed penalty.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .laplacian import CirculantLaplacian
from .network import (
    FctnFactors,
    FctnRank,
    _ALGORITHMS,
    _broadcast,
    _compose_except_cached_labeled,
    _rank_entries,
    compose,
    compose_except,  # unused here; the benchmark's tracer hooks this name
    env_data_product,
    gram_except,
    property1_unfold,
    shuffle_order,
    sweep_plan,
)
from .sylvester import (
    NumericalFailure,
    data_product,
    dense_gram,
    solve_factor,
)
from .tensor import FLOPS, mode_fold, mode_unfold

__all__ = [
    "IterationRecord",
    "Observation",
    "SolverConfig",
    "SolverResult",
    "objective",
    "refresh_x",
    "run",
]

_RANK_POLICIES = ("fixed", "threshold")
_GROW_NOISE = 1e-2
# a sweep may raise the objective by at most this share of
# (|objective| + ||X||^2), the scale of its summation roundoff; over 25k
# sweeps (the test suite, the benchmark workloads, as-printed runs near a
# singular shift, rho 1e-8 with lam 0, data scaled by 1e6 and 1e-6) the
# largest rise seen was 2.3e-17 of it
_RISE_SLACK = 1e-9
# the largest factor norm may grow to at most this multiple of its smallest
# value so far in the run; beyond it the factors run off along the c, 1/c
# gauge (the as-printed penalty is unbounded below there) while X stays put
_GAUGE_GROWTH = 1e10
# entries per block of the X refresh (256 KB of float64), so that a block's
# passes run in cache; timing the refresh alone (FCTN_THREADS=1, 2-core x86
# host, median of 15) at 40^4, 128^3, 16^5 and 64x64x3x32, blocks of 8,192
# and 131,072 entries were slower on every shape, and at 40^4 the blocked
# refresh took 8.5 ms against 15.7 ms unblocked with its separate norm pass
_BLOCK = 32768


# ---------- problem data ---------- #


@dataclass
class Observation:
    """Observed entries of a tensor: values where mask is True, zeros elsewhere.
    Both are copies, so the caller's arrays may change afterwards."""

    values: np.ndarray
    mask: np.ndarray
    _flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    _bounds: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.array(self.mask, dtype=bool, order="F")
        if self.values.shape != self.mask.shape:
            raise ValueError("values and mask shapes differ")
        if self.values.ndim < 2:
            raise ValueError("need a tensor of order >= 2")
        if not self.mask.any():
            raise ValueError("mask has no observed entry")
        self.values = np.asfortranarray(np.where(self.mask, self.values, 0.0))
        if not np.isfinite(self.values).all():
            raise ValueError("observed values must be finite")

    @classmethod
    def from_dense(cls, dense: np.ndarray, mask: np.ndarray) -> "Observation":
        return cls(values=np.asarray(dense), mask=mask)

    @property
    def dims(self) -> tuple:
        return self.values.shape

    @property
    def flat_index(self) -> np.ndarray:
        """First-index-fastest linear positions of the observed entries."""
        if self._flat is None:
            self._flat = np.flatnonzero(self.mask.ravel(order="K"))
        return self._flat

    @property
    def block_bounds(self) -> np.ndarray:
        """Where each block of ``_BLOCK`` linear positions starts in
        :attr:`flat_index`: block b's observed entries are
        ``flat_index[block_bounds[b]:block_bounds[b + 1]]``."""
        if self._bounds is None:
            size = self.mask.size
            self._bounds = np.searchsorted(self.flat_index, np.arange(0, size + _BLOCK, _BLOCK))
        return self._bounds


@dataclass(frozen=True)
class SolverConfig:
    lam: object = 0.35
    delta: object = 0.5
    rho: float = 0.1
    eps: float = 1e-4
    max_iters: int = 500
    max_rank: object = 2
    initial_rank: object = None
    # "fixed" is the default run with initial_rank equal to max_rank
    rank_policy: str = "threshold"
    algorithm: str = "fctnlr"
    laplacian_sign: str = "positive-definite"
    shuffle: bool = False
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rho < math.inf:
            raise ValueError("rho must be finite and > 0")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError("eps must be finite and >= 0")
        for name in ("lam", "delta"):
            if not np.isfinite(np.asarray(getattr(self, name), dtype=np.float64)).all():
                raise ValueError(f"{name} must be finite")
        if (np.asarray(self.lam, dtype=np.float64) < 0.0).any():
            raise ValueError("lam must be >= 0")
        if not (np.asarray(self.delta, dtype=np.float64) > 0.0).all():
            raise ValueError("delta must be > 0")
        cap = _rank_entries(self.max_rank)
        start = cap if self.initial_rank is None else _rank_entries(self.initial_rank)
        # tables of different lengths are refused against the order in run()
        comparable = start.shape == cap.shape or 0 in (start.ndim, cap.ndim)
        if comparable and (start > cap).any():
            raise ValueError("initial rank exceeds max_rank")
        # a fixed rank never grows, so it runs at max_rank throughout
        if self.rank_policy == "fixed" and not (comparable and (start == cap).all()):
            raise ValueError("a fixed rank policy runs at max_rank; initial_rank must equal it")
        if not float(self.max_iters).is_integer() or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if not float(self.seed).is_integer() or self.seed < 0:
            raise ValueError("seed must be an integer >= 0")
        object.__setattr__(self, "seed", int(self.seed))
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.rank_policy not in _RANK_POLICIES:
            raise ValueError(f"rank_policy must be one of {_RANK_POLICIES}")
        # fctnlr has no reshuffled order to run
        if self.shuffle and self.algorithm != "afctnlr":
            raise ValueError("shuffle needs algorithm='afctnlr'")


@dataclass
class IterationRecord:
    """One sweep's bookkeeping.

    ``step_sq`` is the summed squared movement of every block updated this
    iteration (all factors and X), the quantity damped by rho.  ``rank`` is
    the table in force during the sweep; ``rank_grown`` marks that the table
    was enlarged after this iteration's X update, so objective comparisons
    across that boundary are against the post-growth value, not this one.
    ``x_norm`` and ``factor_norm`` record the iterate magnitudes (the latter
    the largest factor Frobenius norm) for boundedness diagnostics.  The
    FLOPs of the sweep split by phase: ``mk_flops`` (partial networks),
    ``compose_flops``, ``proj_flops`` (data products) and ``gram_flops``
    (Gram matrices) sum to ``flops``.
    """

    iteration: int
    objective: float
    rel_change: float
    wall_ms: float
    flops: int
    rank: tuple
    mk_flops: int
    compose_flops: int
    proj_flops: int
    gram_flops: int
    step_sq: float
    x_norm: float
    factor_norm: float
    rank_grown: bool


@dataclass
class SolverResult:
    x: np.ndarray
    factors: FctnFactors
    trace: list
    converged: bool
    initial_objective: float

    @property
    def iterations(self) -> int:
        return len(self.trace)

    @property
    def objective(self) -> float:
        return self.trace[-1].objective if self.trace else self.initial_objective


# ---------- objective and block updates ---------- #


def _sq(a: np.ndarray) -> float:
    """Squared Frobenius norm via a flat dot product (no layout copies for
    arrays contiguous in any order)."""
    flat = a.ravel(order="K")
    return float(np.dot(flat, flat))


def objective(x, f: FctnFactors, laps, lams, obs: Observation | None = None) -> float:
    """f(X, {A_k}).

    When ``obs`` is given, X must agree with the observed entries exactly
    (the solver maintains that invariant; violating it is a usage error).
    """
    x = np.asarray(x, dtype=np.float64)
    if obs is not None and not np.array_equal(x[obs.mask], obs.values[obs.mask]):
        raise ValueError("x disagrees with the observed entries")
    return 0.5 * _sq(x - compose(f)) + _penalty(f, laps, lams)


def _penalty(f: FctnFactors, laps, lams) -> float:
    """The smoothing term of the objective, sum_k lam_k/2 tr(A_k^T L_k A_k)."""
    reg = 0.0
    for k in range(f.n):
        reg += 0.5 * lams[k] * laps[k].trace_penalty(mode_unfold(f.factor(k), k))
    return reg


def refresh_x(composed: np.ndarray, x: np.ndarray, obs: Observation, rho: float):
    """The proximally damped X refresh in one residual pass, written over
    ``composed``: off the observed set X is averaged with the composed
    network, on it the observations stay bit for bit.  ``update_x`` in
    ``tests/oracles.py`` is its direct reference.

    X must agree with the observations bit for bit on the observed set, as
    the solver's iterates do; the new iterate then does too.  Returns
    ``(x_new, data, step_sq, x_new_sq)``: the new iterate (in
    ``composed``'s buffer, F-ordered), the data term
    ``1/2 ||x_new - composed||^2`` of the objective, ``||x_new - x||^2`` and
    ``||x_new||^2``.

    With r = composed - x: on the observed set x_new = x, so the data term
    there is ``1/2 ||P_Omega r||^2`` (one gather) and the step is 0; off it
    x_new = x + r/(1+rho), so x_new - composed = -rho/(1+rho) r and
    x_new - x = r/(1+rho), both from ``||P_Omega^c r||^2``.  r is set to -0.0
    on the observed set, and x + (-0.0) is x bit for bit (+0.0 would turn an
    observed -0.0 into +0.0), so no scatter of the observations is needed.

    The pass runs over blocks of ``_BLOCK`` entries in linear order, each
    through every step before the next block starts; the new iterate is
    the same bit for bit, and the three sums are summed block by block.
    """
    r = np.asfortranarray(composed)
    flat, x_flat = r.reshape(-1, order="F"), np.ravel(x, order="F")
    fi, bounds = obs.flat_index, obs.block_bounds
    scale = 1.0 / (1.0 + rho)
    on_sq = off_sq = new_sq = 0.0
    for start, lo, hi in zip(range(0, flat.size, _BLOCK), bounds[:-1], bounds[1:]):
        rb, xb, on_idx = flat[start:start + _BLOCK], x_flat[start:start + _BLOCK], fi[lo:hi]
        np.subtract(rb, xb, out=rb)
        on = np.take(flat, on_idx)
        on_sq += float(np.dot(on, on))
        flat[on_idx] = -0.0
        off_sq += float(np.dot(rb, rb))
        rb *= scale
        rb += xb
        new_sq += float(np.dot(rb, rb))
    shrink = rho / (1.0 + rho)
    return r, 0.5 * (shrink * shrink * off_sq + on_sq), off_sq / (1.0 + rho) ** 2, new_sq


# ---------- main loop ---------- #


def run(obs: Observation, cfg: SolverConfig) -> SolverResult:
    n = obs.values.ndim
    dims = obs.dims
    lams = [float(lam) for lam in _broadcast(cfg.lam, n, "lam")]
    laps = [CirculantLaplacian(dim, delta, cfg.laplacian_sign)
            for dim, delta in zip(dims, _broadcast(cfg.delta, n, "delta"))]

    cap = FctnRank.from_spec(n, cfg.max_rank)
    start = 1 if cfg.rank_policy == "threshold" else cfg.max_rank
    rank = FctnRank.from_spec(n, start if cfg.initial_rank is None else cfg.initial_rank)
    rng = np.random.default_rng(cfg.seed)
    f = FctnFactors.random(dims, rank, rng)
    x = obs.values.copy(order="F")
    order = tuple(range(n))

    initial_objective = prev_obj = objective(x, f, laps, lams)
    if not math.isfinite(initial_objective):
        raise NumericalFailure("initial objective is not finite")
    x_sq = _sq(x)
    least_factor_norm = math.inf
    trace = []

    for it in range(1, cfg.max_iters + 1):
        t0 = time.perf_counter()
        flops0 = FLOPS.snapshot()

        # sweep from the accepted iterate; check the new one, then accept it
        f_new, x_new, obj, step_sq, x_step_sq, x_new_sq = _sweep(
            f, x, obs, order, laps, lams, cfg)
        _check_decrease(it, prev_obj, obj, x_new_sq)
        rel = _rel_change(x_step_sq, x_sq)
        f, x, x_sq, prev_obj = f_new, x_new, x_new_sq, obj

        # a fixed rank starts at its cap, so it never has a bond to grow
        grown = f.rank.any_below(cap) and rel < 10.0 * cfg.eps
        if grown:
            f, prev_obj = _grow_with_continuity(f, cap, rng, laps, lams, x)
        factor_norm = max(math.sqrt(_sq(f.factor(k))) for k in range(n))
        least_factor_norm = min(least_factor_norm, factor_norm)
        _check_gauge(it, factor_norm, least_factor_norm)

        # a growth sweep is charged its objective evaluations too
        spent = {lab: count - flops0.get(lab, 0) for lab, count in FLOPS.snapshot().items()}
        trace.append(IterationRecord(
            iteration=it,
            objective=obj,
            rel_change=rel,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            flops=spent["total"],
            rank=f_new.rank.entries,  # the table in force during the sweep
            mk_flops=spent.get("mk", 0),
            compose_flops=spent.get("compose", 0),
            proj_flops=spent.get("proj", 0),
            gram_flops=spent.get("gram", 0),
            step_sq=step_sq + x_step_sq,
            x_norm=math.sqrt(x_sq),
            factor_norm=factor_norm,
            rank_grown=grown,
        ))

        converged = not grown and rel <= cfg.eps
        if converged:
            break
        if cfg.shuffle:
            order = shuffle_order(order, rng)

    return SolverResult(x, f, trace, converged, initial_objective)


def _check_decrease(it: int, prev_obj: float, obj: float, x_sq: float) -> None:
    """Refuse a sweep whose objective is not finite or rose beyond roundoff
    (``_RISE_SLACK`` of the scale ``|objective| + ||X_new||^2``)."""
    if not math.isfinite(obj):
        raise NumericalFailure(f"objective diverged at iteration {it}")
    if obj > prev_obj + _RISE_SLACK * (abs(prev_obj) + x_sq):
        raise NumericalFailure(
            f"objective rose from {prev_obj:.10g} to {obj:.10g} at iteration {it}"
        )


def _rel_change(step_sq: float, base_sq: float) -> float:
    """The relative change ``||X_new - X|| / ||X||`` of a sweep, from the
    squared step and the squared norm of the X it started from."""
    diff, base = math.sqrt(step_sq), math.sqrt(base_sq)
    if diff == 0.0:
        return 0.0
    return math.inf if base == 0.0 else diff / base


def _check_gauge(it: int, factor_norm: float, least: float) -> None:
    """Refuse factors that ran off along the gauge: the largest factor norm
    beyond ``_GAUGE_GROWTH`` times its smallest value so far."""
    if factor_norm > _GAUGE_GROWTH * least:
        raise NumericalFailure(
            f"largest factor norm grew from {least:.6g} to "
            f"{factor_norm:.6g} by iteration {it}"
        )


def _sweep(f, x, obs, order, laps, lams, cfg):
    """One PAM sweep from the iterate ``(f, x)``, which it leaves as it is:
    solve every factor in the visiting ``order``, by the routes of its
    :func:`~fctnlr.network.sweep_plan`, each against the factors as
    updated so far, then refresh X from the tensor the plan's compose
    chain composes.  Returns ``(f_new, x_new, objective,
    step_sq, x_step_sq, x_new_sq)``: the new iterate, its objective, the
    summed squared factor steps, the squared X step and ``||x_new||^2``."""
    kept = {}  # the chains or X-environments kept for later chains of this sweep
    step_sq = 0.0
    plan = sweep_plan(f.rank, f.dims, order, cfg.algorithm)
    for k, build, product, doubled in plan.positions:
        m = xm = None  # the previous factor's, freed before the next build
        if product is not None:
            xm = env_data_product(f, k, product, x, kept)
        else:
            m = property1_unfold(_compose_except_cached_labeled(f, build, kept), k, f.n)
        a_prev = mode_unfold(f.factor(k), k)
        xm = data_product(x, k, m) if xm is None else xm
        gram = gram_except(f, k) if doubled else dense_gram(m)
        a_new = solve_factor(xm, a_prev, gram, laps[k], lams[k], cfg.rho)
        step_sq += _sq(a_new - a_prev)
        f = f.with_factor(k, mode_fold(a_new, k, f.factor(k).shape))
    m = None  # freed before compose, unless compose starts from it
    # compose takes what it starts from out of a copy of the store, so that
    # stays alive in kept until the sweep returns: freed before the X
    # refresh, with fewer bytes live, it raised the peak RSS of afctnlr at
    # 40^4 R=4 from 169.7 to 188.6 MB (glibc, 2-core x86 host)
    x_new, data, x_step_sq, x_new_sq = refresh_x(
        compose(f, plan.compose, dict(kept)), x, obs, cfg.rho)
    return f, x_new, data + _penalty(f, laps, lams), step_sq, x_step_sq, x_new_sq


def _grow_with_continuity(f, cap, rng, laps, lams, x):
    """Enlarge the rank table: embed each factor zero-padded
    (:meth:`~fctnlr.network.FctnFactors.grow`) and add, on its new entries
    only, ``_GROW_NOISE`` times the old factor's RMS times unit noise, drawn
    once per factor from ``rng``.  Returns the grown factors and their
    objective, which the next sweep's rise check compares against.  The
    noise is what lets a new bond grow: a solve maps a zero slice to zero,
    so without it the new entries would stay 0 for good."""
    grown = f.grow(f.rank.increment_below(cap))
    factors = []
    for k in range(f.n):
        noise = rng.standard_normal(grown.factor(k).shape)
        noise[tuple(slice(0, s) for s in f.factor(k).shape)] = 0.0
        rms = float(np.sqrt(np.mean(f.factor(k) ** 2)))
        factors.append(grown.factor(k) + _GROW_NOISE * rms * noise)
    grown = FctnFactors(factors)
    return grown, objective(x, grown, laps, lams)
