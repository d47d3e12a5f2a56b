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
record; test the stop; reshuffle the visiting order.

The data side touches X as few times as its arithmetic needs.  Each factor
reads X once, through the data product ``X_(k) M^T``
(:func:`~fctnlr.sylvester.data_product`), which views X in place instead of
unfolding it wherever the layouts allow.  The X refresh is one residual pass
(:func:`refresh_x`): with r = composed - X, off the observed set the new
iterate is X + r/(1+rho), so the data term of the objective, the step
``||X_new - X||`` and the new iterate all come from r and one gather on the
observed set, and ``||X||`` carries over from the sweep before.  The tests
check it against a direct refresh (``update_x`` in ``tests/oracles.py``)
and :func:`objective`.

The variants differ in how they get each factor's network matrix and data
product, in how they compose the X-refresh tensor and in their visiting
order.  Both build every partial network by the one build
:func:`~fctnlr.network._compose_except_cached_labeled`, which runs the
chains their sweep plan names and writes the result in
:func:`~fctnlr.network.matrix_labels` layout, so its network matrix M is a
view of it, never a copy.  The baseline's chains rebuild every partial
network from scratch by the plain ascending chain; it takes every data
product from M and composes the X-refresh tensor by the whole chain.  The
accelerated variant composes the X-refresh tensor from the last factor's M
as ``X_(k) = A_(k) M``, (by default) draws a fresh random visiting order
every sweep, and reuses work within the sweep: its chains build each M from
prefix and suffix chains kept for the one later build that uses them, or it
takes its data products from X-environments kept the same way
(:func:`~fctnlr.environment.env_data_product`), in one store per sweep.
Which build, data product and Gram matrix each position takes, and the
chains it runs, are planned by :func:`~fctnlr.environment.sweep_plan`, where
the rules are written; a sweep runs its plan as it is.  Bonds grow by one
when the relative change ``||X_new - X|| / ||X||`` falls below ``10 * eps``,
and the run stops when it is at most eps after a sweep without growth.

A sweep holds at most one network matrix M at a time: the previous factor's
M and its data product are freed before the next M is built, and ``fctnlr``
frees the last M before composing the whole chain.  Besides it a sweep
holds the chain intermediates or X-environments still to be used
(``afctnlr``) and X-sized arrays.

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

from .environment import env_data_product, sweep_plan
from .laplacian import CirculantLaplacian
from .network import (
    FctnFactors,
    FctnRank,
    _compose_except_cached_labeled,
    compose,
    compose_except,  # unused here; the benchmark's tracer hooks this name
    gram_except,
    property1_unfold,
    shuffle_order,
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

_ALGORITHMS = ("fctnlr", "afctnlr")
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


# ---------- problem data ---------- #


@dataclass
class Observation:
    """Observed entries of a tensor: values where mask is True, zeros elsewhere."""

    values: np.ndarray
    mask: np.ndarray
    _flat: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asfortranarray(np.asarray(self.mask, dtype=bool))
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


def _per_mode(value, n: int, name: str) -> tuple:
    if np.ndim(value) == 0:
        return (float(value),) * n
    seq = tuple(float(v) for v in value)
    if len(seq) != n:
        raise ValueError(f"{name} needs 1 or {n} values, got {len(seq)}")
    return seq


def _rank_spec(value) -> np.ndarray:
    """A rank spec (an int, a bond list or a table) as an array of entries."""
    return np.asarray(value.entries if isinstance(value, FctnRank) else value)


@dataclass
class SolverConfig:
    lam: object = 0.35
    delta: object = 0.5
    rho: float = 0.1
    eps: float = 1e-4
    max_iters: int = 500
    max_rank: object = 2
    initial_rank: object = None
    rank_policy: str = "threshold"
    algorithm: str = "fctnlr"
    laplacian_sign: str = "positive-definite"
    shuffle: bool = True
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
        cap = _rank_spec(self.max_rank)
        start = cap if self.initial_rank is None else _rank_spec(self.initial_rank)
        if not all(float(e).is_integer() for spec in (cap, start) for e in spec.ravel()):
            raise ValueError("rank entries must be integers")
        if (cap < 1).any() or (start < 1).any():
            raise ValueError("rank entries must be >= 1")
        # tables of different lengths are refused against the order in run()
        comparable = start.shape == cap.shape or 0 in (start.ndim, cap.ndim)
        if comparable and (start > cap).any():
            raise ValueError("initial rank exceeds max_rank")
        if not float(self.max_iters).is_integer() or self.max_iters < 1:
            raise ValueError("max_iters must be an integer >= 1")
        self.max_iters = int(self.max_iters)
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.rank_policy not in _RANK_POLICIES:
            raise ValueError(f"rank_policy must be one of {_RANK_POLICIES}")


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
    ``(x_new, data, step_sq)``: the new iterate (in ``composed``'s buffer,
    F-ordered), the data term ``1/2 ||x_new - composed||^2`` of the
    objective, and ``||x_new - x||^2``.

    With r = composed - x: on the observed set x_new = x, so the data term
    there is ``1/2 ||P_Omega r||^2`` (one gather) and the step is 0; off it
    x_new = x + r/(1+rho), so x_new - composed = -rho/(1+rho) r and
    x_new - x = r/(1+rho), both from ``||P_Omega^c r||^2``.  r is set to -0.0
    on the observed set, and x + (-0.0) is x bit for bit (+0.0 would turn an
    observed -0.0 into +0.0), so no scatter of the observations is needed.
    """
    r = np.asfortranarray(composed)
    flat = r.reshape(-1, order="F")
    fi = obs.flat_index
    np.subtract(r, x, out=r)
    on = np.take(flat, fi)
    on_sq = float(np.dot(on, on))
    flat[fi] = -0.0
    off_sq = float(np.dot(flat, flat))
    r *= 1.0 / (1.0 + rho)
    r += x
    shrink = rho / (1.0 + rho)
    return r, 0.5 * (shrink * shrink * off_sq + on_sq), off_sq / (1.0 + rho) ** 2


def _grow_parts(f: FctnFactors, cap: FctnRank, rng: np.random.Generator):
    """Zero-padded embedding plus unit noise masks for the new entries."""
    new_rank = f.rank.increment_below(cap)
    grown = f.grow(new_rank)
    noises = []
    for k in range(f.n):
        noise = rng.standard_normal(grown.factor(k).shape)
        old_block = tuple(slice(0, s) for s in f.factor(k).shape)
        noise[old_block] = 0.0
        noises.append(noise)
    return grown, noises


def _add_noise(f: FctnFactors, grown: FctnFactors, noises, scale: float) -> FctnFactors:
    """``grown`` plus ``scale`` times each old factor's RMS times its noise."""
    out = []
    for k in range(f.n):
        rms = float(np.sqrt(np.mean(f.factor(k) ** 2)))
        out.append(grown.factor(k) + scale * rms * noises[k])
    return FctnFactors(out)


# ---------- main loop ---------- #


def run(obs: Observation, cfg: SolverConfig) -> SolverResult:
    n = obs.values.ndim
    dims = obs.dims
    lams = _per_mode(cfg.lam, n, "lam")
    deltas = _per_mode(cfg.delta, n, "delta")
    laps = [CirculantLaplacian(dims[k], deltas[k], cfg.laplacian_sign) for k in range(n)]

    cap = FctnRank.from_spec(n, cfg.max_rank)
    rank = FctnRank.from_spec(n, 1 if cfg.initial_rank is None else cfg.initial_rank)
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
        f_new, x_new, obj, step_sq, x_step_sq = _sweep(f, x, obs, order, laps, lams, cfg)
        x_new_sq = _sq(x_new)
        _check_decrease(it, prev_obj, obj, x_new_sq)
        rel = _rel_change(x_step_sq, x_sq)
        f, x, x_sq, prev_obj = f_new, x_new, x_new_sq, obj

        grown = cfg.rank_policy == "threshold" and f.rank.any_below(cap) and rel < 10.0 * cfg.eps
        if grown:
            f, prev_obj = _grow_with_continuity(f, cap, rng, laps, lams, x, obj)
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
        if cfg.algorithm == "afctnlr" and cfg.shuffle:
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
    :func:`~fctnlr.environment.sweep_plan`, each against the factors as
    updated so far, then refresh X.  Returns ``(f_new, x_new, objective,
    step_sq, x_step_sq)``: the new iterate, its objective, the summed
    squared factor steps and the squared X step."""
    kept = {}  # the chains or X-environments kept for later positions of this sweep
    step_sq = 0.0
    for k, from_envs, chains, doubled in sweep_plan(f.rank, f.dims, order, cfg.algorithm).positions:
        m = xm = None  # the previous factor's, freed before the next build
        if from_envs:
            xm = env_data_product(f, k, order, x, kept)
        else:
            m = property1_unfold(_compose_except_cached_labeled(f, k, chains, kept), k, f.n)
        a_prev = mode_unfold(f.factor(k), k)
        xm = data_product(x, k, m) if xm is None else xm
        gram = gram_except(f, k) if doubled else dense_gram(m)
        a_new = solve_factor(xm, a_prev, gram, laps[k], lams[k], cfg.rho)
        step_sq += _sq(a_new - a_prev)
        f = f.with_factor(k, mode_fold(a_new, k, f.factor(k).shape))
    # the last factor's network matrix holds every other factor as updated
    if cfg.algorithm == "afctnlr":
        composed = compose(f, k, m)
    else:
        m = None  # compose's chain builds without it
        composed = compose(f)
    x_new, data, x_step_sq = refresh_x(composed, x, obs, cfg.rho)
    return f, x_new, data + _penalty(f, laps, lams), step_sq, x_step_sq


def _grow_with_continuity(f, cap, rng, laps, lams, x, pre_objective):
    """Enlarge the rank table; retry with smaller noise until the objective
    stays within 5% of its pre-growth value (zero noise restores it up to
    roundoff).  Returns the grown factors and their objective."""
    grown, noises = _grow_parts(f, cap, rng)
    for scale in (_GROW_NOISE, _GROW_NOISE / 10.0, 0.0):
        cand = _add_noise(f, grown, noises, scale)
        post = objective(x, cand, laps, lams)
        if scale == 0.0 or (math.isfinite(post) and post <= 1.05 * pre_objective + 1e-12):
            return cand, post
