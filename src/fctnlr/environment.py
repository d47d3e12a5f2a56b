"""Data products from kept X-environments, and the plan of every sweep.

On the environment route an ``afctnlr`` sweep builds no network matrix M
before the last position, only each factor's data product ``X_(k) M^T``
(its Gram matrix comes from the doubled network).  Those products come from
environments: X contracted with the factors not yet updated (kept from the
first position of the sweep, as ALS in the tensor-train format keeps its
interfaces), then with the factors already updated.  Each position's
contractions are one planned chain (:func:`_schedule`) of the shape
:func:`~fctnlr.network._chain_plan` returns, run by
:func:`~fctnlr.network._run` on the labeled tensors of :mod:`fctnlr.network`,
each result laid out so that the step reading it needs no copy.

Every route choice of a sweep is made here, by :func:`sweep_plan`, and the
solver runs the plan as it is, planning no chain of its own.  Each
:class:`Position` carries the chains it runs: the chain that builds its M
(the plain chain, or a prefix chain whose last step joins the suffix) or
the environment chain of its data product, and whether the Gram matrix
``M M^T`` comes from the doubled network
(:func:`~fctnlr.network.gram_except`) or the dense product.  A plan's
FLOPs and contraction calls are counted from the steps of its chains
(:func:`~fctnlr.network._cost`).
``fctnlr`` builds every M by the plain chain.  ``afctnlr`` takes the
environment route or the prefix/suffix route for the whole sweep, whichever
the plan prices lower, and on the environment route every position before
the last takes the doubled Gram.  Every other Gram, in both variants, comes
from the doubled network where that is priced below the dense product and
no larger than M (:func:`_gram_price`): the doubled chain's middle
intermediates grow as R^(2 t (n-t)), so it loses once R^2 is large against
the extents (4^5 at R=3, 6^6 at R=2), and on small tensors, where the
Python cost of its contractions dominates.
"""
from __future__ import annotations

import functools
import itertools
import math
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .network import (
    FctnFactors,
    FctnRank,
    _bond,
    _cost,
    _factors,
    _mode_sizes,
    _plain_chain,
    _run,
    cached_build_plan,
    factor_labels,
)
from .tensor import FLOPS

__all__ = ["Position", "SweepPlan", "env_data_product", "sweep_plan"]

# Weights of the doubled-network Gram against the dense product M M^T, timed
# per factor with FCTN_THREADS=1 on a 2-core x86 host over 25 shapes (n 3-6,
# extents 4-128, ranks 1-5): its chain runs at about a third of the GEMM's
# FLOP rate (small operands, layout copies), and each of its n-2 contraction
# calls costs about 140 us of Python, some 4e6 FLOPs of GEMM time.  The
# price of a sweep charges the same for every contraction call.
_DOUBLED_WEIGHT = 3
_CALL_FLOPS = 4_000_000


def _touching(labels, j: int) -> set:
    """The modes among ``labels`` that a contraction with factor j takes:
    its physical mode and its bonds."""
    return {lab for lab in labels if j in lab[1:]}


def _contiguous(target, group) -> bool:
    pos = sorted(target.index(lab) for lab in group)
    return pos[-1] - pos[0] == len(pos) - 1


def _step_layout(labels, extents, shared, factor, keep):
    """Result layout for contracting a large tensor, its modes ``labels`` in
    memory order, with a factor (modes ``factor`` in memory order) over the
    modes ``shared``; every set in ``keep`` (at most two) must come out
    contiguous, as a later step contracts it.

    The result is laid out as [rows, gap, factor, rest]: rows are a run of
    the tensor's modes adjacent in its memory, so the GEMM reads the tensor
    in place (see :func:`~fctnlr.tensor.contract`'s ``split``), and gap and
    rest are batched.  A kept set straddles the boundary before the factor's
    modes or the one after them.  Returns ``(cost, target, split)`` for the
    fewest batched GEMMs and then, if it can, a layout that reads the
    (small) factor in place too; None when no such layout keeps every set
    contiguous."""
    own = [lab for lab in labels if lab not in shared]
    new = [lab for lab in factor if lab not in shared]
    # the GEMM needs a unit stride in its rows or in the contracted modes
    first = next((lab for lab in labels if extents[lab] > 1), labels[0])
    at = {lab: t for t, lab in enumerate(labels)}
    slot = {lab: t for t, lab in enumerate(factor)}
    best = None
    for a in range(len(own)):
        for b in range(a, len(own)):
            if b > a and at[own[b]] != at[own[b - 1]] + 1:
                break
            run = own[a : b + 1]
            rest = [lab for lab in own if lab not in run]
            batched = math.prod(extents[lab] for lab in rest)
            if first not in shared and first not in run or best is not None and batched > best[0][0]:
                continue
            for side in itertools.permutations(range(len(keep))):
                head = keep[side[0]] if side else set()
                tail = keep[side[1]] if len(side) > 1 else set()
                start = [lab for lab in new if lab in head]
                end = [lab for lab in new if lab in tail]
                mid = [lab for lab in new if lab not in head and lab not in tail]
                gap = [lab for lab in rest if lab in head]
                after = [lab for lab in rest if lab in tail]
                after += [lab for lab in rest if lab not in head and lab not in tail]
                target = run + gap + start + mid + end + after
                if not all(_contiguous(target, group) for group in keep):
                    continue
                mine = [slot[lab] for lab in target if lab in slot]
                copied = bool(mine) and mine != list(range(mine[0], mine[0] + len(mine)))
                if best is None or (batched, copied) < best[0]:
                    best = (batched, copied), tuple(target), len(run)
    return best


def _leading_split(labels, extents, shared, target):
    """How many leading modes of ``target`` (a small result's layout) the
    GEMM can take as its rows straight from the large tensor: the longest
    prefix of its modes adjacent in the tensor's memory in that order, or
    None when that leaves the GEMM without a unit stride."""
    at = {lab: t for t, lab in enumerate(labels)}
    first = next((lab for lab in labels if extents[lab] > 1), labels[0])
    split = 0
    while split < len(target) and target[split] in at and (
        split == 0 or at[target[split]] == at[target[split - 1]] + 1
    ):
        split += 1
    if split and (first in shared or first in target[:split]):
        return split
    return None


def _schedule(rank: FctnRank, dims: tuple, order: tuple) -> tuple:
    """Chains of the environment route of a sweep in ``order``: entry p is
    the chain ``(start, steps, target)`` (:func:`~fctnlr.network._run`) of
    the data product of the factor at position p < n-1, whose steps
    ``(j, target, split, flops, key)`` take factor j into the running tensor,
    and whose target is M's row order.

    Position 0 starts from X, kept under ``("env", n)``, and takes
    ``order[n-1], ..., order[1]``; after ``order[j]`` it holds the
    environment E_j (X contracted with ``order[j:]``), kept under
    ``("env", j)`` for j >= 2, and the last of them is the data product of
    ``order[0]``.  Position p starts from E_{p+1} and takes the already
    updated ``order[:p]`` one at a time.  Every step's result is laid out
    (:func:`_step_layout`) so that the steps reading it find the modes they
    contract in one block: E_j (j >= 2) for the next step of position 0,
    which contracts ``order[j-1]``, and for the first step of position j-1,
    whose factor is picked among ``order[:j-1]`` as the one the cheapest such
    layout serves; each later step of position p picks its factor the same
    way.  The pick changes only roundoff and, for unequal extents, FLOPs."""
    n = rank.n
    extents = _mode_sizes(rank, dims)

    def step(labels, j, options, final=None):
        """Contract factor j, laid out for the cheapest of its (keep, pick)
        options; every option has a layout that keeps its sets contiguous.
        A position's last step writes its product in ``final``, M's row
        order, where that reads the tensor in place."""
        shared = _touching(labels, j)
        split = None if final is None else _leading_split(labels, extents, shared, final)
        target, pick = final, None
        if not split:
            plans = [(_step_layout(labels, extents, shared, factor_labels(j, n), keep), pick)
                     for keep, pick in options]
            (_, target, split), pick = min(plans, key=lambda got: got[0][0])
        size = math.prod(extents[lab] for lab in target)
        flops = 2 * size * math.prod(extents[lab] for lab in shared)
        return (j, target, split, flops), pick

    def column(labels, j, w):
        """The modes of factor w that the contraction after factor j's takes."""
        return _touching(labels, w) | {_bond(j, w)}

    def product(k):
        """M's row order of factor k's data product."""
        return tuple([("i", k)] + [_bond(j, k) for j in range(n) if j != k])

    firsts, envs, steps = {}, {}, []
    labels = tuple(("i", j) for j in range(n))
    for left in range(n - 1, 0, -1):
        j = order[left]
        options, final = [([], None)], product(order[0])
        if left >= 2:
            nxt = column(labels, j, order[left - 1])
            options = [([nxt, column(labels, j, w)], w) for w in order[: left - 1]]
            final = None
        got, firsts[left] = step(labels, j, options, final)
        steps.append(got + (("env", left) if left >= 2 else None,))
        labels = envs[left] = got[1]
    schedule = [(("env", n), tuple(steps), product(order[0]))]
    for p in range(1, n - 1):
        labels, steps = envs[p + 1], []
        todo, w = list(order[:p]), firsts[p + 1]
        while w is not None:
            todo.remove(w)
            options = [([column(labels, w, v)], v) for v in todo] or [([], None)]
            got, w = step(labels, w, options, None if todo else product(order[p]))
            steps.append(got + (None,))
            labels = got[1]
        schedule.append((("env", p + 1), tuple(steps), product(order[p])))
    return tuple(schedule)


class Position(NamedTuple):
    """How one position of a sweep runs.  ``k`` is its factor; ``build``
    the planned chain (:func:`~fctnlr.network._chain_plan`) that builds its
    M, or None when no M is built; ``product`` the environment chain
    (:func:`_schedule`) of its data product, or None when that comes from M;
    ``doubled`` whether its Gram matrix comes from the doubled network."""

    k: int
    build: tuple | None
    product: tuple | None
    doubled: bool


class SweepPlan(NamedTuple):
    """One sweep's positions in visiting order, its FLOPs by label (``mk``,
    ``compose``, ``proj``, ``gram``) and its price."""

    positions: tuple
    flops: MappingProxyType
    price: int


# holds every visiting order of one network at n <= 6 (720) and the 2n
# canonical ones priced to choose the route
@functools.lru_cache(maxsize=1024)
def sweep_plan(rank: FctnRank, dims: tuple, order: tuple, algorithm: str,
               env: bool | None = None) -> SweepPlan:
    """The routes of one sweep of ``algorithm`` in ``order``, sized by label
    and priced, not run, and cached on its arguments (``dims`` and
    ``order`` as tuples).  For ``afctnlr``, ``env`` forces the route; by
    default the sweep takes the environment route when that is priced below
    the prefix/suffix route.

    The price is the FLOPs, each doubled-network Gram's at
    ``_DOUBLED_WEIGHT``, plus ``_CALL_FLOPS`` for every contraction call.
    ``fctnlr`` builds every M by the plain ascending chain, takes every data
    product ``X_(k) M^T`` (``2 q p s``) from M and composes by the whole
    chain.  ``afctnlr`` composes from the last M and, on the environment
    route, takes the data products of the positions before the last from
    kept X-environments (:func:`_schedule`), their Grams from the doubled
    network, and builds only the last M, by the plain chain in visiting
    order; off it, every position builds its M by a prefix chain that ends
    by joining the suffix (:func:`~fctnlr.network.cached_build_plan`).
    Both routes are priced in the order of the other factors ascending,
    then the last: with unequal extents the price moves a little with the
    order of the rest, the choice mostly with the last factor, which the
    environment route builds M for and which drops out of the environments.
    So the choice depends on the rank table, the extents and the last factor
    only."""
    n = rank.n
    flops = dict.fromkeys(("mk", "compose", "proj", "gram"), 0)
    price = 0
    positions = []

    def charge(label, count, calls):
        nonlocal price
        flops[label] += count
        price += count + calls * _CALL_FLOPS

    def place(k, build=None, product=None):
        """Charge factor k's position: its data product by the environment
        chain ``product`` (and its Gram from the doubled network), else by
        the chain ``build`` of M and the data product from M, its Gram by
        the doubled network where that is priced below the dense product
        and its largest tensor is no larger than M (:func:`_gram_price`)."""
        nonlocal price
        if product is not None:
            charge("proj", *_cost(product))
        else:
            charge("mk", *_cost(build))
            charge("proj", 2 * math.prod(dims) * rank.bond_product(k), 0)
        twin, dense = _gram_price(rank, dims, k, True), _gram_price(rank, dims, k, False)
        doubled = product is not None or twin[1] < dense[1] and twin[2] <= dense[2]
        count, cost, _ = twin if doubled else dense
        flops["gram"] += count
        price += cost
        positions.append(Position(k, build, product, doubled))

    if algorithm == "fctnlr":
        for k in order:
            place(k, _plain_chain(rank, dims, tuple(j for j in range(n) if j != k))[1])
        charge("compose", *_cost(_plain_chain(rank, dims, tuple(range(n)))[1]))
    else:
        if env is None:
            last = order[-1]
            ranked = tuple(j for j in range(n) if j != last) + (last,)
            env = (sweep_plan(rank, dims, ranked, algorithm, True).price
                   < sweep_plan(rank, dims, ranked, algorithm, False).price)
        if env:
            for k, chain in zip(order, _schedule(rank, dims, order)):
                place(k, product=chain)
            place(order[-1], _plain_chain(rank, dims, order[:-1])[1])
        else:
            for k, chain in zip(order, cached_build_plan(rank, dims, order)):
                place(k, chain)
        charge("compose", 2 * math.prod(dims) * rank.bond_product(order[-1]), 1)
    return SweepPlan(tuple(positions), MappingProxyType(flops), price)


def _gram_price(rank: FctnRank, dims: tuple, k: int, doubled: bool) -> tuple[int, int, int]:
    """FLOPs, price and largest tensor (entries) of factor k's Gram matrix.
    From the doubled network (:func:`~fctnlr.network.gram_except`): the n-1
    small Grams ``U_j^T U_j``, ``2 I_j s_j^2`` FLOPs each, then the plain
    ascending chain over the other factors of the network with squared bonds
    and unit extents, priced at ``_DOUBLED_WEIGHT`` times its FLOPs plus
    ``_CALL_FLOPS`` per contraction call.  Else the dense product ``M M^T``
    of its network matrix M (s x p), ``2 s^2 p`` FLOPs at face value, whose
    largest tensor is M."""
    n = rank.n
    s, p = rank.bond_product(k), math.prod(dims) // dims[k]
    if not doubled:
        return 2 * s * s * p, 2 * s * s * p, s * p
    rest = tuple(j for j in range(n) if j != k)
    peak, chain = _plain_chain(rank, dims, rest, True)
    count, calls = _cost(chain)
    count += sum(2 * dims[j] * rank.bond_product(j) ** 2 for j in rest)
    return count, _DOUBLED_WEIGHT * count + calls * _CALL_FLOPS, peak


def env_data_product(f: FctnFactors, k: int, chain, x: np.ndarray, envs: dict) -> np.ndarray:
    """The data product ``X_(k) M^T`` (q x s, M's row order) of factor k
    from kept X-environments instead of M, metered under ``proj``: the run
    of its planned ``chain`` (a position's :attr:`Position.product`, from
    :func:`_schedule`).

    Position 0's chain starts from X, which it puts in ``envs`` under
    ``("env", n)``, contracts it with ``order[n-1], ..., order[1]`` and
    keeps each environment E_j (j >= 2) under ``("env", j)``; position p's
    takes E_{p+1} out of ``envs`` and contracts it with the factors
    ``order[:p]``, which the sweep has updated by then.  So ``envs`` is used
    the way the accelerated build uses its chains
    (:func:`~fctnlr.network._compose_except_cached_labeled`): within one
    sweep that replaces factor k only after its own product, each entry
    once, and empty when position n-2 is done.  The layouts let no step copy
    X or an environment (only the small factors), and each position's last
    step writes its product in M's row order wherever that reads its tensor
    in place."""
    n = f.n
    with FLOPS.scoped("proj"):
        if chain[0] == ("env", n):
            envs[chain[0]] = x, [("i", j) for j in range(n)]
        arr = _run(_factors(f), chain, envs)[0]
    return arr.reshape((f.dims[k], -1), order="F")
