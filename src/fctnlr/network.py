"""Fully-connected tensor network of order-N factors.

Factor ``k`` is an order-N array whose mode ``k`` is the physical mode (extent
``I_k``) and whose mode ``j != k`` is the bond shared with factor ``j`` (extent
``R[j,k]``).  Composing all factors (contracting every bond) yields the dense
order-N tensor.  The partial network around ``k`` (everything contracted except
factor ``k``) is the workhorse of the alternating solver.

Every chain of contractions is planned before it runs: :func:`_chain_plan`
sizes it and returns it as ``(start, steps, target)``, :func:`_cost` counts
its FLOPs and contraction calls from its steps, and :func:`_run`, the one
loop that contracts, runs it.  Both variants build the partial network
through :func:`_compose_except_cached_labeled` from the one chain their
sweep plan names, in :func:`matrix_labels` order, so its network matrix is
a view.  The baseline's chain is the plain ascending chain over the other
factors.  The accelerated build's chain runs the prefix over the factors
already updated in the sweep, from the longest one an earlier position
kept, and its last step joins the suffix over those not yet updated, kept
by the sweep's first position or a single factor (:func:`cached_build_plan`).
Composition (:func:`compose`) runs the chain its sweep plan names: the
plain chain over every factor, or, for ``afctnlr``, one step that takes
the partial network the last position's build kept and contracts it with
the last factor.  The Gram matrix ``M M^T`` of a network matrix can also
come from the doubled network (:func:`gram_except`) without forming M, by
the chain its sweep plan names.  Outside a sweep, :func:`compose` and
:func:`compose_except` take their chains from the cached
:func:`_plain_chain`, and :func:`gram_except` its chain from the cached
:func:`_doubled_chain`.

On the environment route an ``afctnlr`` sweep builds no network matrix M
before the last position, only each factor's data product ``X_(k) M^T``
(its Gram matrix comes from the doubled network).  Those products come from
environments: X contracted with the factors not yet updated (kept from the
first position of the sweep, as ALS in the tensor-train format keeps its
interfaces), then with the factors already updated.  Each position's
contractions are one planned chain (:func:`_schedule`) of the same shape,
run by :func:`_run` (:func:`env_data_product`), each result laid out so
that the step reading it needs no copy.

Each position's build and Gram route and the compose chain are chosen
here, by :func:`sweep_plan`, and the solver plans no chain of its own and
does not branch on the variant; the GEMM form of a data product from M is
:func:`~fctnlr.sylvester.data_product`'s choice.  Each
:class:`Position` carries the chains it runs: the chain that builds its M
(the plain chain, or a prefix chain whose last step joins the suffix) or
the environment chain of its data product, and the doubled-network chain
of its Gram matrix ``M M^T``, or None for the dense product.  A plan's
FLOPs and contraction calls are counted from the steps of its chains
(:func:`_cost`).  ``fctnlr`` builds every M by the plain chain and
composes by the plain chain.  ``afctnlr`` composes from its last M and
takes the environment route or the prefix/suffix route for the
whole sweep, whichever the plan prices lower, and on the environment route
every position before the last takes the doubled Gram.  Every other Gram,
in both variants, comes from the doubled network where that is priced below
the dense product and no larger than M (:func:`_doubled_chain` sizes and
prices it once): the doubled chain's middle intermediates grow as
R^(2 t (n-t)), so it loses once R^2 is large against the extents (4^5 at
R=3, 6^6 at R=2), and on small tensors, where the Python cost of its
contractions dominates.

Modes are tracked by label, not position: ``('i', k)`` is the physical mode
of factor ``k`` and ``('r', a, b)`` with ``a < b`` is the bond between
factors ``a`` and ``b``.  Every contraction is one call of the labeled
:func:`~fctnlr.tensor.contract`, which contracts over the labels both
operands carry and writes the result in the layout the plan names; every
one is a chain step run by :func:`_run`.
"""
from __future__ import annotations

import copy
import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .tensor import FLOPS, contract, gunfold, mode_unfold, transpose

__all__ = [
    "FctnFactors",
    "FctnRank",
    "Position",
    "SweepPlan",
    "compose",
    "compose_except",
    "env_data_product",
    "factor_labels",
    "gram_except",
    "matrix_labels",
    "property1_unfold",
    "shuffle_order",
    "sweep_plan",
]


# ---------- rank table ---------- #


def _broadcast(value, count: int, name: str) -> tuple:
    """``value`` as ``count`` entries: a scalar repeated, or a sequence of
    exactly ``count`` values, as given."""
    if np.ndim(value) == 0:
        return (value,) * count
    seq = tuple(value)
    if len(seq) != count:
        raise ValueError(f"{name} takes one number or a list of {count}, got a list of {len(seq)}")
    return seq


def _rank_entries(spec, name: str = "rank") -> np.ndarray:
    """The entries of a rank spec (an int, a bond list or a :class:`FctnRank`,
    as numbers or as text) in the spec's shape, each checked to be an
    integer >= 1 that an int64 holds; the errors name the spec ``name``."""
    try:
        entries = np.asarray(spec.entries if isinstance(spec, FctnRank) else spec).astype(float)
    except ValueError:  # text that is not a number
        entries = np.array(math.nan)
    if not all(e.is_integer() for e in entries.ravel().tolist()):
        raise ValueError(f"{name} entries must be integers")
    if (entries < 1).any():
        raise ValueError(f"{name} entries must be >= 1")
    # int64 holds no float from 2**63 up (2**63 - 1 rounds to it), and the
    # cast would wrap there with a RuntimeWarning
    if (entries >= 2.0**63).any():
        raise ValueError(f"{name} entries must be below 2**63")
    return entries.astype(int)


@dataclass(frozen=True)
class FctnRank:
    """Symmetric bond-size table.

    Stores the strict upper triangle row-major: ``(R[0,1], R[0,2], ...,
    R[0,n-1], R[1,2], ..., R[n-2,n-1])``, ``n*(n-1)/2`` entries, every entry a
    positive int (an integral float such as 2.0 is taken; 2.5 is refused);
    one int is taken for every bond.  Indexing is symmetric:
    ``rank[i, j] == rank[j, i]``.
    """

    n: int
    entries: tuple

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 2:
            raise ValueError("a network needs at least two factors")
        tri = tuple(_rank_entries(_broadcast(self.entries, math.comb(n, 2), "rank table")).tolist())
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tri)

    @classmethod
    def uniform(cls, n: int, r: int) -> "FctnRank":
        return cls(n, r)

    @classmethod
    def from_spec(cls, n: int, value) -> "FctnRank":
        """Accept a table for ``n``, an int (broadcast) or a full
        upper-triangle sequence."""
        if isinstance(value, FctnRank):
            if value.n != n:
                raise ValueError(f"rank table is for n={value.n}, need n={n}")
            return value
        return cls(n, value)

    def _idx(self, i: int, j: int) -> int:
        if i == j:
            raise KeyError("diagonal has no bond")
        i, j = (i, j) if i < j else (j, i)
        if not 0 <= i < j < self.n:
            raise KeyError(f"bond ({i}, {j}) out of range for n={self.n}")
        return i * (self.n - 1) - i * (i - 1) // 2 + (j - i - 1)

    def __getitem__(self, key) -> int:
        i, j = key
        return self.entries[self._idx(int(i), int(j))]

    def factor_shape(self, k: int, dims) -> tuple:
        """Shape of factor ``k``: bonds in slot order, physical extent at slot k."""
        dims = tuple(int(d) for d in dims)
        if len(dims) != self.n:
            raise ValueError("dims length does not match table size")
        return tuple(dims[k] if j == k else self[j, k] for j in range(self.n))

    def bond_product(self, k: int) -> int:
        """Product of all bond sizes at factor k (row size of its mode unfolding)."""
        return math.prod(self[j, k] for j in range(self.n) if j != k)

    def increment_below(self, cap: "FctnRank") -> "FctnRank":
        """Bump every entry that is still below its cap by one."""
        if cap.n != self.n:
            raise ValueError("cap table size mismatch")
        return FctnRank(
            self.n, [min(e + 1, c) for e, c in zip(self.entries, cap.entries)]
        )

    def any_below(self, cap: "FctnRank") -> bool:
        if cap.n != self.n:
            raise ValueError("cap table size mismatch")
        return any(e < c for e, c in zip(self.entries, cap.entries))


# ---------- factors ---------- #


def _as_factor(a) -> np.ndarray:
    return np.asfortranarray(np.asarray(a, dtype=np.float64))


class FctnFactors:
    """Ordered, immutable list of network factors, each F-ordered float64.
    :meth:`with_factor` and :meth:`grow` return new networks."""

    def __init__(self, factors) -> None:
        arrays = [_as_factor(a) for a in factors]
        n = len(arrays)
        if n < 2:
            raise ValueError("need at least two factors")
        for k, a in enumerate(arrays):
            if a.ndim != n:
                raise ValueError(f"factor {k} has order {a.ndim}, expected {n}")
        for i in range(n):
            for j in range(i + 1, n):
                if arrays[i].shape[j] != arrays[j].shape[i]:
                    raise ValueError(
                        f"bond ({i}, {j}) disagrees: {arrays[i].shape[j]} vs {arrays[j].shape[i]}"
                    )
        self._arrays = tuple(arrays)
        self._rank = FctnRank(n, [arrays[i].shape[j] for i in range(n) for j in range(i + 1, n)])

    @classmethod
    def random(cls, dims, rank: FctnRank, rng: np.random.Generator) -> "FctnFactors":
        """Standard-normal factors for the given dims and rank table."""
        dims = tuple(int(d) for d in dims)
        return cls(
            [rng.standard_normal(rank.factor_shape(k, dims)) for k in range(len(dims))]
        )

    @property
    def n(self) -> int:
        return len(self._arrays)

    @property
    def dims(self) -> tuple:
        return tuple(a.shape[k] for k, a in enumerate(self._arrays))

    @property
    def rank(self) -> FctnRank:
        return self._rank

    def factor(self, k: int) -> np.ndarray:
        return self._arrays[k]

    def with_factor(self, k: int, arr: np.ndarray) -> "FctnFactors":
        """A new network with factor k swapped for ``arr``; this one is left
        as it is."""
        if np.shape(arr) != self._arrays[k].shape:
            raise ValueError(
                f"factor {k} needs shape {self._arrays[k].shape}, got {np.shape(arr)}"
            )
        # the same shapes make the same bonds and rank table
        new = copy.copy(self)
        new._arrays = self._arrays[:k] + (_as_factor(arr),) + self._arrays[k + 1 :]
        return new

    def grow(self, new_rank: FctnRank) -> "FctnFactors":
        """Zero-padded embedding into a larger rank table (entrywise >= current)."""
        old = self.rank
        if new_rank.n != self.n:
            raise ValueError("rank table size mismatch")
        if any(a < b for a, b in zip(new_rank.entries, old.entries)):
            raise ValueError("new rank table must dominate the current one")
        dims = self.dims
        grown = []
        for k in range(self.n):
            shape = new_rank.factor_shape(k, dims)
            a = np.zeros(shape, order="F")
            a[tuple(slice(0, s) for s in self._arrays[k].shape)] = self._arrays[k]
            grown.append(a)
        return FctnFactors(grown)


# ---------- mode labels ---------- #


def _bond(j: int, k: int) -> tuple:
    return ("r", min(j, k), max(j, k))


def factor_labels(k: int, n: int) -> list:
    """Mode labels of factor k in slot order."""
    return [("i", k) if j == k else _bond(j, k) for j in range(n)]


def _chain_labels(members, n: int) -> tuple:
    """Layout of a chain intermediate over the factors in ``members``: the
    physical modes by ascending factor, then, for each outside factor in
    ascending order, its bonds into the intermediate by ascending member.
    A later step that takes the intermediate as an operand then finds the
    physical modes in the network matrix's order and the bonds to any one
    outside factor in one contiguous group, so the (large) operand needs no
    copy.  Over every factor it is the natural order of the dense tensor."""
    inside = sorted(members)
    out = [("i", j) for j in inside]
    for p in range(n):
        if p not in inside:
            out += [_bond(j, p) for j in inside]
    return tuple(out)


def matrix_labels(k: int, n: int) -> list:
    """Mode order of the partial network around k that makes its network
    matrix (:func:`property1_unfold`) a free view: the remaining physical
    modes, then the bonds to k, each by ascending factor; the
    :func:`_chain_labels` layout of the factors but k."""
    return list(_chain_labels([j for j in range(n) if j != k], n))


# ---------- composition ---------- #


def _factors(f: FctnFactors):
    """The operands of a chain over the factors of ``f`` (:func:`_run`):
    factor j with its labels."""
    n = f.n
    return lambda j: (f.factor(j), factor_labels(j, n))


def compose(f: FctnFactors, chain=None, store: dict | None = None) -> np.ndarray:
    """Contract the whole network into the dense tensor (modes 0..n-1) by
    the planned ``chain`` (:func:`_run`, taking kept tensors out of
    ``store``), every intermediate laid out for the step that reads it and
    the last written straight into the natural layout.

    By default the chain is the plain one over every factor in ascending
    order (:func:`_plain_chain`).  A sweep plan's :attr:`SweepPlan.compose`
    may instead start from the partial network around a factor k that its
    last build kept in ``store``: the one step ``X_(k) = A_(k) M``,
    2 * I^n * R^(n-1) FLOPs in the uniform case.
    """
    chain = chain or _plain_chain(f.rank, f.dims, tuple(range(f.n)))[1]
    with FLOPS.scoped("compose"):
        return _run(_factors(f), chain, {} if store is None else store)[0]


def compose_except(f: FctnFactors, k: int) -> np.ndarray:
    """Partial network around factor k in :func:`matrix_labels` order, so its
    network matrix is a view: the plain chain over the remaining factors in
    ascending order (:func:`_plain_chain`), no intermediate kept."""
    rest = tuple(j for j in range(f.n) if j != k)
    return _compose_except_cached_labeled(f, _plain_chain(f.rank, f.dims, rest)[1], {})


def property1_unfold(partial: np.ndarray, k: int, n: int) -> np.ndarray:
    """Network matrix M of the partial network around k, a C-ordered view of
    it: rows run over factor k's bond modes (ascending partner) and columns
    over the remaining physical modes (ascending factor), both
    first-index-fastest.

    With ``X_(k)`` the mode-k unfolding of the composed tensor and ``A_(k)``
    that of factor k, the network identity reads ``X_(k) = A_(k) @ M``.  The
    partial must be stored F-contiguously in :func:`matrix_labels` order, as
    both builds write it; any other layout would need a copy, so it is
    refused.
    """
    if partial.ndim != 2 * (n - 1):
        raise ValueError(
            f"partial network has order {partial.ndim}, expected {2 * (n - 1)}"
        )
    if not partial.flags.f_contiguous:
        raise ValueError("partial network is not F-contiguous in matrix_labels order")
    return gunfold(partial, range(partial.ndim), n - 1).T


def _twin(bond) -> tuple:
    """Label of a bond's copy in the doubled network."""
    return bond + ("twin",)


def _doubled_labels(j: int, n: int) -> list:
    """Modes of factor j's Gram over its physical mode: its bonds, then their
    twins."""
    bonds = [_bond(j, p) for p in range(n) if p != j]
    return bonds + [_twin(lab) for lab in bonds]


def gram_except(f: FctnFactors, k: int, chain=None) -> np.ndarray:
    """Gram matrix ``M M^T`` of factor k's network matrix, s x s, rows and
    columns in M's row order (k's bonds by ascending partner, first index
    fastest), F-ordered.

    Built from the doubled network, not from M: each other factor j first
    meets its own copy over physical mode j in the small Gram ``U_j^T U_j``
    of its mode-j unfolding, a tensor over its bonds and their twins; then
    those n-1 Grams are contracted by the planned ``chain`` (a position's
    :attr:`Position.gram`), by default the one in ascending order over
    every bond not at k (:func:`_doubled_chain`), in their natural layouts,
    and the last step writes the s x s layout directly.
    """
    n = f.n
    chain = chain or _doubled_chain(f.rank, f.dims, k)[0]

    def small(j):
        u = mode_unfold(f.factor(j), j)
        FLOPS.add(2 * u.shape[0] * u.shape[1] ** 2)
        extents = [f.factor(j).shape[p] for p in range(n) if p != j]
        # the product is symmetric, so its transpose is the F-ordered Gram
        return (u.T @ u).T.reshape(extents * 2, order="F"), _doubled_labels(j, n)

    with FLOPS.scoped("gram"):
        arr = _run(small, chain, {})[0]
    s = f.factor(k).size // f.dims[k]
    return arr.reshape((s, s), order="F")


# ---------- planned chains ---------- #


def _run(operand, chain, store: dict):
    """Run a planned chain ``(start, steps, target)`` and return its
    ``(array, labels)``; ``operand(j)`` is the j-th operand with its labels.
    The chain's start and each step's operand ``j`` are ``operand(j)``, or,
    when ``j`` is a key (a tuple), the tensor kept in ``store`` under it,
    which the chain takes out.  Each step ``(j, layout, split, flops, key)``
    contracts its operand in (:func:`~fctnlr.tensor.contract` over their
    shared labels), writes the result in ``layout`` (None: the free modes in
    operand order) and keeps it in ``store`` under ``key`` unless that is
    None.  The result is laid out in ``target`` unless that is None."""
    start, steps, target = chain
    arr, labels = store.pop(start) if isinstance(start, tuple) else operand(start)
    for j, layout, split, _, key in steps:
        other = store.pop(j) if isinstance(j, tuple) else operand(j)
        arr, labels = contract(arr, labels, *other, layout, split)
        if key is not None:
            store[key] = arr, labels
    if target is not None and labels != list(target):
        arr, labels = transpose(arr, [labels.index(lab) for lab in target]), list(target)
    return arr, labels


def _compose_except_cached_labeled(f: FctnFactors, chain, kept: dict) -> np.ndarray:
    """Partial network around a factor in :func:`matrix_labels` order, so
    its network matrix is a view, from the planned ``chain`` (a position's
    :attr:`Position.build`): the plain chain, or a
    prefix chain whose last step joins it with a suffix.  The build of M in
    both variants; matches :func:`compose_except` to within reassociation
    roundoff (1e-12 relative).

    ``kept`` belongs to one sweep, which builds every factor once in its
    visiting order and replaces factor k only after its own build.  So a
    prefix holds only factors already replaced and a suffix only factors
    not yet replaced, and neither changes before it is used.  Each entry is
    kept by the position :func:`cached_build_plan` names and taken out by
    the one later position that starts or joins from it; the last
    position's build of an ``afctnlr`` plan keeps its partial network for
    the sweep's compose chain (:attr:`SweepPlan.compose`).  So ``kept`` is
    empty when the sweep has composed; a chain that takes a key not in
    ``kept`` raises KeyError.  Start each sweep from an empty dict.  The benchmark's
    tracer hooks this name, so it is renamed only with the next benchmark
    change."""
    with FLOPS.scoped("mk"):
        return _run(_factors(f), chain, kept)[0]


# ---------- the chains, sized without running them ---------- #


def _mode_sizes(rank: FctnRank, dims) -> dict:
    """Extent of every mode label of the network."""
    n = rank.n
    sizes = {("i", j): int(dims[j]) for j in range(n)}
    sizes.update({_bond(a, b): rank[a, b] for a in range(n) for b in range(a + 1, n)})
    return sizes


def _join_flops(sizes: dict, n: int, a, b) -> int:
    """FLOPs of contracting a chain over the factors ``a`` with one over the
    factors ``b``: twice the product of the extents of every mode either
    holds."""
    return 2 * math.prod(sizes[lab] for lab in {*_chain_labels(a, n), *_chain_labels(b, n)})


def _cost(chain) -> tuple[int, int]:
    """FLOPs and contraction calls of a planned chain, from its steps."""
    return sum(step[3] for step in chain[1]), len(chain[1])


def _chain_plan(sizes: dict, n: int, seq, kept: set | None, target=None) -> tuple:
    """Largest tensor taken in or made (entries) and the chain ``(start,
    steps, target)`` that :func:`_run` runs: the factors in ``seq``
    contracted left to right, from the longest prefix whose key (its sorted
    factor tuple) is in ``kept``, which it takes out of ``kept``, else from
    ``seq[0]``.  Every intermediate is written in :func:`_chain_labels`
    layout, so the last, the chain's target, in ``_chain_labels(seq)``: the
    natural order over every factor, :func:`matrix_labels` order over all
    but one.  Given a ``target`` (the doubled Gram's), the intermediates
    are written in the free modes' order and the last in ``target``.  A
    suffix chain is the prefix chain of the reversed sequence (same keys
    and layouts).

    With a ``kept`` set, every multi-factor intermediate is kept (its key
    added to ``kept`` and named by its step) except those spanning all but
    one factor, which no later position of the sweep asks for; with
    ``kept=None`` nothing is, so each intermediate is freed once the next
    step has read it."""
    given, target = target is not None, target or _chain_labels(seq, n)
    prefixes = [seq[: i + 2] for i in range(len(seq) - 1)]
    start, base = seq[0], 0
    for idx in range(len(prefixes) - 1, -1, -1) if kept else ():
        key = tuple(sorted(prefixes[idx]))
        if key in kept:
            kept.remove(key)
            start, base = key, idx + 1
            break

    def size(members):
        return math.prod(sizes[lab] for lab in _chain_labels(members, n))

    peak, steps = size(seq[: base + 1]), []
    for prefix in prefixes[base:]:
        count = _join_flops(sizes, n, prefix[:-1], prefix[-1:])
        peak = max(peak, size(prefix[-1:]), size(prefix))
        key = tuple(sorted(prefix)) if kept is not None and len(prefix) < n - 1 else None
        if key is not None:
            kept.add(key)
        layout = target if prefix == seq else (None if given else _chain_labels(prefix, n))
        steps.append((prefix[-1], layout, None, count, key))
    return peak, (start, tuple(steps), target)


# holds, per network, the whole chain, each factor's plain chain, and the
# last plain chain of the environment route in every visiting order at
# n <= 6 (720)
@functools.lru_cache(maxsize=1024)
def _plain_chain(rank: FctnRank, dims: tuple, seq: tuple) -> tuple:
    """:func:`_chain_plan` of the chain over ``seq`` that keeps nothing,
    cached on its arguments: the dense tensor in natural order when ``seq``
    holds every factor, else the partial network around the factor k left
    out, in :func:`matrix_labels` order."""
    return _chain_plan(_mode_sizes(rank, dims), rank.n, seq, None)


# holds each factor's chain of a few networks
@functools.lru_cache(maxsize=256)
def _doubled_chain(rank: FctnRank, dims: tuple, k: int) -> tuple[tuple, int, int, int]:
    """The Gram chain of :func:`gram_except` around factor k, with its
    FLOPs, price and largest tensor (entries), cached on its arguments.
    The chain is the plain ascending chain over the other factors of the
    network with squared bonds and unit extents, run in natural layouts and
    written in the Gram's (bond, twin) order.  Its FLOPs add the n-1 small
    Grams ``U_j^T U_j``, ``2 I_j s_j^2`` each, to the chain's, and its price
    is ``_DOUBLED_WEIGHT`` times those FLOPs plus ``_CALL_FLOPS`` per
    contraction call."""
    n = rank.n
    rest = tuple(j for j in range(n) if j != k)
    bonds = [_bond(j, k) for j in rest]
    squared = _mode_sizes(FctnRank(n, [e * e for e in rank.entries]), (1,) * n)
    peak, chain = _chain_plan(squared, n, rest, None, tuple(bonds + [_twin(b) for b in bonds]))
    count, calls = _cost(chain)
    count += sum(2 * dims[j] * rank.bond_product(j) ** 2 for j in rest)
    return chain, count, _DOUBLED_WEIGHT * count + calls * _CALL_FLOPS, peak


def cached_build_plan(rank: FctnRank, dims, order) -> tuple:
    """The chain of :func:`_compose_except_cached_labeled` at each position
    of one sweep in ``order`` that starts from an empty ``kept``; planned,
    not run.  With k at either end of the order, one chain over the other
    factors holds the whole partial network; else the prefix chain over the
    factors before k, from the longest one kept, ends by joining the suffix
    over those after it: kept at position 0, or a single factor.  The prefix
    over ``order[:p]`` (kept at position p-1) is taken by position p, the
    suffix over ``order[j:]`` (kept at position 0) by position j-1."""
    n, sizes, kept, out = rank.n, _mode_sizes(rank, dims), set(), []
    order = tuple(order)
    for pos, k in enumerate(order):
        before, after = order[:pos], order[pos + 1 :][::-1]
        if before and after:
            start, steps, _ = _chain_plan(sizes, n, before, kept)[1]
            join = (_chain_plan(sizes, n, after, kept)[1][0], _chain_labels(before + after, n),
                    None, _join_flops(sizes, n, before, after), None)
            out.append((start, steps + (join,), None))
        else:
            out.append(_chain_plan(sizes, n, before or after, kept)[1])
    return tuple(out)


# ---------- the environment route ---------- #


def _touching(labels, j: int) -> set:
    """The modes among ``labels`` that a contraction with factor j takes:
    its physical mode and its bonds."""
    return {lab for lab in labels if j in lab[1:]}


def _contiguous(target, group) -> bool:
    pos = sorted(target.index(lab) for lab in group)
    return pos[-1] - pos[0] == len(pos) - 1


def _step_layout(labels, extents, shared, factor, keep, final=None):
    """Result layout for contracting a large tensor, its modes ``labels`` in
    memory order, with a factor (modes ``factor`` in memory order) over the
    modes ``shared``; every set in ``keep`` (at most two) must come out
    contiguous, as a later step contracts it.

    A position's last step keeps nothing and names ``final``, M's row
    order.  Its result is laid out in ``final`` wherever the longest leading
    run of ``final``'s modes adjacent in the tensor's memory, in that order,
    can be the GEMM's rows, so the GEMM reads the tensor in place (see
    :func:`~fctnlr.tensor.contract`'s ``split``).  Otherwise the result is
    laid out as [rows, gap, factor, rest]: rows are a run of the tensor's
    modes adjacent in its memory, read in place the same way, and gap and
    rest are batched.  A kept set straddles the boundary before the
    factor's modes or the one after them.  Returns ``(cost, target,
    split)``, the cost being the count of batched GEMMs (the product of the
    tensor's modes outside the rows): ``final``'s layout where it applies,
    else the first layout found with the fewest; None when no layout keeps
    every set contiguous."""
    own = [lab for lab in labels if lab not in shared]
    new = [lab for lab in factor if lab not in shared]
    # the GEMM needs a unit stride in its rows or in the contracted modes
    first = next((lab for lab in labels if extents[lab] > 1), labels[0])
    at = {lab: t for t, lab in enumerate(labels)}
    if final is not None:
        pairs = zip(labels[at.get(final[0], len(labels)):], final)
        run = [lab for lab, _ in itertools.takewhile(lambda pair: pair[0] == pair[1], pairs)]
        if run and (first in shared or first in run):
            return math.prod(extents[lab] for lab in own if lab not in run), final, len(run)
    best = None
    for a in range(len(own)):
        for b in range(a, len(own)):
            if b > a and at[own[b]] != at[own[b - 1]] + 1:
                break
            run = own[a : b + 1]
            rest = [lab for lab in own if lab not in run]
            batched = math.prod(extents[lab] for lab in rest)
            if first not in shared and first not in run or best is not None and batched >= best[0]:
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
                if all(_contiguous(target, group) for group in keep):
                    best = batched, tuple(target), len(run)
                    break
    return best


def _schedule(rank: FctnRank, dims: tuple, order: tuple) -> tuple:
    """Chains of the environment route of a sweep in ``order``: entry p is
    the chain ``(start, steps, target)`` (:func:`_run`) of the data product
    of the factor at position p < n-1, whose steps ``(j, target, split,
    flops, key)`` take factor j into the running tensor, and whose target is
    M's row order.

    Position 0 starts from X, kept under ``("env", n)``, and takes
    ``order[n-1], ..., order[1]``; after ``order[j]`` it holds the
    environment E_j (X contracted with ``order[j:]``), kept under
    ``("env", j)`` for j >= 2, and the last of them is the data product of
    ``order[0]``.  Position p starts from E_{p+1} and takes the already
    updated ``order[:p]`` one at a time; its chain is planned as soon as
    position 0 has laid out E_{p+1}, one pass over the sweep.  Every step's
    result is laid out (:func:`_step_layout`) for the cheapest of its
    options, each of which keeps contiguous the modes that the steps reading
    it contract: those of position 0's next factor, if the step is position
    0's and one follows, plus those of one factor it picks among the ones
    its position has still to take (for position 0, among ``order[:j-1]``
    after ``order[j]``: the first factor of position j-1).  A position's
    last step picks nothing and writes its product in M's row order where
    that reads its tensor in place.  The pick changes only roundoff and, for
    unequal extents, FLOPs."""
    n = rank.n
    extents = _mode_sizes(rank, dims)

    def product(k):
        """M's row order of factor k's data product."""
        return tuple([("i", k)] + [_bond(j, k) for j in range(n) if j != k])

    def step(labels, j, k, nxt, todo):
        """Contract factor j into the running tensor of factor k's data
        product, laid out for the cheapest of its options: keep the modes of
        ``nxt`` (position 0's next factor, or None) and those of one factor
        picked among ``todo``; each has a layout that keeps them contiguous.
        Returns the step without its key, and the factor picked (None when
        ``todo`` is empty: the position's last step)."""
        shared = _touching(labels, j)

        def column(w):
            """The modes of factor w that the contraction after factor j's takes."""
            return _touching(labels, w) | {_bond(j, w)}

        keep = [column(nxt)] if nxt is not None else []
        options = [(keep + [column(w)], w) for w in todo] or [(keep, None)]
        final = None if todo else product(k)
        plans = [(_step_layout(labels, extents, shared, factor_labels(j, n), sets, final), w)
                 for sets, w in options]
        (_, target, split), pick = min(plans, key=lambda got: got[0][0])
        return (j, target, split, 2 * math.prod(extents[lab] for lab in (*target, *shared))), pick

    schedule, steps = [None] * (n - 1), []
    labels = tuple(("i", j) for j in range(n))
    for left in range(n - 1, 0, -1):
        todo = list(order[: left - 1])
        got, w = step(labels, order[left], order[0], order[left - 1] if todo else None, todo)
        steps.append(got + (("env", left) if todo else None,))
        labels = env = got[1]
        if todo:  # position left-1, from E_left
            chain = []
            while w is not None:
                todo.remove(w)
                got, w = step(env, w, order[left - 1], None, todo)
                chain.append(got + (None,))
                env = got[1]
            schedule[left - 1] = (("env", left), tuple(chain), product(order[left - 1]))
    schedule[0] = (("env", n), tuple(steps), product(order[0]))
    return tuple(schedule)


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
    (:func:`_compose_except_cached_labeled`): within one sweep that replaces
    factor k only after its own product, each entry once, and empty when
    position n-2 is done.  The layouts let no step copy
    X or an environment (only the small factors), and each position's last
    step writes its product in M's row order wherever that reads its tensor
    in place."""
    n = f.n
    with FLOPS.scoped("proj"):
        if chain[0] == ("env", n):
            envs[chain[0]] = x, [("i", j) for j in range(n)]
        arr = _run(_factors(f), chain, envs)[0]
    return arr.reshape((f.dims[k], -1), order="F")


# ---------- the sweep plan ---------- #


class Position(NamedTuple):
    """How one position of a sweep runs.  ``k`` is its factor; ``build``
    the planned chain (:func:`_chain_plan`) that builds its M, or None when
    no M is built; ``product`` the environment chain (:func:`_schedule`) of
    its data product, or None when that comes from M; ``gram`` the
    doubled-network chain (:func:`_doubled_chain`) of its Gram matrix, or
    None when that is the dense product ``M M^T``."""

    k: int
    build: tuple | None
    product: tuple | None
    gram: tuple | None


class SweepPlan(NamedTuple):
    """One sweep's positions in visiting order, its FLOPs by label (``mk``,
    ``compose``, ``proj``, ``gram``), its price, and ``compose``, the
    planned chain (:func:`_chain_plan`) that composes the X-refresh tensor
    once every position is done (:func:`compose`): the plain chain over
    every factor, or one step from the partial network the last position's
    build kept."""

    positions: tuple
    flops: MappingProxyType
    price: int
    compose: tuple


_ALGORITHMS = ("fctnlr", "afctnlr")

# Weights of the doubled-network Gram against the dense product M M^T, timed
# per factor with FCTN_THREADS=1 on a 2-core x86 host over 25 shapes (n 3-6,
# extents 4-128, ranks 1-5): its chain runs at about a third of the GEMM's
# FLOP rate (small operands, layout copies).  A tensor.contract call costs
# about 36 us of Python, some 1e6 FLOPs of GEMM time on the same host; the
# price of a sweep charges that for every contraction call.  With it the
# price picks the faster afctnlr route on 11 timed shapes (n 3-6), among
# them 64x64x3x32 R=2 (environment route, 6.5 against 8.0 ms a sweep); at
# 8^6 R=2 it sends fctnlr's Grams to the doubled network, which is slower
# there at factors 0-3 (4.4-5.3 against 3.6-3.9 ms).
_DOUBLED_WEIGHT = 3
_CALL_FLOPS = 1_000_000


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
    chain.  ``afctnlr``'s last build keeps its partial network, and its
    compose chain is one step from it, ``X_(k) = A_(k) M`` (``2 p q s``);
    on the environment route it takes the data products of the positions before the last from
    kept X-environments (:func:`_schedule`), their Grams from the doubled
    network, and builds only the last M, by the plain chain in visiting
    order; off it, every position builds its M by a prefix chain that ends
    by joining the suffix (:func:`cached_build_plan`).  The compose chain
    is charged from its steps, as every other chain is.
    Both routes are priced in the order of the other factors ascending,
    then the last: with unequal extents the price moves a little with the
    order of the rest, the choice mostly with the last factor, which the
    environment route builds M for and which drops out of the environments.
    So the choice depends on the rank table, the extents and the last factor
    only."""
    if algorithm not in _ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
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
        the doubled network (:func:`_doubled_chain`) where that is priced
        below the dense product ``M M^T`` of M (s x p), ``2 s^2 p`` FLOPs at
        face value, and its largest tensor is no larger than M."""
        nonlocal price
        s, p = rank.bond_product(k), math.prod(dims) // dims[k]
        if product is not None:
            charge("proj", *_cost(product))
        else:
            charge("mk", *_cost(build))
            charge("proj", 2 * math.prod(dims) * s, 0)
        gram, count, cost, peak = _doubled_chain(rank, dims, k)
        dense = 2 * s * s * p
        if product is None and not (cost < dense and peak <= s * p):
            gram, count, cost = None, dense, dense
        flops["gram"] += count
        price += cost
        positions.append(Position(k, build, product, gram))

    if algorithm == "fctnlr":
        for k in order:
            place(k, _plain_chain(rank, dims, tuple(j for j in range(n) if j != k))[1])
        compose = _plain_chain(rank, dims, tuple(range(n)))[1]
    else:
        if env is None:
            last = order[-1]
            ranked = tuple(j for j in range(n) if j != last) + (last,)
            env = (sweep_plan(rank, dims, ranked, algorithm, True).price
                   < sweep_plan(rank, dims, ranked, algorithm, False).price)
        if env:
            builds = (None,) * (n - 1) + (_plain_chain(rank, dims, order[:-1])[1],)
            products = _schedule(rank, dims, order) + (None,)
        else:
            builds, products = cached_build_plan(rank, dims, order), (None,) * n
        # the last build keeps its partial network under the key of its
        # factors, and compose's one step starts from it (at n = 2 that
        # build has no step, and compose starts from the other factor)
        rest = tuple(sorted(order[:-1]))
        start, steps, target = builds[-1]
        steps = steps[:-1] + tuple(step[:4] + (rest,) for step in steps[-1:])
        for k, build, product in zip(order, builds[:-1] + ((start, steps, target),), products):
            place(k, build, product)
        compose = _chain_plan(_mode_sizes(rank, dims), n, order, {rest})[1]
    charge("compose", *_cost(compose))
    return SweepPlan(tuple(positions), MappingProxyType(flops), price, compose)


# ---------- visiting orders ---------- #


def shuffle_order(prev, rng: np.random.Generator) -> tuple:
    """Fresh uniformly random visiting order (prev only fixes the length)."""
    return tuple(int(v) for v in rng.permutation(len(prev)))
