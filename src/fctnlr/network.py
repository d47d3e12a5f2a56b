"""Fully-connected tensor network of order-N factors.

Factor ``k`` is an order-N array whose mode ``k`` is the physical mode (extent
``I_k``) and whose mode ``j != k`` is the bond shared with factor ``j`` (extent
``R[j,k]``).  Composing all factors (contracting every bond) yields the dense
order-N tensor.  The partial network around ``k`` (everything contracted except
factor ``k``) is the workhorse of the alternating solver.

Every chain of contractions is planned before it runs: :func:`_chain_plan`
sizes it and returns it as ``(start, steps, target)``, and :func:`_run`, the
one loop that contracts, runs it.  Both variants build the partial network
through :func:`_compose_except_cached_labeled` from the chains their sweep
plan names, in :func:`matrix_labels` order, so its network matrix is a view.
The baseline's chain is the plain ascending chain over the other factors;
the accelerated build joins a prefix chain over the factors already updated
in the sweep with a suffix chain over those not yet updated, each starting
from the intermediate an earlier position kept (:func:`cached_build_plan`).
Composition runs the plain chain over every factor (:func:`compose`), and the
Gram matrix ``M M^T`` of a network matrix can also come from the doubled
network (:func:`gram_except`) without forming M.  These two and
:func:`compose_except` take their chains from the cached :func:`_plain_chain`.
Which build, data product and Gram each position of a sweep takes is planned
in :mod:`fctnlr.environment`.

Modes inside a labeled intermediate are tracked by label, not position:
``('i', k)`` is the physical mode of factor ``k`` and ``('r', a, b)`` with
``a < b`` is the bond between factors ``a`` and ``b``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import FLOPS, contract, gunfold, mode_unfold, transpose

__all__ = [
    "FctnFactors",
    "FctnRank",
    "compose",
    "compose_except",
    "factor_labels",
    "gram_except",
    "matrix_labels",
    "property1_unfold",
    "shuffle_order",
]


# ---------- rank table ---------- #


@dataclass(frozen=True)
class FctnRank:
    """Symmetric bond-size table.

    Stores the strict upper triangle row-major: ``(R[0,1], R[0,2], ...,
    R[0,n-1], R[1,2], ..., R[n-2,n-1])``, ``n*(n-1)/2`` entries, every entry a
    positive int.  Indexing is symmetric: ``rank[i, j] == rank[j, i]``.
    """

    n: int
    entries: tuple

    def __post_init__(self) -> None:
        n = int(self.n)
        if n < 2:
            raise ValueError("a network needs at least two factors")
        tri = tuple(int(e) for e in self.entries)
        need = n * (n - 1) // 2
        if len(tri) != need:
            raise ValueError(f"expected {need} rank entries for n={n}, got {len(tri)}")
        if any(e < 1 for e in tri):
            raise ValueError("rank entries must be >= 1")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", tri)

    @classmethod
    def uniform(cls, n: int, r: int) -> "FctnRank":
        return cls(n, [r] * (n * (n - 1) // 2))

    @classmethod
    def from_spec(cls, n: int, value) -> "FctnRank":
        """Accept an int (broadcast) or a full upper-triangle sequence."""
        if isinstance(value, FctnRank):
            if value.n != n:
                raise ValueError(f"rank table is for n={value.n}, need n={n}")
            return value
        if np.isscalar(value):
            return cls.uniform(n, int(value))
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
        return tuple(
            dims[k] if j == k else self[min(j, k), max(j, k)] for j in range(self.n)
        )

    def bond_product(self, k: int) -> int:
        """Product of all bond sizes at factor k (row size of its mode unfolding)."""
        return math.prod(self[min(j, k), max(j, k)] for j in range(self.n) if j != k)

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


class FctnFactors:
    """Ordered list of network factors, each F-ordered float64."""

    def __init__(self, factors) -> None:
        arrays = [np.asfortranarray(np.asarray(a, dtype=np.float64)) for a in factors]
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
        self._arrays = arrays

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
        n = self.n
        tri = [
            self._arrays[i].shape[j] for i in range(n) for j in range(i + 1, n)
        ]
        return FctnRank(n, tri)

    def factor(self, k: int) -> np.ndarray:
        return self._arrays[k]

    def replace(self, k: int, arr: np.ndarray) -> None:
        arr = np.asfortranarray(np.asarray(arr, dtype=np.float64))
        if arr.shape != self._arrays[k].shape:
            raise ValueError(
                f"replacement for factor {k} has shape {arr.shape}, expected {self._arrays[k].shape}"
            )
        self._arrays[k] = arr

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


# ---------- labeled contraction helpers ---------- #


def factor_labels(k: int, n: int) -> list:
    """Mode labels of factor k in slot order."""
    return [("i", k) if j == k else ("r", min(j, k), max(j, k)) for j in range(n)]


def _bond(j: int, k: int) -> tuple:
    return ("r", min(j, k), max(j, k))


def matrix_labels(k: int, n: int) -> list:
    """Mode order of the partial network around k that makes its network
    matrix (:func:`property1_unfold`) a free view: the remaining physical
    modes, then the bonds to k, each by ascending factor."""
    rest = [j for j in range(n) if j != k]
    return [("i", j) for j in rest] + [_bond(j, k) for j in rest]


def _contract_labeled(a, la, b, lb, target=None, split=None):
    """Contract over every label shared by the two operands.  The result's
    modes follow ``target`` when given (written in that layout directly),
    else a's free labels then b's; ``split`` is passed to
    :func:`~fctnlr.tensor.contract`."""
    shared = [lab for lab in la if lab in lb]
    if not shared:
        raise ValueError("operands share no bond")
    am = [la.index(lab) for lab in shared]
    bm = [lb.index(lab) for lab in shared]
    lz = [lab for lab in la if lab not in shared] + [lab for lab in lb if lab not in shared]
    if target is None:
        return contract(a, b, am, bm), lz
    z = contract(a, b, am, bm, [lz.index(lab) for lab in target], split)
    return z, list(target)


def _to_label_order(arr, labels, target):
    if labels == list(target):
        return np.asfortranarray(arr)
    perm = [labels.index(lab) for lab in target]
    return transpose(arr, perm)


# ---------- composition ---------- #


def _factors(f: FctnFactors):
    """The operands of a chain over the factors of ``f`` (:func:`_run`):
    factor j with its labels."""
    n = f.n
    return lambda j: (f.factor(j), factor_labels(j, n))


def compose(f: FctnFactors, k: int | None = None, m: np.ndarray | None = None) -> np.ndarray:
    """Contract the whole network into the dense tensor (modes 0..n-1).

    Without ``m`` the factors are chained in ascending order
    (:func:`_plain_chain`), every intermediate laid out for the step that
    reads it and the last written straight into the natural layout.  Given
    ``m``, the network matrix of factor ``k`` (:func:`property1_unfold` of the
    partial network around k, built from the other factors as they are now),
    the chain is skipped: the tensor is the single product
    ``X_(k) = A_(k) m``, 2 * I^n * R^(n-1) FLOPs in the uniform case, also
    written straight into the natural layout.
    """
    n = f.n
    with FLOPS.scoped("compose"):
        if m is None:
            return _run(_factors(f), _plain_chain(f.rank, f.dims, tuple(range(n)))[3], {})[0]
        a_k = f.factor(k)
        rest = [j for j in range(n) if j != k]
        extents = [f.dims[j] for j in rest] + [a_k.shape[j] for j in rest]
        # m.T is the partial network with its physical modes leading; a view
        # when m is C-ordered, as property1_unfold leaves it
        mt = np.reshape(m.T, extents, order="F")
        return _contract_labeled(mt, matrix_labels(k, n), a_k, factor_labels(k, n),
                                 [("i", j) for j in range(n)])[0]


def compose_except(f: FctnFactors, k: int) -> np.ndarray:
    """Partial network around factor k in :func:`matrix_labels` order, so its
    network matrix is a view: the plain chain over the remaining factors in
    ascending order (:func:`_plain_chain`), no intermediate kept."""
    rest = tuple(j for j in range(f.n) if j != k)
    with FLOPS.scoped("mk"):
        return _run(_factors(f), _plain_chain(f.rank, f.dims, rest)[3], {})[0]


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


def gram_except(f: FctnFactors, k: int) -> np.ndarray:
    """Gram matrix ``M M^T`` of factor k's network matrix, s x s, rows and
    columns in M's row order (k's bonds by ascending partner, first index
    fastest), F-ordered.

    Built from the doubled network, not from M: each other factor j first
    meets its own copy over physical mode j in the small Gram ``U_j^T U_j``
    of its mode-j unfolding, a tensor over its bonds and their twins; then
    those n-1 Grams are chained in ascending order over every bond not at k
    (:func:`_plain_chain`), in their natural layouts, and the last step
    writes the s x s layout directly.
    """
    n = f.n

    def small(j):
        u = mode_unfold(f.factor(j), j)
        FLOPS.add(2 * u.shape[0] * u.shape[1] ** 2)
        extents = [f.factor(j).shape[p] for p in range(n) if p != j]
        # the product is symmetric, so its transpose is the F-ordered Gram
        return (u.T @ u).T.reshape(extents * 2, order="F"), _doubled_labels(j, n)

    rest = tuple(j for j in range(n) if j != k)
    with FLOPS.scoped("gram"):
        arr = _run(small, _plain_chain(f.rank, f.dims, rest, True)[3], {})[0]
    s = f.factor(k).size // f.dims[k]
    return arr.reshape((s, s), order="F")


# ---------- planned chains ---------- #


def _chain_labels(members, n: int) -> tuple:
    """Layout of a chain intermediate over the factors in ``members``: the
    physical modes by ascending factor, then, for each outside factor in
    ascending order, its bonds into the intermediate by ascending member.
    A later step that takes the intermediate as an operand then finds the
    physical modes in the network matrix's order and the bonds to any one
    outside factor in one contiguous group, so the (large) operand needs no
    copy."""
    inside = sorted(members)
    out = [("i", j) for j in inside]
    for p in range(n):
        if p not in inside:
            out += [_bond(j, p) for j in inside]
    return tuple(out)


def _run(operand, chain, store: dict):
    """Run a planned chain ``(start, steps, target)`` and return its
    ``(array, labels)``; ``operand(j)`` is the j-th operand with its labels.
    The chain starts from ``operand(start)``, or from the tensor kept in
    ``store`` under the key ``start`` (a tuple), which it takes out.  Each
    step ``(j, layout, split, flops, key)`` contracts ``operand(j)`` in, its
    result written in ``layout`` (None: the free modes in operand order) and
    kept in ``store`` under ``key`` unless that is None.  The result is laid
    out in ``target`` unless that is None."""
    start, steps, target = chain
    arr, labels = store.pop(start) if isinstance(start, tuple) else operand(start)
    for j, layout, split, _, key in steps:
        arr, labels = _contract_labeled(arr, labels, *operand(j), layout, split)
        if key is not None:
            store[key] = arr, labels
    if target is not None:
        arr, labels = _to_label_order(arr, labels, target), list(target)
    return arr, labels


def _compose_except_cached_labeled(f: FctnFactors, k: int, chains, kept: dict) -> np.ndarray:
    """Partial network around k in :func:`matrix_labels` order, so its network
    matrix is a view, from the planned ``chains`` (a position's
    :attr:`~fctnlr.environment.Position.chains`): one chain that lays out the
    whole partial network, or a prefix and a suffix chain joined.  The build
    of M in both variants; matches :func:`compose_except` to within
    reassociation roundoff (1e-12 relative).

    ``kept`` belongs to one sweep, which builds every factor once in its
    visiting order and replaces factor k only after its own build.  So a
    prefix chain holds only factors already replaced and a suffix chain only
    factors not yet replaced, and neither changes before it is used.  Each
    entry is kept by the position :func:`cached_build_plan` names and taken
    out by the one later position that starts from it, so ``kept`` is empty
    when the sweep ends; a chain whose start is not in ``kept`` raises
    KeyError.  Start each sweep from an empty dict.  The benchmark's tracer
    hooks this name, so it is renamed only with the next benchmark change."""
    with FLOPS.scoped("mk"):
        (arr, labels), *right = [_run(_factors(f), chain, kept) for chain in chains]
        if right:
            arr = _contract_labeled(arr, labels, *right[0], matrix_labels(k, f.n))[0]
        return arr


# ---------- the chains, sized without running them ---------- #


def _mode_sizes(rank: FctnRank, dims) -> dict:
    """Extent of every mode label of the network."""
    n = rank.n
    sizes = {("i", j): int(dims[j]) for j in range(n)}
    sizes.update({_bond(a, b): rank[a, b] for a in range(n) for b in range(a + 1, n)})
    return sizes


def _held(members, n: int) -> set:
    """Modes of a chain over the factors ``members``: their physical modes
    and their bonds to every other factor."""
    return {("i", j) for j in members} | {
        _bond(j, p) for j in members for p in range(n) if p not in members
    }


def _join_flops(sizes: dict, n: int, a, b) -> int:
    """FLOPs of contracting a chain over the factors ``a`` with one over the
    factors ``b``: twice the product of the extents of every mode either
    holds."""
    return 2 * math.prod(sizes[lab] for lab in _held(a, n) | _held(b, n))


def _chain_plan(sizes: dict, n: int, seq, kept: set | None, target=None,
                laid_out: bool = True) -> tuple:
    """FLOPs, contraction calls, largest tensor taken in or made (entries)
    and the chain ``(start, steps, target)`` that :func:`_run` runs: the
    factors in ``seq`` contracted left to right, from the longest prefix
    whose key (its sorted factor tuple) is in ``kept``, which it takes out of
    ``kept``, else from ``seq[0]``.  Every intermediate is written in
    :func:`_chain_labels` layout (or, unless ``laid_out``, in the free modes'
    order), the last in ``target`` when given; a suffix chain is the prefix
    chain of the reversed sequence (same keys and layouts).

    With a ``kept`` set, every multi-factor intermediate is kept (its key
    added to ``kept`` and named by its step) except those spanning all but
    one factor, which no later position of the sweep asks for; with
    ``kept=None`` nothing is, so each intermediate is freed once the next
    step has read it."""
    prefixes = [seq[: i + 2] for i in range(len(seq) - 1)]
    start, base = seq[0], 0
    for idx in range(len(prefixes) - 1, -1, -1) if kept else ():
        key = tuple(sorted(prefixes[idx]))
        if key in kept:
            kept.remove(key)
            start, base = key, idx + 1
            break

    def size(members):
        return math.prod(sizes[lab] for lab in _held(members, n))

    flops, peak, steps = 0, size(seq[: base + 1]), []
    for prefix in prefixes[base:]:
        count = _join_flops(sizes, n, prefix[:-1], prefix[-1:])
        flops += count
        peak = max(peak, size(prefix[-1:]), size(prefix))
        key = tuple(sorted(prefix)) if kept is not None and len(prefix) < n - 1 else None
        if key is not None:
            kept.add(key)
        layout = _chain_labels(prefix, n) if laid_out else None
        if target is not None and prefix == seq:
            layout = target
        steps.append((prefix[-1], layout, None, count, key))
    return flops, len(steps), peak, (start, tuple(steps), target)


# holds, per network, the whole chain, each factor's plain and doubled chain,
# and the last plain chain of the environment route in every visiting order
# at n <= 6 (720)
@functools.lru_cache(maxsize=1024)
def _plain_chain(rank: FctnRank, dims: tuple, seq: tuple, doubled: bool = False) -> tuple:
    """:func:`_chain_plan` of the chain over ``seq`` that keeps nothing,
    cached on its arguments: the dense tensor in natural order when ``seq``
    holds every factor, else the partial network around the factor k left
    out, in :func:`matrix_labels` order, or, if ``doubled``, the Gram chain
    of :func:`gram_except`, which is the plain chain over ``seq`` of the
    network with squared bonds and unit extents, run in natural layouts and
    written in the Gram's (bond, twin) order."""
    n = rank.n
    if len(seq) == n:
        return _chain_plan(_mode_sizes(rank, dims), n, seq, None, tuple(("i", j) for j in range(n)))
    k = next(j for j in range(n) if j not in seq)
    if not doubled:
        return _chain_plan(_mode_sizes(rank, dims), n, seq, None, tuple(matrix_labels(k, n)))
    bonds = [_bond(j, k) for j in seq]
    squared = _mode_sizes(FctnRank(n, [e * e for e in rank.entries]), (1,) * n)
    return _chain_plan(squared, n, seq, None, tuple(bonds + [_twin(b) for b in bonds]), False)


def cached_build_plan(rank: FctnRank, dims, order) -> tuple:
    """``(FLOPs, contraction calls, chains)`` of
    :func:`_compose_except_cached_labeled` at each position of one sweep in
    ``order`` that starts from an empty ``kept``: the prefix chain over the
    factors before it and the suffix chain over those after it, each from
    the longest one kept, joined when both hold a factor; sized, not run.
    The prefix over ``order[:p]`` (kept at position p-1) is taken by position
    p, the suffix over ``order[j:]`` (kept at position 0) by position j-1."""
    n, sizes, kept, out = rank.n, _mode_sizes(rank, dims), set(), []
    order = tuple(order)
    for pos, k in enumerate(order):
        sides = [seq for seq in (order[:pos], order[pos + 1 :][::-1]) if seq]
        # with k at either end of the order, one chain holds the whole
        # partial network and lays out its own last step
        target = tuple(matrix_labels(k, n)) if len(sides) == 1 else None
        plans = [_chain_plan(sizes, n, seq, kept, target) for seq in sides]
        flops, calls = sum(p[0] for p in plans), sum(p[1] for p in plans)
        if len(sides) == 2:
            flops, calls = flops + _join_flops(sizes, n, *sides), calls + 1
        out.append((flops, calls, tuple(p[3] for p in plans)))
    return tuple(out)


def shuffle_order(prev, rng: np.random.Generator) -> tuple:
    """Fresh uniformly random visiting order (prev only fixes the length)."""
    return tuple(int(v) for v in rng.permutation(len(prev)))
