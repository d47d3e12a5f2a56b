"""Fully-connected tensor network of order-N factors.

Factor ``k`` is an order-N array whose mode ``k`` is the physical mode (extent
``I_k``) and whose mode ``j != k`` is the bond shared with factor ``j`` (extent
``R[j,k]``).  Composing all factors (contracting every bond) yields the dense
order-N tensor.  The partial network around ``k`` (everything contracted except
factor ``k``) is the workhorse of the alternating solver.  Both variants
build it through one labeled chain (:func:`_chain_partial`) that writes it in
:func:`matrix_labels` order, so its network matrix is a view.  The baseline
runs the plain ascending chain over the other factors
(:func:`compose_except`); the accelerated build joins a prefix chain over the
factors already updated in the sweep with a suffix chain over those not yet
updated, reusing both chains' intermediates within the sweep.  Composition
runs the same chain over every factor.  The Gram matrix ``M M^T`` of a
network matrix can also come from the doubled network (:func:`gram_except`)
without forming M.  Which build, data product and Gram each position of a
sweep takes is planned in :mod:`fctnlr.environment`; the builds are sized
without running them by :func:`_chain_plan` and :func:`cached_build_plan`.

Modes inside a labeled intermediate are tracked by label, not position:
``('i', k)`` is the physical mode of factor ``k`` and ``('r', a, b)`` with
``a < b`` is the bond between factors ``a`` and ``b``.
"""
from __future__ import annotations

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


def compose(f: FctnFactors, k: int | None = None, m: np.ndarray | None = None) -> np.ndarray:
    """Contract the whole network into the dense tensor (modes 0..n-1).

    Without ``m`` the factors are chained in ascending order
    (:func:`_chain_partial`), every intermediate laid out for the step that
    reads it and the last written straight into the natural layout.  Given
    ``m``, the network matrix of factor ``k`` (:func:`property1_unfold` of the
    partial network around k, built from the other factors as they are now),
    the chain is skipped: the tensor is the single product
    ``X_(k) = A_(k) m``, 2 * I^n * R^(n-1) FLOPs in the uniform case, also
    written straight into the natural layout.
    """
    n = f.n
    target = [("i", j) for j in range(n)]
    with FLOPS.scoped("compose"):
        if m is None:
            return _chain_partial(f, tuple(range(n)), None, target)[0]
        a_k = f.factor(k)
        rest = [j for j in range(n) if j != k]
        extents = [f.dims[j] for j in rest] + [a_k.shape[j] for j in rest]
        # m.T is the partial network with its physical modes leading; a view
        # when m is C-ordered, as property1_unfold leaves it
        mt = np.reshape(m.T, extents, order="F")
        return _contract_labeled(mt, matrix_labels(k, n), a_k, factor_labels(k, n), target)[0]


def compose_except(f: FctnFactors, k: int) -> np.ndarray:
    """Partial network around factor k in :func:`matrix_labels` order, so its
    network matrix is a view: the plain chain over the remaining factors in
    ascending order (:func:`_chain_partial`), no intermediate kept."""
    rest = tuple(j for j in range(f.n) if j != k)
    with FLOPS.scoped("mk"):
        return _chain_partial(f, rest, None, matrix_labels(k, f.n))[0]


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
    those n-1 Grams are chained in ascending order over every bond not at k,
    and the last step writes the s x s layout directly.  That chain is the
    plain chain over the other factors of a network with squared bonds and
    unit extents, so :func:`_chain_plan` sizes it.
    """
    n = f.n
    rest = [j for j in range(n) if j != k]
    target = [_bond(j, k) for j in rest]
    target += [_twin(lab) for lab in target]
    with FLOPS.scoped("gram"):
        arr = labels = None
        for j in rest:
            u = mode_unfold(f.factor(j), j)
            FLOPS.add(2 * u.shape[0] * u.shape[1] ** 2)
            extents = [f.factor(j).shape[p] for p in range(n) if p != j]
            # the product is symmetric, so its transpose is the F-ordered Gram
            g = (u.T @ u).T.reshape(extents * 2, order="F")
            lg = _doubled_labels(j, n)
            if arr is None:
                arr, labels = g, lg
            else:
                out = target if j == rest[-1] else None
                arr, labels = _contract_labeled(arr, labels, g, lg, out)
    s = f.factor(k).size // f.dims[k]
    # (with one other factor, its Gram already has the target modes)
    return _to_label_order(arr, labels, target).reshape((s, s), order="F")


# ---------- the accelerated partial build ---------- #


def _chain_labels(members, n: int) -> list:
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
    return out


def _chain_partial(f: FctnFactors, seq, kept: dict | None, target):
    """Contract the factors listed in ``seq`` left to right into one labeled
    tensor, its modes in ``target`` order when given, starting from the
    longest prefix held in ``kept`` (keyed by its sorted factor tuple), which
    it takes out of ``kept``.  Every intermediate is written in
    :func:`_chain_labels` layout; a suffix chain is the prefix chain of the
    reversed sequence (same keys and layouts).

    Multi-factor intermediates are kept except those spanning all but one
    factor, which no later position of the sweep asks for.  Every kept one is
    asked for exactly once (see :func:`_compose_except_cached_labeled`), so
    taking it out when it is used leaves ``kept`` holding only what is still
    to be used.  With ``kept=None`` the chain starts from ``seq[0]`` and keeps
    nothing, so each intermediate is freed once the next step has read it.
    :func:`_chain_plan` sizes the same steps.
    """
    n = f.n
    if not seq:
        return None, None
    # growing prefixes, smallest (2 factors) first
    prefixes = [seq[: i + 2] for i in range(len(seq) - 1)]
    arr, labels = f.factor(seq[0]), factor_labels(seq[0], n)
    base = 0
    for idx in range(len(prefixes) - 1, -1, -1) if kept else ():
        got = kept.pop(tuple(sorted(prefixes[idx])), None)
        if got is not None:
            arr, labels = got
            base = idx + 1
            break
    for prefix in prefixes[base:]:
        nxt = prefix[-1]
        out = target if target is not None and prefix == seq else _chain_labels(prefix, n)
        arr, labels = _contract_labeled(arr, labels, f.factor(nxt), factor_labels(nxt, n), out)
        if kept is not None and len(prefix) < n - 1:
            kept[tuple(sorted(prefix))] = arr, labels
    if target is not None:  # a lone factor has had no contraction to lay it out
        arr, labels = _to_label_order(arr, labels, target), list(target)
    return arr, labels


def _compose_except_cached_labeled(f: FctnFactors, k: int, order, kept: dict | None) -> np.ndarray:
    """Partial network around k in :func:`matrix_labels` order, so its network
    matrix is a view: factors before k in the visiting ``order`` form a prefix
    chain, those after it a suffix chain, both reusing the intermediates in
    ``kept``.  Matches :func:`compose_except` to within reassociation
    roundoff (1e-12 relative).

    ``kept`` belongs to one sweep, which builds every factor once in
    ``order`` and replaces factor k only after its own build.  So a prefix
    chain holds only factors already replaced and a suffix chain only factors
    not yet replaced, and neither changes before it is used.  Each entry is
    used exactly once and taken out of ``kept`` then: the prefix over
    ``order[:p]`` (built at position p) by position p+1, the suffix over
    ``order[j:]`` (built at position 0) by position j-1.  So after position
    p, ``kept`` holds the prefix over ``order[:p]`` and the suffixes over
    ``order[j:]`` for j >= p+2, each only if it spans 2 to n-2 factors, and it
    is empty when the sweep ends.  Start each sweep from an empty dict.  The
    benchmark's tracer hooks this name, so it is renamed only with the next
    benchmark change."""
    n = f.n
    order = tuple(int(v) for v in order)
    if sorted(order) != list(range(n)):
        raise ValueError(f"order {order} is not a permutation of range({n})")
    pos = order.index(k)
    target = matrix_labels(k, n)
    with FLOPS.scoped("mk"):
        # with k at either end of the order, one chain holds the whole
        # partial network and lays out its own last step
        out = target if pos in (0, n - 1) else None
        left, llab = _chain_partial(f, order[:pos], kept, out)
        right, rlab = _chain_partial(f, order[pos + 1 :][::-1], kept, out)
        if left is None:
            return right
        if right is None:
            return left
        return _contract_labeled(left, llab, right, rlab, target)[0]


# ---------- the builds, sized without running them ---------- #


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


def _chain_plan(sizes: dict, n: int, seq, kept: set | None) -> tuple[int, int, int]:
    """FLOPs, contraction calls and largest tensor taken in or made (entries)
    of :func:`_chain_partial` over ``seq``, sized, not run; ``kept`` holds the
    keys of the chains it would hold and is updated the same way."""
    prefixes = [seq[: i + 2] for i in range(len(seq) - 1)]
    base = 0
    for idx in range(len(prefixes) - 1, -1, -1) if kept else ():
        key = tuple(sorted(prefixes[idx]))
        if key in kept:
            kept.remove(key)
            base = idx + 1
            break

    def size(members):
        return math.prod(sizes[lab] for lab in _held(members, n))

    flops, peak = 0, size(seq[: base + 1])
    for prefix in prefixes[base:]:
        flops += _join_flops(sizes, n, prefix[:-1], prefix[-1:])
        peak = max(peak, size(prefix[-1:]), size(prefix))
        if kept is not None and len(prefix) < n - 1:
            kept.add(tuple(sorted(prefix)))
    return flops, len(prefixes) - base, peak


def cached_build_plan(rank: FctnRank, dims, order) -> tuple:
    """``(FLOPs, contraction calls)`` of :func:`_compose_except_cached_labeled`
    at each position of one sweep in ``order`` that starts from an empty
    ``kept``: the same prefix and suffix chains and cross joins, sized, not
    run."""
    n, sizes, kept, out = rank.n, _mode_sizes(rank, dims), set(), []
    order = tuple(order)
    for pos in range(n):
        left, right = order[:pos], order[pos + 1 :][::-1]
        fl, cl, _ = _chain_plan(sizes, n, left, kept)
        fr, cr, _ = _chain_plan(sizes, n, right, kept)
        if left and right:
            fl, cl = fl + _join_flops(sizes, n, left, right), cl + 1
        out.append((fl + fr, cl + cr))
    return tuple(out)


def shuffle_order(prev, rng: np.random.Generator) -> tuple:
    """Fresh uniformly random visiting order (prev only fixes the length)."""
    return tuple(int(v) for v in rng.permutation(len(prev)))
