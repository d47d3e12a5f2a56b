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
runs the same chain over every factor.  On the accelerated variant's
environment route no network matrix is built before the last position of a
sweep, only its data product ``X_(k) M^T``, from kept X-environments
(:mod:`fctnlr.environment`, which also prices that route against the
prefix/suffix build for the whole sweep), and each Gram matrix ``M M^T``
there comes from the doubled network (:func:`gram_except`).  Elsewhere the
Gram comes from the doubled network wherever :func:`doubled_gram_pays` finds
that cheaper than the dense product of M with itself.  The builds are sized
without running them by :func:`chain_plan` and :func:`cached_build_plan`
(any extents and ranks), and by the closed forms at the end of this module
(equal extents and ranks).

Modes inside a labeled intermediate are tracked by label, not position:
``('i', k)`` is the physical mode of factor ``k`` and ``('r', a, b)`` with
``a < b`` is the bond between factors ``a`` and ``b``.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .tensor import FLOPS, contract, gunfold, mode_unfold, transpose

__all__ = [
    "FctnFactors",
    "FctnRank",
    "compose",
    "compose_except",
    "doubled_gram_pays",
    "factor_labels",
    "gram_except",
    "matrix_labels",
    "property1_unfold",
    "shuffle_order",
]


# ---------- rank table ---------- #


class FctnRank:
    """Symmetric bond-size table.

    Stores the strict upper triangle row-major: ``(R[0,1], R[0,2], ...,
    R[0,n-1], R[1,2], ..., R[n-2,n-1])``, ``n*(n-1)/2`` entries, every entry a
    positive int.  Indexing is symmetric: ``rank[i, j] == rank[j, i]``.
    """

    __slots__ = ("n", "_tri")

    def __init__(self, n: int, entries) -> None:
        n = int(n)
        if n < 2:
            raise ValueError("a network needs at least two factors")
        tri = tuple(int(e) for e in entries)
        need = n * (n - 1) // 2
        if len(tri) != need:
            raise ValueError(f"expected {need} rank entries for n={n}, got {len(tri)}")
        if any(e < 1 for e in tri):
            raise ValueError("rank entries must be >= 1")
        self.n = n
        self._tri = tri

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
        return self._tri[self._idx(int(i), int(j))]

    @property
    def entries(self) -> tuple:
        return self._tri

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
            self.n, [min(e + 1, c) for e, c in zip(self._tri, cap._tri)]
        )

    def any_below(self, cap: "FctnRank") -> bool:
        if cap.n != self.n:
            raise ValueError("cap table size mismatch")
        return any(e < c for e, c in zip(self._tri, cap._tri))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FctnRank) and other.n == self.n and other._tri == self._tri
        )

    def __hash__(self):
        return hash((self.n, self._tri))

    def __repr__(self) -> str:
        return f"FctnRank(n={self.n}, entries={self._tri})"


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

    def __getitem__(self, k: int) -> np.ndarray:
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
    and the last step writes the s x s layout directly.  Costs
    :func:`gram_except_plan` (:func:`gram_except_flops` in the uniform case)
    instead of the ``2 * s^2 * I^(n-1)`` of the product ``M M^T``.
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


def gram_except_plan(rank: FctnRank, dims, k: int) -> tuple[int, int]:
    """FLOPs and largest intermediate (entries) of :func:`gram_except` for
    this rank table and these extents: the same chain, sized, not run."""
    n = rank.n

    def size(labels):
        return math.prod(rank[lab[1], lab[2]] for lab in labels)

    flops = peak = 0
    labels = None
    for j in range(n):
        if j == k:
            continue
        lg = _doubled_labels(j, n)
        flops += 2 * dims[j] * size(lg)
        peak = max(peak, size(lg))
        if labels is None:
            labels = lg
            continue
        union = labels + [lab for lab in lg if lab not in labels]
        flops += 2 * size(union)
        labels = [lab for lab in union if (lab in labels) != (lab in lg)]
        peak = max(peak, size(labels))
    return flops, peak


# Weights of the doubled-network Gram against the dense product M M^T, timed
# per factor with FCTN_THREADS=1 on a 2-core x86 host over 25 shapes (n 3-6,
# extents 4-128, ranks 1-5): its chain runs at about a third of the GEMM's
# FLOP rate (small operands, layout copies), and each of its n-2 contraction
# calls costs about 140 us of Python, some 4e6 FLOPs of GEMM time.  The
# sweep-level price of afctnlr's two routes
# (:func:`fctnlr.environment.sweep_plan`) charges the same per call.
_DOUBLED_WEIGHT = 3
_CALL_FLOPS = 4_000_000


@functools.lru_cache(maxsize=256)
def gram_price(rank: FctnRank, dims: tuple, k: int, doubled: bool) -> tuple[int, int]:
    """FLOPs and price of factor k's Gram matrix: from the doubled network,
    its chain's FLOPs at ``_DOUBLED_WEIGHT`` plus ``_CALL_FLOPS`` for each of
    its n-2 contraction calls, else the dense product ``M M^T`` of its
    network matrix (s x p), ``2 * s^2 * p`` FLOPs at their face value."""
    if doubled:
        flops = gram_except_plan(rank, dims, k)[0]
        return flops, _DOUBLED_WEIGHT * flops + (rank.n - 2) * _CALL_FLOPS
    s = rank.bond_product(k)
    flops = 2 * s * s * (math.prod(dims) // dims[k])
    return flops, flops


@functools.lru_cache(maxsize=256)
def doubled_gram_pays(rank: FctnRank, dims: tuple, k: int) -> bool:
    """Whether factor k's Gram matrix is cheaper from the doubled network
    (:func:`gram_except`) than as the dense product ``M M^T`` of its network
    matrix (s x p), by :func:`gram_price`, with the doubled chain's largest
    intermediate no larger than M.

    The doubled chain's middle intermediates grow as R^(2 t (n-t)), so it
    loses once R^2 is large against the extents (4^5 at R=3, 6^6 at R=2) and
    on small tensors, where the Python cost of its contractions dominates."""
    s = rank.bond_product(k)
    p = math.prod(dims) // dims[k]
    cheaper = gram_price(rank, dims, k, True)[1] < gram_price(rank, dims, k, False)[1]
    return cheaper and gram_except_plan(rank, dims, k)[1] <= s * p


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


def _chain_plan(sizes: dict, n: int, seq, kept: set | None) -> tuple[int, int]:
    """FLOPs and contraction calls of :func:`_chain_partial` over ``seq``,
    sized, not run; ``kept`` holds the keys of the chains it would hold and is
    updated the same way."""
    prefixes = [seq[: i + 2] for i in range(len(seq) - 1)]
    base = 0
    for idx in range(len(prefixes) - 1, -1, -1) if kept else ():
        key = tuple(sorted(prefixes[idx]))
        if key in kept:
            kept.remove(key)
            base = idx + 1
            break
    flops = 0
    for prefix in prefixes[base:]:
        flops += _join_flops(sizes, n, prefix[:-1], prefix[-1:])
        if kept is not None and len(prefix) < n - 1:
            kept.add(tuple(sorted(prefix)))
    return flops, len(prefixes) - base


def chain_plan(rank: FctnRank, dims, seq) -> tuple[int, int]:
    """FLOPs and contraction calls of the plain chain over ``seq``, which
    keeps nothing (:func:`compose_except`, :func:`compose`)."""
    return _chain_plan(_mode_sizes(rank, dims), rank.n, tuple(seq), None)


def cached_build_plan(rank: FctnRank, dims, order) -> tuple:
    """``(FLOPs, contraction calls)`` of :func:`_compose_except_cached_labeled`
    at each position of one sweep in ``order`` that starts from an empty
    ``kept``: the same prefix and suffix chains and cross joins, sized, not
    run."""
    n, sizes, kept, out = rank.n, _mode_sizes(rank, dims), set(), []
    order = tuple(order)
    for pos in range(n):
        left, right = order[:pos], order[pos + 1 :][::-1]
        fl, cl = _chain_plan(sizes, n, left, kept)
        fr, cr = _chain_plan(sizes, n, right, kept)
        if left and right:
            fl, cl = fl + _join_flops(sizes, n, left, right), cl + 1
        out.append((fl + fr, cl + cr))
    return tuple(out)


def shuffle_order(prev, rng: np.random.Generator) -> tuple:
    """Fresh uniformly random visiting order (prev only fixes the length)."""
    return tuple(int(v) for v in rng.permutation(len(prev)))


# ---------- contraction cost model (uniform extents and ranks) ---------- #


def _merge_flops(n: int, i: int, r: int, t: int) -> int:
    """The t-th step of a chain: t merged factors (or X contracted with all
    but t + 1 of them) meet one more factor."""
    return 2 * i ** (t + 1) * r ** (t * (n - t) + n - 1 - t)


def compose_flops(n: int, i: int, r: int) -> int:
    """Chain composition of the full network: sum of the n-1 merge steps."""
    return sum(_merge_flops(n, i, r, t) for t in range(1, n))


def compose_from_partial_flops(n: int, i: int, r: int) -> int:
    return 2 * i**n * r ** (n - 1)


def partial_chain_flops(n: int, i: int, r: int) -> int:
    """One plain partial network around a factor (n-2 merge steps)."""
    return sum(_merge_flops(n, i, r, t) for t in range(1, n - 1))


def env_proj_flops(n: int, i: int, r: int) -> int:
    """Per-sweep data products of the environment route
    (:func:`fctnlr.environment.env_data_product`, then ``X_(k) M^T`` at the
    last position).  Position 0 runs a chain over X and n-1 factors, which
    costs what composing the network does; position p (0 < p < n-1) the
    first p steps of a chain; the last position one data product.  So merge
    step t (:func:`_merge_flops`) runs n - t times for t < n-1, and step n-1
    (the size of a data product) twice."""
    steps = sum((n - t) * _merge_flops(n, i, r, t) for t in range(1, n - 1))
    return steps + 2 * _merge_flops(n, i, r, n - 1)


def partial_sweep_flops(n: int, i: int, r: int) -> int:
    """All n partial networks, no reuse."""
    return n * partial_chain_flops(n, i, r)


def partial_sweep_flops_cached(n: int, i: int, r: int) -> int:
    """All n partial networks of one sweep with prefix/suffix reuse: one full
    prefix chain, one full suffix chain, and n-2 cross joins.  Reuse stays
    within the sweep, so this is the count of every sweep."""
    cross = sum(
        2 * i ** (n - 1) * r ** (n - 1 + p * (n - 1 - p)) for p in range(1, n - 1)
    )
    return 2 * partial_chain_flops(n, i, r) + cross


def gram_except_flops(n: int, i: int, r: int) -> int:
    """One factor's Gram matrix from the doubled network (:func:`gram_except`):
    n-1 per-factor Grams over the physical modes, 2 * I * R^(2(n-1)) each,
    then their ascending chain.  The doubled network is itself a network of
    physical extent 1 and bond size R^2, so the chain costs what one partial
    network of that network does."""
    return (n - 1) * 2 * i * r ** (2 * (n - 1)) + partial_chain_flops(n, 1, r * r)


def sweep_flops(n: int, i: int, r: int, algorithm: str) -> dict:
    """Per-sweep FLOPs of one solver sweep by label (``mk``, ``compose``,
    ``proj``, ``gram``) at extent i and rank r, by the routes the solver
    takes: :func:`fctnlr.environment.sweep_plan` over the ascending order
    (with equal extents and ranks every order costs the same).  The closed
    forms above are its identities: ``fctnlr`` counts
    :func:`partial_sweep_flops` and :func:`compose_flops`; ``afctnlr``
    composes from the last M (:func:`compose_from_partial_flops`) and counts
    :func:`partial_sweep_flops_cached` off the environment route,
    :func:`partial_chain_flops` and :func:`env_proj_flops` on it."""
    from .environment import sweep_plan  # imported here: environment imports this module

    return sweep_plan(FctnRank.uniform(n, r), (i,) * n, range(n), algorithm)[0]
