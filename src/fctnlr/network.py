"""Fully-connected tensor network of order-N factors.

Factor ``k`` is an order-N array whose mode ``k`` is the physical mode (extent
``I_k``) and whose mode ``j != k`` is the bond shared with factor ``j`` (extent
``R[j,k]``).  Composing all factors (contracting every bond) yields the dense
order-N tensor.  The partial network around ``k`` (everything contracted except
factor ``k``) is the workhorse of the alternating solver.  The baseline builds
it by a plain chain in canonical order (:func:`compose_except`); the
accelerated build reuses prefix/suffix chains through a :class:`ReuseCache`
and writes it in :func:`matrix_labels` order, so its network matrix is a view.

Modes inside a labeled intermediate are tracked by label, not position:
``('i', k)`` is the physical mode of factor ``k`` and ``('r', a, b)`` with
``a < b`` is the bond between factors ``a`` and ``b``.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import FLOPS, contract, gunfold, transpose

__all__ = [
    "FctnFactors",
    "FctnRank",
    "ReuseCache",
    "compose",
    "compose_except",
    "factor_labels",
    "matrix_labels",
    "partial_labels",
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

    def to_vector(self) -> list[int]:
        return list(self._tri)

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
    """Ordered list of network factors with per-factor version stamps.

    Versions start at zero and bump on :meth:`replace`; the reuse cache keys
    its entries on them, so stale cached contractions are never served.
    """

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
        self.versions = [0] * n

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
        self.versions[k] += 1

    def copy(self) -> "FctnFactors":
        dup = FctnFactors([a.copy(order="F") for a in self._arrays])
        dup.versions = list(self.versions)
        return dup

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
        out = FctnFactors(grown)
        out.versions = [v + 1 for v in self.versions]
        return out


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


def partial_labels(k: int, n: int) -> list:
    """Canonical mode order of the partial network around k: for each remaining
    factor j ascending, the pair (physical, bond-to-k) when j < k and
    (bond-to-k, physical) when j > k."""
    out = []
    for j in range(n):
        if j == k:
            continue
        if j < k:
            out += [("i", j), ("r", j, k)]
        else:
            out += [("r", k, j), ("i", j)]
    return out


def _contract_labeled(a, la, b, lb, target=None):
    """Contract over every label shared by the two operands.  The result's
    modes follow ``target`` when given (written in that layout directly),
    else a's free labels then b's."""
    shared = [lab for lab in la if lab in lb]
    if not shared:
        raise ValueError("operands share no bond")
    am = [la.index(lab) for lab in shared]
    bm = [lb.index(lab) for lab in shared]
    lz = [lab for lab in la if lab not in shared] + [lab for lab in lb if lab not in shared]
    if target is None:
        return contract(a, b, am, bm), lz
    z = contract(a, b, am, bm, [lz.index(lab) for lab in target])
    return z, list(target)


def _to_label_order(arr, labels, target):
    if labels == list(target):
        return np.asfortranarray(arr)
    perm = [labels.index(lab) for lab in target]
    return transpose(arr, perm)


# ---------- composition ---------- #


def compose(f: FctnFactors, k: int | None = None, m: np.ndarray | None = None) -> np.ndarray:
    """Contract the whole network into the dense tensor (modes 0..n-1).

    Given ``m``, the network matrix of factor ``k`` (:func:`property1_unfold`
    of the partial network around k, built from the other factors as they
    are now), the chain is skipped: the tensor is the single product
    ``X_(k) = A_(k) m``, 2 * I^n * R^(n-1) FLOPs in the uniform case,
    written straight into the natural layout.
    """
    n = f.n
    target = [("i", j) for j in range(n)]
    with FLOPS.scoped("compose"):
        if m is not None:
            a_k = f.factor(k)
            rest = [j for j in range(n) if j != k]
            extents = [f.dims[j] for j in rest] + [a_k.shape[j] for j in rest]
            # m.T is the partial network with its physical modes leading; a
            # view when m is C-ordered, as property1_unfold leaves it
            mt = np.reshape(m.T, extents, order="F")
            return _contract_labeled(mt, matrix_labels(k, n), a_k, factor_labels(k, n), target)[0]
        arr, labels = f.factor(0), factor_labels(0, n)
        for j in range(1, n):
            arr, labels = _contract_labeled(arr, labels, f.factor(j), factor_labels(j, n))
        return _to_label_order(arr, labels, target)


def compose_except(f: FctnFactors, k: int) -> np.ndarray:
    """Partial network around factor k, modes in canonical pair order.

    Plain left-to-right chain over the remaining factors in ascending index
    order; no intermediate is kept.
    """
    n = f.n
    rest = [j for j in range(n) if j != k]
    with FLOPS.scoped("mk"):
        arr, labels = f.factor(rest[0]), factor_labels(rest[0], n)
        for j in rest[1:]:
            arr, labels = _contract_labeled(arr, labels, f.factor(j), factor_labels(j, n))
        return _to_label_order(arr, labels, partial_labels(k, n))


def property1_unfold(partial: np.ndarray, k: int, n: int, labels=None) -> np.ndarray:
    """Matricize the partial network around k into its network matrix M: rows
    run over factor k's bond modes (ascending partner) and columns over the
    remaining physical modes (ascending factor), both first-index-fastest.

    With ``X_(k)`` the mode-k unfolding of the composed tensor and ``A_(k)``
    that of factor k, the network identity reads ``X_(k) = A_(k) @ M``.
    ``labels`` names the partial's modes when they are not in the canonical
    :func:`partial_labels` order; the reordering is folded into the one
    unfolding pass, which leaves M F-ordered.  A partial stored F-contiguously
    in :func:`matrix_labels` order needs no pass at all: M is then a C-ordered
    view of it.
    """
    labels = partial_labels(k, n) if labels is None else list(labels)
    if partial.ndim != 2 * (n - 1) or len(labels) != partial.ndim:
        raise ValueError(
            f"partial network has order {partial.ndim}, expected {2 * (n - 1)}"
        )
    rest = [j for j in range(n) if j != k]
    rows = [labels.index(_bond(j, k)) for j in rest]
    cols = [labels.index(("i", j)) for j in rest]
    if cols + rows == list(range(partial.ndim)) and partial.flags.f_contiguous:
        return gunfold(partial, cols + rows, n - 1).T
    return gunfold(partial, rows + cols, n - 1)


# ---------- reuse cache and the accelerated partial build ---------- #


class ReuseCache:
    """Byte-budgeted store of labeled partial contractions.

    Keyed by the sorted factor subset; an entry is served only when every
    stamped factor version still matches, so updates to any member invalidate
    it (stale entries are evicted lazily on lookup).  When storing would
    exceed the budget the entry is simply not kept: the solver silently falls
    back to recomputation, never to a wrong value.
    """

    def __init__(self, budget_bytes: int = 1 << 30) -> None:
        self.budget_bytes = int(budget_bytes)
        self.hits = 0
        self.misses = 0
        self._store: dict[tuple, tuple] = {}
        self._bytes = 0

    @property
    def nbytes(self) -> int:
        return self._bytes

    def lookup(self, subset: tuple, versions: tuple):
        entry = self._store.get(subset)
        if entry is not None and entry[0] == versions:
            self.hits += 1
            return entry[1], entry[2]
        if entry is not None:
            self._bytes -= entry[1].nbytes
            del self._store[subset]
        self.misses += 1
        return None

    def store(self, subset: tuple, versions: tuple, arr: np.ndarray, labels: list) -> None:
        old = self._store.get(subset)
        if old is not None:
            self._bytes -= old[1].nbytes
            del self._store[subset]
        if self._bytes + arr.nbytes > self.budget_bytes:
            return
        self._store[subset] = (versions, arr, labels)
        self._bytes += arr.nbytes


def _subset_key(f: FctnFactors, members) -> tuple[tuple, tuple]:
    subset = tuple(sorted(int(m) for m in members))
    stamps = tuple(f.versions[m] for m in subset)
    return subset, stamps


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


def _chain_partial(f: FctnFactors, seq, cache: ReuseCache, target):
    """Contract the factors listed in ``seq`` left to right into one labeled
    tensor, its modes in ``target`` order when given, starting from the
    largest cached prefix.  Every intermediate is written in
    :func:`_chain_labels` layout; a suffix chain is the prefix chain of the
    reversed sequence (same subsets, cache keys and layouts).

    Multi-factor intermediates are offered to the cache except those spanning
    all but one factor: only shorter prefix/suffix runs of the same sweep can
    be asked for again before the next factor update goes stale, so storing
    the full-size ones would only churn memory.
    """
    n = f.n
    if not seq:
        return None, None
    # growing prefixes, smallest (2 factors) first
    prefixes = [seq[: i + 2] for i in range(len(seq) - 1)]
    arr, labels = f.factor(seq[0]), factor_labels(seq[0], n)
    base = 0
    for idx in range(len(prefixes) - 1, -1, -1):
        got = cache.lookup(*_subset_key(f, prefixes[idx]))
        if got is not None:
            arr, labels = got
            base = idx + 1
            break
    for prefix in prefixes[base:]:
        nxt = prefix[-1]
        out = target if target is not None and prefix == seq else _chain_labels(prefix, n)
        arr, labels = _contract_labeled(arr, labels, f.factor(nxt), factor_labels(nxt, n), out)
        if len(prefix) < n - 1:
            cache.store(*_subset_key(f, prefix), arr, labels)
    if target is not None:  # a lone factor has had no contraction to lay it out
        arr, labels = _to_label_order(arr, labels, target), list(target)
    return arr, labels


def _compose_except_cached_labeled(f: FctnFactors, k: int, order, cache: ReuseCache) -> np.ndarray:
    """Partial network around k in :func:`matrix_labels` order, so its network
    matrix is a view: factors before k in the visiting ``order`` form a prefix
    chain, those after it a suffix chain, both reusing ``cache``.  Matches
    :func:`compose_except` to within reassociation roundoff (1e-12 relative).
    The benchmark's tracer hooks this name, so it is renamed only with the
    next benchmark change."""
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
        left, llab = _chain_partial(f, order[:pos], cache, out)
        right, rlab = _chain_partial(f, order[pos + 1 :][::-1], cache, out)
        if left is None:
            return right
        if right is None:
            return left
        return _contract_labeled(left, llab, right, rlab, target)[0]


def shuffle_order(prev, rng: np.random.Generator) -> tuple:
    """Fresh uniformly random visiting order (prev only fixes the length)."""
    return tuple(int(v) for v in rng.permutation(len(prev)))


# ---------- contraction cost model (uniform extents and ranks) ---------- #


def compose_flops(n: int, i: int, r: int) -> int:
    """Chain composition of the full network: sum of the n-1 merge steps."""
    return sum(2 * i ** (t + 1) * r ** (t * (n - t) + n - 1 - t) for t in range(1, n))


def compose_from_partial_flops(n: int, i: int, r: int) -> int:
    return 2 * i**n * r ** (n - 1)


def partial_chain_flops(n: int, i: int, r: int) -> int:
    """One plain partial network around a factor (n-2 merge steps)."""
    return sum(2 * i ** (t + 1) * r ** (t * (n - t) + n - 1 - t) for t in range(1, n - 1))


def partial_sweep_flops(n: int, i: int, r: int) -> int:
    """All n partial networks, no reuse."""
    return n * partial_chain_flops(n, i, r)


def partial_sweep_flops_cached(n: int, i: int, r: int) -> int:
    """All n partial networks in one sweep with prefix/suffix reuse, cold cache:
    one full prefix chain, one full suffix chain, and n-2 cross joins."""
    cross = sum(
        2 * i ** (n - 1) * r ** (n - 1 + p * (n - 1 - p)) for p in range(1, n - 1)
    )
    return 2 * partial_chain_flops(n, i, r) + cross


def factor_matmul_flops(n: int, i: int, r: int) -> int:
    """Per-sweep cost of the two big factor-update products: the data term
    X_(k) M^T and the Gram matrix M M^T, summed over all n factors."""
    return n * (2 * i**n * r ** (n - 1) + 2 * i ** (n - 1) * r ** (2 * (n - 1)))
