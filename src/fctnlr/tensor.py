"""Dense tensor primitives: mode permutation, generalized unfolding, contraction.

Conventions used throughout the package:

* modes are 0-based;
* linearization is first-index-fastest (column-major), so an unfolding is a
  permute followed by an ``order='F'`` reshape;
* a permutation materializes an F-contiguous copy, which makes every
  downstream unfolding a metadata-only reshape;
* contraction is by mode label: :func:`contract` takes each operand with
  one label per mode, sums over the labels both carry and returns the result
  with its labels, laid out in a requested label order if one is given;
* contraction cost is metered on the global ``FLOPS`` counter, with one
  multiply-add pair counted as 2 FLOPs.
"""
from __future__ import annotations

import contextlib
import math

import numpy as np

__all__ = [
    "FLOPS",
    "FlopCounter",
    "contract",
    "gfold",
    "gunfold",
    "mode_fold",
    "mode_unfold",
    "transpose",
]


class FlopCounter:
    """Cumulative multiply-add meter with an optional label stack.

    ``add`` attributes FLOPs to the innermost active label (or "unlabeled").
    The counter is process-global and single-threaded by design; callers that
    want per-phase deltas snapshot ``total`` / ``by_label`` around the phase.
    """

    def __init__(self) -> None:
        self.total = 0
        self.by_label: dict[str, int] = {}
        self._stack: list[str] = []

    def add(self, n: int) -> None:
        label = self._stack[-1] if self._stack else "unlabeled"
        self.total += n
        self.by_label[label] = self.by_label.get(label, 0) + n

    @contextlib.contextmanager
    def scoped(self, label: str):
        self._stack.append(label)
        try:
            yield self
        finally:
            self._stack.pop()

    def labeled(self, label: str) -> int:
        return self.by_label.get(label, 0)

    def snapshot(self) -> dict[str, int]:
        snap = dict(self.by_label)
        snap["total"] = self.total
        return snap

    def reset(self) -> None:
        self.total = 0
        self.by_label.clear()
        self._stack.clear()


FLOPS = FlopCounter()


# ---------- permutation and (un)folding ---------- #


def _check_perm(perm, ndim: int) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(ndim)):
        raise ValueError(f"perm {perm} is not a permutation of range({ndim})")
    return perm


def _as_array(x) -> np.ndarray:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim == 0:
        raise ValueError("order-0 input; tensors here have at least one mode")
    return a


def transpose(x: np.ndarray, perm) -> np.ndarray:
    """Permute modes and materialize the result F-contiguously."""
    x = _as_array(x)
    perm = _check_perm(perm, x.ndim)
    return np.asfortranarray(np.transpose(x, perm))


def gunfold(x: np.ndarray, perm, split: int) -> np.ndarray:
    """Generalized unfolding: permute by ``perm``, then map the first
    ``split`` permuted modes to rows and the rest to columns, both linearized
    first-index-fastest."""
    x = _as_array(x)
    perm = _check_perm(perm, x.ndim)
    if not 1 <= split < x.ndim:
        raise ValueError(f"split must be in [1, {x.ndim - 1}], got {split}")
    xt = np.asfortranarray(np.transpose(x, perm))
    rows = math.prod(xt.shape[:split])
    cols = math.prod(xt.shape[split:])
    return xt.reshape((rows, cols), order="F")


def gfold(mat: np.ndarray, perm, split: int, extents) -> np.ndarray:
    """Inverse of :func:`gunfold` for a tensor with the given ``extents``."""
    mat = np.asarray(mat, dtype=np.float64)
    extents = tuple(int(e) for e in extents)
    perm = _check_perm(perm, len(extents))
    if not 1 <= split < len(extents):
        raise ValueError(f"split must be in [1, {len(extents) - 1}], got {split}")
    pshape = tuple(extents[p] for p in perm)
    rows = math.prod(pshape[:split])
    cols = math.prod(pshape[split:])
    if mat.shape != (rows, cols):
        raise ValueError(f"matrix shape {mat.shape} does not match ({rows}, {cols})")
    xt = mat.reshape(pshape, order="F")
    inv = np.argsort(perm)
    return np.asfortranarray(np.transpose(xt, inv))


def mode_unfold(x: np.ndarray, mode: int) -> np.ndarray:
    """Classical mode unfolding: rows are mode ``mode``, columns the remaining
    modes in ascending order, linearized first-index-fastest."""
    x = _as_array(x)
    if not 0 <= mode < x.ndim:
        raise ValueError(f"mode {mode} out of range for order {x.ndim}")
    if x.ndim == 1:
        return x.reshape((x.shape[0], 1), order="F")
    rest = [m for m in range(x.ndim) if m != mode]
    return gunfold(x, (mode, *rest), 1)


def mode_fold(mat: np.ndarray, mode: int, extents) -> np.ndarray:
    """Inverse of :func:`mode_unfold`."""
    extents = tuple(int(e) for e in extents)
    if not 0 <= mode < len(extents):
        raise ValueError(f"mode {mode} out of range for order {len(extents)}")
    if len(extents) == 1:
        return np.asarray(mat, dtype=np.float64).reshape(extents, order="F")
    rest = [m for m in range(len(extents)) if m != mode]
    return gfold(mat, (mode, *rest), 1, extents)


# ---------- contraction ---------- #


def _merged(a: np.ndarray, group) -> tuple[int, int] | None:
    """Extent and byte stride of the axes in ``group`` merged into one axis,
    first-index-fastest; None when they do not step evenly through memory."""
    extent, stride, step = 1, a.itemsize, None
    for ax in group:
        e, s = a.shape[ax], a.strides[ax]
        if e == 1:
            continue
        if step is None:
            stride = s
        elif s != step:
            return None
        step = s * e
        extent *= e
    return extent, stride


def _blasable(own, shared, itemsize: int) -> bool:
    """Whether a matrix with these merged (extent, stride) axes can be handed
    to BLAS as is: one axis unit-strided, the other striding past it."""
    (eo, so), (es, ss) = own, shared
    if eo == 1 or es == 1:
        s = ss if eo == 1 else so
        return s > 0 and s % itemsize == 0
    return (so == itemsize and ss >= itemsize * eo and ss % itemsize == 0) or (
        ss == itemsize and so >= itemsize * es and so % itemsize == 0
    )


def _gemm_operand(a: np.ndarray, own, shared, batch, own_fast: bool) -> np.ndarray:
    """View of ``a`` as a stack of matrices for ``np.matmul``.

    The leading axes follow ``batch``: an axis of ``a``, or None where the
    other operand alone carries the axis (extent 1, broadcast).  The last two
    axes are ``own`` and ``shared``, each a group of a's axes merged
    first-index-fastest, as (shared, own) when ``own_fast`` and (own, shared)
    otherwise.  ``a`` is copied, F-contiguously in own, shared, batch order,
    only when its layout cannot provide such matrices without one.
    """
    mine = [ax for ax in batch if ax is not None]
    own_m, shared_m = _merged(a, own), _merged(a, shared)
    if own_m is None or shared_m is None or not _blasable(own_m, shared_m, a.itemsize):
        perm = [*own, *shared, *mine]
        if a.ndim > 1:
            # gunfold's F-contiguous permuted copy, viewed back as a tensor
            a = gunfold(a, perm, 1).reshape([a.shape[p] for p in perm], order="F")
        else:
            a = np.ascontiguousarray(a)
        pos = {ax: t for t, ax in enumerate(perm)}
        own = [pos[ax] for ax in own]
        shared = [pos[ax] for ax in shared]
        batch = [None if ax is None else pos[ax] for ax in batch]
        own_m, shared_m = _merged(a, own), _merged(a, shared)
    (eo, so), (es, ss) = own_m, shared_m
    # a unit extent may carry any stride; give it one BLAS accepts
    if eo == 1:
        so = a.itemsize if ss != a.itemsize else a.itemsize * es
    if es == 1:
        ss = a.itemsize if so != a.itemsize else a.itemsize * eo
    shape = [1 if ax is None else a.shape[ax] for ax in batch]
    strides = [0 if ax is None else a.strides[ax] for ax in batch]
    if own_fast:
        shape += [es, eo]
        strides += [ss, so]
    else:
        shape += [eo, es]
        strides += [so, ss]
    return np.lib.stride_tricks.as_strided(a, shape, strides, writeable=False)


def contract(x: np.ndarray, lx, y: np.ndarray, ly, target=None, split=None) -> tuple:
    """Contract ``x`` and ``y`` over every label both carry and return the
    result with its labels, ``(z, labels)``.

    ``lx`` and ``ly`` name the modes of ``x`` and ``y``, one distinct
    hashable label per mode (a string such as ``"ijk"`` names one mode per
    character).  The result keeps x's free labels in axis order followed by
    y's; ``target``, an ordering of those free labels, instead lays the
    result out F-contiguously with its modes in that order.  Either way the
    result is written once, in place: the leading run of result modes that
    belongs to one operand and the run after it (from the other) span the
    rows and columns of a GEMM, batched over the remaining modes, so no
    permutation of the result is ever materialized.  ``split`` instead ends
    the rows at that many leading result modes; the operand's modes between
    them and the other operand's first run are then batched too, which lets
    a layout keep modes of both operands side by side without copying
    either.  Operands are copied only when their layout does not already
    present those matrices.  Adds ``2 * rows * shared * cols`` to ``FLOPS``.
    """
    x, y, lx, ly = _as_array(x), _as_array(y), list(lx), list(ly)
    for a, labels in ((x, lx), (y, ly)):
        if len(labels) != a.ndim or len(set(labels)) != a.ndim:
            raise ValueError(f"labels {labels} do not name the {a.ndim} modes one each")
    xm = [m for m, lab in enumerate(lx) if lab in ly]
    if not xm:
        raise ValueError(f"labels {lx} and {ly} share none")
    ym = [ly.index(lx[m]) for m in xm]
    for a, b in zip(xm, ym):
        if x.shape[a] != y.shape[b]:
            raise ValueError(f"extent mismatch at {lx[a]!r}: x {x.shape[a]}, y {y.shape[b]}")
    free = [(0, m) for m in range(x.ndim) if m not in xm]
    free += [(1, m) for m in range(y.ndim) if m not in ym]
    labels = [lx[m] if o == 0 else ly[m] for o, m in free]
    if target is not None:
        target = list(target)
        if len(target) != len(labels) or set(target) != set(labels):
            raise ValueError(f"target {target} does not order the free labels {labels}")
        free = [free[labels.index(lab)] for lab in target]
        labels = target
    ops, pairs = (x, y), (xm, ym)

    # rows: the leading run of result modes owned by one operand (or its
    # first ``split``); cols: the next run, owned by the other; batch: every
    # other result mode
    lead = free[0][0] if free else 0
    r = next((t for t, (o, _) in enumerate(free) if o != lead), len(free))
    if split is not None:
        r = min(r, int(split))
    g = next((t for t in range(r, len(free)) if free[t][0] != lead), len(free))
    c = next((t for t in range(g, len(free)) if free[t][0] == lead), len(free))
    batch = (free[r:g] + free[c:])[::-1]  # np.matmul stacks slowest first
    av = _gemm_operand(
        ops[lead], [m for _, m in free[:r]], pairs[lead],
        [m if o == lead else None for o, m in batch], own_fast=True,
    )
    bv = _gemm_operand(
        ops[1 - lead], [m for _, m in free[g:c]], pairs[1 - lead],
        [m if o != lead else None for o, m in batch], own_fast=False,
    )
    shared = math.prod(x.shape[m] for m in xm)
    out_shape = tuple(ops[o].shape[m] for o, m in free)
    FLOPS.add(2 * math.prod(out_shape) * shared)
    if g == r:
        # each stacked (cols x rows) product is C-contiguous, so rows run
        # fastest; the stack is allocated C-ordered too (a ufunc would follow
        # the inputs)
        mat = np.empty(np.broadcast_shapes(bv.shape[:-2], av.shape[:-2]) + (bv.shape[-2], av.shape[-1]))
        np.matmul(bv, av, out=mat)
        return mat.reshape(-1).reshape(out_shape, order="F"), labels
    # batch modes between rows and cols: the products go into a strided view
    # of the result, rows still unit-strided (cols, if the other operand has
    # no free mode, are one column at any stride)
    out = np.empty(out_shape, order="F")
    pos = {mode: t for t, mode in enumerate(free)}
    view = np.lib.stride_tricks.as_strided(
        out,
        [out_shape[pos[b]] for b in batch] + [bv.shape[-2], av.shape[-1]],
        [out.strides[pos[b]] for b in batch] + [out.strides[min(g, out.ndim - 1)], out.itemsize],
        writeable=True,
    )
    np.matmul(bv, av, out=view)
    return out, labels
