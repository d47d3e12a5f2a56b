"""Closed-form solve of the per-factor subproblem.

Each alternating step minimizes, over the mode-k unfolding ``A`` (q x s),

    1/2 ||A M - X_(k)||_F^2 + lam/2 tr(A^T L A) + rho/2 ||A - A_prev||_F^2

whose stationarity condition is the two-sided linear system

    lam L A + A (M M^T) + rho A = X_(k) M^T + rho A_prev.

:func:`solve_factor` takes the system's two inputs that depend on M: the data
product ``X_(k) M^T`` (q x s) and the Gram matrix ``M M^T`` (s x s).  So the
solve never sees X or M.  :func:`data_product` forms the data product from X
as stored, without the mode-k unfolding wherever the layouts allow.

Both coefficient operators diagonalize: L in the unitary DFT basis (it is
circulant) and the Gram matrix by a symmetric eigendecomposition
(:func:`eig_gram`).  Transforming the right-hand side into the joint
eigenbasis turns the system into an entrywise division by
``T[w, v] = lam * eig_L[w] + phi[v] + rho``, which is strictly positive in
the default operator orientation.

The sweep plan (:func:`fctnlr.network.sweep_plan`) decides per position
where the Gram matrix comes from: the doubled network
(:func:`fctnlr.network.gram_except`) or the dense product :func:`dense_gram`,
which costs ``2 s^2 I^(n-1)`` FLOPs, on large extents the largest single term
of a sweep.  The solver forms it by that route and hands it to
:func:`solve_factor`.
"""
from __future__ import annotations

import math

import numpy as np

from .tensor import FLOPS, mode_unfold

__all__ = [
    "NumericalFailure",
    "data_product",
    "dense_gram",
    "eig_gram",
    "solve_factor",
]

_T_FLOOR = 1e-10


class NumericalFailure(RuntimeError):
    """Raised when a solve cannot proceed (non-positive spectrum, overflow)."""


def dense_gram(m: np.ndarray) -> np.ndarray:
    """The Gram matrix ``m @ m.T`` of the rows of m by the dense GEMM,
    metered under ``gram`` at ``2 s^2 p`` FLOPs."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("m must be a matrix")
    with FLOPS.scoped("gram"):
        g = m @ m.T
        FLOPS.add(2 * m.shape[0] * m.shape[0] * m.shape[1])
    return g


def eig_gram(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal eigenvectors ``c`` and clamped-nonnegative eigenvalues
    ``phi`` of a Gram matrix, as ``(c, phi)``.  It is symmetrized first, so
    roundoff in how it was summed cannot skew the basis."""
    g = 0.5 * (g + g.T)
    phi, c = np.linalg.eigh(g)
    return c, np.maximum(phi, 0.0)


# Route of the data product for a middle mode.  X is viewed as (a, I_k, b)
# and M^T as (a, b, s); the batched route runs one (I_k x a)(a x s) GEMM per
# slice v of b, the copy route unfolds X and runs one GEMM.  Both builds
# leave M C-ordered (a view of the partial network).  Timed per factor with
# FCTN_THREADS=1 on a 2-core x86 host, each the median of three interleaved
# medians of 3 (ms):
#
#   shape       R  k     a     b     copy  batched
#   128^3       4  1   128   128     9.94     5.53
#   64x64x3x32  3  1    64    96     1.51     1.13
#   64x64x3x32  3  2  4096    32     5.28     1.82
#   40^4        4  1    40  1600    20.79    21.71
#   40^4        4  2  1600    40    20.15    15.25
#   32^4        3  1    32  1024     6.85     3.92
#   24^4        3  1    24   576     1.88     1.40
#   20^4        4  1    20   400     1.26     1.49
#   16^5        3  1    16  4096    16.96    33.47
#   16^5        3  2   256   256    16.68    14.67
#   12^4        4  1    12   144     0.20     0.28
#   8^6         2  1     8  4096     1.75     2.64
#   8^6         2  2    64   512     2.46     1.23
#   6^6         2  1     6  1296     0.39     0.66
#
# Inside a sweep, where M is the freshly built network matrix, the batched
# route lost at 16^5 k=2 (13.4-15.0 against 10.2-12.0 ms per sweep over
# three 4-sweep runs) while winning at k=3 (8.2-9.5 against 11.0-28.3).
#
# The batched route loses where a is short: each of its b GEMMs then has too
# small an inner extent to amortise its call.  M's slices stride by p from
# column to column, so each touches s pages; the route also needs few slices
# against a long a.
#
# Every other route multiplies X_(k) as one matrix: X's view for the first
# and last modes (a = 1 or b = 1), mode_unfold's copy for a middle mode the
# batched route does not take.  With the C-ordered M of a sweep, that GEMM
# runs faster as (M X_(k)^T)^T than as X_(k) M^T where I_k < s (ms,
# FCTN_THREADS=1 on a 2-core x86 host, median of three interleaved medians
# of 9):
#
#   shape       R  k  X_(k)  I_k     s   (M X^T)^T    X M^T
#   16^5        3  0  view    16    81       12.21    16.41
#   16^5        3  1  copy    16    81       15.00    19.23
#   16^5        3  2  copy    16    81       14.70    19.17
#   16^5        3  4  view    16    81       12.44    15.86
#   40^4        4  0  view    40    64       13.73    16.91
#   40^4        4  1  copy    40    64       18.36    19.84
#   40^4        4  3  view    40    64       12.95    12.80
#   8^6         2  0  view     8    32        1.22     1.84
#   8^6         2  1  copy     8    32        1.48     1.92
#   8^6         2  2  copy     8    32        1.59     2.15
#   8^6         2  5  view     8    32        1.22     1.67
#   128^3       4  0  view   128    16        3.70     4.38
#   128^3       4  2  view   128    16        4.16     3.30
#
# Where I_k >= s the rule keeps X_(k) M^T, the form these products have
# always taken.  The threshold is not tight: the flip lost at 128^3's last
# mode but won at its first, and at every view and copy mode of 32^4 R=3
# (I_k = 32 > s = 27).


def _batched_pays(a: int, b: int) -> bool:
    """Whether the batched route beats the copy for a middle mode (the
    timings above)."""
    return a >= 1024 or (a >= 64 and b <= 128)


def data_product(x: np.ndarray, k: int, m: np.ndarray) -> np.ndarray:
    """The data product ``X_(k) M^T`` (q x s) of the tensor ``x`` and factor
    k's network matrix ``m`` (s x p), metered under ``proj`` at ``2 q p s``
    FLOPs on every route.

    X is read through its F-ordered view as (a, I_k, b), with a the product
    of the extents before mode k and b of those after it; M's columns run
    over the same (a, b) pairs, first index fastest.  For a middle mode
    where :func:`_batched_pays`, the product is the sum over the slices v of
    b of ``X[:, :, v]^T M_v^T``, one batched GEMM.  Every other route forms
    X_(k), a view of X for a = 1 or b = 1 (k first or last) and an unfolded
    copy otherwise, and multiplies it by M in one GEMM: as
    ``(M X_(k)^T)^T`` where I_k < s, else as ``X_(k) M^T`` (the timings
    above).
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    q, s = x.shape[k], m.shape[0]
    a, b = math.prod(x.shape[:k]), math.prod(x.shape[k + 1 :])
    if m.shape[1] != a * b:
        raise ValueError(f"m has {m.shape[1]} columns, expected {a * b}")
    with FLOPS.scoped("proj"):
        FLOPS.add(2 * q * a * b * s)
        if a == 1 or b == 1:
            xk = x.reshape((q, b), order="F") if a == 1 else x.reshape((a, q), order="F").T
        elif _batched_pays(a, b):
            x3 = x.reshape((a, q, b), order="F").transpose(2, 1, 0)
            mt3 = m.T.reshape((a, b, s), order="F").transpose(1, 0, 2)
            return np.matmul(x3, mt3).sum(axis=0)
        else:
            xk = mode_unfold(x, k)
        return (m @ xk.T).T if q < s else xk @ m.T


def solve_factor(xm, a_prev, gram, lap, lam: float, rho: float) -> np.ndarray:
    """Solve the subproblem exactly via the joint diagonalization.

    ``xm``: the data product ``X_(k) M^T`` (:func:`data_product`), q x s.
    ``a_prev``: the previous factor unfolding, q x s (proximal anchor).
    ``gram``: the Gram matrix ``M M^T``, s x s (its rows pair with A's
    columns).  ``lap``: the smoothing operator of size q, a
    :class:`~fctnlr.laplacian.CirculantLaplacian`.
    """
    xm, a_prev, gram = (np.asarray(v, dtype=np.float64) for v in (xm, a_prev, gram))
    q, s = a_prev.shape
    if xm.shape != (q, s) or gram.shape != (s, s) or lap.n != q:
        raise ValueError(f"xm {xm.shape}, gram {gram.shape} or operator size {lap.n} "
                         f"does not fit a_prev {(q, s)}")
    if not (lam >= 0.0 and rho > 0.0):
        raise ValueError(f"need lam >= 0 and rho > 0, got lam={lam}, rho={rho}")
    c, phi = eig_gram(gram)
    y = xm + rho * a_prev

    t = lam * lap.eigenvalues[:, None] + phi[None, :] + rho
    if float(np.min(t)) <= _T_FLOOR:
        raise NumericalFailure(
            "shifted spectrum is not strictly positive; "
            "the as-printed operator orientation cannot be inverted here"
        )
    w = lap.apply_F(y @ c)
    a = lap.apply_FH(w / t) @ c.T
    return np.ascontiguousarray(a.real)
