"""Closed-form solve of the per-factor subproblem.

Each alternating step minimizes, over the mode-k unfolding ``A`` (q x s),

    1/2 ||A M - X_(k)||_F^2 + lam/2 tr(A^T L A) + rho/2 ||A - A_prev||_F^2

whose stationarity condition is the two-sided linear system

    lam L A + A (M M^T) + rho A = X_(k) M^T + rho A_prev.

X enters only through the data product ``X_(k) M^T`` (q x s), which
:func:`data_product` forms from X as stored, without the mode-k unfolding
wherever the layouts allow; :class:`FactorSubproblem` carries that product,
so the solve itself never sees X.

Both coefficient operators diagonalize: L in the unitary DFT basis (it is
circulant) and the Gram matrix ``M M^T`` by a symmetric eigendecomposition.
Transforming the right-hand side into the joint eigenbasis turns the system
into an entrywise division by ``T[w, v] = lam * eig_L[w] + phi[v] + rho``,
which is strictly positive in the default operator orientation.

The dense product ``M M^T`` costs ``2 s^2 I^(n-1)`` FLOPs, on large extents
the largest single term of a sweep.  Where the sweep plan
(:func:`fctnlr.environment.sweep_plan`) takes the Gram from the doubled
network instead (:func:`fctnlr.network.gram_except`), the solver hands its
eigendecomposition to :func:`solve_factor` as a :class:`SpectralPair`
(:meth:`SpectralPair.from_gram`); otherwise it passes no pair and
:func:`solve_factor` forms the dense product through :func:`eig_gram`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laplacian import CirculantLaplacian
from .tensor import FLOPS, mode_unfold

__all__ = [
    "FactorSubproblem",
    "NumericalFailure",
    "SpectralPair",
    "data_product",
    "eig_gram",
    "solve_factor",
]

_T_FLOOR = 1e-10


class NumericalFailure(RuntimeError):
    """Raised when a solve cannot proceed (non-positive spectrum, overflow)."""


@dataclass
class SpectralPair:
    """Orthonormal eigenvectors and clamped-nonnegative eigenvalues of M M^T."""

    c: np.ndarray
    phi: np.ndarray

    @classmethod
    def from_gram(cls, g: np.ndarray) -> "SpectralPair":
        """Eigendecomposition of a Gram matrix, symmetrized first so roundoff
        in how it was summed cannot skew the basis."""
        g = 0.5 * (g + g.T)
        phi, c = np.linalg.eigh(g)
        return cls(c=c, phi=np.maximum(phi, 0.0))


def eig_gram(m: np.ndarray) -> SpectralPair:
    """Symmetric eigendecomposition of the Gram matrix of the rows of m,
    formed by the dense product ``m @ m.T``."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("m must be a matrix")
    with FLOPS.scoped("gram"):
        g = m @ m.T
        FLOPS.add(2 * m.shape[0] * m.shape[0] * m.shape[1])
    return SpectralPair.from_gram(g)


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
# For the last mode (b = 1), a C-ordered M's one GEMM runs faster as
# (M X_(k)^T)^T than as X_(k) M^T where I_k < s, and slower where I_k > s
# (ms, same host, median of three medians of 5):
#
#   shape       R  k     I_k     s     (M X^T)^T   X M^T
#   16^5        3  4      16    81          4.34    6.13
#   8^6         2  5       8    32          0.70    0.93
#   40^4        4  3      40    64          6.23    6.46
#   128^3       4  2     128    16          2.25    1.57
_CHUNK_BYTES = 2 << 20  # bytes of per-slice products held at once


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
    over the same (a, b) pairs, first index fastest.  For a = 1 or b = 1 (k
    first or last) that view is X_(k) or its transpose, and one GEMM on it
    gives the product (for k last, as ``(M X_(k)^T)^T`` where that is faster,
    see the timings above).  For a middle mode where :func:`_batched_pays`, the
    product is the sum over the slices v of b of ``X[:, :, v]^T M_v^T``,
    batched over a few MB of slices at a time: no copy of X either way.
    Otherwise X_(k) is unfolded (one copy of X) and multiplied by ``m.T``.
    """
    x = np.asarray(x, dtype=np.float64)
    m = np.asarray(m, dtype=np.float64)
    q, s = x.shape[k], m.shape[0]
    a, b = math.prod(x.shape[:k]), math.prod(x.shape[k + 1 :])
    if m.shape[1] != a * b:
        raise ValueError(f"m has {m.shape[1]} columns, expected {a * b}")
    with FLOPS.scoped("proj"):
        FLOPS.add(2 * q * a * b * s)
        if a == 1:
            return x.reshape((q, b), order="F") @ m.T
        if b == 1:
            xv = x.reshape((a, q), order="F")
            if m.flags.c_contiguous and q < s:
                return (m @ xv).T
            return xv.T @ m.T
        if not _batched_pays(a, b):
            return mode_unfold(x, k) @ m.T
        x3 = x.reshape((a, q, b), order="F")
        mt3 = m.T.reshape((a, b, s), order="F")
        chunk = max(1, min(b, _CHUNK_BYTES // (8 * q * s)))
        y = np.zeros((q, s))
        buf = np.empty((chunk, q, s))
        for lo in range(0, b, chunk):
            hi = min(b, lo + chunk)
            part = buf[: hi - lo]
            np.matmul(
                x3[:, :, lo:hi].transpose(2, 1, 0),
                mt3[:, lo:hi, :].transpose(1, 0, 2),
                out=part,
            )
            y += part.sum(axis=0)
        return y


@dataclass
class FactorSubproblem:
    """One factor update in matrix form.

    ``xm``: the data product ``X_(k) M^T`` (:func:`data_product`), q x s;
    the tensor X enters the subproblem only through it.
    ``m``: partial-network unfolding, s x p (its rows pair with A's columns),
    or None when the solve is given the spectral pair of ``M M^T``.
    ``a_prev``: previous factor unfolding, q x s (proximal anchor).
    """

    xm: np.ndarray
    m: np.ndarray | None
    a_prev: np.ndarray
    lap: CirculantLaplacian
    lam: float
    rho: float

    def __post_init__(self):
        self.xm = np.asarray(self.xm, dtype=np.float64)
        self.a_prev = np.asarray(self.a_prev, dtype=np.float64)
        q, s = self.a_prev.shape
        if self.m is not None:
            self.m = np.asarray(self.m, dtype=np.float64)
            if self.m.ndim != 2 or self.m.shape[0] != s:
                raise ValueError(f"m has shape {self.m.shape}, expected {s} rows")
        if self.xm.shape != (q, s):
            raise ValueError(f"xm has shape {self.xm.shape}, expected {(q, s)}")
        if self.lap.n != q:
            raise ValueError(f"operator size {self.lap.n} does not match q={q}")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.rho <= 0.0:
            raise ValueError("rho must be > 0")


def solve_factor(p: FactorSubproblem, pair: SpectralPair | None = None) -> np.ndarray:
    """Solve the subproblem exactly via the joint diagonalization.  Without
    ``pair`` the Gram matrix is formed from ``p.m``, which must then be set."""
    if pair is None:
        if p.m is None:
            raise ValueError("a subproblem without m needs the spectral pair of M M^T")
        pair = eig_gram(p.m)
    y = p.xm + p.rho * p.a_prev

    t = p.lam * p.lap.eigenvalues[:, None] + pair.phi[None, :] + p.rho
    if float(np.min(t)) <= _T_FLOOR:
        raise NumericalFailure(
            "shifted spectrum is not strictly positive; "
            "the as-printed operator orientation cannot be inverted here"
        )
    w = p.lap.apply_F(y @ pair.c)
    a = p.lap.apply_FH(w / t) @ pair.c.T
    return np.ascontiguousarray(a.real)
