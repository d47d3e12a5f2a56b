"""Closed-form solve of the per-factor subproblem.

Each alternating step minimizes, over the mode-k unfolding ``A`` (q x s),

    1/2 ||A M - X_(k)||_F^2 + lam/2 tr(A^T L A) + rho/2 ||A - A_prev||_F^2

whose stationarity condition is the two-sided linear system

    lam L A + A (M M^T) + rho A = X_(k) M^T + rho A_prev.

Both coefficient operators diagonalize: L in the unitary DFT basis (it is
circulant) and the Gram matrix ``M M^T`` by a symmetric eigendecomposition.
Transforming the right-hand side into the joint eigenbasis turns the system
into an entrywise division by ``T[w, v] = lam * eig_L[w] + phi[v] + rho``,
which is strictly positive in the default operator orientation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .laplacian import CirculantLaplacian
from .tensor import FLOPS

__all__ = [
    "FactorSubproblem",
    "NumericalFailure",
    "SpectralPair",
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


def eig_gram(m: np.ndarray) -> SpectralPair:
    """Symmetric eigendecomposition of the Gram matrix of the rows of m."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError("m must be a matrix")
    with FLOPS.scoped("gram"):
        g = m @ m.T
        FLOPS.add(2 * m.shape[0] * m.shape[0] * m.shape[1])
    g = 0.5 * (g + g.T)
    phi, c = np.linalg.eigh(g)
    return SpectralPair(c=c, phi=np.maximum(phi, 0.0))


@dataclass
class FactorSubproblem:
    """One factor update in matrix form.

    ``x_k``: mode-k unfolding of the current tensor, q x p.
    ``m``: partial-network unfolding, s x p (its rows pair with A's columns).
    ``a_prev``: previous factor unfolding, q x s (proximal anchor).
    """

    x_k: np.ndarray
    m: np.ndarray
    a_prev: np.ndarray
    lap: CirculantLaplacian
    lam: float
    rho: float

    def __post_init__(self):
        self.x_k = np.asarray(self.x_k, dtype=np.float64)
        self.m = np.asarray(self.m, dtype=np.float64)
        self.a_prev = np.asarray(self.a_prev, dtype=np.float64)
        q, p = self.x_k.shape
        s = self.m.shape[0]
        if self.m.shape[1] != p:
            raise ValueError(f"m has {self.m.shape[1]} columns, expected {p}")
        if self.a_prev.shape != (q, s):
            raise ValueError(f"a_prev has shape {self.a_prev.shape}, expected {(q, s)}")
        if self.lap.n != q:
            raise ValueError(f"operator size {self.lap.n} does not match q={q}")
        if self.lam < 0.0:
            raise ValueError("lam must be >= 0")
        if self.rho <= 0.0:
            raise ValueError("rho must be > 0")


def solve_factor(p: FactorSubproblem, pair: SpectralPair | None = None) -> np.ndarray:
    """Solve the subproblem exactly via the joint diagonalization."""
    if pair is None:
        pair = eig_gram(p.m)
    q, s = p.a_prev.shape
    with FLOPS.scoped("proj"):
        y = p.x_k @ p.m.T
        FLOPS.add(2 * q * p.x_k.shape[1] * s)
    y = y + p.rho * p.a_prev

    t = p.lam * p.lap.eigenvalues[:, None] + pair.phi[None, :] + p.rho
    if float(np.min(t)) <= _T_FLOOR:
        raise NumericalFailure(
            "shifted spectrum is not strictly positive; "
            "the as-printed operator orientation cannot be inverted here"
        )
    w = p.lap.apply_F(y @ pair.c)
    a = p.lap.apply_FH(w / t) @ pair.c.T
    return np.ascontiguousarray(a.real)

