"""Circulant shifted second-difference operator used as the smoothing penalty.

The raw (printed) stencil accumulates ``-2 - delta`` at offset 0 and ``+1`` at
offsets ``1 mod n`` and ``n-1 mod n``, so the first column degenerates
gracefully: n=1 gives ``[-delta]`` and n=2 gives ``[-2-delta, 2]``.  That
orientation is negative definite; the default here negates it so the operator
is positive definite with spectrum in ``[delta, 4+delta]`` and the penalty
``tr(A^T L A)`` is a true norm.  The raw orientation stays available as
``sign="as-printed"`` for comparison runs.

Being circulant, the operator diagonalizes in the unitary DFT basis:
``L = F^H diag(eigenvalues) F`` with eigenvalue ``j`` equal to
``sign * (-2 - delta + 2 cos(2 pi j / n))``.
"""
from __future__ import annotations

import numpy as np

__all__ = ["CirculantLaplacian"]

_SIGNS = {"positive-definite": -1.0, "as-printed": 1.0}


class CirculantLaplacian:
    def __init__(self, n: int, delta: float, sign: str = "positive-definite") -> None:
        n = int(n)
        if n < 1:
            raise ValueError("operator size must be >= 1")
        delta = float(delta)
        if not 0.0 < delta < np.inf:
            raise ValueError("diagonal shift delta must be finite and > 0")
        if sign not in _SIGNS:
            raise ValueError(f"sign must be one of {sorted(_SIGNS)}, got {sign!r}")
        self.n = n
        self.delta = delta
        self._s = _SIGNS[sign]

        j = np.arange(n)
        self.eigenvalues = self._s * (-2.0 - delta + 2.0 * np.cos(2.0 * np.pi * j / n))

    # ---------- action ---------- #

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """Apply the operator along axis 0 (v may be a vector or a matrix)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape[0] != self.n:
            raise ValueError(f"leading extent {v.shape[0]} does not match n={self.n}")
        return self._s * (
            (-2.0 - self.delta) * v + np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0)
        )

    def trace_penalty(self, a: np.ndarray) -> float:
        """tr(A^T L A): column-summed quadratic form."""
        a = np.asarray(a, dtype=np.float64)
        return float(np.sum(a * self.matvec(a)))

    # ---------- spectral side ---------- #

    def apply_F(self, v: np.ndarray) -> np.ndarray:
        """Unitary DFT along axis 0."""
        return np.fft.fft(v, axis=0, norm="ortho")

    def apply_FH(self, v: np.ndarray) -> np.ndarray:
        """Inverse (adjoint) unitary DFT along axis 0."""
        return np.fft.ifft(v, axis=0, norm="ortho")
