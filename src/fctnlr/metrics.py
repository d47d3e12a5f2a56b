"""Reconstruction quality metrics.

The first two modes are treated as the image plane; every combination of the
trailing modes is one slice.  PSNR and the structural index are computed per
slice and averaged.  The structural index uses a single global window per
slice (plain means, population variances, covariance) with the conventional
stabilizers c1 = (0.01 peak)^2 and c2 = (0.03 peak)^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QualityReport", "psnr", "rel_err", "ssim", "quality_report"]


def _slices(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim < 2:
        raise ValueError("need at least two modes")
    return x.reshape((x.shape[0], x.shape[1], -1), order="F")


def _pair(x, ref):
    xs, rs = _slices(x), _slices(ref)
    if xs.shape != rs.shape:
        raise ValueError("tensors must have identical shapes")
    return xs, rs


def psnr(x, ref, peak: float = 1.0) -> float:
    """Mean over slices of 10 log10(peak^2 / MSE); a slice with zero error
    contributes the 100 dB cap."""
    if not 0.0 < peak < math.inf:
        raise ValueError("peak must be finite and > 0")
    xs, rs = _pair(x, ref)
    h, w, s = xs.shape
    vals = []
    for t in range(s):
        mse = float(np.mean((xs[:, :, t] - rs[:, :, t]) ** 2))
        vals.append(100.0 if mse == 0.0 else 10.0 * math.log10(peak * peak / mse))
    return float(np.mean(vals))


def ssim(x, ref, peak: float = 1.0) -> float:
    """Mean over slices of the single-window structural index; identical
    inputs score exactly 1."""
    if not 0.0 < peak < math.inf:
        raise ValueError("peak must be finite and > 0")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    xs, rs = _pair(x, ref)
    vals = []
    for t in range(xs.shape[2]):
        a = xs[:, :, t]
        b = rs[:, :, t]
        mu_a = float(a.mean())
        mu_b = float(b.mean())
        var_a = float(a.var())
        var_b = float(b.var())
        cov = float(((a - mu_a) * (b - mu_b)).mean())
        num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2)
        den = (mu_a * mu_a + mu_b * mu_b + c1) * (var_a + var_b + c2)
        vals.append(num / den)
    return float(np.mean(vals))


def rel_err(x, ref, mask=None) -> float:
    """Relative Frobenius error, restricted to the mask complement (the
    unobserved entries) when a mask is given.  An empty complement has no
    defined error and yields nan."""
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        raise ValueError("tensors must have identical shapes")
    if mask is None:
        num = float(np.linalg.norm((x - ref).ravel()))
        den = float(np.linalg.norm(ref.ravel()))
    else:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != ref.shape:
            raise ValueError("mask shape mismatch")
        sel = ~mask
        if not sel.any():
            return math.nan
        num = float(np.linalg.norm(x[sel] - ref[sel]))
        den = float(np.linalg.norm(ref[sel]))
    if den == 0.0:
        raise ValueError("zero-norm denominator in relative error")
    return num / den


@dataclass
class QualityReport:
    psnr: float
    ssim: float
    rel_err: float


def quality_report(x, ref, mask=None, peak: float = 1.0) -> QualityReport:
    return QualityReport(
        psnr=psnr(x, ref, peak), ssim=ssim(x, ref, peak), rel_err=rel_err(x, ref, mask)
    )
