"""Tests for the reconstruction quality metrics."""
import math

import numpy as np
import pytest

from fctnlr.metrics import psnr, quality_report, rel_err, ssim


def loop_psnr(x, ref, peak):
    """Slice-by-slice scalar recomputation with explicit python loops."""
    h, w = x.shape[:2]
    xs = x.reshape((h, w, -1), order="F")
    rs = ref.reshape((h, w, -1), order="F")
    vals = []
    for t in range(xs.shape[2]):
        acc = 0.0
        for i in range(h):
            for j in range(w):
                d = xs[i, j, t] - rs[i, j, t]
                acc += d * d
        mse = acc / (h * w)
        vals.append(100.0 if mse == 0.0 else 10.0 * math.log10(peak * peak / mse))
    return sum(vals) / len(vals)


def loop_ssim(x, ref, peak):
    h, w = x.shape[:2]
    xs = x.reshape((h, w, -1), order="F")
    rs = ref.reshape((h, w, -1), order="F")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for t in range(xs.shape[2]):
        a = xs[:, :, t]
        b = rs[:, :, t]
        npx = h * w
        mu_a = sum(a[i, j] for i in range(h) for j in range(w)) / npx
        mu_b = sum(b[i, j] for i in range(h) for j in range(w)) / npx
        var_a = sum((a[i, j] - mu_a) ** 2 for i in range(h) for j in range(w)) / npx
        var_b = sum((b[i, j] - mu_b) ** 2 for i in range(h) for j in range(w)) / npx
        cov = sum(
            (a[i, j] - mu_a) * (b[i, j] - mu_b) for i in range(h) for j in range(w)
        ) / npx
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        vals.append(num / den)
    return sum(vals) / len(vals)


def test_psnr_identical_inputs_hit_the_cap():
    x = np.random.default_rng(0).random((4, 4, 2, 2))
    assert psnr(x, x) == 100.0


def test_psnr_single_entry_formula():
    truth = np.full((1, 1, 1, 1), 1.0)
    est = np.full((1, 1, 1, 1), 0.9)
    assert psnr(est, truth, peak=1.0) == pytest.approx(20.0, rel=1e-12)


def test_psnr_matches_scalar_loop():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        x = rng.random((4, 4, 2, 2))
        ref = rng.random((4, 4, 2, 2))
        assert psnr(x, ref) == pytest.approx(loop_psnr(x, ref, 1.0), abs=1e-10)


def test_psnr_mixed_zero_and_nonzero_slices():
    rng = np.random.default_rng(6)
    ref = rng.random((3, 3, 2))
    est = ref.copy()
    est[:, :, 1] += 0.1
    got = psnr(est, ref)
    want = 0.5 * (100.0 + 10.0 * math.log10(1.0 / 0.1**2))
    assert got == pytest.approx(want, rel=1e-10)


def test_psnr_scale_covariance():
    rng = np.random.default_rng(7)
    x = rng.random((4, 4, 2, 2))
    ref = rng.random((4, 4, 2, 2))
    c = 3.7
    assert psnr(c * x, c * ref, peak=c) == pytest.approx(psnr(x, ref), rel=1e-10)


def test_psnr_validation():
    x = np.zeros((2, 2))
    with pytest.raises(ValueError):
        psnr(x, np.zeros((2, 3)))
    with pytest.raises(ValueError):
        psnr(x, x, peak=0.0)
    with pytest.raises(ValueError):
        psnr(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("metric", [psnr, ssim])
@pytest.mark.parametrize("peak", [0.0, -1.0, math.inf, math.nan])
def test_peak_outside_the_open_interval_is_refused(metric, peak):
    x = np.zeros((2, 2))
    with pytest.raises(ValueError, match="peak must be finite and > 0"):
        metric(x, x, peak=peak)


def test_ssim_identical_is_exactly_one():
    x = np.random.default_rng(8).random((4, 4, 2, 2))
    assert ssim(x, x) == 1.0


def test_ssim_mean_preserving_flip_goes_negative():
    rng = np.random.default_rng(9)
    ref = rng.random((5, 5, 3))
    est = np.empty_like(ref)
    for t in range(3):
        mu = ref[:, :, t].mean()
        est[:, :, t] = 2.0 * mu - ref[:, :, t]
    assert ssim(est, ref) < 0.0


def test_ssim_matches_scalar_loop():
    for seed in range(6):
        rng = np.random.default_rng(100 + seed)
        x = rng.random((4, 4, 2, 2))
        ref = rng.random((4, 4, 2, 2))
        assert ssim(x, ref) == pytest.approx(loop_ssim(x, ref, 1.0), abs=1e-10)


def test_ssim_stays_in_range():
    for seed in range(10):
        rng = np.random.default_rng(200 + seed)
        x = rng.standard_normal((4, 4, 3))
        ref = rng.standard_normal((4, 4, 3))
        val = ssim(x, ref)
        assert -1.0 <= val <= 1.0


def test_rel_err_basic_values():
    rng = np.random.default_rng(10)
    truth = rng.standard_normal((3, 4, 2))
    assert rel_err(truth, truth) == 0.0
    assert rel_err(2.0 * truth, truth) == pytest.approx(1.0, rel=1e-13)


def test_rel_err_mask_restricts_to_complement():
    rng = np.random.default_rng(11)
    truth = rng.standard_normal((4, 3))
    est = truth + rng.standard_normal((4, 3)) * 0.1
    mask = np.zeros((4, 3), dtype=bool)
    mask[0, :] = True
    sel = ~mask
    want = np.linalg.norm(est[sel] - truth[sel]) / np.linalg.norm(truth[sel])
    assert rel_err(est, truth, mask=mask) == pytest.approx(want, rel=1e-13)


def test_rel_err_empty_mask_equals_unmasked():
    rng = np.random.default_rng(12)
    truth = rng.standard_normal((3, 3))
    est = rng.standard_normal((3, 3))
    none_observed = np.zeros((3, 3), dtype=bool)
    assert rel_err(est, truth, mask=none_observed) == pytest.approx(
        rel_err(est, truth), rel=1e-13
    )


def test_rel_err_full_mask_has_no_defined_value():
    truth = np.ones((2, 2))
    assert math.isnan(rel_err(truth, truth, mask=np.ones((2, 2), dtype=bool)))


def test_rel_err_validation():
    with pytest.raises(ValueError):
        rel_err(np.zeros((2, 2)), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        rel_err(np.zeros((2, 2)), np.zeros((2, 2)), mask=np.zeros((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        rel_err(np.ones((2, 2)), np.zeros((2, 2)))


def test_quality_report_bundles_the_three_values():
    rng = np.random.default_rng(13)
    truth = rng.random((4, 4, 2))
    est = rng.random((4, 4, 2))
    rep = quality_report(est, truth)
    assert rep.psnr == psnr(est, truth)
    assert rep.ssim == ssim(est, truth)
    assert rep.rel_err == rel_err(est, truth)
