"""Tests for the circulant smoothing operator: stencil, spectrum, transforms,
and the trace penalty."""
import numpy as np
import pytest

from fctnlr.laplacian import CirculantLaplacian
from oracles import laplacian_dense


def band_stencil_matrix(n, delta, sign):
    """Independent dense construction: accumulate the three-band circulant
    column by column with explicit wrap-around."""
    s = -1.0 if sign == "positive-definite" else 1.0
    mat = np.zeros((n, n))
    for j in range(n):
        mat[j, j] += -2.0 - delta
        mat[(j + 1) % n, j] += 1.0
        mat[(j - 1) % n, j] += 1.0
    return s * mat


def test_small_operator_spectrum():
    lap = CirculantLaplacian(4, 0.5, "positive-definite")
    assert np.allclose(lap.eigenvalues, [0.5, 2.5, 4.5, 2.5], atol=1e-13)
    # cross-check against a dense eigendecomposition of the same matrix
    dense_eigs = np.sort(np.linalg.eigvalsh(laplacian_dense(lap)))
    assert np.allclose(dense_eigs, np.sort(lap.eigenvalues), atol=1e-12)


def test_size_one_degenerates_to_scalar():
    raw = CirculantLaplacian(1, 1.0, "as-printed")
    assert np.allclose(laplacian_dense(raw), [[-1.0]])
    assert np.allclose(raw.eigenvalues, [-1.0])
    flipped = CirculantLaplacian(1, 1.0, "positive-definite")
    assert np.allclose(laplacian_dense(flipped), [[1.0]])


def test_size_two_wraparound_accumulation():
    lap = CirculantLaplacian(2, 0.7, "as-printed")
    want = np.array([[-2.7, 2.0], [2.0, -2.7]])
    assert np.allclose(laplacian_dense(lap), want, atol=1e-14)


def test_row_sums_give_constant_eigenpair():
    for n in (3, 5, 8):
        delta = 0.4
        lap = CirculantLaplacian(n, delta, "as-printed")
        sums = laplacian_dense(lap).sum(axis=1)
        assert np.allclose(sums, -delta, atol=1e-13)
        ones = np.ones(n)
        assert np.allclose(lap.matvec(ones), -delta * ones, atol=1e-13)


def test_constant_column_trace_penalty():
    n, delta, c = 6, 0.3, 2.5
    lap = CirculantLaplacian(n, delta, "as-printed")
    a = np.full((n, 1), c)
    assert lap.trace_penalty(a) == pytest.approx(-delta * c * c * n, rel=1e-12)


def test_trace_penalty_matches_dense_oracle():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        delta = float(rng.uniform(0.1, 1.0))
        sign = "positive-definite" if seed % 2 == 0 else "as-printed"
        lap = CirculantLaplacian(n, delta, sign)
        a = rng.standard_normal((n, int(rng.integers(1, 5))))
        want = float(np.trace(a.T @ laplacian_dense(lap) @ a))
        assert lap.trace_penalty(a) == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert CirculantLaplacian(5, 0.5).trace_penalty(np.zeros((5, 3))) == 0.0


def test_trace_penalty_lower_bound_when_positive_definite():
    rng = np.random.default_rng(3)
    for n in (2, 4, 9):
        delta = 0.45
        lap = CirculantLaplacian(n, delta, "positive-definite")
        for _ in range(5):
            a = rng.standard_normal((n, 3))
            bound = delta * float(np.linalg.norm(a)) ** 2
            assert lap.trace_penalty(a) >= bound - 1e-10 * bound


def test_spectral_extremes_positive_definite():
    for n in (2, 4, 16, 64):
        delta = 0.6
        lap = CirculantLaplacian(n, delta, "positive-definite")
        assert float(np.min(lap.eigenvalues)) == pytest.approx(delta, abs=1e-13)
        if n % 2 == 0:
            assert float(np.max(lap.eigenvalues)) == pytest.approx(4 + delta, abs=1e-13)
        assert np.all(lap.eigenvalues >= delta - 1e-13)


def test_fourier_impulse():
    lap = CirculantLaplacian(9, 0.5)
    e0 = np.zeros(9)
    e0[0] = 1.0
    out = lap.apply_F(e0)
    assert np.allclose(out, np.full(9, 1.0 / 3.0), atol=1e-14)


def test_fourier_unitarity():
    rng = np.random.default_rng(4)
    for n in (2, 7, 16):
        lap = CirculantLaplacian(n, 0.4)
        v = rng.standard_normal(n)
        back = lap.apply_FH(lap.apply_F(v))
        assert np.allclose(back.real, v, atol=1e-14)
        assert np.max(np.abs(back.imag)) <= 1e-14


def test_diagonalization_reconstructs_columns():
    for sign in ("positive-definite", "as-printed"):
        lap = CirculantLaplacian(8, 0.5, sign)
        dense = laplacian_dense(lap)
        for j in (0, 3):
            e = np.zeros(8)
            e[j] = 1.0
            col = lap.apply_FH(lap.eigenvalues * lap.apply_F(e))
            assert np.max(np.abs(col.imag)) <= 1e-12
            assert np.allclose(col.real, dense[:, j], atol=1e-12)


def test_dense_reconstruction_via_transform_matrix():
    """F^H diag(eigenvalues) F assembled explicitly equals the band stencil."""
    for n in (1, 2, 3, 16):
        for delta in (0.3, 0.6):
            for sign in ("positive-definite", "as-printed"):
                lap = CirculantLaplacian(n, delta, sign)
                fmat = lap.apply_F(np.eye(n))
                recon = fmat.conj().T @ np.diag(lap.eigenvalues) @ fmat
                assert np.max(np.abs(recon.imag)) <= 1e-12
                want = band_stencil_matrix(n, delta, sign)
                assert np.max(np.abs(recon.real - want)) <= 1e-12


def test_matvec_matches_dense_multiply():
    rng = np.random.default_rng(5)
    for n in (2, 3, 10):
        lap = CirculantLaplacian(n, 0.35)
        dense = laplacian_dense(lap)
        v = rng.standard_normal(n)
        assert np.allclose(lap.matvec(v), dense @ v, atol=1e-13)
        mat = rng.standard_normal((n, 4))
        assert np.allclose(lap.matvec(mat), dense @ mat, atol=1e-13)


@pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.0])
def test_shift_must_be_finite_and_positive(delta):
    """A NaN or infinite shift would give a NaN or infinite spectrum that the
    FFT cross-check cannot catch (comparisons with NaN are false)."""
    with pytest.raises(ValueError, match="delta"):
        CirculantLaplacian(4, delta)


def test_build_and_input_validation():
    with pytest.raises(ValueError):
        CirculantLaplacian(0, 0.5)
    with pytest.raises(ValueError):
        CirculantLaplacian(4, 0.0)
    with pytest.raises(ValueError):
        CirculantLaplacian(4, -0.1)
    with pytest.raises(ValueError):
        CirculantLaplacian(4, 0.5, "upside-down")
    lap = CirculantLaplacian(4, 0.5)
    with pytest.raises(ValueError):
        lap.matvec(np.zeros(5))
