"""Tests for the closed-form factor subproblem solve and its dense oracle.
The solve takes the data product X_(k) M^T and the Gram matrix M M^T, so each
instance here draws a data matrix x and a network matrix m and hands the
solver ``x @ m.T`` and ``dense_gram(m)``."""
from types import SimpleNamespace

import numpy as np
import pytest

from fctnlr.laplacian import CirculantLaplacian
from fctnlr.sylvester import NumericalFailure, dense_gram, eig_gram, solve_factor
from oracles import laplacian_dense, solve_factor_dense


def solve(p):
    """Solve a problem instance (a namespace of ``xm``, ``m``, ``a_prev``,
    ``lap``, ``lam`` and ``rho``) with its dense Gram matrix."""
    return solve_factor(p.xm, p.a_prev, dense_gram(p.m), p.lap, p.lam, p.rho)


def solve_dense(p):
    return solve_factor_dense(p.xm, p.a_prev, p.m, p.lap, p.lam, p.rho)


def random_problem(seed, q=None, s=None, p=None, lam=None, rho=None):
    rng = np.random.default_rng(seed)
    q = q or int(rng.integers(2, 8))
    s = s or int(rng.integers(1, 6))
    p = p or int(rng.integers(s, s + 12))
    lam = float(rng.uniform(0.05, 1.0)) if lam is None else lam
    rho = float(rng.uniform(0.05, 0.5)) if rho is None else rho
    lap = CirculantLaplacian(q, float(rng.uniform(0.2, 0.8)))
    x = rng.standard_normal((q, p))
    m = rng.standard_normal((s, p))
    return SimpleNamespace(
        xm=x @ m.T,
        m=m,
        a_prev=rng.standard_normal((q, s)),
        lap=lap,
        lam=lam,
        rho=rho,
    )


def subproblem_objective(a, p):
    """The subproblem's objective less the constant 1/2 ||X_(k)||^2."""
    fit = 0.5 * np.linalg.norm(a @ p.m) ** 2 - float(np.sum(a * p.xm))
    reg = 0.5 * p.lam * p.lap.trace_penalty(a)
    prox = 0.5 * p.rho * np.linalg.norm(a - p.a_prev) ** 2
    return fit + reg + prox


def test_pure_proximal_fixed_point():
    # with no data term and no smoothing the anchor is already optimal
    rng = np.random.default_rng(0)
    q, s, p = 5, 3, 7
    m = np.zeros((s, p))
    prob = SimpleNamespace(
        xm=rng.standard_normal((q, p)) @ m.T,
        m=m,
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5),
        lam=0.0,
        rho=1.0,
    )
    out = solve(prob)
    assert np.allclose(out, prob.a_prev, rtol=1e-12, atol=1e-13)


def test_vanishing_damping_recovers_least_squares():
    rng = np.random.default_rng(1)
    q, s, p = 4, 3, 20
    m = rng.standard_normal((s, p))
    x = rng.standard_normal((q, p))
    prob = SimpleNamespace(
        xm=x @ m.T,
        m=m,
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5),
        lam=0.0,
        rho=1e-12,
    )
    out = solve(prob)
    ols = x @ m.T @ np.linalg.inv(m @ m.T)
    assert np.linalg.norm(out - ols) / np.linalg.norm(ols) <= 1e-8


def test_scalar_closed_form():
    lap = CirculantLaplacian(1, 0.5)
    ell = float(laplacian_dense(lap)[0, 0])
    x, m, a, lam, rho = 1.7, 0.8, -0.4, 0.35, 0.1
    prob = SimpleNamespace(
        xm=np.array([[x * m]]),
        m=np.array([[m]]),
        a_prev=np.array([[a]]),
        lap=lap,
        lam=lam,
        rho=rho,
    )
    want = (x * m + rho * a) / (m * m + lam * ell + rho)
    assert solve(prob)[0, 0] == pytest.approx(want, rel=1e-12)
    assert solve_dense(prob)[0, 0] == pytest.approx(want, rel=1e-12)


def test_matches_dense_oracle():
    for seed in range(30):
        prob = random_problem(seed)
        fast = solve(prob)
        dense = solve_dense(prob)
        err = np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-30)
        assert err <= 1e-8, f"seed {seed}: {err}"


def test_stationarity_residual():
    """The solution must satisfy the normal equations of the subproblem."""
    for seed in range(20):
        prob = random_problem(500 + seed)
        a = solve(prob)
        gram = prob.m @ prob.m.T
        lhs = a @ gram + prob.lam * prob.lap.matvec(a) + prob.rho * a
        rhs = prob.xm + prob.rho * prob.a_prev
        res = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-8, f"seed {seed}: {res}"


def test_strictly_decreases_objective():
    for seed in range(10):
        prob = random_problem(900 + seed)
        a = solve(prob)
        before = subproblem_objective(prob.a_prev, prob)
        after = subproblem_objective(a, prob)
        assert after < before


def test_column_permutation_invariance():
    rng = np.random.default_rng(2)
    prob = random_problem(77, q=5, s=3, p=9)
    perm = rng.permutation(9)
    shuffled = SimpleNamespace(
        xm=prob.xm,
        m=prob.m[:, perm],
        a_prev=prob.a_prev,
        lap=prob.lap,
        lam=prob.lam,
        rho=prob.rho,
    )
    a0 = solve(prob)
    a1 = solve(shuffled)
    assert np.allclose(a0, a1, rtol=1e-12, atol=1e-13)


def test_eig_gram_identity_and_zero():
    c, phi = eig_gram(np.eye(4))
    assert np.allclose(phi, np.ones(4), atol=1e-12)
    recon = c @ np.diag(phi) @ c.T
    assert np.allclose(recon, np.eye(4), atol=1e-12)

    c, phi = eig_gram(dense_gram(np.zeros((3, 5))))
    assert np.allclose(phi, 0.0, atol=1e-14)
    assert np.allclose(c @ c.T, np.eye(3), atol=1e-12)


def test_eig_gram_reconstruction_and_clamping():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 20))
    c, phi = eig_gram(dense_gram(m))
    assert np.all(phi >= 0.0)
    recon = c @ np.diag(phi) @ c.T
    want = m @ m.T
    assert np.linalg.norm(recon - want) / np.linalg.norm(want) <= 1e-10
    with pytest.raises(ValueError):
        dense_gram(np.zeros(3))


def test_flipped_sign_guard_raises():
    """The raw operator orientation makes the spectral denominator go
    nonpositive once the smoothing weight dominates; the solver must refuse
    rather than divide."""
    rng = np.random.default_rng(7)
    q, s, p = 4, 2, 6
    prob = SimpleNamespace(
        xm=rng.standard_normal((q, s)),
        m=np.zeros((s, p)),
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5, "as-printed"),
        lam=1.0,
        rho=0.1,
    )
    with pytest.raises(NumericalFailure):
        solve(prob)


def test_subproblem_validation():
    rng = np.random.default_rng(8)
    q, s, p = 4, 3, 6
    m = rng.standard_normal((s, p))
    xm = rng.standard_normal((q, p)) @ m.T
    a = rng.standard_normal((q, s))
    g = dense_gram(m)
    lap = CirculantLaplacian(q, 0.5)
    solve_factor(xm, a, g, lap, 0.1, 0.1)
    for args in [
        (xm, a, dense_gram(rng.standard_normal((s + 1, p))), lap, 0.1, 0.1),
        (xm, rng.standard_normal((q, s + 1)), g, lap, 0.1, 0.1),
        (xm[:, :-1], a, g, lap, 0.1, 0.1),
        (xm, a, g, CirculantLaplacian(q + 1, 0.5), 0.1, 0.1),
        (xm, a, g, lap, -0.1, 0.1),
        (xm, a, g, lap, 0.1, 0.0),
        (xm, a, g, lap, np.nan, 0.1),
        (xm, a, g, lap, 0.1, np.nan),
    ]:
        with pytest.raises(ValueError):
            solve_factor(*args)


def test_dense_oracle_size_guard():
    rng = np.random.default_rng(9)
    q, s, p = 70, 60, 80
    prob = SimpleNamespace(
        xm=rng.standard_normal((q, s)),
        m=rng.standard_normal((s, p)),
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5),
        lam=0.1,
        rho=0.1,
    )
    with pytest.raises(ValueError):
        solve_dense(prob)
