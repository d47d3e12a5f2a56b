"""Tests for the closed-form factor subproblem solve and its dense oracle."""
import numpy as np
import pytest

from fctnlr.laplacian import CirculantLaplacian
from fctnlr.sylvester import FactorSubproblem, NumericalFailure, eig_gram, solve_factor
from oracles import solve_factor_dense


def random_problem(seed, q=None, s=None, p=None, lam=None, rho=None):
    rng = np.random.default_rng(seed)
    q = q or int(rng.integers(2, 8))
    s = s or int(rng.integers(1, 6))
    p = p or int(rng.integers(s, s + 12))
    lam = float(rng.uniform(0.05, 1.0)) if lam is None else lam
    rho = float(rng.uniform(0.05, 0.5)) if rho is None else rho
    lap = CirculantLaplacian(q, float(rng.uniform(0.2, 0.8)))
    return FactorSubproblem(
        x_k=rng.standard_normal((q, p)),
        m=rng.standard_normal((s, p)),
        a_prev=rng.standard_normal((q, s)),
        lap=lap,
        lam=lam,
        rho=rho,
    )


def subproblem_objective(a, p):
    fit = 0.5 * np.linalg.norm(a @ p.m - p.x_k) ** 2
    reg = 0.5 * p.lam * p.lap.trace_penalty(a)
    prox = 0.5 * p.rho * np.linalg.norm(a - p.a_prev) ** 2
    return fit + reg + prox


def test_pure_proximal_fixed_point():
    # with no data term and no smoothing the anchor is already optimal
    rng = np.random.default_rng(0)
    q, s, p = 5, 3, 7
    prob = FactorSubproblem(
        x_k=rng.standard_normal((q, p)),
        m=np.zeros((s, p)),
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5),
        lam=0.0,
        rho=1.0,
    )
    out = solve_factor(prob)
    assert np.allclose(out, prob.a_prev, rtol=1e-12, atol=1e-13)


def test_vanishing_damping_recovers_least_squares():
    rng = np.random.default_rng(1)
    q, s, p = 4, 3, 20
    m = rng.standard_normal((s, p))
    x = rng.standard_normal((q, p))
    prob = FactorSubproblem(
        x_k=x,
        m=m,
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5),
        lam=0.0,
        rho=1e-12,
    )
    out = solve_factor(prob)
    ols = x @ m.T @ np.linalg.inv(m @ m.T)
    assert np.linalg.norm(out - ols) / np.linalg.norm(ols) <= 1e-8


def test_scalar_closed_form():
    lap = CirculantLaplacian(1, 0.5)
    ell = float(lap.dense()[0, 0])
    x, m, a, lam, rho = 1.7, 0.8, -0.4, 0.35, 0.1
    prob = FactorSubproblem(
        x_k=np.array([[x]]),
        m=np.array([[m]]),
        a_prev=np.array([[a]]),
        lap=lap,
        lam=lam,
        rho=rho,
    )
    want = (x * m + rho * a) / (m * m + lam * ell + rho)
    assert solve_factor(prob)[0, 0] == pytest.approx(want, rel=1e-12)
    assert solve_factor_dense(prob)[0, 0] == pytest.approx(want, rel=1e-12)


def test_matches_dense_oracle():
    for seed in range(30):
        prob = random_problem(seed)
        fast = solve_factor(prob)
        dense = solve_factor_dense(prob)
        err = np.linalg.norm(fast - dense) / max(np.linalg.norm(dense), 1e-30)
        assert err <= 1e-8, f"seed {seed}: {err}"


def test_stationarity_residual():
    """The solution must satisfy the normal equations of the subproblem."""
    for seed in range(20):
        prob = random_problem(500 + seed)
        a = solve_factor(prob)
        gram = prob.m @ prob.m.T
        lhs = a @ gram + prob.lam * prob.lap.matvec(a) + prob.rho * a
        rhs = prob.x_k @ prob.m.T + prob.rho * prob.a_prev
        res = np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs)
        assert res <= 1e-8, f"seed {seed}: {res}"


def test_strictly_decreases_objective():
    for seed in range(10):
        prob = random_problem(900 + seed)
        a = solve_factor(prob)
        before = subproblem_objective(prob.a_prev, prob)
        after = subproblem_objective(a, prob)
        assert after < before


def test_column_permutation_invariance():
    rng = np.random.default_rng(2)
    prob = random_problem(77, q=5, s=3, p=9)
    perm = rng.permutation(9)
    shuffled = FactorSubproblem(
        x_k=prob.x_k[:, perm],
        m=prob.m[:, perm],
        a_prev=prob.a_prev,
        lap=prob.lap,
        lam=prob.lam,
        rho=prob.rho,
    )
    a0 = solve_factor(prob)
    a1 = solve_factor(shuffled)
    assert np.allclose(a0, a1, rtol=1e-12, atol=1e-13)


def test_precomputed_spectral_pair():
    prob = random_problem(33)
    pair = eig_gram(prob.m)
    assert np.allclose(solve_factor(prob, pair), solve_factor(prob), atol=1e-13)


def test_eig_gram_identity_and_zero():
    pair = eig_gram(np.eye(4))
    assert np.allclose(pair.phi, np.ones(4), atol=1e-12)
    recon = pair.c @ np.diag(pair.phi) @ pair.c.T
    assert np.allclose(recon, np.eye(4), atol=1e-12)

    zero = eig_gram(np.zeros((3, 5)))
    assert np.allclose(zero.phi, 0.0, atol=1e-14)
    assert np.allclose(zero.c @ zero.c.T, np.eye(3), atol=1e-12)


def test_eig_gram_reconstruction_and_clamping():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((5, 20))
    pair = eig_gram(m)
    assert np.all(pair.phi >= 0.0)
    recon = pair.c @ np.diag(pair.phi) @ pair.c.T
    want = m @ m.T
    assert np.linalg.norm(recon - want) / np.linalg.norm(want) <= 1e-10
    with pytest.raises(ValueError):
        eig_gram(np.zeros(3))


def test_flipped_sign_guard_raises():
    """The raw operator orientation makes the spectral denominator go
    nonpositive once the smoothing weight dominates; the solver must refuse
    rather than divide."""
    rng = np.random.default_rng(7)
    q, s, p = 4, 2, 6
    prob = FactorSubproblem(
        x_k=rng.standard_normal((q, p)),
        m=np.zeros((s, p)),
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5, "as-printed"),
        lam=1.0,
        rho=0.1,
    )
    with pytest.raises(NumericalFailure):
        solve_factor(prob)


def test_subproblem_validation():
    rng = np.random.default_rng(8)
    q, s, p = 4, 3, 6
    x = rng.standard_normal((q, p))
    m = rng.standard_normal((s, p))
    a = rng.standard_normal((q, s))
    lap = CirculantLaplacian(q, 0.5)
    with pytest.raises(ValueError):
        FactorSubproblem(x_k=x, m=rng.standard_normal((s, p + 1)), a_prev=a, lap=lap, lam=0.1, rho=0.1)
    with pytest.raises(ValueError):
        FactorSubproblem(x_k=x, m=m, a_prev=rng.standard_normal((q, s + 1)), lap=lap, lam=0.1, rho=0.1)
    with pytest.raises(ValueError):
        FactorSubproblem(x_k=x, m=m, a_prev=a, lap=CirculantLaplacian(q + 1, 0.5), lam=0.1, rho=0.1)
    with pytest.raises(ValueError):
        FactorSubproblem(x_k=x, m=m, a_prev=a, lap=lap, lam=-0.1, rho=0.1)
    with pytest.raises(ValueError):
        FactorSubproblem(x_k=x, m=m, a_prev=a, lap=lap, lam=0.1, rho=0.0)


def test_dense_oracle_size_guard():
    rng = np.random.default_rng(9)
    q, s, p = 70, 60, 80
    prob = FactorSubproblem(
        x_k=rng.standard_normal((q, p)),
        m=rng.standard_normal((s, p)),
        a_prev=rng.standard_normal((q, s)),
        lap=CirculantLaplacian(q, 0.5),
        lam=0.1,
        rho=0.1,
    )
    with pytest.raises(ValueError):
        solve_factor_dense(prob)
