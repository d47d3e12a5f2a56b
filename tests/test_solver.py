"""Tests for the alternating proximal solver: problem data, block updates,
the outer loop, rank growth, and the two variants."""
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fctnlr.fileio import sample_mask
from fctnlr.laplacian import CirculantLaplacian
from fctnlr.metrics import rel_err
from fctnlr.network import FctnFactors, FctnRank, compose
from fctnlr.solver import (
    Observation,
    SolverConfig,
    _add_noise,
    _grow_parts,
    _penalty,
    objective,
    refresh_x,
    run,
)
import fctnlr.network as network_module
import fctnlr.solver as solver_module
import fctnlr.sylvester as sylvester_module
import fctnlr.tensor as tensor_module
from fctnlr.sylvester import NumericalFailure, solve_factor
from fctnlr.tensor import mode_unfold
from oracles import laplacian_dense, update_x


def small_problem(seed, dims=(8, 7, 5), sr=0.4):
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(dims)
    mask = sample_mask(dims, sr, seed)
    return truth, Observation.from_dense(truth, mask)


# ---------- observation ---------- #


def test_observation_zeroes_unobserved_values():
    truth, obs = small_problem(0)
    assert np.array_equal(obs.values[obs.mask], truth[obs.mask])
    assert np.all(obs.values[~obs.mask] == 0.0)
    assert obs.dims == truth.shape


def test_observation_flat_index_first_index_fastest():
    _, obs = small_problem(1)
    want = np.flatnonzero(np.asfortranarray(obs.mask).ravel(order="F"))
    assert np.array_equal(obs.flat_index, want)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(values=np.zeros((2, 3)), mask=np.zeros((3, 2), dtype=bool))
    with pytest.raises(ValueError):
        Observation(values=np.zeros((2, 3)), mask=np.zeros((2, 3), dtype=bool))
    with pytest.raises(ValueError):
        Observation(values=np.zeros(4), mask=np.ones(4, dtype=bool))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_observation_rejects_non_finite_observed_values(bad):
    values = np.ones((3, 4))
    mask = np.zeros((3, 4), dtype=bool)
    mask[0, :] = True
    values[2, 1] = bad  # off the mask: zeroed, accepted
    obs = Observation(values=values, mask=mask)
    assert np.isfinite(obs.values).all()
    values[0, 3] = bad
    with pytest.raises(ValueError, match="finite"):
        Observation(values=values, mask=mask)


# ---------- objective ---------- #


def test_objective_zero_when_data_term_vanishes():
    rng = np.random.default_rng(2)
    f = FctnFactors.random((4, 3, 5), FctnRank.uniform(3, 2), rng)
    x = compose(f)
    laps = [CirculantLaplacian(d, 0.5) for d in x.shape]
    assert objective(x, f, laps, [0.0] * 3) == pytest.approx(0.0, abs=1e-20)


def test_objective_zero_factors_leaves_half_norm():
    rng = np.random.default_rng(3)
    dims = (4, 3, 5)
    rank = FctnRank.uniform(3, 2)
    zeros = FctnFactors([np.zeros(rank.factor_shape(k, dims)) for k in range(3)])
    x = rng.standard_normal(dims)
    laps = [CirculantLaplacian(d, 0.5) for d in dims]
    want = 0.5 * float(np.linalg.norm(x)) ** 2
    assert objective(x, zeros, laps, [0.7] * 3) == pytest.approx(want, rel=1e-13)


def test_objective_matches_independent_recomputation():
    rng = np.random.default_rng(4)
    dims = (3, 4, 2)
    f = FctnFactors.random(dims, FctnRank.uniform(3, 2), rng)
    x = rng.standard_normal(dims)
    lams = [0.35, 0.2, 0.9]
    laps = [CirculantLaplacian(d, 0.5) for d in dims]
    got = objective(x, f, laps, lams)
    want = 0.5 * float(np.linalg.norm(x - compose(f))) ** 2
    for k in range(3):
        a = mode_unfold(f.factor(k), k)
        want += 0.5 * lams[k] * float(np.trace(a.T @ laplacian_dense(laps[k]) @ a))
    assert got == pytest.approx(want, rel=1e-12)


def test_objective_rejects_constraint_violation():
    truth, obs = small_problem(5)
    rng = np.random.default_rng(5)
    f = FctnFactors.random(truth.shape, FctnRank.uniform(3, 1), rng)
    laps = [CirculantLaplacian(d, 0.5) for d in truth.shape]
    bad = obs.values + 1.0
    with pytest.raises(ValueError):
        objective(bad, f, laps, [0.1] * 3, obs=obs)
    # the honest iterate passes
    objective(obs.values, f, laps, [0.1] * 3, obs=obs)


# ---------- x update ---------- #


def test_update_x_zero_damping_substitutes_composition():
    truth, obs = small_problem(6)
    rng = np.random.default_rng(6)
    composed = rng.standard_normal(truth.shape)
    out = update_x(composed, obs.values, obs, 0.0)
    assert np.array_equal(out[obs.mask], obs.values[obs.mask])
    assert np.allclose(out[~obs.mask], composed[~obs.mask], atol=1e-15)


def test_update_x_full_observation_returns_data():
    rng = np.random.default_rng(7)
    truth = rng.standard_normal((4, 5))
    obs = Observation.from_dense(truth, np.ones_like(truth, dtype=bool))
    composed = rng.standard_normal(truth.shape)
    out = update_x(composed, truth * 3.0, obs, 0.2)
    assert np.array_equal(out, truth)


def test_update_x_entrywise_formula():
    rng = np.random.default_rng(8)
    dims = (2, 2, 2)
    truth = rng.standard_normal(dims)
    mask = rng.random(dims) < 0.5
    mask.flat[0] = True
    obs = Observation.from_dense(truth, mask)
    x_prev = rng.standard_normal(dims)
    composed = rng.standard_normal(dims)
    rho = 0.1
    out = update_x(composed, x_prev, obs, rho)
    for idx in np.ndindex(*dims):
        if mask[idx]:
            assert out[idx] == truth[idx]
        else:
            want = (composed[idx] + rho * x_prev[idx]) / (1.0 + rho)
            assert out[idx] == pytest.approx(want, rel=1e-14)


def test_update_x_homogeneous_in_scale():
    # the blend is linear in its tensor inputs, so joint scaling passes through
    truth, obs = small_problem(9)
    c = 7.5
    scaled = Observation.from_dense(truth * c, obs.mask)
    rng = np.random.default_rng(9)
    composed = rng.standard_normal(truth.shape)
    x_prev = rng.standard_normal(truth.shape)
    a = update_x(composed, x_prev, obs, 0.1)
    b = update_x(c * composed, c * x_prev, scaled, 0.1)
    assert np.allclose(b, c * a, rtol=1e-12, atol=1e-12)


# ---------- fused X refresh ---------- #


def refresh_case(seed, dims=(6, 5, 4)):
    """An observation with two observed -0.0 entries, factors, and an
    iterate that agrees with the observations bit for bit."""
    _, obs = small_problem(seed, dims)
    values = obs.values.copy(order="F")
    values.ravel(order="F")[obs.flat_index[:2]] = -0.0
    obs = Observation(values=values, mask=obs.mask)
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, FctnRank.uniform(3, 2), rng)
    x = np.asfortranarray(rng.standard_normal(dims))
    x[obs.mask] = obs.values[obs.mask]
    laps = [CirculantLaplacian(d, 0.5) for d in dims]
    return obs, f, x, laps, [0.35, 0.2, 0.5]


def bits(a):
    return np.ascontiguousarray(a).view("u8")


@pytest.mark.parametrize("rho", [0.1, 1.0, 1e-6])
def test_refresh_x_matches_update_x_and_objective(rho):
    for seed in range(5):
        obs, f, x, laps, lams = refresh_case(40 + seed)
        composed = compose(f)
        x_new, data, step_sq = refresh_x(composed.copy(order="F"), x, obs, rho)
        ref = update_x(composed, x, obs, rho)
        off = ~obs.mask
        assert np.linalg.norm(x_new[off] - ref[off]) <= 1e-14 * np.linalg.norm(ref[off])
        assert np.array_equal(bits(x_new[obs.mask]), bits(obs.values[obs.mask]))
        assert np.array_equal(bits(x_new[obs.mask]), bits(ref[obs.mask]))
        assert np.signbit(x_new.ravel(order="F")[obs.flat_index[:2]]).all()
        assert x_new.flags.f_contiguous
        want = objective(x_new, f, laps, lams, obs=obs)
        assert data + _penalty(f, laps, lams) == pytest.approx(want, rel=1e-12)
        assert step_sq == pytest.approx(float(np.sum((x_new - x) ** 2)), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 5), min_size=2, max_size=5),
    st.sampled_from([1e-8, 0.1, 10.0]),
    st.integers(0, 2**32 - 1),
)
def test_refresh_x_matches_update_x_random(dims, rho, seed):
    """Over random orders, extents and masks with observed -0.0 values, the
    residual-pass refresh keeps every observed entry bit for bit and agrees
    with the direct refresh off the mask; its data term and step equal
    ``1/2 ||x_new - composed||^2`` and ``||x_new - x||^2``.  Errors are
    measured against the inputs' scale, since an entry can cancel to far
    below it."""
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    mask = rng.random(dims) < rng.uniform(0.05, 0.95)
    mask.flat[rng.integers(mask.size)] = True
    values = rng.standard_normal(dims)
    values[mask & (rng.random(dims) < 0.3)] = -0.0
    values.flat[np.flatnonzero(mask)[0]] = -0.0
    obs = Observation(values=values, mask=mask)
    x = np.asfortranarray(rng.standard_normal(dims))
    x[mask] = obs.values[mask]
    composed = np.asfortranarray(rng.standard_normal(dims))
    scale = np.linalg.norm(x) + np.linalg.norm(composed)
    ref = update_x(composed, x, obs, rho)
    x_new, data, step_sq = refresh_x(composed.copy(order="F"), x, obs, rho)
    assert np.array_equal(bits(x_new[mask]), bits(obs.values[mask]))
    off = ~mask
    off_scale = np.linalg.norm(x[off]) + np.linalg.norm(composed[off])
    assert np.linalg.norm(x_new[off] - ref[off]) <= 1e-15 * off_scale
    assert abs(math.sqrt(2.0 * data) - np.linalg.norm(x_new - composed)) <= 1e-15 * scale
    assert abs(math.sqrt(step_sq) - np.linalg.norm(x_new - x)) <= 1e-15 * scale


@pytest.mark.parametrize("algorithm", ["fctnlr", "afctnlr"])
def test_sweep_objective_matches_oracle(algorithm):
    """A sweep's fused objective equals the objective recomputed from its
    iterate and its updated factors."""
    obs, f, _, laps, lams = refresh_case(50)
    cfg = SolverConfig(algorithm=algorithm, lam=lams, rho=0.1)
    x = obs.values.copy(order="F")
    for order in [(0, 1, 2), (2, 0, 1), (1, 2, 0)]:
        # the sweep leaves its input iterate as it is
        before = [x.tobytes()] + [f.factor(k).tobytes() for k in range(f.n)]
        f_new, x_new, obj, _, x_step_sq = solver_module._sweep(f, x, obs, order, laps, lams, cfg)
        assert [x.tobytes()] + [f.factor(k).tobytes() for k in range(f.n)] == before
        assert obj == pytest.approx(objective(x_new, f_new, laps, lams, obs=obs), rel=1e-12)
        assert x_step_sq == pytest.approx(float(np.sum((x_new - x) ** 2)), rel=1e-12)
        f, x = f_new, x_new


def _sweep_peak(extent, algorithm):
    """Traced peak allocation of one sweep at extent^5 R=3 after a warm-up
    sweep, in units of one network matrix M (81 x extent^4 entries)."""
    dims, r = (extent,) * 5, 3
    rng = np.random.default_rng(0)
    obs = Observation.from_dense(rng.standard_normal(dims), rng.random(dims) < 0.3)
    f = FctnFactors.random(dims, FctnRank.uniform(5, r), rng)
    laps = [CirculantLaplacian(d, 0.5) for d in dims]
    lams = [0.35] * 5
    cfg = SolverConfig(algorithm=algorithm, max_rank=r)
    order = (3, 0, 4, 1, 2)
    x = solver_module._sweep(f, obs.values.copy(order="F"), obs, order, laps, lams, cfg)[1]
    tracemalloc.start()
    try:
        solver_module._sweep(f, x, obs, order, laps, lams, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (r**4 * extent**4 * 8)


@pytest.mark.parametrize("algorithm, bound", [("afctnlr", 2.5), ("fctnlr", 2.5)])
def test_sweep_peak_allocation_in_network_matrices(algorithm, bound):
    """A sweep's traced peak allocation at 10^5 R=3, in units of one network
    matrix M (81 x 10^4, 6.5 MB).  A sweep holds one M at a time, the chains
    still to be used and X-sized arrays (an eighth of M here).  Holding every
    chain to the end of the sweep, or the previous factor's M while the next
    is built, read 4.1 M (afctnlr) and 4.8 M (fctnlr); copying fctnlr's
    partial network into M's layout read 2.8 M."""
    assert _sweep_peak(10, algorithm) <= bound


@pytest.mark.parametrize("dims, r", [((8,) * 5, 2), ((12,) * 4, 3), ((24,) * 3, 4)])
def test_fctnlr_sweep_copies_no_partial_network_or_x(dims, r):
    """fctnlr builds each partial network in M's layout and composes straight
    into X's, so its sweep copies no array as large as a partial network or
    X; what it copies are factors and their unfoldings.  The data product is
    held to its batched route here: its copy route unfolds X by design, where
    its timings favour that."""
    n = len(dims)
    rng = np.random.default_rng(n)
    obs = Observation.from_dense(rng.standard_normal(dims), rng.random(dims) < 0.3)
    f = FctnFactors.random(dims, FctnRank.uniform(n, r), rng)
    laps = [CirculantLaplacian(d, 0.5) for d in dims]
    cfg = SolverConfig(algorithm="fctnlr", max_rank=r)
    smallest = min(math.prod(dims) // dims[0] * r ** (n - 1), math.prod(dims))
    copied = []

    def spying(real):
        def spy(a, *args):
            out = real(a, *args)
            if not np.may_share_memory(out, a):
                copied.append(out.size)
            return out
        return spy

    with mock.patch.object(sylvester_module, "_batched_pays", lambda a, b: True):
        with mock.patch.multiple(network_module, gunfold=spying(network_module.gunfold),
                                 transpose=spying(network_module.transpose)):
            with mock.patch.multiple(tensor_module, gunfold=spying(tensor_module.gunfold),
                                     gfold=spying(tensor_module.gfold)):
                solver_module._sweep(f, obs.values.copy(order="F"), obs, tuple(range(n)),
                                     laps, [0.35] * n, cfg)
    assert copied and max(copied) < smallest


def test_environment_sweep_peak_allocation_in_network_matrices():
    """At 14^5 R=3 (M 81 x 14^4, 24.9 MB) afctnlr takes the environment
    route: it holds X-environments where it held chains and builds one M per
    sweep, within the same 2.5 M (2.21 M, as on the chain route).  Copying
    the environments' operands read 2.65 M there."""
    assert _sweep_peak(14, "afctnlr") <= 2.5


@pytest.mark.parametrize("algorithm", ["fctnlr", "afctnlr"])
def test_run_rel_change_and_x_norm_match_direct_recomputation(algorithm):
    """rel_change's numerator comes from the refresh's residual and its
    denominator from the previous sweep's norm; both equal their direct
    recomputation from the iterates of runs cut after 1..4 sweeps."""
    _, obs = small_problem(31)
    base = dict(eps=0.0, max_rank=2, initial_rank=2, rank_policy="fixed",
                algorithm=algorithm, seed=4)
    xs = [obs.values] + [run(obs, SolverConfig(max_iters=t, **base)).x for t in range(1, 5)]
    trace = run(obs, SolverConfig(max_iters=4, **base)).trace
    for t, rec in enumerate(trace):
        prev, new = xs[t], xs[t + 1]
        want = np.linalg.norm(new - prev) / np.linalg.norm(prev)
        assert rec.rel_change == pytest.approx(want, rel=1e-12)
        assert rec.x_norm == pytest.approx(np.linalg.norm(new), rel=1e-12)


# ---------- rank growth ---------- #


def test_increase_rank_zero_noise_preserves_composition():
    rng = np.random.default_rng(10)
    f = FctnFactors.random((4, 3, 5), FctnRank.uniform(3, 1), rng)
    before = compose(f)
    cap = FctnRank.uniform(3, 2)
    grown = _add_noise(f, *_grow_parts(f, cap, np.random.default_rng(0)), 0.0)
    assert grown.rank == cap
    assert np.array_equal(compose(grown), before)


def test_increase_rank_embeds_and_perturbs():
    rng = np.random.default_rng(11)
    f = FctnFactors.random((5, 4, 3), FctnRank.uniform(3, 1), rng)
    cap = FctnRank.uniform(3, 2)
    grown = _add_noise(f, *_grow_parts(f, cap, np.random.default_rng(1)), 1e-2)
    for k in range(3):
        old = f.factor(k)
        sl = tuple(slice(0, s) for s in old.shape)
        assert np.array_equal(grown.factor(k)[sl], old)
        new_mass = np.linalg.norm(grown.factor(k)) ** 2 - np.linalg.norm(old) ** 2
        assert new_mass > 0.0


def test_increase_rank_at_cap_is_identity_data():
    rng = np.random.default_rng(12)
    cap = FctnRank.uniform(3, 2)
    f = FctnFactors.random((4, 3, 5), cap, rng)
    same = _add_noise(f, *_grow_parts(f, cap, np.random.default_rng(2)), 1e-2)
    for k in range(3):
        assert np.array_equal(same.factor(k), f.factor(k))


# ---------- configuration ---------- #


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(rho=0.0)
    with pytest.raises(ValueError):
        SolverConfig(eps=-1e-6)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolverConfig(algorithm="sgd")
    with pytest.raises(ValueError):
        SolverConfig(rank_policy="oracle")
    with pytest.raises(ValueError, match="lam"):
        SolverConfig(lam=[0.3, -0.1, 0.3])
    with pytest.raises(ValueError, match="delta"):
        SolverConfig(delta=0.0)
    with pytest.raises(ValueError, match="rank"):
        SolverConfig(max_rank=0)
    with pytest.raises(ValueError, match="rank"):
        SolverConfig(max_rank=FctnRank.uniform(3, 1), initial_rank=[1, 2, 1])
    # non-integral ranks and sweep counts are refused, not truncated
    with pytest.raises(ValueError, match="integer"):
        SolverConfig(max_rank=2.5)
    with pytest.raises(ValueError, match="integer"):
        SolverConfig(initial_rank=1.7)
    with pytest.raises(ValueError, match="integer"):
        SolverConfig(max_rank=[2, 2.5, 2])
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=2.5)
    SolverConfig(max_rank=[2, 3, 2], initial_rank=2)
    # integral floats and 0-d arrays pass
    assert SolverConfig(max_iters=2.0).max_iters == 2
    _, obs = small_problem(13)
    res = run(obs, SolverConfig(max_iters=2.0, max_rank=2.0, initial_rank=1.0,
                                lam=np.array(0.35), delta=np.array(0.5)))
    assert res.iterations <= 2 and res.factors.rank == FctnRank.from_spec(3, 1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_config_rejects_non_finite_hyperparameters(bad):
    with pytest.raises(ValueError, match="rho"):
        SolverConfig(rho=bad)
    with pytest.raises(ValueError, match="eps"):
        SolverConfig(eps=bad)
    for name in ("lam", "delta"):
        for value in (bad, [0.3, bad, 0.3]):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{name: value})


def test_run_rejects_inconsistent_config():
    _, obs = small_problem(13)
    with pytest.raises(ValueError):
        run(obs, SolverConfig(initial_rank=3, max_rank=2))
    with pytest.raises(ValueError):
        run(obs, SolverConfig(lam=-0.5))
    with pytest.raises(ValueError):
        run(obs, SolverConfig(lam=(0.1, 0.2)))  # needs 1 or 3 values


# ---------- outer loop ---------- #


def test_run_fully_observed_rank_one():
    """A fully observed target leaves nothing to fill in: the iterate stays on
    the data and the factor sweep still lowers the objective."""
    rng = np.random.default_rng(14)
    f0 = FctnFactors.random((6, 5, 4), FctnRank.uniform(3, 1), rng)
    y = compose(f0)
    obs = Observation.from_dense(y, np.ones_like(y, dtype=bool))
    cfg = SolverConfig(lam=0.0, delta=0.5, rho=0.1, eps=1e-6, max_iters=200,
                       max_rank=1, rank_policy="fixed", seed=1)
    res = run(obs, cfg)
    assert np.linalg.norm(res.x - y) / np.linalg.norm(y) <= 1e-6
    assert res.converged
    assert res.objective <= res.initial_objective
    assert np.array_equal(res.x, y)


def test_run_partially_observed_rank_one_recovers():
    rng = np.random.default_rng(15)
    f0 = FctnFactors.random((6, 5, 4), FctnRank.uniform(3, 1), rng)
    y = compose(f0)
    mask = np.random.default_rng(9).random(y.shape) < 0.6
    obs = Observation.from_dense(y, mask)
    cfg = SolverConfig(lam=0.0, delta=0.5, rho=0.1, eps=1e-9, max_iters=300,
                       max_rank=1, rank_policy="fixed", seed=1)
    res = run(obs, cfg)
    assert rel_err(res.x, y, mask=mask) <= 1e-6


def test_run_observed_entries_bit_exact():
    truth, obs = small_problem(16)
    cfg = SolverConfig(max_iters=15, eps=0.0, max_rank=2, rank_policy="fixed",
                       initial_rank=2, seed=3)
    res = run(obs, cfg)
    assert np.array_equal(res.x[obs.mask], truth[obs.mask])


def test_run_sufficient_decrease_with_damping():
    """Every step must pay for its movement: the new objective plus half the
    damped squared step never exceeds the previous objective."""
    truth, obs = small_problem(17, dims=(7, 6, 5), sr=0.35)
    cfg = SolverConfig(lam=0.35, delta=0.5, rho=0.1, eps=0.0, max_iters=60,
                       max_rank=2, rank_policy="fixed", initial_rank=2, seed=0)
    res = run(obs, cfg)
    prev = res.initial_objective
    for rec in res.trace:
        bound = prev + 1e-9 * abs(prev)
        assert rec.objective + 0.5 * cfg.rho * rec.step_sq <= bound, rec.iteration
        prev = rec.objective


@settings(max_examples=25, deadline=None)
@given(
    st.integers(3, 5).flatmap(lambda n: st.tuples(
        st.lists(st.integers(1, 5), min_size=n, max_size=n),
        st.lists(st.integers(1, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2),
    )),
    st.sampled_from(["fixed", "threshold"]),
    st.sampled_from([0.0, 0.35, 2.0]),
    st.sampled_from([1e-3, 0.1, 10.0]),
    st.integers(-3, 3),
    st.integers(0, 2**32 - 1),
)
def test_run_sufficient_decrease_random(network, policy, lam, rho, exponent, seed):
    """Over random networks, rank policies, hyperparameters and data scales,
    eight sweeps of either variant raise no NumericalFailure, and no sweep
    that does not follow a growth step raises the objective by more than
    1e-12 of (|objective| + ||X||^2)."""
    dims, cap = network
    dims = tuple(dims)
    rng = np.random.default_rng(seed)
    mask = rng.random(dims) < 0.5
    mask.flat[0] = True
    obs = Observation.from_dense(10.0**exponent * rng.standard_normal(dims), mask)
    for algorithm in ("fctnlr", "afctnlr"):
        cfg = SolverConfig(lam=lam, rho=rho, eps=1e-3, max_iters=8, max_rank=cap,
                           initial_rank=None if policy == "threshold" else cap,
                           rank_policy=policy, algorithm=algorithm, seed=seed)
        res = run(obs, cfg)
        prev, grown = res.initial_objective, False
        for rec in res.trace:
            if not grown:
                rise = rec.objective - prev
                assert rise <= 1e-12 * (abs(prev) + rec.x_norm**2), (algorithm, rec.iteration)
            prev, grown = rec.objective, rec.rank_grown


def test_run_trace_norms_stay_bounded():
    truth, obs = small_problem(18)
    cfg = SolverConfig(eps=0.0, max_iters=40, max_rank=2, rank_policy="fixed",
                       initial_rank=2, seed=1)
    res = run(obs, cfg)
    x0 = res.trace[0].x_norm
    f0 = res.trace[0].factor_norm
    for rec in res.trace:
        assert np.isfinite(rec.objective)
        assert rec.x_norm <= 1e6 * x0
        assert rec.factor_norm <= 1e6 * f0


def test_run_identity_schedule_variants_agree():
    truth, obs = small_problem(19, dims=(6, 6, 4, 4), sr=0.4)
    common = dict(lam=0.35, delta=0.5, rho=0.1, eps=0.0, max_iters=25,
                  max_rank=2, rank_policy="fixed", initial_rank=2, seed=2)
    base = run(obs, SolverConfig(algorithm="fctnlr", **common))
    accel = run(obs, SolverConfig(algorithm="afctnlr", shuffle=False, **common))
    dx = np.linalg.norm(accel.x - base.x) / np.linalg.norm(base.x)
    assert dx <= 1e-10
    for a, b in zip(base.trace, accel.trace):
        assert b.objective == pytest.approx(a.objective, rel=1e-10)
    # the cached build does strictly less contraction work per sweep
    assert accel.trace[0].mk_flops < base.trace[0].mk_flops
    assert accel.trace[0].compose_flops < base.trace[0].compose_flops


def test_run_environment_route_agrees_with_the_baseline():
    """At 20^4 R=3 every Gram comes from the doubled network, so afctnlr
    takes its data products from kept X-environments (acceptance 07's
    6x6x4x4 instance takes the dense Gram and never gets there); its
    iterates still match the baseline's."""
    truth, obs = small_problem(21, dims=(20,) * 4, sr=0.3)
    common = dict(eps=0.0, max_iters=6, max_rank=3, rank_policy="fixed",
                  initial_rank=3, seed=5)
    base = run(obs, SolverConfig(algorithm="fctnlr", **common))
    accel = run(obs, SolverConfig(algorithm="afctnlr", shuffle=False, **common))
    dx = np.linalg.norm(accel.x - base.x) / np.linalg.norm(base.x)
    assert dx <= 1e-10
    for a, b in zip(base.trace, accel.trace):
        assert b.objective == pytest.approx(a.objective, rel=1e-10)
        assert b.proj_flops < a.proj_flops and b.mk_flops < a.mk_flops


def test_run_shuffled_schedule_still_descends():
    truth, obs = small_problem(20, dims=(6, 5, 4, 3), sr=0.5)
    cfg = SolverConfig(algorithm="afctnlr", shuffle=True, eps=0.0, max_iters=40,
                       max_rank=2, rank_policy="fixed", initial_rank=2, seed=4)
    res = run(obs, cfg)
    prev = res.initial_objective
    for rec in res.trace:
        assert rec.objective <= prev + 1e-9 * abs(prev)
        prev = rec.objective
    assert np.array_equal(res.x[obs.mask], truth[obs.mask])


def test_run_threshold_policy_grows_rank():
    dims = (10, 10, 3, 6)
    truth = np.random.default_rng(0).standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, 0.3, 0))
    cfg = SolverConfig(lam=0.35, delta=0.5, rho=0.1, eps=1e-4, max_iters=150,
                       max_rank=2, rank_policy="threshold", seed=0)
    res = run(obs, cfg)
    grown = [t for t, rec in enumerate(res.trace) if rec.rank_grown]
    assert len(grown) == 1
    t = grown[0]
    # the table grows at the first sweep whose change falls below 10 * eps
    assert res.trace[t].rel_change < 10 * cfg.eps
    assert all(rec.rel_change >= 10 * cfg.eps for rec in res.trace[:t])
    assert res.trace[t].rank == (1,) * 6
    assert res.trace[t + 1].rank == (2,) * 6
    # growth keeps the objective within the continuity budget and the next
    # sweep resumes the descent from there
    pre = res.trace[t].objective
    assert res.trace[t + 1].objective <= 1.05 * pre + 1e-9


def test_run_eps_stop_waits_for_growth():
    # a loose tolerance must not stop the run while the table can still grow
    truth, obs = small_problem(22, dims=(6, 5, 4), sr=0.5)
    cfg = SolverConfig(eps=0.9, max_iters=50, max_rank=2,
                       rank_policy="threshold", seed=0)
    res = run(obs, cfg)
    assert res.converged
    grown = [rec for rec in res.trace if rec.rank_grown]
    assert grown, "the run stopped without ever growing the table"
    assert res.factors.rank == FctnRank.uniform(3, 2)


def test_run_rising_objective_is_a_numerical_failure(monkeypatch):
    """A PAM sweep cannot raise the objective; a sweep that does stops the
    run instead of ending it as completed."""
    truth, obs = small_problem(27)
    solve = solver_module.solve_factor
    monkeypatch.setattr(solver_module, "solve_factor", lambda *args: 10.0 * solve(*args))
    with pytest.raises(NumericalFailure, match="rose"):
        run(obs, SolverConfig(eps=0.0, max_iters=5, max_rank=2, initial_rank=2,
                              rank_policy="fixed", seed=1))


@pytest.mark.parametrize("algorithm", ["fctnlr", "afctnlr"])
def test_run_roundoff_stall_is_not_a_failure(algorithm):
    """An over-parameterised fit (s = p = 16) with lam 0 and rho 1e-8 drives
    the objective down to roundoff, where some sweeps raise it by about 1e-24
    of the rise check's scale; the run still completes."""
    dims = (4, 4, 4)
    truth = np.random.default_rng(2).standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, 0.4, 2))
    res = run(obs, SolverConfig(eps=0.0, max_iters=150, max_rank=4, initial_rank=4,
                                rank_policy="fixed", algorithm=algorithm,
                                rho=1e-8, lam=0.0, seed=2))
    objs = [rec.objective for rec in res.trace]
    assert len(objs) == 150
    assert any(b > a for a, b in zip(objs, objs[1:]))


def test_run_unchanged_negative_objective_is_not_a_rise(monkeypatch):
    """A sweep that moves nothing (full mask, factor solves pinned to the
    previous factors) at a negative as-printed objective recomputes it to
    within roundoff; the rise check's slack must still be a slack there."""
    dims = (4, 3, 5)
    truth = np.random.default_rng(0).standard_normal(dims)
    obs = Observation.from_dense(truth, np.ones(dims, dtype=bool))
    monkeypatch.setattr(solver_module, "solve_factor", lambda xm, a_prev, *_: a_prev)
    res = run(obs, SolverConfig(eps=0.0, max_iters=3, max_rank=2, initial_rank=2,
                                rank_policy="fixed", laplacian_sign="as-printed",
                                lam=5.0, seed=0))
    assert res.initial_objective < 0.0
    assert res.objective == pytest.approx(res.initial_objective, rel=1e-12)


@pytest.mark.parametrize("algorithm", ["fctnlr", "afctnlr"])
def test_run_gauge_runaway_is_a_numerical_failure(algorithm):
    """With the as-printed penalty the objective is unbounded below along the
    gauge (one factor scaled by c, another by 1/c): every sweep lowers it
    while the largest factor norm grows from 4 towards 1e150 and X stays
    put.  The run must stop with a numeric failure, not complete."""
    truth, obs = small_problem(0, dims=(8, 7, 6, 5))
    cfg = SolverConfig(laplacian_sign="as-printed", lam=0.022, rho=0.1,
                       max_rank=3, max_iters=150, algorithm=algorithm)
    with pytest.raises(NumericalFailure, match="factor norm"):
        run(obs, cfg)


def test_factor_update_scale_homogeneity():
    """Scaling the data matrix and the anchor jointly scales the factor
    solve's output; the outer loop inherits this blockwise."""
    rng = np.random.default_rng(24)
    q, s, p, c = 5, 3, 11, 7.5
    x = rng.standard_normal((q, p))
    m = rng.standard_normal((s, p))
    a = rng.standard_normal((q, s))
    lap = CirculantLaplacian(q, 0.5)
    base = solve_factor(x @ m.T, a, m @ m.T, lap, 0.35, 0.1)
    scaled = solve_factor((c * x) @ m.T, c * a, m @ m.T, lap, 0.35, 0.1)
    assert np.allclose(scaled, c * base, rtol=1e-12, atol=1e-12)


def test_run_trace_records_are_complete():
    truth, obs = small_problem(25)
    cfg = SolverConfig(eps=0.0, max_iters=5, max_rank=2, rank_policy="fixed",
                       initial_rank=2, seed=6)
    res = run(obs, cfg)
    assert [rec.iteration for rec in res.trace] == [1, 2, 3, 4, 5]
    for rec in res.trace:
        assert rec.flops > 0
        assert rec.mk_flops > 0
        assert rec.compose_flops > 0
        assert rec.wall_ms >= 0.0
        assert rec.rank == (2, 2, 2)
        assert np.isfinite(rec.x_norm) and np.isfinite(rec.factor_norm)
