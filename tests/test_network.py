"""Tests for the factor network: rank table, factors, composition, the
leave-one-out partial network, the reuse of chain intermediates within a
sweep, and the contraction cost model."""
import numpy as np
import pytest

from fctnlr.fileio import sample_mask
from fctnlr.network import (
    FctnFactors,
    FctnRank,
    _compose_except_cached_labeled,
    compose,
    compose_except,
    env_data_product,
    factor_labels,
    gram_except,
    matrix_labels,
    property1_unfold,
    shuffle_order,
    sweep_plan,
)
from fctnlr.solver import Observation, SolverConfig, run
from fctnlr.tensor import FLOPS, mode_unfold
from oracles import (
    cached_build,
    compose_flops,
    compose_from_partial_flops,
    env_proj_flops,
    gram_except_flops,
    nested_sum_compose,
    network_matrix,
    partial_chain_flops,
    partial_sweep_flops,
    partial_sweep_flops_cached,
    uniform_plan,
)


def plain_m(f, k):
    """Network matrix of factor k from the baseline build."""
    return property1_unfold(compose_except(f, k), k, f.n)


def cached_m(f, k, order, kept):
    """Network matrix of factor k from the cached build: a view of it."""
    return property1_unfold(cached_build(f, k, order, kept), k, f.n)


def random_network(seed, n=None, max_extent=4, max_rank=3):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(3, 5))
    dims = tuple(int(v) for v in rng.integers(2, max_extent + 1, size=n))
    tri = [int(v) for v in rng.integers(1, max_rank + 1, size=n * (n - 1) // 2)]
    rank = FctnRank(n, tri)
    return FctnFactors.random(dims, rank, rng)


# ---------- rank table ---------- #


def test_rank_table_upper_triangle_layout():
    r = FctnRank(4, [1, 2, 3, 4, 5, 6])
    assert r[0, 1] == 1 and r[0, 2] == 2 and r[0, 3] == 3
    assert r[1, 2] == 4 and r[1, 3] == 5 and r[2, 3] == 6
    # symmetric access
    assert r[3, 1] == r[1, 3] == 5
    assert r.entries == (1, 2, 3, 4, 5, 6)


def test_rank_table_validation():
    with pytest.raises(ValueError):
        FctnRank(1, [])
    with pytest.raises(ValueError, match="rank table takes one number or a list of 3, got a list of 2"):
        FctnRank(3, [1, 2])
    with pytest.raises(ValueError):
        FctnRank(3, [1, 0, 2])
    # a non-integral entry is refused, not truncated; an integral float passes
    for bad in (2.5, np.nan, np.inf):
        with pytest.raises(ValueError, match="integer"):
            FctnRank(3, [1, bad, 2])
    assert FctnRank(3, [1, 2.0, np.int64(2)]).entries == (1, 2, 2)
    # an entry no int64 holds is refused before the cast, which would wrap it
    # with a RuntimeWarning (an error here)
    for big in (1e20, 2**63 - 1, "9223372036854775807"):
        with pytest.raises(ValueError, match=r"rank entries must be below 2\*\*63"):
            FctnRank(3, [1, big, 2])
    r = FctnRank(3, [1, 2, 3])
    with pytest.raises(KeyError):
        r[1, 1]
    with pytest.raises(KeyError):
        r[0, 3]


def test_rank_uniform_and_from_spec():
    assert FctnRank.uniform(4, 2).entries == FctnRank(4, 2).entries == (2,) * 6
    assert FctnRank.from_spec(3, 5) == FctnRank.uniform(3, 5)
    assert FctnRank.from_spec(3, [1, 2, 3]) == FctnRank(3, [1, 2, 3])
    assert FctnRank.from_spec(3, np.array(2)) == FctnRank.from_spec(3, 2.0) == FctnRank.uniform(3, 2)
    for bad in (2.5, 1.7):
        with pytest.raises(ValueError, match="integer"):
            FctnRank.from_spec(3, bad)
    same = FctnRank.uniform(3, 2)
    assert FctnRank.from_spec(3, same) is same
    with pytest.raises(ValueError):
        FctnRank.from_spec(4, same)


def test_rank_factor_shape_and_bond_product():
    r = FctnRank(3, [2, 3, 4])
    # factor 1 carries bond (0,1)=2 at slot 0, its extent at slot 1, bond (1,2)=4 at slot 2
    assert r.factor_shape(1, (5, 6, 7)) == (2, 6, 4)
    assert r.factor_shape(0, (5, 6, 7)) == (5, 2, 3)
    assert r.bond_product(1) == 8
    assert r.bond_product(0) == 6
    with pytest.raises(ValueError):
        r.factor_shape(0, (5, 6))


def test_rank_growth_helpers():
    r = FctnRank(3, [1, 2, 1])
    cap = FctnRank(3, [2, 2, 3])
    assert r.any_below(cap)
    bumped = r.increment_below(cap)
    assert bumped.entries == (2, 2, 2)
    again = bumped.increment_below(cap)
    assert again.entries == (2, 2, 3)
    assert not again.any_below(cap)
    assert again.increment_below(cap).entries == (2, 2, 3)
    for grow in (r.any_below, r.increment_below):
        with pytest.raises(ValueError, match="cap table size mismatch"):
            grow(FctnRank.uniform(4, 2))


# ---------- factors ---------- #


def test_factors_shape_validation():
    rng = np.random.default_rng(0)
    good = FctnFactors.random((3, 4), FctnRank.uniform(2, 2), rng)
    assert good.n == 2
    with pytest.raises(ValueError):
        FctnFactors([np.zeros((3, 2))])
    with pytest.raises(ValueError):
        FctnFactors([np.zeros((3, 2)), np.zeros((2, 4, 1))])
    with pytest.raises(ValueError):
        # bond (0,1) disagrees: 2 on one side, 3 on the other
        FctnFactors([np.zeros((3, 2)), np.zeros((3, 4))])


def test_factors_random_shapes_match_rank_table():
    rng = np.random.default_rng(1)
    dims = (4, 3, 5)
    rank = FctnRank(3, [2, 1, 3])
    f = FctnFactors.random(dims, rank, rng)
    for k in range(3):
        assert f.factor(k).shape == rank.factor_shape(k, dims)
    assert f.dims == dims
    assert f.rank == rank


def test_factors_with_factor_swaps_one_factor():
    f = random_network(2, n=3)
    before = [f.factor(k) for k in range(3)]
    g = f.with_factor(1, before[1] * 2.0)
    assert np.array_equal(g.factor(1), before[1] * 2.0)
    assert g.factor(0) is before[0] and g.factor(2) is before[2]
    # the original network still holds its old arrays
    assert all(f.factor(k) is before[k] for k in range(3))
    assert g.rank == f.rank and g.dims == f.dims
    # a C-ordered integer factor is stored as the constructor stores one
    h = f.with_factor(2, np.ones(before[2].shape, dtype=int))
    assert h.factor(2).dtype == np.float64 and h.factor(2).flags.f_contiguous
    with pytest.raises(ValueError):
        f.with_factor(0, np.zeros((1, 1, 1)))
    assert not hasattr(f, "replace")


def test_factors_grow_embeds_old_block():
    rng = np.random.default_rng(4)
    f = FctnFactors.random((3, 4, 2), FctnRank.uniform(3, 1), rng)
    big = f.grow(FctnRank.uniform(3, 2))
    for k in range(3):
        old = f.factor(k)
        sl = tuple(slice(0, s) for s in old.shape)
        assert np.array_equal(big.factor(k)[sl], old)
        assert big.factor(k).sum() == pytest.approx(old.sum())
    # zero-filled growth composes to the same tensor
    assert np.allclose(compose(big), compose(f), rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        big.grow(FctnRank.uniform(3, 1))
    with pytest.raises(ValueError, match="rank table size mismatch"):
        big.grow(FctnRank.uniform(4, 2))


# ---------- labels ---------- #


def test_factor_labels_slot_order():
    assert factor_labels(1, 3) == [("r", 0, 1), ("i", 1), ("r", 1, 2)]
    assert factor_labels(0, 2) == [("i", 0), ("r", 0, 1)]


def test_matrix_labels_physical_then_bonds():
    assert matrix_labels(1, 3) == [("i", 0), ("i", 2), ("r", 0, 1), ("r", 1, 2)]
    assert matrix_labels(0, 3) == [("i", 1), ("i", 2), ("r", 0, 1), ("r", 0, 2)]


# ---------- composition ---------- #


def test_compose_two_factor_matrix_product():
    rng = np.random.default_rng(5)
    f = FctnFactors.random((4, 5), FctnRank.uniform(2, 3), rng)
    want = f.factor(0) @ f.factor(1)
    assert np.allclose(compose(f), want, rtol=1e-13, atol=1e-14)


def test_compose_rank_one_outer_product():
    rng = np.random.default_rng(6)
    f = FctnFactors.random((3, 4, 2), FctnRank.uniform(3, 1), rng)
    v0 = f.factor(0).reshape(3)
    v1 = f.factor(1).reshape(4)
    v2 = f.factor(2).reshape(2)
    want = np.einsum("i,j,k->ijk", v0, v1, v2)
    assert np.allclose(compose(f), want, rtol=1e-13, atol=1e-14)


def test_compose_matches_nested_sum():
    for seed in range(8):
        f = random_network(700 + seed, max_extent=3, max_rank=2)
        got = compose(f)
        want = nested_sum_compose(f)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err <= 1e-12


def test_compose_except_two_factors_returns_the_other():
    rng = np.random.default_rng(7)
    f = FctnFactors.random((4, 5), FctnRank.uniform(2, 3), rng)
    # the single remaining factor, its physical mode first: factor 0 as it
    # is, factor 1 transposed
    assert np.array_equal(compose_except(f, 1), f.factor(0))
    assert np.array_equal(compose_except(f, 0), f.factor(1).T)


def test_compose_except_matches_einsum_oracle():
    """Pin down the matrix_labels mode order of the order-6 partial network
    for n=4, k=2 with an explicit einsum over the other three factors."""
    f = random_network(8, n=4)
    m = compose_except(f, 2)
    f0, f1, f3 = f.factor(0), f.factor(1), f.factor(3)
    want = np.einsum("adef,dbgh,fhmc->abcegm", f0, f1, f3)
    assert m.shape == want.shape
    assert np.allclose(m, want, rtol=1e-12, atol=1e-13)


def test_property1_identity_random_networks():
    for seed in range(12):
        f = random_network(900 + seed)
        full = compose(f)
        for k in range(f.n):
            lhs = mode_unfold(full, k)
            a_k = mode_unfold(f.factor(k), k)
            rhs = a_k @ property1_unfold(compose_except(f, k), k, f.n)
            err = np.linalg.norm(lhs - rhs) / np.linalg.norm(lhs)
            assert err <= 1e-12, f"seed {seed} mode {k}: {err}"


def test_property1_unfold_order_check():
    with pytest.raises(ValueError):
        property1_unfold(np.zeros((2, 2, 2)), 0, 3)
    # a partial in any layout but F-contiguous matrix_labels order is refused
    with pytest.raises(ValueError, match="not F-contiguous"):
        property1_unfold(np.zeros((2, 3, 2, 3), order="C"), 0, 3)


def _sweep_chains(f, order, env=None):
    """Run the chains of every position of an ``afctnlr`` sweep plan in
    ``order`` (route forced by ``env``) with no factor replaced; returns
    the plan and its store, which then holds what the compose chain starts
    from."""
    plan = sweep_plan(f.rank, f.dims, tuple(order), "afctnlr", env)
    kept, x = {}, np.zeros(f.dims, order="F")
    for pos in plan.positions:
        if pos.product is not None:
            env_data_product(f, pos.k, pos.product, x, kept)
        else:
            _compose_except_cached_labeled(f, pos.build, kept)
    return plan, kept


def test_compose_from_partial_matches_compose():
    """The compose chain of an afctnlr plan, one step from the last
    position's partial network, composes the network with each factor last,
    on either route."""
    for seed in range(6):
        f = random_network(1000 + seed)
        full = compose(f)
        for k in range(f.n):
            order = tuple(j for j in range(f.n) if j != k) + (k,)
            for env in (False, True):
                plan, kept = _sweep_chains(f, order, env)
                got = compose(f, plan.compose, kept)
                err = np.linalg.norm(got - full) / np.linalg.norm(full)
                assert err <= 1e-12
                assert kept == {}
    # a kept partial that is not the network's is refused
    plan = sweep_plan(f.rank, f.dims, tuple(range(1, f.n)) + (0,), "afctnlr")
    with pytest.raises(ValueError):
        compose(f, plan.compose, {plan.compose[0]: (np.zeros((2, 2)), matrix_labels(0, f.n))})


def test_compose_from_partial_flop_count():
    rng = np.random.default_rng(9)
    n, i, r = 4, 3, 2
    f = FctnFactors.random((i,) * n, FctnRank.uniform(n, r), rng)
    plan, kept = _sweep_chains(f, (0, 2, 3, 1))
    FLOPS.reset()
    before = FLOPS.labeled("compose")
    compose(f, plan.compose, kept)
    assert FLOPS.labeled("compose") - before == 2 * i**n * r ** (n - 1)
    assert plan.flops["compose"] == 2 * i**n * r ** (n - 1)
    assert compose_from_partial_flops(n, i, r) == 2 * i**n * r ** (n - 1)


def _check_network_matrix_orders(f, orders):
    """Every visiting order of the cached build (the prefix/suffix route's
    builds) yields, as a view of the build, the einsum oracle's network
    matrix, and the plan's compose chain then composes the network from the
    last one."""
    full = compose(f)
    for order in orders:
        plan = sweep_plan(f.rank, f.dims, tuple(order), "afctnlr", False)
        kept = {}  # one sweep per order
        for pos in plan.positions:
            want = network_matrix(f, pos.k)
            arr = _compose_except_cached_labeled(f, pos.build, kept)
            m = property1_unfold(arr, pos.k, f.n)
            assert np.shares_memory(m, arr)
            assert np.linalg.norm(m - want) <= 1e-12 * np.linalg.norm(want)
        got = compose(f, plan.compose, kept)
        err = np.linalg.norm(got - full) / np.linalg.norm(full)
        assert err <= 1e-12


def test_compose_from_partial_view_any_label_order():
    """The cached build's network matrix must match the oracle's under any
    visiting order, and compose back to the chain's composition."""
    f = random_network(10, n=4)
    _check_network_matrix_orders(f, [(0, 1, 2, 3), (2, 0, 3, 1), (3, 2, 1, 0)])


@pytest.mark.parametrize("n", [3, 5])
def test_network_matrix_any_label_order_other_orders(n):
    # the layout of the last contraction depends on how many factors each
    # chain holds, so check other network orders under a shuffled order too
    f = random_network(15 + n, n=n, max_extent=3, max_rank=2)
    order = shuffle_order(tuple(range(n)), np.random.default_rng(n))
    assert order != tuple(range(n))
    _check_network_matrix_orders(f, [tuple(range(n)), order])


# ---------- cached partial builds ---------- #


def _sweep_builds(f, order, rng):
    """The builds of one sweep in ``order``: each factor's cached network
    matrix checked against the plain one, then the factor replaced, as the
    solver does after its solve.  Returns the network after the sweep."""
    kept = {}
    for k in order:
        got = cached_m(f, k, order, kept)
        want = plain_m(f, k)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        f = f.with_factor(k, f.factor(k) * rng.uniform(0.5, 1.5))
    return f


def test_cached_equals_plain_cold_and_warm():
    # the first build of a sweep starts cold, later ones reuse its chains
    f = random_network(11, n=4)
    rng = np.random.default_rng(0)
    for _ in range(3):
        f = _sweep_builds(f, (0, 1, 2, 3), rng)


def test_cached_equals_plain_shuffled_orders():
    f = random_network(12, n=5, max_extent=3, max_rank=2)
    rng = np.random.default_rng(0)
    order = tuple(range(5))
    for _ in range(4):
        f = _sweep_builds(f, order, rng)
        order = shuffle_order(order, rng)


def _build_flops(f, k, order, kept):
    """The ``mk`` FLOPs of factor k's cached build and its network matrix."""
    FLOPS.reset()
    m = cached_m(f, k, order, kept)
    return FLOPS.labeled("mk"), m


def test_cache_shares_suffix_between_first_two_positions():
    # visiting 0 then 1, the second build reuses the suffix pair 2-3 and
    # costs only the join of factor 0 with it, less than the plain chain
    n, i, r = 4, 5, 2
    rng = np.random.default_rng(13)
    f = FctnFactors.random((i,) * n, FctnRank.uniform(n, r), rng)
    order = (0, 1, 2, 3)
    kept = {}
    cached_build(f, 0, order, kept)
    f = f.with_factor(0, rng.standard_normal(f.factor(0).shape))
    flops, got = _build_flops(f, 1, order, kept)
    assert flops == 2 * i**3 * r**5
    assert flops < partial_chain_flops(n, i, r)
    want = plain_m(f, 1)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_cache_shares_prefix_between_last_two_positions():
    # visiting 2 then 3, the second build extends the kept prefix 0-1 by the
    # updated factor 2 only, less than the plain chain
    n, i, r = 4, 5, 2
    rng = np.random.default_rng(14)
    f = FctnFactors.random((i,) * n, FctnRank.uniform(n, r), rng)
    order = (0, 1, 2, 3)
    kept = {}
    cached_build(f, 2, order, kept)
    f = f.with_factor(2, rng.standard_normal(f.factor(2).shape))
    flops, got = _build_flops(f, 3, order, kept)
    assert flops == 2 * i**3 * r**5
    assert flops < partial_chain_flops(n, i, r)
    want = plain_m(f, 3)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_build_without_its_kept_chain_raises():
    # position 1 of (0, 1, 2, 3) starts its suffix from the pair 2-3 that
    # position 0 keeps; without it the build refuses rather than rebuild
    f = random_network(16, n=4)
    with pytest.raises(KeyError):
        cached_build(f, 1, (0, 1, 2, 3), {})


@pytest.mark.parametrize("n, i, r", [(4, 5, 2), (5, 4, 2)])
def test_run_reuse_is_the_same_every_sweep(n, i, r):
    """Chains are reused within a sweep only, so every shuffled sweep of
    afctnlr does the partial-network work of the cost model, no more and no
    less."""
    dims = (i,) * n
    truth = np.random.default_rng(1).standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, 0.4, 1))
    res = run(obs, SolverConfig(eps=0.0, max_iters=8, max_rank=r, initial_rank=r,
                                rank_policy="fixed", algorithm="afctnlr", seed=1))
    assert [rec.mk_flops for rec in res.trace] == [partial_sweep_flops_cached(n, i, r)] * 8


def test_shuffle_order_deterministic_and_uniform():
    a = shuffle_order((0, 1, 2, 3), np.random.default_rng(42))
    b = shuffle_order((0, 1, 2, 3), np.random.default_rng(42))
    assert a == b
    assert shuffle_order((0,), np.random.default_rng(0)) == (0,)
    rng = np.random.default_rng(7)
    counts = {}
    draws = 10000
    for _ in range(draws):
        p = shuffle_order((0, 1, 2, 3), rng)
        assert sorted(p) == [0, 1, 2, 3]
        counts[p] = counts.get(p, 0) + 1
    assert len(counts) == 24
    for p, c in counts.items():
        assert abs(c / draws - 1.0 / 24.0) <= 0.01, f"{p}: {c / draws}"


# ---------- cost model ---------- #


def test_cost_model_matches_measured_counters():
    n, i, r = 4, 5, 2
    rng = np.random.default_rng(17)
    f = FctnFactors.random((i,) * n, FctnRank.uniform(n, r), rng)

    FLOPS.reset()
    compose(f)
    assert FLOPS.labeled("compose") == compose_flops(n, i, r)

    FLOPS.reset()
    compose_except(f, 2)
    assert FLOPS.labeled("mk") == partial_chain_flops(n, i, r)

    FLOPS.reset()
    for k in range(n):
        compose_except(f, k)
    assert FLOPS.labeled("mk") == partial_sweep_flops(n, i, r)

    FLOPS.reset()
    kept = {}
    for k in range(n):
        cached_build(f, k, tuple(range(n)), kept)
    assert FLOPS.labeled("mk") == partial_sweep_flops_cached(n, i, r)

    FLOPS.reset()
    gram_except(f, 1)
    assert FLOPS.labeled("gram") == FLOPS.total == gram_except_flops(n, i, r)


@pytest.mark.parametrize("n, i, r, doubled", [
    (3, 48, 6, True), (5, 14, 3, True),  # the doubled network is cheaper
    (3, 6, 3, False), (5, 4, 3, False),  # R^2 large against I: dense M M^T
])
@pytest.mark.parametrize("algorithm", ["fctnlr", "afctnlr"])
def test_sweep_gram_flops_match_cost_model(n, i, r, doubled, algorithm):
    """One solver sweep outside order four: each factor's Gram takes the
    route the cost rule picks, the gram-labelled FLOPs are that route's
    closed form, and every phase's FLOPs are the cost model's, afctnlr's
    on the doubled shapes those of the environment route."""
    dims = (i,) * n
    assert all(pos.doubled == doubled for pos in uniform_plan(n, i, r, "fctnlr").positions)
    truth = np.random.default_rng(3).standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, 0.5, 3))
    cfg = SolverConfig(eps=0.0, max_iters=1, max_rank=r, initial_rank=r,
                       rank_policy="fixed", algorithm=algorithm, seed=3)
    FLOPS.reset()
    res = run(obs, cfg)
    sweep = res.trace[0]
    per_factor = gram_except_flops(n, i, r) if doubled else 2 * i ** (n - 1) * r ** (2 * (n - 1))
    assert FLOPS.labeled("gram") == n * per_factor
    assert FLOPS.labeled("unlabeled") == 0
    pred = uniform_plan(n, i, r, algorithm).flops
    assert {lab: getattr(sweep, f"{lab}_flops") for lab in pred} == pred
    if algorithm == "fctnlr" or not doubled:
        assert pred["proj"] == n * compose_from_partial_flops(n, i, r)
    else:
        assert pred["mk"] == partial_chain_flops(n, i, r)
        assert pred["proj"] == env_proj_flops(n, i, r)


def _grams(rank, dims):
    """Whether each factor's Gram comes from the doubled network, by the plan
    of a fctnlr sweep, where the per-factor rule alone decides."""
    plan = sweep_plan(rank, dims, tuple(range(rank.n)), "fctnlr")
    return [pos.doubled for pos in plan.positions]


def _env_route(rank, dims, last):
    """Whether the plan of an afctnlr sweep ending in factor ``last`` takes
    the environment route."""
    order = tuple(j for j in range(rank.n) if j != last) + (last,)
    return sweep_plan(rank, dims, order, "afctnlr").positions[0].product is not None


def test_sweep_plan_refuses_an_unknown_algorithm():
    with pytest.raises(ValueError, match="bogus"):
        sweep_plan(FctnRank.uniform(3, 2), (4, 5, 6), (0, 1, 2), "bogus")


def test_doubled_gram_route_follows_cost():
    """The doubled network wins on the benchmark shapes and loses where its
    middle intermediates (R^(2 t (n-t)) entries) or its per-call overhead
    outweigh the dense product."""
    for dims, r in [((40,) * 4, 4), ((16,) * 5, 3), ((128,) * 3, 4)]:
        assert _grams(FctnRank.uniform(len(dims), r), dims)[0]
    for dims, r in [((4,) * 5, 3), ((8,) * 5, 3), ((6,) * 6, 2), ((8,) * 6, 3),
                    ((12, 12, 3, 8), 2), ((6, 6, 4), 2)]:
        assert not _grams(FctnRank.uniform(len(dims), r), dims)[0]
    # per factor: at 64x64x3x32 R=2 only the short mode's M is wide enough
    rank = FctnRank.uniform(4, 2)
    assert _grams(rank, (64, 64, 3, 32)) == [False, False, True, False]


def test_sweep_route_follows_the_price():
    """afctnlr's route is chosen per sweep by the price of both routes, by
    the last factor of the visiting order.  At 64x64x3x32 R=2 and R=3 the
    environment route wins unless the order ends in the short mode 2, which
    then drops out of the environments; where the doubled Gram is dear or
    the tensor small the prefix/suffix build wins; on the benchmark's
    fixed-sweep shapes and at 8^6 R=2 the environment route does, and at
    8^6 R=2 the doubled Gram wins per factor too."""
    video = (64, 64, 3, 32)
    for r in (2, 3):
        rank = FctnRank.uniform(4, r)
        assert [_env_route(rank, video, last) for last in range(4)] == [True, True, False, True]
    for dims, r, env in [
        ((12, 12, 3, 8), 1, False), ((12, 12, 3, 8), 2, False),
        ((10,) * 5, 3, False), ((6,) * 6, 2, False),
        ((8,) * 6, 2, True), ((40,) * 4, 4, True), ((16,) * 5, 3, True), ((128,) * 3, 4, True),
    ]:
        rank = FctnRank.uniform(len(dims), r)
        assert [_env_route(rank, dims, last) for last in range(len(dims))] == [env] * len(dims)
    assert _grams(FctnRank.uniform(6, 2), (8,) * 6) == [True] * 6


def test_sweep_flops_with_mixed_grams_match_a_sweep():
    """At 7^6 R=2 afctnlr takes the environment route with the dense Gram
    rule against it: the positions before the last take the doubled Gram,
    the last the dense one, and a measured sweep counts the planned FLOPs by
    label, which are the closed forms' on that route."""
    n, i, r = 6, 7, 2
    dims = (i,) * n
    truth = np.random.default_rng(5).standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, 0.3, 5))
    res = run(obs, SolverConfig(eps=0.0, max_iters=1, max_rank=r, initial_rank=r,
                                rank_policy="fixed", algorithm="afctnlr", seed=5))
    sweep = res.trace[0]
    plan = uniform_plan(n, i, r, "afctnlr")
    assert [pos.doubled for pos in plan.positions] == [True] * (n - 1) + [False]
    pred = plan.flops
    assert {lab: getattr(sweep, f"{lab}_flops") for lab in pred} == pred
    dense = 2 * i ** (n - 1) * r ** (2 * (n - 1))
    assert pred == {
        "mk": partial_chain_flops(n, i, r),
        "compose": compose_from_partial_flops(n, i, r),
        "proj": env_proj_flops(n, i, r),
        "gram": (n - 1) * gram_except_flops(n, i, r) + dense,
    }


def test_cost_model_cached_is_cheaper_for_order_four():
    for i, r in [(5, 2), (20, 3), (40, 4)]:
        assert partial_sweep_flops_cached(4, i, r) < partial_sweep_flops(4, i, r)
        assert compose_from_partial_flops(4, i, r) < compose_flops(4, i, r)


def test_cost_model_closed_forms_order_four():
    # uniform order-4 case collapses to polynomial expressions in i and r
    for i, r in [(5, 2), (20, 3), (40, 4)]:
        assert partial_sweep_flops(4, i, r) == 8 * (i**2 + i**3) * r**5
        assert partial_sweep_flops_cached(4, i, r) == 4 * i**2 * r**5 + 8 * i**3 * r**5
        assert compose_flops(4, i, r) == 2 * (i**2 + i**3) * r**5 + 2 * i**4 * r**3
        assert compose_from_partial_flops(4, i, r) == 2 * i**4 * r**3
        assert gram_except_flops(4, i, r) == 6 * i * r**6 + 4 * r**10
    # the Gram term is the route's: dense M M^T at 5^4 R=2, else the doubled network
    assert uniform_plan(4, 5, 2, "fctnlr").flops["gram"] == 4 * 2 * 5**3 * 2**6
    for i, r in [(20, 3), (40, 4)]:
        assert uniform_plan(4, i, r, "fctnlr").flops["gram"] == 4 * gram_except_flops(4, i, r)
        assert uniform_plan(4, i, r, "fctnlr").flops["proj"] == 4 * 2 * i**4 * r**3
    # the dense Gram GEMM cost 4 * 2 * 40^3 * 4^6 = 2,097,152,000 per sweep here
    assert 4 * gram_except_flops(4, 40, 4) == 20_709_376
    # the environment route: position 0 chains X through three factors, the
    # middle two positions take one and two chain steps, the last one data
    # product
    for i, r in [(5, 2), (20, 3), (40, 4)]:
        assert env_proj_flops(4, i, r) == 6 * i**2 * r**5 + 4 * i**3 * r**5 + 4 * i**4 * r**3
    assert uniform_plan(4, 40, 4, "afctnlr").flops == {
        "mk": 134_348_800, "compose": 327_680_000, "proj": 927_334_400, "gram": 20_709_376}
    assert uniform_plan(4, 40, 4, "fctnlr").flops == {
        "mk": 537_395_200, "compose": 462_028_800, "proj": 1_310_720_000, "gram": 20_709_376}


@pytest.mark.parametrize("algorithm", ["fctnlr", "afctnlr"])
def test_sweep_phases_sum_to_the_sweep(algorithm):
    """Every FLOP of a sweep carries one of the four phase labels, on the
    environment route and off it (rank growth included)."""
    for dims, r in [((20,) * 4, 3), ((6, 5, 4), 2)]:
        truth = np.random.default_rng(4).standard_normal(dims)
        obs = Observation.from_dense(truth, sample_mask(dims, 0.4, 4))
        res = run(obs, SolverConfig(eps=1e-3, max_iters=6, max_rank=r, initial_rank=1,
                                    algorithm=algorithm, seed=4))
        for rec in res.trace:
            assert rec.mk_flops + rec.compose_flops + rec.gram_flops + rec.proj_flops == rec.flops
