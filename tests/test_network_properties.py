"""Property tests of the plain and the accelerated partial-network builds,
of the chain composition, of the data products from kept X-environments and
of the doubled-network Gram matrix over random network orders, extents, rank
tables and visiting orders, against the einsum and nested-sum oracles, and
of the sweep planner against measured sweeps and the calls they make."""
import contextlib
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fctnlr.network as network
from fctnlr.network import (
    FctnFactors,
    FctnRank,
    _compose_except_cached_labeled,
    _cost,
    _doubled_chain,
    _schedule,
    cached_build_plan,
    compose,
    compose_except,
    env_data_product,
    gram_except,
    matrix_labels,
    property1_unfold,
    sweep_plan,
)
import fctnlr.solver as solver
import fctnlr.sylvester as sylvester
from fctnlr.laplacian import CirculantLaplacian
from fctnlr.solver import Observation, SolverConfig
from fctnlr.tensor import FLOPS, mode_unfold
from oracles import cached_build, gram_dense, nested_sum_compose, network_matrix


@st.composite
def networks(draw, max_n=5, min_n=2):
    n = draw(st.integers(min_n, max_n))
    dims = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    top = 3 if n < 6 else 2  # keeps an order-6 network's middle joins small
    tri = draw(st.lists(st.integers(1, top), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    orders = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=3))
    return dims, FctnRank(n, tri), [tuple(o) for o in orders], draw(st.integers(0, 2**32 - 1))


@st.composite
def small_networks(draw):
    """Networks small enough for the nested-sum oracle, whose cost is the
    number of entries times the number of joint bond indices."""
    n = draw(st.integers(2, 6))
    dims = draw(st.lists(st.integers(1, 4 if n < 6 else 3), min_size=n, max_size=n))
    top = 3 if n < 5 else 2
    tri = draw(st.lists(st.integers(1, top), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    return dims, FctnRank(n, tri), draw(st.integers(0, 2**32 - 1))


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def _chain_flops(f, seq):
    """FLOPs of chaining the factors in ``seq`` left to right, counted from
    the modes each step meets: twice the product of the extents of both
    operands' modes together."""
    n = f.n
    extent = {}
    for j in range(n):
        for p in range(n):
            extent[("i", j) if p == j else frozenset((j, p))] = f.factor(j).shape[p]

    def modes(j):
        return {("i", j)} | {frozenset((j, p)) for p in range(n) if p != j}

    held, flops = modes(seq[0]), 0
    for j in seq[1:]:
        flops += 2 * math.prod(extent[mode] for mode in held | modes(j))
        held ^= modes(j)
    return flops


@settings(max_examples=50, deadline=None)
@given(small_networks())
def test_plain_build_and_composition_match_the_oracles(case):
    """The plain build's network matrix is a view of the partial network and
    equals the einsum oracle's, at the FLOPs of the plain ascending chain;
    the chain composition equals the nested sum, at the FLOPs of its chain."""
    dims, rank, seed = case
    f = FctnFactors.random(dims, rank, np.random.default_rng(seed))
    n = f.n
    for k in range(n):
        before = FLOPS.labeled("mk")
        partial = compose_except(f, k)
        assert FLOPS.labeled("mk") - before == _chain_flops(f, [j for j in range(n) if j != k])
        m = property1_unfold(partial, k, n)
        assert np.shares_memory(m, partial)
        assert _close(m, network_matrix(f, k))
    before = FLOPS.labeled("compose")
    full = compose(f)
    assert FLOPS.labeled("compose") - before == _chain_flops(f, list(range(n)))
    assert _close(full, nested_sum_compose(f))


def _asked_for_after(order, t):
    """Keys of the chains built by position t that a later position starts
    from.  Position u takes the prefix over ``order[:u-1]``, built at position
    u-1, and the suffix over ``order[u+1:]``, built at position 0; a chain is
    kept only if it spans 2 to n-2 factors."""
    n = len(order)
    later = range(t + 1, n)
    chains = [order[: u - 1] for u in later if u - 1 <= t] + [order[u + 1 :] for u in later]
    return {tuple(sorted(c)) for c in chains if 2 <= len(c) <= n - 2}


@settings(max_examples=60, deadline=None)
@given(networks(max_n=7))
def test_every_laid_out_chain_ends_in_its_chain_labels(case):
    """One layout rule for every chain: a chain over ``seq`` writes its last
    step, and targets, ``_chain_labels(seq)``, which over every factor is
    the natural order and over all but k is :func:`matrix_labels` order (the
    remaining physical modes, then the bonds to k, each by ascending
    factor); every partial network either build plans comes out in it."""
    dims, rank, orders, _ = case
    n = rank.n
    sizes = network._mode_sizes(rank, dims)
    assert network._chain_labels(range(n), n) == tuple(("i", j) for j in range(n))
    for k in range(n):
        rest = [j for j in range(n) if j != k]
        assert matrix_labels(k, n) == [("i", j) for j in rest] + [network._bond(j, k) for j in rest]
    for order in orders:
        for t in range(1, n + 1):
            seq = order[:t]
            _, steps, target = network._chain_plan(sizes, n, seq, None)[1]
            assert target == network._chain_labels(seq, n)
            assert [step[1] for step in steps] == [network._chain_labels(seq[: i + 2], n)
                                                   for i in range(t - 1)]
        builds = [(k, network._plain_chain(rank, tuple(dims), tuple(j for j in range(n) if j != k))[1])
                  for k in range(n)]
        builds += list(zip(order, cached_build_plan(rank, dims, order)))
        builds.append((order[-1], network._plain_chain(rank, tuple(dims), order[:-1])[1]))
        for k, (_, steps, target) in builds:
            want = tuple(matrix_labels(k, n))
            assert steps[-1][1] == want if steps else target == want
            assert target in (None, want)


@settings(max_examples=60, deadline=None)
@given(networks(max_n=6))
def test_cached_build_is_the_network_matrix(case):
    dims, rank, orders, seed = case
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, rank, rng)
    n = f.n
    for order in orders:  # one sweep per order
        # each build meters the FLOPs its plan counted from the extents
        plan = cached_build_plan(rank, dims, order)
        kept = {}
        for t, k in enumerate(order):
            before = FLOPS.labeled("mk")
            partial = cached_build(f, k, order, kept)
            assert FLOPS.labeled("mk") - before == _cost(plan[t])[0]
            assert set(kept) == _asked_for_after(order, t)
            m = property1_unfold(partial, k, n)
            assert np.shares_memory(m, partial)
            assert _close(m, network_matrix(f, k))
            assert _close(mode_unfold(f.factor(k), k) @ m, mode_unfold(compose(f), k))
            # as in a sweep: the solved factor replaces k before the next build
            f = f.with_factor(k, rng.standard_normal(f.factor(k).shape))
        assert not kept


def _replay_store(sweep, held):
    """Replay one sweep's planned chains, one per position, on the keys of
    its store alone, starting from the keys in ``held``: each chain takes out
    the key it starts from and each key a step joins, which must be held,
    and each of its steps keeps its key, which must not be held yet.
    Returns what is left."""
    held = set(held)

    def take(src):
        if isinstance(src, tuple):
            assert src in held, src
            held.remove(src)

    for start, steps, _ in sweep:
        take(start)
        for j, *_, key in steps:
            take(j)
            if key is not None:
                assert key not in held, key
                held.add(key)
    return held


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_plan_keeps_only_what_a_later_chain_starts_from(n):
    """Over every visiting order, on the plans alone with no contraction
    run: every key a chain keeps, in ``kept`` (the prefix/suffix route) or in
    ``envs`` (the environment route, which holds X under ``("env", n)``
    first), is started from by exactly one later chain of the same sweep,
    every start or join key was kept before, and nothing is left when the
    sweep ends."""
    rank, dims = FctnRank.uniform(n, 2), (3,) * n
    for order in itertools.permutations(range(n)):
        assert _replay_store(cached_build_plan(rank, dims, order), ()) == set()
        assert _replay_store(_schedule(rank, dims, order), {("env", n)}) == set()


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_every_planned_chain_makes_its_planned_calls(n):
    """Over every visiting order, on both afctnlr routes and the fctnlr
    plan, each position's build of M makes exactly the contraction calls
    its chain counts (:func:`~fctnlr.network._cost`), each data product
    from kept X-environments those of its chain, and the compose chain
    those of its own, after which nothing is kept: the calls a sweep's price
    charges are the calls it makes."""
    rng = np.random.default_rng(n)
    rank, dims = FctnRank.uniform(n, 2), (2,) * n
    f = FctnFactors.random(dims, rank, rng)
    x = np.asfortranarray(rng.standard_normal(dims))
    calls = []
    real = network.contract

    def counted(*args):
        calls.append(None)
        return real(*args)

    with mock.patch.object(network, "contract", counted):
        for order in itertools.permutations(range(n)):
            for algorithm, env in (("fctnlr", None), ("afctnlr", False), ("afctnlr", True)):
                kept, plan = {}, sweep_plan(rank, dims, order, algorithm, env)
                for pos in plan.positions:
                    calls.clear()
                    if pos.product is not None:
                        env_data_product(f, pos.k, pos.product, x, kept)
                    else:
                        _compose_except_cached_labeled(f, pos.build, kept)
                    assert len(calls) == _cost(pos.product or pos.build)[1]
                calls.clear()
                compose(f, plan.compose, kept)
                assert len(calls) == _cost(plan.compose)[1]
                assert kept == {}


@settings(max_examples=60, deadline=None)
@given(networks(max_n=6))
def test_compose_chain_meters_its_plan_and_composes_the_network(case):
    """Over a sweep that replaces each factor after its own position, as the
    solver does, the plan's compose chain (the plain chain for fctnlr, one
    step from the last position's kept partial network on either afctnlr
    route) meters the ``compose`` FLOPs its plan counts and composes the
    network as it is then."""
    dims, rank, orders, seed = case
    rng = np.random.default_rng(seed)
    x = np.asfortranarray(rng.standard_normal(tuple(dims)))
    for order in orders:
        for algorithm, env in (("fctnlr", None), ("afctnlr", False), ("afctnlr", True)):
            f = FctnFactors.random(dims, rank, rng)
            kept, plan = {}, sweep_plan(rank, tuple(dims), order, algorithm, env)
            for pos in plan.positions:
                if pos.product is not None:
                    env_data_product(f, pos.k, pos.product, x, kept)
                else:
                    _compose_except_cached_labeled(f, pos.build, kept)
                f = f.with_factor(pos.k, rng.standard_normal(f.factor(pos.k).shape))
            before = FLOPS.labeled("compose")
            got = compose(f, plan.compose, kept)
            assert FLOPS.labeled("compose") - before == plan.flops["compose"]
            assert _close(got, compose(f))
            assert kept == {}


@settings(max_examples=60, deadline=None)
@given(networks())
# the entries of M cancel here: its 1x1 Gram at k = 1 is 1.77e-7, which the
# doubled network (it sums the squared terms before they cancel) matches to
# 1.04e-10 of itself, but to 7e-17 of the uncancelled scale
@example(([1, 1, 1, 1], FctnRank(4, (1, 2, 1, 1, 1, 1)), [(0, 1, 2, 3)] * 2, 3))
def test_doubled_network_gram_is_the_dense_gram(case):
    """The doubled network's Gram equals the dense one to roundoff of the
    uncancelled scale: the dense Gram of the network with every factor
    replaced by its absolute value."""
    dims, rank, _, seed = case
    f = FctnFactors.random(dims, rank, np.random.default_rng(seed))
    n = f.n
    absolute = FctnFactors([np.abs(f.factor(j)) for j in range(n)])
    for k in range(n):
        want = gram_dense(network_matrix(f, k))
        FLOPS.reset()
        got = gram_except(f, k)
        assert got.shape == want.shape
        scale = np.linalg.norm(gram_dense(network_matrix(absolute, k)))
        assert np.linalg.norm(got - want) <= 1e-12 * scale
        # the sweep plan sizes the same chain without running it
        assert FLOPS.labeled("gram") == FLOPS.total == _doubled_chain(rank, tuple(dims), k)[1]


@settings(max_examples=40, deadline=None)
@given(networks(max_n=6))
def test_environment_products_match_the_network_matrix(net):
    """Over a sweep that replaces each factor after its own product, every
    position before the last gets ``X_(k) M^T`` from the kept environments
    (M from the einsum oracle, as the factors are then), with the planned
    ``proj`` FLOPs, and no environment is left when the sweep is done."""
    dims, rank, orders, seed = net
    n = rank.n
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, rank, rng)
    x = np.asfortranarray(rng.standard_normal(tuple(dims)))
    for order in orders:
        order = tuple(order)
        envs = {}
        for k, chain in zip(order, _schedule(rank, tuple(dims), order)):
            before = FLOPS.labeled("proj")
            got = env_data_product(f, k, chain, x, envs)
            assert FLOPS.labeled("proj") - before == _cost(chain)[0]
            want = mode_unfold(x, k) @ network_matrix(f, k).T
            assert _close(got, want)
            f = f.with_factor(k, rng.standard_normal(f.factor(k).shape))
        assert envs == {}


def _environment_copies(f, x, orders):
    """The shapes of the operands other than factors that the environment
    steps copy, over one sweep's data products in each visiting order."""
    import fctnlr.tensor as tensor_module

    n = f.n
    copied = []
    real = tensor_module.gunfold

    def spy(a, perm, split):
        out = real(a, perm, split)
        if not np.may_share_memory(out, a) and not any(a is f.factor(j) for j in range(n)):
            copied.append(a.shape)
        return out

    tensor_module.gunfold = spy
    try:
        for order in orders:
            envs = {}
            for k, chain in zip(order, _schedule(f.rank, f.dims, tuple(order))):
                env_data_product(f, k, chain, x, envs)
    finally:
        tensor_module.gunfold = real
    return copied


@pytest.mark.parametrize("n, extent, every", [(3, 5, 1), (4, 4, 1), (5, 3, 1), (6, 3, 12)])
def test_environment_steps_copy_no_environment(n, extent, every):
    """Over every visiting order (every 12th at order 6), the environment
    steps read X and each environment in place: the only operands they copy
    are factors."""
    rng = np.random.default_rng(n)
    f = FctnFactors.random((extent,) * n, FctnRank.uniform(n, 2), rng)
    x = np.asfortranarray(rng.standard_normal((extent,) * n))
    assert _environment_copies(f, x, list(itertools.permutations(range(n)))[::every]) == []


@settings(max_examples=100, deadline=None)
@given(networks(max_n=6))
def test_environment_steps_copy_no_environment_random(net):
    """The same over random extents, rank tables and visiting orders."""
    dims, rank, orders, seed = net
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, rank, rng)
    x = np.asfortranarray(rng.standard_normal(tuple(dims)))
    assert _environment_copies(f, x, orders) == []


def test_plans_of_every_order_stay_cached():
    """Every visiting order of a 5-factor network is planned once: a second
    pass over all 120 finds each sweep plan cached."""
    rank, dims = FctnRank(5, [1, 2, 3, 2, 1, 2, 3, 2, 1, 2]), (3, 4, 2, 5, 3)

    def plan_all():
        for order in itertools.permutations(range(5)):
            sweep_plan(rank, dims, order, "afctnlr")
        return sweep_plan.cache_info().misses

    first = plan_all()
    assert plan_all() == first


@pytest.mark.parametrize("algorithm, env", [
    ("fctnlr", None), ("afctnlr", False), ("afctnlr", True),
], ids=["fctnlr", "prefix-suffix", "environments"])
def test_a_planned_sweep_plans_no_chain(algorithm, env):
    """A sweep runs the chains its cached plan holds: once the plan is made,
    no sweep plans or looks up a chain again, neither its builds, its
    data products, its Grams (doubled and dense both occur here) nor its
    compose."""
    dims, rank, order = (40, 40, 3, 16), FctnRank.uniform(4, 3), (2, 0, 3, 1)
    rng = np.random.default_rng(4)
    obs = Observation.from_dense(rng.standard_normal(dims), rng.random(dims) < 0.5)
    plan = sweep_plan(rank, dims, order, algorithm, env)
    assert {pos.product is not None for pos in plan.positions[:-1]} == {bool(env)}
    assert {pos.gram is None for pos in plan.positions} == {False, True}

    def forbidden(*args):
        raise AssertionError("a chain was planned or looked up during the sweep")

    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(solver, "sweep_plan", lambda *args: plan))
        for attr in ("_chain_plan", "_plain_chain", "_doubled_chain", "_schedule",
                     "cached_build_plan"):
            stack.enter_context(mock.patch.object(network, attr, forbidden))
        solver._sweep(FctnFactors.random(dims, rank, rng), obs.values.copy(order="F"), obs,
                      order, [CirculantLaplacian(d, 0.5, "positive-definite") for d in dims],
                      (0.35,) * 4, SolverConfig(algorithm=algorithm))


_LABELS = ("mk", "compose", "proj", "gram")


def _sweep_flops(f, obs, order, algorithm):
    """FLOPs by label of one solver sweep of ``f``."""
    n = f.n
    laps = [CirculantLaplacian(d, 0.5, "positive-definite") for d in f.dims]
    before = {lab: FLOPS.labeled(lab) for lab in _LABELS}
    solver._sweep(f, obs.values.copy(order="F"), obs, order, laps, (0.35,) * n,
                  SolverConfig(algorithm=algorithm))
    return {lab: FLOPS.labeled(lab) - before[lab] for lab in _LABELS}


@settings(max_examples=40, deadline=None)
@given(networks(max_n=6, min_n=3))
def test_sweeps_count_the_planned_flops(case):
    """Over random extents, rank tables and visiting orders, one afctnlr
    sweep by either route, forced, counts the ``mk``, ``compose``, ``proj``
    and ``gram`` FLOPs that :func:`sweep_plan` sizes for that route; left to
    itself it takes the route the plan picks, and a fctnlr sweep counts its
    own plan."""
    dims, rank, orders, seed = case
    dims, order = tuple(dims), orders[0]
    rng = np.random.default_rng(seed)
    mask = rng.random(dims) < 0.5
    mask.flat[0] = True
    obs = Observation.from_dense(rng.standard_normal(dims), mask)
    start = FctnFactors.random(dims, rank, rng)

    def fresh():
        return FctnFactors([start.factor(k).copy() for k in range(rank.n)])

    for env in (False, True):
        with mock.patch.object(solver, "sweep_plan", lambda *args: sweep_plan(*args, env)):
            got = _sweep_flops(fresh(), obs, order, "afctnlr")
        assert got == sweep_plan(rank, dims, order, "afctnlr", env).flops
    assert _sweep_flops(fresh(), obs, order, "afctnlr") == sweep_plan(rank, dims, order, "afctnlr").flops
    assert _sweep_flops(fresh(), obs, order, "fctnlr") == sweep_plan(rank, dims, order, "fctnlr").flops


def _sweep_calls(f, obs, order, algorithm):
    """The route calls of one solver sweep of ``f``, in call order: each
    data product from kept X-environments and each build of M (with the
    chain it runs), each Gram from the doubled network or the dense
    product, each factor solve and each eigendecomposition of a Gram
    matrix."""
    calls = []

    def spy(owner, attr, name, what):
        real = getattr(owner, attr)

        def wrapped(*args):
            calls.append((name,) + what(*args))
            return real(*args)

        return mock.patch.object(owner, attr, wrapped)

    spies = [
        spy(solver, "env_data_product", "product", lambda f, k, chain, *_: (k, chain)),
        spy(solver, "_compose_except_cached_labeled", "built", lambda f, chain, kept: (chain,)),
        spy(solver, "gram_except", "doubled", lambda f, k, chain: (k, chain)),
        spy(solver, "dense_gram", "dense", lambda m: ()),
        spy(solver, "solve_factor", "solve", lambda xm, a_prev, gram, *_: ()),
        spy(sylvester, "eig_gram", "eig", lambda g: ()),
    ]
    with contextlib.ExitStack() as stack:
        for patch in spies:
            stack.enter_context(patch)
        _sweep_flops(f, obs, order, algorithm)
    return calls


@pytest.mark.parametrize("algorithm, order, env", [
    ("afctnlr", (1, 2, 3, 0), True),  # the environment route, the last Gram dense
    ("afctnlr", (0, 1, 3, 2), False),  # the prefix/suffix route, Grams mixed
    ("fctnlr", (0, 1, 2, 3), False),
], ids=["afctnlr-environments", "afctnlr-prefix-suffix", "fctnlr"])
def test_sweeps_run_their_plan(algorithm, order, env):
    """Each position of a sweep makes exactly the calls its plan names: its
    data product from kept X-environments or its build of M, then its Gram
    from the doubled network or the dense product, then one factor solve
    with one eigendecomposition, so the Gram route is taken in the sweep
    alone."""
    dims, rank = (40, 40, 3, 16), FctnRank.uniform(4, 3)
    rng = np.random.default_rng(8)
    obs = Observation.from_dense(rng.standard_normal(dims), rng.random(dims) < 0.5)
    plan = sweep_plan(rank, dims, order, algorithm)
    assert [pos.product is not None for pos in plan.positions[:-1]] == [env] * 3
    assert len({pos.gram is None for pos in plan.positions}) == 2
    want = []
    for pos in plan.positions:
        if pos.product is not None:
            want.append(("product", pos.k, pos.product))
        else:
            want.append(("built", pos.build))
        want.append(("dense",) if pos.gram is None else ("doubled", pos.k, pos.gram))
        want += [("solve",), ("eig",)]
    assert _sweep_calls(FctnFactors.random(dims, rank, rng), obs, order, algorithm) == want
