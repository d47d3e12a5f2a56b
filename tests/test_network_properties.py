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
from hypothesis import given, settings
from hypothesis import strategies as st

from fctnlr.network import (
    FctnFactors,
    FctnRank,
    cached_build_plan,
    compose,
    compose_except,
    gram_except,
    property1_unfold,
)
import fctnlr.solver as solver
import fctnlr.sylvester as sylvester
from fctnlr.environment import _gram_price, _schedule, env_data_product, sweep_plan
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
            assert FLOPS.labeled("mk") - before == plan[t][0]
            assert set(kept) == _asked_for_after(order, t)
            m = property1_unfold(partial, k, n)
            assert np.shares_memory(m, partial)
            assert _close(m, network_matrix(f, k))
            assert _close(mode_unfold(f.factor(k), k) @ m, mode_unfold(compose(f), k))
            # as in a sweep: the solved factor replaces k before the next build
            f = f.with_factor(k, rng.standard_normal(f.factor(k).shape))
        assert not kept


def _replay_store(sweep, held):
    """Replay one sweep's planned chains, a tuple per position, on the keys
    of its store alone, starting from the keys in ``held``: each chain takes
    out the key it starts from, which must be held, and each of its steps
    keeps its key, which must not be held yet.  Returns what is left."""
    held = set(held)
    for chains in sweep:
        for start, steps, _ in chains:
            if isinstance(start, tuple):
                assert start in held, start
                held.remove(start)
            for *_, key in steps:
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
    every start key was kept before, and nothing is left when the sweep
    ends."""
    rank, dims = FctnRank.uniform(n, 2), (3,) * n
    for order in itertools.permutations(range(n)):
        built = [chains for _, _, chains in cached_build_plan(rank, dims, order)]
        assert _replay_store(built, ()) == set()
        envs = [(chain,) for chain in _schedule(rank, dims, order)]
        assert _replay_store(envs, {("env", n)}) == set()


@settings(max_examples=60, deadline=None)
@given(networks())
def test_doubled_network_gram_is_the_dense_gram(case):
    dims, rank, _, seed = case
    f = FctnFactors.random(dims, rank, np.random.default_rng(seed))
    n = f.n
    for k in range(n):
        want = gram_dense(network_matrix(f, k))
        FLOPS.reset()
        got = gram_except(f, k)
        assert got.shape == want.shape
        assert _close(got, want)
        # the sweep plan sizes the same chain without running it
        assert FLOPS.labeled("gram") == FLOPS.total == _gram_price(rank, tuple(dims), k, True)[0]


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
        plan = [sum(st[3] for st in steps) for _, steps, _ in _schedule(rank, tuple(dims), order)]
        for pos, k in enumerate(order[:-1]):
            before = FLOPS.labeled("proj")
            got = env_data_product(f, k, order, x, envs)
            assert FLOPS.labeled("proj") - before == plan[pos]
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
            for k in order[:-1]:
                env_data_product(f, k, order, x, envs)
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
    pass over all 120 finds each schedule and each sweep plan cached."""
    rank, dims = FctnRank(5, [1, 2, 3, 2, 1, 2, 3, 2, 1, 2]), (3, 4, 2, 5, 3)

    def plan_all():
        for order in itertools.permutations(range(5)):
            _schedule(rank, dims, order)
            sweep_plan(rank, dims, order, "afctnlr")
        return _schedule.cache_info().misses, sweep_plan.cache_info().misses

    first = plan_all()
    assert plan_all() == first


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
    data product from kept X-environments, each build of M (with the chains
    it runs), each Gram from the doubled network or the dense product, each
    factor solve and each eigendecomposition of a Gram matrix."""
    calls = []

    def spy(owner, attr, name, what):
        real = getattr(owner, attr)

        def wrapped(*args):
            calls.append((name,) + what(*args))
            return real(*args)

        return mock.patch.object(owner, attr, wrapped)

    spies = [
        spy(solver, "env_data_product", "envs", lambda f, k, *_: (k,)),
        spy(solver, "_compose_except_cached_labeled", "built",
            lambda f, k, chains, kept: (k, chains)),
        spy(solver, "gram_except", "doubled", lambda f, k: (k,)),
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
    assert [pos.envs for pos in plan.positions[:-1]] == [env] * 3
    assert len({pos.doubled for pos in plan.positions}) == 2
    want = []
    for pos in plan.positions:
        if pos.envs:
            want.append(("envs", pos.k))
        else:
            want.append(("built", pos.k, pos.chains))
        want.append(("doubled", pos.k) if pos.doubled else ("dense",))
        want += [("solve",), ("eig",)]
    assert _sweep_calls(FctnFactors.random(dims, rank, rng), obs, order, algorithm) == want
