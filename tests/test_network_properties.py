"""Property tests of the accelerated partial-network build and of the
doubled-network Gram matrix over random network orders, extents, rank tables
and visiting orders."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fctnlr.network import (
    FctnFactors,
    FctnRank,
    _compose_except_cached_labeled,
    compose,
    compose_except,
    gram_except,
    gram_except_plan,
    matrix_labels,
    property1_unfold,
)
from fctnlr.tensor import FLOPS, mode_unfold
from oracles import gram_dense


@st.composite
def networks(draw, max_n=5):
    n = draw(st.integers(2, max_n))
    dims = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    top = 3 if n < 6 else 2  # keeps an order-6 network's middle joins small
    tri = draw(st.lists(st.integers(1, top), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    orders = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=3))
    return dims, FctnRank(n, tri), [tuple(o) for o in orders], draw(st.integers(0, 2**32 - 1))


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


class _Hoard(dict):
    """A ``kept`` that hands its entries out without letting go of them."""

    def pop(self, key, default=None):
        return self.get(key, default)


def _build_flops(f, order, kept):
    """The ``mk`` FLOPs of each accelerated build of one sweep over ``order``."""
    flops = []
    for k in order:
        before = FLOPS.labeled("mk")
        _compose_except_cached_labeled(f, k, order, kept)
        flops.append(FLOPS.labeled("mk") - before)
    return flops


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
        # a kept dict that never lets go reuses the same chains: the FLOPs of
        # every build must not change when each chain is handed out once
        want_flops = _build_flops(f, order, _Hoard())
        kept = {}
        for t, k in enumerate(order):
            before = FLOPS.labeled("mk")
            partial = _compose_except_cached_labeled(f, k, order, kept)
            assert FLOPS.labeled("mk") - before == want_flops[t]
            assert set(kept) == _asked_for_after(order, t)
            m = property1_unfold(partial, k, n, matrix_labels(k, n))
            assert np.shares_memory(m, partial)
            assert _close(m, property1_unfold(compose_except(f, k), k, n))
            assert _close(mode_unfold(f[k], k) @ m, mode_unfold(compose(f), k))
            # as in a sweep: the solved factor replaces k before the next build
            f.replace(k, rng.standard_normal(f[k].shape))
        assert not kept


@settings(max_examples=60, deadline=None)
@given(networks())
def test_doubled_network_gram_is_the_dense_gram(case):
    dims, rank, _, seed = case
    f = FctnFactors.random(dims, rank, np.random.default_rng(seed))
    n = f.n
    for k in range(n):
        want = gram_dense(property1_unfold(compose_except(f, k), k, n))
        FLOPS.reset()
        got = gram_except(f, k)
        assert got.shape == want.shape
        assert _close(got, want)
        # the route choice sizes the same chain without running it
        assert FLOPS.labeled("gram") == FLOPS.total == gram_except_plan(rank, dims, k)[0]
