"""Property test of the accelerated partial-network build over random
network orders, extents, rank tables and visiting orders."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fctnlr.network import (
    FctnFactors,
    FctnRank,
    ReuseCache,
    _compose_except_cached_labeled,
    compose,
    compose_except,
    matrix_labels,
    property1_unfold,
)
from fctnlr.tensor import mode_unfold


@st.composite
def networks(draw):
    n = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    tri = draw(st.lists(st.integers(1, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    orders = draw(st.lists(st.permutations(range(n)), min_size=2, max_size=3))
    return dims, FctnRank(n, tri), [tuple(o) for o in orders], draw(st.integers(0, 2**32 - 1))


def _close(got, want):
    return np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@settings(max_examples=60, deadline=None)
@given(networks())
def test_cached_build_is_the_network_matrix(case):
    dims, rank, orders, seed = case
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, rank, rng)
    n = f.n
    cache = ReuseCache()
    for order in orders:  # one sweep per order
        for k in order:
            partial = _compose_except_cached_labeled(f, k, order, cache)
            m = property1_unfold(partial, k, n, matrix_labels(k, n))
            assert np.shares_memory(m, partial)
            assert _close(m, property1_unfold(compose_except(f, k), k, n))
            assert _close(mode_unfold(f[k], k) @ m, mode_unfold(compose(f), k))
            # as in a sweep: the solved factor replaces k before the next build
            f.replace(k, rng.standard_normal(f[k].shape))
