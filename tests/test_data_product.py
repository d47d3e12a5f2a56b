"""The data product X_(k) M^T of the factor solve, on every route, against
the mode-k unfolding it avoids: its value, its metered FLOPs, and that its
routes for the 128^3 benchmark tensor make no copy of X."""
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fctnlr.sylvester as sylvester
from fctnlr.network import FctnFactors, FctnRank, compose_except, property1_unfold
from fctnlr.sylvester import data_product
from fctnlr.tensor import FLOPS, mode_unfold


def network_matrix(f, k, layout):
    """Factor k's network matrix C-ordered, the view of the partial network
    that both variants build, or copied F-ordered: data_product takes either
    layout."""
    m = property1_unfold(compose_except(f, k), k, f.n)
    assert m.flags.c_contiguous
    return m if layout == "C" else np.asfortranarray(m)


@st.composite
def cases(draw):
    n = draw(st.integers(2, 5))
    dims = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    tri = draw(st.lists(st.integers(1, 3), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    # the middle-mode route: forced to batch, forced to copy, or as chosen
    batched = draw(st.sampled_from([True, False, None]))
    return dims, FctnRank(n, tri), batched, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(cases())
def test_data_product_is_the_unfolded_product(case):
    dims, rank, batched, seed = case
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, rank, rng)
    x = np.asfortranarray(rng.standard_normal(dims))
    pays = sylvester._batched_pays if batched is None else (lambda a, b: batched)
    with mock.patch.object(sylvester, "_batched_pays", pays):
        for k in range(f.n):
            for layout in ("C", "F"):
                m = network_matrix(f, k, layout)
                want = mode_unfold(x, k) @ m.T
                FLOPS.reset()
                got = data_product(x, k, m)
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
                q, s = want.shape
                p = x.size // q
                assert FLOPS.labeled("proj") == FLOPS.total == 2 * q * p * s


def test_data_product_rejects_mismatched_columns():
    x = np.zeros((3, 4, 5), order="F")
    with pytest.raises(ValueError):
        data_product(x, 1, np.zeros((2, 14)))


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("dims, s, k", [
    ((128,) * 3, 16, 0), ((128,) * 3, 16, 1), ((128,) * 3, 16, 2),
    ((8,) * 6, 32, 0), ((8,) * 6, 32, 5),
], ids=["0", "1", "2", "8^6-0", "8^6-5"])
def test_data_product_makes_no_copy_of_x_at_128_cubed(dims, s, k, layout):
    """On the 128^3 R=4 benchmark tensor every factor's route reads X in
    place, and so do the end modes of 8^6 at R=2, which run as
    ``(M X_(k)^T)^T`` (I_k = 8 < s = 32): the largest allocation stays far
    below one copy of X."""
    rng = np.random.default_rng(k)
    x = np.asfortranarray(rng.standard_normal(dims))
    m = rng.standard_normal((s, x.size // dims[k]))
    m = np.ascontiguousarray(m) if layout == "C" else np.asfortranarray(m)
    tracemalloc.start()
    try:
        y = data_product(x, k, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < x.nbytes / 4
    want = mode_unfold(x, k) @ m.T
    assert y.shape == want.shape
    assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)
