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
    # the middle-mode route: forced to batch, forced to copy, or as chosen;
    # a chunk of 8 bytes makes the batched route take one slice at a time
    batched = draw(st.sampled_from([True, False, None]))
    chunk = draw(st.sampled_from([8, None]))
    return dims, FctnRank(n, tri), batched, chunk, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(cases())
def test_data_product_is_the_unfolded_product(case):
    dims, rank, batched, chunk, seed = case
    rng = np.random.default_rng(seed)
    f = FctnFactors.random(dims, rank, rng)
    x = np.asfortranarray(rng.standard_normal(dims))
    patches = {"_CHUNK_BYTES": chunk or sylvester._CHUNK_BYTES}
    if batched is not None:
        patches["_batched_pays"] = lambda a, b: batched
    with mock.patch.multiple(sylvester, **patches):
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
@pytest.mark.parametrize("k", [0, 1, 2])
def test_data_product_makes_no_copy_of_x_at_128_cubed(k, layout):
    """On the 128^3 R=4 benchmark tensor every factor's route reads X in
    place: the largest allocation stays far below one copy of X."""
    rng = np.random.default_rng(k)
    x = np.asfortranarray(rng.standard_normal((128, 128, 128)))
    m = rng.standard_normal((16, 128 * 128))
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
