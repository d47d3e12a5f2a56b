"""Tests for the dense tensor primitives: transpose, unfoldings, contraction,
and the FLOP meter."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fctnlr.tensor import (
    FLOPS,
    FlopCounter,
    contract,
    gfold,
    gunfold,
    mode_fold,
    mode_unfold,
    transpose,
)


def test_transpose_identity_permutation():
    x = np.random.default_rng(0).standard_normal((2, 3))
    assert np.array_equal(transpose(x, (0, 1)), x)


def test_transpose_matrix_case():
    x = np.random.default_rng(1).standard_normal((2, 3))
    assert np.array_equal(transpose(x, (1, 0)), x.T)


def test_transpose_element_map():
    # result(k, i, j) must equal x(i, j, k), checked index by index
    x = np.random.default_rng(2).standard_normal((2, 3, 4))
    y = transpose(x, (2, 0, 1))
    assert y.shape == (4, 2, 3)
    for i in range(2):
        for j in range(3):
            for k in range(4):
                assert y[k, i, j] == x[i, j, k]


def test_transpose_inverse_roundtrip():
    for trial in range(20):
        rng = np.random.default_rng(100 + trial)
        order = int(rng.integers(2, 6))
        shape = tuple(int(v) for v in rng.integers(1, 5, size=order))
        x = rng.standard_normal(shape)
        perm = tuple(int(v) for v in rng.permutation(order))
        inv = tuple(int(v) for v in np.argsort(perm))
        assert np.array_equal(transpose(transpose(x, perm), inv), x)


def test_transpose_materializes_fortran_layout():
    x = np.random.default_rng(3).standard_normal((3, 4, 5))
    y = transpose(x, (2, 1, 0))
    assert y.flags["F_CONTIGUOUS"]


def test_transpose_rejects_bad_permutation():
    x = np.zeros((2, 3))
    with pytest.raises(ValueError):
        transpose(x, (0, 0))
    with pytest.raises(ValueError):
        transpose(x, (0, 1, 2))


def test_gunfold_identity_spec_is_the_matrix_itself():
    x = np.random.default_rng(4).standard_normal((2, 3))
    assert np.array_equal(gunfold(x, (0, 1), 1), x)


def test_gunfold_element_formula():
    """Entry (j1, j2) follows the first-index-fastest linearization of the
    permuted row and column mode groups."""
    x = np.random.default_rng(5).standard_normal((2, 3, 4))
    m = gunfold(x, (1, 0, 2), 2)
    assert m.shape == (6, 4)
    for i0 in range(2):
        for i1 in range(3):
            for i2 in range(4):
                j1 = i1 + i0 * 3
                j2 = i2
                assert m[j1, j2] == x[i0, i1, i2]


def test_gunfold_gfold_roundtrip_random_specs():
    for trial in range(50):
        rng = np.random.default_rng(200 + trial)
        order = int(rng.integers(2, 6))
        shape = tuple(int(v) for v in rng.integers(1, 5, size=order))
        x = rng.standard_normal(shape)
        perm = tuple(int(v) for v in rng.permutation(order))
        split = int(rng.integers(1, order))
        m = gunfold(x, perm, split)
        back = gfold(m, perm, split, shape)
        assert np.array_equal(back, x)


def test_gfold_then_gunfold_is_identity_on_matrices():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((6, 4))
    perm, split, shape = (1, 0, 2), 2, (2, 3, 4)
    assert np.array_equal(gunfold(gfold(m, perm, split, shape), perm, split), m)


def test_unfold_split_validation():
    x = np.zeros((2, 3, 4))
    with pytest.raises(ValueError):
        gunfold(x, (0, 1, 2), 0)
    with pytest.raises(ValueError):
        gunfold(x, (0, 1, 2), 3)
    with pytest.raises(ValueError):
        gfold(np.zeros((6, 4)), (0, 1, 2), 0, (2, 3, 4))


def test_gfold_shape_mismatch():
    with pytest.raises(ValueError):
        gfold(np.zeros((5, 4)), (1, 0, 2), 2, (2, 3, 4))


def test_mode_unfold_matrix_modes():
    x = np.random.default_rng(7).standard_normal((3, 5))
    assert np.array_equal(mode_unfold(x, 0), x)
    assert np.array_equal(mode_unfold(x, 1), x.T)


def test_mode_unfold_element_formula():
    x = np.random.default_rng(8).standard_normal((2, 3, 4))
    m = mode_unfold(x, 1)
    assert m.shape == (3, 8)
    for i0 in range(2):
        for i1 in range(3):
            for i2 in range(4):
                assert m[i1, i0 + i2 * 2] == x[i0, i1, i2]


def test_mode_unfold_vector_becomes_column():
    v = np.arange(5.0)
    m = mode_unfold(v, 0)
    assert m.shape == (5, 1)
    assert np.array_equal(m[:, 0], v)


def test_mode_fold_roundtrip():
    for trial in range(10):
        rng = np.random.default_rng(300 + trial)
        shape = tuple(int(v) for v in rng.integers(2, 5, size=3))
        x = rng.standard_normal(shape)
        for k in range(3):
            assert np.array_equal(mode_fold(mode_unfold(x, k), k, shape), x)


def test_mode_unfold_range_check():
    with pytest.raises(ValueError):
        mode_unfold(np.zeros((2, 2)), 2)
    with pytest.raises(ValueError):
        mode_fold(np.zeros((2, 2)), -1, (2, 2))


def test_contract_matrix_product():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 3))
    b = rng.standard_normal((3, 4))
    z, labels = contract(a, "ij", b, "jk")
    assert labels == ["i", "k"]
    assert np.allclose(z, a @ b, rtol=1e-14, atol=0)


def test_contract_full_overlap_gives_inner_product():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4))
    y = rng.standard_normal((2, 3, 4))
    z, labels = contract(x, "ijk", y, "ijk")
    assert z.shape == () and labels == []
    assert np.allclose(float(z), float(np.vdot(x, y)), rtol=1e-13)


def test_contract_matches_nested_summation():
    """Brute-force sextuple sum over one random pair of order-3 operands."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 4))
    y = rng.standard_normal((4, 3, 5))
    z, labels = contract(x, "iab", y, "baj")
    assert z.shape == (2, 5) and labels == ["i", "j"]
    want = np.zeros((2, 5))
    for i in range(2):
        for j in range(5):
            acc = 0.0
            for a in range(3):
                for b in range(4):
                    acc += x[i, a, b] * y[b, a, j]
            want[i, j] = acc
    assert np.allclose(z, want, rtol=1e-12, atol=1e-14)


def test_contract_result_mode_order():
    # free labels of x come first (axis order), then free labels of y
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 4, 5))
    y = rng.standard_normal((5, 6, 3, 7))
    z, labels = contract(x, "iajb", y, "bcad")
    want = np.einsum("iajb,bcad->ijcd", x, y)
    assert z.shape == (2, 4, 6, 7) and labels == list("ijcd")
    assert np.allclose(z, want, rtol=1e-12, atol=1e-14)


def test_contract_out_modes_layout():
    """Any result layout, from operands in C, F or strided memory order,
    matches einsum and comes out F-contiguous in the requested mode order."""
    rng = np.random.default_rng(14)
    x = rng.standard_normal((2, 3, 4, 5))
    y = rng.standard_normal((10, 6, 6, 7))[::2, :, ::2]  # (5, 6, 3, 7), strided
    want = np.einsum("iajb,bcad->ijcd", x, y)
    for xv, yv in [(x, y), (np.asfortranarray(x), np.ascontiguousarray(y))]:
        for _ in range(6):
            perm = [int(p) for p in rng.permutation(4)]
            target = "".join("ijcd"[p] for p in perm)
            z, labels = contract(xv, "iajb", yv, "bcad", target)
            assert z.flags["F_CONTIGUOUS"] and labels == list(target)
            assert np.allclose(z, want.transpose(perm), rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        contract(x, "iajb", y, "bcad", "ijc")
    v = rng.standard_normal(5)
    assert np.isclose(float(contract(v[::-1], "i", v, "i")[0]), float(v[::-1] @ v), rtol=1e-14)


def test_contract_split_batches_the_modes_before_the_other_run():
    """With ``split``, the lead operand's modes between the rows and the
    other operand's run are batched: any such layout matches einsum, comes
    out F-contiguous, and neither operand is copied."""
    rng = np.random.default_rng(15)
    x = np.asfortranarray(rng.standard_normal((3, 4, 5, 6)))
    y = np.asfortranarray(rng.standard_normal((5, 2, 7)))
    want = np.einsum("abcd,cef->abdef", x, y)
    copies = []
    import fctnlr.tensor as tensor_module

    real = tensor_module.gunfold

    def spy(*args):
        copies.append(args[0].shape)
        return real(*args)

    tensor_module.gunfold = spy
    try:
        for perm, split in [([0, 2, 3, 1, 4], 1), ([0, 1, 2, 3, 4], 1), ([0, 2, 3, 4, 1], 1)]:
            target = "".join("abdef"[p] for p in perm)
            z = contract(x, "abcd", y, "cef", target, split)[0]
            assert z.flags["F_CONTIGUOUS"]
            assert np.allclose(z, want.transpose(perm), rtol=1e-12, atol=1e-14)
    finally:
        tensor_module.gunfold = real
    assert copies == []


@st.composite
def labeled_pairs(draw):
    """Two operands of 1-4 modes with extents 1-4 that share at least one
    label, each in C, F or reversed-stride layout, with a result layout
    (None or an order of the free labels) and a ``split``."""
    nx, ny = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    s = draw(st.integers(1, min(nx, ny)))
    shared, own_x, own_y = "abcd"[:s], "efgh"[: nx - s], "ijkl"[: ny - s]
    lx = "".join(draw(st.permutations(shared + own_x)))
    ly = "".join(draw(st.permutations(shared + own_y)))
    extents = {lab: draw(st.integers(1, 4)) for lab in shared + own_x + own_y}
    free = [lab for lab in lx + ly if lab not in shared]
    target = draw(st.none() | st.permutations(free).map("".join))
    split = draw(st.none() | st.integers(1, len(free))) if free else None
    layouts = draw(st.tuples(st.sampled_from("CFR"), st.sampled_from("CFR")))
    return lx, ly, extents, layouts, target, split, draw(st.integers(0, 2**32 - 1))


def _laid_out(a, layout):
    if layout == "F":
        return np.asfortranarray(a)
    if layout == "R":  # every stride negative
        rev = (slice(None, None, -1),) * a.ndim
        return np.ascontiguousarray(a[rev])[rev]
    return a


@settings(max_examples=300, deadline=None)
@given(labeled_pairs())
@example(("ba", "ab", {"a": 3, "b": 2}, ("C", "R"), None, None, 0))  # full overlap
@example(("abc", "cab", {"a": 2, "b": 1, "c": 4}, ("F", "C"), "", None, 1))
def test_contract_matches_einsum(case):
    """Any labeled contraction matches einsum to 1e-12 of the summed
    magnitudes, returns its labels, is F-contiguous in a requested layout
    and meters 2 * prod(result extents) * prod(shared extents) FLOPs."""
    lx, ly, extents, layouts, target, split, seed = case
    rng = np.random.default_rng(seed)
    x = _laid_out(rng.standard_normal([extents[lab] for lab in lx]), layouts[0])
    y = _laid_out(rng.standard_normal([extents[lab] for lab in ly]), layouts[1])
    shared = "".join(lab for lab in lx if lab in ly)
    out = target if target is not None else "".join(lab for lab in lx + ly if lab not in shared)
    spec = f"{lx},{ly}->{out}"
    before = FLOPS.total
    z, labels = contract(x, lx, y, ly, target, split)
    assert labels == list(out)
    assert z.shape == tuple(extents[lab] for lab in out)
    assert FLOPS.total - before == 2 * z.size * math.prod(extents[lab] for lab in shared)
    scale = np.einsum(spec, np.abs(x), np.abs(y))
    assert np.all(np.abs(z - np.einsum(spec, x, y)) <= 1e-12 * scale)
    if target is not None:
        assert z.flags["F_CONTIGUOUS"]


def test_contract_validation():
    """Each bad labeling raises its own ValueError; the same operands with
    good labels contract."""
    x = np.zeros((2, 3))
    y = np.zeros((3, 2))
    assert contract(x, "ij", y, "jk", "ki")[0].shape == (2, 2)
    with pytest.raises(ValueError, match="one each"):
        contract(x, "i", y, "jk")  # too few labels
    with pytest.raises(ValueError, match="one each"):
        contract(x, "ij", y, "jkl")  # too many labels
    with pytest.raises(ValueError, match="one each"):
        contract(x, "ii", y, "ik")  # a repeated label
    with pytest.raises(ValueError, match="share none"):
        contract(x, "ij", y, "kl")
    with pytest.raises(ValueError, match="extent mismatch"):
        contract(x, "ij", y, "ik")  # extent 2 vs 3
    for target in ("k", "kij", "kj", "kk"):
        with pytest.raises(ValueError, match="does not order"):
            contract(x, "ij", y, "jk", target)


def test_frobenius_norm_invariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((3, 4, 5))
    n0 = np.linalg.norm(x)
    assert np.isclose(np.linalg.norm(transpose(x, (2, 0, 1))), n0, rtol=1e-13)
    assert np.isclose(np.linalg.norm(gunfold(x, (1, 2, 0), 2)), n0, rtol=1e-13)


def test_flop_counter_labels_and_scopes():
    c = FlopCounter()
    c.add(5)
    with c.scoped("outer"):
        c.add(10)
        with c.scoped("inner"):
            c.add(100)
        c.add(1)
    assert c.total == 116
    assert c.labeled("unlabeled") == 5
    assert c.labeled("outer") == 11
    assert c.labeled("inner") == 100
    assert c.labeled("absent") == 0
    snap = c.snapshot()
    assert snap["total"] == 116 and snap["inner"] == 100
    c.reset()
    assert c.total == 0 and c.by_label == {}


def test_contract_flop_accounting():
    FLOPS.reset()
    a = np.ones((3, 4))
    b = np.ones((4, 5))
    contract(a, "ij", b, "jk")
    assert FLOPS.total == 2 * 3 * 4 * 5
