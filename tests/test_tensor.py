"""Tests for the dense tensor primitives: transpose, unfoldings, contraction,
and the FLOP meter."""
import numpy as np
import pytest

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
    z = contract(a, b, [1], [0])
    assert np.allclose(z, a @ b, rtol=1e-14, atol=0)


def test_contract_full_overlap_gives_inner_product():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((2, 3, 4))
    y = rng.standard_normal((2, 3, 4))
    z = contract(x, y, [0, 1, 2], [0, 1, 2])
    assert z.shape == ()
    assert np.allclose(float(z), float(np.vdot(x, y)), rtol=1e-13)


def test_contract_matches_nested_summation():
    """Brute-force sextuple sum over one random pair of order-3 operands."""
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 4))
    y = rng.standard_normal((4, 3, 5))
    z = contract(x, y, [1, 2], [1, 0])
    assert z.shape == (2, 5)
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
    # free modes of x come first (ascending), then free modes of y (ascending)
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 4, 5))
    y = rng.standard_normal((5, 6, 3, 7))
    z = contract(x, y, [1, 3], [2, 0])
    want = np.einsum("iajb,bcad->ijcd", x, y)
    assert z.shape == (2, 4, 6, 7)
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
            z = contract(xv, yv, [1, 3], [2, 0], perm)
            assert z.flags["F_CONTIGUOUS"]
            assert np.allclose(z, want.transpose(perm), rtol=1e-12, atol=1e-14)
    with pytest.raises(ValueError):
        contract(x, y, [1, 3], [2, 0], [0, 1, 2])
    v = rng.standard_normal(5)
    assert np.isclose(float(contract(v[::-1], v, [0], [0])), float(v[::-1] @ v), rtol=1e-14)


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
            z = contract(x, y, [2], [0], perm, split)
            assert z.flags["F_CONTIGUOUS"]
            assert np.allclose(z, want.transpose(perm), rtol=1e-12, atol=1e-14)
    finally:
        tensor_module.gunfold = real
    assert copies == []


def test_contract_validation():
    x = np.zeros((2, 3))
    y = np.zeros((3, 2))
    with pytest.raises(ValueError):
        contract(x, y, [], [])
    with pytest.raises(ValueError):
        contract(x, y, [0, 1], [0])
    with pytest.raises(ValueError):
        contract(x, y, [1, 1], [0, 1])
    with pytest.raises(ValueError):
        contract(x, y, [2], [0])
    with pytest.raises(ValueError):
        contract(x, y, [0], [0])  # extent 2 vs 3


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
    contract(a, b, [1], [0])
    assert FLOPS.total == 2 * 3 * 4 * 5
