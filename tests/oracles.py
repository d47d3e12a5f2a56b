"""Test-only reference implementations, kept out of the library: dense and
einsum oracles, the direct X refresh, the closed-form FLOP counts of equal
extents and ranks, the accelerated build of one position run from its
planned chain, the byte-by-byte netpbm header scanner, and the smooth
low-rank test data the recovery tests share."""
import itertools
import string

import numpy as np

from fctnlr.network import (
    FctnFactors,
    FctnRank,
    _compose_except_cached_labeled,
    cached_build_plan,
    sweep_plan,
)
from fctnlr.solver import Observation

_DENSE_LIMIT = 4096


def cached_build(f, k, order, kept: dict):
    """The accelerated build of the partial network around k at its position
    of a sweep in ``order``, run from the chain
    :func:`~fctnlr.network.cached_build_plan` plans there."""
    order = tuple(order)
    chain = cached_build_plan(f.rank, f.dims, order)[order.index(k)]
    return _compose_except_cached_labeled(f, chain, kept)


def pnm_tokens(blob: bytes):
    """The netpbm header scanner, byte by byte: yield each token with its
    end offset, skipping whitespace and # comments (to the end of the line).
    The reference for :func:`fctnlr.fileio._pnm_tokens`."""
    i = 0
    n = len(blob)
    while i < n:
        c = blob[i : i + 1]
        if c.isspace():
            i += 1
            continue
        if c == b"#":
            while i < n and blob[i : i + 1] not in (b"\n", b"\r"):
                i += 1
            continue
        j = i
        while j < n and not blob[j : j + 1].isspace():
            j += 1
        yield blob[i:j], j
        i = j


def laplacian_dense(lap) -> np.ndarray:
    """The circulant operator as an explicit n x n matrix, from its first
    column: the printed stencil, ``-2 - delta`` at offset 0 and ``+1`` at
    offsets ``1 mod n`` and ``n-1 mod n`` accumulated, times the sign."""
    n = lap.n
    col = np.zeros(n)
    col[0] += -2.0 - lap.delta
    col[1 % n] += 1.0
    col[(n - 1) % n] += 1.0
    i = np.arange(n)
    return (lap._s * col)[(i[:, None] - i[None, :]) % n]


def update_x(composed, x_prev, obs: Observation, rho: float) -> np.ndarray:
    """Proximally damped refresh: off the observed set average the composed
    network with the previous iterate, on it restore the observations bit for
    bit.  The solver runs :func:`fctnlr.solver.refresh_x`; this is its
    reference."""
    out = np.empty(x_prev.shape, dtype=np.float64, order="F")
    np.multiply(x_prev, rho, out=out)
    out += composed
    out /= 1.0 + rho
    fi = obs.flat_index
    out.ravel(order="K")[fi] = obs.values.ravel(order="K")[fi]
    return out


def gram_dense(m: np.ndarray) -> np.ndarray:
    """Gram matrix of the network matrix's rows by the dense s x p GEMM, the
    product the solver's doubled-network build replaces."""
    return m @ m.T


def solve_factor_dense(xm, a_prev, m, lap, lam: float, rho: float) -> np.ndarray:
    """Dense oracle of :func:`fctnlr.sylvester.solve_factor` from the network
    matrix m itself: assemble the q*s x q*s system under column-stacking vec
    and solve it directly.  Guarded to small sizes."""
    q, s = a_prev.shape
    if q * s > _DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to q*s <= {_DENSE_LIMIT}, got {q * s}")
    gram = gram_dense(m)
    big = (
        np.kron(gram, np.eye(q))
        + lam * np.kron(np.eye(s), laplacian_dense(lap))
        + rho * np.eye(q * s)
    )
    rhs = xm + rho * a_prev
    vec = np.linalg.solve(big, rhs.reshape(q * s, order="F"))
    return vec.reshape((q, s), order="F")


def _letters(n: int) -> dict:
    """One einsum letter per mode of an order-n network: ``("i", j)`` for
    physical mode j, ``(a, b)`` with a < b for the bond between a and b."""
    labels = [("i", j) for j in range(n)] + list(itertools.combinations(range(n), 2))
    return dict(zip(labels, string.ascii_letters))


def partial_network(f, k: int) -> np.ndarray:
    """Partial network around factor k by one ``np.einsum`` over the other
    factors: the remaining physical modes by ascending factor, then the bonds
    to k by ascending partner."""
    n = f.n
    sym = _letters(n)
    rest = [j for j in range(n) if j != k]
    subs = [
        "".join(sym[("i", j) if p == j else (min(p, j), max(p, j))] for p in range(n))
        for j in rest
    ]
    out = "".join(sym[("i", j)] for j in rest) + "".join(sym[(min(j, k), max(j, k))] for j in rest)
    return np.einsum(",".join(subs) + "->" + out, *(f.factor(j) for j in rest), optimize="greedy")


def network_matrix(f, k: int) -> np.ndarray:
    """Factor k's network matrix M (s x p) from :func:`partial_network`: rows
    over k's bonds, columns over the other physical modes, both
    first-index-fastest, so that ``X_(k) = A_(k) M``."""
    partial = partial_network(f, k)
    p = int(np.prod(partial.shape[: f.n - 1]))
    return partial.reshape((p, -1), order="F").T


def nested_sum_compose(f) -> np.ndarray:
    """The composed tensor entry by entry: for every output index, the sum
    over all joint bond indices of the product of one entry per factor.  The
    sum over the bond grid is one broadcast product per entry; nothing is
    shared with the library's contraction path."""
    n = f.n
    bonds = list(itertools.combinations(range(n), 2))
    grid = [f.factor(a).shape[b] for a, b in bonds]
    out = np.zeros(f.dims)
    for el in np.ndindex(*f.dims):
        term = np.ones(grid)
        for k in range(n):
            # factor k's bonds in slot order are its bonds in ``bonds`` order
            entries = f.factor(k)[tuple(el[k] if j == k else slice(None) for j in range(n))]
            shape = [g if k in bond else 1 for g, bond in zip(grid, bonds)]
            term = term * entries.reshape(shape)
        out[el] = term.sum()
    return out


# ---------- closed-form FLOP counts (equal extents i and ranks r) ---------- #


def _merge_flops(n: int, i: int, r: int, t: int) -> int:
    """The t-th step of a chain: t merged factors (or X contracted with all
    but t + 1 of them) meet one more factor."""
    return 2 * i ** (t + 1) * r ** (t * (n - t) + n - 1 - t)


def compose_flops(n: int, i: int, r: int) -> int:
    """Chain composition of the full network: sum of the n-1 merge steps."""
    return sum(_merge_flops(n, i, r, t) for t in range(1, n))


def compose_from_partial_flops(n: int, i: int, r: int) -> int:
    return 2 * i**n * r ** (n - 1)


def partial_chain_flops(n: int, i: int, r: int) -> int:
    """One plain partial network around a factor (n-2 merge steps)."""
    return sum(_merge_flops(n, i, r, t) for t in range(1, n - 1))


def env_proj_flops(n: int, i: int, r: int) -> int:
    """Per-sweep data products of the environment route
    (``fctnlr.network.env_data_product``, then ``X_(k) M^T`` at the last
    position).  Position 0 runs a chain over X and n-1 factors, which costs
    what composing the network does; position p (0 < p < n-1) the first p
    steps of a chain; the last position one data product.  So merge step t
    runs n - t times for t < n-1, and step n-1 (the size of a data product)
    twice."""
    steps = sum((n - t) * _merge_flops(n, i, r, t) for t in range(1, n - 1))
    return steps + 2 * _merge_flops(n, i, r, n - 1)


def partial_sweep_flops(n: int, i: int, r: int) -> int:
    """All n partial networks, no reuse."""
    return n * partial_chain_flops(n, i, r)


def partial_sweep_flops_cached(n: int, i: int, r: int) -> int:
    """All n partial networks of one sweep with prefix/suffix reuse: one full
    prefix chain, one full suffix chain, and n-2 cross joins.  Reuse stays
    within the sweep, so this is the count of every sweep."""
    cross = sum(
        2 * i ** (n - 1) * r ** (n - 1 + p * (n - 1 - p)) for p in range(1, n - 1)
    )
    return 2 * partial_chain_flops(n, i, r) + cross


def gram_except_flops(n: int, i: int, r: int) -> int:
    """One factor's Gram matrix from the doubled network
    (``fctnlr.network.gram_except``): n-1 per-factor Grams over the physical
    modes, 2 * I * R^(2(n-1)) each, then their ascending chain.  The doubled
    network is itself a network of physical extent 1 and bond size R^2, so
    the chain costs what one partial network of that network does."""
    return (n - 1) * 2 * i * r ** (2 * (n - 1)) + partial_chain_flops(n, 1, r * r)


def uniform_plan(n: int, i: int, r: int, algorithm: str):
    """The library's plan of one sweep in ascending order at extent i and
    rank r (with equal extents and ranks every order costs the same), which
    the closed forms above must match."""
    return sweep_plan(FctnRank.uniform(n, r), (i,) * n, tuple(range(n)), algorithm)


def smooth_factors(dims, r, seed, decay=0.4, amp=2.0):
    """Factors whose fibers along the physical mode are low-frequency cosine
    mixtures, so the composed tensor is smooth in every mode."""
    rng = np.random.default_rng(seed)
    n = len(dims)
    rank = FctnRank.uniform(n, r)
    arrs = []
    for k in range(n):
        shape = rank.factor_shape(k, dims)
        ik = dims[k]
        t = np.arange(ik) / ik
        basis = np.stack(
            [
                np.ones(ik),
                np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi)),
                np.cos(4 * np.pi * t + rng.uniform(0, 2 * np.pi)),
            ]
        )
        coef = amp * rng.standard_normal((3,) + shape[:k] + shape[k + 1 :])
        a = np.moveaxis(np.tensordot(basis.T, coef, axes=(1, 0)), 0, k)
        for ax in [j for j in range(n) if j != k]:
            sl = [slice(None)] * n
            sl[ax] = slice(1, None)
            a[tuple(sl)] *= decay
        arrs.append(a)
    return FctnFactors(arrs)
