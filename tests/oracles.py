"""Test-only reference implementations, kept out of the library."""
import itertools
import string

import numpy as np

from fctnlr.sylvester import FactorSubproblem

_DENSE_LIMIT = 4096


def gram_dense(m: np.ndarray) -> np.ndarray:
    """Gram matrix of the network matrix's rows by the dense s x p GEMM, the
    product the solver's doubled-network build replaces."""
    return m @ m.T


def solve_factor_dense(p: FactorSubproblem) -> np.ndarray:
    """Dense oracle: assemble the q*s x q*s system under column-stacking vec
    and solve it directly.  Guarded to small sizes."""
    q, s = p.a_prev.shape
    if q * s > _DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to q*s <= {_DENSE_LIMIT}, got {q * s}")
    gram = gram_dense(p.m)
    big = (
        np.kron(gram, np.eye(q))
        + p.lam * np.kron(np.eye(s), p.lap.dense())
        + p.rho * np.eye(q * s)
    )
    rhs = p.xm + p.rho * p.a_prev
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
