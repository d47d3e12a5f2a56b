"""Test-only reference implementations, kept out of the library."""
import numpy as np

from fctnlr.sylvester import FactorSubproblem

_DENSE_LIMIT = 4096


def solve_factor_dense(p: FactorSubproblem) -> np.ndarray:
    """Dense oracle: assemble the q*s x q*s system under column-stacking vec
    and solve it directly.  Guarded to small sizes."""
    q, s = p.a_prev.shape
    if q * s > _DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to q*s <= {_DENSE_LIMIT}, got {q * s}")
    gram = p.m @ p.m.T
    big = (
        np.kron(gram, np.eye(q))
        + p.lam * np.kron(np.eye(s), p.lap.dense())
        + p.rho * np.eye(q * s)
    )
    rhs = p.x_k @ p.m.T + p.rho * p.a_prev
    vec = np.linalg.solve(big, rhs.reshape(q * s, order="F"))
    return vec.reshape((q, s), order="F")
