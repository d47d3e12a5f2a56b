"""Low-rank tensor completion via a fully-connected tensor network with a
circulant smoothing penalty.

Set ``FCTN_THREADS`` before the first import to cap the BLAS thread pools the
numeric kernels run on.
"""
import os as _os

_threads = _os.environ.get("FCTN_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    # must happen before numpy loads its BLAS; no effect if numpy is already in
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        _os.environ.setdefault(_var, _threads)

from .laplacian import CirculantLaplacian
from .metrics import QualityReport, psnr, quality_report, rel_err, ssim
from .network import (
    FctnFactors,
    FctnRank,
    compose,
    compose_except,
    gram_except,
    property1_unfold,
    shuffle_order,
)
from .solver import (
    IterationRecord,
    Observation,
    SolverConfig,
    SolverResult,
    extrapolate,
    increase_rank,
    objective,
    run,
    update_x,
)
from .sylvester import (
    FactorSubproblem,
    NumericalFailure,
    SpectralPair,
    eig_gram,
    solve_factor,
)
from .tensor import FLOPS, contract, gfold, gunfold, mode_fold, mode_unfold, transpose

__version__ = "0.1.0"

__all__ = [
    "CirculantLaplacian",
    "FLOPS",
    "FactorSubproblem",
    "FctnFactors",
    "FctnRank",
    "IterationRecord",
    "NumericalFailure",
    "Observation",
    "QualityReport",
    "SolverConfig",
    "SolverResult",
    "SpectralPair",
    "compose",
    "compose_except",
    "contract",
    "eig_gram",
    "extrapolate",
    "gfold",
    "gram_except",
    "gunfold",
    "increase_rank",
    "mode_fold",
    "mode_unfold",
    "objective",
    "property1_unfold",
    "psnr",
    "quality_report",
    "rel_err",
    "run",
    "shuffle_order",
    "solve_factor",
    "ssim",
    "transpose",
    "update_x",
]
