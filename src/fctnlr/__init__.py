"""Low-rank tensor completion via a fully-connected tensor network with a
circulant smoothing penalty.

Set ``FCTN_THREADS`` before the first import to cap the BLAS thread pools the
numeric kernels run on.  The cap is read when numpy loads its BLAS, so it
applies only if this package is imported before numpy; otherwise the import
warns (``RuntimeWarning``) that it cannot apply.
"""
import os as _os
import sys as _sys
import warnings as _warnings

_threads = _os.environ.get("FCTN_THREADS", "").strip()
if _threads.isdigit() and int(_threads) > 0:
    if "numpy" in _sys.modules:
        _warnings.warn(
            f"FCTN_THREADS={_threads} cannot cap the BLAS threads: numpy was "
            "imported before fctnlr",
            RuntimeWarning,
            stacklevel=2,
        )
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
    objective,
    run,
)
from .sylvester import (
    NumericalFailure,
    dense_gram,
    eig_gram,
    solve_factor,
)
from .tensor import FLOPS, contract, gfold, gunfold, mode_fold, mode_unfold, transpose

__version__ = "0.1.0"

__all__ = [
    "CirculantLaplacian",
    "FLOPS",
    "FctnFactors",
    "FctnRank",
    "IterationRecord",
    "NumericalFailure",
    "Observation",
    "QualityReport",
    "SolverConfig",
    "SolverResult",
    "compose",
    "compose_except",
    "contract",
    "dense_gram",
    "eig_gram",
    "gfold",
    "gram_except",
    "gunfold",
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
]
