"""The public names and the names the benchmark's tracer hooks by attribute
lookup.  A rename must fail here rather than silently drop a per-layer span
from traced benchmark runs."""
import pytest

import fctnlr
import fctnlr.cli
import fctnlr.fileio
import fctnlr.laplacian
import fctnlr.network
import fctnlr.solver
import fctnlr.sylvester
import fctnlr.tensor

# (module, attribute) pairs hooked by benchmark/tracing.py; it also looks for
# fctnlr.solver.ReuseCache, gone with the cross-sweep store, and reports the
# cache metrics absent
HOOKED = [
    (fctnlr.solver, name)
    for name in (
        "compose_except",
        "_compose_except_cached_labeled",
        "compose",
        "property1_unfold",
        "mode_unfold",
        "mode_fold",
        "solve_factor",
        "objective",
        "update_x",
    )
] + [
    (fctnlr.network, "contract"),
    (fctnlr.network, "gunfold"),
    (fctnlr.network, "transpose"),
    (fctnlr.tensor, "gunfold"),
    (fctnlr.tensor, "gfold"),
    (fctnlr.sylvester, "eig_gram"),
    (fctnlr.laplacian.CirculantLaplacian, "apply_F"),
    (fctnlr.laplacian.CirculantLaplacian, "apply_FH"),
    (fctnlr.laplacian.CirculantLaplacian, "trace_penalty"),
    (fctnlr.cli, "run"),
] + [
    (fctnlr.fileio, name)
    for name in ("read_tensor", "read_mask", "write_tensor", "write_mask", "write_report_csv")
]


@pytest.mark.parametrize("name", fctnlr.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(fctnlr, name, None) is not None


@pytest.mark.parametrize(
    "owner, attr", HOOKED, ids=[f"{getattr(o, '__name__', o)}.{a}" for o, a in HOOKED]
)
def test_every_hooked_name_exists(owner, attr):
    assert callable(getattr(owner, attr, None))
