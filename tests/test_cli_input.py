"""The command line rejects non-finite and out-of-range input with exit 1
before any solver work, and writes no file."""
import numpy as np
import pytest

import fctnlr.solver
from fctnlr.cli import main
from fctnlr.fileio import write_tensor


@pytest.fixture
def no_solve(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the solver ran on rejected input")

    monkeypatch.setattr(fctnlr.solver, "solve_factor", forbidden)


def _complete(tmp_path, values, *extra):
    src = str(tmp_path / "in.fctn")
    write_tensor(src, values)
    out, saved = tmp_path / "out.fctn", tmp_path / "mask.fctn"
    rc = main(["complete", "--input", src, "--output", str(out),
               "--sr", "0.5", "--save-mask", str(saved), "--max-iters", "3", *extra])
    return rc, out, saved


@pytest.mark.parametrize("flag", ["--rho", "--eps", "--lambda", "--delta"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_hyperparameter_exits_one(tmp_path, capsys, no_solve, flag, value):
    values = np.random.default_rng(0).standard_normal((5, 4, 3))
    rc, out, saved = _complete(tmp_path, values, f"{flag}={value}")
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_observation_exits_one(tmp_path, capsys, no_solve, bad):
    # every entry is bad, so whichever entries the mask keeps are
    rc, out, saved = _complete(tmp_path, np.full((5, 4, 3), bad))
    assert rc == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()



@pytest.mark.parametrize(
    "extra",
    [
        ["--lambda", "-1"],
        ["--delta", "0"],
        ["--initial-rank", "3", "--max-rank", "2"],
        ["--max-rank", "0"],
    ],
    ids=["negative-lambda", "zero-delta", "initial-above-max-rank", "zero-rank"],
)
def test_out_of_range_hyperparameter_exits_one(tmp_path, capsys, no_solve, extra):
    values = np.random.default_rng(0).standard_normal((4, 4, 3))
    rc, out, saved = _complete(tmp_path, values, *extra)
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize("peak", ["nan", "inf", "-inf", "0"])
def test_non_finite_or_non_positive_peak_exits_one(tmp_path, capsys, peak):
    rng = np.random.default_rng(0)
    truth = rng.standard_normal((5, 4, 3))
    tpath, epath = str(tmp_path / "t.fctn"), str(tmp_path / "e.fctn")
    write_tensor(tpath, truth)
    write_tensor(epath, truth + 0.01 * rng.standard_normal(truth.shape))
    rc = main(["metrics", "--truth", tpath, "--est", epath, f"--peak={peak}"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert "peak" in err
