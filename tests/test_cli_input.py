"""The command line rejects non-finite and out-of-range input with exit 1
before any solver work, and writes no file."""
import numpy as np
import pytest

import fctnlr.solver
from fctnlr.cli import main
from fctnlr.fileio import write_mask, write_tensor


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
        ["--seed", "-1"],
    ],
    ids=["negative-lambda", "zero-delta", "initial-above-max-rank", "zero-rank", "negative-seed"],
)
def test_out_of_range_hyperparameter_exits_one(tmp_path, capsys, no_solve, extra):
    values = np.random.default_rng(0).standard_normal((4, 4, 3))
    rc, out, saved = _complete(tmp_path, values, *extra)
    assert rc == 1
    assert "error" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize("flag", ["--max-rank", "--initial-rank"])
@pytest.mark.parametrize("value", ["2.5", "abc", "2,2.5,2"])
def test_non_integer_rank_entry_exits_one(tmp_path, capsys, no_solve, flag, value):
    """A rank entry that is not an integer is refused by the library's one
    entry check, with a message naming the option, before the mask is drawn
    or saved."""
    values = np.random.default_rng(0).standard_normal((4, 4, 3))
    rc, out, saved = _complete(tmp_path, values, flag, value)
    assert rc == 1
    assert f"{flag} entries must be integers" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


@pytest.mark.parametrize("flag", ["--max-rank", "--initial-rank"])
@pytest.mark.parametrize("value", ["1e20", "9223372036854775807"])
def test_oversized_rank_entry_exits_one(tmp_path, capsys, no_solve, flag, value):
    """A rank entry that no int64 holds is refused in one line naming the
    option, before the mask is drawn or saved, and with no numpy warning of
    a wrapped cast (pytest would raise it)."""
    values = np.random.default_rng(0).standard_normal((4, 4, 3))
    rc, out, saved = _complete(tmp_path, values, flag, value)
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{flag} entries must be below 2**63" in err
    assert len(err.strip().splitlines()) == 1
    assert not out.exists() and not saved.exists()


def test_negative_seed_with_a_mask_file_saves_no_mask(tmp_path, capsys, no_solve):
    """With --mask as with --sr, the settings are refused before the mask is
    read or saved."""
    values = np.random.default_rng(0).standard_normal((4, 4, 3))
    src, mask = str(tmp_path / "in.fctn"), str(tmp_path / "m.fctn")
    write_tensor(src, values)
    write_mask(mask, np.random.default_rng(1).random(values.shape) < 0.5)
    out, saved = tmp_path / "out.fctn", tmp_path / "s.fctn"
    rc = main(["complete", "--input", src, "--output", str(out), "--mask", mask,
               "--seed", "-1", "--save-mask", str(saved)])
    assert rc == 1
    assert "seed" in capsys.readouterr().err
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


@pytest.mark.parametrize("flag, name", [("--est", "estimate"), ("--truth", "reference")])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("every", [False, True], ids=["one", "every"])
def test_non_finite_metrics_tensor_exits_one(tmp_path, capsys, flag, name, bad, every):
    """A non-finite entry in either tensor, one or every entry, is refused
    with a message naming that tensor, and no CSV is printed."""
    rng = np.random.default_rng(0)
    paths = {"--truth": str(tmp_path / "t.fctn"), "--est": str(tmp_path / "e.fctn")}
    truth = rng.standard_normal((5, 4, 3))
    write_tensor(paths["--truth"], truth)
    write_tensor(paths["--est"], truth + 0.01 * rng.standard_normal(truth.shape))
    values = np.full(truth.shape, bad) if every else truth.copy()
    values.flat[7] = bad
    write_tensor(paths[flag], values)
    rc = main(["metrics", "--truth", paths["--truth"], "--est", paths["--est"]])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert f"{name} has a non-finite entry" in err
