"""End-to-end tests for the command line interface, run in process."""
import argparse
import csv
import dataclasses
import io
import os
import re
from pathlib import Path

import numpy as np
import pytest

import fctnlr.cli
import fctnlr.fileio
from fctnlr import metrics
from fctnlr.bench import CSV_FIELDS
from fctnlr.cli import REPORT_FIELDS, _config, build_parser, main
from fctnlr.fileio import (
    read_tensor,
    sample_mask,
    write_mask,
    write_tensor,
)
from fctnlr.network import FctnFactors, FctnRank, compose
from fctnlr.laplacian import _SIGNS
from fctnlr.solver import _ALGORITHMS, SolverConfig


def _truth(seed, dims=(6, 5, 4), rank=2):
    """A tensor that an FCTN model of the given uniform rank can represent."""
    rng = np.random.default_rng(seed)
    return compose(FctnFactors.random(dims, FctnRank.uniform(len(dims), rank), rng))


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_missing_input_exits_one(tmp_path, capsys):
    rc = main([
        "complete",
        "--input", str(tmp_path / "absent.fctn"),
        "--output", str(tmp_path / "out.fctn"),
        "--sr", "0.5",
    ])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_mask_and_sr_are_exclusive(tmp_path, capsys):
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(0))
    mask_path = str(tmp_path / "m.fctn")
    write_mask(mask_path, np.ones((6, 5, 4), dtype=bool))
    out = str(tmp_path / "out.fctn")

    rc = main(["complete", "--input", src, "--output", out,
               "--mask", mask_path, "--sr", "0.4"])
    assert rc == 1
    assert "exactly one of --mask or --sr" in capsys.readouterr().err

    rc = main(["complete", "--input", src, "--output", out])
    assert rc == 1
    assert "exactly one of --mask or --sr" in capsys.readouterr().err


def test_usage_errors_exit_one(capsys):
    for argv in [[], ["complete"], ["complete", "--bogus"],
                 ["complete", "--algorithm", "zzz"]]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        capsys.readouterr()


def test_full_observation_returns_input_bytes(tmp_path, capsys):
    src = str(tmp_path / "in.fctn")
    out = str(tmp_path / "out.fctn")
    write_tensor(src, _truth(3))
    rc = main(["complete", "--input", src, "--output", out,
               "--sr", "1.0", "--max-rank", "2", "--max-iters", "5"])
    assert rc == 0
    assert "completed:" in capsys.readouterr().out
    assert open(out, "rb").read() == open(src, "rb").read()

    rc = main(["metrics", "--truth", src, "--est", out])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == ["psnr", "ssim", "rel_err", "rel_err_offmask"]
    assert lines[1].split(",") == ["100", "1", "0", "nan"]


def test_report_csv_structure(tmp_path):
    src = str(tmp_path / "in.fctn")
    out = str(tmp_path / "out.fctn")
    rep = str(tmp_path / "trace.csv")
    write_tensor(src, _truth(4))
    rc = main(["complete", "--input", src, "--output", out,
               "--sr", "0.4", "--eps", "0", "--max-iters", "8",
               "--max-rank", "2", "--initial-rank", "2",
               "--report", rep, "--seed", "1"])
    assert rc == 0
    rows = _read_rows(rep)
    assert len(rows) == 8
    assert list(rows[0].keys()) == [
        "iteration", "objective", "rel_change", "wall_ms", "flops",
        "rank", "mk_flops", "compose_flops", "proj_flops", "gram_flops", "step_sq",
        "x_norm", "factor_norm", "rank_grown",
    ]
    assert [int(r["iteration"]) for r in rows] == list(range(1, 9))
    objectives = [float(r["objective"]) for r in rows]
    assert all(np.isfinite(objectives))
    assert all("|" in r["rank"] for r in rows)
    assert all(int(r["flops"]) > 0 for r in rows)


def _readme_section(title):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    start = text.index(f"### {title}\n")
    end = text.find("\n#", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_readme_lists_report_columns_and_complete_options():
    """The README's `complete` section names the --report columns in order
    and every long option of the subcommand."""
    section = _readme_section("complete")
    listed = re.search(r"one column per\s+`IterationRecord` field:\s+`([^`]*)`", section)
    assert listed is not None
    assert [c.strip() for c in listed.group(1).split(",")] == REPORT_FIELDS
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = [o for a in sub.choices["complete"]._actions for o in a.option_strings
               if o.startswith("--") and o != "--help"]
    assert len(options) > 10
    missing = [o for o in options if not re.search(rf"(?<![\w-]){o}(?![\w-])", section)]
    assert missing == []


@pytest.mark.parametrize("n", [3, 4])
def test_complete_defaults_are_the_solver_defaults(n):
    """`complete` with only its required flags runs SolverConfig's default
    in every field."""
    args = build_parser().parse_args(["complete", "--input", "a", "--output", "b"])
    assert _config(args, n) == SolverConfig()


def test_complete_offers_every_solver_setting():
    """Every SolverConfig field but rank_policy (a fixed rank is
    --initial-rank equal to --max-rank) is a `complete` option of the same
    name with the field's default and choices, so no field takes its
    default unseen."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    actions = {a.dest: a for a in sub.choices["complete"]._actions}
    defaults = {fld.name: fld.default for fld in dataclasses.fields(SolverConfig)}
    assert set(defaults) - set(actions) == {"rank_policy"}
    del defaults["rank_policy"]
    for name, default in defaults.items():
        # the rank options are text, parsed against the tensor's order
        want = str(default) if name == "max_rank" else default
        assert actions[name].default == want, name
    choices = {name: tuple(actions[name].choices) for name in defaults if actions[name].choices}
    assert choices == {"algorithm": _ALGORITHMS, "laplacian_sign": tuple(_SIGNS)}


@pytest.mark.parametrize("flag, shuffle", [("--shuffle", True), ("--no-shuffle", False)])
def test_complete_shuffle_flags(flag, shuffle):
    args = build_parser().parse_args(["complete", "--input", "a", "--output", "b",
                                      "--algorithm", "afctnlr", flag])
    assert _config(args, 4) == SolverConfig(algorithm="afctnlr", shuffle=shuffle)


def test_repeated_runs_are_reproducible(tmp_path):
    """Both visiting orders reproduce from the seed, and --shuffle reaches
    the solver: its run ends elsewhere than the identity order's."""
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(5, dims=(7, 6, 5)))
    first = {}
    for order in ("--no-shuffle", "--shuffle"):
        outputs, reports = [], []
        for tag in ("a", "b"):
            out = str(tmp_path / f"out{order}_{tag}.fctn")
            rep = str(tmp_path / f"rep{order}_{tag}.csv")
            rc = main(["complete", "--input", src, "--output", out,
                       "--sr", "0.3", "--algorithm", "afctnlr", order,
                       "--max-iters", "12", "--eps", "0", "--seed", "7",
                       "--report", rep])
            assert rc == 0
            outputs.append(open(out, "rb").read())
            reports.append(_read_rows(rep))
        assert outputs[0] == outputs[1]
        for ra, rb in zip(*reports):
            ra.pop("wall_ms")
            rb.pop("wall_ms")
            assert ra == rb
        first[order] = outputs[0]
    assert first["--shuffle"] != first["--no-shuffle"]


def test_saved_mask_reruns_identically(tmp_path):
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(6))
    out1 = str(tmp_path / "out1.fctn")
    out2 = str(tmp_path / "out2.fctn")
    mask_path = str(tmp_path / "mask.fctn")
    base = ["--max-iters", "10", "--eps", "0", "--seed", "2"]
    rc = main(["complete", "--input", src, "--output", out1,
               "--sr", "0.35", "--save-mask", mask_path] + base)
    assert rc == 0
    rc = main(["complete", "--input", src, "--output", out2,
               "--mask", mask_path] + base)
    assert rc == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_extrapolation_flag(tmp_path, capsys):
    """Factor extrapolation is gone: asking for it is a usage error (exit 1)
    that writes no output."""
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(7))
    out = tmp_path / "out.fctn"
    with pytest.raises(SystemExit) as err:
        main(["complete", "--input", src, "--output", str(out),
              "--sr", "0.4", "--max-iters", "6", "--extrapolation", "0.5,0.5"])
    assert err.value.code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_shuffle_under_fctnlr_exits_one(tmp_path, capsys):
    """fctnlr has no reshuffled order: --shuffle with it is refused before
    a mask is drawn or saved, and no file is written."""
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(8))
    out, saved = tmp_path / "out.fctn", tmp_path / "mask.fctn"
    rc = main(["complete", "--input", src, "--output", str(out), "--sr", "0.4",
               "--save-mask", str(saved), "--algorithm", "fctnlr", "--shuffle"])
    assert rc == 1
    assert "shuffle needs algorithm='afctnlr'" in capsys.readouterr().err
    assert not out.exists() and not saved.exists()


def test_rank_table_parsing(tmp_path, capsys):
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(8))
    out = str(tmp_path / "out.fctn")
    common = ["complete", "--input", src, "--output", out,
              "--sr", "0.4", "--max-iters", "4"]
    assert main(common + ["--max-rank", "2,2,2"]) == 0
    assert main(common + ["--max-rank", "2,2"]) == 1
    assert "--max-rank takes one number or a list of 3, got a list of 2" in capsys.readouterr().err


def test_fixed_rank_policy_runs_at_max_rank(tmp_path, capsys):
    """A fixed rank is --initial-rank equal to --max-rank, and the run stays
    there; an --initial-rank above --max-rank is refused before any file is
    written."""
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(8))
    out, rep = tmp_path / "out.fctn", str(tmp_path / "trace.csv")
    common = ["complete", "--input", src, "--output", str(out), "--sr", "0.4",
              "--max-iters", "2", "--max-rank", "4"]
    assert main(common + ["--initial-rank", "4", "--report", rep]) == 0
    assert [r["rank"] for r in _read_rows(rep)] == ["4|4|4"] * 2
    out.unlink()
    assert main(common + ["--initial-rank", "5"]) == 1
    assert "initial rank exceeds max_rank" in capsys.readouterr().err
    assert not out.exists()


def test_numeric_failure_exits_two(tmp_path, capsys):
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(9))
    out = str(tmp_path / "out.fctn")
    rc = main(["complete", "--input", src, "--output", out,
               "--sr", "0.4", "--laplacian-sign", "as-printed",
               "--lambda", "1000000", "--max-iters", "5"])
    assert rc == 2
    assert "numeric failure" in capsys.readouterr().err


def test_gauge_runaway_exits_two(tmp_path, capsys):
    """An as-printed run whose objective keeps falling while the factors run
    off along the gauge must not print ``completed`` and exit 0."""
    src = str(tmp_path / "in.fctn")
    write_tensor(src, np.random.default_rng(0).standard_normal((8, 7, 6, 5)))
    out = tmp_path / "out.fctn"
    rc = main(["complete", "--input", src, "--output", str(out),
               "--sr", "0.4", "--seed", "0", "--laplacian-sign", "as-printed",
               "--lambda", "0.022", "--rho", "0.1", "--max-rank", "3",
               "--max-iters", "150"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "factor norm" in captured.err
    assert "completed" not in captured.out
    assert not out.exists()


def test_bench_stdout_smoke(capsys):
    rc = main(["bench", "--shape", "6,6,6", "--rank", "2",
               "--iters", "2", "--repeat", "1"])
    assert rc == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) >= 3
    assert list(rows[0].keys()) == CSV_FIELDS
    assert rows[-1]["kind"] == "ratio"
    assert float(rows[-1]["wall_ms"]) > 0.0


def test_bench_invalid_shape_exits_one(capsys):
    rc = main(["bench", "--shape", "4,5"])
    assert rc == 1
    assert "invalid shape" in capsys.readouterr().err


def test_bench_out_file_and_flop_integers(tmp_path, capsys):
    out = str(tmp_path / "bench.csv")
    rc = main(["bench", "--shape", "20,20,20,20", "--rank", "3",
               "--iters", "2", "--repeat", "1", "--out", out])
    assert rc == 0
    text = capsys.readouterr().out
    assert "speedup:" in text
    rows = _read_rows(out)
    measured = {r["algorithm"]: r for r in rows if r["kind"] == "measured"}
    predicted = {r["algorithm"]: r for r in rows if r["kind"] == "predicted"}
    assert int(measured["fctnlr"]["mk_flops_iter1"]) == 16329600
    # afctnlr takes the environment route here: one plain partial network
    assert int(measured["afctnlr"]["mk_flops_iter1"]) == 4082400
    assert int(measured["fctnlr"]["compose_flops_iter1"]) == 12722400
    assert int(measured["afctnlr"]["compose_flops_iter1"]) == 8640000
    for alg in ("fctnlr", "afctnlr"):
        assert measured[alg]["mk_flops_iter1"] == predicted[alg]["mk_flops_iter1"]
        assert (measured[alg]["compose_flops_iter1"]
                == predicted[alg]["compose_flops_iter1"])
        assert (measured[alg]["factor_matmul_flops_iter1"]
                == predicted[alg]["factor_matmul_flops_iter1"])


def test_bench_out_prints_the_host_facts(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FCTN_THREADS", "3")
    rc = main(["bench", "--shape", "6,6,6", "--rank", "2", "--iters", "1",
               "--repeat", "1", "--out", str(tmp_path / "bench.csv")])
    assert rc == 0
    host = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("host:")]
    assert len(host) == 1
    assert f"numpy={np.__version__} blas=" in host[0]
    assert host[0].endswith(f"cpus={os.cpu_count()} FCTN_THREADS=3")


def test_import_frames_command(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    for idx in range(2):
        raster = bytes([10 * (idx + 1), 20, 30, 40, 50, 60])
        with open(frames / f"frame{idx}.pgm", "wb") as fh:
            fh.write(b"P5\n3 2\n255\n" + raster)
    out = str(tmp_path / "video.fctn")
    rc = main(["import-frames", "--input-dir", str(frames), "--output", out])
    assert rc == 0
    assert "imported: shape=(2, 3, 1, 2)" in capsys.readouterr().out
    vol = read_tensor(out)
    assert vol.shape == (2, 3, 1, 2)
    assert vol[0, 0, 0, 0] == pytest.approx(10 / 255)
    assert vol[0, 0, 0, 1] == pytest.approx(20 / 255)


def test_import_frames_rejects_a_negative_sample(tmp_path, capsys):
    frames = tmp_path / "frames"
    frames.mkdir()
    with open(frames / "frame0.pgm", "wb") as fh:
        fh.write(b"P2\n2 2\n255\n0 -5 10 255\n")
    out = tmp_path / "video.fctn"
    rc = main(["import-frames", "--input-dir", str(frames), "--output", str(out)])
    assert rc == 1
    assert "frame0.pgm: token b'-5'" in capsys.readouterr().err
    assert not out.exists()


def test_metrics_masked_column(tmp_path, capsys):
    dims = (5, 4, 3)
    rng = np.random.default_rng(11)
    truth = rng.standard_normal(dims)
    est = truth + 0.01 * rng.standard_normal(dims)
    tpath, epath = str(tmp_path / "t.fctn"), str(tmp_path / "e.fctn")
    write_tensor(tpath, truth)
    write_tensor(epath, est)

    mask = sample_mask(dims, 0.5, 0)
    mpath = str(tmp_path / "m.fctn")
    write_mask(mpath, mask)
    rc = main(["metrics", "--truth", tpath, "--est", epath, "--mask", mpath,
               "--peak", str(float(np.ptp(truth)))])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    expected_off = metrics.rel_err(est, truth, mask=mask)
    assert float(row[2]) == pytest.approx(metrics.rel_err(est, truth), rel=1e-9)
    assert float(row[3]) == pytest.approx(expected_off, rel=1e-9)

    full = str(tmp_path / "full.fctn")
    write_mask(full, np.ones(dims, dtype=bool))
    rc = main(["metrics", "--truth", tpath, "--est", epath, "--mask", full])
    assert rc == 0
    row = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert row[3] == "nan"


def _forbidden(*args, **kwargs):
    raise AssertionError("work ran before the output paths were checked")


@pytest.mark.parametrize("flag", ["--output", "--report", "--save-mask"])
def test_complete_output_in_a_missing_directory_exits_one(tmp_path, capsys, monkeypatch, flag):
    """An output path in a missing directory is refused before a mask is
    drawn or the solve runs, and no file is written."""
    src = str(tmp_path / "in.fctn")
    write_tensor(src, _truth(8))
    monkeypatch.setattr(fctnlr.fileio, "sample_mask", _forbidden)
    monkeypatch.setattr(fctnlr.cli, "run", _forbidden)
    paths = {"--output": tmp_path / "out.fctn", "--report": tmp_path / "trace.csv",
             "--save-mask": tmp_path / "mask.fctn"}
    paths[flag] = tmp_path / "nodir" / "x"
    rc = main(["complete", "--input", src, "--sr", "0.4",
               *(part for opt, path in paths.items() for part in (opt, str(path)))])
    assert rc == 1
    assert f"cannot write {paths[flag]}: its directory does not exist" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.fctn"]


@pytest.mark.parametrize("folder", ["nodir", "file.txt"])
def test_bench_out_in_a_missing_directory_exits_one(tmp_path, capsys, monkeypatch, folder):
    (tmp_path / "file.txt").write_text("")
    monkeypatch.setattr(fctnlr.cli, "run_bench", _forbidden)
    out = tmp_path / folder / "bench.csv"
    rc = main(["bench", "--shape", "6,6,6", "--rank", "2", "--out", str(out)])
    assert rc == 1
    assert "its directory does not exist" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file.txt"]


def test_import_frames_output_in_a_missing_directory_exits_one(tmp_path, capsys, monkeypatch):
    frames = tmp_path / "frames"
    frames.mkdir()
    (frames / "frame0.pgm").write_bytes(b"P5\n3 2\n255\n" + bytes(6))
    monkeypatch.setattr(fctnlr.fileio, "import_frames", _forbidden)
    out = tmp_path / "nodir" / "video.fctn"
    rc = main(["import-frames", "--input-dir", str(frames), "--output", str(out)])
    assert rc == 1
    assert "its directory does not exist" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["frames"]
