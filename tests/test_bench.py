"""Tests for the paired benchmark harness and its shape parsing."""
import pytest

from fctnlr.bench import CSV_FIELDS, BenchConfig, parse_shape, run_bench
from oracles import (
    compose_flops,
    compose_from_partial_flops,
    partial_sweep_flops,
    partial_sweep_flops_cached,
    uniform_plan,
)


def test_parse_shape_accepts_comma_and_space_forms():
    assert parse_shape("6,6,6") == (6, 6, 6)
    assert parse_shape("40,40,40,40") == (40, 40, 40, 40)
    assert parse_shape("5 5") == (5, 5)


def test_parse_shape_rejects_bad_input():
    for text in ["a,b", "4", "0,0", "4,5", "3,-3"]:
        with pytest.raises(ValueError) as err:
            parse_shape(text)
        assert str(err.value).startswith("invalid shape")


def test_config_from_shape():
    cfg = BenchConfig.from_shape("6,6,6", rank=2, iters=3)
    assert cfg.order == 3
    assert cfg.extent == 6
    assert cfg.shape == (6, 6, 6)
    same = BenchConfig.from_shape((5, 5), rank=1)
    assert (same.order, same.extent) == (2, 5)
    with pytest.raises(ValueError):
        BenchConfig.from_shape((4, 5))


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(order=1)
    with pytest.raises(ValueError):
        BenchConfig(extent=0)
    with pytest.raises(ValueError):
        BenchConfig(rank=0)
    with pytest.raises(ValueError):
        BenchConfig(iters=0)
    with pytest.raises(ValueError):
        BenchConfig(repeats=0)


def test_run_bench_counts_match_cost_model():
    cfg = BenchConfig(order=4, extent=6, rank=2, iters=2, repeats=2, seed=0)
    res = run_bench(cfg)

    n, i, r = 4, 6, 2
    # the dense Gram route here, so afctnlr builds every M
    assert uniform_plan(n, i, r, "fctnlr").positions[0].gram is None
    assert not any(pos.product is not None for pos in uniform_plan(n, i, r, "afctnlr").positions)
    assert res.mk_iter1["fctnlr"] == partial_sweep_flops(n, i, r)
    assert res.mk_iter1["afctnlr"] == partial_sweep_flops_cached(n, i, r)
    assert res.compose_iter1["fctnlr"] == compose_flops(n, i, r)
    assert res.compose_iter1["afctnlr"] == compose_from_partial_flops(n, i, r)
    assert res.mk_iter1["afctnlr"] < res.mk_iter1["fctnlr"]
    assert res.compose_iter1["afctnlr"] < res.compose_iter1["fctnlr"]

    # the data products, and the dense Grams of this shape
    shared = n * (2 * i**n * r ** (n - 1) + 2 * i ** (n - 1) * r ** (2 * (n - 1)))
    assert res.factor_matmul_iter1["fctnlr"] == shared
    assert res.factor_matmul_iter1["afctnlr"] == shared

    assert res.totals["afctnlr"] < res.totals["fctnlr"]

    for alg in ("fctnlr", "afctnlr"):
        pred = res.predicted[alg]
        assert pred == uniform_plan(n, i, r, alg).flops
        assert pred["mk"] == res.mk_iter1[alg]
        assert pred["compose"] == res.compose_iter1[alg]
        assert pred["proj"] + pred["gram"] == shared


def test_run_bench_rows_layout():
    cfg = BenchConfig(order=3, extent=5, rank=2, iters=1, repeats=2, seed=1)
    res = run_bench(cfg)
    rows = res.rows()
    assert len(rows) == 2 * cfg.repeats + 2 + 2 + 1
    kinds = [row["kind"] for row in rows]
    assert kinds == [
        "measured", "measured", "median",
        "measured", "measured", "median",
        "predicted", "predicted", "ratio",
    ]
    for row in rows:
        assert list(row.keys()) == CSV_FIELDS
    assert rows[-1]["algorithm"] == "afctnlr/fctnlr"
    assert rows[-1]["wall_ms"] == f"{res.speedup():.6f}"
    assert res.speedup() == res.medians["afctnlr"] / res.medians["fctnlr"]
    measured_walls = [row["wall_ms"] for row in rows if row["kind"] == "measured"]
    assert all(float(w) >= 0.0 for w in measured_walls)
