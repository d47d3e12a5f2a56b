"""Acceptance checks: ten end-to-end properties of the library, one test per
numbered check.  Each prints a single ``[acceptance NN]`` report line with a
PASS or FAIL verdict and a short measurement summary; run with ``pytest -s``
to see every line.  Expected values that are not forced by an exact identity
were computed once with independent oracles and are frozen here."""
import csv
import math
import subprocess
import sys
import time

import numpy as np

from fctnlr.bench import BenchConfig, run_bench
from fctnlr.fileio import sample_mask, write_tensor
from fctnlr.laplacian import CirculantLaplacian
from fctnlr.metrics import psnr, rel_err, ssim
from fctnlr.network import (
    FctnFactors,
    FctnRank,
    compose,
    compose_except,
    property1_unfold,
)
from fctnlr.solver import Observation, SolverConfig, run
from fctnlr.sylvester import dense_gram, solve_factor
from fctnlr.tensor import mode_unfold
from oracles import smooth_factors


def _report(num, name, ok, detail=""):
    line = f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# ---------- independent oracles, shared by several checks ---------- #


def _nested_sum(f):
    """Element-by-element network evaluation: for every output index, sum the
    product of one entry per factor over all joint bond assignments."""
    n = f.n
    bonds = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sizes = [f.rank[i, j] for i, j in bonds]
    pos = {b: t for t, b in enumerate(bonds)}
    slots = [
        [None if j == k else pos[(min(j, k), max(j, k))] for j in range(n)]
        for k in range(n)
    ]
    arrays = [f.factor(k) for k in range(n)]
    out = np.zeros(f.dims)
    for el in np.ndindex(*f.dims):
        acc = 0.0
        for rv in np.ndindex(*sizes):
            term = 1.0
            for k in range(n):
                idx = tuple(el[k] if p is None else rv[p] for p in slots[k])
                term *= arrays[k][idx]
            acc += term
        out[el] = acc
    return out


def _band_stencil(n, delta, sign):
    """Dense circulant second-difference matrix built column by column."""
    mat = np.zeros((n, n))
    for j in range(n):
        col = np.zeros(n)
        col[j] += -2.0 - delta
        col[(j - 1) % n] += 1.0
        col[(j + 1) % n] += 1.0
        mat[:, j] = col
    if sign == "positive-definite":
        mat = -mat
    return mat


def _loop_psnr(x, ref, peak):
    h, w = x.shape[:2]
    xs = x.reshape((h, w, -1), order="F")
    rs = ref.reshape((h, w, -1), order="F")
    vals = []
    for t in range(xs.shape[2]):
        acc = 0.0
        for i in range(h):
            for j in range(w):
                d = xs[i, j, t] - rs[i, j, t]
                acc += d * d
        mse = acc / (h * w)
        vals.append(100.0 if mse == 0.0 else 10.0 * math.log10(peak * peak / mse))
    return sum(vals) / len(vals)


def _loop_ssim(x, ref, peak):
    h, w = x.shape[:2]
    xs = x.reshape((h, w, -1), order="F")
    rs = ref.reshape((h, w, -1), order="F")
    c1 = (0.01 * peak) ** 2
    c2 = (0.03 * peak) ** 2
    vals = []
    for t in range(xs.shape[2]):
        a, b = xs[:, :, t], rs[:, :, t]
        npx = h * w
        mu_a = sum(a[i, j] for i in range(h) for j in range(w)) / npx
        mu_b = sum(b[i, j] for i in range(h) for j in range(w)) / npx
        var_a = sum((a[i, j] - mu_a) ** 2 for i in range(h) for j in range(w)) / npx
        var_b = sum((b[i, j] - mu_b) ** 2 for i in range(h) for j in range(w)) / npx
        cov = sum(
            (a[i, j] - mu_a) * (b[i, j] - mu_b) for i in range(h) for j in range(w)
        ) / npx
        num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
        den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
        vals.append(num / den)
    return sum(vals) / len(vals)


# ---------- the ten checks ---------- #


def test_01_composition_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    count = 0
    for n in (3, 4):
        for seed in range(104):
            rng = np.random.default_rng(1000 * n + seed)
            dims = tuple(int(v) for v in rng.integers(1, 4, size=n))
            tri = [int(v) for v in rng.integers(1, 3, size=n * (n - 1) // 2)]
            f = FctnFactors.random(dims, FctnRank(n, tri), rng)
            got = compose(f)
            ref = _nested_sum(f)
            scale = max(float(np.linalg.norm(ref)), 1e-300)
            worst = max(worst, float(np.linalg.norm(got - ref)) / scale)
            count += 1
    elapsed = time.perf_counter() - t0
    ok = count >= 200 and worst <= 1e-12 and elapsed <= 30.0
    _report(
        1,
        "composition matches the nested-sum element formula",
        ok,
        f"{count} instances, max rel err {worst:.3e}, {elapsed:.1f}s",
    )


def test_02_leave_one_out_identity():
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(3, 5))
        dims = tuple(int(v) for v in rng.integers(2, 5, size=n))
        tri = [int(v) for v in rng.integers(1, 4, size=n * (n - 1) // 2)]
        f = FctnFactors.random(dims, FctnRank(n, tri), rng)
        full = compose(f)
        for k in range(n):
            lhs = mode_unfold(full, k)
            rhs = mode_unfold(f.factor(k), k) @ property1_unfold(
                compose_except(f, k), k, n
            )
            worst = max(
                worst,
                float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(lhs)),
            )
    _report(
        2,
        "leave-one-out network reproduces every mode unfolding",
        worst <= 1e-12,
        f"100 instances, every mode, max rel err {worst:.3e}",
    )


def test_03_factor_solve_dense_equivalence():
    deltas = (0.3, 0.4, 0.5, 0.6)
    worst_sol = 0.0
    worst_stat = 0.0
    max_qs = 0
    cases = [(None, None, None)] * 99 + [(40, 50, 12)]
    for seed, (fq, fs, fp) in enumerate(cases):
        rng = np.random.default_rng(8000 + seed)
        q = fq if fq else int(rng.integers(2, 21))
        s = fs if fs else int(rng.integers(1, 17))
        p = fp if fp else int(rng.integers(1, 25))
        lam = float(rng.uniform(0.05, 2.0))
        rho = float(rng.uniform(0.01, 1.0))
        delta = deltas[seed % 4]
        max_qs = max(max_qs, q * s)
        assert q * s <= 4096
        lap = CirculantLaplacian(q, delta)
        x_k = rng.standard_normal((q, p))
        m = rng.standard_normal((s, p))
        a_prev = rng.standard_normal((q, s))
        a = solve_factor(x_k @ m.T, a_prev, dense_gram(m), lap, lam, rho)

        ldense = _band_stencil(q, delta, "positive-definite")
        gram = m @ m.T
        big = (
            np.kron(gram, np.eye(q))
            + lam * np.kron(np.eye(s), ldense)
            + rho * np.eye(q * s)
        )
        rhs = x_k @ m.T + rho * a_prev
        ref = np.linalg.solve(big, rhs.reshape(q * s, order="F"))
        ref = ref.reshape((q, s), order="F")
        scale = max(float(np.linalg.norm(ref)), 1e-300)
        worst_sol = max(worst_sol, float(np.linalg.norm(a - ref)) / scale)

        resid = lam * (ldense @ a) + a @ gram + rho * a - rhs
        rhs_scale = max(float(np.linalg.norm(rhs)), 1e-300)
        worst_stat = max(worst_stat, float(np.linalg.norm(resid)) / rhs_scale)
    ok = worst_sol <= 1e-8 and worst_stat <= 1e-8
    _report(
        3,
        "factor solve matches the dense Kronecker system",
        ok,
        f"100 instances, max q*s {max_qs}, sol err {worst_sol:.3e}, "
        f"stationarity {worst_stat:.3e}",
    )


def test_04_circulant_diagonalization():
    worst = 0.0
    for n in range(1, 65):
        eye = np.eye(n)
        for delta in (0.3, 0.4, 0.5, 0.6):
            for sign in ("positive-definite", "as-printed"):
                lap = CirculantLaplacian(n, delta, sign=sign)
                fmat = lap.apply_F(eye)
                recon = fmat.conj().T @ (lap.eigenvalues[:, None] * fmat)
                diff = np.max(np.abs(recon - _band_stencil(n, delta, sign)))
                worst = max(worst, float(diff))
    _report(
        4,
        "spectral reconstruction matches the band stencil",
        worst <= 1e-12,
        f"n up to 64, four shifts, both orientations, max entry diff {worst:.3e}",
    )


def test_05_sufficient_decrease():
    dims = (10, 10, 3, 6)
    truth = np.random.default_rng(0).standard_normal(dims)
    obs = Observation.from_dense(truth, sample_mask(dims, 0.3, 0))
    cfg = SolverConfig(
        lam=0.35,
        delta=0.5,
        rho=0.1,
        eps=0.0,
        max_iters=120,
        max_rank=2,
        initial_rank=2,
        rank_policy="fixed",
        algorithm="fctnlr",
        seed=0,
    )
    res = run(obs, cfg)
    objs = [res.initial_objective] + [rec.objective for rec in res.trace]
    rises = sum(1 for a, b in zip(objs, objs[1:]) if b > a + 1e-9 * abs(a))
    x_ratio = max(rec.x_norm for rec in res.trace) / res.trace[0].x_norm
    f_ratio = max(rec.factor_norm for rec in res.trace) / res.trace[0].factor_norm
    ok = rises == 0 and x_ratio <= 1e3 and f_ratio <= 1e3
    _report(
        5,
        "objective decreases monotonically with bounded iterates",
        ok,
        f"{len(res.trace)} iterations, {rises} rises, "
        f"norm growth x{x_ratio:.3f} (tensor) x{f_ratio:.3f} (factors)",
    )


def test_06_desk_scale_recovery():
    dims = (12, 12, 3, 8)
    gt = compose(smooth_factors(dims, 2, 3))
    mask = sample_mask(dims, 0.3, 3)
    obs = Observation.from_dense(gt, mask)
    cfg = SolverConfig(
        lam=0.35,
        delta=0.5,
        rho=0.1,
        eps=1e-6,
        max_iters=500,
        max_rank=2,
        rank_policy="threshold",
        seed=0,
    )
    t0 = time.perf_counter()
    res = run(obs, cfg)
    elapsed = time.perf_counter() - t0
    err = rel_err(res.x, gt, mask=mask)
    ok = err <= 1e-2 and res.iterations <= 500 and elapsed <= 120.0
    _report(
        6,
        "smooth low-rank instance recovered off the observed set",
        ok,
        f"off-mask rel err {err:.3e} after {res.iterations} iterations, "
        f"{elapsed:.1f}s",
    )


def test_07_algorithm_equivalence():
    dims = (6, 6, 4, 4)
    worst = 0.0
    for seed in (0, 5):
        truth = np.random.default_rng(seed).standard_normal(dims)
        obs = Observation.from_dense(truth, sample_mask(dims, 0.4, seed))
        for iters in range(1, 51):
            base = dict(
                lam=0.35,
                delta=0.5,
                rho=0.1,
                eps=0.0,
                max_iters=iters,
                max_rank=2,
                initial_rank=2,
                rank_policy="fixed",
                seed=seed,
            )
            ra = run(obs, SolverConfig(algorithm="fctnlr", **base))
            rb = run(obs, SolverConfig(algorithm="afctnlr", shuffle=False, **base))
            rel = float(np.linalg.norm(ra.x - rb.x)) / float(np.linalg.norm(ra.x))
            worst = max(worst, rel)
    _report(
        7,
        "accelerated variant reproduces the baseline iterates",
        worst <= 1e-10,
        f"two seeds, 50 iteration prefixes each, max rel diff {worst:.3e}",
    )


def test_08_acceleration_direction():
    res = run_bench(BenchConfig(order=4, extent=40, rank=4, iters=30, repeats=5, seed=0))
    mk_base = res.mk_iter1["fctnlr"]
    mk_acc = res.mk_iter1["afctnlr"]
    cp_base = res.compose_iter1["fctnlr"]
    cp_acc = res.compose_iter1["afctnlr"]
    # the data products, the Gram matrices and each variant's whole first
    # sweep, so that work moved between phases cannot pass
    pj_base = res.proj_iter1["fctnlr"]
    pj_acc = res.proj_iter1["afctnlr"]
    total_base = mk_base + cp_base + res.factor_matmul_iter1["fctnlr"]
    total_acc = mk_acc + cp_acc + res.factor_matmul_iter1["afctnlr"]
    flops_ok = (
        mk_base == 537395200
        and mk_acc == 134348800
        and cp_base == 462028800
        and cp_acc == 327680000
        and pj_base == 1310720000
        and pj_acc == 927334400
        and res.gram_iter1["fctnlr"] == res.gram_iter1["afctnlr"] == 20709376
        and total_base == 2330853376
        and total_acc == 1410072576
        and mk_acc < mk_base
        and cp_acc < cp_base
        and pj_acc < pj_base
        and total_acc < total_base
    )
    ratio = res.speedup()
    wall_ok = ratio <= 0.95
    _report(
        8,
        "accelerated variant does strictly less contraction work",
        flops_ok and wall_ok,
        f"partial-network flops {mk_base} vs {mk_acc}, composition flops "
        f"{cp_base} vs {cp_acc}, data-product flops {pj_base} vs {pj_acc}, "
        f"sweep flops {total_base} vs {total_acc}, "
        f"median wall ratio {ratio:.4f} vs bound 0.95; "
        f"the 10-30 percent wall-clock band is hardware dependent and is "
        f"reported, not asserted",
    )


def test_09_metrics_conformance():
    worst_p = 0.0
    worst_s = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.random((4, 4, 2, 2))
        ref = rng.random((4, 4, 2, 2))
        worst_p = max(worst_p, abs(psnr(x, ref) - _loop_psnr(x, ref, 1.0)))
        worst_s = max(worst_s, abs(ssim(x, ref) - _loop_ssim(x, ref, 1.0)))
    x = np.random.default_rng(99).random((4, 4, 2, 2))
    exact_one = ssim(x, x) == 1.0
    ok = worst_p <= 1e-10 and worst_s <= 1e-10 and exact_one
    _report(
        9,
        "quality metrics match scalar-loop recomputation",
        ok,
        f"20 pairs, psnr diff {worst_p:.3e}, ssim diff {worst_s:.3e}, "
        f"self ssim exactly one: {exact_one}",
    )


def test_10_cli_determinism(tmp_path):
    src = str(tmp_path / "in.fctn")
    write_tensor(src, np.random.default_rng(12).standard_normal((8, 8, 3, 4)))
    outputs = []
    reports = []
    for tag in ("first", "second"):
        out = tmp_path / f"out_{tag}.fctn"
        rep = tmp_path / f"rep_{tag}.csv"
        proc = subprocess.run(
            [
                sys.executable, "-m", "fctnlr", "complete",
                "--input", src,
                "--output", str(out),
                "--sr", "0.3",
                "--algorithm", "afctnlr",
                "--eps", "0",
                "--max-iters", "12",
                "--seed", "3",
                "--report", str(rep),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
        with open(rep, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("wall_ms")
        reports.append(rows)
    ok = outputs[0] == outputs[1] and reports[0] == reports[1]
    _report(
        10,
        "repeated CLI invocations are reproducible",
        ok,
        "byte-identical outputs, traces equal after dropping the timing column",
    )
