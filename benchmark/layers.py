"""Reduce one traced solve to per-layer metrics, and check FLOP identities.

Values are per sweep on fixed-sweep workloads and totals on the quality
workload, except ratios, rates, peaks and the iteration and growth counts.
``tensor.copy_bytes`` is computed from result ``nbytes`` and is a lower
bound: raw ``np.asfortranarray`` calls inside the library are not visible
from outside.
"""
from __future__ import annotations

# name -> (unit, spans it is measured from; empty when it comes from records)
LAYER_METRICS = {
    "tensor.copy_bytes": ("bytes", ("tensor.copy", "solver.x_unfold")),
    "tensor.copy_ms": ("ms", ("tensor.copy", "solver.x_unfold")),
    "tensor.contract_self_ms": ("ms", ("tensor.contract",)),
    "tensor.contract_gflops": ("GFLOP/s", ("tensor.contract",)),
    "network.mk_flops": ("flop", ()),
    "network.mk_ms": ("ms", ("network.mk",)),
    "network.compose_flops": ("flop", ()),
    "network.compose_ms": ("ms", ("network.compose",)),
    "network.partial_unfold_ms": ("ms", ("network.partial_unfold",)),
    "network.cache_hits": ("count", ("network.cache",)),
    "network.cache_misses": ("count", ("network.cache",)),
    "network.cache_hit_ratio": ("1", ("network.cache",)),
    "network.cache_peak_bytes": ("bytes", ("network.cache",)),
    "sylvester.gram_flops": ("flop", ()),
    "sylvester.proj_flops": ("flop", ()),
    "sylvester.gram_eigh_ms": ("ms", ("sylvester.gram_eigh",)),
    "sylvester.gram_gflops": ("GFLOP/s", ("sylvester.gram_eigh",)),
    "sylvester.solve_self_ms": ("ms", ("sylvester.solve",)),
    "laplacian.fft_ms": ("ms", ("laplacian.fft",)),
    "laplacian.penalty_ms": ("ms", ("laplacian.penalty",)),
    "solver.iterations": ("count", ()),
    "solver.rank_growths": ("count", ()),
    "solver.x_unfold_ms": ("ms", ("solver.x_unfold",)),
    "solver.objective_ms": ("ms", ("solver.objective",)),
    "solver.update_x_ms": ("ms", ("solver.update_x",)),
    "solver.self_ms": ("ms", ("solver.run",)),
    "solver.sweep_ms_traced": ("ms", ("solver.run",)),
}

# Measured only where the workload goes through the command line; reported
# beside the metrics above, but not in BENCHMARK.json (see BASELINE.md).
CLI_METRICS = {
    "fileio.read_ms": ("ms", ("fileio.read",)),
    "fileio.write_ms": ("ms", ("fileio.write",)),
    "fileio.bytes": ("bytes", ("fileio.read", "fileio.write")),
    "cli.self_ms": ("ms", ("cli.main",)),
}


def layer_metrics(tracer, records, per_sweep: bool):
    """Return ({metric: value or None when absent}, [identity errors])."""
    agg = tracer.reduce()
    iterations = len(records)
    scale = 1.0 / iterations if per_sweep else 1.0
    errors = []

    # FLOPs of the sweeps, by label: the run span minus the initial objective,
    # which is the only metered work run() does outside its sweeps.
    run_span = tracer.first("solver.run")
    first_obj = tracer.first("solver.objective")
    in_run = run_span[6] if run_span else {}
    before = first_obj[6] if first_obj else {}
    labels = {k: v - before.get(k, 0) for k, v in in_run.items()}
    rec_flops = sum(r.flops for r in records)
    rec_mk = sum(r.mk_flops for r in records)
    rec_compose = sum(r.compose_flops for r in records)
    if labels.get("total") != rec_flops:
        errors.append(f"traced FLOPs {labels.get('total')} != records {rec_flops}")
    if labels.get("unlabeled", 0):
        errors.append("some FLOPs of the sweeps carry no label")
    if labels.get("mk", 0) != rec_mk or labels.get("compose", 0) != rec_compose:
        errors.append("mk/compose labels disagree with IterationRecord")

    hits = sum(c.hits for c in tracer.caches)
    misses = sum(c.misses for c in tracer.caches)
    contract_s = agg["tensor.contract"]["self_ms"] / 1e3
    gram_s = agg["sylvester.gram_eigh"]["ms"] / 1e3
    values = {
        "tensor.copy_bytes": agg["copy"]["bytes"] * scale,
        "tensor.copy_ms": agg["copy"]["ms"] * scale,
        "tensor.contract_self_ms": agg["tensor.contract"]["self_ms"] * scale,
        "tensor.contract_gflops": (
            agg["tensor.contract"]["flops"] / contract_s / 1e9 if contract_s else 0.0
        ),
        "network.mk_flops": rec_mk * scale,
        "network.mk_ms": agg["network.mk"]["ms"] * scale,
        "network.compose_flops": rec_compose * scale,
        "network.compose_ms": agg["network.compose"]["ms"] * scale,
        "network.partial_unfold_ms": agg["network.partial_unfold"]["ms"] * scale,
        "network.cache_hits": hits * scale,
        "network.cache_misses": misses * scale,
        "network.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "network.cache_peak_bytes": tracer.cache_peak,
        "sylvester.gram_flops": labels.get("gram", 0) * scale,
        "sylvester.proj_flops": labels.get("proj", 0) * scale,
        "sylvester.gram_eigh_ms": agg["sylvester.gram_eigh"]["ms"] * scale,
        "sylvester.gram_gflops": (
            agg["sylvester.gram_eigh"]["flops"] / gram_s / 1e9 if gram_s else 0.0
        ),
        "sylvester.solve_self_ms": agg["sylvester.solve"]["self_ms"] * scale,
        "laplacian.fft_ms": agg["laplacian.fft"]["ms"] * scale,
        "laplacian.penalty_ms": agg["laplacian.penalty"]["ms"] * scale,
        "solver.iterations": iterations,
        "solver.rank_growths": sum(1 for r in records if r.rank_grown),
        "solver.x_unfold_ms": agg["solver.x_unfold"]["ms"] * scale,
        "solver.objective_ms": agg["solver.objective"]["ms"] * scale,
        "solver.update_x_ms": agg["solver.update_x"]["ms"] * scale,
        "solver.self_ms": agg["solver.run"]["self_ms"] * scale,
        "solver.sweep_ms_traced": agg["solver.run"]["ms"] / iterations,
        "fileio.read_ms": agg["fileio.read"]["ms"],
        "fileio.write_ms": agg["fileio.write"]["ms"],
        "fileio.bytes": agg["fileio.read"]["bytes"] + agg["fileio.write"]["bytes"],
        "cli.self_ms": agg["cli.main"]["self_ms"],
    }
    for name, (_, spans) in {**LAYER_METRICS, **CLI_METRICS}.items():
        if spans and tracer.is_absent(agg, *spans):
            values[name] = None
    return values, errors
