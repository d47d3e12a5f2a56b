"""Outside-in per-layer tracing of one solve.

Spans are installed from here, without touching the program: for each layer
boundary the function one layer calls in the next is rebound, in the module
that imported it (or on the class that defines it), to a wrapper that records
a span.  A span holds its name, start, end, parent span, the FLOPs metered on
``fctnlr.tensor.FLOPS`` while it was open, and an optional byte count.  Spans
stay in memory and are reduced to per-layer metrics when the solve ends.

A hook whose target no longer exists is recorded as absent and skipped; the
metrics that only it feeds are then reported absent instead of failing the run.
"""
from __future__ import annotations

import collections
import functools
import os
import time

import numpy as np

import fctnlr.cli
import fctnlr.fileio
import fctnlr.laplacian
import fctnlr.network
import fctnlr.solver
import fctnlr.sylvester
import fctnlr.tensor
from fctnlr.tensor import FLOPS

# Spans that move data between layouts.  Copy metrics count only the
# outermost of nested ones (mode_unfold calls gunfold).
COPY_SPANS = ("tensor.copy", "solver.x_unfold")


def _copied_bytes(args, out):
    """Result bytes of a layout function, or 0 when it returned a view."""
    return 0 if np.may_share_memory(out, args[0]) else out.nbytes


def _file_bytes(args, out):
    return os.path.getsize(args[0])


class Tracer:
    def __init__(self, dims):
        self.dims = tuple(dims)
        # [name, start, end, parent, flops, nbytes, label_delta]
        self.spans = []
        self.absent = []
        self._stack = []
        self._undo = []
        self.caches = []
        self.cache_peak = 0
        self._missing = set()  # span names an absent hook would have fed
        self.kept = {}  # span name -> last return value, for hooks with keep

    # ---------- recording ---------- #

    def open(self, name, labels=False):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        snap = FLOPS.snapshot() if labels else None
        self.spans.append([name, 0.0, 0.0, parent, FLOPS.total, 0, snap])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def close(self, idx, nbytes=0):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[2] = end
        span[4] = FLOPS.total - span[4]
        span[5] = nbytes
        if span[6] is not None:
            after = FLOPS.snapshot()
            span[6] = {k: v - span[6].get(k, 0) for k, v in after.items()}

    def _wrap(self, fn, name, measure=None, labels=False, keep=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            idx = tracer.open(span_name, labels)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx, measure(args, out) if measure else 0)
            if keep:
                tracer.kept[span_name] = out
            return out

        return wrapper

    def _hook(self, owner, attr, name, measure=None, labels=False, keep=False):
        target = getattr(owner, attr, None)
        if target is None:
            path = f"{getattr(owner, '__name__', owner)}.{attr}"
            self.absent.append(path)
            self._missing.update(COPY_SPANS if callable(name) else (name,))
            return
        self._undo.append((owner, attr, target))
        setattr(owner, attr, self._wrap(target, name, measure, labels, keep))

    # ---------- installing the hooks ---------- #

    def _x_or_copy(self, args):
        shape = getattr(args[0], "shape", None)
        return "solver.x_unfold" if shape == self.dims else "tensor.copy"

    def install(self):
        solver, network, tensor = fctnlr.solver, fctnlr.network, fctnlr.tensor
        # solver -> network / sylvester / tensor
        for attr in ("compose_except", "_compose_except_cached_labeled"):
            self._hook(solver, attr, "network.mk")
        for attr in ("compose", "_compose_from_partial_view"):
            self._hook(solver, attr, "network.compose")
        for attr in ("property1_unfold", "_solve_unfold_from_labels"):
            self._hook(solver, attr, "network.partial_unfold")
        for attr in ("gunfold", "mode_unfold"):
            self._hook(solver, attr, self._x_or_copy, _copied_bytes)
        self._hook(solver, "mode_fold", "tensor.copy", _copied_bytes)
        self._hook(solver, "solve_factor", "sylvester.solve")
        self._hook(solver, "objective", "solver.objective", labels=True)
        self._hook(solver, "update_x", "solver.update_x")
        self._hook_cache(solver)
        # network -> tensor
        self._hook(network, "contract", "tensor.contract")
        for attr in ("gunfold", "transpose"):
            self._hook(network, attr, "tensor.copy", _copied_bytes)
        # tensor -> tensor (contract and mode_(un)fold unfold through these)
        for attr in ("gunfold", "gfold"):
            self._hook(tensor, attr, "tensor.copy", _copied_bytes)
        # sylvester -> its Gram/eigh step, and -> laplacian
        self._hook(fctnlr.sylvester, "eig_gram", "sylvester.gram_eigh")
        lap = getattr(fctnlr.laplacian, "CirculantLaplacian", None)
        if lap is None:
            self.absent.append("fctnlr.laplacian.CirculantLaplacian")
            self._missing.update(("laplacian.fft", "laplacian.penalty"))
        else:
            self._hook(lap, "apply_F", "laplacian.fft")
            self._hook(lap, "apply_FH", "laplacian.fft")
            self._hook(lap, "trace_penalty", "laplacian.penalty")
        # cli -> solver / fileio
        self._hook(fctnlr.cli, "run", "solver.run", labels=True, keep=True)
        for attr in ("read_tensor", "read_mask"):
            self._hook(fctnlr.fileio, attr, "fileio.read", _file_bytes)
        for attr in ("write_tensor", "write_mask", "write_report_csv"):
            self._hook(fctnlr.fileio, attr, "fileio.write", _file_bytes)

    def _hook_cache(self, solver):
        """Keep every reuse cache the solver creates, and its peak size."""
        cls = getattr(solver, "ReuseCache", None)
        store = getattr(cls, "store", None)
        if cls is None or store is None:
            self.absent.append("fctnlr.solver.ReuseCache")
            self._missing.add("network.cache")
            return
        tracer = self

        def make(*args, **kwargs):
            cache = cls(*args, **kwargs)
            tracer.caches.append(cache)
            return cache

        @functools.wraps(store)
        def tracked_store(cache, *args, **kwargs):
            out = store(cache, *args, **kwargs)
            tracer.cache_peak = max(tracer.cache_peak, cache.nbytes)
            return out

        self._undo += [(solver, "ReuseCache", cls), (cls, "store", store)]
        solver.ReuseCache = make
        cls.store = tracked_store

    def uninstall(self):
        for owner, attr, target in reversed(self._undo):
            setattr(owner, attr, target)
        self._undo.clear()

    # ---------- reduction ---------- #

    def reduce(self):
        """Per-name totals: ms, self ms, FLOPs, bytes, count (zeros for names
        never recorded); outermost copies separately under the key "copy"."""
        child_ms = [0.0] * len(self.spans)
        for name, t0, t1, parent, *_ in self.spans:
            if parent >= 0:
                child_ms[parent] += (t1 - t0) * 1e3
        out = collections.defaultdict(_blank)
        copy = out["copy"]
        for i, (name, t0, t1, parent, flops, nbytes, _) in enumerate(self.spans):
            ms = (t1 - t0) * 1e3
            agg = out[name]
            agg["ms"] += ms
            agg["self_ms"] += ms - child_ms[i]
            agg["flops"] += flops
            agg["bytes"] += nbytes
            agg["count"] += 1
            if name in COPY_SPANS and (parent < 0 or self.spans[parent][0] not in COPY_SPANS):
                copy["ms"] += ms
                copy["bytes"] += nbytes
                copy["count"] += 1
        return out

    def is_absent(self, agg, *names):
        """No span of these names was recorded and a hook feeding one of
        them could not be installed."""
        return all(agg[n]["count"] == 0 for n in names) and any(
            n in self._missing for n in names
        )

    def first(self, name):
        for span in self.spans:
            if span[0] == name:
                return span
        return None


def _blank():
    return {"ms": 0.0, "self_ms": 0.0, "flops": 0, "bytes": 0, "count": 0}
