"""Workload table and seeded input generators.

Every input is a pure function of the workload and the seed, so a run can be
repeated exactly and a claim rechecked on a seed not used while making it.
Only this benchmark generates truths; the program receives the observed
tensor (and, on the quality workload, mask containers) and nothing else.
"""
from __future__ import annotations

from dataclasses import dataclass

# Solver hyperparameters shared by every workload (the CLI defaults).
LAM, DELTA, RHO = 0.35, 0.5, 0.1


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "sweeps": fixed sweeps through fctnlr.run; "quality": cli eps stop
    dims: tuple
    rank: int
    sample_rate: float
    sweeps: int = 0  # per solve, kind "sweeps"
    masks: int = 0  # masks drawn per run, kind "quality"
    initial_rank: int = 0  # kind "quality": bonds start here and grow to rank
    eps: float = 0.0
    quality_target: float = 0.0  # off-mask relative error a quality run must beat


# Why each workload exists is recorded in BENCHMARK.json; the phase shares
# that motivate them are in BASELINE.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense4", "sweeps", (40, 40, 40, 40), 4, 0.3, sweeps=6),
        Workload("order5", "sweeps", (16, 16, 16, 16, 16), 3, 0.3, sweeps=4),
        Workload("wide3", "sweeps", (128, 128, 128), 4, 0.3, sweeps=20),
        # The quality target is acceptance 06's definition of a recovered
        # clip.  The eps stop can fire while the objective is still falling
        # (BASELINE.md, findings 6 and 7), so a run's error has a tail well
        # above its median; the median itself is gated as rel_err_offmask.
        Workload(
            "video-recover", "quality", (64, 64, 3, 32), 3, 0.2,
            masks=5, initial_rank=2, eps=1e-4, quality_target=1e-2,
        ),
    )
}

# Same code paths at toy sizes, for the self-test.
TINY = {
    w.name: w
    for w in (
        Workload("dense4", "sweeps", (6, 6, 6, 6), 2, 0.3, sweeps=3),
        Workload("order5", "sweeps", (4, 4, 4, 4, 4), 2, 0.3, sweeps=3),
        Workload("wide3", "sweeps", (12, 12, 12), 2, 0.3, sweeps=3),
        Workload(
            "video-recover", "quality", (12, 12, 3, 8), 2, 0.3,
            masks=1, initial_rank=1, eps=1e-4, quality_target=5e-2,
        ),
    )
}


def gaussian_truth(dims, seed: int):
    import numpy as np

    return np.random.default_rng(seed).standard_normal(dims)


def smooth_clip(dims, rank: int, seed: int, decay: float = 0.4, amp: float = 2.0):
    """Smooth low-rank "video": every factor fiber along its physical mode is
    a mixture of a constant and two low-frequency cosines with random phases,
    and off-leading bond slices are damped by ``decay``."""
    import numpy as np

    from fctnlr import FctnFactors, FctnRank, compose

    rng = np.random.default_rng(seed)
    n = len(dims)
    table = FctnRank.uniform(n, rank)
    arrays = []
    for k in range(n):
        shape = table.factor_shape(k, dims)
        t = np.arange(dims[k]) / dims[k]
        basis = np.stack(
            [
                np.ones(dims[k]),
                np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi)),
                np.cos(4 * np.pi * t + rng.uniform(0, 2 * np.pi)),
            ]
        )
        coef = amp * rng.standard_normal((3,) + shape[:k] + shape[k + 1 :])
        a = np.moveaxis(np.tensordot(basis.T, coef, axes=(1, 0)), 0, k)
        for ax in range(n):
            if ax != k:
                sl = [slice(None)] * n
                sl[ax] = slice(1, None)
                a[tuple(sl)] *= decay
        arrays.append(a)
    return compose(FctnFactors(arrays))


# The quality workload recovers one fixed clip, generated with the seed of the
# acceptance-06 instance; the run's seed draws the observation masks and the
# solver's initial factors.  Letting the seed redraw the clip too makes the
# sweep count heavy-tailed across seeds (BASELINE.md), so a run of a few
# solves could not be compared with another.
CLIP_SEED = 3


def mask_seed(seed: int, draw: int) -> int:
    """Seed of one solve of a quality run; distinct across (seed, draw)."""
    return 1000 * seed + draw
