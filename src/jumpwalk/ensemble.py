"""Quenched-disorder sampling and configurational averaging.

Every realization gets its own seed derived statelessly from
(master_seed, index) by a SplitMix64 round, and its own PCG64 uniform
stream, so any number of workers produces the same draws.  Dispersions
are reduced with math.fsum, making the quenched mean bit-identical
regardless of evaluation order.
"""

from __future__ import annotations

import atexit
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from multiprocessing import get_context

import numpy as np

from .distributions import DistributionSpec, TruncatedJumpPmf, sample_many, truncate
from .scaling import site_std_dev
from .walk import SiteJumpMap, hadamard, run_dynamic, run_static

__all__ = [
    "Realization",
    "EnsemblePoint",
    "derive_seed",
    "sample_dynamic_realization",
    "sample_static_realization",
    "sigma_of_realization",
    "quenched_average",
    "static_quenched_average",
    "RNG_IDENTITY",
]

# Recorded in output metadata so every CSV names the exact generators.
RNG_IDENTITY = "splitmix64+pcg64"

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def derive_seed(master_seed: int, index: int) -> int:
    """Per-realization seed: SplitMix64 output at position ``index``.

    Pure 64-bit integer mixing (Steele, Lea & Flood's SplitMix64), so the
    value is identical on every platform and free of sequential state.
    The finalizer is a bijection, which makes outputs distinct across
    consecutive indices and across neighboring master seeds.
    """
    if index < 0:
        raise ValueError(f"realization index must be >= 0, got {index}")
    z = (master_seed + (index + 1) * _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass
class Realization:
    """One quenched disorder sample.

    ``jumps`` is a length-t_steps integer array in dynamic mode and a
    SiteJumpMap in static mode.  ``t_steps`` is the number of iterations
    the realization is meant to run (needed in static mode, where the
    jump table alone does not fix it).
    """

    jumps: np.ndarray | SiteJumpMap
    seed: int
    index: int
    t_steps: int

    @property
    def mode(self) -> str:
        return "static" if isinstance(self.jumps, SiteJumpMap) else "dynamic"


def sample_dynamic_realization(
    pmf: TruncatedJumpPmf, T: int, seed: int, index: int = 0
) -> Realization:
    """Draw T i.i.d. jump lengths from the truncated law."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    rng = np.random.Generator(np.random.PCG64(seed))
    jumps = sample_many(pmf, rng.random(T))
    return Realization(jumps=jumps, seed=seed, index=index, t_steps=T)


def sample_static_realization(
    pmf: TruncatedJumpPmf, extent: int, seed: int, t_steps: int, index: int = 0
) -> Realization:
    """Draw one jump length per site in [-extent, extent].

    Sites consume the uniform stream center-out (0, +1, -1, +2, -2, ...),
    so realizations with the same seed but different extents agree on
    every shared site.  A T-sweep then sees the same disorder landscape
    grow instead of being redrawn, which removes sampling jitter from
    the sigma-versus-T curve without changing any single realization's
    distribution.
    """
    if extent < 1:
        raise ValueError(f"need extent >= 1, got {extent}")
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = sample_many(pmf, rng.random(2 * extent + 1))
    jumps = np.empty(2 * extent + 1, dtype=np.int64)
    offsets = np.arange(1, extent + 1)
    jumps[extent] = draws[0]
    jumps[extent + offsets] = draws[2 * offsets - 1]
    jumps[extent - offsets] = draws[2 * offsets]
    return Realization(
        jumps=SiteJumpMap(extent, jumps), seed=seed, index=index, t_steps=t_steps
    )


def sigma_of_realization(realization: Realization, coin: np.ndarray) -> float:
    """Dispersion of the walker after running one disorder realization."""
    return _run_realization(realization, coin)[0]


def _run_realization(realization: Realization, coin: np.ndarray) -> tuple[float, float]:
    """Run a realization; return (sigma, max |norm - 1| over iterations).

    Dynamic runs check their norm at every iteration instead of logging
    it, so their deviation reads 0.
    """
    if isinstance(realization.jumps, SiteJumpMap):
        state, norm_log = run_static(realization.t_steps, realization.jumps, coin)
        norm_dev = max(abs(x - 1.0) for x in norm_log)
    else:
        state = run_dynamic(realization.t_steps, realization.jumps, coin)
        norm_dev = 0.0
    return site_std_dev(state.sites(), state.probabilities()), norm_dev


@dataclass
class EnsemblePoint:
    """Quenched-averaged dispersion at one iteration count."""

    T: int
    mean_sigma: float
    stderr: float
    n: int
    master_seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one realization, got n={self.n}")
        if self.mean_sigma < 0.0 or self.stderr < 0.0:
            raise ValueError("dispersion statistics cannot be negative")


def _dynamic_task(index_seed: tuple[int, int], pmf, T) -> tuple[float, float]:
    index, seed = index_seed
    return _run_realization(sample_dynamic_realization(pmf, T, seed, index), hadamard())


def _static_task(index_seed: tuple[int, int], pmf, T) -> tuple[float, float]:
    index, seed = index_seed
    extent = max(1, T * pmf.r_max)
    realization = sample_static_realization(pmf, extent, seed, T, index)
    return _run_realization(realization, hadamard())


# The ensemble task per mode; its keys are the accepted mode strings.
_TASKS = {"dynamic": _dynamic_task, "static": _static_task}


_POOL: ProcessPoolExecutor | None = None
_POOL_WORKERS = 0


def _get_pool(workers: int) -> ProcessPoolExecutor:
    """The shared worker pool, rebuilt when the count changes or it broke.

    A worker that dies (killed, or ``os._exit``) marks the executor broken
    for good; ``_broken`` is the executor's own record of that.
    """
    global _POOL, _POOL_WORKERS
    if _POOL is None or _POOL_WORKERS != workers or _POOL._broken:
        if _POOL is not None:
            _POOL.shutdown()
        _POOL = ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn"))
        _POOL_WORKERS = workers
    return _POOL


def _shutdown_pool():
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None


atexit.register(_shutdown_pool)


def _collect(task, pmf, T, n, master_seed, workers) -> tuple[list[float], list[float]]:
    task = partial(task, pmf=pmf, T=T)
    pairs = [(i, derive_seed(master_seed, i)) for i in range(n)]
    if workers <= 1:
        results = [task(p) for p in pairs]
    else:
        chunk = max(1, n // (workers * 8))
        results = list(_get_pool(workers).map(task, pairs, chunksize=chunk))
    sigmas = [r[0] for r in results]
    norm_devs = [r[1] for r in results]
    return sigmas, norm_devs


def _summarize(sigmas: list[float], T: int, master_seed: int) -> EnsemblePoint:
    n = len(sigmas)
    mean = math.fsum(sigmas) / n
    if n > 1:
        var = math.fsum((s - mean) ** 2 for s in sigmas) / (n - 1)
        stderr = math.sqrt(var / n)
    else:
        stderr = 0.0
    return EnsemblePoint(T=T, mean_sigma=mean, stderr=stderr, n=n, master_seed=master_seed)


def quenched_average(
    spec: DistributionSpec,
    T: int,
    n: int,
    master_seed: int,
    mode: str = "dynamic",
    workers: int = 1,
) -> EnsemblePoint:
    """Mean dispersion over n disorder realizations at iteration count T.

    Every realization is evolved to completion before any averaging: the
    mean is over per-realization sigma values, never over mixed position
    distributions.  Output is fully determined by the arguments and is
    identical for any worker count.
    """
    if mode not in _TASKS:
        raise ValueError(f"mode must be 'dynamic' or 'static', got {mode!r}")
    if n < 1:
        raise ValueError(f"need at least one realization, got n={n}")
    pmf = truncate(spec)
    sigmas, _ = _collect(_TASKS[mode], pmf, T, n, master_seed, workers)
    return _summarize(sigmas, T, master_seed)


def static_quenched_average(
    spec: DistributionSpec,
    T: int,
    n: int,
    master_seed: int,
    workers: int = 1,
) -> tuple[EnsemblePoint, float, float]:
    """Static-mode quenched average plus norm-deviation bookkeeping.

    Returns (point, mean_dev, max_dev) where the deviations summarize
    |pre-renormalization norm - 1| across all iterations and
    realizations, making the non-unitarity of the site-dependent shift
    auditable.
    """
    if n < 1:
        raise ValueError(f"need at least one realization, got n={n}")
    pmf = truncate(spec)
    sigmas, norm_devs = _collect(_static_task, pmf, T, n, master_seed, workers)
    point = _summarize(sigmas, T, master_seed)
    mean_dev = math.fsum(norm_devs) / len(norm_devs)
    max_dev = max(norm_devs)
    return point, mean_dev, max_dev
