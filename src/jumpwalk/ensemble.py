"""Quenched-disorder sampling and configurational averaging.

Every realization gets its own seed derived statelessly from
(master_seed, index) by a SplitMix64 round, and its own PCG64 uniform
stream, so any number of workers produces the same draws.  A block's
streams are seeded together: one vectorized SeedSequence pass gives
every row the state ``np.random.PCG64(seed)`` starts from, and one
reused generator draws each row from it.  Realizations are evolved in
blocks, one (B, 2, W) table per block within ``_BLOCK_BYTES``, and every
row evolves bit for bit as it would alone.  Static blocks hold as many
rows as fit at the site map's width, but run each stretch of iterations
in a table cut to the span their amplitude can reach, since a walker
trapped by its map spans a few sites; dynamic tables are only as wide
as the block's longest reach, so dynamic blocks are cut from the sampled
jumps.  Each block's
moments are formed at once and every row's dispersion is reduced with
math.fsum, making the quenched mean bit-identical regardless of
evaluation order, block size or worker count.

Each process keeps a checkpoint: the walkers of the shard it evolved
last, their tables cut to the sites they span, with their reach and norm
deviations.  A call for the same realizations at the same or a later T,
such as a sweep's next grid point, resumes them: it draws only the new
uniforms (static maps are drawn whole, as at the origin), widens each
row center-aligned, cuts the rows into blocks afresh and runs only the
remaining iterations, which gives the bits a run from the origin gives.
A run from the origin is the same path from T = 0.  Any other call drops
the checkpoint before it starts, a call that raises leaves none, walkers
whose tables outgrow ``_CHECKPOINT_BYTES`` are not kept, and
``release_checkpoint`` drops it on request.

With several workers, shard k of every call goes to the same pinned
worker process, so each worker resumes its own checkpoint at the next
grid T; a call with a single shard runs in the calling process.  On
Linux the workers are forked, and a forked process starts with no
checkpoint and a fresh lock; elsewhere they are spawned.
"""

from __future__ import annotations

import atexit
import itertools
import math
import os
import sys
import threading
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .distributions import DistributionSpec, TruncatedJumpPmf, sample_many, truncate
from .scaling import site_std_devs
from .walk import RowError, SiteJumpMap, _evolve, hadamard, initial_block, site_probabilities

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = [
    "Realization",
    "EnsemblePoint",
    "derive_seed",
    "sample_dynamic_realization",
    "sample_static_realization",
    "sigma_of_realization",
    "quenched_average",
    "static_quenched_average",
    "release_checkpoint",
    "RNG_IDENTITY",
]

# Recorded in output metadata so every CSV names the exact generators.
RNG_IDENTITY = "splitmix64+pcg64"

# Bytes of one (B, 2, W) complex128 amplitude table: a block holds as many
# realizations as fit.  A block run keeps about three and a half tables'
# worth alive (two amplitude buffers, the static target map and bincount
# temporaries), so this bounds the memory blocks add to a run.  The
# (rows, T) uniforms of a dynamic chunk, from which blocks are cut, fit it
# too.
_BLOCK_BYTES = 256 * 1024

# Bytes of amplitude table the checkpoint may keep: the walkers of the last
# shard evolved, resumed at the next grid T.  With 4000 realizations a
# static sweep to T=40 keeps 3.8 MB (its tables cut to the few sites a
# trapped walker spans) and a dynamic sweep to T=24 keeps 5.8-16.7 MB over
# the eleven acceptance laws; a shard that would outgrow the cap is evolved
# all the same and not kept.
_CHECKPOINT_BYTES = 32 * 1024 * 1024

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


# numpy's SeedSequence with its default pool of four 32-bit words, and the
# PCG64 multiplier: the constants _pcg64_states needs to reproduce
# np.random.PCG64(seed) without building a SeedSequence per seed.
_POOL_SIZE = 4
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> list[np.uint32]:
    """The running multipliers of ``count`` successive SeedSequence hashes."""
    out = []
    for _ in range(count):
        out.append(np.uint32(init))
        init = (init * mult) & _MASK32
    return out


# mix_entropy hashes the four pool words, then every ordered pair of them;
# generate_state hashes eight output words (four uint64) from the pool.
_ENTROPY_CONSTS = _hash_constants(_HASH_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
_STATE_CONSTS = _hash_constants(_HASH_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _hashmix(value: np.ndarray, consts: list[np.uint32], k: int) -> np.ndarray:
    value = (value ^ consts[k]) * consts[k + 1]
    return value ^ (value >> np.uint32(16))


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The (state, inc) that ``np.random.PCG64(seed)`` starts from, per seed.

    One vectorized SeedSequence pass over all seeds (uint32 arithmetic
    wraps like numpy's own): each seed enters as its two 32-bit words
    padded with zeros to the pool size, which hashes exactly like numpy's
    one- or two-word entropy, since a missing word hashes as 0.  The
    128-bit PCG64 seeding step then runs in Python ints.
    """
    if not all(0 <= seed <= _MASK64 for seed in seeds):
        raise ValueError(f"realization seeds must be in [0, 2**64), got {seeds}")
    seeds64 = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    entropy = [seeds64 & np.uint64(_MASK32), seeds64 >> np.uint64(32)]
    entropy = [word.astype(np.uint32) for word in entropy]
    entropy += [np.zeros(len(seeds64), dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    pool = [_hashmix(word, _ENTROPY_CONSTS, k) for k, word in enumerate(entropy)]
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = _hashmix(pool[src], _ENTROPY_CONSTS, k)
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
                k += 1
    words = np.stack(
        [_hashmix(pool[i % _POOL_SIZE], _STATE_CONSTS, i) for i in range(2 * _POOL_SIZE)], axis=1
    )
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in words.astype("<u4").view("<u8").tolist():
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return states


def _draws(states: list[tuple[int, int]], skip: int, count: int) -> np.ndarray:
    """(len(states), count) uniforms: row r continues the PCG64 stream that
    starts at states[r], past its first ``skip`` draws.

    One PCG64 is reused for the whole block: each row sets its state,
    advances past the draws already used (one 64-bit output per uniform),
    then draws.
    """
    us = np.empty((len(states), count))
    bits = np.random.PCG64(0)
    draw = np.random.Generator(bits).random
    for row, (state, inc) in zip(us, states):
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        if skip:
            bits.advance(skip)
        draw(out=row)
    return us


def _uniforms(seeds: list[int], count: int) -> np.ndarray:
    """(len(seeds), count) uniforms: row r opens the PCG64 stream of seeds[r]."""
    return _draws(_pcg64_states(seeds), 0, count)


def _step_jumps(pmf: TruncatedJumpPmf, T: int, seeds: list[int]) -> np.ndarray:
    """(len(seeds), T) i.i.d. jump lengths, one row per seed."""
    return sample_many(pmf, _uniforms(seeds, T))


def _site_jumps(pmf: TruncatedJumpPmf, extent: int, seeds: list[int]) -> np.ndarray:
    """(len(seeds), 2*extent+1) jumps per site in [-extent, extent], one row per seed.

    Each row takes its stream center-out; see sample_static_realization.
    """
    draws = sample_many(pmf, _uniforms(seeds, 2 * extent + 1))
    jumps = np.empty_like(draws)
    offsets = np.arange(1, extent + 1)
    jumps[:, extent] = draws[:, 0]
    jumps[:, extent + offsets] = draws[:, 2 * offsets - 1]
    jumps[:, extent - offsets] = draws[:, 2 * offsets]
    return jumps


def sample_dynamic_realization(
    pmf: TruncatedJumpPmf, T: int, seed: int, index: int = 0
) -> Realization:
    """Draw T i.i.d. jump lengths from the truncated law."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    return Realization(jumps=_step_jumps(pmf, T, [seed])[0], seed=seed, index=index, t_steps=T)


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
    jumps = SiteJumpMap(extent, _site_jumps(pmf, extent, [seed])[0])
    return Realization(jumps=jumps, seed=seed, index=index, t_steps=t_steps)


def sigma_of_realization(realization: Realization, coin: np.ndarray) -> float:
    """Dispersion of the walker after running one disorder realization."""
    static = isinstance(realization.jumps, SiteJumpMap)
    jumps = realization.jumps.jumps if static else np.asarray(realization.jumps)
    return _evolve_rows(jumps[None], realization.t_steps, static, coin)[0][0]


def _evolve_rows(
    jumps: np.ndarray, T: int, static: bool, coin: np.ndarray
) -> tuple[list[float], list[float]]:
    """Evolve a block from the origin; return each row's sigma and max |norm - 1|.

    ``jumps`` holds one row per realization: T per-iteration jumps, or
    one jump per site when ``static``.  A dynamic block is as wide as its
    longest reach.
    """
    extent = (jumps.shape[1] - 1) // 2 if static else max(1, int(jumps.sum(axis=1).max()))
    _, sigmas, devs = _run_rows(initial_block(len(jumps), extent), jumps, 0, T, static, coin)
    return sigmas, devs.tolist()


def _run_rows(
    a: np.ndarray, jumps: np.ndarray, done: int, T: int, static: bool, coin: np.ndarray
) -> tuple[np.ndarray, list[float], np.ndarray]:
    """Evolve the (B, 2, 2*extent+1) table ``a`` from iteration ``done`` to T.

    Returns the final table, each row's sigma and each row's max
    |norm - 1| over these iterations.  Rows that reach less than the
    table's extent hold zeros at the edges, which change no fsum, and
    walk._evolve says why such padding changes no bit under a real coin,
    so each row's sigma is the one it gets alone.  Dynamic runs check
    their norm at every iteration instead of logging it, so their
    deviation reads 0.
    """
    if static:
        a, devs = _run_static(a, jumps, done, T, coin)
    else:
        a, _ = _evolve(a, coin, T - done, step_jumps=jumps, start=done)
        devs = np.zeros(len(a))
    extent = a.shape[-1] // 2
    return a, site_std_devs(np.arange(-extent, extent + 1), site_probabilities(a)), devs


# Static iterations run in stretches of this many, each in a table cut to
# the span the block's amplitude can reach by the stretch's end.
_STATIC_STRETCH = 2


def _run_static(
    a: np.ndarray, maps: np.ndarray, done: int, T: int, coin: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve static rows from iteration ``done`` to T; return the table and max |norm - 1|.

    ``maps`` holds each row's jumps over the sites of ``a``'s columns.  A
    walker trapped by its map spans a few sites of a table T*r_max wide,
    so each stretch of iterations runs in a table re-centered to the
    block's present span plus the farthest the stretch's jumps can carry
    it: the narrower table gives the same bits, and a jump off the full
    table still raises.
    """
    mid = maps.shape[1] // 2
    reach = int(maps.max(initial=0))
    devs = np.zeros(len(a))
    while done < T:
        stretch = min(_STATIC_STRETCH, T - done)
        extent = min(mid, max(1, _span(a) + stretch * reach))
        a, norms = _evolve(
            _recentered(a, extent), coin, stretch,
            site_jumps=maps[:, mid - extent : mid + extent + 1], start=done,
        )
        devs = np.maximum(devs, np.abs(norms - 1.0).max(axis=1))
        done += stretch
    return a, devs


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


def _table_bytes(rows: int, extent: int) -> int:
    """Bytes of a (rows, 2, 2*extent+1) complex128 amplitude table."""
    return rows * 2 * (2 * max(1, extent) + 1) * 16


def _by_row(blocks: list[np.ndarray]) -> deque:
    """(first row, block) pairs for consecutive blocks of rows."""
    return deque(zip(itertools.accumulate((len(b) for b in blocks), initial=0), blocks))


def _take(old: deque, rows: slice, extent: int) -> np.ndarray:
    """Rows ``rows`` of the blocks in ``old``, each centered in 2*extent+1 columns.

    ``old`` holds (first row, block) pairs in row order, the first one
    holding ``rows.start``; a block is popped once its last row is taken.
    Columns beyond the narrower of the two widths are dropped or zero: a
    row's amplitude lies within its reach, which both tables hold.
    """
    parts, row = [], rows.start
    while row < rows.stop:
        first, block = old[0]
        stop = min(rows.stop, first + len(block))
        parts.append(_recentered(block[row - first : stop - first], extent))
        if stop == first + len(block):
            old.popleft()
        row = stop
    return np.concatenate(parts)


def _span(a: np.ndarray) -> int:
    """The farthest site from the center at which a row of the table ``a`` has amplitude."""
    mid = a.shape[-1] // 2
    return int(np.abs(np.flatnonzero(a.any(axis=(0, 1))) - mid).max(initial=0))


def _recentered(a: np.ndarray, extent: int) -> np.ndarray:
    """The table ``a`` cut or zero-padded to 2*extent+1 columns, center-aligned."""
    mid = a.shape[-1] // 2
    if mid == extent:
        return a
    out = np.zeros((*a.shape[:-1], 2 * extent + 1), a.dtype)
    half = min(mid, extent)
    out[..., extent - half : extent + half + 1] = a[..., mid - half : mid + half + 1]
    return out


def _checkpoint_key(indices: range, static: bool, pmf: TruncatedJumpPmf, master_seed: int):
    """Everything that shapes a shard's rows: which walkers a checkpoint holds."""
    return (pmf.cdf.tobytes(), pmf.r_max, master_seed, indices, static)


class _Walkers:
    """The realizations ``indices`` of one shard, evolved together to iteration T.

    Rows are the realizations in index order.  ``tables`` holds their
    amplitudes as consecutive (B, 2, W) blocks, each cut to the span its
    rows reach; ``reach`` holds each row's sum of jumps so far (dynamic)
    and ``devs`` each row's max |norm - 1| so far (static).  A new
    instance is every row at the origin at T = 0, with no tables: its
    blocks start from the origin, and otherwise run the same path as
    resumed ones.
    """

    def __init__(self, indices: range, static: bool, pmf: TruncatedJumpPmf, master_seed: int):
        self.key = _checkpoint_key(indices, static, pmf, master_seed)
        self.indices, self.static, self.pmf, self.master_seed = indices, static, pmf, master_seed
        self.T = 0
        self.reach = np.zeros(len(indices), dtype=np.int64)
        self.devs = np.zeros(len(indices))
        self.tables: list[np.ndarray] | None = []

    def seeds(self, rows: slice) -> list[int]:
        return [derive_seed(self.master_seed, i) for i in self.indices[rows]]

    def cut(self, T: int):
        """Yield (rows, jumps, extent) for consecutive row slices covering the shard.

        ``jumps`` takes the rows from iteration self.T to T in a table of
        the given extent.  A static table is as wide as the site map,
        extent T*r_max, so static blocks hold as many rows as fit
        ``_BLOCK_BYTES`` at that width; their jumps are the rows' whole
        maps, drawn afresh.  A dynamic table is only as wide as its
        longest reach, usually far below T*r_max: the new jumps are drawn
        for a chunk of rows whose uniforms fit the budget, past the draws
        already spent, and the chunk is cut greedily into blocks whose
        tables fit it at the rows' reach after T.  A block always holds
        at least one row.  Each chunk is read before any of its rows is
        yielded.
        """
        n, done = len(self.indices), self.T
        if self.static:
            extent = max(1, T * self.pmf.r_max)
            size = max(1, _BLOCK_BYTES // _table_bytes(1, extent))
            for start in range(0, n, size):
                rows = slice(start, min(start + size, n))
                yield rows, _site_jumps(self.pmf, extent, self.seeds(rows)), extent
            return
        size = max(1, _BLOCK_BYTES // (8 * max(1, T - done)))
        for start in range(0, n, size):
            stop = min(start + size, n)
            states = _pcg64_states(self.seeds(slice(start, stop)))
            jumps = sample_many(self.pmf, _draws(states, done, T - done))
            first, widest = 0, 0
            for row, reach in enumerate((self.reach[start:stop] + jumps.sum(axis=1)).tolist()):
                if row > first and _table_bytes(row + 1 - first, max(widest, reach)) > _BLOCK_BYTES:
                    yield slice(start + first, start + row), jumps[first:row], max(1, widest)
                    first, widest = row, 0
                widest = max(widest, reach)
            yield slice(start + first, stop), jumps[first:], max(1, widest)

    def advance(self, T: int) -> tuple[list[float], list[float]]:
        """Evolve every row from self.T to T; return sigmas and norm deviations.

        Blocks are cut afresh for T, and each row moves into its new block
        center-aligned; old blocks are let go as their rows move.  The new
        blocks, cut to their span, are kept while they stay within
        ``_CHECKPOINT_BYTES``; past that ``tables`` is None.
        """
        old = _by_row(self.tables) if self.T else None
        self.tables = None
        tables, kept = [], 0
        sigmas: list[float] = []
        coin = hadamard()
        for rows, jumps, extent in self.cut(T):
            if not self.static:
                self.reach[rows] += jumps.sum(axis=1)
            if old is None:
                a = initial_block(rows.stop - rows.start, extent)
            else:
                a = _take(old, rows, extent)
            try:
                a, block_sigmas, block_devs = _run_rows(a, jumps, self.T, T, self.static, coin)
            except RowError as exc:
                i = self.indices[rows.start + exc.row]
                raise ValueError(
                    f"realization {i} (seed {derive_seed(self.master_seed, i)}): {exc}"
                ) from None
            sigmas += block_sigmas
            self.devs[rows] = np.maximum(self.devs[rows], block_devs)
            if tables is not None:
                tables.append(_recentered(a, max(1, _span(a))))
                kept += tables[-1].nbytes
                if kept > _CHECKPOINT_BYTES:
                    tables = None
        self.T, self.tables = T, tables
        return sigmas, self.devs.tolist()


def _blocks(indices: range, static: bool, pmf: TruncatedJumpPmf, T: int, master_seed: int):
    """Yield (block, seeds, jumps) for blocks covering ``indices`` from T = 0 to T."""
    walkers = _Walkers(indices, static, pmf, master_seed)
    for rows, jumps, _ in walkers.cut(T):
        yield indices[rows], walkers.seeds(rows), jumps


# The walkers this process evolved last, resumed when the next call asks for
# the same realizations at the same or a later T (a sweep's next grid point).
# A call takes them under the lock, so two threads never advance one set.
_CHECKPOINT: _Walkers | None = None
_CHECKPOINT_LOCK = threading.Lock()


def release_checkpoint() -> None:
    """Drop the walkers this process keeps for the next point, and their memory.

    Each pinned pool worker keeps the walkers of its own shard until the
    pool shuts down; a single-shard call keeps them in this process.
    """
    global _CHECKPOINT
    with _CHECKPOINT_LOCK:
        _CHECKPOINT = None


def _shard(
    indices: range, static: bool, pmf: TruncatedJumpPmf, T: int, master_seed: int
) -> tuple[list[float], list[float]]:
    """Sigmas and norm deviations of realizations ``indices``, in index order.

    Resumes the checkpoint when it holds these realizations at an
    iteration count no larger than T, and otherwise drops it and starts
    them at the origin.  The walkers become the new checkpoint unless the
    call raises or their tables outgrow ``_CHECKPOINT_BYTES``.
    """
    global _CHECKPOINT
    with _CHECKPOINT_LOCK:
        walkers, _CHECKPOINT = _CHECKPOINT, None
    key = _checkpoint_key(indices, static, pmf, master_seed)
    if walkers is None or walkers.key != key or walkers.T > T:
        walkers = _Walkers(indices, static, pmf, master_seed)
    sigmas, devs = walkers.advance(T)
    if walkers.tables is not None:
        _CHECKPOINT = walkers
    return sigmas, devs


# Whether each accepted mode string runs static disorder.
_MODES = {"dynamic": False, "static": True}


# One single-process executor per worker: shard k of every call goes to
# executor k, so each worker resumes its own checkpoint at the next grid T.
_POOL: list[ProcessPoolExecutor] = []


def _get_pool(workers: int) -> list[ProcessPoolExecutor]:
    """The pinned workers, rebuilt when the count changes or one of them broke.

    A worker that dies (killed, or ``os._exit``) marks its executor broken
    for good; ``_broken`` is the executor's own record of that.  On Linux
    workers are forked, so they start with numpy and this package already
    imported and see the module as it was at fork time; elsewhere they are
    spawned and import it afresh.
    """
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    global _POOL
    if len(_POOL) != workers or any(executor._broken for executor in _POOL):
        _shutdown_pool()
        context = get_context("fork" if sys.platform == "linux" else "spawn")
        _POOL = [ProcessPoolExecutor(max_workers=1, mp_context=context) for _ in range(workers)]
    return _POOL


def _shutdown_pool():
    """Join every pinned worker and forget the pool."""
    global _POOL
    pool, _POOL = _POOL, []
    for executor in pool:
        executor.shutdown()


atexit.register(_shutdown_pool)


def _after_fork_in_child():
    """A forked process keeps no walkers, lock state or workers of its parent.

    Another thread of the parent may hold the lock at fork time, and the
    parent's executors belong to the parent.
    """
    global _CHECKPOINT, _CHECKPOINT_LOCK, _POOL
    _CHECKPOINT, _CHECKPOINT_LOCK, _POOL = None, threading.Lock(), []


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _collect(static, pmf, T, n, master_seed, workers) -> tuple[list[float], list[float]]:
    """Sigmas and norm deviations of realizations 0..n-1, in index order.

    Each worker gets one contiguous shard: realizations cost alike, and
    larger shards make larger blocks.  A single shard runs in this process.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    task = partial(_shard, static=static, pmf=pmf, T=T, master_seed=master_seed)
    count = min(n, workers)
    if count == 1:
        return task(range(n))
    shards = [range(n * k // count, n * (k + 1) // count) for k in range(count)]
    futures = [executor.submit(task, shard) for executor, shard in zip(_get_pool(workers), shards)]
    results = [future.result() for future in futures]
    return [s for r in results for s in r[0]], [d for r in results for d in r[1]]


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
    if mode not in _MODES:
        raise ValueError(f"mode must be 'dynamic' or 'static', got {mode!r}")
    if n < 1:
        raise ValueError(f"need at least one realization, got n={n}")
    pmf = truncate(spec)
    sigmas, _ = _collect(_MODES[mode], pmf, T, n, master_seed, workers)
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
    sigmas, norm_devs = _collect(True, pmf, T, n, master_seed, workers)
    point = _summarize(sigmas, T, master_seed)
    mean_dev = math.fsum(norm_devs) / len(norm_devs)
    max_dev = max(norm_devs)
    return point, mean_dev, max_dev
