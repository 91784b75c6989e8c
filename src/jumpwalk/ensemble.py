"""Quenched-disorder sampling and configurational averaging.

Every realization gets its own seed derived statelessly from
(master_seed, index) by a SplitMix64 round, and its own PCG64 uniform
stream, so any number of workers produces the same draws.  A block's
streams are seeded together: one vectorized SeedSequence pass gives
every row the state ``np.random.PCG64(seed)`` starts from, and the rows
then step together in uint64 arrays, drawing exactly the uniforms
numpy's generator would, without importing ``numpy.random``.
Realizations are evolved in blocks, one (B, 2, W) table per block within
``_BLOCK_BYTES``, and every row evolves bit for bit as it would alone.
Static blocks hold as many rows as fit at the site map's width, but run
each stretch of iterations in a table cut to the span their amplitude
can reach, since a walker trapped by its map spans a few sites; dynamic
tables are only as wide as the block's longest reach, so dynamic blocks
are cut from the sampled jumps.  Each block's moments are formed at once
and every row's dispersion is reduced with math.fsum, making the
quenched mean bit-identical regardless of evaluation order, block size
or worker count.

Each process keeps a checkpoint: the walkers of the shard it evolved
last, their tables cut to the sites they span, with their reach and norm
deviations.  A call for the same realizations at the same or a later T,
such as a sweep's next grid point, resumes them: it draws only the new
uniforms, from the streams where the last call left them (static maps
are drawn whole, as at the origin), widens each row center-aligned, cuts
the rows into blocks afresh and runs only the remaining iterations,
which gives the bits a run from the origin gives.
A run from the origin is the same path from T = 0.  Any other call drops
the checkpoint before it starts, a call that raises leaves none, walkers
whose tables outgrow ``_CHECKPOINT_BYTES`` are not kept, and
``release_checkpoint`` drops it on request.

With k workers the calling process runs shard 0 of every call, as a
one-worker call runs all of them, and k - 1 pinned worker processes run
shards 1 to k - 1, each over its own pipe, so every process resumes its
own checkpoint at the next grid T.  On Linux the workers are forked, and
a forked process starts with no checkpoint, fresh locks and none of its
parent's workers; elsewhere they are spawned.
"""

from __future__ import annotations

import atexit
import contextlib
import functools
import itertools
import math
import os
import sys
import threading
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING

import numpy as np

from .distributions import DistributionSpec, TruncatedJumpPmf, sample_many, truncate
from .scaling import site_std_devs
from .walk import RowError, SiteJumpMap, _evolve, hadamard, initial_block, site_probabilities

if TYPE_CHECKING:
    from multiprocessing.connection import Connection
    from multiprocessing.process import BaseProcess

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
# uniforms of a chunk of rows, from which blocks are cut (a dynamic chunk's
# (rows, T), a static chunk's whole site maps), fit it too.
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
# PCG64 multiplier: the constants _seeded needs to reproduce
# np.random.PCG64(seed) without building a SeedSequence per seed.
_POOL_SIZE = 4
_HASH_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The running multipliers of ``count`` successive SeedSequence hashes."""
    out = []
    for _ in range(count):
        out.append(init)
        init = (init * mult) & _MASK32
    return np.array(out, dtype=np.uint32)


# mix_entropy hashes the four pool words, then every ordered pair of them;
# generate_state hashes eight output words (four uint64) from the pool.
_ENTROPY_CONSTS = _hash_constants(_HASH_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + 1)
_STATE_CONSTS = _hash_constants(_HASH_B, _MULT_B, 2 * _POOL_SIZE + 1)


def _hashmix(values: np.ndarray, consts: np.ndarray, k: int, count: int) -> np.ndarray:
    """SeedSequence's hashmix of ``count`` rows of ``values``, row i with hash k + i."""
    values = (values ^ consts[k : k + count, None]) * consts[k + 1 : k + count + 1, None]
    return values ^ (values >> np.uint32(16))


# PCG64 stepped on arrays (O'Neill, "PCG: A Family of Simple Fast
# Space-Efficient Statistically Good Algorithms for Random Number
# Generation", HMC-CS-2014-0905), drawing exactly what numpy's PCG64 and
# Generator.random draw.  A stream is the LCG s -> M*s + inc mod 2**128 with
# the XSL-RR output, held as a row of four uint64 words: state high, state
# low, inc high, inc low.  A 128-bit number in arithmetic is a (high, low)
# pair of uint64 arrays that broadcast; products are formed from 32-bit
# limbs, so no uint64 product overflows unseen.  k steps take s to
# s + S_k*((M - 1)*s + inc), where S_k = 1 + M + ... + M**(k-1), since
# M**k - 1 = (M - 1)*S_k.
_LOW32 = np.uint64(_MASK32)
_SHIFT32 = np.uint64(32)


def _constant(value: int) -> tuple[np.uint64, np.uint64]:
    return np.uint64(value >> 64), np.uint64(value & _MASK64)


def _mul(a, b):
    """a * b mod 2**128 for (high, low) pairs."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a0, a1 = a_lo & _LOW32, a_lo >> _SHIFT32
    b0, b1 = b_lo & _LOW32, b_lo >> _SHIFT32
    low = a0 * b0
    mid = a1 * b0 + (low >> _SHIFT32)
    cross = a0 * b1 + (mid & _LOW32)
    carry = a1 * b1 + (mid >> _SHIFT32) + (cross >> _SHIFT32)  # a_lo * b_lo >> 64
    return carry + a_lo * b_hi + a_hi * b_lo, a_lo * b_lo


def _add(a, b):
    """a + b mod 2**128 for (high, low) pairs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < b[1]), low


def _seeded(seeds: list[int]) -> np.ndarray:
    """(len(seeds), 4) streams: row r starts where ``np.random.PCG64(seeds[r])`` starts.

    One vectorized SeedSequence pass over all seeds (uint32 arithmetic
    wraps like numpy's own): each seed enters as its two 32-bit words
    padded with zeros to the pool size, which hashes exactly like numpy's
    one- or two-word entropy, since a missing word hashes as 0.  The
    128-bit PCG64 seeding step then runs on the words.
    """
    if not all(0 <= seed <= _MASK64 for seed in seeds):
        raise ValueError(f"realization seeds must be in [0, 2**64), got {seeds}")
    seeds64 = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    entropy = np.zeros((_POOL_SIZE, len(seeds64)), dtype=np.uint32)
    entropy[0], entropy[1] = seeds64 & np.uint64(_MASK32), seeds64 >> np.uint64(32)
    pool = _hashmix(entropy, _ENTROPY_CONSTS, 0, _POOL_SIZE)
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):  # each source word mixes into the others, in order
        dst = [i for i in range(_POOL_SIZE) if i != src]
        hashed = _hashmix(pool[src], _ENTROPY_CONSTS, k, len(dst))
        mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
        k += len(dst)
    words = _hashmix(pool[np.arange(2 * _POOL_SIZE) % _POOL_SIZE], _STATE_CONSTS, 0, 2 * _POOL_SIZE)
    words = np.ascontiguousarray(words.T.astype("<u4")).view("<u8")
    seed_hi, seed_lo, inc_hi, inc_lo = np.split(words, 4, axis=1)
    one = np.uint64(1)
    inc = (inc_hi << one) | (inc_lo >> np.uint64(63)), (inc_lo << one) | one
    state = _add(_mul(_add(inc, (seed_hi, seed_lo)), _constant(_PCG64_MULT)), inc)
    return np.hstack([*state, *inc])


def _pcg64_states(seeds: list[int]) -> list[tuple[int, int]]:
    """The (state, inc) that ``np.random.PCG64(seed)`` starts from, per seed."""
    return [(a << 64 | b, c << 64 | d) for a, b, c, d in _seeded(seeds).tolist()]


def _offset(k: int) -> int:
    """S_k = 1 + M + ... + M**(k-1) mod 2**128: (M**k - 1) / (M - 1), exactly,
    from M**k by square-and-multiply modulo (M - 1) * 2**128.
    """
    return (pow(_PCG64_MULT, k, (_PCG64_MULT - 1) << 128) - 1) // (_PCG64_MULT - 1)


@functools.cache
def _offsets(bits: int) -> tuple[np.ndarray, np.ndarray]:
    """S_1, ..., S_(2**bits) as a (high, low) pair of (1, 2**bits) rows.

    The second half is the first one taken 2**(bits-1) steps on:
    S_(h+j) = S_h + M**h * S_j.
    """
    if bits == 0:
        return np.zeros((1, 1), np.uint64), np.ones((1, 1), np.uint64)
    half = 1 << (bits - 1)
    first = _offsets(bits - 1)
    shifted = _mul(first, _constant(pow(_PCG64_MULT, half, 1 << 128)))
    second = _add(shifted, _constant(_offset(half)))
    return np.concatenate([first[0], second[0]], 1), np.concatenate([first[1], second[1]], 1)


_MULT_LESS_ONE = _constant(_PCG64_MULT - 1)


def _ahead(streams: np.ndarray, offsets) -> tuple[np.ndarray, np.ndarray]:
    """Each row's state k steps on, s + S_k*((M - 1)*s + inc), for each S_k in ``offsets``."""
    state, inc = (streams[:, 0:1], streams[:, 1:2]), (streams[:, 2:3], streams[:, 3:4])
    return _add(state, _mul(_add(_mul(state, _MULT_LESS_ONE), inc), offsets))


def _fill(streams: np.ndarray, out: np.ndarray) -> None:
    """Fill ``out`` (rows, count) with each stream's next uniforms; advance ``streams`` past them.

    Columns go in chunks of ``_BLOCK_BYTES / 32`` uniforms, whose
    arithmetic keeps about nine chunk-sized uint64 arrays (2.3 times
    ``_BLOCK_BYTES``) alive, however long the rows; each chunk steps on
    from the states the chunk before left.  A uniform is the XSL-RR output
    x = rotr64(hi ^ lo, hi >> 58) of the state after its step, taken to
    (x >> 11) * 2**-53.
    """
    rows, count = out.shape
    width = max(1, min(count, _BLOCK_BYTES // (32 * max(1, rows))))
    table = _offsets((width - 1).bit_length())
    for start in range(0, count, width):
        stop = min(start + width, count)
        hi, lo = _ahead(streams, (table[0][:, : stop - start], table[1][:, : stop - start]))
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << (-rot & np.uint64(63)))
        np.multiply(x >> np.uint64(11), 2.0**-53, out=out[:, start:stop])
        streams[:, 0:1], streams[:, 1:2] = hi[:, -1:], lo[:, -1:]
        del hi, lo, x, rot  # before the next chunk's arrays are made


def _draws(states: list[tuple[int, int]], skip: int, count: int) -> np.ndarray:
    """(len(states), count) uniforms: row r continues the PCG64 stream that
    starts at states[r], past its first ``skip`` draws (one 64-bit output
    per uniform), as ``np.random.PCG64`` after ``advance(skip)`` draws them.
    """
    words = [(s >> 64, s & _MASK64, i >> 64, i & _MASK64) for s, i in states]
    streams = np.array(words, dtype=np.uint64).reshape(-1, 4)
    if skip:
        streams[:, 0:1], streams[:, 1:2] = _ahead(streams, _constant(_offset(skip)))
    us = np.empty((len(states), count))
    _fill(streams, us)
    return us


def _uniforms(seeds: list[int], count: int) -> np.ndarray:
    """(len(seeds), count) uniforms: row r opens the PCG64 stream of seeds[r]."""
    us = np.empty((len(seeds), count))
    _fill(_seeded(seeds), us)
    return us


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
    rows reach; ``reach`` holds each row's sum of jumps so far and
    ``streams`` each row's PCG64 stream past the uniforms drawn so far
    (dynamic), and ``devs`` each row's max |norm - 1| so far (static).  A new
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
        self.streams: np.ndarray | None = None

    def seeds(self, rows: slice) -> list[int]:
        return [derive_seed(self.master_seed, i) for i in self.indices[rows]]

    def cut(self, T: int):
        """Yield (rows, jumps, extent) for consecutive row slices covering the shard.

        ``jumps`` takes the rows from iteration self.T to T in a table of
        the given extent.  A static table is as wide as the site map,
        extent T*r_max, so static blocks hold as many rows as fit
        ``_BLOCK_BYTES`` at that width; their jumps are the rows' whole
        maps, drawn afresh for a chunk of rows whose maps fit the budget
        as uniforms (about four blocks), so the streams are seeded and
        drawn in fewer, larger calls.  A dynamic table is only as wide as its
        longest reach, usually far below T*r_max: the new jumps are drawn
        for a chunk of rows whose uniforms fit the budget, from the
        streams where the draws already spent left them (seeded at the
        first call), and the chunk is cut greedily into blocks whose
        tables fit it at the rows' reach after T.  A block always holds
        at least one row.  Each chunk is read before any of its rows is
        yielded.
        """
        n, done = len(self.indices), self.T
        if self.static:
            extent = max(1, T * self.pmf.r_max)
            size = max(1, _BLOCK_BYTES // _table_bytes(1, extent))
            chunk = max(1, _BLOCK_BYTES // (8 * (2 * extent + 1)))
            for start in range(0, n, chunk):
                stop = min(start + chunk, n)
                maps = _site_jumps(self.pmf, extent, self.seeds(slice(start, stop)))
                for first in range(start, stop, size):
                    rows = slice(first, min(first + size, stop))
                    yield rows, maps[first - start : rows.stop - start], extent
            return
        if self.streams is None:
            self.streams = _seeded(self.seeds(slice(0, n)))
        size = max(1, _BLOCK_BYTES // (8 * max(1, T - done)))
        for start in range(0, n, size):
            stop = min(start + size, n)
            us = np.empty((stop - start, T - done))
            _fill(self.streams[start:stop], us)
            jumps = sample_many(self.pmf, us)
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

    This process keeps the walkers of shard 0, which is every realization
    at one worker; each pinned worker keeps those of its own shard until
    the pool shuts down.
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


# Pinned workers: this process runs shard 0 of every call and worker k runs
# shard k + 1 over its own pipe, so each process resumes its own checkpoint
# at the next grid T.  On Linux workers are forked, so they start with numpy
# and this package already imported and see the module as it was at fork
# time; elsewhere they are spawned and import it afresh.
_START_METHOD = "fork" if sys.platform == "linux" else "spawn"


def _serve(conn: Connection) -> None:
    """A pinned worker's loop: run each (task, arg) received, reply
    (True, result) or (False, the exception raised), and return when the
    caller's end of the pipe closes.
    """
    while True:
        try:
            task, arg = conn.recv()
        except EOFError:
            return
        try:
            reply = True, task(arg)
        except Exception as exc:
            reply = False, exc
        try:
            conn.send(reply)
        except OSError:  # the caller is gone
            return


def _broken() -> Exception:
    from concurrent.futures.process import BrokenProcessPool

    return BrokenProcessPool("a pinned worker died")


@dataclass
class _Worker:
    """A pinned worker process and this process's end of its pipe.

    ``lock`` is held from a request's send to the read of its reply, so a
    thread never reads another thread's reply.  A pipe whose state is in
    doubt is closed, which marks the worker dead.
    """

    process: BaseProcess
    conn: Connection
    lock: threading.Lock = field(default_factory=threading.Lock)

    def alive(self) -> bool:
        return not self.conn.closed and self.process.is_alive()

    def send(self, task, arg) -> None:
        try:
            self.conn.send((task, arg))
        except OSError as exc:
            self.conn.close()
            raise _broken() from exc
        except BaseException:
            self.conn.close()  # part of the request may be in the pipe
            raise

    def receive(self) -> tuple[bool, object]:
        """(True, result) or (False, exception) for the request last sent."""
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            self.conn.close()
            return False, _broken()
        except BaseException:
            self.conn.close()  # the reply may still come: no later request may read it
            raise


_POOL: list[_Worker] = []
_POOL_LOCK = threading.Lock()


def _get_pool(workers: int) -> list[_Worker]:
    """The ``workers - 1`` pinned workers, rebuilt when the count changes or one died.

    A worker joins the pool before it starts, so a forked worker closes
    its copy of this process's end of its own pipe and of every earlier
    worker's (see ``_after_fork_in_child``).
    """
    import multiprocessing

    global _POOL
    with _POOL_LOCK:
        if len(_POOL) != workers - 1 or not all(worker.alive() for worker in _POOL):
            pool, _POOL = _POOL, []
            _join(pool)
            context = multiprocessing.get_context(_START_METHOD)
            for _ in range(workers - 1):
                conn, theirs = context.Pipe()
                process = context.Process(target=_serve, args=(theirs,), daemon=True)
                _POOL.append(_Worker(process, conn))
                process.start()
                theirs.close()
        return _POOL


def _join(pool: list[_Worker]) -> None:
    """Close each worker's pipe once no request is in flight, and join the worker."""
    for worker in pool:
        with worker.lock:
            worker.conn.close()
        if worker.process.pid is not None:  # it started
            worker.process.join()


def _shutdown_pool():
    """Join every pinned worker and forget the pool."""
    global _POOL
    with _POOL_LOCK:
        pool, _POOL = _POOL, []
    _join(pool)


atexit.register(_shutdown_pool)


def _after_fork_in_child():
    """A forked process keeps no walkers, lock state or workers of its parent.

    Another thread of the parent may hold a lock at fork time.  The child
    closes its copies of the parent's ends of the workers' pipes, so each
    worker reads the end of its pipe, and exits, once the parent is gone.
    """
    global _CHECKPOINT, _CHECKPOINT_LOCK, _POOL, _POOL_LOCK
    for worker in _POOL:
        worker.conn.close()
    _CHECKPOINT, _CHECKPOINT_LOCK = None, threading.Lock()
    _POOL, _POOL_LOCK = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _collect(static, pmf, T, n, master_seed, workers) -> tuple[list[float], list[float]]:
    """Sigmas and norm deviations of realizations 0..n-1, in index order.

    Each process gets one contiguous shard: realizations cost alike, and
    larger shards make larger blocks.  The shards past the first are sent
    to the pinned workers, the first runs in this process, and every reply
    sent for is read, also when this process's shard raises; the first
    shard's error, in shard order, is raised.  A worker that dies raises
    ``BrokenProcessPool``, and the next call replaces it.
    """
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    task = partial(_shard, static=static, pmf=pmf, T=T, master_seed=master_seed)
    count = min(n, workers)
    shards = [range(n * k // count, n * (k + 1) // count) for k in range(count)]
    replies: list[tuple[bool, object]] = []
    with contextlib.ExitStack() as stack:
        for worker, shard in zip(_get_pool(workers) if count > 1 else [], shards[1:]):
            stack.enter_context(worker.lock)
            worker.send(task, shard)
            stack.callback(lambda worker=worker: replies.append(worker.receive()))
        results = [task(shards[0])]
    for ok, value in reversed(replies):  # the stack read them last worker first
        if not ok:
            raise value
        results.append(value)
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
