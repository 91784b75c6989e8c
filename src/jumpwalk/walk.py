"""State-vector engine for coin-conditioned jump walks on the line.

The joint coin-position state is a dense complex table of shape
``(2, 2*max_extent + 1)``; column ``max_extent + i`` stores the amplitude
at lattice site i.  One iteration applies the coin rotation to every
site's coin doublet and then displaces the coin-0 component by +j and
the coin-1 component by -j.  Every evolution, from one step to a full
static run, goes through the single kernel ``_evolve``, which advances a
block of walkers at once as a ``(B, 2, W)`` table, one row per walker;
the single-walker functions here run it with B = 1.  A brute-force
path-sum oracle provides an independent check of the evolved position
distribution.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "WalkState",
    "SiteJumpMap",
    "RowError",
    "hadamard",
    "is_unitary",
    "initial_block",
    "initial_state",
    "apply_coin",
    "apply_shift",
    "step",
    "run_dynamic",
    "run_static",
    "site_probabilities",
    "position_distribution",
    "path_sum_oracle",
]

NORM_TOL = 1e-12
# Static-mode renormalization threshold: rounding drift of a unitary
# iteration stays a couple of orders below this, while skipped deviations
# can accumulate over T iterations, so the cutoff must sit well under
# the 1e-9 normalization check divided by any realistic T.
STATIC_RENORM_TOL = 1e-12
_ORACLE_MAX_T = 12
_IDENTITY = np.eye(2, dtype=np.complex128)


def hadamard() -> np.ndarray:
    """The 2x2 Hadamard coin (1/sqrt(2)) [[1, 1], [1, -1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / np.sqrt(2.0)


def is_unitary(matrix: np.ndarray, tol: float = NORM_TOL) -> bool:
    matrix = np.asarray(matrix)
    if matrix.shape != (2, 2):
        return False
    return bool(np.abs(matrix @ matrix.conj().T - np.eye(2)).max() <= tol)


@dataclass
class WalkState:
    """Complex amplitude table over (coin, site) plus the iteration count."""

    amplitudes: np.ndarray  # (2, 2*max_extent+1) complex128
    t: int
    max_extent: int

    @property
    def offset(self) -> int:
        """Storage column of lattice site 0."""
        return self.max_extent

    def amplitude(self, coin: int, site: int) -> complex:
        if abs(site) > self.max_extent:
            return 0.0 + 0.0j
        return complex(self.amplitudes[coin, site + self.offset])

    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def sites(self) -> np.ndarray:
        """Lattice site of every storage column."""
        return np.arange(-self.max_extent, self.max_extent + 1)

    def probabilities(self) -> np.ndarray:
        """Site probabilities |amp(0,i)|^2 + |amp(1,i)|^2 per storage column."""
        return site_probabilities(self.amplitudes)

    def copy(self) -> "WalkState":
        return WalkState(self.amplitudes.copy(), self.t, self.max_extent)


def site_probabilities(amplitudes: np.ndarray) -> np.ndarray:
    """|amp(0,i)|^2 + |amp(1,i)|^2 per storage column of a (..., 2, W) table."""
    return (amplitudes.real**2 + amplitudes.imag**2).sum(axis=-2)


def initial_block(rows: int, max_extent: int) -> np.ndarray:
    """A (rows, 2, 2*max_extent+1) table of walkers at the origin with coin |0>."""
    if max_extent < 1:
        raise ValueError(f"max_extent must be >= 1, got {max_extent}")
    amps = np.zeros((rows, 2, 2 * max_extent + 1), dtype=np.complex128)
    amps[:, 0, max_extent] = 1.0
    return amps


def initial_state(max_extent: int) -> WalkState:
    """Walker at the origin with coin state |0>, zero iterations done."""
    return WalkState(amplitudes=initial_block(1, max_extent)[0], t=0, max_extent=max_extent)


def apply_coin(state: WalkState, coin: np.ndarray) -> WalkState:
    """Rotate every site's coin doublet by the 2x2 unitary ``coin``."""
    return _one_iteration(state, coin, 0, state.t)


def apply_shift(state: WalkState, j: int) -> WalkState:
    """Move coin-0 amplitude j sites right and coin-1 amplitude j sites left."""
    return _one_iteration(state, _IDENTITY, j, state.t)


def step(state: WalkState, coin: np.ndarray, j: int) -> WalkState:
    """One iteration: coin rotation followed by the jump-j shift."""
    return _one_iteration(state, coin, j, state.t + 1)


def _one_iteration(state: WalkState, coin: np.ndarray, j: int, t: int) -> WalkState:
    amplitudes, _ = _evolve(state.amplitudes[None].copy(), coin, 1, step_jumps=[[j]])
    return WalkState(amplitudes[0], t, state.max_extent)


def run_dynamic(T: int, jumps: Sequence[int], coin: np.ndarray) -> WalkState:
    """Evolve T iterations with the given per-step jump lengths.

    Storage is allocated once for the exact support bound sum(jumps), so
    no shift can leave the table; an overflow raises instead of wrapping.
    """
    if T < 1 or len(jumps) != T:
        raise ValueError(f"need T >= 1 and exactly T={T} jump lengths, got {len(jumps)}")
    ext = max(1, sum(int(j) for j in jumps))
    return WalkState(_evolve(initial_block(1, ext), coin, T, step_jumps=[jumps])[0][0], T, ext)


@dataclass
class SiteJumpMap:
    """A fixed integer jump length attached to every site in [-extent, extent]."""

    extent: int
    jumps: np.ndarray  # (2*extent+1,) int64, index = site + extent

    def __post_init__(self):
        self.jumps = np.asarray(self.jumps, dtype=np.int64)
        if self.extent < 1:
            raise ValueError(f"extent must be >= 1, got {self.extent}")
        if self.jumps.shape != (2 * self.extent + 1,):
            raise ValueError("jump table must cover every site in [-extent, extent]")
        if (self.jumps < 0).any():
            raise ValueError("site jump lengths must be non-negative")

    @classmethod
    def constant(cls, extent: int, j: int) -> "SiteJumpMap":
        return cls(extent, np.full(2 * extent + 1, j, dtype=np.int64))

    @classmethod
    def from_dict(cls, extent: int, mapping: Mapping[int, int]) -> "SiteJumpMap":
        jumps = np.empty(2 * extent + 1, dtype=np.int64)
        for site in range(-extent, extent + 1):
            if site not in mapping:
                raise ValueError(f"site {site} missing from jump map")
            jumps[site + extent] = mapping[site]
        return cls(extent, jumps)

    def jump_at(self, site: int) -> int:
        return int(self.jumps[site + self.extent])


def run_static(
    T: int, site_jumps: SiteJumpMap, coin: np.ndarray
) -> tuple[WalkState, list[float]]:
    """Evolve T iterations with per-site jump lengths.

    Each iteration applies the coin and then moves the coin-0 amplitude
    at site i to i + j_i and the coin-1 amplitude to i - j_i.  Unequal
    site jumps can merge two sources into one target, so the map need
    not preserve the norm: the pre-renormalization norm of every
    iteration is returned, and the state is renormalized whenever the
    norm deviates from 1 by more than rounding drift.
    """
    if T < 1:
        raise ValueError(f"need at least one iteration, got {T}")
    ext = site_jumps.extent
    a, norms = _evolve(initial_block(1, ext), coin, T, site_jumps=site_jumps.jumps[None])
    return WalkState(amplitudes=a[0], t=T, max_extent=ext), norms[0].tolist()


class RowError(ValueError):
    """An evolution check failed in one row of a block; ``row`` is its index."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _evolve(
    a: np.ndarray,
    coin: np.ndarray,
    T: int,
    *,
    step_jumps: np.ndarray | Sequence[Sequence[int]] | None = None,
    site_jumps: np.ndarray | None = None,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray | None]:
    """The one evolution kernel: T coin-then-shift iterations on a block.

    ``a`` is a (B, 2, W) table with one walker per row; it is consumed
    (used as a work buffer).  Exactly one jump argument is given.
    ``step_jumps`` (B, T) holds each row's jump length per iteration: the
    rows shift by slicing, which is unitary, so every row's squared norm
    must stay within NORM_TOL of 1 and nothing is logged.  ``site_jumps``
    (B, W) holds each row's fixed jump per storage column: every site
    scatters to its own target, which need not be unitary, so each row's
    norm is logged at every iteration and the row renormalized when it
    drifts beyond STATIC_RENORM_TOL.  A row's norm is the square root of
    the math.fsum of its site probabilities: that sum is exactly rounded,
    so neither the other rows nor zero padding change it.  Under a real
    coin such as the Hadamard, the coin product and the shifts round a
    column alike wherever it sits, so a row evolves bit for bit as it
    would alone or in any wider table that holds it center-aligned, and
    evolving T1 then T2 iterations equals evolving T1 + T2 at once (a
    general complex coin can round a column differently at another
    position).  Step-jump norms are only checked, so one vectorized sum
    serves.  Returns the final table and the (B, T) norm log (None for
    step jumps).  A failed check raises RowError naming the row and the
    iteration, counted from ``start``, the iterations the rows already ran.
    """
    coin = np.asarray(coin, dtype=np.complex128)
    if not is_unitary(coin):
        raise ValueError("coin operator is not unitary within 1e-12")
    static = site_jumps is not None
    if static:
        shift = _site_scatter(site_jumps, a.shape)
    else:
        shift = _step_shift(step_jumps, a.shape, T, start)
    norms = np.empty((a.shape[0], T)) if static else None
    b = np.empty_like(a)
    for t in range(start + 1, start + T + 1):
        np.matmul(coin, a, out=b)
        a, b = shift(b, a, t)
        if static:
            probs = site_probabilities(a).tolist()
            norm = norms[:, t - start - 1] = np.sqrt([math.fsum(p) for p in probs])
            vanished = np.flatnonzero(norm == 0.0)
            if vanished.size:
                raise RowError(int(vanished[0]), f"state vanished at iteration {t}")
            drift = np.abs(norm - 1.0) > STATIC_RENORM_TOL
            if drift.any():
                # Complex division by a real norm multiplies by its reciprocal;
                # scaling the float view does the same, all rows at once.
                a.view(np.float64)[...] *= np.where(drift, 1.0 / norm, 1.0)[:, None, None]
        else:
            parts = a.reshape(len(a), -1).view(np.float64)
            norm2 = np.einsum("ij,ij->i", parts, parts)
            drifted = np.flatnonzero(np.abs(norm2 - 1.0) > NORM_TOL)
            if drifted.size:
                r = int(drifted[0])
                raise RowError(r, f"norm drifted to {norm2[r]} at iteration {t}")
    return a, norms


def _step_shift(step_jumps, shape: tuple[int, int, int], T: int, start: int):
    """Shift for per-iteration jump lengths: shift(src, dst, t) -> (state, spare).

    Shifts ``src`` in place, one slice per distinct jump length of the
    iteration, so the rows that share a length move together.  Column k
    of ``step_jumps`` holds the jumps of iteration start + k + 1.
    """
    rows, _, width = shape
    given = np.asarray(step_jumps)
    steps = given.astype(np.int64)
    if steps.shape != (rows, T) or (steps != given).any() or (steps < 0).any():
        raise ValueError(
            f"need {T} non-negative integer jump lengths per walker, got {given.tolist()}"
        )

    def shift(src, dst, t):
        column = steps[:, t - start - 1]
        lengths = np.flatnonzero(np.bincount(column))
        for j in lengths[lengths > 0].tolist():
            moved = np.flatnonzero(column == j)
            sel = slice(None) if moved.size == rows else moved
            spill = moved if j >= width else moved[
                src[sel, 0, width - j :].any(axis=-1) | src[sel, 1, :j].any(axis=-1)
            ]
            if spill.size:
                raise RowError(
                    int(spill[0]),
                    f"shift by {j} at iteration {t} would push amplitude beyond the "
                    f"allocated extent {(width - 1) // 2} (allocation bug)",
                )
            src[sel, 0, j:] = src[sel, 0, : width - j]
            src[sel, 0, :j] = 0.0
            src[sel, 1, : width - j] = src[sel, 1, j:]
            src[sel, 1, width - j :] = 0.0
        return src, dst

    return shift


def _site_scatter(site_jumps: np.ndarray, shape: tuple[int, int, int]):
    """Shift for per-site maps: shift(src, dst, t) -> (state, spare).

    Row r's coin-0 amplitude at column i goes to i + j_ri and its coin-1
    amplitude to i - j_ri.  One flat bincount over row*2W + coin*W + target
    adds colliding targets up in source order, so the norm can change.  A
    source whose target falls outside the table must hold no amplitude;
    it is sent to its own bin, where its zero changes nothing.
    """
    rows, _, width = shape
    idx = np.arange(width)
    target = np.stack((idx + site_jumps, idx - site_jumps), axis=1)
    spill = np.flatnonzero((target < 0) | (target >= width))
    target += np.arange(0, target.size, width).reshape(rows, 2, 1)
    target = target.reshape(-1)
    target[spill] = spill

    def shift(src, dst, t):
        flat_src, flat_dst = src.reshape(-1), dst.reshape(-1)
        hit = np.flatnonzero(flat_src[spill])
        if hit.size:
            raise RowError(
                int(spill[hit[0]]) // (2 * width),
                f"site-dependent shift at iteration {t} exceeds extent "
                f"{(width - 1) // 2} (jump map too small for this many iterations)",
            )
        flat_dst.real = np.bincount(target, weights=flat_src.real, minlength=target.size)
        flat_dst.imag = np.bincount(target, weights=flat_src.imag, minlength=target.size)
        return dst, src

    return shift


def position_distribution(state: WalkState) -> dict[int, float]:
    """Site probabilities |amp(0,i)|^2 + |amp(1,i)|^2 over the support."""
    p = state.probabilities()
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"state is not normalized (total probability {total})")
    offset = state.offset
    return {int(i - offset): float(p[i]) for i in np.nonzero(p)[0]}


def path_sum_oracle(
    T: int, jumps: Sequence[int], coin: np.ndarray
) -> dict[int, float]:
    """Position distribution by summing amplitudes over all 2^T coin paths.

    Walks every coin-outcome sequence (c_1..c_T), multiplying the coin
    entries coin[c_t, c_{t-1}] along the path (initial coin 0) and adding
    the product into the amplitude at displacement sum_t (+j_t if c_t=0
    else -j_t).  Independent of the state-vector engine.
    """
    jumps = [int(j) for j in jumps]
    if T < 1 or len(jumps) != T:
        raise ValueError(f"expected {T} jump lengths, got {len(jumps)}")
    if T > _ORACLE_MAX_T:
        raise ValueError(f"path enumeration limited to T <= {_ORACLE_MAX_T}, got {T}")
    coin = np.asarray(coin, dtype=np.complex128)

    amplitudes: dict[tuple[int, int], complex] = {}
    for path in itertools.product((0, 1), repeat=T):
        amp = 1.0 + 0.0j
        prev = 0
        site = 0
        for c, j in zip(path, jumps):
            amp *= coin[c, prev]
            site += j if c == 0 else -j
            prev = c
        key = (path[-1], site)
        amplitudes[key] = amplitudes.get(key, 0.0 + 0.0j) + amp

    pmf: dict[int, float] = {}
    for (_, site), amp in amplitudes.items():
        weight = (amp * amp.conjugate()).real
        if weight > 0.0:
            pmf[site] = pmf.get(site, 0.0) + weight
    return pmf
