"""State-vector engine for coin-conditioned jump walks on the line.

The joint coin-position state is a dense complex table of shape
``(2, 2*max_extent + 1)``; column ``max_extent + i`` stores the amplitude
at lattice site i.  One iteration applies the coin rotation to every
site's coin doublet and then displaces the coin-0 component by +j and
the coin-1 component by -j.  Every evolution, from one step to a full
static run, goes through the single kernel ``_evolve``.  A brute-force
path-sum oracle provides an independent check of the evolved position
distribution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "WalkState",
    "SiteJumpMap",
    "hadamard",
    "is_unitary",
    "initial_state",
    "apply_coin",
    "apply_shift",
    "step",
    "run_dynamic",
    "run_static",
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
        amps = self.amplitudes
        return (amps.real**2 + amps.imag**2).sum(axis=0)

    def copy(self) -> "WalkState":
        return WalkState(self.amplitudes.copy(), self.t, self.max_extent)


def initial_state(max_extent: int) -> WalkState:
    """Walker at the origin with coin state |0>, zero iterations done."""
    if max_extent < 1:
        raise ValueError(f"max_extent must be >= 1, got {max_extent}")
    amps = np.zeros((2, 2 * max_extent + 1), dtype=np.complex128)
    amps[0, max_extent] = 1.0
    return WalkState(amplitudes=amps, t=0, max_extent=max_extent)


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
    amplitudes, _ = _evolve(state.amplitudes.copy(), coin, [j], 1)
    return WalkState(amplitudes, t, state.max_extent)


def run_dynamic(T: int, jumps: Sequence[int], coin: np.ndarray) -> WalkState:
    """Evolve T iterations with the given per-step jump lengths.

    Storage is allocated once for the exact support bound sum(jumps), so
    no shift can leave the table; an overflow raises instead of wrapping.
    """
    if T < 1 or len(jumps) != T:
        raise ValueError(f"need T >= 1 and exactly T={T} jump lengths, got {len(jumps)}")
    ext = max(1, sum(int(j) for j in jumps))
    return WalkState(_evolve(initial_state(ext).amplitudes, coin, jumps, T)[0], T, ext)


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
    a, norm_log = _evolve(initial_state(ext).amplitudes, coin, site_jumps, T)
    return WalkState(amplitudes=a, t=T, max_extent=ext), norm_log


def _evolve(
    a: np.ndarray, coin: np.ndarray, shifts: Sequence[int] | SiteJumpMap, T: int
) -> tuple[np.ndarray, list[float]]:
    """The one evolution kernel: T coin-then-shift iterations on table ``a``.

    ``a`` is consumed (used as a work buffer).  The shift follows the type
    of ``shifts``: per-iteration jump lengths shift each coin row by
    slicing, which is unitary, so the squared norm must stay within
    NORM_TOL of 1 and nothing is logged; a SiteJumpMap scatters every site
    to its own target, which need not be unitary, so the norm of every
    iteration is logged and the state renormalized when it drifts beyond
    STATIC_RENORM_TOL.  Returns the final table and the logged norms.
    """
    coin = np.asarray(coin, dtype=np.complex128)
    if not is_unitary(coin):
        raise ValueError("coin operator is not unitary within 1e-12")
    static = isinstance(shifts, SiteJumpMap)
    shift = _site_scatter(shifts, a.shape[1]) if static else _uniform_shift(shifts, a.shape[1])
    b = np.empty_like(a)
    norm_log: list[float] = []
    for t in range(1, T + 1):
        np.matmul(coin, a, out=b)
        a, b = shift(b, a, t)
        norm2 = np.vdot(a, a).real
        if static:
            norm = float(np.sqrt(norm2))
            norm_log.append(norm)
            if abs(norm - 1.0) > STATIC_RENORM_TOL:
                if norm == 0.0:
                    raise ValueError(f"state vanished at iteration {t}")
                a /= norm
        elif abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"norm drifted to {norm2} at iteration {t}")
    return a, norm_log


def _uniform_shift(jumps: Sequence[int], width: int):
    """Shift for per-iteration jump lengths: shift(src, dst, t) -> (state, spare)."""
    steps = [int(j) for j in jumps]
    if any(j != s or s < 0 for j, s in zip(jumps, steps)):
        raise ValueError(f"jump lengths must be non-negative integers, got {list(jumps)}")

    def shift(src, dst, t):
        j = steps[t - 1]
        if j == 0:
            return src, dst
        if j >= width or src[0, width - j :].any() or src[1, :j].any():
            raise ValueError(
                f"shift by {j} at iteration {t} would push amplitude beyond the "
                f"allocated extent {(width - 1) // 2} (allocation bug)"
            )
        dst[0, j:] = src[0, : width - j]
        dst[0, :j] = 0.0
        dst[1, : width - j] = src[1, j:]
        dst[1, width - j :] = 0.0
        return dst, src

    return shift


def _site_scatter(site_jumps: SiteJumpMap, width: int):
    """Shift for a per-site map: shift(src, dst, t) -> (state, spare).

    Coin-0 amplitude at column i goes to i + j_i and coin-1 amplitude to
    i - j_i; colliding targets add up (bincount), so the norm can change.
    """
    idx = np.arange(width)
    moves = []
    for target in (idx + site_jumps.jumps, idx - site_jumps.jumps):
        inside = (target >= 0) & (target < width)
        moves.append((idx[inside], target[inside], idx[~inside]))

    def shift(src, dst, t):
        if any(src[c, spill].any() for c, (_, _, spill) in enumerate(moves)):
            raise ValueError(
                f"site-dependent shift at iteration {t} exceeds extent "
                f"{site_jumps.extent} (jump map too small for this many iterations)"
            )
        for c, (source, target, _) in enumerate(moves):
            w = src[c, source]
            dst[c] = np.bincount(target, weights=w.real, minlength=width) + 1j * np.bincount(
                target, weights=w.imag, minlength=width
            )
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
