"""Jump-length distributions.

Exact probability mass functions for the six supported jump-length
families (poisson, binomial, hypergeometric, negative binomial,
geometric, constant), tail truncation to an effective maximal jump
with renormalization, moments of the truncated law, and inverse-CDF
sampling over the truncated support.

Each family is one row of ``_FAMILIES``: its typed parameters, its
domain, its masses m_0, m_1, ... as one stream, and its closed-form
mean and variance.  Validation, the ``pmf_*`` functions, ``family_pmf``,
``family_mean_variance`` and ``truncate`` all read the row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import count, islice, repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

__all__ = [
    "DistributionSpec",
    "TruncatedJumpPmf",
    "pmf_poisson",
    "pmf_binomial",
    "pmf_hypergeometric",
    "pmf_negative_binomial",
    "pmf_geometric",
    "family_pmf",
    "family_mean_variance",
    "truncate",
    "moments",
    "sample",
]

DEFAULT_TAIL_TOLERANCE = 1e-4

# Hard cap on the truncation search; no supported parameterization gets
# anywhere near this before the tail drops below any tolerance in (0,1).
_MAX_SUPPORT_SCAN = 10_000


# The Poisson, binomial and negative-binomial masses are exp of their
# logarithm: the linear forms overflow (lam**k, k!, or a binomial
# coefficient converted to float) long before the mass itself leaves the
# float range.  math.log takes the exact integer coefficient at any size.
# Streams step each coefficient from the last, C(n,k+1) = C(n,k)*(n-k)//(k+1),
# which is exact: it is the integer math.comb(n, k+1) gives, so every mass
# keeps its bits at one big-integer step per k instead of a fresh math.comb.


def _poisson_masses(lam: float) -> Iterator[float]:
    for k in count():
        yield math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def _binomial_masses(n: int, p: float) -> Iterator[float]:
    coef, log_p, log_q = 1, math.log(p), math.log1p(-p)
    for k in range(n + 1):
        yield math.exp(math.log(coef) + k * log_p + (n - k) * log_q)
        coef = coef * (n - k) // (k + 1)


def _hypergeometric_masses(N: int, K: int, n: int) -> Iterator[float]:
    # C(K,k) * C(N-K,n-k) / C(N,n) on the support [max(0, n+K-N), min(n, K)].
    low = max(0, n + K - N)
    drawn, missed, total = math.comb(K, low), math.comb(N - K, n - low), math.comb(N, n)
    yield from repeat(0.0, low)
    for k in range(low, min(n, K) + 1):
        yield drawn * missed / total
        drawn = drawn * (K - k) // (k + 1)
        missed = missed * (n - k) // (N - K - n + k + 1)


def _negative_binomial_masses(r: int, p: float) -> Iterator[float]:
    coef, log_failures, log_p = 1, r * math.log1p(-p), math.log(p)
    for k in count():
        yield math.exp(math.log(coef) + log_failures + k * log_p)
        coef = coef * (k + r) // (k + 1)


def _geometric_masses(p: float) -> Iterator[float]:
    for k in count():
        yield p * (1 - p) ** k


def _constant_masses(j: int) -> Iterator[float]:
    yield from repeat(0.0, j)
    yield 1.0


class _Family(NamedTuple):
    params: dict  # parameter name -> type, in canonical rendering order
    domain: str  # what ``valid`` checks, as error messages state it
    valid: Callable[..., bool]
    masses: Callable[..., Iterator[float]]  # m_0, m_1, ...; ends where a bounded support does
    mean_variance: Callable[..., tuple[float, float]]
    bounded: bool


# Each callable takes the parameters positionally, in ``params`` order.
_FAMILIES = {
    "poisson": _Family(
        {"lambda": float}, "lambda > 0", lambda lam: lam > 0,
        _poisson_masses, lambda lam: (lam, lam), bounded=False,
    ),
    "binomial": _Family(
        {"n": int, "p": float}, "n >= 1 and 0 < p < 1", lambda n, p: n >= 1 and 0 < p < 1,
        _binomial_masses, lambda n, p: (n * p, n * p * (1 - p)), bounded=True,
    ),
    # N == 1 forces the point mass at 1, where the (N - n) factor is 0.
    "hypergeom": _Family(
        {"N": int, "K": int, "n": int}, "0 < K <= N and 0 < n <= N",
        lambda N, K, n: 0 < K <= N and 0 < n <= N, _hypergeometric_masses,
        lambda N, K, n: (n * K / N, n * K / N * (N - K) / N * (N - n) / max(N - 1, 1)),
        bounded=True,
    ),
    "negbinom": _Family(
        {"r": int, "p": float}, "r >= 1 and 0 < p < 1", lambda r, p: r >= 1 and 0 < p < 1,
        _negative_binomial_masses, lambda r, p: (p * r / (1 - p), p * r / (1 - p) ** 2),
        bounded=False,
    ),
    "geometric": _Family(
        {"p": float}, "0 < p < 1", lambda p: 0 < p < 1,
        _geometric_masses, lambda p: ((1 - p) / p, (1 - p) / p**2), bounded=False,
    ),
    "constant": _Family(
        {"j": int}, "j >= 0", lambda j: j >= 0,
        _constant_masses, lambda j: (float(j), 0.0), bounded=True,
    ),
}

FAMILIES = tuple(_FAMILIES)

# Parameter names per family, in canonical rendering order, with their types.
PARAM_KEYS = {family: row.params for family, row in _FAMILIES.items()}


def _check_value(name: str, value, kind: type) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is a finite ``kind``.

    An int passes as a float; a bool passes as neither.
    """
    typed = isinstance(value, (int, kind)) and not isinstance(value, bool)
    if not typed or not -math.inf < value < math.inf:
        raise ValueError(f"parameter {name!r} must be a finite {kind.__name__}, got {value!r}")


def _row_args(family: str, params: dict) -> tuple[_Family, list]:
    """The row of ``family`` and ``params`` in its order, after checking both."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown distribution family {family!r}")
    row = _FAMILIES[family]
    missing = [key for key in row.params if key not in params]
    if missing:
        raise ValueError(f"{family} spec missing parameter(s) {missing}")
    extra = [key for key in params if key not in row.params]
    if extra:
        raise ValueError(f"{family} spec has unknown parameter(s) {extra}")
    for key, kind in row.params.items():
        _check_value(key, params[key], kind)
    args = [params[key] for key in row.params]
    if not row.valid(*args):
        raise ValueError(f"{family} needs {row.domain}, got {params}")
    return row, args


def _pmf(family: str, params: dict, k: int, k_max: float = math.inf) -> float:
    """Mass at ``k`` of ``family`` after checking ``params`` and 0 <= k <= k_max."""
    row, args = _row_args(family, params)
    if not 0 <= k <= k_max:
        raise ValueError(f"{family} count must be in [0, {k_max}], got {k}")
    return next(islice(row.masses(*args), k, None), 0.0)


def pmf_poisson(lam: float, k: int) -> float:
    """Poisson mass e^(-lam) * lam^k / k!."""
    return _pmf("poisson", {"lambda": lam}, k)


def pmf_binomial(n: int, p: float, k: int) -> float:
    """Binomial mass C(n,k) * p^k * (1-p)^(n-k), k in [0, n]."""
    return _pmf("binomial", {"n": n, "p": p}, k, n)


def pmf_hypergeometric(N: int, K: int, n: int, k: int) -> float:
    """Hypergeometric mass C(K,k) * C(N-K,n-k) / C(N,n), k in [0, n].

    Returns 0.0 for k in [0, n] but outside the support
    [max(0, n+K-N), min(n, K)].
    """
    return _pmf("hypergeom", {"N": N, "K": K, "n": n}, k, n)


def pmf_negative_binomial(r: int, p: float, k: int) -> float:
    """Negative-binomial mass C(k+r-1,k) * (1-p)^r * p^k.

    k counts successes (probability p each) accumulated before the
    r-th failure.
    """
    return _pmf("negbinom", {"r": r, "p": p}, k)


def pmf_geometric(p: float, k: int) -> float:
    """Geometric mass p * (1-p)^k, k failures before the first success."""
    return _pmf("geometric", {"p": p}, k)


@dataclass(frozen=True)
class DistributionSpec:
    """A jump-length distribution family with its parameters.

    ``params`` holds the family-specific values keyed as in PARAM_KEYS,
    each a finite value of its key's type (an int also serves as a
    float).  ``tail_tolerance`` bounds the probability mass allowed above
    the effective maximal jump.  ``r_max``, when set, pins the effective
    maximal jump instead of deriving it from the tolerance (used by the
    unit-mean Poisson preset that cuts at 5).
    """

    family: str
    params: dict = field(default_factory=dict)
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
    r_max: int | None = None

    def __post_init__(self):
        _row_args(self.family, self.params)
        if not 0 < self.tail_tolerance < 1:
            raise ValueError(
                f"tail tolerance must be in (0,1), got {self.tail_tolerance}"
            )
        if self.r_max is not None:
            _check_value("r_max", self.r_max, int)
            if self.r_max < 0:
                raise ValueError(f"r_max must be non-negative, got {self.r_max}")

    def spec_string(self) -> str:
        """Canonical ``family:key=value,...`` form (round-trips through the CLI)."""
        parts = [f"{key}={_render_value(self.params[key])}" for key in PARAM_KEYS[self.family]]
        if self.tail_tolerance != DEFAULT_TAIL_TOLERANCE:
            parts.append(f"tol={_render_value(self.tail_tolerance)}")
        if self.r_max is not None:
            parts.append(f"rmax={self.r_max}")
        return f"{self.family}:" + ",".join(parts)

    def __str__(self) -> str:
        return self.spec_string()

    def with_r_max(self, r_max: int) -> "DistributionSpec":
        return replace(self, r_max=r_max)


def _render_value(value) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def family_pmf(spec: DistributionSpec, k: int) -> float:
    """Raw (untruncated) mass of ``spec`` at jump length k >= 0."""
    return _pmf(spec.family, spec.params, k)


def family_mean_variance(spec: DistributionSpec) -> tuple[float, float]:
    """Closed-form mean and variance of the untruncated distribution."""
    row, args = _row_args(spec.family, spec.params)
    return row.mean_variance(*args)


@dataclass
class TruncatedJumpPmf:
    """Renormalized jump-length law on {0, ..., r_max}.

    ``raw_tail_mass`` is the untruncated probability above r_max that was
    discarded before renormalization.  Treated as immutable once built.
    """

    probs: np.ndarray
    r_max: int
    raw_tail_mass: float
    spec: DistributionSpec
    cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.shape != (self.r_max + 1,):
            raise ValueError("probs must have one entry per jump in {0..r_max}")
        if (self.probs < 0).any():
            raise ValueError("probabilities must be non-negative")
        cdf = np.cumsum(self.probs)
        # Pin the last cumulative value so every deviate in [0,1) maps
        # into the support even when the cumsum rounds below 1.
        cdf[-1] = 1.0
        self.cdf = cdf


def truncate(spec: DistributionSpec) -> TruncatedJumpPmf:
    """Cut ``spec`` at the effective maximal jump and renormalize.

    The cut point is the smallest R whose discarded tail mass does not
    exceed ``spec.tail_tolerance``; finitely supported families keep
    their full support with zero tail.  ``spec.r_max`` overrides the
    tolerance rule when set.
    """
    row, args = _row_args(spec.family, spec.params)
    masses = row.masses(*args)
    if spec.r_max is not None:
        raw = list(islice(masses, spec.r_max + 1))
        tail = max(0.0, 1.0 - math.fsum(raw))
    elif row.bounded:
        raw, tail = list(masses), 0.0
    else:
        raw: list[float] = []

        def tail_ok(k: int) -> bool:
            raw.extend(islice(masses, max(0, k + 1 - len(raw))))
            return 1.0 - math.fsum(raw[: k + 1]) <= spec.tail_tolerance

        # Exact prefix sums never decrease in k, so tail_ok is monotone:
        # double the probe until it holds, then bisect down to the first k.
        lo, hi = -1, 0
        while not tail_ok(hi):
            if hi == _MAX_SUPPORT_SCAN - 1:
                raise ValueError(
                    f"no cut point below {_MAX_SUPPORT_SCAN} reaches tail tolerance "
                    f"{spec.tail_tolerance} for {spec}"
                )
            lo, hi = hi, min(2 * hi + 1, _MAX_SUPPORT_SCAN - 1)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if tail_ok(mid) else (mid, hi)
        raw = raw[: hi + 1]
        tail = max(0.0, 1.0 - math.fsum(raw))

    total = math.fsum(raw)
    if total <= 0.0:
        raise ValueError(f"truncated support of {spec} carries no mass")
    probs = np.array(raw, dtype=np.float64) / total
    return TruncatedJumpPmf(probs=probs, r_max=len(raw) - 1, raw_tail_mass=tail, spec=spec)


def moments(pmf: TruncatedJumpPmf) -> tuple[float, float]:
    """Mean and central variance of the truncated, renormalized law."""
    ks = range(pmf.r_max + 1)
    mean = math.fsum(k * p for k, p in zip(ks, pmf.probs))
    second = math.fsum(k * k * p for k, p in zip(ks, pmf.probs))
    return mean, max(second - mean * mean, 0.0)


def sample(pmf: TruncatedJumpPmf, u: float) -> int:
    """Inverse-CDF draw: the smallest j with CDF(j) > u, u in [0,1)."""
    if not 0.0 <= u < 1.0:
        raise ValueError(f"uniform deviate must lie in [0,1), got {u}")
    return int(np.searchsorted(pmf.cdf, u, side="right"))


def sample_many(pmf: TruncatedJumpPmf, us: np.ndarray) -> np.ndarray:
    """Vectorized inverse-CDF draws for an array of uniforms in [0,1)."""
    us = np.asarray(us)
    if us.size and (us.min() < 0.0 or us.max() >= 1.0):
        raise ValueError("uniform deviates must lie in [0,1)")
    return np.searchsorted(pmf.cdf, us, side="right").astype(np.int64)
