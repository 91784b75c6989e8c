"""Jump-length distributions.

Exact probability mass functions for the six supported jump-length
families (poisson, binomial, hypergeometric, negative binomial,
geometric, constant), tail truncation to an effective maximal jump
with renormalization, moments of the truncated law, and inverse-CDF
sampling over the truncated support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

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

FAMILIES = ("poisson", "binomial", "hypergeom", "negbinom", "geometric", "constant")

# Required parameter keys per family, in canonical rendering order.
PARAM_KEYS = {
    "poisson": ("lambda",),
    "binomial": ("n", "p"),
    "hypergeom": ("N", "K", "n"),
    "negbinom": ("r", "p"),
    "geometric": ("p",),
    "constant": ("j",),
}

DEFAULT_TAIL_TOLERANCE = 1e-4

# Hard cap on the truncation search; no supported parameterization gets
# anywhere near this before the tail drops below any tolerance in (0,1).
_MAX_SUPPORT_SCAN = 10_000


# The Poisson, binomial and negative-binomial masses are exp of their
# logarithm: the linear forms overflow (lam**k, k!, or a binomial
# coefficient converted to float) long before the mass itself leaves the
# float range.  math.log takes the exact integer coefficient at any size.


def pmf_poisson(lam: float, k: int) -> float:
    """Poisson mass e^(-lam) * lam^k / k!."""
    if lam <= 0:
        raise ValueError(f"poisson rate must be positive, got {lam}")
    if k < 0:
        raise ValueError(f"poisson count must be non-negative, got {k}")
    return math.exp(k * math.log(lam) - lam - math.lgamma(k + 1))


def pmf_binomial(n: int, p: float, k: int) -> float:
    """Binomial mass C(n,k) * p^k * (1-p)^(n-k)."""
    if not 0 < p < 1:
        raise ValueError(f"binomial success probability must be in (0,1), got {p}")
    if n < 1:
        raise ValueError(f"binomial trial count must be >= 1, got {n}")
    if k < 0 or k > n:
        raise ValueError(f"binomial count must be in [0, {n}], got {k}")
    return math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))


def pmf_hypergeometric(N: int, K: int, n: int, k: int) -> float:
    """Hypergeometric mass C(K,k) * C(N-K,n-k) / C(N,n).

    Returns 0.0 for k in [0, n] but outside the support
    [max(0, n+K-N), min(n, K)].
    """
    if not 0 < K <= N:
        raise ValueError(f"need 0 < K <= N, got K={K}, N={N}")
    if not 0 < n <= N:
        raise ValueError(f"need 0 < n <= N, got n={n}, N={N}")
    if k < 0 or k > n:
        raise ValueError(f"hypergeometric count must be in [0, {n}], got {k}")
    if k > K or n - k > N - K:
        return 0.0
    return math.comb(K, k) * math.comb(N - K, n - k) / math.comb(N, n)


def pmf_negative_binomial(r: int, p: float, k: int) -> float:
    """Negative-binomial mass C(k+r-1,k) * (1-p)^r * p^k.

    k counts successes (probability p each) accumulated before the
    r-th failure.
    """
    if r < 1:
        raise ValueError(f"failure target r must be >= 1, got {r}")
    if not 0 < p < 1:
        raise ValueError(f"success probability must be in (0,1), got {p}")
    if k < 0:
        raise ValueError(f"success count must be non-negative, got {k}")
    return math.exp(math.log(math.comb(k + r - 1, k)) + r * math.log1p(-p) + k * math.log(p))


def pmf_geometric(p: float, k: int) -> float:
    """Geometric mass p * (1-p)^k, k failures before the first success."""
    if not 0 < p < 1:
        raise ValueError(f"success probability must be in (0,1), got {p}")
    if k < 0:
        raise ValueError(f"failure count must be non-negative, got {k}")
    return p * (1 - p) ** k


@dataclass(frozen=True)
class DistributionSpec:
    """A jump-length distribution family with its parameters.

    ``params`` holds the family-specific values keyed as in PARAM_KEYS.
    ``tail_tolerance`` bounds the probability mass allowed above the
    effective maximal jump.  ``r_max``, when set, pins the effective
    maximal jump instead of deriving it from the tolerance (used by the
    unit-mean Poisson preset that cuts at 5).
    """

    family: str
    params: dict = field(default_factory=dict)
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
    r_max: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown distribution family {self.family!r}")
        missing = [key for key in PARAM_KEYS[self.family] if key not in self.params]
        if missing:
            raise ValueError(f"{self.family} spec missing parameter(s) {missing}")
        extra = [key for key in self.params if key not in PARAM_KEYS[self.family]]
        if extra:
            raise ValueError(f"{self.family} spec has unknown parameter(s) {extra}")
        if not 0 < self.tail_tolerance < 1:
            raise ValueError(
                f"tail tolerance must be in (0,1), got {self.tail_tolerance}"
            )
        if self.r_max is not None and self.r_max < 0:
            raise ValueError(f"r_max must be non-negative, got {self.r_max}")
        self._validate_params()

    def _validate_params(self):
        p = self.params
        if self.family == "poisson":
            if p["lambda"] <= 0:
                raise ValueError(f"poisson mean must be positive, got {p['lambda']}")
        elif self.family == "binomial":
            pmf_binomial(p["n"], p["p"], 0)
        elif self.family == "hypergeom":
            pmf_hypergeometric(p["N"], p["K"], p["n"], 0)
        elif self.family == "negbinom":
            pmf_negative_binomial(p["r"], p["p"], 0)
        elif self.family == "geometric":
            pmf_geometric(p["p"], 0)
        elif self.family == "constant":
            if int(p["j"]) != p["j"] or p["j"] < 0:
                raise ValueError(f"constant jump must be a non-negative integer, got {p['j']}")

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
    p = spec.params
    if spec.family == "poisson":
        return pmf_poisson(p["lambda"], k)
    if spec.family == "binomial":
        return pmf_binomial(p["n"], p["p"], k) if k <= p["n"] else 0.0
    if spec.family == "hypergeom":
        if k > p["n"]:
            return 0.0
        return pmf_hypergeometric(p["N"], p["K"], p["n"], k)
    if spec.family == "negbinom":
        return pmf_negative_binomial(p["r"], p["p"], k)
    if spec.family == "geometric":
        return pmf_geometric(p["p"], k)
    if spec.family == "constant":
        return 1.0 if k == int(p["j"]) else 0.0
    raise ValueError(f"unknown family {spec.family!r}")


def support_max(spec: DistributionSpec) -> int | None:
    """Largest jump with nonzero mass, or None for unbounded families."""
    p = spec.params
    if spec.family == "binomial":
        return int(p["n"])
    if spec.family == "hypergeom":
        return min(int(p["n"]), int(p["K"]))
    if spec.family == "constant":
        return int(p["j"])
    return None


def family_mean_variance(spec: DistributionSpec) -> tuple[float, float]:
    """Closed-form mean and variance of the untruncated distribution."""
    p = spec.params
    if spec.family == "poisson":
        return p["lambda"], p["lambda"]
    if spec.family == "binomial":
        n, q = p["n"], p["p"]
        return n * q, n * q * (1 - q)
    if spec.family == "hypergeom":
        N, K, n = p["N"], p["K"], p["n"]
        mean = n * K / N
        return mean, mean * (N - K) / N * (N - n) / (N - 1)
    if spec.family == "negbinom":
        r, q = p["r"], p["p"]
        return q * r / (1 - q), q * r / (1 - q) ** 2
    if spec.family == "geometric":
        q = p["p"]
        return (1 - q) / q, (1 - q) / q**2
    if spec.family == "constant":
        return float(p["j"]), 0.0
    raise ValueError(f"unknown family {spec.family!r}")


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
    bound = support_max(spec)
    if spec.r_max is not None:
        r = spec.r_max if bound is None else min(spec.r_max, bound)
        raw = [family_pmf(spec, k) for k in range(r + 1)]
        tail = max(0.0, 1.0 - math.fsum(raw))
    elif bound is not None:
        r = bound
        raw = [family_pmf(spec, k) for k in range(r + 1)]
        tail = 0.0
    else:
        raw: list[float] = []

        def tail_ok(k: int) -> bool:
            raw.extend(family_pmf(spec, i) for i in range(len(raw), k + 1))
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
        r = hi
        raw = raw[: r + 1]
        tail = max(0.0, 1.0 - math.fsum(raw))

    total = math.fsum(raw)
    if total <= 0.0:
        raise ValueError(f"truncated support of {spec} carries no mass")
    probs = np.array(raw, dtype=np.float64) / total
    return TruncatedJumpPmf(probs=probs, r_max=r, raw_tail_mass=tail, spec=spec)


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
