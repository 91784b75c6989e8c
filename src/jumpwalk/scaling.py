"""Dispersion and scaling-exponent extraction.

The walker's spread is the central standard deviation of its position
distribution.  The finite-size exponent alpha comes from an ordinary
least-squares line through (ln T, ln(1/sigma)): slope -1 is ballistic,
slope -0.5 diffusive, intermediate slopes sub-ballistic but
super-diffusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .ensemble import EnsemblePoint

__all__ = [
    "ScalingFit",
    "site_std_dev",
    "site_std_devs",
    "std_dev",
    "loglog_points",
    "fit_line",
    "exponent",
    "classify_exponent",
]


def site_std_devs(sites: Sequence[float], probs: np.ndarray) -> list[float]:
    """Central standard deviation of every row of ``probs`` (B, W) at ``sites`` (W,).

    The moment terms p, sites*p and sites*sites*p are formed once for the
    whole block; each row is then summed with math.fsum, which rounds the
    exact sum once, so a row's result does not depend on the order of its
    sites, on zero-mass sites or on the other rows.
    """
    sites = np.asarray(sites, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    firsts = sites * probs
    seconds = sites * sites * probs
    out = []
    for p, first, second in zip(probs, firsts, seconds):  # one row's lists at a time
        p, first, second = p.tolist(), first.tolist(), second.tolist()
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"position distribution sums to {total}, not 1")
        mean = math.fsum(first)
        out.append(math.sqrt(max(math.fsum(second) - mean * mean, 0.0)))
    return out


def site_std_dev(sites: Sequence[float], probs: Sequence[float]) -> float:
    """Central standard deviation of probabilities ``probs`` at ``sites``."""
    return site_std_devs(sites, np.asarray(probs, dtype=np.float64)[None])[0]


def std_dev(pmf: Mapping[int, float]) -> float:
    """Central standard deviation of a site-probability map."""
    return site_std_dev(list(pmf), list(pmf.values()))


def loglog_points(points: "Sequence[EnsemblePoint]") -> list[tuple[float, float]]:
    """Map ensemble records to (ln T, ln(1/mean_sigma)) pairs."""
    out = []
    for p in points:
        if p.T < 1:
            raise ValueError(f"iteration count must be >= 1, got {p.T}")
        if p.mean_sigma <= 0.0:
            raise ValueError(
                f"degenerate dispersion {p.mean_sigma} at T={p.T}: "
                "log-log analysis needs sigma > 0"
            )
        out.append((math.log(p.T), math.log(1.0 / p.mean_sigma)))
    return out


@dataclass
class ScalingFit:
    """Least-squares line through (ln T, ln(1/sigma)) pairs.

    slope = -alpha and intercept = ln A in sigma = A^(-1) T^alpha.
    """

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]


def fit_line(points: Iterable[tuple[float, float]]) -> ScalingFit:
    """Ordinary unweighted least squares through (x, y) pairs."""
    pts = tuple((float(x), float(y)) for x, y in points)
    if len(pts) < 2:
        raise ValueError(f"need at least 2 points to fit a line, got {len(pts)}")
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    n = len(pts)
    x_mean = math.fsum(xs) / n
    y_mean = math.fsum(ys) / n
    sxx = math.fsum((x - x_mean) ** 2 for x in xs)
    if sxx == 0.0:
        raise ValueError("all abscissae equal; line is vertical")
    sxy = math.fsum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = y_mean - slope * x_mean
    ss_res = math.fsum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = math.fsum((y - y_mean) ** 2 for y in ys)
    if ss_tot == 0.0:
        r_squared = 1.0
    else:
        r_squared = max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(slope=slope, intercept=intercept, r_squared=r_squared, points=pts)


def exponent(fit: ScalingFit) -> float:
    """Finite-size scaling exponent alpha = -slope."""
    return -fit.slope


def classify_exponent(alpha: float, tol: float = 0.05) -> str:
    """Reporting band for alpha: ballistic, diffusive, or in between."""
    if alpha >= 1.0 - tol:
        return "ballistic"
    if alpha <= 0.5 + tol:
        return "diffusive or slower"
    return "sub-ballistic, super-diffusive"
