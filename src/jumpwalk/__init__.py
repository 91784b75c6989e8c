"""Discrete-time quantum walks on a line with quenched random jump lengths."""

from .distributions import (
    DistributionSpec,
    TruncatedJumpPmf,
    moments,
    pmf_binomial,
    pmf_geometric,
    pmf_hypergeometric,
    pmf_negative_binomial,
    pmf_poisson,
    sample,
    truncate,
)
from .ensemble import (
    EnsemblePoint,
    Realization,
    derive_seed,
    quenched_average,
    sample_dynamic_realization,
    sample_static_realization,
    sigma_of_realization,
    static_quenched_average,
)
from .scaling import ScalingFit, exponent, fit_line, loglog_points, site_std_dev, std_dev
from .walk import (
    SiteJumpMap,
    WalkState,
    apply_coin,
    apply_shift,
    hadamard,
    initial_state,
    path_sum_oracle,
    position_distribution,
    run_dynamic,
    run_static,
    step,
)

__version__ = "0.1.0"
