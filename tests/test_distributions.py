"""Tests for the jump-length distribution families and truncation."""

import math
import time
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jumpwalk.cli import parse_dist_spec
from jumpwalk.distributions import (
    _FAMILIES,
    DistributionSpec,
    family_mean_variance,
    family_pmf,
    moments,
    pmf_binomial,
    pmf_geometric,
    pmf_hypergeometric,
    pmf_negative_binomial,
    pmf_poisson,
    sample,
    sample_many,
    truncate,
)

UNIT_MEAN_CONFIGS = [
    ("poisson", {"lambda": 1.0}, 1.0),
    ("binomial", {"n": 2, "p": 0.5}, 0.5),
    ("binomial", {"n": 9, "p": 1 / 9}, 8 / 9),
    ("hypergeom", {"N": 4, "K": 2, "n": 2}, 1 / 3),
    ("negbinom", {"r": 1, "p": 0.5}, 2.0),
    ("negbinom", {"r": 9, "p": 0.1}, 10 / 9),
    ("geometric", {"p": 0.5}, 2.0),
]


class TestPmfValues:
    def test_poisson_unit_mean(self):
        assert pmf_poisson(1.0, 0) == pytest.approx(math.exp(-1.0), abs=1e-15)
        assert pmf_poisson(1.0, 1) == pmf_poisson(1.0, 0)
        assert pmf_poisson(2.0, 0) == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_poisson_domain(self):
        with pytest.raises(ValueError):
            pmf_poisson(1.0, -1)
        with pytest.raises(ValueError):
            pmf_poisson(0.0, 0)
        with pytest.raises(ValueError):
            pmf_poisson(-1.0, 2)

    def test_binomial_values(self):
        assert pmf_binomial(2, 0.5, 1) == pytest.approx(0.5, abs=1e-15)
        assert pmf_binomial(9, 1 / 9, 9) == pytest.approx((1 / 9) ** 9, rel=1e-12)

    @pytest.mark.parametrize("n,p", [(2, 0.5), (9, 1 / 9), (5, 0.3)])
    def test_binomial_no_success(self, n, p):
        assert pmf_binomial(n, p, 0) == pytest.approx((1 - p) ** n, rel=1e-12)

    def test_binomial_domain(self):
        with pytest.raises(ValueError):
            pmf_binomial(2, 0.5, 3)
        with pytest.raises(ValueError):
            pmf_binomial(2, 1.5, 1)

    def test_hypergeometric_values(self):
        # C(2,1)*C(2,1)/C(4,2) and C(2,0)*C(2,2)/C(4,2)
        assert pmf_hypergeometric(4, 2, 2, 1) == pytest.approx(2 / 3, rel=1e-12)
        assert pmf_hypergeometric(4, 2, 2, 0) == pytest.approx(1 / 6, rel=1e-12)
        assert pmf_hypergeometric(6, 6, 3, 3) == 1.0

    def test_hypergeometric_outside_support_is_zero(self):
        # k in [0, n] but beyond min(n, K)
        assert pmf_hypergeometric(10, 2, 5, 4) == 0.0
        # k below max(0, n+K-N)
        assert pmf_hypergeometric(4, 3, 3, 1) == 0.0

    def test_hypergeometric_domain(self):
        with pytest.raises(ValueError):
            pmf_hypergeometric(4, 0, 2, 0)
        with pytest.raises(ValueError):
            pmf_hypergeometric(4, 2, 5, 0)
        with pytest.raises(ValueError):
            pmf_hypergeometric(4, 2, 2, 3)

    @pytest.mark.parametrize("k", range(7))
    def test_negative_binomial_single_failure_is_geometric(self, k):
        assert pmf_negative_binomial(1, 0.5, k) == pytest.approx(
            0.5 ** (k + 1), rel=1e-12
        )
        assert pmf_negative_binomial(1, 0.5, k) == pytest.approx(
            pmf_geometric(0.5, k), rel=1e-12
        )

    def test_negative_binomial_values(self):
        assert pmf_negative_binomial(9, 0.1, 0) == pytest.approx(0.9**9, rel=1e-12)
        assert pmf_negative_binomial(9, 0.1, 1) == pytest.approx(
            9 * 0.9**9 * 0.1, rel=1e-12
        )

    def test_negative_binomial_domain(self):
        with pytest.raises(ValueError):
            pmf_negative_binomial(0, 0.5, 1)
        with pytest.raises(ValueError):
            pmf_negative_binomial(1, 0.5, -1)

    def test_geometric_values(self):
        assert pmf_geometric(0.5, 0) == 0.5
        assert pmf_geometric(0.5, 3) == pytest.approx(1 / 16, rel=1e-12)
        assert pmf_geometric(0.3, 0) == pytest.approx(0.3, abs=1e-15)

    def test_geometric_domain(self):
        with pytest.raises(ValueError):
            pmf_geometric(1.0, 0)
        with pytest.raises(ValueError):
            pmf_geometric(0.5, -2)


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(ValueError):
            DistributionSpec("cauchy", {"x": 1})

    def test_missing_and_extra_params(self):
        with pytest.raises(ValueError):
            DistributionSpec("binomial", {"n": 2})
        with pytest.raises(ValueError):
            DistributionSpec("poisson", {"lambda": 1.0, "p": 0.5})

    def test_tolerance_domain(self):
        with pytest.raises(ValueError):
            DistributionSpec("poisson", {"lambda": 1.0}, tail_tolerance=5.0)
        with pytest.raises(ValueError):
            DistributionSpec("poisson", {"lambda": 1.0}, tail_tolerance=0.0)

    def test_spec_string_is_canonical(self):
        spec = DistributionSpec("binomial", {"n": 2, "p": 0.5})
        assert spec.spec_string() == "binomial:n=2,p=0.5"
        pinned = DistributionSpec("poisson", {"lambda": 1.0}, r_max=5)
        assert pinned.spec_string() == "poisson:lambda=1.0,rmax=5"


class TestTruncation:
    def test_paper_poisson_cut_at_five(self):
        spec = DistributionSpec("poisson", {"lambda": 1.0}, tail_tolerance=1e-3)
        pmf = truncate(spec)
        assert pmf.r_max == 5
        # independent tail computation from the raw pmf
        expected_tail = 1.0 - math.exp(-1.0) * math.fsum(
            1.0 / math.factorial(k) for k in range(6)
        )
        assert pmf.raw_tail_mass == pytest.approx(expected_tail, rel=1e-9)
        assert 1e-4 <= pmf.raw_tail_mass <= 1e-3

    def test_default_tolerance_cuts_at_six(self):
        pmf = truncate(DistributionSpec("poisson", {"lambda": 1.0}))
        assert pmf.r_max == 6

    def test_pinned_r_max_matches_loose_tolerance(self):
        by_tol = truncate(DistributionSpec("poisson", {"lambda": 1.0}, tail_tolerance=1e-3))
        by_pin = truncate(DistributionSpec("poisson", {"lambda": 1.0}, r_max=5))
        assert by_pin.r_max == by_tol.r_max == 5
        np.testing.assert_array_equal(by_pin.probs, by_tol.probs)

    def test_finite_support_keeps_everything(self):
        pmf = truncate(DistributionSpec("binomial", {"n": 2, "p": 0.5}))
        assert pmf.r_max == 2
        assert pmf.raw_tail_mass == 0.0
        np.testing.assert_allclose(pmf.probs, [0.25, 0.5, 0.25], atol=1e-15)

    def test_constant_is_a_point_mass(self):
        pmf = truncate(DistributionSpec("constant", {"j": 1}))
        assert pmf.r_max == 1
        np.testing.assert_array_equal(pmf.probs, [0.0, 1.0])

    @pytest.mark.parametrize("family,params,_", UNIT_MEAN_CONFIGS)
    def test_probs_sum_to_one(self, family, params, _):
        pmf = truncate(DistributionSpec(family, params))
        assert abs(math.fsum(pmf.probs) - 1.0) < 1e-12
        assert (pmf.probs >= 0).all()

    @pytest.mark.parametrize("family,params,_", UNIT_MEAN_CONFIGS)
    def test_kept_mass_plus_tail_is_one(self, family, params, _):
        spec = DistributionSpec(family, params)
        pmf = truncate(spec)
        kept = math.fsum(family_pmf(spec, k) for k in range(pmf.r_max + 1))
        assert abs(kept + pmf.raw_tail_mass - 1.0) < 1e-12

    def test_truncation_is_idempotent_on_finite_support(self):
        spec = DistributionSpec("hypergeom", {"N": 4, "K": 2, "n": 2})
        raw = [family_pmf(spec, k) for k in range(3)]
        pmf = truncate(spec)
        np.testing.assert_allclose(pmf.probs, raw, rtol=1e-15)

    @pytest.mark.parametrize(
        "family,params,r_max,cut",
        [
            ("poisson", {"lambda": 0.5}, None, 5),
            ("poisson", {"lambda": 1.0}, None, 6),
            ("poisson", {"lambda": 1.5}, None, 8),
            ("poisson", {"lambda": 2.0}, None, 9),
            ("poisson", {"lambda": 1.0}, 5, 5),
            ("binomial", {"n": 2, "p": 0.5}, None, 2),
            ("binomial", {"n": 9, "p": 1 / 9}, None, 9),
            ("hypergeom", {"N": 4, "K": 2, "n": 2}, None, 2),
            ("negbinom", {"r": 1, "p": 0.5}, None, 13),
            ("negbinom", {"r": 9, "p": 0.1}, None, 7),
            ("geometric", {"p": 0.5}, None, 13),
            # long tails: the cut search must stay sub-quadratic in R
            ("negbinom", {"r": 40, "p": 0.99}, None, 6735),
            ("negbinom", {"r": 1, "p": 0.999}, None, 9205),
        ],
    )
    def test_cut_points(self, family, params, r_max, cut):
        assert truncate(DistributionSpec(family, params, r_max=r_max)).r_max == cut

    def test_tail_above_pinned_cut_is_reported(self):
        pmf = truncate(DistributionSpec("poisson", {"lambda": 2.0}, r_max=4))
        assert pmf.raw_tail_mass > 0.01
        assert abs(math.fsum(pmf.probs) - 1.0) < 1e-12


class TestMoments:
    def test_binomial_moments(self):
        pmf = truncate(DistributionSpec("binomial", {"n": 2, "p": 0.5}))
        mean, var = moments(pmf)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert var == pytest.approx(0.5, abs=1e-12)

    def test_truncated_geometric_moments(self):
        # tolerance 1e-4 cuts the geometric at 13; the discarded k^2 tail
        # shifts the variance by slightly over 1e-2
        mean, var = moments(truncate(DistributionSpec("geometric", {"p": 0.5})))
        assert abs(mean - 1.0) < 1e-2
        assert abs(var - 2.0) < 2e-2

    def test_constant_moments(self):
        mean, var = moments(truncate(DistributionSpec("constant", {"j": 1})))
        assert (mean, var) == (1.0, 0.0)

    @pytest.mark.parametrize("family,params,variance", UNIT_MEAN_CONFIGS)
    def test_closed_form_unit_mean_variances(self, family, params, variance):
        mean, var = family_mean_variance(DistributionSpec(family, params))
        assert mean == pytest.approx(1.0, rel=1e-12)
        assert var == pytest.approx(variance, rel=1e-12)


class TestSampling:
    def test_constant_always_returns_the_point(self):
        pmf = truncate(DistributionSpec("constant", {"j": 1}))
        for u in (0.0, 0.3, 0.999999):
            assert sample(pmf, u) == 1

    def test_binomial_quantiles(self):
        pmf = truncate(DistributionSpec("binomial", {"n": 2, "p": 0.5}))
        assert sample(pmf, 0.0) == 0
        assert sample(pmf, 0.5) == 1
        assert sample(pmf, 0.99) == 2

    def test_interval_boundaries(self):
        # CDF = (0.25, 0.75, 1.0): a deviate equal to CDF(j) belongs to j+1
        pmf = truncate(DistributionSpec("binomial", {"n": 2, "p": 0.5}))
        assert sample(pmf, 0.25) == 1
        assert sample(pmf, np.nextafter(0.25, 0.0)) == 0
        assert sample(pmf, 0.75) == 2
        assert sample(pmf, np.nextafter(1.0, 0.0)) == 2

    def test_interval_lengths_match_probs(self):
        pmf = truncate(DistributionSpec("poisson", {"lambda": 1.0}, r_max=5))
        edges = np.concatenate(([0.0], pmf.cdf))
        np.testing.assert_allclose(np.diff(edges), pmf.probs, atol=1e-15)

    def test_deviate_domain(self):
        pmf = truncate(DistributionSpec("constant", {"j": 1}))
        with pytest.raises(ValueError):
            sample(pmf, 1.0)
        with pytest.raises(ValueError):
            sample(pmf, -0.1)

    def test_empirical_frequencies(self):
        # four-standard-error goodness-of-fit band per bin
        pmf = truncate(DistributionSpec("poisson", {"lambda": 1.0}, r_max=5))
        rng = np.random.Generator(np.random.PCG64(20240501))
        n = 10**6
        draws = sample_many(pmf, rng.random(n))
        counts = np.bincount(draws, minlength=pmf.r_max + 1)
        for j, p in enumerate(pmf.probs):
            band = 4.0 * math.sqrt(p * (1 - p) / n)
            assert abs(counts[j] / n - p) < band, f"bin {j} off by more than 4 se"


def _direct_masses(family, args, count):
    """The first ``count`` raw masses, each from its own math.comb or lgamma.

    Bounded families stop at the end of their support.
    """
    if family == "poisson":
        (lam,) = args
        return [math.exp(k * math.log(lam) - lam - math.lgamma(k + 1)) for k in range(count)]
    if family == "binomial":
        n, p = args
        return [
            math.exp(math.log(math.comb(n, k)) + k * math.log(p) + (n - k) * math.log1p(-p))
            for k in range(min(count, n + 1))
        ]
    if family == "hypergeom":
        # math.comb(N-K, n-k) is 0 below the support's start n+K-N.
        N, K, n = args
        return [
            math.comb(K, k) * math.comb(N - K, n - k) / math.comb(N, n)
            for k in range(min(count, min(n, K) + 1))
        ]
    if family == "negbinom":
        r, p = args
        return [
            math.exp(math.log(math.comb(k + r - 1, k)) + r * math.log1p(-p) + k * math.log(p))
            for k in range(count)
        ]
    if family == "geometric":
        (p,) = args
        return [p * (1 - p) ** k for k in range(count)]
    (j,) = args
    return [1.0 if k == j else 0.0 for k in range(min(count, j + 1))]


_PROB = st.floats(min_value=1e-6, max_value=1 - 1e-6)
_SIZE = st.integers(min_value=1, max_value=300)
# Bounded supports stay below _STREAM_LENGTH, so the property reaches their end.
_STREAM_LENGTH = 400
_ARGS = {
    "poisson": st.tuples(st.floats(min_value=1e-3, max_value=200.0)),
    "binomial": st.tuples(_SIZE, _PROB),
    "hypergeom": _SIZE.flatmap(
        lambda N: st.tuples(st.just(N), st.integers(1, N), st.integers(1, N))
    ),
    "negbinom": st.tuples(_SIZE, _PROB),
    "geometric": st.tuples(_PROB),
    "constant": st.tuples(st.integers(min_value=0, max_value=300)),
}


def _stream_hex(family, args, count=_STREAM_LENGTH):
    return [m.hex() for m in islice(_FAMILIES[family].masses(*args), count)]


class TestMassStreams:
    @pytest.mark.parametrize("family", _ARGS)
    @settings(deadline=None, max_examples=50)
    @given(data=st.data())
    def test_stream_matches_direct_evaluation_bit_for_bit(self, family, data):
        args = data.draw(_ARGS[family])
        expected = _direct_masses(family, args, _STREAM_LENGTH)
        assert _stream_hex(family, args) == [m.hex() for m in expected]

    @pytest.mark.parametrize(
        "family,args",
        [
            ("hypergeom", (50, 30, 40)),  # support [20, 30]
            ("hypergeom", (9, 9, 4)),  # point mass at 4
            ("hypergeom", (1, 1, 1)),
            ("hypergeom", (2000, 1000, 500)),
            ("binomial", (1, 0.5)),
            ("binomial", (2000, 0.3)),
            ("negbinom", (2000, 0.5)),
            ("constant", (0,)),
        ],
    )
    def test_support_edges_and_large_coefficients(self, family, args):
        expected = _direct_masses(family, args, 2500)
        assert _stream_hex(family, args, 2500) == [m.hex() for m in expected]

    @pytest.mark.parametrize(
        "text,cut",
        [
            ("binomial:n=20000,p=0.5", 20000),
            ("hypergeom:N=20000,K=10000,n=5000", 5000),
            ("negbinom:r=2000,p=0.5", 2242),
        ],
    )
    def test_large_laws_truncate_in_linear_time(self, text, cut):
        start = time.perf_counter()
        pmf = truncate(parse_dist_spec(text))
        assert time.perf_counter() - start < 10.0
        assert pmf.r_max == cut
        assert abs(math.fsum(pmf.probs) - 1.0) < 1e-12


_VALID_PARAMS = {
    "poisson": st.fixed_dictionaries(
        {"lambda": st.floats(min_value=1e-300, max_value=1e300) | st.integers(1, 10**6)}
    ),
    "binomial": st.fixed_dictionaries({"n": st.integers(1, 10**9), "p": _PROB}),
    "hypergeom": st.integers(1, 10**9).flatmap(
        lambda N: st.fixed_dictionaries(
            {"N": st.just(N), "K": st.integers(1, N), "n": st.integers(1, N)}
        )
    ),
    "negbinom": st.fixed_dictionaries({"r": st.integers(1, 10**9), "p": _PROB}),
    "geometric": st.fixed_dictionaries({"p": _PROB}),
    "constant": st.fixed_dictionaries({"j": st.integers(0, 10**9)}),
}


@st.composite
def _specs(draw):
    family = draw(st.sampled_from(sorted(_VALID_PARAMS)))
    tol = draw(st.none() | st.floats(min_value=0, max_value=1, exclude_min=True, exclude_max=True))
    r_max = draw(st.none() | st.integers(0, 10**6))
    kwargs = {} if tol is None else {"tail_tolerance": tol}
    return DistributionSpec(family, draw(_VALID_PARAMS[family]), r_max=r_max, **kwargs)


class TestParameterTypes:
    @settings(deadline=None)
    @given(spec=_specs())
    def test_spec_string_round_trips(self, spec):
        assert parse_dist_spec(spec.spec_string()) == spec

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, True, False])
    @pytest.mark.parametrize(
        "family,params",
        [
            ("poisson", {"lambda": 1.0}),
            ("binomial", {"n": 2, "p": 0.5}),
            ("hypergeom", {"N": 4, "K": 2, "n": 2}),
            ("negbinom", {"r": 9, "p": 0.1}),
            ("geometric", {"p": 0.5}),
            ("constant", {"j": 1}),
        ],
    )
    def test_non_finite_or_bool_values_are_rejected_by_key(self, family, params, bad):
        for key in params:
            with pytest.raises(ValueError, match=f"'{key}'"):
                DistributionSpec(family, {**params, key: bad})

    @pytest.mark.parametrize(
        "family,params,key",
        [
            ("binomial", {"n": 2.5, "p": 0.5}, "n"),
            ("binomial", {"n": 2.0, "p": 0.5}, "n"),
            ("hypergeom", {"N": 4.0, "K": 2, "n": 2}, "N"),
            ("negbinom", {"r": "9", "p": 0.1}, "r"),
            ("constant", {"j": 2.0}, "j"),
        ],
    )
    def test_int_parameters_need_ints(self, family, params, key):
        with pytest.raises(ValueError, match=f"'{key}'"):
            DistributionSpec(family, params)

    @pytest.mark.parametrize("r_max", [2.5, 5.0, True, math.nan])
    def test_r_max_needs_an_int(self, r_max):
        with pytest.raises(ValueError, match="'r_max'"):
            DistributionSpec("poisson", {"lambda": 1.0}, r_max=r_max)

    def test_pmf_functions_check_types(self):
        with pytest.raises(ValueError, match="'n'"):
            pmf_binomial(2.5, 0.5, 1)
        with pytest.raises(ValueError, match="'lambda'"):
            pmf_poisson(math.nan, 1)

    def test_float_parameters_accept_ints(self):
        by_int = truncate(DistributionSpec("poisson", {"lambda": 2}))
        by_float = truncate(DistributionSpec("poisson", {"lambda": 2.0}))
        assert by_int.r_max == by_float.r_max
        np.testing.assert_array_equal(by_int.probs, by_float.probs)

    def test_hypergeometric_point_mass_at_one(self):
        spec = DistributionSpec("hypergeom", {"N": 1, "K": 1, "n": 1})
        assert family_mean_variance(spec) == (1.0, 0.0)
        np.testing.assert_array_equal(truncate(spec).probs, [0.0, 1.0])
