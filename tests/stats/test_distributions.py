"""Tests for repro.stats.distributions."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.stats.distributions import (
    Discrete,
    Erlang,
    Exponential,
    Gamma,
    HyperErlang,
    LogNormal,
    LogUniform,
    Mixture,
    TwoStageLogUniform,
)

ALL_DISTRIBUTIONS = [
    Exponential(0.5),
    LogUniform(1.0, 1000.0),
    TwoStageLogUniform(1.0, 50.0, 5000.0, 0.6),
    LogNormal(2.0, 1.5),
    Gamma(2.0, 3.0),
    # Shape < 1: gammainc/gammaincinv in the small-shape regime, pdf pole at 0.
    Gamma(0.5, 2000.0),
    # Built by the Brent port from Table 1's CTC interarrival (median, interval).
    LogNormal.from_median_interval(64.0, 1472.0),
    Erlang(3, 0.25),
    Mixture([0.7, 0.3], [Exponential(r) for r in [1.0, 0.01]]),
    # Generic Brent ppf over phases four decades apart.
    Mixture([0.5, 0.3, 0.2], [Exponential(r) for r in [2.0, 0.1, 0.001]]),
    HyperErlang([0.4, 0.6], 2, [0.5, 0.005]),
    # Bounded support with a zero-density gap: the generic ppf crosses a
    # flat stretch of the CDF between the two components.
    Mixture([0.3, 0.7], [LogUniform(1.0, 10.0), LogUniform(100.0, 1000.0)]),
    Discrete([1, 2, 4, 8, 16], [0.3, 0.25, 0.2, 0.15, 0.1]),
]

_IDS = [repr(d) for d in ALL_DISTRIBUTIONS]


@pytest.mark.parametrize("dist", ALL_DISTRIBUTIONS, ids=_IDS)
class TestDistributionContract:
    """Invariants every distribution in the library must satisfy."""

    def test_cdf_monotone_and_bounded(self, dist):
        lo, hi = dist.support()
        xs = np.linspace(max(lo, 1e-6), min(hi, 1e6), 200)
        cdf = np.asarray(dist.cdf(xs), dtype=float)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= -1e-12) & (cdf <= 1 + 1e-12))

    def test_ppf_inverts_cdf(self, dist):
        qs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        xs = np.asarray(dist.ppf(qs), dtype=float)
        back = np.asarray(dist.cdf(xs), dtype=float)
        # Generalized inverse: cdf(ppf(q)) >= q, tight for continuous dists.
        assert np.all(back >= qs - 1e-6)

    def test_ppf_monotone(self, dist):
        qs = np.linspace(0.01, 0.99, 50)
        xs = np.asarray(dist.ppf(qs), dtype=float)
        assert np.all(np.diff(xs) >= -1e-9)

    def test_sample_within_support(self, dist, rng):
        lo, hi = dist.support()
        x = dist.sample(500, rng)
        assert np.all(x >= lo - 1e-9)
        assert np.all(x <= hi + 1e-9)

    def test_sample_mean_close_to_analytic(self, dist, rng):
        x = dist.sample(40000, rng)
        mean = dist.mean()
        tol = 6.0 * dist.std() / math.sqrt(len(x))
        assert abs(x.mean() - mean) < max(tol, 0.02 * abs(mean) + 1e-9)

    def test_median_is_half_quantile(self, dist):
        med = dist.median()
        assert float(dist.cdf(med)) >= 0.5 - 1e-6

    def test_interval_non_negative_and_monotone_in_coverage(self, dist):
        i50 = dist.interval(0.5)
        i90 = dist.interval(0.9)
        assert 0 <= i50 <= i90 + 1e-9

    def test_var_non_negative(self, dist):
        assert dist.var() >= 0

    def test_sampling_deterministic_under_seed(self, dist):
        assert np.array_equal(dist.sample(10, seed=5), dist.sample(10, seed=5))

    def test_ppf_rejects_bad_quantiles(self, dist):
        with pytest.raises(ValueError):
            dist.ppf(1.5)

    def test_pdf_integrates_to_cdf(self, dist):
        a, b = (float(v) for v in dist.ppf([0.2, 0.8]))
        if isinstance(dist, Discrete):
            # pdf is the probability mass at each support point.
            inside = dist.values[(dist.values > a) & (dist.values <= b)]
            mass = float(np.sum(dist.pdf(inside)))
        else:
            x = np.geomspace(a, b, 20001)
            mass = float(np.trapezoid(dist.pdf(x), x))
        assert mass == pytest.approx(float(dist.cdf(b) - dist.cdf(a)), rel=1e-3)

    def test_raw_moments_match_mean_and_var(self, dist):
        mean = dist.mean()
        assert dist.moment(1) == pytest.approx(mean, rel=1e-9)
        assert dist.moment(2) == pytest.approx(dist.var() + mean * mean, rel=1e-9)

    def test_sample_has_requested_length(self, dist):
        for n in (0, 3):
            x = dist.sample(n, seed=1)
            assert x.shape == (n,)
            assert x.dtype == np.float64


class TestExponential:
    def test_moments(self):
        d = Exponential(2.0)
        assert d.mean() == pytest.approx(0.5)
        assert d.var() == pytest.approx(0.25)
        assert d.moment(3) == pytest.approx(6 / 8.0)

    def test_median_formula(self):
        d = Exponential(1.0)
        assert d.median() == pytest.approx(math.log(2))

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            Exponential(0.0)


class TestLogUniform:
    def test_log_is_uniform(self, rng):
        d = LogUniform(1.0, 100.0)
        x = np.log(d.sample(20000, rng))
        # Uniform on [0, log 100]: mean at the midpoint.
        assert x.mean() == pytest.approx(math.log(100) / 2, rel=0.05)

    def test_median_geometric_mean(self):
        d = LogUniform(1.0, 100.0)
        assert d.median() == pytest.approx(10.0)

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            LogUniform(10.0, 1.0)


class TestTwoStageLogUniform:
    def test_mass_split(self, rng):
        d = TwoStageLogUniform(1.0, 10.0, 1000.0, p_low=0.3)
        x = d.sample(20000, rng)
        assert np.mean(x <= 10.0) == pytest.approx(0.3, abs=0.02)

    def test_cdf_continuous_at_knee(self):
        d = TwoStageLogUniform(1.0, 10.0, 1000.0, p_low=0.3)
        eps = 1e-9
        assert float(d.cdf(10.0 - eps)) == pytest.approx(float(d.cdf(10.0 + eps)), abs=1e-6)

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            TwoStageLogUniform(10.0, 5.0, 1000.0, 0.5)


class TestLogNormal:
    @given(
        median=st.floats(min_value=0.5, max_value=5000.0),
        ratio=st.floats(min_value=1.2, max_value=500.0),
    )
    def test_from_median_interval_roundtrip(self, median, ratio):
        interval = median * ratio
        d = LogNormal.from_median_interval(median, interval)
        assert d.median() == pytest.approx(median, rel=1e-6)
        assert d.interval(0.9) == pytest.approx(interval, rel=1e-6)

    def test_from_median_interval_alt_coverage(self):
        d = LogNormal.from_median_interval(100.0, 400.0, coverage=0.5)
        assert d.interval(0.5) == pytest.approx(400.0, rel=1e-9)

    def test_moment_formula(self):
        d = LogNormal(1.0, 0.5)
        assert d.moment(2) == pytest.approx(math.exp(2 + 0.5))


class TestGammaFamily:
    def test_erlang_is_integer_gamma(self):
        e = Erlang(3, 2.0)
        g = Gamma(3.0, 0.5)
        assert e.mean() == pytest.approx(g.mean())
        assert float(e.cdf(2.0)) == pytest.approx(float(g.cdf(2.0)))

    def test_erlang_rejects_non_integer(self):
        with pytest.raises(ValueError):
            Erlang(2.5, 1.0)

    def test_gamma_moment(self):
        g = Gamma(2.0, 3.0)
        # E[X^2] = var + mean^2 = 18 + 36.
        assert g.moment(2) == pytest.approx(54.0)


class TestMixtures:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Mixture([0.5, 0.2], [Exponential(1.0), Exponential(2.0)])

    def test_negative_prob_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Mixture([1.5, -0.5], [Exponential(1.0), Exponential(2.0)])

    def test_mixture_mean_is_weighted(self):
        m = Mixture([0.25, 0.75], [Exponential(r) for r in [1.0, 0.1]])
        assert m.mean() == pytest.approx(0.25 * 1.0 + 0.75 * 10.0)

    def test_hyper_exponential_cv_above_one(self, rng):
        m = Mixture([0.5, 0.5], [Exponential(r) for r in [10.0, 0.1]])
        assert m.std() / m.mean() > 1.0

    def test_hyper_erlang_moments(self):
        he = HyperErlang([0.3, 0.7], 2, [1.0, 0.1])
        # Erlang(2, r): E[X] = 2/r, E[X^2] = 6/r^2.
        assert he.mean() == pytest.approx(0.3 * 2.0 + 0.7 * 20.0)
        assert he.moment(2) == pytest.approx(0.3 * 6.0 + 0.7 * 600.0)

class TestDiscrete:
    def test_ppf_steps(self):
        d = Discrete([1, 2, 4], [0.5, 0.25, 0.25])
        assert float(d.ppf(0.4)) == 1.0
        assert float(d.ppf(0.6)) == 2.0
        assert float(d.ppf(0.99)) == 4.0

    def test_cdf_step_values(self):
        d = Discrete([1, 2, 4], [0.5, 0.25, 0.25])
        assert float(d.cdf(1.0)) == pytest.approx(0.5)
        assert float(d.cdf(3.9)) == pytest.approx(0.75)

    def test_duplicate_support_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Discrete([1, 1, 2], [0.3, 0.3, 0.4])

    def test_probs_normalized(self):
        d = Discrete([1, 2], [2.0, 6.0])
        assert d.probs[0] == pytest.approx(0.25)

    def test_mean_var(self):
        d = Discrete([0, 10], [0.5, 0.5])
        assert d.mean() == pytest.approx(5.0)
        assert d.var() == pytest.approx(25.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1, max_size=8, unique=True))
    def test_ppf_hits_support(self, values):
        d = Discrete(values, np.ones(len(values)))
        qs = np.linspace(0.01, 0.99, 23)
        out = np.asarray(d.ppf(qs))
        assert set(np.unique(out)) <= set(np.asarray(values, dtype=float))
