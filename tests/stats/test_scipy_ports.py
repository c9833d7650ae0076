"""The scipy.special ports in repro.stats.distributions, pinned to scipy.

``LogNormal`` and ``Gamma`` evaluate the ``scipy.special`` expressions
that ``scipy.stats.lognorm`` and ``scipy.stats.gamma`` evaluate, and
``_brentq`` is a port of ``scipy.optimize.brentq``.  ``scipy.stats`` and
``scipy.optimize`` are imported here, as oracles, and by no module in
``src/``.  Every comparison is exact: same bits, same NaNs, same return
types.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import optimize, stats

from repro.archive.targets import PRODUCTION_NAMES, TABLE1, TABLE2, TABLE2_NAMES
from repro.stats import distributions
from repro.stats.distributions import (
    _BRENT_MAXITER,
    _BRENT_RTOL,
    _BRENT_XTOL,
    Gamma,
    Exponential,
    HyperErlang,
    LogNormal,
    Mixture,
    _brentq,
)

#: Quantiles at and next to the support ends, plus NaN.
EDGE_Q = [0.0, 0.5, 1.0, math.nan, 5e-324, 1e-300, 1e-12, 1 - 2**-53]
#: Points below, at and beyond the support ends, plus NaN and subnormals.
EDGE_X = [-1.0, -0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e-300, 1e300]


def lognormal(mu, sigma):
    return LogNormal(mu, sigma), stats.lognorm(sigma, scale=math.exp(mu))


def gamma(shape, scale):
    return Gamma(shape, scale), stats.gamma(shape, scale=scale)


FAMILIES = {
    "lognormal": (lognormal, st.floats(-10.0, 12.0), st.floats(0.01, 6.0)),
    "gamma": (gamma, st.floats(0.02, 200.0), st.floats(1e-3, 1e6)),
}


def _family_params(name):
    make, first, second = FAMILIES[name]
    return st.tuples(first, second).map(lambda p: make(*p))


def assert_identical(mine, ref):
    assert type(mine) is type(ref)
    if isinstance(ref, np.ndarray):
        assert mine.dtype == ref.dtype and mine.shape == ref.shape
    assert np.array_equal(mine, ref, equal_nan=True), (mine, ref)


def assert_same_everywhere(mine, ref, values):
    """*mine* and *ref* agree on the array, on a 2-D view and per scalar."""
    arr = np.array(values, dtype=float)
    assert_identical(mine(arr), ref(arr))
    if arr.size % 2 == 0:
        assert_identical(mine(arr.reshape(2, -1)), ref(arr.reshape(2, -1)))
    for value in values:
        assert_identical(mine(value), ref(value))


@pytest.mark.parametrize("family", sorted(FAMILIES))
class TestDistributionPorts:
    @given(data=st.data())
    def test_ppf_is_scipys(self, family, data):
        mine, ref = data.draw(_family_params(family))
        qs = data.draw(st.lists(st.floats(0.0, 1.0), max_size=30))
        assert_same_everywhere(mine.ppf, ref.ppf, EDGE_Q + qs)

    @given(data=st.data())
    def test_cdf_is_scipys(self, family, data):
        mine, ref = data.draw(_family_params(family))
        xs = data.draw(st.lists(st.floats(), max_size=30))
        bulk = list(ref.ppf(np.linspace(0.005, 0.995, 24)))
        with np.errstate(over="ignore"):  # x / scale overflows alike on both sides
            assert_same_everywhere(mine.cdf, ref.cdf, EDGE_X + xs + bulk)

    @given(data=st.data())
    def test_pdf_is_scipys(self, family, data):
        mine, ref = data.draw(_family_params(family))
        xs = data.draw(st.lists(st.floats(), max_size=30))
        bulk = list(ref.ppf(np.linspace(0.005, 0.995, 24)))
        with np.errstate(all="ignore"):  # both sides warn alike at 0, inf and on overflow
            assert_same_everywhere(mine.pdf, ref.pdf, EDGE_X + xs + bulk)

    def test_seeded_bulk_matches_scipy(self, family):
        make, _, _ = FAMILIES[family]
        rng = np.random.default_rng(21)
        lo, hi = {"lognormal": ((-10, 0.01), (12, 6)), "gamma": ((0.02, 1e-3), (200, 1e6))}[family]
        for _ in range(300):
            mine, ref = make(*rng.uniform(lo, hi))
            qs = rng.random(200)
            xs = ref.ppf(qs) * rng.lognormal(0.0, 0.5, 200)
            assert np.array_equal(mine.ppf(qs), ref.ppf(qs))
            assert np.array_equal(mine.cdf(xs), ref.cdf(xs))
            with np.errstate(all="ignore"):
                assert np.array_equal(mine.pdf(xs), ref.pdf(xs))


def lognormal_sigma_oracle(median, interval, coverage=0.9):
    """sigma as ``from_median_interval`` solved it with scipy's brentq."""
    mu = math.log(median)
    z = float(stats.norm.ppf(0.5 + coverage / 2.0))

    def width(sigma):
        return math.exp(mu + z * sigma) - math.exp(mu - z * sigma)

    lo, hi = 1e-9, 1.0
    while width(hi) < interval:
        hi *= 2.0
    return optimize.brentq(lambda s: width(s) - interval, lo, hi, xtol=1e-12)


def _published_pairs():
    rows = [TABLE1[n] for n in PRODUCTION_NAMES] + [TABLE2[n] for n in TABLE2_NAMES]
    for row in rows:
        for med, ival in (("Rm", "Ri"), ("Im", "Ii"), ("Cm", "Ci"), ("Pm", "Pi"), ("Nm", "Ni")):
            if row.get(med) and row.get(ival):
                yield float(row[med]), float(row[ival])


class TestFromMedianInterval:
    def test_every_published_pair_solves_to_the_same_sigma(self):
        pairs = list(_published_pairs())
        assert len(pairs) >= 70
        for median, interval in pairs:
            sigma = LogNormal.from_median_interval(median, interval).sigma
            assert sigma == lognormal_sigma_oracle(median, interval), (median, interval)

    @given(
        median=st.floats(1e-3, 1e7),
        ratio=st.floats(1e-3, 1e4),
        coverage=st.one_of(st.just(0.9), st.floats(0.05, 0.99)),
    )
    def test_random_draws_solve_to_the_same_sigma(self, median, ratio, coverage):
        interval = median * ratio
        sigma = LogNormal.from_median_interval(median, interval, coverage).sigma
        assert sigma == lognormal_sigma_oracle(median, interval, coverage)

    def test_seeded_draws_solve_to_the_same_sigma(self):
        rng = np.random.default_rng(7)
        for _ in range(2000):
            median = float(np.exp(rng.uniform(-3.0, 12.0)))
            interval = median * float(np.exp(rng.uniform(-5.0, 8.0)))
            sigma = LogNormal.from_median_interval(median, interval).sigma
            assert sigma == lognormal_sigma_oracle(median, interval)


def _recording(f):
    """*f* plus the list of points it was evaluated at."""
    seen = []

    def g(x):
        seen.append(x)
        return f(x)

    return g, seen


def _problem(kind, c, lo, hi):
    """A bracketed root problem: the function and its bracket."""
    if kind == "cubic":
        return (lambda x: x**3 - c), lo, hi + c
    if kind == "exp":
        return (lambda x: math.expm1(x) - c), lo - 1.0, hi + math.log1p(c)
    if kind == "cdf":  # the generic ppf's own problem
        dist = HyperErlang([0.4, 0.6], 2, [0.5, 0.005])
        q = min(c / (c + 1.0), 1 - 1e-9)
        return (lambda x: float(dist.cdf(x)) - q), 0.0, 1e6
    dist = Mixture([0.7, 0.3], [Exponential(r) for r in [1.0, 0.01]])
    q = min(c / (c + 1.0), 1 - 1e-9)
    return (lambda x: float(dist.cdf(x)) - q), 0.0, 1e5


class TestBrentPort:
    @pytest.mark.parametrize("rtol", [_BRENT_RTOL, 1e-12])
    @given(
        kind=st.sampled_from(["cubic", "exp", "cdf", "hyperexp"]),
        c=st.floats(1e-6, 1e3),
        lo=st.floats(-5.0, 0.0),
        hi=st.floats(1.0, 50.0),
        flip=st.booleans(),
    )
    def test_same_steps_and_root_as_scipy(self, rtol, kind, c, lo, hi, flip):
        f, a, b = _problem(kind, c, lo, hi)
        if flip:
            a, b = b, a
        mine_f, mine_seen = _recording(f)
        ref_f, ref_seen = _recording(f)
        root = _brentq(mine_f, a, b, rtol=rtol)
        ref = optimize.brentq(ref_f, a, b, xtol=_BRENT_XTOL, rtol=rtol)
        assert type(root) is type(ref) is float
        assert root == ref
        assert mine_seen == ref_seen

    def test_defaults_are_scipys(self):
        params = inspect.signature(optimize.brentq).parameters
        assert params["rtol"].default == _BRENT_RTOL
        assert params["maxiter"].default == _BRENT_MAXITER

    def test_root_at_a_bracket_end(self):
        for a, b in ((0.0, 1.0), (-1.0, 0.0)):
            assert _brentq(lambda x: x, a, b) == optimize.brentq(lambda x: x, a, b)

    def _raises_alike(self, f, a, b, maxiter=_BRENT_MAXITER):
        """The port raises the exception type scipy raises; the text may differ by release."""
        with pytest.raises(Exception) as ref:
            optimize.brentq(f, a, b, xtol=_BRENT_XTOL, maxiter=maxiter)
        with pytest.raises(ref.type):
            _brentq(f, a, b)

    def test_raises_on_same_sign_ends(self):
        self._raises_alike(lambda x: x * x + 1.0, 0.0, 1.0)

    def test_raises_on_nan(self):
        self._raises_alike(lambda x: math.nan, 0.0, 1.0)
        # NaN at the first interior step (x = 0.5), not at a bracket end.
        self._raises_alike(lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0)

    @pytest.mark.parametrize("maxiter", [0, 1, 3])
    def test_raises_when_not_converged(self, monkeypatch, maxiter):
        monkeypatch.setattr(distributions, "_BRENT_MAXITER", maxiter)
        self._raises_alike(lambda x: math.exp(x) - 5.0, 0.0, 10.0, maxiter=maxiter)
