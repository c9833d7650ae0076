"""Probability distributions used by the workload models and synthesizer.

Every distribution exposes the same interface (:class:`Distribution`):
vectorized ``sample`` / ``pdf`` / ``cdf`` / ``ppf`` plus analytic ``mean`` and
``var`` where they exist.  ``ppf`` is what makes the fractional-Gaussian-noise
copula in :mod:`repro.archive.synthesize` possible: a standard-normal series
with long-range dependence is pushed through ``ppf(Phi(z))`` to obtain a
series with the *target marginal* and (approximately) the target Hurst
parameter.

Mixtures (such as the hyper-Erlang) invert their CDF
numerically with bracketed Brent root finding; the bracket is grown
geometrically from the component means so inversion is robust for the heavy
tails workload modeling requires.

Compute here needs :mod:`scipy.special` alone.  ``LogNormal`` and ``Gamma``
evaluate the same ``scipy.special`` expressions, with the same support
handling, that ``scipy.stats.lognorm`` and ``scipy.stats.gamma`` do, and
:func:`_brentq` is a step-for-step port of scipy's ``brentq``, so every
value is bit-identical to the ``scipy.stats``/``scipy.optimize`` calls the
tests use as oracles, without the ~1 s it takes to import those packages.

References
----------
* Jann et al., *Modeling of Workload in MPPs*, JSSPP 1997 (hyper-Erlang of
  common order).
* Downey, *A Parallel Workload Model and Its Implications for Processor
  Allocation*, HPDC 1997 (log-uniform).
* Brent, *Algorithms for Minimization Without Derivatives*, 1973, ch. 4.
"""

from __future__ import annotations

import abc
import math
from typing import Callable, Sequence, Tuple

import numpy as np
from scipy import special

from repro.util.rng import SeedLike, as_generator
from repro.util.validation import check_positive, check_probability

__all__ = [
    "Distribution",
    "Exponential",
    "LogUniform",
    "TwoStageLogUniform",
    "LogNormal",
    "Gamma",
    "Erlang",
    "HyperErlang",
    "Mixture",
    "Discrete",
]

_PPF_EPS = 1e-12

#: scipy's ``brentq`` defaults: the smallest ``rtol`` it accepts, and
#: its iteration cap.
_BRENT_RTOL = 4 * float(np.finfo(float).eps)
_BRENT_MAXITER = 100
#: The absolute tolerance of every root this module solves for.
_BRENT_XTOL = 1e-12

_SQRT_2PI = math.sqrt(2 * math.pi)


def _check_quantiles(q) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    if np.any((q < 0) | (q > 1)):
        raise ValueError("quantiles must lie in [0, 1]")
    return q


def _brentq(f: Callable[[float], float], xa: float, xb: float, rtol: float = _BRENT_RTOL) -> float:
    """A root of *f* in ``[xa, xb]`` by Brent's method, to ``_BRENT_XTOL``.

    A step-for-step port of scipy's ``brentq.c`` (inverse quadratic
    interpolation guarded by bisection), so it takes the same steps and
    returns the same float as ``scipy.optimize.brentq`` with the same
    tolerances.  Like it, it raises ``ValueError`` on a NaN function value
    and on a bracket whose ends have the same sign, and ``RuntimeError``
    after ``_BRENT_MAXITER`` iterations without convergence.
    """

    def call(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return fx

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _place(out: np.ndarray, mask: np.ndarray, inner, values: np.ndarray):
    """*out* with ``inner(values[mask])`` written where *mask* holds.

    This is scipy's ``rv_continuous`` pattern: a closed form runs only on
    its domain, and the caller fills the support ends into *out*.  A 0-d
    result comes back as a numpy scalar, as from ``scipy.stats``.
    """
    out[mask] = inner(values[mask])
    return out[()]


def _positive_cdf(x, scale: float, inner):
    """A CDF on ``(0, inf)``: 0 at or below 0, 1 at ``inf``, NaN for NaN."""
    x = np.asarray(x, dtype=float) / scale
    out = np.where(np.isnan(x), np.nan, np.where(x == math.inf, 1.0, 0.0))
    return _place(out, (x > 0) & (x < math.inf), inner, x)


def _positive_pdf(x, scale: float, logpdf):
    """A density on ``[0, inf]``: ``exp(logpdf(x / scale)) / scale``, 0 below, NaN for NaN."""
    x = np.asarray(x, dtype=float) / scale
    out = np.where(np.isnan(x), np.nan, 0.0)
    return _place(out, x >= 0, lambda v: np.exp(logpdf(v)) / scale, x)


def _lognorm_logpdf(x: np.ndarray, s: float) -> np.ndarray:
    """scipy's standard log-normal log-density, ``-inf`` at 0."""
    out = np.full(x.shape, -math.inf)
    return _place(
        out, x != 0, lambda v: -np.log(v) ** 2 / (2 * (s * s)) - np.log(s * v * _SQRT_2PI), x
    )


def _positive_ppf(q, scale: float, inner):
    """A quantile function onto ``[0, inf]``: 0 at q = 0, ``inf`` at q = 1."""
    q = _check_quantiles(q)
    out = np.where(q == 0, 0.0, np.where(q == 1, math.inf, np.nan))
    return _place(out, (q > 0) & (q < 1), lambda v: inner(v) * scale, q)


class Distribution(abc.ABC):
    """Abstract continuous (or discrete, see :class:`Discrete`) distribution."""

    @abc.abstractmethod
    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        """Draw ``n`` i.i.d. samples."""

    @abc.abstractmethod
    def cdf(self, x) -> np.ndarray:
        """Cumulative distribution function, vectorized."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Analytic mean."""

    @abc.abstractmethod
    def var(self) -> float:
        """Analytic variance."""

    def std(self) -> float:
        """Analytic standard deviation."""
        return math.sqrt(self.var())

    def pdf(self, x) -> np.ndarray:  # pragma: no cover - overridden where needed
        """Probability density; default differentiates the CDF numerically."""
        x = np.asarray(x, dtype=float)
        h = np.maximum(np.abs(x), 1.0) * 1e-6
        return (self.cdf(x + h) - self.cdf(x - h)) / (2.0 * h)

    # -- quantiles -------------------------------------------------------
    def support(self) -> Tuple[float, float]:
        """Lower/upper bound of the support (used to bracket ``ppf``)."""
        return (0.0, math.inf)

    def ppf(self, q) -> np.ndarray:
        """Quantile function; generic implementation inverts ``cdf``."""
        q = _check_quantiles(q)
        scalar = q.ndim == 0
        qs = np.atleast_1d(q)
        out = np.empty_like(qs)
        for i, qi in enumerate(qs):
            out[i] = self._ppf_scalar(float(qi))
        return float(out[0]) if scalar else out

    def _ppf_scalar(self, q: float) -> float:
        lo, hi = self.support()
        if q <= _PPF_EPS:
            return lo
        if q >= 1.0 - _PPF_EPS:
            q = 1.0 - _PPF_EPS
        # Grow a finite bracket if the support is unbounded above.
        if not math.isfinite(hi):
            hi = max(self.mean(), lo + 1.0, 1.0)
            while self.cdf(hi) < q:
                hi *= 2.0
                if hi > 1e300:  # pragma: no cover - defensive
                    raise RuntimeError("ppf bracket exceeded float range")
        f_lo = self.cdf(lo) - q
        if f_lo >= 0:
            return float(lo)
        return float(_brentq(lambda x: float(self.cdf(x)) - q, lo, hi, rtol=1e-12))

    def median(self) -> float:
        """The 0.5 quantile."""
        return float(self.ppf(0.5))

    def interval(self, coverage: float = 0.9) -> float:
        """Width of the central *coverage* interval (the paper's '90% interval')."""
        check_probability(coverage, "coverage")
        tail = (1.0 - coverage) / 2.0
        return float(self.ppf(1.0 - tail) - self.ppf(tail))

    def moment(self, k: int) -> float:
        """k-th raw moment; default uses mean/var for k <= 2."""
        if k == 1:
            return self.mean()
        if k == 2:
            m = self.mean()
            return self.var() + m * m
        raise NotImplementedError(f"moment({k}) not implemented for {type(self).__name__}")


# ---------------------------------------------------------------------------
# Elementary distributions
# ---------------------------------------------------------------------------


class Exponential(Distribution):
    """Exponential distribution with given *rate* (lambda)."""

    def __init__(self, rate: float):
        self.rate = check_positive(rate, "rate")

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        return as_generator(seed).exponential(1.0 / self.rate, size=n)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return np.where(x < 0, 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)))

    def ppf(self, q) -> np.ndarray:
        q = _check_quantiles(q)
        return -np.log1p(-np.clip(q, 0.0, 1.0 - _PPF_EPS)) / self.rate

    def mean(self) -> float:
        return 1.0 / self.rate

    def var(self) -> float:
        return 1.0 / self.rate**2

    def moment(self, k: int) -> float:
        return math.factorial(k) / self.rate**k

    def __repr__(self) -> str:
        return f"Exponential(rate={self.rate:g})"


class LogUniform(Distribution):
    """Distribution whose logarithm is uniform on ``[log(lo), log(hi)]``.

    The base of the logarithm does not matter: a log in any base is a
    fixed multiple of the natural one, so the law is the same.  This is
    the building block of Downey's model: the observed cumulative
    distribution of total service time is approximately linear in log space.
    """

    def __init__(self, lo: float, hi: float):
        self.lo = check_positive(lo, "lo")
        self.hi = check_positive(hi, "hi")
        if not hi > lo:
            raise ValueError(f"hi must exceed lo, got [{lo}, {hi}]")
        self._log_lo = math.log(lo)
        self._log_hi = math.log(hi)

    def support(self) -> Tuple[float, float]:
        return (self.lo, self.hi)

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        u = as_generator(seed).uniform(self._log_lo, self._log_hi, size=n)
        return np.exp(u)

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        inside = (x >= self.lo) & (x <= self.hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            dens = 1.0 / (np.maximum(x, _PPF_EPS) * (self._log_hi - self._log_lo))
        return np.where(inside, dens, 0.0)

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            val = (np.log(np.maximum(x, _PPF_EPS)) - self._log_lo) / (
                self._log_hi - self._log_lo
            )
        return np.clip(val, 0.0, 1.0)

    def ppf(self, q) -> np.ndarray:
        q = _check_quantiles(q)
        return np.exp(self._log_lo + q * (self._log_hi - self._log_lo))

    def mean(self) -> float:
        return (self.hi - self.lo) / (self._log_hi - self._log_lo)

    def var(self) -> float:
        m2 = (self.hi**2 - self.lo**2) / (2.0 * (self._log_hi - self._log_lo))
        m = self.mean()
        return m2 - m * m

    def __repr__(self) -> str:
        return f"LogUniform({self.lo:g}, {self.hi:g})"


class TwoStageLogUniform(Distribution):
    """Piecewise log-uniform with a breakpoint, as in Downey's refined model.

    With probability *p_low* the value is log-uniform on ``[lo, mid]``, else
    log-uniform on ``[mid, hi]``.  The CDF is continuous and piecewise linear
    in log space with a slope change at *mid*.
    """

    def __init__(self, lo: float, mid: float, hi: float, p_low: float):
        if not (0 < lo < mid < hi):
            raise ValueError(f"need 0 < lo < mid < hi, got {lo}, {mid}, {hi}")
        self.p_low = check_probability(p_low, "p_low")
        self.low = LogUniform(lo, mid)
        self.high = LogUniform(mid, hi)

    def support(self) -> Tuple[float, float]:
        return (self.low.lo, self.high.hi)

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        pick_low = rng.random(n) < self.p_low
        out = np.empty(n)
        n_low = int(pick_low.sum())
        out[pick_low] = self.low.sample(n_low, rng)
        out[~pick_low] = self.high.sample(n - n_low, rng)
        return out

    def pdf(self, x) -> np.ndarray:
        return self.p_low * self.low.pdf(x) + (1 - self.p_low) * self.high.pdf(x)

    def cdf(self, x) -> np.ndarray:
        return self.p_low * self.low.cdf(x) + (1 - self.p_low) * self.high.cdf(x)

    def mean(self) -> float:
        return self.p_low * self.low.mean() + (1 - self.p_low) * self.high.mean()

    def var(self) -> float:
        m2 = self.p_low * self.low.moment(2) + (1 - self.p_low) * self.high.moment(2)
        m = self.mean()
        return m2 - m * m

    def __repr__(self) -> str:
        return (
            f"TwoStageLogUniform({self.low.lo:g}, {self.low.hi:g}, "
            f"{self.high.hi:g}, p_low={self.p_low:g})"
        )


class LogNormal(Distribution):
    """Log-normal parameterized by the mean/std of ``log(X)``.

    The workhorse of the log synthesizer: ``median = exp(mu)`` and the 90%
    interval is a monotone function of ``sigma`` alone, so any published
    (median, interval) pair from Table 1 can be matched exactly
    (see :func:`LogNormal.from_median_interval`).
    """

    def __init__(self, mu: float, sigma: float):
        self.mu = float(mu)
        self.sigma = check_positive(sigma, "sigma")

    @classmethod
    def from_median_interval(
        cls, median: float, interval: float, coverage: float = 0.9
    ) -> "LogNormal":
        """Construct the unique log-normal with the given median and central
        *coverage*-interval width."""
        check_positive(median, "median")
        check_positive(interval, "interval")
        mu = math.log(median)
        z = float(special.ndtri(0.5 + coverage / 2.0))

        def width(sigma: float) -> float:
            return math.exp(mu + z * sigma) - math.exp(mu - z * sigma)

        lo, hi = 1e-9, 1.0
        while width(hi) < interval:
            hi *= 2.0
            if hi > 1e4:  # pragma: no cover - defensive
                raise RuntimeError("interval unreachable for this median")
        sigma = _brentq(lambda s: width(s) - interval, lo, hi)
        return cls(mu, sigma)

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        return as_generator(seed).lognormal(self.mu, self.sigma, size=n)

    def pdf(self, x) -> np.ndarray:
        return _positive_pdf(x, math.exp(self.mu), lambda v: _lognorm_logpdf(v, self.sigma))

    def cdf(self, x) -> np.ndarray:
        return _positive_cdf(x, math.exp(self.mu), lambda v: special.ndtr(np.log(v) / self.sigma))

    def ppf(self, q) -> np.ndarray:
        return _positive_ppf(q, math.exp(self.mu), lambda v: np.exp(self.sigma * special.ndtri(v)))

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def var(self) -> float:
        return (math.exp(self.sigma**2) - 1.0) * math.exp(2 * self.mu + self.sigma**2)

    def moment(self, k: int) -> float:
        return math.exp(k * self.mu + k * k * self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu:g}, sigma={self.sigma:g})"


class Gamma(Distribution):
    """Gamma distribution with *shape* (alpha) and *scale* (beta)."""

    def __init__(self, shape: float, scale: float):
        self.shape = check_positive(shape, "shape")
        self.scale = check_positive(scale, "scale")

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        return as_generator(seed).gamma(self.shape, self.scale, size=n)

    def pdf(self, x) -> np.ndarray:
        a = self.shape
        return _positive_pdf(
            x, self.scale, lambda v: special.xlogy(a - 1.0, v) - v - special.gammaln(a)
        )

    def cdf(self, x) -> np.ndarray:
        return _positive_cdf(x, self.scale, lambda v: special.gammainc(self.shape, v))

    def ppf(self, q) -> np.ndarray:
        return _positive_ppf(q, self.scale, lambda v: special.gammaincinv(self.shape, v))

    def mean(self) -> float:
        return self.shape * self.scale

    def var(self) -> float:
        return self.shape * self.scale**2

    def moment(self, k: int) -> float:
        return self.scale**k * math.exp(
            special.gammaln(self.shape + k) - special.gammaln(self.shape)
        )

    def __repr__(self) -> str:
        return f"Gamma(shape={self.shape:g}, scale={self.scale:g})"


class Erlang(Gamma):
    """Erlang distribution: Gamma with integer shape *k* and given *rate*."""

    def __init__(self, k: int, rate: float):
        if int(k) != k or k < 1:
            raise ValueError(f"k must be a positive integer, got {k}")
        check_positive(rate, "rate")
        super().__init__(shape=int(k), scale=1.0 / rate)
        self.k = int(k)
        self.rate = float(rate)

    def __repr__(self) -> str:
        return f"Erlang(k={self.k}, rate={self.rate:g})"


# ---------------------------------------------------------------------------
# Mixtures
# ---------------------------------------------------------------------------


class Mixture(Distribution):
    """Finite mixture of component :class:`Distribution` objects."""

    def __init__(self, probs: Sequence[float], components: Sequence[Distribution]):
        probs_arr = np.asarray(probs, dtype=float)
        if probs_arr.ndim != 1 or len(probs_arr) != len(components):
            raise ValueError("probs and components must have equal length")
        if np.any(probs_arr < 0):
            raise ValueError("mixture probabilities must be non-negative")
        total = probs_arr.sum()
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"mixture probabilities must sum to 1, got {total}")
        self.probs = probs_arr / total
        self.components = list(components)

    def support(self) -> Tuple[float, float]:
        los, his = zip(*(c.support() for c in self.components))
        return (min(los), max(his))

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        which = rng.choice(len(self.components), size=n, p=self.probs)
        out = np.empty(n)
        for idx, comp in enumerate(self.components):
            mask = which == idx
            cnt = int(mask.sum())
            if cnt:
                out[mask] = comp.sample(cnt, rng)
        return out

    def pdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return sum(p * c.pdf(x) for p, c in zip(self.probs, self.components))

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return sum(p * c.cdf(x) for p, c in zip(self.probs, self.components))

    def mean(self) -> float:
        return float(sum(p * c.mean() for p, c in zip(self.probs, self.components)))

    def var(self) -> float:
        m2 = sum(p * c.moment(2) for p, c in zip(self.probs, self.components))
        m = self.mean()
        return float(m2 - m * m)

    def moment(self, k: int) -> float:
        return float(sum(p * c.moment(k) for p, c in zip(self.probs, self.components)))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{p:.3g}*{c!r}" for p, c in zip(self.probs, self.components)
        )
        return f"Mixture({parts})"


class HyperErlang(Mixture):
    """Hyper-Erlang of common order *k* (Jann et al. 1997)."""

    def __init__(self, probs: Sequence[float], k: int, rates: Sequence[float]):
        super().__init__(probs, [Erlang(k, r) for r in rates])
        self.k = int(k)
        self.rates = [float(r) for r in rates]

    def __repr__(self) -> str:
        return f"HyperErlang(probs={list(self.probs)}, k={self.k}, rates={self.rates})"


class Discrete(Distribution):
    """Discrete distribution over arbitrary real support points.

    Used for job sizes (degree of parallelism): values are typically the
    integers 1..P with extra mass on powers of two.  ``ppf`` uses the usual
    generalized inverse, so copula transforms produce valid discrete samples.
    """

    def __init__(self, values: Sequence[float], probs: Sequence[float]):
        values_arr = np.asarray(values, dtype=float)
        probs_arr = np.asarray(probs, dtype=float)
        if values_arr.ndim != 1 or values_arr.shape != probs_arr.shape:
            raise ValueError("values and probs must be 1-D of equal length")
        if len(values_arr) == 0:
            raise ValueError("need at least one support point")
        if np.any(probs_arr < 0):
            raise ValueError("probabilities must be non-negative")
        total = probs_arr.sum()
        if total <= 0:
            raise ValueError("probabilities must not all be zero")
        order = np.argsort(values_arr)
        self.values = values_arr[order]
        if np.any(np.diff(self.values) == 0):
            raise ValueError("support points must be distinct")
        self.probs = probs_arr[order] / total
        self._cum = np.cumsum(self.probs)

    def support(self) -> Tuple[float, float]:
        return (float(self.values[0]), float(self.values[-1]))

    def sample(self, n: int, seed: SeedLike = None) -> np.ndarray:
        rng = as_generator(seed)
        return rng.choice(self.values, size=n, p=self.probs)

    def pdf(self, x) -> np.ndarray:  # probability mass, really
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x, dtype=float)
        for v, p in zip(self.values, self.probs):
            out = np.where(np.isclose(x, v), p, out)
        return out

    def cdf(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        idx = np.searchsorted(self.values, x, side="right")
        cum = np.concatenate([[0.0], self._cum])
        return cum[idx]

    def ppf(self, q) -> np.ndarray:
        q = _check_quantiles(q)
        idx = np.searchsorted(self._cum, q, side="left")
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]

    def mean(self) -> float:
        return float(np.dot(self.values, self.probs))

    def var(self) -> float:
        m = self.mean()
        return float(np.dot((self.values - m) ** 2, self.probs))

    def moment(self, k: int) -> float:
        return float(np.dot(self.values**k, self.probs))

    def __repr__(self) -> str:
        return f"Discrete(n={len(self.values)}, support=[{self.values[0]:g}, {self.values[-1]:g}])"
