"""Lublin's workload model (Uri Lublin, "A Workload Model for Parallel
Computer Systems", Hebrew University, 1999).

Based on a statistical analysis of four logs; the paper's Figure 4 finds it
"the ultimate average" of the production workloads.  Structure as
published:

* job sizes: a fixed fraction of serial jobs; parallel sizes drawn from a
  two-stage uniform distribution over log2(size) with most mass below a
  knee, then snapped to a power of two with high probability;
* runtimes: a two-component hyper-gamma whose mixing probability is a
  linear function of the job size — bigger jobs lean toward the
  long-running component (the documented size/runtime correlation);
* inter-arrival times: a gamma distribution modulated by a daily
  "rush-hour" cycle.

The numeric constants are calibrated so the model's eight Figure 4
variables land at the centre of gravity of the production workloads —
which is the model's documented position — rather than copied from the
thesis tables, which are not available offline (DESIGN.md §4.3).

The stream is assembled with array operations from one draw plan
(:meth:`_draw_blocks`).  That assembly is restricted to operations that
are bitwise identical between scalar and vectorized evaluation (plain
arithmetic, banker's rounding, ``sin``/``cos``, ``2**x`` and ``log2``),
so the per-job loop it replaced — kept as the equivalence oracle in
``tests/oracles/models.py``, where it consumes the same plan with
``math.sin``/``math.cos`` and size-1 ufunc calls — agrees with it to the
last ulp, asserted per seed in the equivalence tests.

The daily cycle is applied by inverting the cumulative intensity

    ``Lambda(t) = t + A sin(omega t - theta) + A sin(theta)``

(``omega`` = 2*pi/day, ``theta`` the peak phase, ``A`` = amplitude/omega)
at the unit-rate arrival times ``u = cumsum(gaps)``: the i-th arrival is
``t_i = Lambda^-1(u_i)``, so rush hours pack arrivals and nights spread
them with the exact configured intensity rather than a forward-Euler
approximation.  The inverse is computed by a fixed, amplitude-derived
number of contraction + Newton steps — no data-dependent early exit,
which is what keeps the array inversion and the per-job oracle in
lockstep.
"""

from __future__ import annotations

import math

import numpy as np

from repro.models.base import WorkloadModel
from repro.stats.distributions import Gamma
from repro.util.validation import check_positive, check_probability

__all__ = ["LublinModel"]

#: Radians per second of the 24 h cycle.
_OMEGA = 2.0 * math.pi / 86400.0


class LublinModel(WorkloadModel):
    """Lublin's parameterized statistical model.

    Parameters
    ----------
    machine_procs:
        Machine size P; parallel sizes live on [2, P].
    serial_prob:
        Fraction of one-processor jobs (published value 0.244).
    pow2_prob:
        Probability a parallel size snaps to a power of two (published
        value 0.576).
    size_knee_offset, size_low_prob:
        The two-stage uniform on log2(size): mass *size_low_prob* lies in
        [ulow, uhi - size_knee_offset], the rest above.
    runtime_short / runtime_long:
        The hyper-gamma components (shape, scale) in seconds.
    p_short_base, p_short_slope:
        Short-component probability for size s:
        ``clip(p_short_base + p_short_slope * log2(s)/log2(P), 0.05, 0.95)``
        (negative slope => bigger jobs run longer).
    median_interarrival:
        Median inter-arrival time at the daily average intensity (the gamma
        scale is solved from it, so the generated Im lands on target).
    interarrival_shape:
        Shape of the gamma inter-arrival distribution (CV > 1 for shape < 1).
    cycle_amplitude, cycle_peak_hour:
        Daily rush-hour cycle: instantaneous arrival intensity is
        proportional to ``1 + amplitude * cos(2π (hour − peak)/24)``.
    """

    name = "Lublin"

    def __init__(
        self,
        machine_procs: int = 128,
        *,
        serial_prob: float = 0.244,
        pow2_prob: float = 0.576,
        size_knee_offset: float = 2.5,
        size_low_prob: float = 0.70,
        runtime_short: tuple = (0.9, 420.0),
        runtime_long: tuple = (0.42, 28000.0),
        p_short_base: float = 0.85,
        p_short_slope: float = -0.35,
        median_interarrival: float = 120.0,
        interarrival_shape: float = 0.45,
        cycle_amplitude: float = 0.6,
        cycle_peak_hour: float = 14.0,
        n_users: int = 96,
    ):
        super().__init__(machine_procs)
        self.serial_prob = check_probability(serial_prob, "serial_prob")
        self.pow2_prob = check_probability(pow2_prob, "pow2_prob")
        self.size_low_prob = check_probability(size_low_prob, "size_low_prob")
        self.size_knee_offset = check_positive(size_knee_offset, "size_knee_offset")
        self.gamma_short = Gamma(*runtime_short)
        self.gamma_long = Gamma(*runtime_long)
        self.p_short_base = float(p_short_base)
        self.p_short_slope = float(p_short_slope)
        self.median_interarrival = check_positive(median_interarrival, "median_interarrival")
        self.interarrival_shape = check_positive(interarrival_shape, "interarrival_shape")
        if not 0.0 <= cycle_amplitude < 1.0:
            raise ValueError(f"cycle_amplitude must be in [0, 1), got {cycle_amplitude}")
        self.cycle_amplitude = float(cycle_amplitude)
        self.cycle_peak_hour = float(cycle_peak_hour) % 24.0
        if n_users < 1:
            raise ValueError(f"n_users must be >= 1, got {n_users}")
        self.n_users = int(n_users)

    # -- shared draw schedule ------------------------------------------------
    def _draw_blocks(self, n: int, rng: np.random.Generator) -> dict:
        """Every random draw the stream consumes, in one fixed order.

        Also computes the derived size/short-mask arrays the stream is
        assembled from; the per-job oracle re-derives them from the raw
        uniforms, so any divergence shows up as a block-pointer mismatch
        in the equivalence tests.
        """
        b: dict = {}
        sizes = np.ones(n)
        if self.machine_procs >= 2:
            b["par_u"] = rng.random(n)
            parallel = b["par_u"] >= self.serial_prob
            n_par = int(parallel.sum())
            b["parallel"] = parallel
            if n_par:
                ulow = 1.0  # log2 of the smallest parallel size (2 procs)
                uhi = math.log2(self.machine_procs)
                umed = max(ulow + 0.5, uhi - self.size_knee_offset)
                b["low_u"] = rng.random(n_par)
                b["u_low"] = rng.uniform(ulow, min(umed, uhi), size=n_par)
                b["u_high"] = rng.uniform(min(umed, uhi), uhi, size=n_par)
                b["snap_u"] = rng.random(n_par)
                low = b["low_u"] < self.size_low_prob
                u = np.where(low, b["u_low"], b["u_high"])
                snap = b["snap_u"] < self.pow2_prob
                log2_sizes = np.where(snap, np.round(u), u)
                sizes[parallel] = np.round(2.0**log2_sizes)
        b["sizes"] = np.clip(sizes, 1, self.machine_procs).astype(np.int64)

        denom = max(math.log2(self.machine_procs), 1.0)
        p_short = np.clip(
            self.p_short_base + self.p_short_slope * np.log2(b["sizes"]) / denom,
            0.05,
            0.95,
        )
        b["short_u"] = rng.random(n)
        short = b["short_u"] < p_short
        n_short = int(short.sum())
        b["short"] = short
        b["gamma_short"] = (
            self.gamma_short.sample(n_short, rng) if n_short else np.empty(0)
        )
        b["gamma_long"] = (
            self.gamma_long.sample(n - n_short, rng) if n - n_short else np.empty(0)
        )

        shape = self.interarrival_shape
        # Solve the gamma scale so the *median* gap equals the target.
        unit_median = float(Gamma(shape, 1.0).ppf(0.5))
        scale = self.median_interarrival / unit_median
        b["gaps"] = rng.gamma(shape, scale, size=n)
        b["users"] = rng.integers(self.n_users, size=n)
        return b

    # -- arrivals ------------------------------------------------------------
    def _cycle_plan(self) -> tuple:
        """Deterministic inversion schedule ``(theta, A, C, n_fp, n_newton)``.

        The fixed-point map ``t <- u - (A sin(omega t - theta) + C)`` is a
        contraction with factor ``a``; we iterate until the worst-case
        error (2A at the start) falls inside Newton's quadratic basin
        ``(1-a)/(a omega)``, then run eight Newton steps — enough to reach
        a fixed point at double precision for any amplitude in [0, 1).
        """
        a = self.cycle_amplitude
        theta = 2.0 * math.pi * self.cycle_peak_hour / 24.0
        amp = a / _OMEGA
        offset = amp * math.sin(theta)
        if a == 0.0:  # repro-lint: disable=REP005 -- exact zero is the configured no-cycle sentinel
            return theta, amp, offset, 0, 0
        basin = (1.0 - a) / (a * _OMEGA)
        err = 2.0 * amp
        n_fp = 0
        while err > basin and n_fp < 512:
            err *= a
            n_fp += 1
        return theta, amp, offset, n_fp, 8

    def _invert_cycle(self, u: np.ndarray) -> np.ndarray:
        theta, amp, offset, n_fp, n_newton = self._cycle_plan()
        a = self.cycle_amplitude
        t = u.copy()
        for _ in range(n_fp):
            t = u - (amp * np.sin(_OMEGA * t - theta) + offset)
        for _ in range(n_newton):
            f = t + (amp * np.sin(_OMEGA * t - theta) + offset) - u
            w = 1.0 + a * np.cos(_OMEGA * t - theta)
            t = t - f / w
        return t

    # -- assembly ------------------------------------------------------------
    def _generate_arrays(self, n_jobs: int, rng: np.random.Generator) -> dict:
        b = self._draw_blocks(n_jobs, rng)
        short = b["short"]
        run_time = np.empty(n_jobs)
        run_time[short] = b["gamma_short"]
        run_time[~short] = b["gamma_long"]
        t = self._invert_cycle(np.cumsum(b["gaps"]))
        return {
            "submit_time": t - t[0],
            "run_time": run_time,
            "used_procs": b["sizes"],
            "user_id": b["users"],
            "wait_time": np.zeros(n_jobs),
        }
