"""Table 3 — self-similarity estimates for all 15 workloads.

For each of the ten (synthesized) production workloads and the five
(generated) model streams, the three Hurst estimators of the appendix are
run over the four attribute series.  Checked against the paper:

* production workloads are self-similar: their mean Hurst estimate sits
  clearly above 0.5;
* the synthetic models are not (Feitelson '97, with its repeated job
  executions, is allowed to show some persistence — the paper singles it
  out as the most self-similar model);
* per-cell agreement with the published estimates is reported as the mean
  absolute deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping

import numpy as np

from repro.archive.synthesize import synthesize_all
from repro.archive.targets import (
    ESTIMATOR_KEYS,
    MODEL_TABLE3_NAMES,
    PRODUCTION_NAMES,
    TABLE3,
    TABLE3_ESTIMATORS,
)
from repro.experiments.common import Claim, render_claims
from repro.models.registry import create_model
from repro.selfsim.hurst import estimate_hurst
from repro.selfsim.series import workload_series
from repro.util.rng import SeedLike, spawn_children
from repro.util.tables import format_table
from repro.workload.workload import Workload

__all__ = ["Table3Result", "run_table3", "measure_table3_row"]


def measure_table3_row(workload: Workload) -> Dict[str, float]:
    """One Table 3 row: the 12 estimator values for a workload."""
    series_cache: Dict[str, np.ndarray] = {}
    row: Dict[str, float] = {}
    for code in TABLE3_ESTIMATORS:
        method, attribute = ESTIMATOR_KEYS[code]
        if attribute not in series_cache:
            series_cache[attribute] = workload_series(workload, attribute)
        try:
            row[code] = estimate_hurst(series_cache[attribute], method).h
        except (ValueError, RuntimeError):
            row[code] = math.nan
    return row


@dataclass(frozen=True)
class Table3Result:
    """Measured vs. published Table 3."""

    measured: Dict[str, Dict[str, float]]
    published: Dict[str, Dict[str, float]]
    n_jobs: int

    def to_data(self) -> Dict[str, Any]:
        """The measured matrix as strict JSON (``None`` marks a failed
        estimate, so no NaN token reaches a payload)."""
        names = list(self.measured)
        rows = [[self.measured[n][c] for c in TABLE3_ESTIMATORS] for n in names]
        return {
            "n_jobs": self.n_jobs,
            "workloads": names,
            "estimators": list(TABLE3_ESTIMATORS),
            "measured": [[None if math.isnan(v) else v for v in row] for row in rows],
        }

    @classmethod
    def from_data(cls, data: Mapping[str, Any]) -> "Table3Result":
        """Rebuild the result :meth:`to_data` flattened."""
        measured = {
            name: {c: math.nan if v is None else v for c, v in zip(data["estimators"], row)}
            for name, row in zip(data["workloads"], data["measured"])
        }
        published = {name: dict(TABLE3[name]) for name in measured}
        return cls(measured=measured, published=published, n_jobs=int(data["n_jobs"]))

    def mean_hurst(self, name: str) -> float:
        """Mean of the 12 measured estimates for one workload."""
        vals = [v for v in self.measured[name].values() if not math.isnan(v)]
        return float(np.mean(vals)) if vals else math.nan

    def mean_absolute_deviation(self) -> float:
        """Mean |measured - published| over all comparable cells."""
        deltas = []
        for name, row in self.measured.items():
            for code, value in row.items():
                target = self.published[name][code]
                if not math.isnan(value):
                    deltas.append(abs(value - target))
        return float(np.mean(deltas))

    @property
    def production_mean(self) -> float:
        """Mean Hurst over all production workloads."""
        return float(np.mean([self.mean_hurst(n) for n in PRODUCTION_NAMES]))

    @property
    def model_mean(self) -> float:
        """Mean Hurst over all synthetic models."""
        return float(np.mean([self.mean_hurst(n) for n in MODEL_TABLE3_NAMES]))

    def render(self) -> str:
        headers = ["Workload"] + list(TABLE3_ESTIMATORS) + ["mean"]
        rows = []
        for name in list(PRODUCTION_NAMES) + list(MODEL_TABLE3_NAMES):
            rows.append(
                [f"{name} (paper)"]
                + [self.published[name][c] for c in TABLE3_ESTIMATORS]
                + [float(np.mean([self.published[name][c] for c in TABLE3_ESTIMATORS]))]
            )
            rows.append(
                [f"{name} (ours)"]
                + [self.measured[name][c] for c in TABLE3_ESTIMATORS]
                + [self.mean_hurst(name)]
            )
        table = format_table(
            headers, rows, float_fmt="{:.2f}", title="Table 3: estimations of self-similarity"
        )
        summary = (
            f"\nMean |measured - published| = {self.mean_absolute_deviation():.3f}"
            f"\nProduction mean H = {self.production_mean:.3f}, "
            f"model mean H = {self.model_mean:.3f}"
        )
        return table + summary + "\n" + render_claims(self.claims())

    def claims(self) -> List[Claim]:
        non_feitelson = [n for n in MODEL_TABLE3_NAMES if n != "Feitelson97"]
        return [
            Claim(
                "production workloads are self-similar",
                "H clearly above 0.5 throughout",
                f"mean production H = {self.production_mean:.2f}",
                self.production_mean > 0.58,
            ),
            Claim(
                "synthetic models are not self-similar",
                "model estimates hover near 0.5",
                f"mean model H = {self.model_mean:.2f}",
                self.model_mean < 0.62,
            ),
            Claim(
                "production workloads more self-similar than the models",
                "all arrows point at the production side (Figure 5)",
                f"{self.production_mean:.2f} > {self.model_mean:.2f}",
                self.production_mean > self.model_mean + 0.03,
            ),
            Claim(
                "Feitelson97 is the most self-similar model (repetitions)",
                "highest self-similarity among models",
                str({n: round(self.mean_hurst(n), 2) for n in MODEL_TABLE3_NAMES}),
                self.mean_hurst("Feitelson97")
                >= max(self.mean_hurst(n) for n in non_feitelson) - 0.02,
            ),
            Claim(
                "per-cell agreement with the published table",
                "(reproduction quality metric)",
                f"mean abs deviation = {self.mean_absolute_deviation():.3f}",
                self.mean_absolute_deviation() < 0.12,
            ),
        ]


def run_table3(*, n_jobs: int = 20000, seed: SeedLike = 0) -> Table3Result:
    """Measure all 15 Table 3 rows."""
    measured: Dict[str, Dict[str, float]] = {}
    workloads = synthesize_all(n_jobs=n_jobs, seed=seed)
    for name, workload in workloads.items():
        measured[name] = measure_table3_row(workload)
    rngs = spawn_children(seed, len(MODEL_TABLE3_NAMES))
    for name, rng in zip(MODEL_TABLE3_NAMES, rngs):
        stream = create_model(name).generate(n_jobs, seed=rng)
        measured[name] = measure_table3_row(stream)
    published = {name: dict(TABLE3[name]) for name in measured}
    return Table3Result(measured=measured, published=published, n_jobs=n_jobs)
