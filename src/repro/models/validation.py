"""Model-validation framework: which model fits *this* trace?

Figure 4 answers "which model matches which machine" once, for the
paper's archive.  This module turns that analysis into an API a
downstream user can run against their own trace:

* :func:`validate_model` compares one model's generated stream against a
  reference workload on three levels — the eight Figure 4 order
  statistics, the full marginal shapes (KS and quantile-ratio distances),
  and the per-attribute Hurst levels;
* :func:`rank_models` runs every registered model against the reference
  and ranks them by the aggregate score, reproducing the Figure 4
  verdicts programmatically (Jann fits an SP2-like trace, the early
  models fit interactive/NASA-like ones, ...).

Scores are scale-free and order-statistic based throughout, per the
paper's Section 3 methodology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.models.base import WorkloadModel
from repro.models.registry import MODEL_NAMES, create_model
from repro.selfsim.hurst import hurst_summary
from repro.selfsim.series import SERIES_ATTRIBUTES, workload_series
from repro.stats.gof import ks_statistic, qq_log_distance
from repro.util.rng import SeedLike, spawn_children
from repro.workload.statistics import compute_statistics
from repro.workload.variables import MODEL_COMPARABLE_SIGNS
from repro.workload.workload import Workload

__all__ = ["VariableFit", "MarginalFit", "ModelFitReport", "validate_model", "rank_models"]

#: Marginals compared at full-distribution level.
_MARGINAL_ATTRIBUTES = ("run_time", "used_procs", "interarrival")


@dataclass(frozen=True)
class VariableFit:
    """One Figure 4 variable, model vs reference."""

    sign: str
    model_value: float
    reference_value: float

    @property
    def log_ratio(self) -> float:
        """log10(model / reference); 0 = exact, ±1 = order of magnitude."""
        if self.model_value <= 0 or self.reference_value <= 0:
            return math.nan
        return math.log10(self.model_value / self.reference_value)


@dataclass(frozen=True)
class MarginalFit:
    """One attribute's full-marginal comparison."""

    attribute: str
    ks: float
    qq_log: float


@dataclass(frozen=True)
class ModelFitReport:
    """Everything :func:`validate_model` measures."""

    model_name: str
    reference_name: str
    variables: List[VariableFit]
    marginals: List[MarginalFit]
    hurst_delta: Dict[str, float]  #: model H minus reference H, per attribute

    def variable_score(self) -> float:
        """Mean |log10 ratio| over the comparable Figure 4 variables."""
        vals = [abs(v.log_ratio) for v in self.variables if not math.isnan(v.log_ratio)]
        return float(np.mean(vals)) if vals else math.nan

    def marginal_score(self) -> float:
        """Mean quantile-ratio distance over the compared marginals."""
        return float(np.mean([m.qq_log for m in self.marginals]))

    def hurst_score(self) -> float:
        """Mean |H difference| over the attribute series."""
        vals = [abs(v) for v in self.hurst_delta.values() if not math.isnan(v)]
        return float(np.mean(vals)) if vals else math.nan

    def score(self) -> float:
        """Aggregate badness (0 = indistinguishable from the reference).

        Equal-weight mean of the three level scores; Hurst differences are
        scaled by 2 so that a 0.15 Hurst gap weighs like a 0.3-decade
        quantile gap.
        """
        parts = [self.variable_score(), self.marginal_score(), 2.0 * self.hurst_score()]
        parts = [p for p in parts if not math.isnan(p)]
        return float(np.mean(parts)) if parts else math.nan


def validate_model(
    model: Union[WorkloadModel, Workload, str],
    reference: Workload,
    *,
    n_jobs: Optional[int] = None,
    seed: SeedLike = 0,
    include_hurst: bool = True,
) -> ModelFitReport:
    """Compare a model (or an already-generated stream) to a reference.

    Parameters
    ----------
    model:
        A :class:`WorkloadModel`, a registered model name, or a generated
        :class:`~repro.workload.workload.Workload`.
    reference:
        The trace to fit (e.g. a parsed SWF log).
    n_jobs:
        Stream length when generating; defaults to the reference's size.
    include_hurst:
        Skip the (comparatively slow) Hurst comparison when False.
    """
    if isinstance(model, str):
        model = create_model(model)
    if isinstance(model, WorkloadModel):
        count = n_jobs if n_jobs is not None else max(len(reference), 1000)
        stream = model.generate(count, seed=seed)
        model_name = model.name
    else:
        stream = model
        model_name = stream.name

    ref_stats = compute_statistics(reference).by_sign()
    mod_stats = compute_statistics(stream).by_sign()
    variables = [
        VariableFit(sign=s, model_value=mod_stats[s], reference_value=ref_stats[s])
        for s in MODEL_COMPARABLE_SIGNS
        if not (math.isnan(mod_stats[s]) or math.isnan(ref_stats[s]))
    ]

    marginals = []
    for attribute in _MARGINAL_ATTRIBUTES:
        a = workload_series(stream, attribute)
        b = workload_series(reference, attribute)
        if a.size < 2 or b.size < 2:
            continue
        marginals.append(
            MarginalFit(
                attribute=attribute,
                ks=ks_statistic(a, b),
                qq_log=qq_log_distance(a, b),
            )
        )

    hurst_delta: Dict[str, float] = {}
    if include_hurst:
        for attribute in SERIES_ATTRIBUTES:
            a = workload_series(stream, attribute)
            b = workload_series(reference, attribute)
            if a.size < 100 or b.size < 100:
                hurst_delta[attribute] = math.nan
                continue
            ha = np.nanmean(list(hurst_summary(a).values()))
            hb = np.nanmean(list(hurst_summary(b).values()))
            hurst_delta[attribute] = float(ha - hb)

    return ModelFitReport(
        model_name=model_name,
        reference_name=reference.name,
        variables=variables,
        marginals=marginals,
        hurst_delta=hurst_delta,
    )


def rank_models(
    reference: Workload,
    *,
    models: Optional[Sequence[Union[str, WorkloadModel]]] = None,
    n_jobs: Optional[int] = None,
    seed: SeedLike = 0,
    include_hurst: bool = True,
) -> List[ModelFitReport]:
    """Validate every model against *reference* and rank by score.

    Defaults to the five Figure 4 models; pass *models* to rank a custom
    set (names or instances).  Returns reports sorted best-first.
    """
    if models is None:
        models = list(MODEL_NAMES)
    rngs = spawn_children(seed, len(models))
    reports = [
        validate_model(
            m, reference, n_jobs=n_jobs, seed=rng, include_hurst=include_hurst
        )
        for m, rng in zip(models, rngs)
    ]
    return sorted(reports, key=lambda r: r.score())
