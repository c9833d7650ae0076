"""Figure 5 — Co-plot of the self-similarity estimates.

The paper runs Co-plot on Table 3 alone (mixing it with the workload
variables breaks the two-dimensional display) after dropping the three
lowest-correlation estimators (rp, rc, pc), and reads off:

* all production workloads except NASA show self-similarity while the
  synthetic models do not — every arrow points to the production side;
* Lublin's model sits apart from the other models because its estimates
  are especially *low*;
* the three estimators of the same attribute are often weakly correlated
  with each other, so only the production-vs-model conclusion is supported
  by all estimators;
* similar machines land near each other (CTC-KTH; LANLb-SDSCb).

By default the experiment analyzes the *measured* Table 3 (from
:mod:`repro.experiments.table3`); pass ``use_published=True`` to run on the
paper's own numbers instead.  When ``table3`` runs in the same batch, the
runner hands its result over (the registry names it as this experiment's
input), so Table 3 is measured once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.archive.targets import (
    MODEL_TABLE3_NAMES,
    PRODUCTION_NAMES,
    TABLE3_ESTIMATORS,
    table3_matrix,
)
from repro.coplot.model import CoplotResult
from repro.coplot.render import render_ascii_map
from repro.coplot.selection import eliminate_variables
from repro.experiments.common import Claim, default_coplot, render_claims
from repro.experiments.table3 import Table3Result, run_table3
from repro.util.rng import SeedLike

__all__ = ["Figure5Result", "run_figure5"]


@dataclass(frozen=True)
class Figure5Result:
    """Figure 5 reproduction output."""

    coplot: CoplotResult
    removed_estimators: List[str]
    claims: List[Claim]
    used_published: bool

    def render(self) -> str:
        source = "paper's published Table 3" if self.used_published else "measured Table 3"
        parts = [
            f"=== Figure 5: self-similarity estimations ({source}) ===",
            render_ascii_map(self.coplot),
            f"Estimators removed for low correlation: {self.removed_estimators}",
            render_claims(self.claims),
        ]
        return "\n".join(parts)


def _production_side_fraction(result: CoplotResult) -> float:
    """Fraction of arrows under which production workloads project higher
    than the models (the paper's 'all the arrows point leftwards — where
    the production workloads are')."""
    prod_idx = [i for i, l in enumerate(result.labels) if l in PRODUCTION_NAMES]
    model_idx = [i for i, l in enumerate(result.labels) if l in MODEL_TABLE3_NAMES]
    wins = 0
    for arrow in result.arrows:
        proj = result.coords @ arrow.direction
        if float(np.mean(proj[prod_idx])) > float(np.mean(proj[model_idx])):
            wins += 1
    return wins / len(result.arrows) if result.arrows else math.nan


def run_figure5(
    *,
    use_published: bool = False,
    table3: Optional[Table3Result] = None,
    n_jobs: int = 20000,
    seed: SeedLike = 0,
    min_correlation: float = 0.7,
) -> Figure5Result:
    """Reproduce Figure 5.

    Parameters
    ----------
    use_published:
        Analyze the paper's Table 3 numbers instead of re-measured ones.
    table3:
        A precomputed :class:`Table3Result` to reuse (avoids re-measuring);
        it must have been measured with the same *n_jobs* and *seed*.
    n_jobs, seed:
        Forwarded to :func:`run_table3` when measuring.
    min_correlation:
        Elimination threshold for low-correlation estimators (the paper
        dropped rp, rc and pc this way).
    """
    if use_published:
        y, labels, signs = table3_matrix()
    else:
        result3 = table3 if table3 is not None else run_table3(n_jobs=n_jobs, seed=seed)
        labels = list(PRODUCTION_NAMES) + list(MODEL_TABLE3_NAMES)
        signs = list(TABLE3_ESTIMATORS)
        y = np.array([[result3.measured[n][c] for c in signs] for n in labels])
        # Estimators that failed everywhere cannot enter the analysis.
        keep = [j for j in range(y.shape[1]) if not np.all(np.isnan(y[:, j]))]
        y = y[:, keep]
        signs = [signs[j] for j in keep]

    cp = default_coplot()
    fitted, removed = eliminate_variables(
        y,
        labels=labels,
        signs=signs,
        min_correlation=min_correlation,
        min_variables=6,
        coplot=cp,
    )

    frac = _production_side_fraction(fitted)
    prod_pos = np.array([fitted.position(n) for n in PRODUCTION_NAMES])
    model_pos = np.array([fitted.position(n) for n in MODEL_TABLE3_NAMES])
    separation = float(np.linalg.norm(prod_pos.mean(axis=0) - model_pos.mean(axis=0)))
    spread = float(
        np.mean(np.linalg.norm(fitted.coords - fitted.coords.mean(axis=0), axis=1))
    )

    lublin_char = fitted.characterization("Lublin")
    lublin_low = float(np.mean(list(lublin_char.values())))

    claims = [
        Claim(
            "map quality acceptable",
            "(figure shown as valid)",
            f"alienation={fitted.alienation:.3f}, avg r={fitted.average_correlation:.3f}",
            fitted.alienation <= 0.20,
        ),
        Claim(
            "all arrows point to the production side",
            "production self-similar, models not",
            f"{frac:.0%} of arrows favour production",
            # 100% at full size; reduced-size runs lose an estimator or
            # two to Hurst noise.
            frac >= 0.75,
        ),
        Claim(
            "production and model groups separate on the map",
            "models on the opposite side",
            f"group separation {separation:.2f} vs mean spread {spread:.2f}",
            separation > spread * 0.5,
        ),
        Claim(
            "Lublin stands apart through especially LOW estimates",
            "very low Hurst estimators",
            f"mean arrow projection {lublin_low:+.2f}",
            lublin_low < 0,
        ),
        Claim(
            "similar machines produce similar self-similarity (CTC~KTH)",
            "CTC and KTH very close",
            f"d(CTC,KTH)={fitted.distance('CTC','KTH'):.2f} vs spread {spread:.2f}",
            fitted.distance("CTC", "KTH") < 1.5 * spread,
        ),
    ]
    return Figure5Result(
        coplot=fitted,
        removed_estimators=removed,
        claims=claims,
        used_published=use_published,
    )
