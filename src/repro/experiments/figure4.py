"""Figure 4 — production workloads vs. the five synthetic models.

The ten Table 1 observations are mapped together with the measured output
of the five reimplemented models, over the eight variables all models
produce.  The paper's reading, checked here:

* goodness of fit: alienation 0.06, average correlation 0.89;
* Lublin's model "places itself as the ultimate average" — nearest the
  centre of gravity of all observations — with LLNL the only production
  workload close enough to accept it as a match;
* Downey's model and both Feitelson models sit near the interactive
  workloads and NASA;
* Jann's model is closest to CTC (and close to KTH);
* the LANL and SDSC (and their batch) workloads have no model near them;
* the variable-arrow picture is "almost the same" as Figure 1's — the
  models do not distort the real-world correlations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

import numpy as np

from repro.archive.targets import PRODUCTION_NAMES, TABLE1
from repro.coplot.model import CoplotResult
from repro.coplot.render import render_ascii_map
from repro.experiments.common import (
    FIGURE4_SIGNS,
    Claim,
    default_coplot,
    render_claims,
)
from repro.models.registry import MODEL_NAMES, create_model
from repro.util.rng import SeedLike, spawn_children
from repro.workload.statistics import compute_statistics
from repro.workload.variables import observation_matrix

__all__ = ["Figure4Result", "run_figure4"]


@dataclass(frozen=True)
class Figure4Result:
    """Figure 4 reproduction output.

    ``zoom`` is the paper's secondary analysis: the batch outliers removed
    and the map re-run ("a zoom in on the lower left part of Figure 4").
    """

    coplot: CoplotResult
    zoom: CoplotResult
    model_stats: Dict[str, Mapping[str, float]]
    claims: List[Claim]

    def centroid_ranking(self) -> List[str]:
        """All observations ordered by distance from the centre of gravity."""
        centroid = self.coplot.centroid()
        dists = {
            lbl: float(np.linalg.norm(self.coplot.coords[i] - centroid))
            for i, lbl in enumerate(self.coplot.labels)
        }
        return [k for k, _ in sorted(dists.items(), key=lambda kv: kv[1])]

    def nearest_production(self, model: str) -> str:
        """The production workload closest to a model on the map."""
        for name in self.coplot.distances_from(model):
            if name in PRODUCTION_NAMES:
                return name
        raise RuntimeError("no production workload on the map")  # pragma: no cover

    def render(self) -> str:
        lines = [
            "=== Figure 4: production workloads vs synthetic models ===",
            render_ascii_map(self.coplot),
            "Centroid ranking (closest first): " + ", ".join(self.centroid_ranking()),
        ]
        for model in MODEL_NAMES:
            near = ", ".join(list(self.coplot.distances_from(model))[:3])
            lines.append(f"{model}: nearest observations: {near}")
        lines.append(render_claims(self.claims))
        return "\n".join(lines)


def run_figure4(
    *,
    n_jobs: int = 10000,
    seed: SeedLike = 0,
    coplot_seed: int = 0,
) -> Figure4Result:
    """Reproduce Figure 4: Table 1 data + generated model streams."""
    rows = [dict(TABLE1[n], name=n) for n in PRODUCTION_NAMES]
    model_stats: Dict[str, Mapping[str, float]] = {}
    rngs = spawn_children(seed, len(MODEL_NAMES))
    for name, rng in zip(MODEL_NAMES, rngs):
        model = create_model(name)
        stats = compute_statistics(model.generate(n_jobs, seed=rng))
        by_sign = stats.by_sign()
        model_stats[name] = by_sign
        rows.append(dict(by_sign, name=name))

    y, labels = observation_matrix(rows, FIGURE4_SIGNS)
    cp = default_coplot(seed=coplot_seed)
    result = cp.fit(y, labels=labels, signs=list(FIGURE4_SIGNS))

    # The paper's "zoom in": rerun without the batch outliers.
    keep = [i for i, l in enumerate(labels) if l not in ("LANLb", "SDSCb")]
    zoom = cp.fit(
        y[keep], labels=[labels[i] for i in keep], signs=list(FIGURE4_SIGNS)
    )

    ranking = _centroid_ranking(result)
    model_rank = {m: ranking.index(m) for m in MODEL_NAMES}
    most_central_model = min(model_rank, key=model_rank.get)

    nearest: Dict[str, str] = {}
    for model in MODEL_NAMES:
        for name in result.distances_from(model):
            if name in PRODUCTION_NAMES:
                nearest[model] = name
                break

    # The production workload nearest Lublin's position.
    lublin_nearest = nearest["Lublin"]
    inter_nasa = {"LANLi", "SDSCi", "NASA"}

    # Models near LANL/SDSC (non-interactive): the paper says there are none.
    heavy = {"LANL", "LANLb", "SDSC", "SDSCb"}
    heavy_matched = {m for m, n in nearest.items() if n in heavy}

    claims = [
        Claim(
            "map quality",
            "alienation 0.06, avg correlation 0.89",
            f"alienation={result.alienation:.3f}, avg r={result.average_correlation:.3f}",
            result.alienation <= 0.15 and result.average_correlation >= 0.80,
        ),
        Claim(
            "Lublin's model is the ultimate average (most central model)",
            "closest to the centre of gravity",
            f"centroid ranking of models: "
            + ", ".join(sorted(model_rank, key=model_rank.get)),
            most_central_model == "Lublin",
        ),
        Claim(
            "LLNL is the production workload matching Lublin",
            "only LLNL close enough",
            f"nearest production to Lublin: {lublin_nearest}",
            lublin_nearest == "LLNL",
        ),
        Claim(
            "Downey and the Feitelson models match interactive/NASA",
            "Downey, Feitelson96/97 near LANLi, SDSCi, NASA",
            str({m: nearest[m] for m in ("Downey", "Feitelson96", "Feitelson97")}),
            all(nearest[m] in inter_nasa for m in ("Downey", "Feitelson96", "Feitelson97")),
        ),
        Claim(
            "Jann's model is closest to CTC (or its SP2 sibling KTH)",
            "closest to CTC, also close to KTH",
            f"nearest production to Jann: {nearest['Jann']}",
            nearest["Jann"] in ("CTC", "KTH"),
        ),
        Claim(
            "no model matches the heavy LANL/SDSC (batch) workloads",
            "LANL and SDSC have no model close to them",
            f"models whose nearest log is heavy-batch: {sorted(heavy_matched) or 'none'}",
            not heavy_matched,
        ),
    ]

    # Zoom-in claims: "the result was essentially the same", with the
    # early models still sitting on the interactive/NASA side.
    zoom_nearest: Dict[str, str] = {}
    for model in ("Downey", "Feitelson96", "Feitelson97"):
        for name in zoom.distances_from(model):
            if name in PRODUCTION_NAMES:
                zoom_nearest[model] = name
                break
    claims.append(
        Claim(
            "removing the batch outliers leaves the picture intact (zoom in)",
            "the result was essentially the same",
            f"zoom alienation={zoom.alienation:.3f}; early models' nearest "
            f"logs: {zoom_nearest}",
            zoom.alienation <= 0.15
            and all(n in inter_nasa for n in zoom_nearest.values()),
        )
    )
    return Figure4Result(coplot=result, zoom=zoom, model_stats=model_stats, claims=claims)


def _centroid_ranking(result: CoplotResult) -> List[str]:
    centroid = result.centroid()
    dists = {
        lbl: float(np.linalg.norm(result.coords[i] - centroid))
        for i, lbl in enumerate(result.labels)
    }
    return [k for k, _ in sorted(dists.items(), key=lambda kv: kv[1])]
