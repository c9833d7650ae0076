"""Co-plot: simultaneous multivariate analysis of observations and variables.

The method of the paper, in four stages:

1. **Normalize** each variable to zero mean, unit variance
   (:mod:`repro.coplot.normalize`).
2. **Dissimilarity**: city-block distance between every pair of observation
   rows (:mod:`repro.coplot.dissimilarity`).
3. **Map** the dissimilarity matrix into 2-D with a nonmetric MDS —
   Guttman's Smallest Space Analysis, goodness of fit measured by the
   coefficient of alienation (:mod:`repro.coplot.mds`).
4. **Arrows**: one ray per variable, directed to maximize the correlation
   between the variable and the projections of the points onto the ray
   (:mod:`repro.coplot.arrows`).

:class:`~repro.coplot.model.Coplot` wires the stages together and
:mod:`repro.coplot.selection` adds the paper's variable-elimination and
Section 8 subset-parameterization procedures.
"""

from repro.coplot.normalize import zscore, normalize_matrix
from repro.coplot.dissimilarity import (
    pairwise_dissimilarity,
    city_block,
    euclidean,
    minkowski,
)
from repro.coplot.mds import (
    MDSResult,
    classical_mds,
    smacof,
    smallest_space_analysis,
    coefficient_of_alienation,
    monotonicity_coefficient,
    kruskal_stress,
)
from repro.coplot.arrows import Arrow, fit_arrows, fit_arrow, angle_between, arrow_correlation_matrix
from repro.coplot.model import Coplot, CoplotResult
from repro.coplot.selection import eliminate_variables, best_subset, SubsetScore
from repro.coplot.render import render_ascii_map, coplot_to_csv, coplot_to_svg, coplot_to_svg_bytes
from repro.coplot.procrustes import (
    procrustes_align,
    procrustes_align_batch,
    procrustes_disparity,
)
from repro.coplot.extend import bootstrap_stability, StabilityReport

__all__ = [
    "zscore",
    "normalize_matrix",
    "pairwise_dissimilarity",
    "city_block",
    "euclidean",
    "minkowski",
    "MDSResult",
    "classical_mds",
    "smacof",
    "smallest_space_analysis",
    "coefficient_of_alienation",
    "monotonicity_coefficient",
    "kruskal_stress",
    "Arrow",
    "fit_arrows",
    "fit_arrow",
    "angle_between",
    "arrow_correlation_matrix",
    "Coplot",
    "CoplotResult",
    "eliminate_variables",
    "best_subset",
    "SubsetScore",
    "render_ascii_map",
    "coplot_to_csv",
    "coplot_to_svg",
    "coplot_to_svg_bytes",
    "procrustes_align",
    "procrustes_align_batch",
    "procrustes_disparity",
    "bootstrap_stability",
    "StabilityReport",
]
