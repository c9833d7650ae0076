"""Multidimensional scaling, implemented from scratch.

Stage 3 of Co-plot maps the dissimilarity matrix into a low-dimensional
Euclidean space so that the *order* of the map distances matches the order
of the dissimilarities — a nonmetric requirement (the paper's
``S_ik < S_lm  iff  d_ik < d_lm``).  The reference algorithm is Guttman's
Smallest Space Analysis (SSA); we realise it as SMACOF majorization
iterations alternating with an order-restoring transform (isotonic
regression or Guttman's rank-image), and we score configurations with the
coefficient of alienation Θ of Eqs. (3)–(4).

No sklearn is available offline; everything here depends only on NumPy.
"""

from repro.coplot.mds.base import MDSResult
from repro.coplot.mds.alienation import (
    monotonicity_coefficient,
    coefficient_of_alienation,
    kruskal_stress,
)
from repro.coplot.mds.classical import classical_mds
from repro.coplot.mds.smacof import smacof
from repro.coplot.mds.ssa import smallest_space_analysis

__all__ = [
    "MDSResult",
    "monotonicity_coefficient",
    "coefficient_of_alienation",
    "kruskal_stress",
    "classical_mds",
    "smacof",
    "smallest_space_analysis",
]
