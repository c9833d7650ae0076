"""Shared pieces of the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.archive.targets import PRODUCTION_NAMES, TABLE1, TABLE2
from repro.coplot.model import Coplot
from repro.workload.variables import observation_matrix

__all__ = [
    "FIGURE1_SIGNS",
    "FIGURE2_SIGNS",
    "FIGURE3_SIGNS",
    "FIGURE4_SIGNS",
    "production_matrix",
    "combined_matrix",
    "default_coplot",
    "Claim",
    "render_claims",
]

#: Figure 1's final variable set: the paper removed MP, SF, U, E, C (low
#: correlations), CL and AL (slightly low), and represented parallelism by
#: its normalized variant — leaving the 9 variables of its four clusters.
FIGURE1_SIGNS: Tuple[str, ...] = ("RL", "Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im", "Ii")

#: Figure 2 swaps in the un-normalized parallelism ("the normalized
#: variables had too low correlations" once the batch outliers left).
FIGURE2_SIGNS: Tuple[str, ...] = ("RL", "Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii")

#: Figure 3 additionally drops RL and Ii (low correlations with 14 of the
#: 18 observations coming from LANL/SDSC).
FIGURE3_SIGNS: Tuple[str, ...] = ("Rm", "Ri", "Nm", "Ni", "Cm", "Ci", "Im")

#: Figure 4 uses the eight variables every synthetic model produces.
FIGURE4_SIGNS: Tuple[str, ...] = ("Rm", "Ri", "Pm", "Pi", "Cm", "Ci", "Im", "Ii")


def production_matrix(
    signs: Sequence[str],
    names: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, List[str]]:
    """Observation matrix straight from the paper's Table 1."""
    if names is None:
        names = PRODUCTION_NAMES
    rows = [dict(TABLE1[n], name=n) for n in names]
    return observation_matrix(rows, signs)


def combined_matrix(
    signs: Sequence[str],
    table1_names: Sequence[str],
    table2_names: Sequence[str],
) -> Tuple[np.ndarray, List[str]]:
    """Matrix mixing Table 1 observations with Table 2 sub-logs."""
    rows = [dict(TABLE1[n], name=n) for n in table1_names]
    rows += [dict(TABLE2[n], name=n) for n in table2_names]
    return observation_matrix(rows, signs)


def default_coplot(*, seed: int = 0, n_init: int = 8) -> Coplot:
    """The Coplot configuration every experiment shares (deterministic)."""
    return Coplot(seed=seed, n_init=n_init)


@dataclass(frozen=True)
class Claim:
    """One paper-vs-measured comparison line in a report."""

    description: str
    paper: str
    measured: str
    holds: bool

    def render(self) -> str:
        mark = "OK " if self.holds else "MISS"
        return f"[{mark}] {self.description}: paper={self.paper}, measured={self.measured}"


def render_claims(claims: Sequence[Claim]) -> str:
    """Render the claim checklist block of a report."""
    return "\n".join(c.render() for c in claims)
