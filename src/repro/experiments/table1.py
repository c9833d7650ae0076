"""Table 1 — production workload characteristics.

The paper's Table 1 values are embedded as targets; this experiment
synthesizes each of the ten production logs (DESIGN.md §4.1), runs the
variable extraction of :mod:`repro.workload.statistics` on the synthesized
streams, and reports measured-vs-published per cell.  It validates two
things at once: the synthesizer's calibration and the extraction code that
every other experiment relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.archive.synthesize import synthesize_all
from repro.archive.targets import PRODUCTION_NAMES, TABLE1
from repro.obs import span
from repro.util.rng import SeedLike
from repro.util.tables import format_table
from repro.workload.statistics import WorkloadStatistics, compute_statistics

__all__ = ["Table1Result", "run_table1"]

#: Variables compared (MP/SF/AL are machine constants, trivially equal).
_COMPARED = ("RL", "CL", "U", "E", "C", "Rm", "Ri", "Pm", "Pi", "Nm", "Ni", "Cm", "Ci", "Im", "Ii")

#: Cells where the synthesized log cannot match the published value because
#: the paper's own inputs conflict (see EXPERIMENTS.md):
#: * LLNL published CPU-work statistics but its CPU-time field is N/A, so
#:   the extraction falls back to runtime x processors;
#: * CTC's published Nm = 0.76 contradicts the paper's own formula
#:   (Pm / MP x 128 = 2/512 x 128 = 0.5); we match Pm and the formula.
_KNOWN_DEVIATIONS = {("LLNL", "Cm"), ("LLNL", "Ci"), ("CTC", "Nm"), ("CTC", "Ni")}


@dataclass(frozen=True)
class Table1Result:
    """Measured vs. published Table 1."""

    targets: Dict[str, Dict[str, Optional[float]]]
    measured: Dict[str, WorkloadStatistics]
    n_jobs: int

    def ratio(self, name: str, sign: str) -> float:
        """measured / published for one cell; NaN when not comparable."""
        target = self.targets[name][sign]
        if target is None or target == 0:
            return math.nan
        value = self.measured[name].by_sign()[sign]
        return value / target

    def worst_cells(self, *, tolerance: float = 0.25) -> List[tuple]:
        """Comparable cells whose ratio misses 1 by more than *tolerance*
        (known impossible cells excluded)."""
        out = []
        for name in self.targets:
            for sign in _COMPARED:
                if (name, sign) in _KNOWN_DEVIATIONS:
                    continue
                r = self.ratio(name, sign)
                if not math.isnan(r) and abs(r - 1.0) > tolerance:
                    out.append((name, sign, r))
        return sorted(out, key=lambda t: abs(t[2] - 1.0), reverse=True)

    def render(self) -> str:
        headers = ["Variable"] + list(self.targets)
        blocks = []
        for sign in _COMPARED:
            target_row = [f"{sign} (paper)"] + [
                self.targets[n][sign] for n in self.targets
            ]
            measured_row = [f"{sign} (ours)"] + [
                self.measured[n].by_sign()[sign] for n in self.targets
            ]
            blocks.append(target_row)
            blocks.append(measured_row)
        table = format_table(headers, blocks, title="Table 1: paper vs synthesized+measured")
        worst = self.worst_cells()
        summary = (
            f"\nCells off by more than 25%: "
            f"{', '.join(f'{n}.{s} (x{r:.2f})' for n, s, r in worst) if worst else 'none'}"
            f"\n(known impossible cells excluded: "
            f"{', '.join('.'.join(c) for c in sorted(_KNOWN_DEVIATIONS))})"
        )
        return table + summary


def run_table1(*, n_jobs: int = 20000, seed: SeedLike = 0) -> Table1Result:
    """Synthesize all ten production workloads and compare to Table 1."""
    workloads = synthesize_all(n_jobs=n_jobs, seed=seed)
    with span("table1.statistics", workloads=len(workloads)):
        measured = {name: compute_statistics(w) for name, w in workloads.items()}
    targets = {name: dict(TABLE1[name]) for name in PRODUCTION_NAMES}
    return Table1Result(targets=targets, measured=measured, n_jobs=n_jobs)
