"""Experiment harness: one module per table/figure of the paper.

Every experiment returns a result object with the measured quantities, the
paper's corresponding numbers, and a ``render()`` method producing the
text report; ``python -m repro.experiments`` runs any or all of them.

Experiment index (see DESIGN.md §3):

========  ==================================================================
id        reproduces
========  ==================================================================
table1    Table 1 — production workload characteristics (via synthesis)
figure1   Figure 1 — Co-plot of all production workloads, variable clusters
figure2   Figure 2 — Co-plot without the batch outliers
table2    Table 2 — six-month sub-log characteristics (via synthesis)
figure3   Figure 3 — workloads over time (L1-L4, S1-S4)
figure4   Figure 4 — production vs. the five synthetic models
param     Section 8 — 3-variable parameterization search
load      Section 8 — naive load-alteration techniques ablation
table3    Table 3 — Hurst estimates for all 15 workloads
figure5   Figure 5 — Co-plot of the self-similarity estimates
paramodel Section 8 extension — the parametric workload model, built
scheduling Future-work extension — self-similarity's effect on schedulers
stability Extension — bootstrap stability of the Figure 1 findings
========  ==================================================================
"""

from repro.experiments.registry import (
    REGISTRY,
    ExperimentSpec,
    build_kwargs,
    execute_experiment,
    validate_registry,
)
from repro.experiments.table1 import Table1Result, run_table1
from repro.experiments.figure1 import Figure1Result, run_figure1
from repro.experiments.figure2 import Figure2Result, run_figure2
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.figure3 import Figure3Result, run_figure3
from repro.experiments.figure4 import Figure4Result, run_figure4
from repro.experiments.parameterization import ParameterizationResult, run_parameterization
from repro.experiments.load_alteration import LoadAlterationResult, run_load_alteration
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.figure5 import Figure5Result, run_figure5
from repro.experiments.parametric_model import ParametricModelResult, run_parametric_model
from repro.experiments.scheduling import SchedulingResult, run_scheduling
from repro.experiments.stability import StabilityResult, run_stability

__all__ = [
    "REGISTRY",
    "ExperimentSpec",
    "build_kwargs",
    "execute_experiment",
    "validate_registry",
    "run_table1",
    "run_figure1",
    "run_figure2",
    "run_table2",
    "run_figure3",
    "run_figure4",
    "run_parameterization",
    "run_load_alteration",
    "run_table3",
    "run_figure5",
    "run_parametric_model",
    "run_scheduling",
    "run_stability",
    "Table1Result",
    "Figure1Result",
    "Figure2Result",
    "Table2Result",
    "Figure3Result",
    "Figure4Result",
    "ParameterizationResult",
    "LoadAlterationResult",
    "Table3Result",
    "Figure5Result",
    "ParametricModelResult",
    "SchedulingResult",
    "StabilityResult",
]
