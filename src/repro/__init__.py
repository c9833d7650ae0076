"""repro — reproduction of *Comparing Logs and Models of Parallel Workloads
Using the Co-plot Method* (Talby, Feitelson & Raveh, IPPS 1999).

Subpackages
-----------
``repro.coplot``
    The Co-plot method: normalization, city-block dissimilarities,
    from-scratch nonmetric MDS (Guttman SSA / SMACOF), coefficient of
    alienation, variable arrows, variable selection, map rendering.
``repro.workload``
    Workload data model: SWF reader/writer, column-store container,
    filters, and the paper's 18 workload variables.
``repro.models``
    The five synthetic workload models (Feitelson '96/'97, Downey, Jann,
    Lublin), reimplemented from their published descriptions.
``repro.selfsim``
    Self-similarity toolkit: R/S, variance-time and periodogram Hurst
    estimators, local Whittle, exact fractional Gaussian noise.
``repro.archive``
    The simulated parallel-workloads archive: the paper's Tables 1-3
    embedded verbatim plus a calibrated log synthesizer.
``repro.stats``
    Distributions and statistics substrate.
``repro.runtime``
    Experiment engine: parallel DAG executor with timeouts/retries, a
    content-addressed result cache, structured JSONL telemetry.
``repro.experiments``
    One module per table/figure; ``python -m repro.experiments`` runs all.

Quickstart
----------
>>> from repro import Coplot
>>> from repro.experiments.common import production_matrix, FIGURE1_SIGNS
>>> y, labels = production_matrix(FIGURE1_SIGNS)
>>> result = Coplot().fit(y, labels=labels, signs=list(FIGURE1_SIGNS))
>>> result.alienation  # doctest: +SKIP
0.068
"""

import importlib
from typing import Any, List

__version__ = "1.0.0"

#: Each public name and the subpackage that defines it.  A subpackage is
#: imported when one of its names is first used (PEP 562), so ``python -m
#: repro.lint`` or ``repro.obs`` never loads the compute packages or scipy.
_EXPORTS = {
    name: module
    for module, names in {
        "repro.coplot": ("Coplot", "CoplotResult", "smallest_space_analysis"),
        "repro.workload": ("Workload", "MachineInfo", "read_swf", "write_swf",
                           "compute_statistics"),
        "repro.models": ("Feitelson96Model", "Feitelson97Model", "DowneyModel", "JannModel",
                         "LublinModel"),
        "repro.selfsim": ("estimate_hurst", "hurst_summary", "fgn"),
        "repro.archive": ("synthesize_workload", "synthesize_all"),
    }.items()
    for name in names
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
