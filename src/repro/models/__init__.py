"""The five synthetic workload models the paper evaluates (Section 7).

Each model generates a full job stream — inter-arrival times, runtimes and
degrees of parallelism (plus the implied total CPU work), which are exactly
the eight variables Figure 4 compares.  All are reimplemented from their
published descriptions:

* :class:`~repro.models.feitelson96.Feitelson96Model` — hand-tailored job
  sizes emphasizing small jobs and powers of two, runtime correlated with
  size, repeated job executions (Feitelson, JSSPP 1996).
* :class:`~repro.models.feitelson97.Feitelson97Model` — the 1997
  modification with stronger power-of-two emphasis and a three-stage
  hyper-exponential runtime (Feitelson & Jette, JSSPP 1997).
* :class:`~repro.models.downey.DowneyModel` — log-uniform total service
  time and average parallelism (Downey, HPDC 1997).
* :class:`~repro.models.jann.JannModel` — hyper-Erlang distributions of
  common order matched to the first three moments per job-size range
  (Jann et al., JSSPP 1997).
* :class:`~repro.models.lublin.LublinModel` — hyper-gamma runtimes
  correlated with a power-of-two-emphasizing size distribution and a
  daily-cycle arrival process (Lublin, 1999).
"""

from repro.models.base import WorkloadModel
from repro.models.feitelson96 import Feitelson96Model
from repro.models.feitelson97 import Feitelson97Model
from repro.models.downey import DowneyModel
from repro.models.jann import JannModel, JannRangeParameters
from repro.models.lublin import LublinModel
from repro.models.parametric import ParametricWorkloadModel
from repro.models.usersession import UserSessionModel, UserProfile
from repro.models.registry import MODEL_NAMES, create_model
from repro.models.validation import (
    ModelFitReport,
    VariableFit,
    MarginalFit,
    validate_model,
    rank_models,
)

__all__ = [
    "WorkloadModel",
    "Feitelson96Model",
    "Feitelson97Model",
    "DowneyModel",
    "JannModel",
    "JannRangeParameters",
    "LublinModel",
    "ParametricWorkloadModel",
    "UserSessionModel",
    "UserProfile",
    "MODEL_NAMES",
    "create_model",
    "ModelFitReport",
    "VariableFit",
    "MarginalFit",
    "validate_model",
    "rank_models",
]
