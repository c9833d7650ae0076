"""The experiment registry: one declarative spec per table/figure.

Historically the CLI runner kept hand-maintained ``_QUICK_KWARGS`` /
``_SEEDED`` side tables, so a new experiment could silently miss quick
mode.  Each entry is now an :class:`ExperimentSpec` that *must* declare
whether it accepts a master seed and what its quick-mode overrides are
(``{}`` is an explicit "quick mode needs no overrides"), and
:func:`validate_registry` cross-checks every declaration against the
run function's real signature.

:func:`execute_experiment` is the worker-side entry point: it runs one
experiment and flattens the result into a plain-JSON *payload* (rendered
report, claim tuples, CSV/SVG artifacts) — the unit both the runtime
cache stores and the parallel executor ships across process boundaries,
so result objects themselves never need to be picklable.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.experiments.figure1 import run_figure1
from repro.experiments.figure2 import run_figure2
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure4 import run_figure4
from repro.experiments.figure5 import run_figure5
from repro.experiments.load_alteration import run_load_alteration
from repro.experiments.parameterization import run_parameterization
from repro.experiments.parametric_model import run_parametric_model
from repro.experiments.scheduling import run_scheduling
from repro.experiments.stability import run_stability
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.table3 import run_table3

__all__ = [
    "ExperimentSpec",
    "REGISTRY",
    "build_kwargs",
    "execute_experiment",
    "execute_experiment_cached",
    "validate_registry",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the runner needs to know about one experiment.

    ``seeded`` and ``quick_kwargs`` are deliberately required: every new
    experiment must state its quick-mode story when it registers.
    """

    id: str
    run: Callable[..., Any]
    seeded: bool
    quick_kwargs: Mapping[str, Any]
    timeout_s: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "quick_kwargs", dict(self.quick_kwargs))


def _spec(
    exp_id: str,
    run: Callable[..., Any],
    quick_kwargs: Mapping[str, Any],
    *,
    seeded: bool = True,
) -> Tuple[str, ExperimentSpec]:
    return exp_id, ExperimentSpec(id=exp_id, run=run, seeded=seeded, quick_kwargs=quick_kwargs)


#: Declarative registry; insertion order is the canonical run/report order.
REGISTRY: Dict[str, ExperimentSpec] = dict(
    [
        _spec("table1", run_table1, {"n_jobs": 4000}),
        _spec("figure1", run_figure1, {}),
        _spec("figure2", run_figure2, {}),
        _spec("table2", run_table2, {"n_jobs": 4000}),
        _spec("figure3", run_figure3, {}),
        _spec("figure4", run_figure4, {"n_jobs": 4000}),
        _spec("param", run_parameterization, {}),
        _spec("load", run_load_alteration, {"n_jobs": 4000}),
        _spec("table3", run_table3, {"n_jobs": 6000}),
        _spec("figure5", run_figure5, {"n_jobs": 6000}),
        _spec("paramodel", run_parametric_model, {"n_jobs": 4000}),
        _spec("scheduling", run_scheduling, {"n_jobs": 2000}),
        _spec("stability", run_stability, {"n_boot": 15}),
    ]
)


def validate_registry(registry: Optional[Mapping[str, ExperimentSpec]] = None) -> None:
    """Check every spec's declarations against its run function's signature."""
    registry = REGISTRY if registry is None else registry
    for exp_id, spec in registry.items():
        if spec.id != exp_id:
            raise ValueError(f"registry key {exp_id!r} != spec id {spec.id!r}")
        params = inspect.signature(spec.run).parameters
        accepts_kwargs = any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()
        )
        if spec.seeded and not ("seed" in params or accepts_kwargs):
            raise ValueError(f"experiment {exp_id!r} declared seeded but takes no seed")
        unknown = [k for k in spec.quick_kwargs if k not in params and not accepts_kwargs]
        if unknown:
            raise ValueError(
                f"experiment {exp_id!r}: quick_kwargs {unknown} not accepted by {spec.run.__name__}"
            )


validate_registry()


def build_kwargs(spec: ExperimentSpec, *, seed: int, quick: bool) -> Dict[str, Any]:
    """The keyword arguments one invocation of *spec* should receive."""
    kwargs: Dict[str, Any] = {}
    if spec.seeded:
        kwargs["seed"] = seed
    if quick:
        kwargs.update(spec.quick_kwargs)
    return kwargs


def _extract_claims(result: Any) -> list:
    claims = getattr(result, "claims", None)
    if callable(claims):
        claims = claims()
    if not claims:
        return []
    return [
        {
            "description": c.description,
            "paper": c.paper,
            "measured": c.measured,
            "holds": bool(c.holds),
        }
        for c in claims
    ]


def execute_experiment(exp_id: str, kwargs: Mapping[str, Any]) -> Dict[str, Any]:
    """Run one experiment and flatten it into a JSON-safe payload.

    Runs in a worker process under ``--jobs N``; everything the CLI
    prints, caches or exports must come out of the returned payload.
    The run and render phases are traced as child spans when an ambient
    tracer is installed (no-ops otherwise).
    """
    from repro.coplot.render import coplot_to_csv, coplot_to_svg
    from repro.obs import span

    spec = REGISTRY[exp_id]
    start = time.perf_counter()
    with span("experiment.run", experiment=exp_id):
        result = spec.run(**dict(kwargs))
    compute_s = time.perf_counter() - start
    with span("experiment.render", experiment=exp_id):
        payload: Dict[str, Any] = {
            "experiment": exp_id,
            "kwargs": dict(kwargs),
            "report": result.render(),
            "claims": _extract_claims(result),
            "compute_s": round(compute_s, 6),
            "artifacts": {},
        }
        coplot = getattr(result, "coplot", None)
        if coplot is not None:
            payload["artifacts"]["csv"] = coplot_to_csv(coplot)
            payload["artifacts"]["svg"] = coplot_to_svg(coplot)
    return payload


def execute_experiment_cached(
    exp_id: str,
    kwargs: Mapping[str, Any],
    cache_dir: str,
    fingerprint: str,
    refresh: bool = False,
    obs_ctx: Optional[Mapping[str, Any]] = None,
    profile_dir: Optional[str] = None,
) -> Dict[str, Any]:
    """Run one experiment through the shared result cache, in the worker.

    Takes the per-key advisory lock, re-checks the cache, computes on a
    genuine miss and publishes the entry *before* returning — so a run
    killed after this returns can always resume from the cache, and two
    concurrent runners sharing ``cache_dir`` compute each key exactly
    once.  Returns an envelope ``{"payload", "cache_hit", "key"}``; all
    arguments are JSON-safe so the enclosing ``TaskSpec`` stays
    cache-keyable and picklable.

    *obs_ctx* is the trace propagation envelope —
    ``{"path", "trace_id", "parent_id"}`` — serialized by the parent so
    the worker's spans (cache lookup/compute/publish and in-experiment
    phases) nest under the run's trace in the shared ``trace.jsonl``.
    *profile_dir* enables per-task cProfile capture (``--profile``).
    Neither ever reaches the cache key: the key covers only
    ``(exp_id, kwargs, fingerprint)``.
    """
    from repro.obs import Tracer, TraceWriter, maybe_profile, reset_tracer, set_tracer, span
    from repro.runtime.cache import ResultCache

    token = None
    if obs_ctx and obs_ctx.get("path"):
        writer = TraceWriter(
            obs_ctx["path"], trace_id=obs_ctx.get("trace_id"), write_header=False
        )
        token = set_tracer(
            Tracer(writer, trace_id=writer.trace_id, parent_id=obs_ctx.get("parent_id"))
        )
    try:
        with span(f"task:{exp_id}", task=exp_id) as handle:
            with maybe_profile(profile_dir, exp_id):
                cache = ResultCache(cache_dir, fingerprint=fingerprint)
                key = cache.key(exp_id, kwargs)
                payload, hit = cache.get_or_compute(
                    key,
                    lambda: execute_experiment(exp_id, kwargs),
                    meta={"experiment": exp_id, "seed": dict(kwargs).get("seed")},
                    refresh=refresh,
                )
                handle.set(cache_hit=hit)
        return {"payload": payload, "cache_hit": hit, "key": key}
    finally:
        if token is not None:
            reset_tracer(token)
