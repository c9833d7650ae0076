"""Analysis specs and their execution, behind the runtime cache.

One HTTP submission is parsed into an :class:`AnalysisSpec` — a
validated, *canonical* description of what to compute:

* ``kind`` — ``"coplot"`` (the uploaded/named workload mapped among the
  paper's Table 1 production observations), ``"hurst"`` (the Table 3
  estimator panel over the four attribute series), ``"compare"`` (the
  workload co-plotted against the synthetic models, Figure 4 style) or
  ``"experiment"`` (one registry experiment, e.g. ``figure2``);
* ``input`` — where the workload comes from: an upload (identified by
  the SHA-256 of its decompressed bytes), a named archive workload
  (``"CTC"`` ... ``"S4"``), or a named model (``"Lublin"`` ...);
* ``params`` — kind-specific knobs, every one defaulted, so the
  canonical form is total and two equivalent requests collide.

The canonical form *is* the cache identity: :func:`compute_analysis`
routes through :meth:`repro.runtime.cache.ResultCache.get_or_compute`
keyed on ``(kind, canonical spec, source fingerprint)``, so repeated
analyses — across requests, tenants and server restarts — are single
file reads, and concurrent identical submissions compute once under the
per-key lock.  Payloads are JSON-safe documents (NaN scrubbed to
``null``) holding the embedding / Hurst panel / comparison numbers plus
rendered CSV and SVG artifacts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.archive.synthesize import MIN_N_JOBS, synthesize_workload
from repro.archive.targets import PRODUCTION_NAMES, TABLE1, TABLE2_NAMES
from repro.coplot.model import Coplot, CoplotResult
from repro.coplot.render import coplot_to_csv, coplot_to_svg_bytes
from repro.experiments.common import FIGURE2_SIGNS
from repro.experiments.registry import REGISTRY, build_kwargs, execute_experiment_cached
from repro.models.registry import MODEL_NAMES, create_model
from repro.obs import span
from repro.runtime.cache import ResultCache
from repro.selfsim.hurst import HURST_METHODS, hurst_summary
from repro.selfsim.series import SERIES_ATTRIBUTES, workload_series
from repro.service.errors import ServiceError
from repro.service.store import load_upload
from repro.workload.statistics import compute_statistics
from repro.workload.variables import MODEL_COMPARABLE_SIGNS, VARIABLES, observation_matrix
from repro.workload.workload import Workload

__all__ = [
    "ANALYSIS_KINDS",
    "AnalysisSpec",
    "compute_analysis",
    "parse_analysis_request",
    "spec_cache_key",
]

#: The analysis kinds the service accepts.
ANALYSIS_KINDS = ("coplot", "hurst", "compare", "experiment")

#: Workload names accepted by the ``{"workload": ...}`` input form.
_NAMED_WORKLOADS = tuple(PRODUCTION_NAMES) + tuple(TABLE2_NAMES)

#: Hurst methods cheap enough to run by default (Table 3's panel).
_DEFAULT_HURST_METHODS = HURST_METHODS[:3]


@dataclass(frozen=True)
class AnalysisSpec:
    """One validated analysis request in canonical form."""

    kind: str
    input: Mapping[str, Any]
    params: Mapping[str, Any]

    def canonical(self) -> Dict[str, Any]:
        """The JSON document the cache key is computed over."""
        return {"kind": self.kind, "input": dict(self.input), "params": dict(self.params)}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ServiceError("invalid_spec", message)


def _int_param(doc: Mapping[str, Any], key: str, default: int, *, low: int = 0) -> int:
    value = doc.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= low,
             f"{key!r} must be an integer >= {low}")
    return value


def _parse_input(doc: Any, kind: str, upload_digest: Optional[str]) -> Dict[str, Any]:
    """Validate the ``input`` section into its canonical form."""
    doc = {} if doc is None else doc
    _require(isinstance(doc, Mapping), "'input' must be an object")
    forms = [k for k in ("upload", "workload", "model", "experiment") if k in doc]
    if upload_digest is not None:
        _require(not forms, "raw-body uploads must not also name an input")
        return {"upload": upload_digest}
    _require(len(forms) == 1,
             "input must name exactly one of 'upload', 'workload', 'model', 'experiment'")
    form = forms[0]
    if kind == "experiment":
        _require(form == "experiment", "kind 'experiment' needs an {'experiment': id} input")
    else:
        _require(form != "experiment", f"kind {kind!r} needs a workload input, not an experiment")
    if form == "upload":
        digest = doc["upload"]
        _require(isinstance(digest, str) and len(digest) == 64, "'upload' must be a SHA-256 digest")
        return {"upload": digest}
    if form == "workload":
        name = doc["workload"]
        _require(name in _NAMED_WORKLOADS,
                 f"unknown workload {name!r}; known: {', '.join(_NAMED_WORKLOADS)}")
        return {
            "workload": name,
            "n_jobs": _int_param(doc, "n_jobs", 2000, low=MIN_N_JOBS),
            "seed": _int_param(doc, "seed", 0),
        }
    if form == "model":
        name = doc["model"]
        _require(name in MODEL_NAMES, f"unknown model {name!r}; known: {', '.join(MODEL_NAMES)}")
        return {
            "model": name,
            "n_jobs": _int_param(doc, "n_jobs", 2000, low=1),
            "seed": _int_param(doc, "seed", 0),
        }
    exp_id = doc["experiment"]
    _require(exp_id in REGISTRY, f"unknown experiment {exp_id!r}; known: {', '.join(REGISTRY)}")
    return {
        "experiment": exp_id,
        "seed": _int_param(doc, "seed", 0),
        "quick": bool(doc.get("quick", True)),
    }


def _parse_signs(doc: Mapping[str, Any], default: Tuple[str, ...]) -> List[str]:
    signs = doc.get("signs", list(default))
    _require(isinstance(signs, (list, tuple)) and len(signs) >= 1, "'signs' must be a list")
    unknown = [s for s in signs if s not in VARIABLES]
    _require(not unknown, f"unknown variable sign(s): {unknown}")
    _require(len(set(signs)) == len(signs), "'signs' must be unique")
    return [str(s) for s in signs]


def _parse_params(doc: Any, kind: str) -> Dict[str, Any]:
    doc = {} if doc is None else doc
    _require(isinstance(doc, Mapping), "'params' must be an object")
    if kind == "coplot":
        return {
            "signs": _parse_signs(doc, FIGURE2_SIGNS),
            "seed": _int_param(doc, "seed", 0),
            "n_init": _int_param(doc, "n_init", 8, low=1),
            "label": str(doc.get("label", "upload")),
        }
    if kind == "hurst":
        attrs = doc.get("attributes", list(SERIES_ATTRIBUTES))
        _require(isinstance(attrs, (list, tuple)) and len(attrs) >= 1,
                 "'attributes' must be a non-empty list")
        unknown = [a for a in attrs if a not in SERIES_ATTRIBUTES]
        _require(not unknown, f"unknown series attribute(s): {unknown}")
        methods = doc.get("methods", list(_DEFAULT_HURST_METHODS))
        _require(isinstance(methods, (list, tuple)) and len(methods) >= 1,
                 "'methods' must be a non-empty list")
        unknown = [m for m in methods if m not in HURST_METHODS]
        _require(not unknown, f"unknown Hurst method(s): {unknown}")
        return {"attributes": [str(a) for a in attrs], "methods": [str(m) for m in methods]}
    if kind == "compare":
        models = doc.get("models", list(MODEL_NAMES))
        _require(isinstance(models, (list, tuple)) and len(models) >= 2,
                 "'models' must list at least two models")
        unknown = [m for m in models if m not in MODEL_NAMES]
        _require(not unknown, f"unknown model(s): {unknown}")
        return {
            "models": [str(m) for m in models],
            "signs": _parse_signs(doc, MODEL_COMPARABLE_SIGNS),
            "n_jobs": _int_param(doc, "n_jobs", 2000, low=1),
            "seed": _int_param(doc, "seed", 0),
            "n_init": _int_param(doc, "n_init", 8, low=1),
            "label": str(doc.get("label", "upload")),
        }
    return {}  # experiment: seed/quick live on the input reference


def parse_analysis_request(
    doc: Any, *, upload_digest: Optional[str] = None
) -> AnalysisSpec:
    """Validate one submission document into a canonical spec.

    *upload_digest* is set by the HTTP layer when the request body was a
    raw SWF upload; the input section is then derived from it.  Raises
    :class:`ServiceError` (code ``invalid_spec``) on anything malformed.
    """
    _require(isinstance(doc, Mapping), "request body must be a JSON object")
    kind = doc.get("kind", "coplot")
    _require(kind in ANALYSIS_KINDS,
             f"unknown analysis kind {kind!r}; known: {', '.join(ANALYSIS_KINDS)}")
    input_doc = _parse_input(doc.get("input"), kind, upload_digest)
    params = _parse_params(doc.get("params"), kind)
    return AnalysisSpec(kind=kind, input=input_doc, params=params)


# -- execution ----------------------------------------------------------------


def spec_cache_key(spec: AnalysisSpec, cache: ResultCache) -> str:
    """The runtime-cache key one spec resolves to (dedup + journal id).

    Experiment references share the CLI runner's key space — a service
    request for ``figure2`` hits the cache entry a ``make experiments``
    run published, and vice versa.
    """
    if spec.kind == "experiment":
        exp_id = spec.input["experiment"]
        kwargs = build_kwargs(
            REGISTRY[exp_id], seed=spec.input["seed"], quick=spec.input["quick"]
        )
        return cache.key(exp_id, kwargs)
    return cache.key(f"service:{spec.kind}", spec.canonical())


def _json_safe(value: Any) -> Any:
    """Recursively scrub NaN/Inf to None so responses are strict JSON."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.floating):
        return _json_safe(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _load_workload(spec: AnalysisSpec, uploads_dir: str) -> Workload:
    source = spec.input
    if "upload" in source:
        return load_upload(uploads_dir, source["upload"], name=spec.params.get("label", "upload"))
    if "workload" in source:
        return synthesize_workload(
            source["workload"], n_jobs=source["n_jobs"], seed=source["seed"]
        )
    model = create_model(source["model"])
    return model.generate(source["n_jobs"], seed=source["seed"])


def _map_payload(result: CoplotResult) -> Dict[str, Any]:
    return {
        "labels": list(result.labels),
        "signs": list(result.signs),
        "coords": result.coords,
        "alienation": result.alienation,
        "average_correlation": result.average_correlation,
        "min_correlation": result.min_correlation,
        "arrows": [
            {
                "sign": a.sign,
                "dx": float(a.direction[0]),
                "dy": float(a.direction[1]),
                "angle_degrees": a.angle_degrees,
                "correlation": a.correlation,
            }
            for a in result.arrows
        ],
        "clusters": result.variable_clusters(),
        "outliers": result.outliers(),
    }


def _artifacts(result: CoplotResult) -> Dict[str, str]:
    return {
        "csv": coplot_to_csv(result),
        "svg": coplot_to_svg_bytes(result).decode("utf-8"),
    }


def _workload_info(workload: Workload) -> Dict[str, Any]:
    return {"name": workload.name, "jobs": len(workload)}


def _compute_coplot(spec: AnalysisSpec, workload: Workload) -> Dict[str, Any]:
    """The workload's Table 1 row mapped among the production logs."""
    params = spec.params
    stats = compute_statistics(workload)
    label = workload.name
    while label in PRODUCTION_NAMES:  # e.g. the synthesized "CTC" vs Table 1's
        label += "*"
    rows: List[Any] = [dict(TABLE1[n], name=n) for n in PRODUCTION_NAMES]
    rows.append(dict(stats.by_sign(), name=label))
    y, labels = observation_matrix(rows, params["signs"])
    coplot = Coplot(seed=params["seed"], n_init=params["n_init"])
    result = coplot.fit(y, labels=labels, signs=params["signs"])
    distances = result.distances_from(label)
    return {
        "kind": "coplot",
        "workload": _workload_info(workload),
        "variables": stats.by_sign(),
        "map": _map_payload(result),
        "nearest": next(iter(distances), None),
        "distances": distances,
        "artifacts": _artifacts(result),
    }


def _compute_hurst(spec: AnalysisSpec, workload: Workload) -> Dict[str, Any]:
    """Table 3's estimator panel over the requested attribute series."""
    methods = spec.params["methods"]
    panel: Dict[str, Any] = {}
    for attribute in spec.params["attributes"]:
        series = workload_series(workload, attribute)
        estimates = hurst_summary(series, include_whittle="whittle" in methods)
        panel[attribute] = {
            "n": int(series.size),
            "estimates": {m: estimates.get(m, math.nan) for m in methods},
        }
    return {"kind": "hurst", "workload": _workload_info(workload), "panel": panel}


def _compute_compare(spec: AnalysisSpec, workload: Workload) -> Dict[str, Any]:
    """Figure 4 style: the workload mapped against the synthetic models."""
    params = spec.params
    label = workload.name
    while label in params["models"]:  # a model input compared against itself
        label += "*"
    rows: List[Any] = [dict(compute_statistics(workload).by_sign(), name=label)]
    for name in params["models"]:
        model = create_model(name)
        generated = model.generate(params["n_jobs"], seed=params["seed"])
        rows.append(compute_statistics(generated))
    y, labels = observation_matrix(rows, params["signs"])
    coplot = Coplot(seed=params["seed"], n_init=params["n_init"])
    result = coplot.fit(y, labels=labels, signs=params["signs"])
    distances = result.distances_from(label)
    return {
        "kind": "compare",
        "workload": _workload_info(workload),
        "models": list(params["models"]),
        "map": _map_payload(result),
        "distances": distances,
        "nearest_model": next(iter(distances), None),
        "artifacts": _artifacts(result),
    }


_COMPUTE = {"coplot": _compute_coplot, "hurst": _compute_hurst, "compare": _compute_compare}


def compute_analysis(
    spec: AnalysisSpec,
    *,
    cache_dir: str,
    fingerprint: str,
    uploads_dir: str,
    refresh: bool = False,
) -> Tuple[Dict[str, Any], bool, str]:
    """Execute one spec through the runtime cache.

    Returns ``(payload, cache_hit, key)``.  Runs inside a service worker
    thread; ambient spans (``task:...`` here, ``cache.lookup`` /
    ``cache.compute`` / ``cache.publish`` inside ``get_or_compute``)
    nest under the job span the worker opened.
    """
    cache = ResultCache(cache_dir, fingerprint=fingerprint)
    key = spec_cache_key(spec, cache)
    if spec.kind == "experiment":
        exp_id = spec.input["experiment"]
        kwargs = build_kwargs(
            REGISTRY[exp_id], seed=spec.input["seed"], quick=spec.input["quick"]
        )
        envelope = execute_experiment_cached(
            exp_id, kwargs, cache_dir, fingerprint, refresh=refresh
        )
        return envelope["payload"], bool(envelope["cache_hit"]), envelope["key"]

    def _run() -> Dict[str, Any]:
        workload = _load_workload(spec, uploads_dir)
        return _json_safe(_COMPUTE[spec.kind](spec, workload))

    with span(f"task:service.{spec.kind}", key=key[:12]) as handle:
        payload, hit = cache.get_or_compute(
            key, _run, meta={"service": spec.kind}, refresh=refresh
        )
        handle.set(cache_hit=hit)
    return payload, hit, key
