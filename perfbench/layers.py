"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry points of each ``repro`` layer —
by patching every module attribute and class attribute that names them,
so ``from x import f`` bindings are covered too — and records one span
(group, start, end, parent) per call in memory.  Nothing under ``src/``
changes; the untraced runs never call :func:`install`.

:func:`layer_metrics` folds the spans into the per-layer metrics.  A
group's total time counts only its outermost spans (``hurst_summary``
calling ``hurst_rs`` is one span of work), and its self time is each
span's duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

#: The registry's experiment ids, in run order (one metric each).
EXPERIMENT_IDS = (
    "table1", "figure1", "figure2", "table2", "figure3", "figure4", "param",
    "load", "table3", "figure5", "paramodel", "scheduling", "stability",
)


class SpanRecorder:
    """In-memory spans of one thread: ``[group, start, end, parent, count]``."""

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []

    def wrap(
        self,
        group: Any,
        fn: Callable[..., Any],
        count: Optional[Callable[[tuple, dict, Any], float]] = None,
    ) -> Callable[..., Any]:
        """*fn* recording a span per call; *group* may be a function of the args."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            name = group(args, kwargs) if callable(group) else group
            idx = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, 0.0]
            self.spans.append(span)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                span[4] = float(count(args, kwargs, result))
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in recorded(self):
                fh.write(json.dumps(span) + "\n")


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs.get(name)


def _size(x: Any) -> int:
    return int(np.size(x))


def _file_mb(args: tuple, kwargs: dict, _result: Any) -> float:
    path = _arg(args, kwargs, 0, "path")
    if isinstance(path, (str, os.PathLike)):
        return os.path.getsize(path) / 1e6
    return 0.0


def _patch_function(fn: Callable[..., Any], wrapper: Callable[..., Any]) -> int:
    """Rebind every ``repro`` module attribute that is *fn* to *wrapper*."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                setattr(module, attr, wrapper)
                bound += 1
    return bound


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point the benchmark reports on."""
    # import_module, not ``import a.b as m``: packages re-export functions
    # under their module's name (``repro.coplot.mds.smacof`` is both).
    mod = importlib.import_module
    for name in ("repro.models.registry", "repro.service.analyses"):
        mod(name)  # binds every name the patching below must reach
    synthesize = mod("repro.archive.synthesize")
    extend = mod("repro.coplot.extend")
    smacof_mod = mod("repro.coplot.mds.smacof")
    render = mod("repro.coplot.render")
    selection = mod("repro.coplot.selection")
    registry = mod("repro.experiments.registry")
    simulator = mod("repro.scheduler.simulator")
    hurst = mod("repro.selfsim.hurst")
    periodogram = mod("repro.selfsim.periodogram")
    rs_analysis = mod("repro.selfsim.rs_analysis")
    variance_time = mod("repro.selfsim.variance_time")
    whittle = mod("repro.selfsim.whittle")
    statistics = mod("repro.workload.statistics")
    swf = mod("repro.workload.swf")
    from repro.coplot.model import Coplot
    from repro.models.base import WorkloadModel
    from repro.runtime.cache import ResultCache

    functions = [
        (smacof_mod.smacof, "coplot.smacof", lambda a, k, r: getattr(r, "n_iter", 0)),
        (selection.best_subset, "coplot.selection", None),
        (selection.eliminate_variables, "coplot.selection", None),
        (extend.bootstrap_stability, "coplot.bootstrap", None),
        (render.coplot_to_csv, "coplot.render", None),
        (render.coplot_to_svg, "coplot.render", None),
        (render.coplot_to_svg_bytes, "coplot.render", None),
        (render.render_ascii_map, "coplot.render", None),
        (synthesize.synthesize_workload, "archive.synthesize", lambda a, k, r: len(r)),
        (hurst.hurst_summary, "selfsim.hurst", lambda a, k, r: _size(_arg(a, k, 0, "x"))),
        (hurst.estimate_hurst, "selfsim.hurst", lambda a, k, r: _size(_arg(a, k, 0, "x"))),
        (rs_analysis.hurst_rs, "selfsim.hurst", lambda a, k, r: _size(_arg(a, k, 0, "x"))),
        (variance_time.hurst_variance_time, "selfsim.hurst",
         lambda a, k, r: _size(_arg(a, k, 0, "x"))),
        (periodogram.hurst_periodogram, "selfsim.hurst",
         lambda a, k, r: _size(_arg(a, k, 0, "x"))),
        (whittle.hurst_local_whittle, "selfsim.hurst", lambda a, k, r: _size(_arg(a, k, 0, "x"))),
        (simulator.simulate, "scheduler.simulate", lambda a, k, r: len(_arg(a, k, 0, "workload"))),
        (swf.read_swf, "workload.swf_parse", _file_mb),
        (statistics.compute_statistics, "workload.statistics",
         lambda a, k, r: len(_arg(a, k, 0, "workload"))),
        (registry.execute_experiment,
         lambda a, k: "experiments." + str(_arg(a, k, 0, "exp_id")), None),
    ]
    for fn, group, count in functions:
        if not _patch_function(fn, recorder.wrap(group, fn, count)):
            raise RuntimeError(f"no module binds {fn.__module__}.{fn.__name__}")

    methods = [
        (Coplot, "fit", "coplot.fit", None),
        (ResultCache, "get", "runtime.cache_get", lambda a, k, r: 1.0 if r is not None else 0.0),
        (ResultCache, "put", "runtime.cache_publish", None),
    ]
    model_classes = [WorkloadModel] + _subclasses(WorkloadModel)
    for cls in model_classes:
        if "generate" in vars(cls):
            methods.append((cls, "generate", "models.generate", lambda a, k, r: len(r)))
    for cls, attr, group, count in methods:
        setattr(cls, attr, recorder.wrap(group, vars(cls)[attr], count))


def _subclasses(cls: type) -> List[type]:
    out: List[type] = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


# -- folding spans into metrics ----------------------------------------------


def _fold(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per group: outermost calls, total and self seconds, summed counts."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] >= 0:
            child_time[span["parent"]] += span["end"] - span["start"]
    groups: Dict[str, Dict[str, float]] = {}
    for i, span in enumerate(spans):
        g = groups.setdefault(
            span["name"],
            {"calls": 0.0, "total_s": 0.0, "self_s": 0.0, "count": 0.0},
        )
        duration = span["end"] - span["start"]
        g["self_s"] += duration - child_time[i]
        outermost = True
        parent = span["parent"]
        while parent >= 0:
            if spans[parent]["name"] == span["name"]:
                outermost = False
                break
            parent = spans[parent]["parent"]
        if outermost:
            g["calls"] += 1
            g["total_s"] += duration
            g["count"] += span["count"]
    return groups


def layer_metrics(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics that come from spans (zero where a layer never ran)."""
    groups = _fold(spans)

    def g(name: str, field: str) -> float:
        return groups.get(name, {}).get(field, 0.0)

    out = {
        "coplot.smacof_calls": g("coplot.smacof", "calls"),
        "coplot.smacof_iters": g("coplot.smacof", "count"),
        "coplot.smacof_s": g("coplot.smacof", "total_s"),
        "coplot.fit_calls": g("coplot.fit", "calls"),
        "coplot.fit_self_s": g("coplot.fit", "self_s"),
        "coplot.selection_self_s": g("coplot.selection", "self_s"),
        "coplot.bootstrap_self_s": g("coplot.bootstrap", "self_s"),
        "coplot.render_s": g("coplot.render", "total_s"),
        "archive.synthesize_calls": g("archive.synthesize", "calls"),
        "archive.synthesize_jobs": g("archive.synthesize", "count"),
        "archive.synthesize_s": g("archive.synthesize", "total_s"),
        "models.generate_jobs": g("models.generate", "count"),
        "models.generate_s": g("models.generate", "total_s"),
        "selfsim.hurst_calls": g("selfsim.hurst", "calls"),
        "selfsim.hurst_points": g("selfsim.hurst", "count"),
        "selfsim.hurst_s": g("selfsim.hurst", "total_s"),
        "scheduler.simulate_jobs": g("scheduler.simulate", "count"),
        "scheduler.simulate_s": g("scheduler.simulate", "total_s"),
        "workload.swf_parse_mb": g("workload.swf_parse", "count"),
        "workload.swf_parse_s": g("workload.swf_parse", "total_s"),
        "workload.statistics_jobs": g("workload.statistics", "count"),
        "workload.statistics_s": g("workload.statistics", "total_s"),
        "runtime.cache_hits": g("runtime.cache_get", "count"),
        "runtime.cache_misses": g("runtime.cache_get", "calls") - g("runtime.cache_get", "count"),
        "runtime.cache_get_s": g("runtime.cache_get", "total_s"),
        "runtime.cache_publish_s": g("runtime.cache_publish", "total_s"),
    }
    for exp_id in EXPERIMENT_IDS:
        out[f"experiments.{exp_id}_s"] = g(f"experiments.{exp_id}", "total_s")
    return out


def load_spans(path: Path) -> List[Dict[str, Any]]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def recorded(recorder: SpanRecorder) -> List[Dict[str, Any]]:
    return [
        {"name": n, "start": s, "end": e, "parent": p, "count": c}
        for n, s, e, p, c in recorder.spans
    ]
