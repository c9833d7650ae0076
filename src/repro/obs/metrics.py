"""Run metrics: counters, gauges and histograms with Prometheus export.

A :class:`MetricsRegistry` aggregates what one run did — cache hits,
retries, timeouts, per-task wall-time distribution, peak RSS —
and serializes to:

* ``metrics.json`` (:meth:`MetricsRegistry.to_json`), written into every
  run directory and re-loadable with :meth:`MetricsRegistry.from_json`
  (the substrate ``repro.obs diff`` and ``export`` consume);
* Prometheus text exposition format
  (:meth:`MetricsRegistry.to_prometheus`), behind ``--metrics-out`` and
  ``repro.obs export --format prom``, so a scrape-file collector or
  pushgateway ingests runs without adapters.

Metric names follow Prometheus conventions (``snake_case``, ``_total``
for counters, base-unit suffixes).  The registry is intentionally
label-free: one registry describes one run, and run identity lives in
the run directory / trace id, not in label sets.
"""

from __future__ import annotations

import json
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = ["METRICS_NAME", "METRICS_SCHEMA_VERSION", "MetricsRegistry", "WALL_BUCKETS"]

#: File name of the flushed registry inside a run directory.
METRICS_NAME = "metrics.json"

#: Bump when the metrics.json layout changes incompatibly.
METRICS_SCHEMA_VERSION = 1

#: Default histogram buckets for task wall time, in seconds.
WALL_BUCKETS: Tuple[float, ...] = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0)

Number = Union[int, float]


class MetricsRegistry:
    """Thread-safe counters, gauges and histograms for one run."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}
        # name -> (bucket uppers, per-bucket counts, +Inf count, sum, count)
        self._histograms: Dict[str, Dict[str, Any]] = {}

    # -- write side ----------------------------------------------------------

    def inc(self, name: str, value: Number = 1) -> None:
        """Increment counter *name* (created at zero on first use)."""
        if value < 0:
            raise ValueError(f"counter {name!r}: increment must be >= 0, got {value}")
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: Number) -> None:
        """Set gauge *name* to *value* (last write wins)."""
        with self._lock:
            self._gauges[name] = value

    def max_gauge(self, name: str, value: Number) -> None:
        """Raise gauge *name* to *value* if larger (peak tracking)."""
        with self._lock:
            if name not in self._gauges or value > self._gauges[name]:
                self._gauges[name] = value

    def observe(
        self, name: str, value: Number, *, buckets: Sequence[float] = WALL_BUCKETS
    ) -> None:
        """Record one observation into histogram *name*."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = {
                    "buckets": list(buckets),
                    "counts": [0] * len(buckets),
                    "inf": 0,
                    "sum": 0.0,
                    "count": 0,
                }
            for i, upper in enumerate(hist["buckets"]):
                if value <= upper:
                    hist["counts"][i] += 1
                    break
            else:
                hist["inf"] += 1
            hist["sum"] += float(value)
            hist["count"] += 1

    # -- read side -----------------------------------------------------------

    @property
    def counters(self) -> Dict[str, Number]:
        with self._lock:
            return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Number]:
        with self._lock:
            return dict(self._gauges)

    def counter(self, name: str, default: Number = 0) -> Number:
        with self._lock:
            return self._counters.get(name, default)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> str:
        with self._lock:
            doc = {
                "schema": METRICS_SCHEMA_VERSION,
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: {
                        "buckets": list(h["buckets"]),
                        "counts": list(h["counts"]),
                        "inf": h["inf"],
                        "sum": h["sum"],
                        "count": h["count"],
                    }
                    for name, h in self._histograms.items()
                },
            }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`to_json` output.

        Raises ``ValueError`` on undecodable or structurally wrong input
        — a damaged metrics.json should be loud, unlike a torn trace.
        """
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError("metrics.json: top level must be an object")
        reg = cls()
        counters = doc.get("counters", {})
        gauges = doc.get("gauges", {})
        histograms = doc.get("histograms", {})
        if not all(isinstance(m, dict) for m in (counters, gauges, histograms)):
            raise ValueError("metrics.json: counters/gauges/histograms must be objects")
        reg._counters = {str(k): v for k, v in counters.items()}
        reg._gauges = {str(k): v for k, v in gauges.items()}
        for name, h in histograms.items():
            if not isinstance(h, dict) or len(h.get("buckets", [])) != len(h.get("counts", [])):
                raise ValueError(f"metrics.json: malformed histogram {name!r}")
            reg._histograms[str(name)] = {
                "buckets": list(h["buckets"]),
                "counts": list(h["counts"]),
                "inf": int(h.get("inf", 0)),
                "sum": float(h.get("sum", 0.0)),
                "count": int(h.get("count", 0)),
            }
        return reg

    def to_prometheus(self, *, prefix: str = "repro_") -> str:
        """Prometheus text exposition format (histograms cumulative)."""
        lines: List[str] = []
        with self._lock:
            for name in sorted(self._counters):
                full = prefix + name
                lines.append(f"# TYPE {full} counter")
                lines.append(f"{full} {_fmt(self._counters[name])}")
            for name in sorted(self._gauges):
                full = prefix + name
                lines.append(f"# TYPE {full} gauge")
                lines.append(f"{full} {_fmt(self._gauges[name])}")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                full = prefix + name
                lines.append(f"# TYPE {full} histogram")
                cumulative = 0
                for upper, count in zip(h["buckets"], h["counts"]):
                    cumulative += count
                    lines.append(f'{full}_bucket{{le="{_fmt(upper)}"}} {cumulative}')
                cumulative += h["inf"]
                lines.append(f'{full}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{full}_sum {_fmt(h['sum'])}")
                lines.append(f"{full}_count {h['count']}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Flat ``kind,name,value`` CSV of counters and gauges."""
        lines = ["kind,name,value"]
        with self._lock:
            for name in sorted(self._counters):
                lines.append(f"counter,{name},{_fmt(self._counters[name])}")
            for name in sorted(self._gauges):
                lines.append(f"gauge,{name},{_fmt(self._gauges[name])}")
            for name in sorted(self._histograms):
                h = self._histograms[name]
                lines.append(f"histogram_sum,{name},{_fmt(h['sum'])}")
                lines.append(f"histogram_count,{name},{h['count']}")
        return "\n".join(lines) + "\n"


def _fmt(value: Number) -> str:
    """Render a number the way Prometheus expects (no float noise on ints)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    as_int = int(value)
    return str(as_int) if value == as_int else repr(value)
