"""The job worker: one subprocess per job attempt.

The supervisor (:mod:`repro.service.jobs`) runs :func:`job_worker_main`
for every attempt in a fresh process under
:func:`repro.runtime.supervise.supervise`, which ties the worker's life
to the supervisor's, sends its return value up a pipe and SIGKILLs it
at the deadline, on cancellation or when a drain gives up.  Running
compute in a subprocess — not a thread — is what makes every service
deadline *hard*: a hung or runaway attempt is a process the supervisor
can kill and reap, not a thread Python cannot stop.

The worker:

1. rebuilds a tracer against the service's shared ``trace.jsonl``
   (append-per-record, so cross-process appends interleave safely) with
   the job span as parent — worker spans nest under the job span;
2. applies any armed chaos fault (crash / hang / raise) via the
   runtime's shared :func:`~repro.runtime.faults.apply_armed_fault`;
3. computes the analysis through the runtime cache
   (:func:`~repro.service.analyses.compute_analysis` publishes the
   payload under its cache key before returning);
4. returns ``{"ok", "hit", "key"}`` — *not* the payload.  The
   supervisor re-reads the payload from the cache by key, so the pipe
   never carries megabytes and a worker killed after publish loses
   nothing.

Failures are returned as values with a ``transient`` flag: spec-shaped
failures (a :class:`~repro.service.errors.ServiceError`) are permanent;
injected faults and I/O-shaped errors (cache lock contention, a
vanished upload spool on a flaky filesystem) are transient and worth a
retry.  A worker that dies without returning at all is the third case —
the supervisor sees it die and charges the poison counter.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.obs import Tracer, TraceWriter, reset_tracer, set_tracer
from repro.runtime.faults import ArmedFault, InjectedFault, apply_armed_fault
from repro.service.analyses import AnalysisSpec, compute_analysis
from repro.service.errors import ServiceError

__all__ = ["job_worker_main"]


def job_worker_main(envelope: Dict[str, Any], fault: Optional[ArmedFault] = None) -> Dict[str, Any]:
    """Run one job attempt and return its report (subprocess target)."""
    trace = envelope.get("trace") or {}
    token = None
    if trace.get("path"):
        writer = TraceWriter(
            trace["path"], trace_id=trace.get("trace_id"), write_header=False
        )
        tracer = Tracer(
            writer, trace_id=writer.trace_id, parent_id=trace.get("parent_span_id")
        )
        token = set_tracer(tracer)
    try:
        if fault is not None:
            # ``exit`` never returns; ``raise`` throws; ``hang`` stalls
            # here — inside the process the supervisor can kill.
            apply_armed_fault(fault)
        spec = AnalysisSpec(
            kind=envelope["kind"],
            input=envelope["spec"]["input"],
            params=envelope["spec"]["params"],
        )
        _payload, hit, key = compute_analysis(
            spec,
            cache_dir=envelope["cache_dir"],
            fingerprint=envelope["fingerprint"],
            uploads_dir=envelope["uploads_dir"],
        )
        return {"ok": True, "hit": hit, "key": key}
    except ServiceError as exc:
        return {"ok": False, "code": exc.code, "message": exc.message, "transient": False}
    except InjectedFault as exc:
        return {"ok": False, "code": "job_failed", "message": str(exc), "transient": True}
    except OSError as exc:
        message = f"{type(exc).__name__}: {exc}"
        return {"ok": False, "code": "job_failed", "message": message, "transient": True}
    except BaseException as exc:  # noqa: BLE001 - report, never die silently
        message = f"{type(exc).__name__}: {exc}"
        return {"ok": False, "code": "job_failed", "message": message, "transient": False}
    finally:
        if token is not None:
            reset_tracer(token)
