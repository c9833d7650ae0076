"""Experiment runtime: parallel DAG executor, result cache, run journal.

The runtime layer is what lets ``python -m repro.experiments`` scale
past a serial for-loop while staying byte-for-byte reproducible:

* :mod:`repro.runtime.task` / :mod:`repro.runtime.executor` — tasks as
  a dependency DAG, run inline or one supervised worker process per
  attempt, with per-task timeouts, bounded jittered retries and
  graceful degradation (a failed experiment is reported, the rest of
  the batch completes);
* :mod:`repro.runtime.supervise` — the supervised-attempt primitive
  (spawn, watch, kill, reap) under both the executor and the service's
  job supervisor;
* :mod:`repro.runtime.cache` / :mod:`repro.runtime.fingerprint` — a
  content-addressed result cache keyed on ``(experiment id, kwargs,
  code fingerprint)``, checksummed on read, with advisory per-key locks
  so concurrent runs compute each key exactly once;
* :mod:`repro.runtime.schedule` — journal-driven longest-first (LPT)
  submission order for cache misses, with an exact input-order
  fallback when no history exists;
* :mod:`repro.runtime.faults` — seeded, replayable fault injection
  (``--chaos``) for exercising the failure paths on purpose;
* :mod:`repro.runtime.journal` — the append-only crash journal that
  backs ``--resume`` (on :mod:`repro.util.appendlog`).

Tracing and metrics live in :mod:`repro.obs` (docs/OBSERVABILITY.md);
the executor reports its events through an ``on_event`` hook.

The layer is deliberately generic: it knows nothing about Co-plots or
workload models, only picklable callables — see docs/RUNTIME.md and
docs/ROBUSTNESS.md.
"""

from repro.runtime.cache import CacheKeyError, ResultCache, cache_key, canonical_json
from repro.runtime.executor import DagExecutor, backoff_delay
from repro.runtime.faults import FaultPlan, FaultRule, InjectedFault, parse_chaos_spec
from repro.runtime.fingerprint import code_fingerprint, tree_fingerprint
from repro.runtime.journal import JOURNAL_NAME, RunJournal
from repro.runtime.schedule import historical_wall_times, longest_first
from repro.runtime.task import TaskResult, TaskSpec, TaskStatus, toposort

__all__ = [
    "CacheKeyError",
    "DagExecutor",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "JOURNAL_NAME",
    "ResultCache",
    "RunJournal",
    "TaskResult",
    "TaskSpec",
    "TaskStatus",
    "backoff_delay",
    "cache_key",
    "canonical_json",
    "code_fingerprint",
    "historical_wall_times",
    "longest_first",
    "parse_chaos_spec",
    "toposort",
    "tree_fingerprint",
]
