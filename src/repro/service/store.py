"""Journal-backed job store: the service's durable state.

Every job state transition is one fsync'd JSON line appended to
``<state-dir>/jobs.jsonl`` through :mod:`repro.util.appendlog` — the
same crash-semantics as the runtime's run journal: a SIGKILL can tear
at most the line being written, later records for a job supersede
earlier ones, and a restarted server replays the file to recover
exactly what every job was doing.  Results themselves are *not* stored
here: a finished job records the runtime-cache key its payload was
published under, so result reads after a restart are cache reads.

Beyond job records the journal carries ``poison`` records — per-cache-key
crash counters feeding the poison-spec circuit breaker
(:mod:`repro.service.jobs`).  A worker that dies computing key *K*
journals ``{"type": "poison", "key": K, "count": n}``; counts are
last-wins like job records, so quarantine decisions survive restarts
and a pardon (count reset to 0) is just another append.

Uploads are spooled content-addressed into ``<state-dir>/uploads/`` as
``<sha256>.scan<N>.npz``, keyed by the SHA-256 of the decompressed bytes
and the scan's version *N* (:data:`repro.workload.swf.SCAN_VERSION`):
the submit's one SWF scan (:func:`repro.workload.swf.scan_swf`) stored
as its header block and columns, which the worker loads instead of
parsing the log again.  Only a log that scanned cleanly is ever spooled,
so a rejected upload leaves nothing behind; the content address
deduplicates repeated uploads of the same log and lets a re-enqueued job
find its input after a crash.  A scan of another version is never
loaded: its log counts as not spooled, so a resubmission scans it again.
A spool may also hold a log itself as ``<sha256>.swf`` (an in-process
caller writes one), which the worker parses.  Opening a state directory
deletes the spool files no server loads again: scans of another version,
a ``<sha256>.swf`` whose current-version scan exists, and the temporary
file of a spool write that a crash cut short.

The store is thread-safe with a two-lock discipline: ``_lock`` guards
the in-memory map, its index of in-flight jobs by cache key (the
submit path's dedup lookup) and the pending-line queue and is never
held across I/O; ``_io_lock`` serializes the journal appends
themselves.  Writers queue their journal line under ``_lock`` and then
:meth:`flush` — by the time ``flush`` returns, the caller's line is
fsync'd (written by this flush, or by a concurrent one that drained the
queue first, which must have completed before this one could acquire
``_io_lock``).
``create_deferred`` lets a caller that already holds its own lock (the
service's submit lock) queue the record and flush after releasing it.
The lock order is always ``_io_lock`` then ``_lock``, never reversed.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import threading
import time
import zlib
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.service.errors import ServiceError
from repro.util import appendlog
from repro.util.atomicio import atomic_open
from repro.workload.fields import FIELD_NAMES
from repro.workload.swf import SCAN_VERSION, build_workload, read_swf
from repro.workload.workload import Workload

__all__ = [
    "JOBS_JOURNAL_NAME",
    "JOB_STATES",
    "JobStore",
    "TERMINAL_STATES",
    "UPLOADS_DIR_NAME",
    "decode_upload",
    "load_upload",
]

#: Journal file name inside the service state directory.
JOBS_JOURNAL_NAME = "jobs.jsonl"

#: Upload spool directory name inside the service state directory.
UPLOADS_DIR_NAME = "uploads"

#: The spool member holding an upload's SWF header block, as JSON text;
#: every other member is one SWF column.
_HEADERS_MEMBER = "headers"

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "error", "cancelled", "poisoned")

#: States a job never leaves on its own (``retry`` can pardon them).
TERMINAL_STATES = ("done", "error", "cancelled", "poisoned")

#: States in which a job still owns its cache key (submit dedup).
_IN_FLIGHT_STATES = ("queued", "running")


class JobStore:
    """Append-only journal plus in-memory index of analysis jobs."""

    def __init__(self, state_dir: str) -> None:
        self.state_dir = state_dir
        self.uploads_dir = os.path.join(state_dir, UPLOADS_DIR_NAME)
        os.makedirs(self.uploads_dir, exist_ok=True)
        self.path = os.path.join(state_dir, JOBS_JOURNAL_NAME)
        self._lock = threading.Lock()
        self._io_lock = threading.Lock()
        self._jobs: Dict[str, Dict[str, Any]] = {}
        #: Submission (or replay) position of every job id.
        self._seq: Dict[str, int] = {}
        #: Cache key -> ids of the queued/running jobs on it.  ``pardon``
        #: can put a second job on a key, so a key holds a set.
        self._in_flight: Dict[str, Set[str]] = {}
        self._pending: List[str] = []
        self._poison: Dict[str, int] = {}
        # A crash mid-append may have left a torn, newline-less tail;
        # terminate it before this process appends anything, or the
        # first new record would glue onto the fragment and be lost.
        appendlog.repair_torn_tail(self.path)
        self._load()
        self._sweep_uploads()

    # -- journal replay ------------------------------------------------------

    def _load(self) -> None:
        try:
            records, _ = appendlog.replay(self.path)
        except OSError:
            return
        for record in records:
            if record.get("type") == "poison":
                key, count = record.get("key"), record.get("count")
                if isinstance(key, str) and isinstance(count, int):
                    self._poison[key] = count
                continue
            if record.get("type") != "job":
                continue
            job_id = record.get("id")
            if not isinstance(job_id, str):
                continue
            record.pop("type", None)
            self._store(job_id, record)  # last record wins

    def _store(self, job_id: str, record: Dict[str, Any]) -> None:
        """Install *record* as *job_id*'s state and keep the key index in
        step; caller holds ``_lock`` (or owns the store, during replay)."""
        old = self._jobs.get(job_id)
        if old is None:
            self._seq[job_id] = len(self._seq)
        old_key, new_key = _in_flight_key(old), _in_flight_key(record)
        if old_key != new_key:
            if old_key is not None:
                ids = self._in_flight[old_key]
                ids.discard(job_id)
                if not ids:
                    del self._in_flight[old_key]
            if new_key is not None:
                self._in_flight.setdefault(new_key, set()).add(job_id)
        self._jobs[job_id] = record

    def _sweep_uploads(self) -> None:
        """Delete the spool files no server loads again.

        A ``<sha256>.swf`` with no current-version scan stays: a recovered
        job still loads it.
        """
        names = set(os.listdir(self.uploads_dir))
        current = f"scan{SCAN_VERSION}.npz"
        for name in names:
            digest, _, kind = name.partition(".")
            if (
                name.endswith(".tmp")
                or (kind.startswith("scan") and kind.endswith(".npz") and kind != current)
                or (kind == "swf" and f"{digest}.{current}" in names)
            ):
                try:
                    os.remove(os.path.join(self.uploads_dir, name))
                except FileNotFoundError:
                    pass

    # -- writes --------------------------------------------------------------

    def _queue(self, record: Dict[str, Any]) -> None:
        """Queue *record*'s journal line; caller must hold ``_lock``."""
        self._pending.append(json.dumps(record, sort_keys=True))

    def flush(self) -> None:
        """Drain queued journal lines to disk (append + fsync).

        Safe to call with no outer lock held; never call it while
        holding a lock that journal writers also take.
        """
        with self._io_lock:
            with self._lock:
                lines, self._pending = self._pending, []
            if lines:
                appendlog.append(self.path, lines)

    def create_deferred(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        """Register a new ``queued`` job and queue its journal line.

        The record is *not* durable until the next :meth:`flush`; use
        this when the caller holds its own lock and must not block on
        I/O inside it.  ``None``-valued fields are dropped (an absent
        field and a null field read identically).
        """
        record = {
            "id": job_id,
            "status": "queued",
            "created_ts": round(time.time(), 6),  # repro-lint: disable=REP003 -- audit stamp, never in cache identity (REP008-verified)
            **{k: v for k, v in fields.items() if v is not None},
        }
        with self._lock:
            if job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id}")
            self._store(job_id, record)
            self._queue({"type": "job", **record})
        return dict(record)

    def create(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        """Register a new job in state ``queued`` and journal it."""
        record = self.create_deferred(job_id, **fields)
        self.flush()
        return record

    def update(self, job_id: str, **fields: Any) -> Dict[str, Any]:
        """Merge *fields* into a job's record and journal the new state.

        Setting a field to ``None`` removes it — a retried job sheds its
        stale ``error``/``wall_s`` instead of republishing them.
        """
        with self._lock:
            current = self._jobs.get(job_id)
            if current is None:
                raise KeyError(f"unknown job {job_id}")
            merged = {**current, **fields}
            merged = {k: v for k, v in merged.items() if v is not None}
            self._store(job_id, merged)
            self._queue({"type": "job", **merged})
        self.flush()
        return dict(merged)

    # -- poison circuit breaker ---------------------------------------------

    def _journal_poison(self, key: str, *, reset: bool) -> int:
        with self._lock:
            count = 0 if reset else self._poison.get(key, 0) + 1
            self._poison[key] = count
            self._queue({"type": "poison", "key": key, "count": count})
        self.flush()
        return count

    def record_key_failure(self, key: str) -> int:
        """Bump *key*'s crash counter; returns the new (journaled) count."""
        return self._journal_poison(key, reset=False)

    def pardon_key(self, key: str) -> None:
        """Reset *key*'s crash counter to zero (the ``retry`` pardon)."""
        self._journal_poison(key, reset=True)

    def poison_count(self, key: str) -> int:
        with self._lock:
            return self._poison.get(key, 0)

    # -- reads ---------------------------------------------------------------

    def get(self, job_id: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            record = self._jobs.get(job_id)
            return dict(record) if record is not None else None

    def jobs(self) -> List[Dict[str, Any]]:
        """All jobs in submission order (replayed order after a restart)."""
        with self._lock:
            return [dict(record) for record in self._jobs.values()]

    def in_flight_for_key(self, key: str) -> Optional[Dict[str, Any]]:
        """The queued/running job already working on cache key *key*.

        The earliest-submitted one when ``pardon`` has put several there.
        """
        with self._lock:
            ids = self._in_flight.get(key)
            if not ids:
                return None
            return dict(self._jobs[min(ids, key=self._seq.__getitem__)])

    def counts(self) -> Dict[str, int]:
        """Jobs per lifecycle state (for /healthz and gauges)."""
        out = {state: 0 for state in JOB_STATES}
        with self._lock:
            for record in self._jobs.values():
                state = record.get("status")
                if state in out:
                    out[state] += 1
        return out

    # -- uploads -------------------------------------------------------------

    def has_upload(self, digest: str) -> bool:
        """Whether *digest*'s upload is spooled as this scan version (so
        it scanned cleanly)."""
        return os.path.exists(_scan_path(self.uploads_dir, digest))

    def spool_upload(
        self, digest: str, headers: Mapping[str, str], columns: Mapping[str, np.ndarray]
    ) -> None:
        """Spool one upload's scan as ``<digest>.scan<N>.npz``, atomically.

        The archive is uncompressed and streamed member by member into a
        temporary file beside the target, so no in-memory copy of it is
        ever built.
        """
        with atomic_open(_scan_path(self.uploads_dir, digest)) as fh:
            np.savez(fh, **{_HEADERS_MEMBER: np.array(json.dumps(dict(headers)))}, **columns)


def decode_upload(body: bytes) -> Tuple[str, bytes]:
    """One SWF upload body's content address and decompressed bytes.

    Gzip bodies (detected by magic, like :func:`repro.workload.swf.read_swf`)
    are decompressed first so a plain and a gzipped upload of the same
    log share a digest — and therefore a cache key.  A body that is not
    a whole gzip stream raises :class:`ServiceError` ``bad_swf``.
    """
    if body[:2] == b"\x1f\x8b":
        try:
            body = gzip.decompress(body)
        except (OSError, EOFError, zlib.error) as exc:
            raise ServiceError("bad_swf", f"undecodable gzip body: {exc}") from exc
    return hashlib.sha256(body).hexdigest(), body


def load_upload(uploads_dir: str, digest: str, *, name: str) -> Workload:
    """*digest*'s upload as ``read_swf(<the log>, name=name)`` returns it.

    A spooled scan is rebuilt with the call ``read_swf`` ends in, so the
    log is not parsed again; a spooled ``<digest>.swf`` is parsed.  With
    neither (the log was never spooled, or only as another scan version)
    this raises :class:`ServiceError` ``result_evicted``.
    """
    try:
        archive = np.load(_scan_path(uploads_dir, digest), allow_pickle=False)
    except FileNotFoundError:
        pass
    else:
        with archive:
            headers = json.loads(str(archive[_HEADERS_MEMBER]))
            columns = {field: archive[field] for field in FIELD_NAMES}
        return build_workload(headers, columns, name=name)
    try:
        return read_swf(os.path.join(uploads_dir, f"{digest}.swf"), name=name)
    except FileNotFoundError:
        raise ServiceError(
            "result_evicted", f"upload {digest[:12]} is no longer stored"
        ) from None
    except ValueError as exc:
        raise ServiceError("bad_swf", f"malformed SWF upload: {exc}") from exc


def _scan_path(uploads_dir: str, digest: str) -> str:
    return os.path.join(uploads_dir, f"{digest}.scan{SCAN_VERSION}.npz")


def _in_flight_key(record: Optional[Dict[str, Any]]) -> Optional[str]:
    """The cache key *record* holds in flight, or ``None``."""
    if record is None or record.get("status") not in _IN_FLIGHT_STATES:
        return None
    key = record.get("key")
    return key if isinstance(key, str) else None
