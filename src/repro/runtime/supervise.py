"""One supervised attempt: a child process under a hard deadline.

:func:`supervise` is the one process-supervision primitive under both
the DAG executor's parallel mode (:class:`~repro.runtime.executor.DagExecutor`
with ``jobs >= 2``) and the service's job supervisor
(:class:`~repro.service.jobs.JobRunner`).  For one attempt it

1. starts one child process (the default :mod:`multiprocessing`
   context) running ``target(*args)``;
2. in the child, ties the child's life to the supervising thread
   (``PR_SET_PDEATHSIG``) and then sends the target's return value up
   a one-way pipe;
3. checks the pipe, the caller's ``stop()`` predicate and the deadline
   on a 50 ms tick, and SIGKILLs the child on stop or deadline;
4. always reaps the child before returning, so no zombie or orphan
   outlives the call and the child's CPU time is charged to this
   process by the time the caller sees the :class:`Outcome`.

An attempt ends one of four ways: ``ok`` (with the target's value),
``died`` (with the exit code), ``timeout`` or ``stopped`` (with the
reason ``stop()`` returned).  Errors are the target's business: a
target that wants its failures reported returns them as values — the
executor's ``_run_attempt`` and the service's ``job_worker_main`` both
do — and one that raises dies with exit code 1.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

__all__ = ["Outcome", "supervise"]

#: Seconds the supervisor waits per tick on the child's result pipe.
_TICK_S = 0.05

#: Seconds to wait for a child to exit before (re-)killing it.
_REAP_S = 5.0


@dataclass(frozen=True)
class Outcome:
    """How one supervised attempt ended."""

    kind: str  #: ``ok`` | ``died`` | ``timeout`` | ``stopped``
    elapsed_s: float
    value: Any = None  #: ``ok``: what the target returned
    exitcode: Optional[int] = None  #: the reaped child's exit code
    reason: Optional[str] = None  #: ``stopped``: what ``stop()`` returned


def supervise(
    target: Callable[..., Any],
    args: Tuple[Any, ...] = (),
    *,
    deadline_s: Optional[float] = None,
    stop: Optional[Callable[[], Optional[str]]] = None,
) -> Outcome:
    """Run ``target(*args)`` in one child process and watch it to the end.

    *deadline_s* bounds the attempt's wall time (``None``: unbounded).
    *stop* is polled once per tick; a truthy return value kills the
    child and becomes the ``stopped`` outcome's reason.
    """
    parent_conn, child_conn = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(target=_child, args=(child_conn, os.getpid(), target, args))
    started = time.monotonic()
    deadline = None if deadline_s is None else started + deadline_s
    kind, detail = None, None
    try:
        proc.start()
        child_conn.close()
        kind, detail = _watch(proc, parent_conn, deadline, stop)
    finally:
        elapsed = time.monotonic() - started
        exitcode = _reap(proc, kill=kind not in ("ok", "died"))
        parent_conn.close()
    return Outcome(
        kind,
        elapsed,
        value=detail if kind == "ok" else None,
        exitcode=exitcode,
        reason=detail if kind == "stopped" else None,
    )


def _watch(proc, conn, deadline: Optional[float], stop) -> Tuple[str, Any]:
    """Tick until the attempt ends; ``(kind, value-or-reason)``."""
    while True:
        try:
            if conn.poll(_TICK_S):
                return "ok", conn.recv()
            if not proc.is_alive():
                # Dead without a message in this tick: read any it sent
                # on the way down.
                return ("ok", conn.recv()) if conn.poll(0) else ("died", None)
        except (EOFError, OSError):
            return "died", None  # the child died with the pipe open
        reason = stop() if stop is not None else None
        if reason:
            return "stopped", reason
        if deadline is not None and time.monotonic() > deadline:
            return "timeout", None


def _reap(proc, *, kill: bool) -> Optional[int]:
    """Wait for the child, SIGKILLing it first when *kill*; its exit code.

    The exit code is read *before* ``close()`` makes the process object
    unusable.  It is ``None`` when another thread reaped the child
    first: every ``Process.start()`` polls all of this process's
    finished children, so a sibling supervisor can win the ``waitpid``.
    """
    if proc.pid is None:
        return None  # never started
    try:
        if kill:
            proc.kill()
        proc.join(_REAP_S)
        if proc.is_alive():  # pragma: no cover - wedged on the way out
            proc.kill()
            proc.join(_REAP_S)
        exitcode = proc.exitcode
        proc.close()
        return exitcode
    except (ValueError, OSError):  # reaped by another thread's start()
        return None


def _child(conn, parent_pid: int, target: Callable[..., Any], args: Tuple[Any, ...]) -> None:
    """Child-side entry: tether, run the target, send its value up."""
    _die_with_parent(parent_pid)
    value = target(*args)
    try:
        conn.send(value)
    except OSError:  # the supervisor is gone; nobody to tell
        pass


def _die_with_parent(parent_pid: int) -> None:
    """Tie this child's life to its supervisor's.

    A SIGKILLed supervisor gets no chance to kill its child, and an
    orphan would silently keep computing (and publishing to the shared
    cache) behind the next run's back.  On Linux, ``PR_SET_PDEATHSIG``
    delivers SIGKILL the moment the thread that started this child
    exits — and that thread stays blocked in :func:`supervise` until
    the child is reaped, so it exits early only with its whole process.
    The ppid check closes the race where the parent died before the
    prctl took effect.  Best-effort elsewhere.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong]
        libc.prctl.restype = ctypes.c_int
        libc.prctl(1, 9)  # PR_SET_PDEATHSIG = 1, SIGKILL = 9
    except (OSError, AttributeError):  # non-Linux: no tether, only the check
        pass
    if os.getppid() != parent_pid:
        os._exit(1)  # parent already gone; don't become an orphan
