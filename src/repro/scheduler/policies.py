"""Scheduling policies — the paper's scheduler-flexibility ranks.

Section 3 ranks schedulers by increasing flexibility: the NQS batch
queuing system (plain FCFS queueing), the EASY scheduler "which uses
backfilling", and gang schedulers.  This module implements the two
space-shared ranks, FCFS and EASY backfilling; time-slicing gang
scheduling has its own simulator (:mod:`repro.scheduler.gang`).

All policies receive perfect runtime estimates (the "pure model" stance
the paper takes for the generators); the simulator's estimate handling is
factored so inaccurate estimates can be injected for sensitivity studies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = [
    "QueuedJob",
    "Scheduler",
    "FcfsScheduler",
    "EasyBackfillScheduler",
]


@dataclass(frozen=True)
class QueuedJob:
    """A job waiting in the scheduler's queue."""

    index: int  #: position in the originating workload
    submit: float
    size: int  #: processors consumed (post-allocator)
    runtime: float  #: actual runtime
    estimate: float  #: runtime estimate the scheduler may rely on


class Scheduler(abc.ABC):
    """Decides which queued jobs start now."""

    name: str = "scheduler"

    #: Declares that once :meth:`select` returns no jobs, it keeps
    #: returning no jobs until a processor frees up, no matter how many
    #: jobs arrive behind the blocked head.  True for policies that never
    #: let a later job overtake an earlier one (FCFS); backfilling
    #: policies must leave it False.  The simulator's fast path uses this
    #: to skip provably-empty policy calls.
    tail_blind: bool = False

    @abc.abstractmethod
    def select(
        self,
        clock: float,
        queue: Sequence[QueuedJob],
        free: int,
        running: Sequence[Tuple[float, int]],
    ) -> List[QueuedJob]:
        """Return the jobs to start at *clock*, in start order.

        Parameters
        ----------
        clock:
            Current simulation time.
        queue:
            Waiting jobs in FCFS (submit) order.
        free:
            Currently idle processors.
        running:
            ``(end_time, size)`` of currently running jobs (end times are
            the scheduler-visible estimates).
        """


class FcfsScheduler(Scheduler):
    """First-come-first-served: start the head while it fits, never jump
    the queue (the NQS-style baseline, flexibility rank 1)."""

    name = "FCFS"
    tail_blind = True

    def select(self, clock, queue, free, running):
        started = []
        for job in queue:
            if job.size <= free:
                started.append(job)
                free -= job.size
            else:
                break
        return started


class EasyBackfillScheduler(Scheduler):
    """EASY (aggressive) backfilling, flexibility rank 2.

    The head of the queue gets a reservation at the *shadow time* — the
    earliest instant enough processors will be free.  Any later job may
    jump the queue if it fits now and either finishes by the shadow time
    or only uses the *extra* processors the head will not need.
    """

    name = "EASY"

    def select(self, clock, queue, free, running):
        started = []
        queue = list(queue)
        # Start head jobs normally first.
        while queue and queue[0].size <= free:
            job = queue.pop(0)
            started.append(job)
            free -= job.size
        if not queue or free <= 0:
            return started

        head = queue[0]
        # Shadow time: walk future completions until the head fits.
        shadow = None
        extra = 0
        avail = free
        for end, size in sorted(running) + sorted(
            (clock + j.estimate, j.size) for j in started
        ):
            avail += size
            if avail >= head.size:
                shadow = end
                extra = avail - head.size
                break
        if shadow is None:
            # Head can never fit (should be prevented by validation).
            return started

        backfill_extra = min(extra, free)
        for job in queue[1:]:
            if job.size > free:
                continue
            ends_by_shadow = clock + job.estimate <= shadow
            within_extra = job.size <= backfill_extra
            if ends_by_shadow or within_extra:
                started.append(job)
                free -= job.size
                if not ends_by_shadow:
                    backfill_extra -= job.size
                backfill_extra = min(backfill_extra, free)
                if free <= 0:
                    break
        return started
