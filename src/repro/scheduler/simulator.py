"""Event-driven space-shared machine simulator.

Drives a :class:`~repro.workload.workload.Workload` through a scheduling
policy and a processor allocator, producing per-job start times and
machine-level traces.  The loop is the classic two-event-source design:
job arrivals and job completions; the scheduler is consulted after every
event batch.

:func:`simulate` is an array-fast loop: bulk allocator validation
(:meth:`~repro.scheduler.allocator.ProcessorAllocator.validate_array`),
pre-extracted Python scalars for the per-event hot path, bisect-batched
arrivals, a deque queue with a prefix fast path, preallocated depth
buffers, and a skipped policy call when no processor is free.  The
original per-event loop it replaced is the equivalence oracle in
``tests/oracles/simulator.py``; ``tests/scheduler/test_simulator_equivalence.py``
asserts identical schedules across policies and seeds.

The fast path relies on the documented :class:`Scheduler` contract:
``select`` is a pure function of its arguments (it must not mutate the
queue or running list) and returns no jobs when ``free == 0`` — true of
all built-in policies.
"""

from __future__ import annotations

import bisect
import heapq
from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.scheduler.allocator import ProcessorAllocator, UnlimitedAllocator, allocator_for_flexibility
from repro.scheduler.policies import QueuedJob, Scheduler
from repro.workload.fields import MISSING
from repro.workload.workload import Workload

__all__ = ["ScheduleResult", "simulate"]


@dataclass(frozen=True)
class ScheduleResult:
    """Everything the simulator records.

    Attributes
    ----------
    submit, start, runtime, consumed:
        Per-job arrays (arrival order).
    queue_depth_times, queue_depths:
        Queue length sampled after every simulation event.
    machine_procs:
        Capacity of the simulated machine.
    """

    submit: np.ndarray
    start: np.ndarray
    runtime: np.ndarray
    consumed: np.ndarray
    queue_depth_times: np.ndarray
    queue_depths: np.ndarray
    machine_procs: int
    scheduler_name: str

    @property
    def wait(self) -> np.ndarray:
        """Per-job waiting times."""
        return self.start - self.submit

    @property
    def end(self) -> np.ndarray:
        """Per-job completion times."""
        return self.start + self.runtime

    @property
    def makespan(self) -> float:
        """First submit to last completion."""
        if self.submit.size == 0:
            return 0.0
        return float(self.end.max() - self.submit.min())

    def utilization(self) -> float:
        """Busy node-seconds over capacity node-seconds (consumed sizes)."""
        span = self.makespan
        if span <= 0:
            return 0.0
        busy = float(np.sum(self.runtime * self.consumed))
        return busy / (self.machine_procs * span)


def _prepare(workload: Workload, allocator: Optional[ProcessorAllocator]):
    machine = workload.machine
    if allocator is None:
        if machine.allocation_flexibility != MISSING:
            allocator = allocator_for_flexibility(machine.allocation_flexibility)
        else:
            allocator = UnlimitedAllocator()
    ordered = workload.sorted_by_submit()
    submit_all = ordered.column("submit_time")
    run_all = ordered.column("run_time")
    size_all = ordered.column("used_procs")
    usable = (run_all >= 0) & (size_all >= 1) & (submit_all >= 0)
    submit = submit_all[usable].astype(float)
    runtime = run_all[usable].astype(float)
    requested = size_all[usable].astype(int)
    return machine, allocator, submit, runtime, requested


def simulate(
    workload: Workload,
    scheduler: Scheduler,
    allocator: Optional[ProcessorAllocator] = None,
    *,
    estimate_factor: float = 1.0,
) -> ScheduleResult:
    """Simulate *workload* under *scheduler* and *allocator*.

    Parameters
    ----------
    workload:
        Jobs to schedule; jobs with unknown runtime or size are skipped.
    scheduler:
        The policy deciding which queued jobs start.  ``select`` must be a
        pure function of its arguments and select nothing when no
        processor is free (the built-in policies all comply).
    allocator:
        Maps requested to consumed processors.  Defaults to the allocator
        implied by the workload machine's allocation-flexibility rank
        (or unlimited when unknown).
    estimate_factor:
        Runtime estimates given to the scheduler are
        ``estimate_factor x actual`` — 1.0 is the perfect-estimate
        baseline, larger factors model the over-estimation users
        habitually supply.

    Returns
    -------
    ScheduleResult
    """
    if estimate_factor <= 0:
        raise ValueError(f"estimate_factor must be > 0, got {estimate_factor}")
    machine, allocator, submit, runtime, requested = _prepare(workload, allocator)
    n = submit.shape[0]
    consumed = allocator.validate_array(requested, machine.processors)

    # Python scalars for the event loop: list indexing beats repeated
    # NumPy scalar extraction by an order of magnitude in this hot path.
    submit_l = submit.tolist()
    runtime_l = runtime.tolist()
    consumed_l = consumed.tolist()

    start = np.full(n, np.nan)
    free = machine.processors
    running: List[Tuple[float, int]] = []  # heap of (end, size)
    queue: deque = deque()
    qlen = 0
    # Each loop turn consumes at least one arrival or completion, so there
    # are at most 2n events; preallocate the depth trace buffers.
    depth_times = np.empty(2 * n + 1)
    depths = np.empty(2 * n + 1, dtype=np.int64)
    n_events = 0

    # Hot-loop local bindings (attribute lookups cost in a 2n-turn loop).
    heappush = heapq.heappush
    heappop = heapq.heappop
    select = scheduler.select
    queue_append = queue.append
    make_job = QueuedJob
    factor = estimate_factor
    tail_blind = scheduler.tail_blind
    # True while the policy is known to select nothing: it last returned
    # no jobs, it declares itself tail-blind, and no processor has been
    # freed since.  In that state the policy call is provably empty.
    blocked = False

    next_arrival = 0
    while next_arrival < n or qlen or running:
        # Advance the clock to the next event.
        if next_arrival < n:
            clock = submit_l[next_arrival]
            if running and running[0][0] < clock:
                clock = running[0][0]
        elif running:
            clock = running[0][0]
        else:  # pragma: no cover - queue nonempty implies pending events
            break

        # Process completions at or before the clock.
        if running and running[0][0] <= clock:
            blocked = False
            while running and running[0][0] <= clock:
                free += heappop(running)[1]

        # Batch-process arrivals at or before the clock.  Wide batches are
        # located in one bisect; the common single-arrival case costs one
        # comparison.
        if next_arrival < n and submit_l[next_arrival] <= clock:
            upto = next_arrival + 1
            if upto < n and submit_l[upto] <= clock:
                upto = bisect.bisect_right(submit_l, clock, lo=upto)
            for i in range(next_arrival, upto):
                rt = runtime_l[i]
                queue_append(
                    make_job(i, submit_l[i], consumed_l[i], rt, rt * factor)
                )
            qlen += upto - next_arrival
            next_arrival = upto

        # Let the policy start jobs (pointless when nothing is free or the
        # policy is known-blocked).
        if qlen and free > 0 and not blocked:
            to_start = select(clock, queue, free, running)
            if to_start:
                total = 0
                for job in to_start:
                    total += job.size
                if total > free:  # pragma: no cover - defensive policy check
                    raise RuntimeError(
                        f"{scheduler.name} oversubscribed: {total} > {free} free"
                    )
                free -= total
                # Prefix fast path: FCFS-style policies hand back the queue
                # heads in order, so identity checks against the head avoid
                # building a set and rescanning the queue.
                rebuild = 0
                for job in to_start:
                    start[job.index] = clock
                    heappush(running, (clock + job.runtime, job.size))
                    if rebuild == 0 and queue[0] is job:
                        queue.popleft()
                    else:
                        rebuild += 1
                if rebuild:
                    chosen = {job.index for job in to_start[-rebuild:]}
                    queue = deque(j for j in queue if j.index not in chosen)
                    queue_append = queue.append
                qlen = len(queue)
            elif tail_blind:
                blocked = True

        depth_times[n_events] = clock
        depths[n_events] = qlen
        n_events += 1

    return ScheduleResult(
        submit=submit,
        start=start,
        runtime=runtime,
        consumed=consumed,
        queue_depth_times=depth_times[:n_events].copy(),
        queue_depths=depths[:n_events].copy(),
        machine_procs=machine.processors,
        scheduler_name=scheduler.name,
    )
