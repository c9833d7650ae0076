"""The original per-event scheduler loop, the oracle of
:func:`repro.scheduler.simulator.simulate`.

It validates each job through the allocator's scalar ``validate``, picks
the next event with ``min`` over the candidates, hands the policy a copy
of the running list on every event and rebuilds the queue after every
start.  It shares the simulator's ``_prepare`` (allocator choice, submit
ordering, usable-job filter), so both loops see the same jobs.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Tuple

import numpy as np

from repro.scheduler.allocator import ProcessorAllocator
from repro.scheduler.policies import QueuedJob, Scheduler
from repro.scheduler.simulator import ScheduleResult, _prepare
from repro.workload.workload import Workload

__all__ = ["simulate_reference"]


def simulate_reference(
    workload: Workload,
    scheduler: Scheduler,
    allocator: Optional[ProcessorAllocator] = None,
    *,
    estimate_factor: float = 1.0,
) -> ScheduleResult:
    """The per-event simulation loop (same signature as ``simulate``,
    bit-identical results)."""
    if estimate_factor <= 0:
        raise ValueError(f"estimate_factor must be > 0, got {estimate_factor}")
    machine, allocator, submit, runtime, requested = _prepare(workload, allocator)
    n = submit.shape[0]
    consumed = np.array(
        [allocator.validate(int(s), machine.processors) for s in requested],
        dtype=np.int64,
    )

    start = np.full(n, np.nan)
    free = machine.processors
    running: List[Tuple[float, int]] = []  # heap of (end, size)
    queue: List[QueuedJob] = []
    depth_times: List[float] = []
    depths: List[int] = []

    next_arrival = 0
    while next_arrival < n or queue or running:
        # Advance the clock to the next event.
        candidates = []
        if next_arrival < n:
            candidates.append(submit[next_arrival])
        if running:
            candidates.append(running[0][0])
        if not candidates:  # pragma: no cover - queue nonempty implies events
            break
        clock = min(candidates)

        # Process completions at or before the clock.
        while running and running[0][0] <= clock:
            _, size = heapq.heappop(running)
            free += size

        # Process arrivals at or before the clock.
        while next_arrival < n and submit[next_arrival] <= clock:
            i = next_arrival
            queue.append(
                QueuedJob(
                    index=i,
                    submit=float(submit[i]),
                    size=int(consumed[i]),
                    runtime=float(runtime[i]),
                    estimate=float(runtime[i]) * estimate_factor,
                )
            )
            next_arrival += 1

        # Let the policy start jobs.
        if queue:
            to_start = scheduler.select(clock, queue, free, list(running))
            if to_start:
                chosen = {job.index for job in to_start}
                total = sum(job.size for job in to_start)
                if total > free:  # pragma: no cover - defensive policy check
                    raise RuntimeError(
                        f"{scheduler.name} oversubscribed: {total} > {free} free"
                    )
                for job in to_start:
                    start[job.index] = clock
                    heapq.heappush(running, (clock + job.runtime, job.size))
                free -= total
                queue = [job for job in queue if job.index not in chosen]

        depth_times.append(clock)
        depths.append(len(queue))

    return ScheduleResult(
        submit=submit,
        start=start,
        runtime=runtime,
        consumed=consumed,
        queue_depth_times=np.asarray(depth_times),
        queue_depths=np.asarray(depths, dtype=np.int64),
        machine_procs=machine.processors,
        scheduler_name=scheduler.name,
    )
