"""Unit tests for the scheduling policies (direct select() calls)."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.scheduler import EasyBackfillScheduler, FcfsScheduler
from repro.scheduler.policies import QueuedJob


def job(index, size, runtime, submit=0.0):
    return QueuedJob(
        index=index, submit=submit, size=size, runtime=runtime, estimate=runtime
    )


class TestFcfs:
    def test_starts_head_while_fits(self):
        queue = [job(0, 4, 10), job(1, 4, 10), job(2, 8, 10)]
        started = FcfsScheduler().select(0.0, queue, free=8, running=[])
        assert [j.index for j in started] == [0, 1]

    def test_never_jumps_queue(self):
        # Head needs 8, only 4 free; the small job behind must NOT start.
        queue = [job(0, 8, 10), job(1, 2, 1)]
        started = FcfsScheduler().select(0.0, queue, free=4, running=[(50.0, 4)])
        assert started == []

    def test_empty_queue(self):
        assert FcfsScheduler().select(0.0, [], free=8, running=[]) == []


class TestEasy:
    def test_backfills_short_job(self):
        # Head needs 8 (free at t=100); the 1-unit job runs 10s < shadow.
        queue = [job(0, 8, 50), job(1, 2, 10)]
        started = EasyBackfillScheduler().select(
            0.0, queue, free=4, running=[(100.0, 4)]
        )
        assert [j.index for j in started] == [1]

    def test_does_not_delay_head(self):
        # The backfill candidate would run past the shadow AND needs more
        # than the extra processors: blocked.
        queue = [job(0, 8, 50), job(1, 4, 1000)]
        started = EasyBackfillScheduler().select(
            0.0, queue, free=4, running=[(100.0, 4)]
        )
        assert started == []

    def test_backfill_within_extra(self):
        # Machine of 12: running (end 100, size 8), free 4.  Head wants 8
        # -> shadow 100, extra = (4+8)-8 = 4.  A long job of size 4 fits
        # inside the extra and may run past the shadow.
        queue = [job(0, 8, 50), job(1, 4, 1000)]
        started = EasyBackfillScheduler().select(
            0.0, queue, free=4, running=[(100.0, 8)]
        )
        assert [j.index for j in started] == [1]

    def test_head_started_first(self):
        queue = [job(0, 2, 10), job(1, 8, 50)]
        started = EasyBackfillScheduler().select(0.0, queue, free=4, running=[])
        assert [j.index for j in started] == [0]

    def test_multiple_backfills_respect_capacity(self):
        queue = [job(0, 8, 50), job(1, 2, 5), job(2, 2, 5), job(3, 2, 5)]
        started = EasyBackfillScheduler().select(
            0.0, queue, free=4, running=[(100.0, 4)]
        )
        total = sum(j.size for j in started)
        assert total <= 4
        assert [j.index for j in started] == [1, 2]


CLOCK = 10.0

queues = st.lists(
    st.tuples(st.integers(1, 8), st.integers(1, 100)), min_size=1, max_size=8
).map(lambda specs: [job(i, size, runtime) for i, (size, runtime) in enumerate(specs)])
running_jobs = st.lists(
    st.tuples(st.integers(1, 200).map(lambda dt: CLOCK + dt), st.integers(1, 8)),
    max_size=4,
)
free_procs = st.integers(0, 8)


@pytest.mark.parametrize("policy", [FcfsScheduler, EasyBackfillScheduler])
class TestSelectProperties:
    """Invariants of one select() call on random queues and machine states."""

    @given(queue=queues, free=free_procs, running=running_jobs)
    def test_never_oversubscribes(self, policy, queue, free, running):
        started = policy().select(CLOCK, queue, free, running)
        assert sum(j.size for j in started) <= free

    @given(queue=queues, free=free_procs, running=running_jobs)
    def test_starts_queued_jobs_in_queue_order(self, policy, queue, free, running):
        started = policy().select(CLOCK, queue, free, running)
        positions = [queue.index(j) for j in started]
        assert positions == sorted(set(positions))

    @given(queue=queues, free=free_procs, running=running_jobs)
    def test_head_starts_whenever_it_fits(self, policy, queue, free, running):
        started = policy().select(CLOCK, queue, free, running)
        if queue[0].size <= free:
            assert started[0] is queue[0]
        else:
            assert queue[0] not in started


class TestEasyProperties:
    @given(queue=queues, free=free_procs, running=running_jobs)
    def test_starts_what_fcfs_starts_first(self, queue, free, running):
        fcfs = FcfsScheduler().select(CLOCK, queue, free, running)
        easy = EasyBackfillScheduler().select(CLOCK, queue, free, running)
        assert easy[: len(fcfs)] == fcfs

    @given(queue=queues, free=free_procs, running=running_jobs)
    def test_backfill_keeps_the_head_reservation(self, queue, free, running):
        # Only calls that start no head job: when one starts, select()
        # walks the running jobs' completions before the new job's, so the
        # shadow can come out late (test_started_head_job_sets_the_shadow).
        head = queue[0]
        assume(head.size > free)
        assume(free + sum(size for _, size in running) >= head.size)
        # The shadow time: the first completion after which the head fits.
        avail = free
        for shadow, size in sorted(running):
            avail += size
            if avail >= head.size:
                break
        started = EasyBackfillScheduler().select(CLOCK, queue, free, running)
        assert head not in started
        at_shadow = (
            free
            - sum(j.size for j in started)
            + sum(size for end, size in running if end <= shadow)
            + sum(j.size for j in started if CLOCK + j.estimate <= shadow)
        )
        assert at_shadow >= head.size

    @pytest.mark.xfail(
        strict=True,
        reason="the shadow walk takes running jobs' completions before those "
        "of the jobs this call started",
    )
    def test_started_head_job_sets_the_shadow(self):
        # Job 0 starts and ends at t=10, which frees the 6 processors the
        # blocked job 1 needs: its shadow is 10.  Job 2 runs to t=50 on 4
        # of them, so backfilling it would delay job 1 by 40 s.
        queue = [job(0, 2, 10), job(1, 6, 30), job(2, 4, 50)]
        started = EasyBackfillScheduler().select(
            0.0, queue, free=6, running=[(100.0, 4)]
        )
        assert [j.index for j in started] == [0]
