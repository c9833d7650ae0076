"""Tests for repro.workload.filters."""

import numpy as np
import pytest

from repro.workload import Workload, split_interactive_batch, split_time_windows


class TestInteractiveBatchSplit:
    def test_by_queue(self, small_workload):
        inter, batch = split_interactive_batch(small_workload, interactive_queues=[1])
        assert len(inter) + len(batch) == len(small_workload)
        assert np.all(inter.column("queue") == 1)
        assert np.all(batch.column("queue") != 1)

    def test_by_runtime(self, small_workload):
        inter, batch = split_interactive_batch(small_workload, runtime_threshold=60.0)
        assert np.all(inter.column("run_time") <= 60.0)
        assert np.all(batch.column("run_time") > 60.0)

    def test_naming_convention(self, small_workload):
        inter, batch = split_interactive_batch(small_workload, interactive_queues=[1])
        assert inter.name == "small-inter"
        assert batch.name == "small-batch"

    def test_exactly_one_criterion(self, small_workload):
        with pytest.raises(ValueError, match="exactly one"):
            split_interactive_batch(small_workload)
        with pytest.raises(ValueError, match="exactly one"):
            split_interactive_batch(
                small_workload, interactive_queues=[1], runtime_threshold=60.0
            )


class TestSplitTimeWindows:
    def test_partition_complete(self, small_workload):
        parts = split_time_windows(small_workload, 4)
        assert sum(len(p) for p in parts) == len(small_workload)

    def test_windows_disjoint_in_time(self, small_workload):
        parts = split_time_windows(small_workload, 3)
        maxes = [p.column("submit_time").max() for p in parts if len(p)]
        mins = [p.column("submit_time").min() for p in parts if len(p)]
        for i in range(len(maxes) - 1):
            assert maxes[i] <= mins[i + 1]

    def test_labels(self, small_workload):
        parts = split_time_windows(small_workload, 2)
        assert parts[0].name == "small-1"
        assert parts[1].name == "small-2"

    def test_custom_label_format(self, small_workload):
        parts = split_time_windows(small_workload, 2, label_fmt="{name}/P{i}")
        assert parts[0].name == "small/P1"

    def test_fixed_window_seconds_drops_overflow(self, small_machine):
        w = Workload.from_arrays(
            machine=small_machine,
            submit_time=np.arange(0.0, 100.0, 10.0),
            run_time=np.ones(10),
        )
        parts = split_time_windows(w, 2, window_seconds=20.0)
        # Two windows of 20s starting at 0: jobs at 0,10 and 20,30.
        assert [len(p) for p in parts] == [2, 2]

    def test_single_window_keeps_all(self, small_workload):
        parts = split_time_windows(small_workload, 1)
        assert len(parts) == 1 and len(parts[0]) == len(small_workload)

    def test_empty_workload_rejected(self, small_machine):
        empty = Workload.from_arrays(machine=small_machine, submit_time=[])
        with pytest.raises(ValueError, match="empty"):
            split_time_windows(empty, 2)

    def test_bad_counts(self, small_workload):
        with pytest.raises(ValueError):
            split_time_windows(small_workload, 0)
        with pytest.raises(ValueError, match="window_seconds"):
            split_time_windows(small_workload, 2, window_seconds=0.0)
