"""Tests for repro.workload.workload (MachineInfo + Workload)."""

import numpy as np
import pytest

from repro.workload import MachineInfo, Workload
from repro.workload.fields import FIELD_NAMES, MISSING


class TestMachineInfo:
    def test_basic(self):
        m = MachineInfo("m", 128, scheduler_flexibility=2, allocation_flexibility=1)
        assert m.processors == 128

    def test_rejects_zero_processors(self):
        with pytest.raises(ValueError, match="processors"):
            MachineInfo("m", 0)

    def test_rejects_bad_rank(self):
        with pytest.raises(ValueError, match="scheduler_flexibility"):
            MachineInfo("m", 4, scheduler_flexibility=4)

    def test_missing_ranks_allowed(self):
        m = MachineInfo("m", 4)
        assert m.scheduler_flexibility == MISSING


class TestConstruction:
    def test_from_arrays_defaults(self, small_machine):
        w = Workload.from_arrays(
            machine=small_machine, submit_time=[0.0, 1.0], run_time=[5.0, 6.0]
        )
        assert len(w) == 2
        assert np.array_equal(w.column("job_id"), [1, 2])
        assert np.all(w.column("used_procs") == MISSING)
        assert np.all(w.column("status") == 1)

    def test_from_arrays_rejects_unknown_column(self, small_machine):
        with pytest.raises(ValueError, match="unknown columns"):
            Workload.from_arrays(machine=small_machine, bogus=[1.0])

    def test_from_arrays_needs_a_column(self, small_machine):
        with pytest.raises(ValueError, match="at least one column"):
            Workload.from_arrays(machine=small_machine)

    def test_unequal_columns_rejected(self, small_machine):
        cols = {name: np.zeros(3) for name in FIELD_NAMES}
        cols["run_time"] = np.zeros(4)
        with pytest.raises(ValueError, match="unequal lengths"):
            Workload(cols, small_machine)

    def test_missing_column_rejected(self, small_machine):
        cols = {name: np.zeros(3) for name in FIELD_NAMES if name != "queue"}
        with pytest.raises(ValueError, match="missing column"):
            Workload(cols, small_machine)

    def test_2d_column_rejected(self, small_machine):
        cols = {name: np.zeros(3) for name in FIELD_NAMES}
        cols["run_time"] = np.zeros((3, 1))
        with pytest.raises(ValueError, match="1-D"):
            Workload(cols, small_machine)


class TestAccess:
    def test_columns_read_only(self, small_workload):
        col = small_workload.column("run_time")
        with pytest.raises(ValueError):
            col[0] = 99.0

    def test_attribute_access(self, small_workload):
        assert np.array_equal(small_workload.run_time, small_workload.column("run_time"))

    def test_unknown_column(self, small_workload):
        with pytest.raises(KeyError, match="no such column"):
            small_workload.column("nope")

    def test_unknown_attribute(self, small_workload):
        with pytest.raises(AttributeError):
            small_workload.nope

    def test_int_columns_are_ints(self, small_workload):
        assert small_workload.column("used_procs").dtype == np.int64

    def test_repr(self, small_workload):
        assert "small" in repr(small_workload)
        assert "500" in repr(small_workload)


class TestDerived:
    def test_start_times_add_wait(self, small_machine):
        w = Workload.from_arrays(
            machine=small_machine,
            submit_time=[0.0, 10.0],
            wait_time=[2.0, MISSING],
            run_time=[1.0, 1.0],
        )
        assert np.allclose(w.start_times, [2.0, 10.0])

    def test_end_times(self, small_machine):
        w = Workload.from_arrays(
            machine=small_machine,
            submit_time=[0.0],
            wait_time=[2.0],
            run_time=[5.0],
        )
        assert np.allclose(w.end_times, [7.0])

    def test_duration_spans_trailing_run(self, small_machine):
        w = Workload.from_arrays(
            machine=small_machine,
            submit_time=[0.0, 100.0],
            wait_time=[0.0, 0.0],
            run_time=[1.0, 50.0],
        )
        assert w.duration() == pytest.approx(150.0)

    def test_duration_empty(self, small_machine):
        w = Workload.from_arrays(machine=small_machine, submit_time=[])
        assert w.duration() == 0.0


class TestTransforms:
    def test_filter_mask(self, small_workload):
        mask = small_workload.column("used_procs") >= 8
        sub = small_workload.filter(mask)
        assert len(sub) == int(mask.sum())
        assert np.all(sub.column("used_procs") >= 8)

    def test_filter_preserves_machine(self, small_workload):
        sub = small_workload.filter(np.arange(10))
        assert sub.machine is small_workload.machine

    def test_sorted_by_submit(self, small_machine):
        w = Workload.from_arrays(
            machine=small_machine, submit_time=[5.0, 1.0, 3.0], run_time=[1.0, 2.0, 3.0]
        )
        s = w.sorted_by_submit()
        assert np.array_equal(s.column("submit_time"), [1.0, 3.0, 5.0])
        assert np.array_equal(s.column("run_time"), [2.0, 3.0, 1.0])

    @pytest.mark.parametrize(
        "submit, in_order",
        [
            ([1.0, 1.0, 3.0, 5.0], True),
            ([0.0], True),
            ([], True),
            ([-0.0, 0.0, -0.0], True),
            ([2.0, 1.0, 1.0, 3.0], False),
            ([1.0, np.nan, 2.0], False),
        ],
        ids=["ties", "one", "empty", "signed-zeros", "unordered", "nan"],
    )
    def test_sorted_by_submit_equals_the_stable_sort(self, small_machine, submit, in_order):
        w = Workload.from_arrays(
            machine=small_machine,
            submit_time=np.array(submit, dtype=float),
            run_time=np.arange(len(submit), dtype=float),
        )
        s = w.sorted_by_submit()
        order = np.argsort(w.column("submit_time"), kind="mergesort")
        for name in ("submit_time", "run_time", "job_id"):
            assert s.column(name).tobytes() == w.column(name)[order].tobytes()
        assert (s is w) is in_order  # an ordered log is not copied

    def test_with_name(self, small_workload):
        renamed = small_workload.with_name("other")
        assert renamed.name == "other"
        assert small_workload.name == "small"

    def test_with_machine(self, small_workload):
        new_machine = MachineInfo("big", 1024)
        moved = small_workload.with_machine(new_machine)
        assert moved.machine.processors == 1024

    def test_concat(self, small_workload):
        both = small_workload.concat(small_workload)
        assert len(both) == 2 * len(small_workload)

    def test_concat_size_mismatch(self, small_workload):
        other = small_workload.with_machine(MachineInfo("big", 1024))
        with pytest.raises(ValueError, match="different sizes"):
            small_workload.concat(other)
