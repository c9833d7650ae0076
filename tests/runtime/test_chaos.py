"""Chaos suite: deterministic fault injection and the failure paths it drills.

Worker functions live at module level, as ``TaskSpec`` requires.
Every test that injects faults does so through a seeded
:class:`FaultPlan`, so the suite itself is replayable — a failure here
reproduces with the same seed, which is the whole point of the feature.
"""

import json
import time

import pytest

from repro.experiments.runner import EXIT_OK, main
from repro.obs import read_trace
from repro.runtime import (
    DagExecutor,
    FaultPlan,
    FaultRule,
    InjectedFault,
    ResultCache,
    TaskSpec,
    TaskStatus,
    parse_chaos_spec,
)
from repro.runtime.faults import corrupt_file, truncate_file, vanish_file


def add(a, b):
    return a + b


def snooze(seconds):
    time.sleep(seconds)
    return "slept"


def counted_snooze(counter_path, seconds):
    """Count this invocation in *counter_path*, then sleep."""
    with open(counter_path, "a") as fh:
        fh.write("x")
    time.sleep(seconds)
    return "slept"


class Events(list):
    """An ``on_event`` hook that keeps every executor event as a dict."""

    def __call__(self, kind, **fields):
        self.append({"kind": kind, **fields})


def _executor(jobs=1, *, plan=None, on_event=None):
    return DagExecutor(
        jobs=jobs,
        backoff_base_s=0.01,
        backoff_cap_s=0.05,
        on_event=on_event,
        fault_plan=plan,
    )


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(7, [FaultRule(match="*", p=0.5)])
        b = FaultPlan(7, [FaultRule(match="*", p=0.5)])
        decisions_a = [(t, n, a.arm(t, n) is not None) for t in "abcdef" for n in range(1, 5)]
        decisions_b = [(t, n, b.arm(t, n) is not None) for t in "abcdef" for n in range(1, 5)]
        assert decisions_a == decisions_b
        assert any(fired for _, _, fired in decisions_a)
        assert not all(fired for _, _, fired in decisions_a)

    def test_different_seed_different_decisions(self):
        rule = [FaultRule(match="*", p=0.5)]
        fires = lambda plan: [  # noqa: E731
            plan.arm(t, n) is not None for t in "abcdefgh" for n in range(1, 6)
        ]
        assert fires(FaultPlan(1, rule)) != fires(FaultPlan(2, rule))

    def test_p_bounds(self):
        never = FaultPlan(3, [FaultRule(match="*", p=0.0)])
        always = FaultPlan(3, [FaultRule(match="*", p=1.0)])
        for task in ("x", "y"):
            for attempt in (1, 2, 3):
                assert never.arm(task, attempt) is None
                assert always.arm(task, attempt) is not None

    def test_max_hits_caps_per_task(self):
        plan = FaultPlan(0, [FaultRule(match="*", p=1.0, max_hits=2)])
        assert plan.arm("t", 1) is not None
        assert plan.arm("t", 2) is not None
        assert plan.arm("t", 3) is None
        # Per task, not global: a different task gets its own budget.
        assert plan.arm("u", 1) is not None

    def test_max_hits_is_order_free(self):
        plan = FaultPlan(0, [FaultRule(match="*", p=1.0, max_hits=1)])
        # Query attempt 3 before attempt 1: the answer must not depend on
        # which attempt was asked about first.
        late_first = plan.arm("t", 3)
        assert late_first is None
        assert plan.arm("t", 1) is not None
        assert plan.arm("t", 3) is None

    def test_match_glob_and_first_rule_wins(self):
        plan = FaultPlan(
            5,
            [
                FaultRule(match="table*", kind="corrupt", p=1.0),
                FaultRule(match="*", kind="raise", p=1.0),
            ],
        )
        assert plan.arm("table1", 1).kind == "corrupt"
        assert plan.arm("figure1", 1).kind == "raise"
        assert plan.arm("figure1", 1).rule == 1

    def test_rejects_empty_rules_and_bad_fields(self):
        with pytest.raises(ValueError):
            FaultPlan(0, [])
        with pytest.raises(ValueError):
            FaultRule(kind="meteor")
        with pytest.raises(ValueError):
            FaultRule(p=1.5)
        with pytest.raises(ValueError):
            FaultRule(max_hits=0)
        with pytest.raises(ValueError):
            FaultRule(exit_code=0)


class TestParseChaosSpec:
    def test_seed_only_gets_default_rule(self):
        plan = parse_chaos_spec("7")
        assert plan.seed == 7
        assert len(plan.rules) == 1
        assert plan.rules[0].kind == "raise"
        assert plan.rules[0].p == pytest.approx(0.25)

    def test_shorthand_match_kind(self):
        plan = parse_chaos_spec("1:table2=exit")
        assert plan.rules[0].match == "table2"
        assert plan.rules[0].kind == "exit"

    def test_full_grammar(self):
        plan = parse_chaos_spec(
            "9:match=table*,kind=raise,p=0.5,max_hits=2;figure*=hang,hang_s=5"
        )
        assert len(plan.rules) == 2
        first, second = plan.rules
        assert (first.match, first.kind, first.p, first.max_hits) == ("table*", "raise", 0.5, 2)
        assert (second.match, second.kind, second.hang_s) == ("figure*", "hang", 5.0)

    @pytest.mark.parametrize(
        "spec", ["x", "x:a=raise", "1:kind=meteor", "1:p=banana", "1:noequals-and-no-shorthand"]
    )
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            parse_chaos_spec(spec)


class TestSerialChaos:
    def test_raise_fault_recovers_through_retries(self):
        events = Events()
        plan = FaultPlan(0, [FaultRule(match="*", kind="raise", p=1.0, max_hits=2)])
        results = _executor(plan=plan, on_event=events).run(
            [TaskSpec(id="t", fn=add, kwargs={"a": 1, "b": 2}, retries=2)]
        )
        assert results["t"].ok
        assert results["t"].value == 3
        assert results["t"].attempts == 3
        assert results["t"].faults == 2
        kinds = [r["kind"] for r in events]
        assert kinds.count("fault_injected") == 2
        assert kinds.count("retry") == 2
        retries = [r for r in events if r["kind"] == "retry"]
        assert all("InjectedFault" in r["error"] for r in retries)

    def test_raise_without_retries_fails_and_skips_dependents(self):
        plan = FaultPlan(0, [FaultRule(match="parent", kind="raise", p=1.0)])
        results = _executor(plan=plan).run(
            [
                TaskSpec(id="parent", fn=add, kwargs={"a": 1, "b": 1}),
                TaskSpec(id="child", fn=add, kwargs={"a": 2, "b": 2}, deps=("parent",)),
                TaskSpec(id="bystander", fn=add, kwargs={"a": 3, "b": 3}),
            ]
        )
        assert results["parent"].status is TaskStatus.FAILED
        assert "InjectedFault" in results["parent"].error
        assert results["child"].status is TaskStatus.SKIPPED
        assert results["bystander"].ok

    def test_hang_fault_times_out_then_recovers(self):
        plan = FaultPlan(
            0, [FaultRule(match="*", kind="hang", p=1.0, max_hits=1, hang_s=0.3)]
        )
        results = _executor(plan=plan).run(
            [TaskSpec(id="t", fn=add, kwargs={"a": 1, "b": 2}, timeout=0.05, retries=1)]
        )
        assert results["t"].ok
        assert results["t"].attempts == 2
        assert results["t"].faults == 1

    def test_hang_fault_without_retries_is_timeout(self):
        plan = FaultPlan(0, [FaultRule(match="*", kind="hang", p=1.0, hang_s=0.3)])
        results = _executor(plan=plan).run(
            [TaskSpec(id="t", fn=add, kwargs={"a": 1, "b": 2}, timeout=0.05)]
        )
        assert results["t"].status is TaskStatus.TIMEOUT

    def test_corrupt_fault_returns_garbage_without_running_fn(self):
        plan = FaultPlan(4, [FaultRule(match="*", kind="corrupt", p=1.0)])
        results = _executor(plan=plan).run(
            [TaskSpec(id="t", fn=add, kwargs={"a": 1, "b": 2})]
        )
        # The executor sees "success" — catching this is the caller's
        # payload validation's job, which is exactly what it models.
        assert results["t"].ok
        assert results["t"].value == {"__chaos_corrupt__": "chaos:4:0:t:1"}

    def test_same_seed_reproduces_the_exact_event_sequence(self):
        def run_once():
            events = Events()
            plan = FaultPlan(11, [FaultRule(match="*", kind="raise", p=0.6)])
            _executor(plan=plan, on_event=events).run(
                [
                    TaskSpec(id=f"t{i}", fn=add, kwargs={"a": i, "b": i}, retries=3)
                    for i in range(4)
                ]
            )
            return [
                (r["task"], r["attempt"], r["fault"])
                for r in events
                if r["kind"] == "fault_injected"
            ]

        first, second = run_once(), run_once()
        assert first, "seed 11 injected nothing; test is vacuous"
        assert first == second


class TestPoolChaos:
    def test_raise_fault_recovers_in_pool_mode(self):
        plan = FaultPlan(0, [FaultRule(match="*", kind="raise", p=1.0, max_hits=1)])
        results = _executor(jobs=2, plan=plan).run(
            [TaskSpec(id=f"t{i}", fn=add, kwargs={"a": i, "b": i}, retries=1) for i in range(3)]
        )
        for i in range(3):
            assert results[f"t{i}"].ok
            assert results[f"t{i}"].value == 2 * i
            assert results[f"t{i}"].attempts == 2

    def test_exit_fault_charges_only_its_own_attempt(self):
        events = Events()
        plan = FaultPlan(
            0, [FaultRule(match="die", kind="exit", p=1.0, max_hits=1, exit_code=70)]
        )
        results = _executor(jobs=2, plan=plan, on_event=events).run(
            [
                TaskSpec(id="die", fn=add, kwargs={"a": 1, "b": 1}, retries=1),
                TaskSpec(id="ok1", fn=add, kwargs={"a": 2, "b": 2}, retries=1),
                TaskSpec(id="ok2", fn=add, kwargs={"a": 3, "b": 3}, retries=1),
            ]
        )
        assert results["die"].ok, "worker death was not retried"
        assert results["die"].attempts == 2
        assert (results["ok1"].value, results["ok1"].attempts) == (4, 1)
        assert (results["ok2"].value, results["ok2"].attempts) == (6, 1)
        retries = [r for r in events if r["kind"] == "retry"]
        assert [r["task"] for r in retries] == ["die"]
        assert retries[0]["error"] == "worker process died (exit code 70)"

    def test_sibling_crash_spares_innocent_without_retries(self):
        plan = FaultPlan(0, [FaultRule(match="die", kind="exit", p=1.0)])
        results = _executor(jobs=2, plan=plan).run(
            [
                TaskSpec(id="innocent", fn=snooze, kwargs={"seconds": 1.0}),
                TaskSpec(id="die", fn=add, kwargs={"a": 1, "b": 1}),
            ]
        )
        assert results["die"].status is TaskStatus.FAILED
        assert results["innocent"].ok, results["innocent"].error
        assert results["innocent"].attempts == 1

    def test_sibling_timeout_does_not_rerun_innocent(self, tmp_path):
        counter = tmp_path / "count"
        start = time.monotonic()
        results = _executor(jobs=2).run(
            [
                TaskSpec(
                    id="innocent",
                    fn=counted_snooze,
                    kwargs={"counter_path": str(counter), "seconds": 1.0},
                ),
                TaskSpec(id="hang", fn=snooze, kwargs={"seconds": 30.0}, timeout=0.3),
            ]
        )
        assert results["hang"].status is TaskStatus.TIMEOUT
        assert results["innocent"].ok
        assert counter.read_text() == "x", "the innocent task was restarted"
        assert time.monotonic() - start < 20.0, "hung worker was not killed"

    def test_exit_fault_without_retries_reports_failure(self):
        plan = FaultPlan(0, [FaultRule(match="die", kind="exit", p=1.0)])
        results = _executor(jobs=2, plan=plan).run(
            [
                TaskSpec(id="die", fn=add, kwargs={"a": 1, "b": 1}),
                TaskSpec(id="ok", fn=add, kwargs={"a": 2, "b": 2}, retries=1),
            ]
        )
        assert results["die"].status is TaskStatus.FAILED
        assert "worker process died" in results["die"].error
        assert results["ok"].ok

    def test_hang_fault_kills_worker_and_recovers(self):
        start = time.monotonic()
        plan = FaultPlan(
            0, [FaultRule(match="*", kind="hang", p=1.0, max_hits=1, hang_s=30.0)]
        )
        results = _executor(jobs=2, plan=plan).run(
            [TaskSpec(id="t", fn=add, kwargs={"a": 1, "b": 2}, timeout=0.3, retries=1)]
        )
        assert results["t"].ok
        assert results["t"].value == 3
        assert time.monotonic() - start < 20.0, "hung worker was not killed"

    def test_pool_and_serial_inject_identical_decisions(self):
        tasks = lambda: [  # noqa: E731
            TaskSpec(id=f"t{i}", fn=add, kwargs={"a": i, "b": i}, retries=2)
            for i in range(4)
        ]

        def injected(jobs):
            events = Events()
            plan = FaultPlan(11, [FaultRule(match="*", kind="raise", p=0.6)])
            _executor(jobs=jobs, plan=plan, on_event=events).run(tasks())
            return {
                (r["task"], r["attempt"], r["fault"])
                for r in events
                if r["kind"] == "fault_injected"
            }

        serial, pooled = injected(1), injected(2)
        assert serial, "seed 11 injected nothing; test is vacuous"
        assert serial == pooled


class TestRunnerChaosTrace:
    def test_trace_file_records_fault_and_retry_events(self, tmp_path, capsys):
        # The CI chaos smoke run's --trace FILE: the executor's events
        # reach it next to the task summary and the run metrics.
        path = tmp_path / "trace-chaos.jsonl"
        code = main(
            [
                "figure2",
                "--quick",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--retries",
                "1",
                "--chaos",
                "7:match=*,kind=raise,p=1,max_hits=1",
                "--trace",
                str(path),
            ]
        )
        assert code == EXIT_OK
        trace = read_trace(path)
        assert [e["kind"] for e in trace.events] == ["fault_injected", "retry"]
        assert trace.events[0]["task"] == "figure2" and trace.events[0]["fault"] == "raise"
        assert "InjectedFault" in trace.events[1]["error"]
        assert [s["name"] for s in trace.spans] == ["task:figure2"]
        assert trace.task_spans["figure2"]["retries"] == 1


class TestFilesystemChaos:
    def _seeded_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"), fingerprint="fp")
        key = cache.key("exp", {"seed": 0})
        cache.put(key, {"report": "fine", "n": 1})
        return cache, key

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        cache, key = self._seeded_cache(tmp_path)
        truncate_file(cache.entry_path(key))
        assert cache.get(key) is None
        assert cache.entry_path(key).with_suffix(".corrupt").exists()

    def test_bitflipped_entry_is_quarantined_miss(self, tmp_path):
        cache, key = self._seeded_cache(tmp_path)
        corrupt_file(cache.entry_path(key), seed=1)
        assert cache.get(key) is None
        assert cache.entry_path(key).with_suffix(".corrupt").exists()

    def test_vanished_entry_is_plain_miss(self, tmp_path):
        cache, key = self._seeded_cache(tmp_path)
        vanish_file(cache.entry_path(key))
        assert cache.get(key) is None
        assert not cache.entry_path(key).with_suffix(".corrupt").exists()

    def test_corrupt_helper_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"0123456789")
        b.write_bytes(b"0123456789")
        corrupt_file(a, seed=3)
        corrupt_file(b, seed=3)
        assert a.read_bytes() == b.read_bytes() != b"0123456789"

    def test_get_or_compute_recomputes_after_damage(self, tmp_path):
        cache, key = self._seeded_cache(tmp_path)
        corrupt_file(cache.entry_path(key), seed=0)
        payload, hit = cache.get_or_compute(key, lambda: {"report": "fresh"})
        assert hit is False
        assert payload == {"report": "fresh"}
        assert cache.get(key) == {"report": "fresh"}


class TestInjectedFaultType:
    def test_injected_fault_is_a_runtime_error(self):
        plan = FaultPlan(0, [FaultRule(match="*", kind="raise", p=1.0)])
        armed = plan.arm("t", 1)
        with pytest.raises(InjectedFault):
            armed.wrap(add)(a=1, b=2)

    def test_fault_wrapper_survives_json_roundtrip_of_token(self):
        plan = FaultPlan(0, [FaultRule(match="*", kind="corrupt", p=1.0)])
        armed = plan.arm("t", 2)
        token = armed.wrap(add)(a=1, b=2)["__chaos_corrupt__"]
        assert json.loads(json.dumps(token)) == token == "chaos:0:0:t:2"
