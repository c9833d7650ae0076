"""The supervised-attempt primitive: its four outcomes, sibling
supervisors racing each other, and the parent-death tether.

Every outcome must come back with the child already reaped — no
zombie, no orphan — which ``multiprocessing.active_children()`` sees.
"""

import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.runtime.supervise import _TICK_S, supervise

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def double(x):
    return 2 * x


def exit_with(code):
    os._exit(code)


def raise_value_error():
    raise ValueError("not reported as a value")


@pytest.fixture(autouse=True)
def no_child_left_behind():
    yield
    assert multiprocessing.active_children() == []


class TestOutcomes:
    def test_ok_returns_the_value(self):
        outcome = supervise(double, (21,))
        assert (outcome.kind, outcome.value, outcome.exitcode) == ("ok", 42, 0)
        assert outcome.elapsed_s >= 0

    def test_died_returns_the_exit_code(self):
        outcome = supervise(exit_with, (7,))
        assert (outcome.kind, outcome.exitcode, outcome.value) == ("died", 7, None)

    def test_raising_target_dies_with_exit_code_1(self, capfd):
        outcome = supervise(raise_value_error)
        assert (outcome.kind, outcome.exitcode) == ("died", 1)
        assert "not reported as a value" in capfd.readouterr().err

    def test_timeout_kills_within_the_deadline_plus_a_few_ticks(self):
        start = time.monotonic()
        outcome = supervise(time.sleep, (30.0,), deadline_s=0.3)
        took = time.monotonic() - start
        assert outcome.kind == "timeout"
        assert outcome.exitcode == -9  # SIGKILLed, not waited out
        assert 0.3 <= outcome.elapsed_s <= took
        assert took < 0.3 + 10 * _TICK_S

    def test_stopped_returns_the_reason(self):
        start = time.monotonic()
        checks = []

        def stop():
            checks.append(1)
            return "cancelled" if time.monotonic() - start > 0.2 else None

        outcome = supervise(time.sleep, (30.0,), stop=stop)
        assert (outcome.kind, outcome.reason, outcome.exitcode) == ("stopped", "cancelled", -9)
        assert len(checks) >= 2
        assert time.monotonic() - start < 0.2 + 10 * _TICK_S


class TestConcurrentSupervisors:
    def test_sibling_supervisors_each_get_their_own_outcome(self):
        # Every Process.start() reaps all finished children of this
        # process, so sibling supervisors race for each other's waitpid.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(5e-4)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                outcomes = list(pool.map(lambda i: supervise(double, (i,)), range(128)))
        finally:
            sys.setswitchinterval(interval)
        assert [o.kind for o in outcomes] == ["ok"] * 128
        assert [o.value for o in outcomes] == [2 * i for i in range(128)]


HELPER = """
import os, sys, time
from repro.runtime import DagExecutor, TaskSpec

def write_pid_and_sleep(pid_path):
    with open(pid_path + ".tmp", "w") as fh:
        fh.write(str(os.getpid()))
    os.replace(pid_path + ".tmp", pid_path)
    time.sleep(30)

DagExecutor(jobs=2).run(
    [TaskSpec(id="sleeper", fn=write_pid_and_sleep, kwargs={"pid_path": sys.argv[1]})]
)
"""


def _alive(pid):
    """Whether *pid* still runs: gone and zombie both count as dead."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only")
class TestTether:
    def test_killed_runner_takes_its_worker_down(self, tmp_path):
        pid_path = tmp_path / "worker.pid"
        env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
        helper = subprocess.Popen([sys.executable, "-c", HELPER, str(pid_path)], env=env)
        try:
            deadline = time.monotonic() + 60.0
            while not pid_path.exists():
                assert helper.poll() is None, "helper exited before its worker started"
                assert time.monotonic() < deadline, "worker never started"
                time.sleep(0.02)
            worker = int(pid_path.read_text())
            helper.kill()
            helper.wait()
            deadline = time.monotonic() + 2.0
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.02)
            orphaned = _alive(worker)
            if orphaned:
                os.kill(worker, 9)  # do not leak it past the test
            assert not orphaned, "the worker outlived its SIGKILLed runner"
        finally:
            if helper.poll() is None:
                helper.kill()
                helper.wait()
