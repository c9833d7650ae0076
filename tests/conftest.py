"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One moderate profile for the whole suite: enough examples to matter,
# fast enough to keep the full run comfortably under a minute.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture(autouse=True)
def fresh_synthesis_memos(monkeypatch):
    """Start every test with empty archive and Jann-fit memos, so no test
    depends on what an earlier one synthesized in this process."""
    from repro.archive import synthesize
    from repro.models import jann

    monkeypatch.setattr(synthesize, "_last_archive", None)
    monkeypatch.setattr(jann, "_DEFAULT_FITS", {})


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic generator for test-local randomness."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_machine():
    from repro.workload import MachineInfo

    return MachineInfo(
        "testbox", 64, scheduler_flexibility=2, allocation_flexibility=3
    )


@pytest.fixture
def small_workload(small_machine, rng):
    """A 500-job workload with every SWF field populated."""
    from repro.workload import Workload

    n = 500
    gaps = rng.exponential(60.0, n)
    return Workload.from_arrays(
        machine=small_machine,
        name="small",
        submit_time=np.cumsum(gaps) - gaps[0],
        wait_time=rng.exponential(30.0, n),
        run_time=rng.lognormal(4.0, 1.5, n),
        used_procs=rng.choice([1, 2, 4, 8, 16, 32, 64], n),
        avg_cpu_time=rng.lognormal(3.5, 1.5, n),
        user_id=rng.integers(0, 25, n),
        executable_id=rng.integers(0, 40, n),
        status=rng.choice([0, 1, 1, 1, 5], n),
        queue=rng.choice([1, 2], n),
    )


@pytest.fixture(scope="session")
def synthesized_ctc():
    """A moderately sized synthesized CTC log shared across tests."""
    from repro.archive import synthesize_workload

    return synthesize_workload("CTC", n_jobs=6000, seed=11)
