"""Bit-for-bit equivalence of the vectorized model samplers vs their
per-job scalar oracles.

Every model whose sampler replaced a per-job loop keeps that loop in
``tests/oracles/models.py``; these tests pin the claim that both consume
the identical RNG stream and emit the identical job arrays — not
approximately, bitwise.
"""

import numpy as np
import pytest

from repro.models import (
    Feitelson96Model,
    JannModel,
    LublinModel,
    UserSessionModel,
)
from repro.workload.fields import FIELD_NAMES

from oracles.models import generate_reference

SEEDS = list(range(5))


def assert_streams_identical(a, b):
    assert len(a) == len(b)
    for name in FIELD_NAMES:
        np.testing.assert_array_equal(
            a.column(name), b.column(name), err_msg=f"column {name}"
        )


def both(model, n_jobs, seed):
    return (
        model.generate(n_jobs, seed=seed),
        generate_reference(model, n_jobs, seed=seed),
    )


class TestLublinEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, seed):
        assert_streams_identical(*both(LublinModel(), 3000, seed))

    def test_single_job(self):
        assert_streams_identical(*both(LublinModel(), 1, 0))

    def test_single_processor_machine(self):
        assert_streams_identical(*both(LublinModel(machine_procs=1), 500, 2))

    def test_flat_daily_cycle(self):
        assert_streams_identical(*both(LublinModel(cycle_amplitude=0.0), 800, 1))

    def test_extreme_daily_cycle(self):
        assert_streams_identical(*both(LublinModel(cycle_amplitude=0.95), 800, 3))


class TestFeitelson96Equivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, seed):
        assert_streams_identical(*both(Feitelson96Model(), 3000, seed))

    def test_single_job(self):
        assert_streams_identical(*both(Feitelson96Model(), 1, 0))

    def test_repeat_truncation_boundary(self):
        # Small n_jobs exercises cutting the final repeat group mid-run.
        for n in (2, 3, 7, 17):
            assert_streams_identical(*both(Feitelson96Model(), n, 4))


class TestJannEquivalence:
    @pytest.fixture(scope="class")
    def model(self, synthesized_ctc):
        return JannModel.fit(synthesized_ctc)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, model, seed):
        assert_streams_identical(*both(model, 2000, seed))

    def test_single_job(self, model):
        assert_streams_identical(*both(model, 1, 0))


class TestUserSessionEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bitwise_across_seeds(self, seed):
        assert_streams_identical(*both(UserSessionModel(n_users=16), 2500, seed))

    def test_single_job(self):
        assert_streams_identical(*both(UserSessionModel(n_users=4), 1, 0))

    def test_single_user(self):
        assert_streams_identical(*both(UserSessionModel(n_users=1), 400, 1))

    def test_single_processor_machine(self):
        assert_streams_identical(
            *both(UserSessionModel(n_users=8, machine_procs=1), 600, 2)
        )
