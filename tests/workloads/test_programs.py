"""ProgramEnv / Traits / helper tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.kernel.futex import FutexTable
from repro.workloads.programs import (
    ProgramEnv,
    ProgramInstance,
    Traits,
    jittered,
    make_profile,
    make_task,
)
from tests.conftest import make_machine


def env_with(seed=0, scale=1.0):
    return ProgramEnv(
        futexes=FutexTable(), rng=np.random.default_rng(seed), work_scale=scale
    )


class TestTraits:
    def test_valid_traits(self):
        traits = Traits(0.5, 0.5, 0.5)
        assert traits.compute_intensity == 0.5

    def test_out_of_range_rejected(self):
        with pytest.raises(WorkloadError):
            Traits(1.5, 0.5, 0.5)
        with pytest.raises(WorkloadError):
            Traits(0.5, -0.1, 0.5)


class TestEnv:
    def test_for_machine_binds_futex_table(self):
        machine = make_machine(1, 1)
        env = ProgramEnv.for_machine(machine, work_scale=0.5)
        assert env.futexes is machine.futexes
        assert env.work_scale == 0.5

    def test_for_machine_rng_derived_from_machine_seed(self):
        e1 = ProgramEnv.for_machine(make_machine(1, 1, seed=3))
        e2 = ProgramEnv.for_machine(make_machine(1, 1, seed=3))
        assert e1.rng.integers(0, 10**9) == e2.rng.integers(0, 10**9)


class TestJittered:
    def test_scales_with_work_scale(self):
        env = env_with(scale=0.5)
        values = [jittered(env, 10.0, sigma=0.0) for _ in range(5)]
        assert all(v == pytest.approx(5.0) for v in values)

    def test_jitter_varies_but_stays_positive(self):
        env = env_with()
        values = [jittered(env, 1.0) for _ in range(200)]
        assert min(values) > 0
        assert len(set(values)) > 100

    def test_mean_preserving(self):
        env = env_with()
        values = [jittered(env, 1.0, sigma=0.2) for _ in range(4000)]
        assert np.mean(values) == pytest.approx(1.0, rel=0.05)

    def test_negative_rejected(self):
        with pytest.raises(WorkloadError, match="negative work"):
            jittered(env_with(), -1.0)

    @pytest.mark.parametrize("work", [float("nan"), float("inf")])
    def test_non_finite_work_rejected(self, work):
        with pytest.raises(WorkloadError, match="finite"):
            jittered(env_with(), work)

    @pytest.mark.parametrize("sigma", [-0.1, float("nan"), float("inf")])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(WorkloadError, match="sigma"):
            jittered(env_with(), 1.0, sigma=sigma)


class TestFactories:
    def test_make_profile_uses_traits(self):
        env = env_with()
        profile = make_profile(env, Traits(0.9, 0.1, 0.1), jitter=0.0)
        assert profile.ilp > 0.7
        assert profile.mem_bound < 0.2

    def test_make_task_default_profile(self):
        env = env_with()
        task = make_task(env, "t", 0, Traits(0.5, 0.5, 0.5), iter([]))
        assert task.name == "t"
        assert task.profile is not None

    def test_make_task_explicit_profile(self):
        from tests.conftest import FAST_PROFILE

        env = env_with()
        task = make_task(
            env, "t", 0, Traits(0.5, 0.5, 0.5), iter([]), profile=FAST_PROFILE
        )
        assert task.profile is FAST_PROFILE

    def test_program_instance_thread_count(self):
        env = env_with()
        tasks = [
            make_task(env, f"t{i}", 0, Traits(0.5, 0.5, 0.5), iter([]))
            for i in range(3)
        ]
        instance = ProgramInstance(name="p", app_id=0, tasks=tasks)
        assert instance.n_threads == 3
