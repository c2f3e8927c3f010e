"""Action dataclass validation tests."""

from __future__ import annotations

import pytest

from repro.errors import WorkloadError
from repro.workloads.actions import Compute, Sleep


class TestCompute:
    def test_remaining_initialised_to_work(self):
        segment = Compute(5.0)
        assert segment.remaining == 5.0
        assert segment.speedup is None

    def test_zero_work_allowed(self):
        assert Compute(0.0).remaining == 0.0

    def test_negative_work_rejected(self):
        with pytest.raises(WorkloadError, match="negative work -1.0"):
            Compute(-1.0)

    def test_speedup_below_one_rejected(self):
        with pytest.raises(WorkloadError):
            Compute(1.0, speedup=0.5)

    def test_speedup_override_stored(self):
        assert Compute(1.0, speedup=2.2).speedup == 2.2

    @pytest.mark.parametrize("work", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_work_rejected(self, work):
        with pytest.raises(WorkloadError):
            Compute(work)

    @pytest.mark.parametrize("speedup", [float("nan"), float("inf")])
    def test_non_finite_speedup_rejected(self, speedup):
        with pytest.raises(WorkloadError, match="finite"):
            Compute(1.0, speedup=speedup)


class TestSleep:
    def test_positive_duration(self):
        assert Sleep(3.0).duration == 3.0

    def test_zero_duration_rejected(self):
        with pytest.raises(WorkloadError):
            Sleep(0.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(WorkloadError):
            Sleep(-1.0)

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(WorkloadError, match="finite"):
            Sleep(duration)
