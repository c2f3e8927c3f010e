"""Experiment runner tests: caching, averaging, groupings.

Everything here uses the oracle estimator and a tiny work scale so the
312-point machinery is exercised without the full sweep cost.
"""

from __future__ import annotations

import pytest

from repro.errors import ExperimentError
from repro.experiments.multi_program import (
    THREAD_HIGH_MIN,
    group_point,
    mixes_for_group,
    summary,
)
from repro.experiments.runner import (
    CONFIGS,
    ExperimentContext,
    evaluate_mix,
    run_mix_once,
    sweep,
)
from repro.model.speedup import OracleSpeedupModel
from repro.workloads.mixes import MIXES


@pytest.fixture(scope="module")
def ctx():
    return ExperimentContext(
        seed=11, work_scale=0.04, estimator=OracleSpeedupModel()
    )


class TestRunner:
    def test_run_mix_once_caches(self, ctx):
        first = run_mix_once(ctx, MIXES["Sync-1"], "2B2S", "linux", True)
        second = run_mix_once(ctx, MIXES["Sync-1"], "2B2S", "linux", True)
        assert first is second

    def test_core_orders_differ(self, ctx):
        big_first = run_mix_once(ctx, MIXES["Sync-1"], "2B2S", "linux", True)
        little_first = run_mix_once(ctx, MIXES["Sync-1"], "2B2S", "linux", False)
        assert big_first is not little_first

    def test_evaluate_mix_averages_orders(self, ctx):
        metrics = evaluate_mix(ctx, "Sync-1", "2B2S", "linux")
        bf = run_mix_once(ctx, MIXES["Sync-1"], "2B2S", "linux", True)
        lf = run_mix_once(ctx, MIXES["Sync-1"], "2B2S", "linux", False)
        for app_id, name in bf.app_names.items():
            expected = (bf.app_turnaround[app_id] + lf.app_turnaround[app_id]) / 2
            assert metrics.turnarounds[name] == pytest.approx(expected)

    def test_metrics_have_expected_fields(self, ctx):
        metrics = evaluate_mix(ctx, "Sync-1", "2B2S", "colab")
        assert metrics.h_antt > 0
        assert metrics.h_stp > 0
        assert metrics.scheduler == "colab"
        assert metrics.config == "2B2S"

    def test_unknown_mix_rejected(self, ctx):
        with pytest.raises(ExperimentError):
            evaluate_mix(ctx, "Sync-99", "2B2S", "linux")

    def test_unknown_config_rejected(self, ctx):
        with pytest.raises(ExperimentError):
            evaluate_mix(ctx, "Sync-1", "3B3S", "linux")

    @pytest.mark.parametrize(
        "scale", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_bad_work_scale_rejected(self, scale):
        with pytest.raises(ExperimentError, match="work scale"):
            ExperimentContext(work_scale=scale, estimator=OracleSpeedupModel())

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_bad_jobs_rejected(self, jobs):
        with pytest.raises(ExperimentError, match="jobs must be at least 1"):
            ExperimentContext(jobs=jobs, estimator=OracleSpeedupModel())

    def test_sweep_covers_cross_product(self, ctx):
        results = sweep(ctx, ["Sync-1"], configs=("2B2S",), schedulers=("linux", "colab"))
        assert len(results) == 2
        assert {r.scheduler for r in results} == {"linux", "colab"}

    def test_topology_order_helper(self, ctx):
        topo = ctx.topology("2B4S", big_first=False)
        assert topo.specs[0].kind.value == "little"
        assert topo.n_big == 2


class TestGroupings:
    def test_class_groups(self):
        assert len(mixes_for_group("sync", "2B2S")) == 4
        assert len(mixes_for_group("rand", "4B4S")) == 10

    def test_thread_low_depends_on_config(self):
        low_small = set(mixes_for_group("thread-low", "2B2S"))
        low_large = set(mixes_for_group("thread-high", "2B2S"))
        assert low_small  # the 4-thread mixes fit on 4 cores
        assert all(MIXES[i].total_threads <= 4 for i in low_small)
        assert all(MIXES[i].total_threads >= THREAD_HIGH_MIN for i in low_large)
        low_4b4s = set(mixes_for_group("thread-low", "4B4S"))
        assert low_small < low_4b4s  # more mixes qualify on 8 cores

    def test_program_count_groups(self):
        two = mixes_for_group("2-prog", "2B2S")
        four = mixes_for_group("4-prog", "2B2S")
        assert all(MIXES[i].n_programs == 2 for i in two)
        assert all(MIXES[i].n_programs == 4 for i in four)
        assert len(two) + len(four) == 26

    def test_unknown_group_rejected(self):
        with pytest.raises(ExperimentError):
            mixes_for_group("bogus", "2B2S")

    def test_group_point_ratios(self, ctx):
        point = group_point(ctx, "sync", "2B2S", "linux")
        assert point.antt_ratio == pytest.approx(1.0)
        assert point.stp_ratio == pytest.approx(1.0)


class TestEstimatorPlumbing:
    def test_oracle_context_never_trains(self):
        ctx = ExperimentContext(
            seed=1, work_scale=0.05, estimator=OracleSpeedupModel()
        )
        estimator = ctx.get_estimator()
        assert isinstance(estimator, OracleSpeedupModel)

    def test_schedulers_share_estimator(self, ctx):
        wash = ctx.make_scheduler("wash")
        colab = ctx.make_scheduler("colab")
        assert wash.estimator is ctx.get_estimator()
        assert colab.estimator is ctx.get_estimator()

    def test_linux_has_no_estimator(self, ctx):
        linux = ctx.make_scheduler("linux")
        assert not hasattr(linux, "estimator")
