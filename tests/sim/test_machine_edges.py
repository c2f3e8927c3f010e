"""Machine error paths and scheduler-contract enforcement."""

from __future__ import annotations

import pytest

from repro.errors import SchedulerError, SimulationError, WorkloadError
from repro.kernel.task import Task
from repro.schedulers.cfs import CFSScheduler
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from repro.workloads.actions import Compute, Sleep
from tests.conftest import NEUTRAL_PROFILE, make_machine, make_simple_task


class TestPreemptAndMigrateAPI:
    def test_preempt_running_on_idle_core_rejected(self):
        machine = make_machine(1, 1)
        with pytest.raises(SchedulerError):
            machine.preempt_running(machine.cores[0], 0.0)

    def test_migrate_unqueued_task_rejected(self):
        machine = make_machine(1, 1)
        task = make_simple_task()
        task.mark_ready()
        with pytest.raises(SchedulerError):
            machine.migrate_queued(task, machine.cores[0], 0.0)

    def test_migrate_queued_moves_between_queues(self):
        machine = make_machine(1, 1)
        task = make_simple_task()
        task.mark_ready()
        machine.cores[0].rq.enqueue(task)
        machine.migrate_queued(task, machine.cores[1], 0.0)
        assert task.rq_core_id == 1
        assert len(machine.cores[0].rq) == 0

    def test_request_dispatch_only_marks_idle_cores(self):
        machine = make_machine(1, 0)
        core = machine.cores[0]
        machine.request_dispatch(core)
        assert core.core_id in machine._dispatch_pending
        machine._dispatch_pending.clear()
        core.current = make_simple_task()
        machine.request_dispatch(core)
        assert core.core_id not in machine._dispatch_pending


class TestSchedulerContract:
    def test_allocating_outside_affinity_is_caught(self):
        class RogueScheduler(CFSScheduler):
            name = "rogue"

            def select_core(self, task, now):
                return self._require_machine().cores[0]  # ignores affinity

        machine = make_machine(1, 1, scheduler=RogueScheduler())
        task = make_simple_task()
        task.affinity = frozenset({1})
        machine.add_task(task)
        with pytest.raises(SchedulerError, match="outside affinity"):
            machine.run()

    def test_zero_slice_is_caught(self):
        class ZeroSlice(CFSScheduler):
            name = "zeroslice"

            def slice_for(self, task, core):
                return 0.0

        machine = make_machine(1, 0, scheduler=ZeroSlice())
        machine.add_task(make_simple_task(work=1.0))
        with pytest.raises(SchedulerError, match="slice"):
            machine.run()

    def test_scheduler_detached_hooks_rejected(self):
        sched = CFSScheduler()
        with pytest.raises(SchedulerError):
            sched.allowed_cores(make_simple_task())


class TestActionEdgeCases:
    def test_zero_work_segments_are_skipped(self):
        machine = make_machine(1, 0, context_switch_cost=0.0, migration_cost=0.0)

        def zero_then_real():
            yield Compute(0.0)
            yield Compute(0.0)
            yield Compute(2.0)

        machine.add_task(Task("z", 0, zero_then_real(), NEUTRAL_PROFILE))
        result = machine.run()
        assert result.makespan == pytest.approx(2.0)

    def test_action_livelock_detected(self):
        machine = make_machine(1, 0, max_actions_per_advance=50)

        def spins_forever():
            while True:
                yield Compute(0.0)

        machine.add_task(Task("spin", 0, spins_forever(), NEUTRAL_PROFILE))
        with pytest.raises(SimulationError, match="livelock"):
            machine.run()

    def test_unknown_action_rejected(self):
        machine = make_machine(1, 0)

        def bad():
            yield "not-an-action"

        machine.add_task(Task("bad", 0, bad(), NEUTRAL_PROFILE))
        with pytest.raises(SimulationError, match="unknown action"):
            machine.run()

    def test_nan_compute_rejected(self):
        # Used to run to completion with a garbage makespan.
        machine = make_machine(1, 0)

        def bad():
            yield Compute(float("nan"))
            yield Compute(1.0)

        machine.add_task(Task("bad", 0, bad(), NEUTRAL_PROFILE))
        with pytest.raises(WorkloadError, match="finite"):
            machine.run()

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_non_finite_sleep_rejected(self, duration):
        # Used to fail later with a misleading segment-done error.
        machine = make_machine(1, 0)

        def bad():
            yield Compute(1.0)
            yield Sleep(duration)

        machine.add_task(Task("bad", 0, bad(), NEUTRAL_PROFILE))
        with pytest.raises(WorkloadError, match="sleep duration"):
            machine.run()

    def test_generator_exception_propagates(self):
        machine = make_machine(1, 0)

        def raises():
            yield Compute(0.5)
            raise ValueError("user workload bug")

        machine.add_task(Task("boom", 0, raises(), NEUTRAL_PROFILE))
        with pytest.raises(ValueError, match="user workload bug"):
            machine.run()


class TestRunUntil:
    def test_truncated_run_reports_unfinished_tasks(self):
        machine = make_machine(1, 0)
        machine.add_task(make_simple_task(work=100.0))
        with pytest.raises(SimulationError, match="never finished"):
            machine.run(until=1.0)


class TestPenaltyModel:
    def test_penalty_consumed_before_work(self):
        machine = Machine(
            make_topology(1, 0),
            CFSScheduler(),
            MachineConfig(seed=0, context_switch_cost=1.0, migration_cost=0.0),
        )
        task = make_simple_task(work=5.0)
        machine.add_task(task)
        result = machine.run()
        # One context switch (idle -> task): 1 ms penalty + 5 ms work.
        assert result.makespan == pytest.approx(6.0)
        assert task.work_done == pytest.approx(5.0)

    def test_migration_penalty_on_cross_core_move(self):
        machine = Machine(
            make_topology(2, 0),
            CFSScheduler(),
            MachineConfig(seed=0, context_switch_cost=0.0, migration_cost=0.5),
        )
        # Three equal tasks on two cores force at least one migration-free
        # schedule; just assert accounting stays consistent.
        tasks = [make_simple_task(f"t{i}", work=3.0, app_id=i) for i in range(3)]
        for task in tasks:
            machine.add_task(task)
        result = machine.run()
        migrated = sum(t.migrations for t in tasks)
        assert result.makespan >= 4.5  # 9 work over 2 cores
        assert migrated == result.total_migrations
