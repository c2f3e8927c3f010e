"""The machine's type-keyed action dispatch table."""

from __future__ import annotations

import typing

import repro.workloads.actions as actions_module
from repro.kernel.sync import Mutex
from repro.kernel.task import Task, reset_tid_counter
from repro.sim.digest import run_digest
from repro.workloads.actions import Action, Compute, LockAcquire, LockRelease
from tests.conftest import NEUTRAL_PROFILE, make_machine


def action_types() -> list[type]:
    """Every member of the ``Action`` union, forward references resolved."""
    resolved = []
    for member in typing.get_args(Action):
        if isinstance(member, typing.ForwardRef):
            member = getattr(actions_module, member.__forward_arg__)
        resolved.append(member)
    return resolved


class SubCompute(Compute):
    """A Compute subclass: must run exactly like Compute."""


class SubLockAcquire(LockAcquire):
    """A LockAcquire subclass: must run exactly like LockAcquire."""


def locked_workers_digest(compute_type: type, acquire_type: type) -> str:
    """Digest of three contending lock/compute workers on 1B1S."""
    reset_tid_counter()
    machine = make_machine(1, 1, seed=5)
    lock = Mutex(machine.futexes, name="lock")

    def worker(i: int):
        for j in range(4):
            yield compute_type(0.4 + 0.1 * i)
            yield acquire_type(lock)
            yield compute_type(0.05 * (j + 1))
            yield LockRelease(lock)
        yield compute_type(0.0)

    for i in range(3):
        machine.add_task(Task(f"w{i}", 0, worker(i), NEUTRAL_PROFILE))
    return run_digest(machine.run())


class TestHandlerTable:
    def test_every_action_type_has_a_handler(self):
        types = action_types()
        assert len(types) == 17
        assert set(make_machine(1, 0)._handlers) == set(types)


class TestSubclassDispatch:
    def test_compute_subclass_runs_like_compute(self):
        assert locked_workers_digest(SubCompute, LockAcquire) == (
            locked_workers_digest(Compute, LockAcquire)
        )

    def test_lock_acquire_subclass_runs_like_lock_acquire(self):
        assert locked_workers_digest(Compute, SubLockAcquire) == (
            locked_workers_digest(Compute, LockAcquire)
        )
