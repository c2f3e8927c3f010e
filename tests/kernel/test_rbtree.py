"""The CFS timeline inside RunQueue: ``(vruntime, tid)`` pick order.

The kernel keeps this order in a red-black tree; RunQueue keeps it in a
bisect-sorted list of ``(vruntime, tid, task)`` entries.  These tests pin
the order and the container's bookkeeping (timeline, tid index, entry
map) through RunQueue's public API, with ``sanitize_violations`` as the
invariant check after each step.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.runqueue import RunQueue
from tests.conftest import make_simple_task


def ready_task(vruntime: float = 0.0, name: str = "t"):
    task = make_simple_task(name=name)
    task.mark_ready()
    task.vruntime = vruntime
    return task


def make_rq(vruntimes):
    rq = RunQueue(0)
    tasks = [ready_task(v, f"t{i}") for i, v in enumerate(vruntimes)]
    for task in tasks:
        rq.enqueue(task)
    return rq, tasks


def order(tasks):
    return sorted(tasks, key=lambda t: (t.vruntime, t.tid))


class TestBasics:
    def test_empty_tree(self):
        rq = RunQueue(0)
        assert len(rq) == 0
        assert not rq
        assert rq.peek_min() is None
        assert rq.pop_min() is None
        assert list(rq.tasks()) == []
        assert rq.best(lambda t: (t.vruntime,)) is None
        assert rq.max_blocking() is None
        assert rq.sanitize_violations() == []

    def test_single_insert(self):
        rq, (task,) = make_rq([1.0])
        assert len(rq) == 1
        assert rq.peek_min() is task
        assert task in rq
        assert rq._timeline == [(1.0, task.tid, task)]

    def test_insert_many_ordered_iteration(self):
        rq, tasks = make_rq([float(i) for i in (5, 3, 8, 1, 9, 2, 7, 4, 6, 0)])
        assert list(rq.tasks()) == order(tasks)

    def test_duplicate_key_rejected(self):
        rq, (task,) = make_rq([1.0])
        with pytest.raises(KernelError):
            rq.enqueue(task)
        assert len(rq) == 1
        assert rq.sanitize_violations() == []

    def test_same_float_different_tiebreak_allowed(self):
        rq, (first, second) = make_rq([1.0, 1.0])
        assert len(rq) == 2
        assert first.tid < second.tid
        assert list(rq.tasks()) == [first, second]

    def test_get(self):
        rq, (a, b) = make_rq([1.0, 2.0])
        other = ready_task(3.0)
        assert a in rq and b in rq
        assert other not in rq
        rq.dequeue(a)
        assert a not in rq

    def test_remove_returns_value(self):
        rq, (a, b) = make_rq([1.0, 2.0])
        assert rq.pop_min() is a
        assert len(rq) == 1
        assert a not in rq

    def test_remove_missing_raises(self):
        rq = RunQueue(0)
        with pytest.raises(KernelError):
            rq.dequeue(ready_task(1.0))

    def test_pop_leftmost_order(self):
        rq, tasks = make_rq([float(i) for i in (4, 2, 6, 1, 3, 5, 7)])
        popped = []
        while rq:
            popped.append(rq.pop_min())
        assert popped == order(tasks)

    def test_clear(self):
        rq, tasks = make_rq([float(i) for i in range(10)])
        for task in tasks:
            rq.dequeue(task)
        assert len(rq) == 0
        assert rq._timeline == [] and rq._nodes == {} and rq._by_tid == {}
        rq.enqueue(tasks[3])
        assert len(rq) == 1

    def test_keys_and_values(self):
        rq, (b, a) = make_rq([2.0, 1.0])
        assert [entry[:2] for entry in rq._timeline] == [
            (1.0, a.tid), (2.0, b.tid)
        ]
        assert [entry[2] for entry in rq._timeline] == [a, b]
        assert all(rq._nodes[e[1]] is e for e in rq._timeline)

    def test_leftmost_updates_on_smaller_insert(self):
        rq, _ = make_rq([5.0])
        smaller = ready_task(1.0)
        rq.enqueue(smaller)
        assert rq.peek_min() is smaller

    def test_leftmost_updates_on_removal(self):
        rq, (a, b, c) = make_rq([1.0, 2.0, 3.0])
        rq.dequeue(a)
        assert rq.peek_min() is b

    def test_invariants_after_sequential_ops(self):
        rq = RunQueue(0)
        tasks = [ready_task(float(i % 17), f"t{i}") for i in range(100)]
        for task in tasks:
            rq.enqueue(task)
            assert rq.sanitize_violations() == []
        for task in tasks[::3]:
            task.vruntime += 5.0  # drifts away from its timeline key
            rq.dequeue(task)
            assert rq.sanitize_violations() == []
        assert list(rq.tasks()) == order(
            t for i, t in enumerate(tasks) if i % 3
        )


vruntimes = st.lists(st.floats(-1e6, 1e6), max_size=40)


class TestProperties:
    @given(vruntimes)
    @settings(max_examples=30, deadline=None)
    def test_matches_sorted_model(self, values):
        """Timeline iteration always equals the sorted reference model."""
        rq, tasks = make_rq(values)
        assert list(rq.tasks()) == order(tasks)
        assert len(rq) == len(tasks)
        assert rq.sanitize_violations() == []

    @given(vruntimes, st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_removals_keep_invariants(self, values, data):
        rq, tasks = make_rq(values)
        doomed = data.draw(st.sets(st.sampled_from(range(len(tasks))))
                           if tasks else st.just(set()))
        for i in sorted(doomed):
            rq.dequeue(tasks[i])
            assert rq.sanitize_violations() == []
        kept = [t for i, t in enumerate(tasks) if i not in doomed]
        assert list(rq.tasks()) == order(kept)

    @given(vruntimes)
    @settings(max_examples=30, deadline=None)
    def test_pop_leftmost_is_total_sort(self, values):
        rq, tasks = make_rq(values)
        popped = []
        while rq:
            popped.append(rq.pop_min())
        assert popped == order(tasks)
        assert rq.sanitize_violations() == []

    @given(vruntimes)
    @settings(max_examples=30, deadline=None)
    def test_interleaved_insert_remove(self, values):
        """Enqueue everything, dequeue every other head, re-enqueue it."""
        rq, tasks = make_rq(values)
        for _ in range(len(tasks) // 2):
            head = rq.peek_min()
            rq.dequeue(head)
            head.vruntime += 1.0
            rq.enqueue(head)
            assert rq.sanitize_violations() == []
        assert list(rq.tasks()) == order(tasks)
