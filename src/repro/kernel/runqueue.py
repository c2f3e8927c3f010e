"""Per-core runqueues.

Each core owns one :class:`RunQueue`.  Internally it is the CFS timeline:
READY tasks ordered by ``(vruntime, tid)`` with a monotonic
``min_vruntime`` watermark, exactly like ``struct cfs_rq``.  The kernel
keeps that order in a red-black tree; here it is a plain list kept sorted
with :func:`bisect.insort`, which is faster for queues this short (they
hold at most a few dozen tasks) and yields the same pick order, because
the key ``(vruntime, tid)`` is unique within a queue.

All three reproduced schedulers share this structure:

* CFS picks the leftmost (minimum-vruntime) task;
* WASH delegates picking to CFS, so it also uses the leftmost task;
* COLAB's thread selector ignores vruntime order when picking and instead
  scans for the maximum-blocking task (:meth:`max_blocking`), which is an
  O(n) scan -- acceptable because runqueues are short and it keeps the
  policy logic transparent.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Callable, Iterator

from repro.errors import KernelError
from repro.kernel.task import Task


class RunQueue:
    """The per-core queue of READY tasks, ordered by virtual runtime.

    Args:
        core_id: Id of the owning core (for error messages and task
            bookkeeping).
    """

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        #: The timeline: ``(vruntime, tid, task)`` entries in ascending
        #: order; the head is the leftmost (CFS pick-next) task.
        self._timeline: list[tuple[float, int, Task]] = []
        self._by_tid: dict[int, Task] = {}
        #: Timeline entry each task was inserted under; dequeue removes
        #: that entry, so it stays found even if the task's vruntime
        #: changed while queued.
        self._nodes: dict[int, tuple[float, int, Task]] = {}
        #: Monotonic watermark of the smallest vruntime ever at the head of
        #: this queue; used by CFS to place newly woken tasks fairly.
        self.min_vruntime: float = 0.0
        #: Observability: time-weighted depth tracker + clock, installed by
        #: the machine when metrics are enabled (None otherwise).
        self._depth_tracker = None
        self._clock = None
        #: Runtime sanitizer (:class:`repro.sanitize.SchedSanitizer`),
        #: installed by the machine when ``sanitize=True`` (None otherwise).
        self._sanitizer = None
        #: Attribution accounting (:class:`repro.obs.attribution.
        #: AttributionAccounting`) + the queue's runnable-state code and a
        #: clock; installed by the machine when attribution is on.
        self._attribution = None
        self._attr_state = 0
        self._attr_clock = None

    def attach_depth_tracker(self, clock, tracker) -> None:
        """Publish queue-depth changes into ``tracker`` (obs wiring).

        Args:
            clock: Zero-argument callable returning the current simulated
                time (the machine passes the engine clock).
            tracker: A :class:`repro.obs.TimeWeighted` instrument.
        """
        self._clock = clock
        self._depth_tracker = tracker

    def attach_sanitizer(self, sanitizer) -> None:
        """Validate every mutation through ``sanitizer`` (schedsan wiring)."""
        self._sanitizer = sanitizer

    def attach_attribution(self, clock, accounting, runnable_state: int) -> None:
        """Record runnable-state transitions on enqueue (attribution wiring).

        Args:
            clock: Zero-argument callable returning simulated time.
            accounting: The machine's single
                :class:`repro.obs.attribution.AttributionAccounting`.
            runnable_state: The state code every task entering this queue
                transitions into (``RUNNABLE_BIG`` / ``RUNNABLE_LITTLE``,
                fixed by the owning core's kind).
        """
        self._attr_clock = clock
        self._attribution = accounting
        self._attr_state = runnable_state

    # ------------------------------------------------------------------
    # Size / iteration
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._by_tid)

    def __bool__(self) -> bool:
        return bool(self._by_tid)

    def __contains__(self, task: Task) -> bool:
        return task.tid in self._by_tid

    def tasks(self) -> Iterator[Task]:
        """Iterate queued tasks in ascending vruntime order."""
        return iter([entry[2] for entry in self._timeline])

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def enqueue(self, task: Task) -> None:
        """Add a READY task to this queue.

        Raises:
            KernelError: if the task is already queued here or elsewhere,
                or is not in the READY state.
        """
        if not task.is_runnable:
            raise KernelError(
                f"cannot enqueue {task.name}: state is {task.state.value}"
            )
        if task.rq_core_id is not None:
            raise KernelError(
                f"task {task.name} already on runqueue of core {task.rq_core_id}"
            )
        entry = (task.vruntime, task.tid, task)
        insort(self._timeline, entry)
        self._nodes[task.tid] = entry
        self._by_tid[task.tid] = task
        task.rq_core_id = self.core_id
        if self._attribution is not None:
            self._attribution.transition(task, self._attr_state, self._attr_clock())
        if self._depth_tracker is not None:
            self._depth_tracker.update(self._clock(), len(self._by_tid))
        if self._sanitizer is not None:
            self._sanitizer.on_rq_change(self)

    def dequeue(self, task: Task) -> None:
        """Remove a specific task (migration, or it was picked to run)."""
        if task.tid not in self._by_tid:
            raise KernelError(
                f"task {task.name} not on runqueue of core {self.core_id}"
            )
        timeline = self._timeline
        del timeline[bisect_left(timeline, self._nodes.pop(task.tid))]
        del self._by_tid[task.tid]
        task.rq_core_id = None
        if self._depth_tracker is not None:
            self._depth_tracker.update(self._clock(), len(self._by_tid))
        if self._sanitizer is not None:
            self._sanitizer.on_rq_change(self)

    def requeue(self, task: Task) -> None:
        """Re-key a queued task after its vruntime (or key inputs) changed."""
        self.dequeue(task)
        self.enqueue(task)

    # ------------------------------------------------------------------
    # Selection primitives
    # ------------------------------------------------------------------
    def peek_min(self) -> Task | None:
        """Leftmost (minimum-vruntime) task, or None if empty.

        O(1): the head of the timeline, and no tuple is built.
        """
        timeline = self._timeline
        return timeline[0][2] if timeline else None

    def pop_min(self) -> Task | None:
        """Remove and return the leftmost task (CFS pick-next).

        Advances ``min_vruntime`` to the popped task's virtual runtime
        (it becomes the running "curr"), mirroring ``update_min_vruntime``.
        """
        if not self._timeline:
            return None
        task = self._timeline[0][2]
        self.dequeue(task)
        if task.vruntime > self.min_vruntime:
            self.min_vruntime = task.vruntime
        if self._sanitizer is not None:
            self._sanitizer.on_min_vruntime(self)
        return task

    def best(self, key: Callable[[Task], tuple]) -> Task | None:
        """Task minimising an arbitrary selection key (COLAB pick-next).

        The key function returns a tuple; ties should be broken inside it
        (conventionally by vruntime then tid) so selection stays
        deterministic and starvation-resistant.
        """
        if not self._by_tid:
            return None
        best: Task | None = None
        best_key: tuple | None = None
        for _, _, task in self._timeline:
            candidate = key(task)
            if best_key is None or candidate < best_key:
                best_key = candidate
                best = task
        return best

    def max_blocking(
        self, key: Callable[[Task], float] | None = None
    ) -> Task | None:
        """Task with the highest blocking level (COLAB pick-next).

        Ties are broken by lower vruntime then lower tid so the choice is
        deterministic and starvation-resistant.

        Args:
            key: Optional alternative criticality metric (used by the
                ablation that swaps caused-wait time for waiter counts).
        """
        if not self._by_tid:
            return None
        metric = key if key is not None else (lambda t: t.blocking_level)
        best: Task | None = None
        best_key: tuple[float, float, int] | None = None
        for _, _, task in self._timeline:
            candidate = (-metric(task), task.vruntime, task.tid)
            if best_key is None or candidate < best_key:
                best_key = candidate
                best = task
        return best

    def update_min_vruntime(self, running_vruntime: float | None) -> None:
        """Advance the watermark, considering the currently running task.

        Mirrors ``update_min_vruntime()`` in fair.c: the watermark follows
        min(curr, leftmost) but never moves backwards.  Runs on every
        accounting step, so it is written allocation-free (no candidate
        list); the branches compute exactly ``max(old, min(candidates))``.
        """
        timeline = self._timeline
        if timeline:
            head_vruntime = timeline[0][2].vruntime
            if running_vruntime is None or head_vruntime < running_vruntime:
                floor = head_vruntime
            else:
                floor = running_vruntime
        else:
            floor = running_vruntime
        if floor is not None and floor > self.min_vruntime:
            self.min_vruntime = floor
        if self._sanitizer is not None:
            self._sanitizer.on_min_vruntime(self)

    # ------------------------------------------------------------------
    # Sanitizer support
    # ------------------------------------------------------------------
    def sanitize_violations(self) -> list[str]:
        """Describe every broken queue invariant (empty list = healthy).

        Read-only: validates that the timeline is strictly sorted by
        ``(vruntime, tid)``, the lockstep between the timeline, the tid
        index, the entry map, and the queued tasks' own bookkeeping.
        Queued tasks must be READY and claim this core.  (A queued task's
        *vruntime* may legitimately drift from its timeline key -- dequeue
        removes the recorded entry -- so key staleness is not a
        violation.)
        """
        problems: list[str] = []
        timeline = self._timeline
        for before, after in zip(timeline, timeline[1:]):
            if (before[0], before[1]) >= (after[0], after[1]):
                problems.append(
                    f"timeline out of order: {before[:2]} precedes {after[:2]}"
                )
        if len(self._by_tid) != len(timeline):
            problems.append(
                f"tid index holds {len(self._by_tid)} tasks but timeline "
                f"holds {len(timeline)}"
            )
        if set(self._nodes) != set(self._by_tid):
            problems.append("entry map and tid index disagree on queued tids")
        present = {id(entry) for entry in timeline}
        for tid, entry in self._nodes.items():
            if id(entry) not in present:
                problems.append(f"entry of tid {tid} missing from timeline")
        for _, tid, task in timeline:
            if task.tid != tid or self._by_tid.get(tid) is not task:
                problems.append(
                    f"timeline task {task.name} (tid {task.tid}) missing "
                    "from tid index"
                )
            if not task.is_runnable:
                problems.append(
                    f"queued task {task.name} is {task.state.value}, "
                    "expected ready"
                )
            if task.rq_core_id != self.core_id:
                problems.append(
                    f"queued task {task.name} claims core "
                    f"{task.rq_core_id}, expected {self.core_id}"
                )
        return problems
