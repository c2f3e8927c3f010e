"""The action vocabulary of workload threads.

A workload thread is a Python generator that *yields* actions to the
machine and receives results back through ``generator.send``.  Example::

    def consumer(pipe):
        while True:
            item = yield PipeGet(pipe)     # may block the thread
            if item is None:               # poison pill
                return
            yield Compute(work=0.5)        # execute 0.5 big-core ms

The machine executes each action in simulated time:

* :class:`Compute` occupies a core for ``work / rate`` milliseconds and is
  the only action that consumes CPU time (it is preemptible and resumable);
* the synchronisation actions map one-to-one onto the futex-backed
  primitives in :mod:`repro.kernel.sync` and may put the thread to sleep;
* :class:`Spawn` registers a new task with the machine (used by tests and
  by models with late-started threads);
* :class:`Sleep` parks the thread for a fixed simulated duration.

Yield results: :class:`PipeGet` yields the dequeued item; every other
action yields ``None``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Union

from repro.errors import WorkloadError

#: Upper bound of the finiteness checks (a module global is a cheap load).
_INF = math.inf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernel.sync import Barrier, CondVar, Mutex, Pipe, RWLock, Semaphore
    from repro.kernel.task import Task


@dataclass
class Compute:
    """Execute ``work`` big-core-milliseconds of computation.

    Attributes:
        work: Total work of the segment (finite, >= 0), in big-core
            milliseconds.
        speedup: Optional phase-specific ground-truth big-vs-little
            speedup (finite, >= 1) overriding the thread's profile
            speedup.  Used by models with distinct serial/parallel phase
            characteristics (e.g. swaptions' core-insensitive bottleneck
            threads).
        remaining: Work not yet retired; maintained by the machine.
    """

    work: float
    speedup: float | None = None
    remaining: float = field(init=False)

    def __post_init__(self) -> None:
        # One chained comparison on the common path: this runs per segment.
        if not 0.0 <= self.work < _INF:
            if self.work < 0:
                raise WorkloadError(f"negative work {self.work}")
            raise WorkloadError(f"work must be finite, got {self.work}")
        if self.speedup is not None and not 1.0 <= self.speedup < _INF:
            if self.speedup < 1.0:
                raise WorkloadError(f"speedup {self.speedup} < 1.0")
            raise WorkloadError(f"speedup must be finite, got {self.speedup}")
        self.remaining = self.work


@dataclass
class LockAcquire:
    """Acquire a mutex (blocks while contended)."""

    mutex: "Mutex"


@dataclass
class LockRelease:
    """Release a held mutex (wakes the longest waiter, charges caused-wait)."""

    mutex: "Mutex"


@dataclass
class BarrierWait:
    """Arrive at a cyclic barrier (blocks until all parties arrive)."""

    barrier: "Barrier"


@dataclass
class CondWait:
    """Park on a condition variable until signalled."""

    cond: "CondVar"


@dataclass
class CondSignal:
    """Wake one waiter of a condition variable."""

    cond: "CondVar"


@dataclass
class CondBroadcast:
    """Wake all waiters of a condition variable."""

    cond: "CondVar"


@dataclass
class PipePut:
    """Enqueue ``item`` on a bounded pipe (blocks while full)."""

    pipe: "Pipe"
    item: Any = None


@dataclass
class PipeGet:
    """Dequeue from a bounded pipe (blocks while empty); yields the item."""

    pipe: "Pipe"


@dataclass
class Spawn:
    """Register a new task with the machine, runnable immediately."""

    task: "Task"


@dataclass
class Sleep:
    """Sleep for a fixed simulated duration (not CPU time).

    Attributes:
        duration: Milliseconds to stay blocked (finite, > 0).
    """

    duration: float

    def __post_init__(self) -> None:
        if not 0.0 < self.duration < _INF:
            raise WorkloadError(
                f"sleep duration must be finite and > 0, got {self.duration}"
            )


Action = Union[
    Compute,
    LockAcquire,
    LockRelease,
    BarrierWait,
    CondWait,
    CondSignal,
    CondBroadcast,
    PipePut,
    PipeGet,
    Spawn,
    Sleep,
    "SemAcquire",
    "SemRelease",
    "ReadAcquire",
    "ReadRelease",
    "WriteAcquire",
    "WriteRelease",
]


@dataclass
class SemAcquire:
    """Take one permit of a counting semaphore (blocks when exhausted)."""

    semaphore: "Semaphore"


@dataclass
class SemRelease:
    """Return one permit (wakes the longest waiter, charges caused-wait)."""

    semaphore: "Semaphore"


@dataclass
class ReadAcquire:
    """Enter a readers/writer lock as a reader."""

    rwlock: "RWLock"


@dataclass
class ReadRelease:
    """Leave the read side of a readers/writer lock."""

    rwlock: "RWLock"


@dataclass
class WriteAcquire:
    """Enter a readers/writer lock exclusively."""

    rwlock: "RWLock"


@dataclass
class WriteRelease:
    """Release exclusive ownership of a readers/writer lock."""

    rwlock: "RWLock"
