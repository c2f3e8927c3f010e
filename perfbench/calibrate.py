"""Host-speed calibration: timings in reference seconds.

On a shared host the speed of one vCPU flips between states up to 1.7x
apart, every few seconds, independently on each vCPU, as neighbours
come and go.  No estimator over a 25-second run (median, fastest of N)
removes a state that lasts much of the run.  So the benchmark samples
host speed with a fixed calibration loop, in the process that does the
work and while it works, and reports every timing in *reference
seconds*: each stretch of wall time between two samples counts as::

    stretch_s / mean(loop_s at its start, loop_s at its end) * LOOP_REF_S

The loop is pure Python of the same kind as the simulator (slotted
objects, a heap of events, dict updates) and lives here, outside the
program, so a change to the program moves the quotient and a change of
host speed cancels out of it.  ``LOOP_REF_S`` is a round figure of the
order of the loop's time on a 2-vCPU Xeon VM (2-4 ms there, as its speed
drifts), so reference seconds read about like wall seconds.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: The loop's nominal time: the scale of a reference second.
LOOP_REF_S = 3.0e-3


class _Task:
    __slots__ = ("tid", "vruntime", "left")

    def __init__(self, tid: int, left: int) -> None:
        self.tid = tid
        self.vruntime = 0.0
        self.left = left


def loop() -> int:
    """A fixed little event loop; returns the number of events it ran."""
    rng = random.Random(7)
    tasks = [_Task(i, rng.randint(5, 40)) for i in range(48)]
    events = [(rng.random(), i) for i in range(48)]
    heapq.heapify(events)
    runnable: dict[int, float] = {}
    ran = 0
    while events:
        now, tid = heapq.heappop(events)
        task = tasks[tid]
        task.vruntime += 1.5 / (1 + (tid & 3))
        task.left -= 1
        runnable[tid] = task.vruntime
        ran += 1
        if task.left > 0:
            heapq.heappush(events, (now + 0.1 + task.vruntime % 1.0, tid))
        else:
            del runnable[tid]
        if len(runnable) > 8:
            min(runnable, key=runnable.get)
    return ran


def loop_s() -> float:
    """Seconds one run of :func:`loop` takes, GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        loop()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Samples host speed in this process, through operations that last.

    A sample is one :func:`loop_s`.  Besides the samples that
    :meth:`call` takes at both ends of an operation, one is taken
    whenever a hooked function returns and ``period`` seconds have
    passed since the last, so a long operation is sampled throughout.
    Time spent sampling is counted apart (:attr:`sampling`), never as
    part of an operation.
    """

    def __init__(self, period: float = 0.1) -> None:
        self.period = period
        #: Wall and reference seconds of the stretches between samples.
        self.wall = 0.0
        self.reference = 0.0
        #: Wall seconds spent in the calibration loop.
        self.sampling = 0.0
        self.samples = 0
        #: Reference per wall second over the last :meth:`call`.
        self.last_factor = float("nan")
        self._loop_s = 0.0
        self._since = 0.0
        self._idle = True
        self.sample()

    def sample(self) -> None:
        """Close the running stretch with a sample."""
        started = time.perf_counter()
        loop = loop_s()
        if not self._idle:
            stretch = started - self._since
            self.wall += stretch
            self.reference += stretch * LOOP_REF_S / ((self._loop_s + loop) / 2.0)
        self._loop_s = loop
        self.samples += 1
        self._idle = False
        self._since = time.perf_counter()
        self.sampling += self._since - started

    def call(self, fn, *args):
        """``(fn(*args), reference seconds it took)``.

        Untimed work since the last sample is left out: the stretch
        restarts now, from that sample if it is recent, else from a
        fresh one.
        """
        if time.perf_counter() - self._since > self.period:
            self._idle = True
            self.sample()
        self._since = time.perf_counter()
        wall, reference = self.wall, self.reference
        out = fn(*args)
        self.sample()
        self.last_factor = (self.reference - reference) / (self.wall - wall)
        return out, self.reference - reference

    def hook(self, owner, name: str):
        """Sample, when due, each time ``owner.name`` returns.

        Returns a function that puts the original back.
        """
        real = getattr(owner, name)
        sampler = self

        def sampled(*args, **kwargs):
            try:
                return real(*args, **kwargs)
            finally:
                if time.perf_counter() - sampler._since >= sampler.period:
                    sampler.sample()

        setattr(owner, name, sampled)
        return lambda: setattr(owner, name, real)

    def factor(self) -> float:
        """Reference seconds per wall second over all stretches."""
        return self.reference / self.wall if self.wall else float("nan")

    def report(self) -> dict[str, float]:
        return {"factor": self.factor(), "sampling_s": self.sampling,
                "samples": self.samples}


def wall(fn, *args):
    """``(fn(*args), wall seconds it took)``: an uncalibrated ``call``."""
    started = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - started
