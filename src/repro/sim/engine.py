"""The discrete-event simulation engine.

:class:`Engine` is a minimal, deterministic event loop: a binary heap of
:class:`~repro.sim.events.Event` records ordered by
``(time, kind-priority, insertion sequence)``.  The
:class:`~repro.sim.machine.Machine` owns an engine and registers one
handler per event kind; the engine itself knows nothing about cores,
tasks, or schedulers.

Determinism contract
--------------------
Two runs that push the same events in the same order observe the same
processing order.  This is what allows a (workload, topology, scheduler,
seed, core-order) tuple to fully determine an experiment's outcome, which
the test-suite and the paper's big-first/little-first averaging both rely
on.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable

from repro.errors import SimulationError
from repro.sim.events import Event, EventKind

Handler = Callable[[Event], None]


class Engine:
    """A deterministic discrete-event loop.

    The engine guarantees that time never flows backwards: pushing an event
    with a timestamp earlier than the current simulated time raises
    :class:`~repro.errors.SimulationError` (the discrete-event analogue of
    causality violation).

    Example:
        >>> engine = Engine()
        >>> seen = []
        >>> engine.register(EventKind.CALLBACK, lambda ev: seen.append(ev.time))
        >>> engine.push(Event(time=2.0, kind=EventKind.CALLBACK))
        >>> engine.push(Event(time=1.0, kind=EventKind.CALLBACK))
        >>> engine.run()
        >>> seen
        [1.0, 2.0]
    """

    def __init__(self, max_events: int = 50_000_000, hotpath: bool = True) -> None:
        #: Hot-path heap layout: entries are (time, kind, seq, event)
        #: tuples whose ordering fields are compared natively in C instead
        #: of through Event.__lt__, and whose unique seq guarantees the
        #: Event itself is never compared.  The order is exactly
        #: Event.sort_key(), so both layouts process events identically;
        #: ``hotpath=False`` selects the reference layout (Event objects
        #: compared via sort_key) for A/B parity measurement.
        self._hot = hotpath
        self._heap: list = []
        # Indexed by EventKind value: list indexing beats dict hashing on
        # the hottest line of the simulator (every event dispatches here).
        self._handlers: list[Handler | None] = [None] * len(EventKind)
        self._seq = 0
        self._processed = 0
        self._max_events = max_events
        #: Current simulated time in milliseconds.
        self.now: float = 0.0
        #: Set to stop the loop after the in-flight event completes.
        self._stopped = False
        #: Optional wall-clock profiler (:class:`repro.obs.Profiler`);
        #: when set and enabled, :meth:`run` times the whole loop, and
        #: both :meth:`run` and :meth:`step` attribute handler time per
        #: event kind.
        self.profiler = None
        #: Optional runtime sanitizer (:class:`repro.sanitize.SchedSanitizer`);
        #: when set, every popped event is checked for time travel before
        #: its handler runs.
        self.sanitizer = None
        #: Optional fast-discard predicate installed by the machine: a
        #: popped event for which it returns True is dropped before the
        #: sanitizer, clock, or handler see it.  Must only be used for
        #: events whose handler is provably a no-op (e.g. version-stale
        #: timers), so outcomes stay bit-identical.
        self.discard = None
        #: Events dropped by the fast-discard predicate.
        self.discarded = 0
        #: Optional sim-time sampler (:class:`repro.obs.timeseries.
        #: TimeseriesSampler`); when set, it is notified before the clock
        #: crosses ``sampler.next_due``.  The sampler is
        #: read-only and pushes no events, so sequence numbers and heap
        #: order -- and therefore run digests -- are unaffected.
        self.sampler = None

    # ------------------------------------------------------------------
    # Registration and queueing
    # ------------------------------------------------------------------
    def register(self, kind: EventKind, handler: Handler) -> None:
        """Install ``handler`` for all events of ``kind``.

        Re-registering a kind replaces the previous handler; the machine
        uses this in tests to interpose instrumentation.
        """
        self._handlers[kind] = handler

    def push(self, event: Event) -> Event:
        """Schedule ``event``, assigning it a deterministic sequence number.

        Returns the event so call sites can keep a handle for version
        bookkeeping.

        Raises:
            SimulationError: if ``event.time`` precedes the current time.
        """
        if event.time < self.now:
            raise SimulationError(
                f"event {event.kind.name} scheduled at t={event.time} "
                f"before current time t={self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event.seq = seq
        if self._hot:
            heappush(self._heap, (event.time, event.kind, seq, event))
        else:
            heappush(self._heap, event)
        return event

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._heap)

    @property
    def processed(self) -> int:
        """Number of events processed so far."""
        return self._processed

    def stop(self) -> None:
        """Request the loop to exit after the current event."""
        self._stopped = True

    def step(self) -> Event | None:
        """Process exactly one event; return it, or ``None`` if idle.

        The engine's own past-event guard runs before the sanitizer sees
        the event: a corrupted heap is the engine's bug to report
        (:class:`~repro.errors.SimulationError`), and the sanitizer's
        monotonicity state must not be advanced by an event the engine
        refuses to process.

        A machine-installed :attr:`discard` predicate is consulted next:
        discarded events are dropped without advancing the clock, the
        processed counter, or the sanitizer's monotonicity state -- their
        handler would have been a no-op, so every observable outcome is
        unchanged.
        """
        heap = self._heap
        if not heap:
            return None
        if self._hot:
            event_time, _kind, _seq, event = heappop(heap)
        else:
            event = heappop(heap)
            event_time = event.time
        if event_time < self.now:
            raise SimulationError(
                f"heap produced past event at t={event_time} < now={self.now}"
            )
        discard = self.discard
        if discard is not None and discard(event):
            self.discarded += 1
            return event
        if self.sanitizer is not None:
            self.sanitizer.on_event(event, self.now)
        sampler = self.sampler
        if sampler is not None and event_time >= sampler.next_due:
            sampler.on_clock_advance(event_time)
        self.now = event_time
        self._processed += 1
        if self._processed > self._max_events:
            raise SimulationError(
                f"exceeded max_events={self._max_events}; "
                "likely a livelocked workload or scheduler"
            )
        kind = event.kind
        handler = self._handlers[kind]
        if handler is None:
            raise SimulationError(f"no handler registered for {kind.name}")
        profiler = self.profiler
        if profiler is not None and profiler.enabled:
            started = profiler.start()
            handler(event)
            profiler.stop(f"engine.handle.{kind.name}", started)
        else:
            handler(event)
        return event

    def run(self, until: float | None = None) -> None:
        """Drain the event queue.

        One fused loop does per event exactly what :meth:`step` does, in
        the same order -- past-event guard, :attr:`discard`,
        :attr:`sanitizer`, :attr:`sampler`, clock, processed count and
        ``max_events`` guard, handler.  Every hook is resolved to a local
        once per call instead of once per event, so installing or
        clearing a hook takes effect at the next :meth:`run`;
        :meth:`stop` and handler re-registration still take effect at the
        next event.

        Args:
            until: If given, stop once simulated time would exceed this
                timestamp (the frontier event is left queued).
        """
        self._stopped = False
        profiler = self.profiler
        profiling = profiler is not None and profiler.enabled
        started = profiler.start() if profiling else None
        heap = self._heap
        hot = self._hot
        handlers = self._handlers
        discard = self.discard
        sanitizer = self.sanitizer
        sampler = self.sampler
        max_events = self._max_events
        while heap and not self._stopped:
            if until is not None and (heap[0][0] if hot else heap[0].time) > until:
                break
            if hot:
                event_time, _kind, _seq, event = heappop(heap)
            else:
                event = heappop(heap)
                event_time = event.time
            if event_time < self.now:
                raise SimulationError(
                    f"heap produced past event at t={event_time} < now={self.now}"
                )
            if discard is not None and discard(event):
                self.discarded += 1
            else:
                if sanitizer is not None:
                    sanitizer.on_event(event, self.now)
                if sampler is not None and event_time >= sampler.next_due:
                    sampler.on_clock_advance(event_time)
                self.now = event_time
                processed = self._processed + 1
                self._processed = processed
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; "
                        "likely a livelocked workload or scheduler"
                    )
                kind = event.kind
                handler = handlers[kind]
                if handler is None:
                    raise SimulationError(f"no handler registered for {kind.name}")
                if profiling:
                    handler_started = profiler.start()
                    handler(event)
                    profiler.stop(f"engine.handle.{kind.name}", handler_started)
                else:
                    handler(event)
        if started is not None:
            profiler.stop("engine.run", started)
