"""Parity of the fused ``Engine.run`` loop with a manual ``step()`` loop.

``Engine.run`` inlines everything :meth:`Engine.step` does for one event.
Random event streams -- same-time ties across kinds, a discard
predicate, a sanitizer and a sampler,
handlers that push events and call ``stop()``, and ``until`` -- must
produce the same hook log, clock and counters either way, on both heap
layouts.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine
from repro.sim.events import Event, EventKind

KINDS = list(EventKind)

#: What the i-th handled event does: the (delay, kind) events it pushes
#: (delay 0.0 makes same-time ties) and whether it calls ``stop()``.
handler_scripts = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from([0.0, 0.0, 0.5, 1.0]), st.sampled_from(KINDS)),
            max_size=2,
        ),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)

streams = st.fixed_dictionaries(
    {
        "initial": st.lists(
            st.tuples(
                st.sampled_from([0.0, 1.0, 1.0, 2.5, 4.0]), st.sampled_from(KINDS)
            ),
            min_size=1,
            max_size=25,
        ),
        "script": handler_scripts,
        "discard_mod": st.integers(min_value=0, max_value=4),
        "until": st.one_of(st.none(), st.sampled_from([0.0, 1.0, 2.5, 6.0])),
        "budget": st.integers(min_value=1, max_value=60),
    }
)


class Sanitizer:
    def __init__(self, log: list) -> None:
        self.log = log

    def on_event(self, event: Event, now: float) -> None:
        self.log.append(("sanitize", event.seq, now))


class Sampler:
    def __init__(self, log: list) -> None:
        self.log = log
        self.next_due = 0.75

    def on_clock_advance(self, time: float) -> None:
        self.log.append(("sample", time, self.next_due))
        while self.next_due <= time:
            self.next_due += 0.75


def build(stream: dict, hotpath: bool) -> tuple[Engine, list]:
    """An engine loaded with ``stream``; returns it with its hook log."""
    engine = Engine(hotpath=hotpath)
    log: list = []
    script = stream["script"]
    budget = [stream["budget"]]  # bounds the events handlers may push
    handled = [0]

    def handle(event: Event) -> None:
        log.append(("handle", event.seq, event.time, int(event.kind), engine.now))
        pushes, stop = script[handled[0] % len(script)]
        handled[0] += 1
        for delay, kind in pushes:
            if budget[0] > 0:
                budget[0] -= 1
                engine.push(Event(time=engine.now + delay, kind=kind))
        if stop:
            engine.stop()

    for kind in KINDS:
        engine.register(kind, handle)
    modulus = stream["discard_mod"]
    if modulus:

        def discard(event: Event) -> bool:
            log.append(("discard?", event.seq))
            return event.seq % (modulus + 1) == modulus

        engine.discard = discard
    engine.sanitizer = Sanitizer(log)
    engine.sampler = Sampler(log)
    for time, kind in stream["initial"]:
        engine.push(Event(time=time, kind=kind))
    return engine, log


def frontier(engine: Engine) -> float:
    head = engine._heap[0]
    return head[0] if engine._hot else head.time


def manual_run(engine: Engine, until: float | None) -> None:
    """``Engine.run`` spelled as a loop over the public ``step()``."""
    engine._stopped = False
    while engine.pending() and not engine._stopped:
        if until is not None and frontier(engine) > until:
            break
        engine.step()


def drive(stream: dict, hotpath: bool, fused: bool) -> tuple:
    engine, log = build(stream, hotpath)
    until = stream["until"]
    # Repeated calls resume after every stop(); the loop ends once the
    # queue is empty or its head lies past ``until``.
    for _ in range(len(stream["script"]) * 60 + 10):
        if not engine.pending() or (until is not None and frontier(engine) > until):
            break
        if fused:
            engine.run(until=until)
        else:
            manual_run(engine, until)
    return log, engine.now, engine.processed, engine.discarded, engine.pending()


@pytest.mark.parametrize("hotpath", [True, False], ids=["tuple-heap", "reference"])
@given(stream=streams)
@settings(max_examples=120, deadline=None)
def test_fused_run_matches_step_loop(hotpath, stream):
    assert drive(stream, hotpath, fused=True) == drive(stream, hotpath, fused=False)


@given(stream=streams)
@settings(max_examples=60, deadline=None)
def test_heap_layouts_agree_under_fused_run(stream):
    assert drive(stream, True, fused=True) == drive(stream, False, fused=True)


def test_streams_exercise_every_hook():
    """A fixed stream hits discard, stop, ties and ``until``."""
    stream = {
        "initial": [
            (1.0, EventKind.TICK),
            (1.0, EventKind.SEGMENT_DONE),
            (4.0, EventKind.LABEL),
        ],
        "script": [([(0.0, EventKind.WAKEUP)], False), ([], True)],
        "discard_mod": 1,
        "until": 2.5,
        "budget": 4,
    }
    log, now, processed, discarded, pending = drive(stream, True, fused=True)
    assert discarded > 0 and processed > 0
    assert pending == 1 and now == 1.0  # the t=4.0 event stays queued
    assert {entry[0] for entry in log} == {
        "discard?", "sanitize", "sample", "handle",
    }
    assert drive(stream, True, fused=False) == (
        log, now, processed, discarded, pending
    )
