"""Span tracing of repro's layers from outside the program.

:class:`SpanTracer` replaces the boundary functions of each layer -- the
methods and module functions listed in :data:`TARGETS` -- with wrappers
that record one span per call: the function, its start and end, and the
span that was open when it was called.  Spans stay in compact arrays in
memory and are written out (``.npz``) when the run ends.  A span's self
time is its duration minus the time its child spans cover; a layer's
self time is the sum over its functions.

The wrappers pass arguments and results through untouched, so traced
runs must produce bit-identical results (the benchmark checks this).
Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: Scheduler classes traced one by one, with their evaluation names.
SCHEDULER_CLASSES = (
    ("repro.schedulers.cfs", "CFSScheduler", "linux"),
    ("repro.schedulers.wash", "WASHScheduler", "wash"),
    ("repro.core.colab", "COLABScheduler", "colab"),
)
SCHEDULER_METHODS = (
    "select_core",
    "pick_next",
    "check_preempt_wakeup",
    "charge",
    "slice_for",
    "on_label_tick",
)

#: (module, owner class or None for a module function, attribute, layer).
TARGETS = (
    ("repro.experiments.runner", None, "evaluate_mix", "experiments"),
    ("repro.experiments.runner", None, "run_mix_once", "experiments"),
    ("repro.sim.machine", "Machine", "run", "sim"),
    ("repro.sim.counters", "PerformanceCounters", "record_compute", "pmu"),
    ("repro.sim.counters", "PerformanceCounters", "read_window", "pmu"),
    ("repro.kernel.runqueue", "RunQueue", "enqueue", "kernel"),
    ("repro.kernel.runqueue", "RunQueue", "dequeue", "kernel"),
    ("repro.kernel.runqueue", "RunQueue", "requeue", "kernel"),
    ("repro.kernel.runqueue", "RunQueue", "pop_min", "kernel"),
    ("repro.kernel.runqueue", "RunQueue", "peek_min", "kernel"),
    ("repro.kernel.futex", "FutexTable", "wait", "kernel"),
    ("repro.kernel.futex", "FutexTable", "wake", "kernel"),
    ("repro.kernel.futex", "FutexTable", "wake_all", "kernel"),
    ("repro.model.speedup", "LearnedSpeedupModel", "estimate", "model"),
    ("repro.model.speedup", "OracleSpeedupModel", "estimate", "model"),
    ("repro.model.training", None, "train_speedup_model", "model"),
    ("repro.metrics.baselines", "BaselineCache", "isolated_turnaround", "baselines"),
    ("repro.parallel.cache", "ResultCache", "load", "cache"),
    ("repro.parallel.cache", "ResultCache", "store", "cache"),
    ("repro.parallel.fingerprint", None, "point_fingerprint", "fingerprint"),
    ("repro.parallel.fingerprint", None, "source_tree_hash", "fingerprint"),
    ("repro.obs.attribution", "AttributionAccounting", "on_exec", "obs"),
    ("repro.obs.attribution", "AttributionAccounting", "transition", "obs"),
    ("repro.obs.ledger", "Ledger", "record_run", "obs"),
)

#: Pseudo-function for one resumption of a task's action generator.
ACTIONS = ("workloads", "actions")


@dataclass
class Spans:
    """Recorded spans as arrays, plus counts read from results."""

    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    func: np.ndarray
    funcs: list[tuple[str, str]]
    extras: dict[str, float]

    def save(self, path: Path) -> None:
        np.savez(
            path,
            start=self.start,
            end=self.end,
            parent=self.parent,
            func=self.func,
            meta=np.array(json.dumps({"funcs": self.funcs, "extras": self.extras})),
        )

    @classmethod
    def load(cls, path: Path) -> "Spans":
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            return cls(
                start=data["start"],
                end=data["end"],
                parent=data["parent"],
                func=data["func"],
                funcs=[tuple(f) for f in meta["funcs"]],
                extras=meta["extras"],
            )


class SpanTracer:
    """Installs span-recording wrappers; :meth:`uninstall` restores them."""

    def __init__(self) -> None:
        self.funcs: list[tuple[str, str]] = []
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._func = array("i")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object, bool]] = []
        self.extras: dict[str, float] = {}

    # ------------------------------------------------------------------
    def _add(self, key: str, amount: float) -> None:
        self.extras[key] = self.extras.get(key, 0.0) + amount

    def _func_id(self, layer: str, name: str) -> int:
        self.funcs.append((layer, name))
        return len(self.funcs) - 1

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        """``fn`` recording one span per call; hooks run outside the span."""
        fid = self._func_id(layer, name)
        start, end, parent, func, stack = (
            self._start, self._end, self._parent, self._func, self._stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(start)
            parent.append(stack[-1])
            func.append(fid)
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def traced_actions(self, gen):
        """A generator forwarding ``gen``, one span per resumption."""
        fid = self._actions_fid
        start, end, parent, func, stack = (
            self._start, self._end, self._parent, self._func, self._stack,
        )
        clock = time.perf_counter

        def forward():
            value = None
            while True:
                index = len(start)
                parent.append(stack[-1])
                func.append(fid)
                end.append(0.0)
                stack.append(index)
                start.append(clock())
                try:
                    action = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end[index] = clock()
                    stack.pop()
                value = yield action

        return forward()

    # ------------------------------------------------------------------
    def _before_machine_run(self, args) -> None:
        for task in args[0].tasks:
            if not task.gen_started:
                task.actions = self.traced_actions(task.actions)

    def _after_machine_run(self, args, result) -> None:
        from repro.obs.metrics import MetricsRegistry

        self._add("sim.events", result.events_processed)
        self._add("sim.events_discarded", result.events_discarded)
        self._add("sim.events_suppressed", result.events_suppressed)
        registry = MetricsRegistry(enabled=True)
        args[0].scheduler.publish_metrics(registry)
        counters = registry.snapshot()["counters"]
        self._add("pred_cache.hits", counters.get("model.pred_cache.hits", 0.0))
        self._add("pred_cache.misses", counters.get("model.pred_cache.misses", 0.0))

    def _after_cache_load(self, args, result) -> None:
        self._add("cache.hits", 1.0 if result is not None else 0.0)

    def _patch(self, owner, attr: str, wrapper, original) -> None:
        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def install(self) -> "SpanTracer":
        """Wrap every boundary of :data:`TARGETS` and the scheduler classes."""
        self._actions_fid = self._func_id(*ACTIONS)
        hooks = {
            ("Machine", "run"): (self._before_machine_run, self._after_machine_run),
            ("ResultCache", "load"): (None, self._after_cache_load),
        }
        for module_name, owner_name, attr, layer in TARGETS:
            module = importlib.import_module(module_name)
            owner = module if owner_name is None else getattr(module, owner_name)
            original = getattr(owner, attr)
            name = attr if owner_name is None else f"{owner_name}.{attr}"
            before, after = hooks.get((owner_name, attr), (None, None))
            self._patch(
                owner, attr, self.wrap(layer, name, original, before, after), original
            )
        # Read every original first: WASH inherits CFS methods, and must
        # get its own wrapper around the unwrapped function.
        originals = []
        for module_name, class_name, policy in SCHEDULER_CLASSES:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in SCHEDULER_METHODS:
                originals.append((cls, policy, method, getattr(cls, method)))
        for cls, policy, method, original in originals:
            self._patch(
                cls, method, self.wrap("sched", f"{policy}.{method}", original), original
            )
        return self

    def uninstall(self) -> None:
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def __enter__(self) -> "SpanTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def spans(self) -> Spans:
        if len(self._stack) != 1:
            raise RuntimeError(f"{len(self._stack) - 1} spans still open")
        return Spans(
            start=np.frombuffer(self._start, dtype=np.float64).copy(),
            end=np.frombuffer(self._end, dtype=np.float64).copy(),
            parent=np.frombuffer(self._parent, dtype=np.int64).copy(),
            func=np.frombuffer(self._func, dtype=np.int32).copy(),
            funcs=list(self.funcs),
            extras=dict(self.extras),
        )


# ----------------------------------------------------------------------
# Reduction to per-function sums (mergeable across processes)
# ----------------------------------------------------------------------
def summarize(spans: Spans) -> dict:
    """Per-function sums: calls, layer entries, self time, entry time.

    An *entry* is a span whose parent lies in another layer (or is
    absent): one operation of that layer as its callers see it, so
    ``requeue`` counts once although it calls ``dequeue`` and ``enqueue``.
    Entry time sums the durations of entries only, so nested spans of one
    layer are not counted twice.
    """
    n = len(spans.start)
    layers = sorted({layer for layer, _ in spans.funcs})
    layer_of_func = np.array(
        [layers.index(layer) for layer, _ in spans.funcs], dtype=np.int64
    )
    duration = spans.end - spans.start
    has_parent = spans.parent >= 0
    safe_parent = np.where(has_parent, spans.parent, 0)
    child_time = np.bincount(
        spans.parent[has_parent], weights=duration[has_parent], minlength=n
    )
    self_time = duration - child_time
    span_layer = layer_of_func[spans.func]
    parent_layer = np.where(has_parent, span_layer[safe_parent], -1)
    entry = span_layer != parent_layer
    n_funcs = len(spans.funcs)

    def per_func(weights=None):
        return np.bincount(spans.func, weights=weights, minlength=n_funcs)

    calls = per_func()
    entries = per_func(entry.astype(np.float64))
    self_sum = per_func(self_time)
    entry_sum = per_func(np.where(entry, duration, 0.0))
    funcs: dict[str, dict[str, float]] = {}
    for index, (layer, name) in enumerate(spans.funcs):
        funcs[f"{layer}:{name}"] = {
            "calls": float(calls[index]),
            "entries": float(entries[index]),
            "self_s": float(self_sum[index]),
            "entry_s": float(entry_sum[index]),
        }
    # Simulations started by the baseline cache are its misses.
    names = [f"{layer}:{name}" for layer, name in spans.funcs]
    run_id = names.index("sim:Machine.run")
    iso_id = names.index("baselines:BaselineCache.isolated_turnaround")
    under_iso = (spans.func == run_id) & has_parent & (
        spans.func[safe_parent] == iso_id
    )
    extras = dict(spans.extras)
    extras["baselines.runs"] = float(np.count_nonzero(under_iso))
    return {"funcs": funcs, "extras": extras}


def save_and_summarize(spans: Spans, name: str) -> dict:
    """Write ``spans`` to the work directory, then :func:`summarize` them."""
    from benchlib import WORK

    WORK.mkdir(parents=True, exist_ok=True)
    spans.save(WORK / f"spans-{name}.npz")
    return summarize(spans)


def merge(summaries: list[dict]) -> dict:
    """Sum several :func:`summarize` results (one per process)."""
    funcs: dict[str, dict[str, float]] = {}
    extras: dict[str, float] = {}
    for summary in summaries:
        for key, fields in summary["funcs"].items():
            into = funcs.setdefault(key, dict.fromkeys(fields, 0.0))
            for field_name, value in fields.items():
                into[field_name] += value
        for key, value in summary["extras"].items():
            extras[key] = extras.get(key, 0.0) + value
    return {"funcs": funcs, "extras": extras}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The benchmark's per-layer metrics, ``name -> (value, unit)``."""
    funcs = summary["funcs"]
    extras = summary["extras"]

    def get(key: str, field_name: str) -> float:
        return funcs.get(key, {}).get(field_name, 0.0)

    def layer_sum(layer: str, field_name: str, prefix: str = "") -> float:
        return sum(
            fields[field_name]
            for key, fields in funcs.items()
            if key.startswith(f"{layer}:{prefix}")
        )

    def sched_calls(method: str) -> float:
        return sum(get(f"sched:{p}.{method}", "calls") for _, _, p in SCHEDULER_CLASSES)

    events = extras.get("sim.events", 0.0)
    records = get("pmu:PerformanceCounters.record_compute", "calls")
    reads = get("pmu:PerformanceCounters.read_window", "calls")
    hits = extras.get("pred_cache.hits", 0.0)
    misses = extras.get("pred_cache.misses", 0.0)
    estimates = ("model:LearnedSpeedupModel.estimate", "model:OracleSpeedupModel.estimate")
    iso = "baselines:BaselineCache.isolated_turnaround"
    lookups = get("cache:ResultCache.load", "calls")
    metrics = {
        "experiments.points": (get("experiments:evaluate_mix", "calls"), "count"),
        "experiments.runs": (get("experiments:run_mix_once", "calls"), "count"),
        "sim.events": (events, "count"),
        "sim.events_discarded": (extras.get("sim.events_discarded", 0.0), "count"),
        "sim.events_suppressed": (extras.get("sim.events_suppressed", 0.0), "count"),
        "sim.self_s": (layer_sum("sim", "self_s"), "s"),
        "sim.host_us_per_event": (
            _ratio(get("sim:Machine.run", "entry_s") * 1e6, events), "us"
        ),
        "pmu.records": (records, "count"),
        "pmu.reads": (reads, "count"),
        "pmu.reads_per_record": (_ratio(reads, records), "ratio"),
        "pmu.self_s": (layer_sum("pmu", "self_s"), "s"),
        "workloads.actions": (get("workloads:actions", "calls"), "count"),
        "workloads.self_s": (layer_sum("workloads", "self_s"), "s"),
        "kernel.rq_ops": (layer_sum("kernel", "entries", "RunQueue."), "count"),
        "kernel.futex_waits": (get("kernel:FutexTable.wait", "entries"), "count"),
        "kernel.futex_wakes": (
            get("kernel:FutexTable.wake", "entries")
            + get("kernel:FutexTable.wake_all", "entries"),
            "count",
        ),
        "kernel.self_s": (layer_sum("kernel", "self_s"), "s"),
        "sched.picks": (sched_calls("pick_next"), "count"),
        "sched.selects": (sched_calls("select_core"), "count"),
        "sched.preempt_checks": (sched_calls("check_preempt_wakeup"), "count"),
        "sched.self_s": (layer_sum("sched", "self_s"), "s"),
        "model.pred_cache.hit_ratio": (_ratio(hits, hits + misses), "ratio"),
        "model.estimates": (sum(get(k, "calls") for k in estimates), "count"),
        "model.estimate_s": (sum(get(k, "entry_s") for k in estimates), "s"),
        "model.trainings": (get("model:train_speedup_model", "calls"), "count"),
        "model.train_s": (get("model:train_speedup_model", "entry_s"), "s"),
        "baselines.runs": (extras.get("baselines.runs", 0.0), "count"),
        "baselines.hit_ratio": (
            1.0 - _ratio(extras.get("baselines.runs", 0.0), get(iso, "calls"))
            if get(iso, "calls") else 0.0,
            "ratio",
        ),
        "baselines.s": (get(iso, "entry_s"), "s"),
        "cache.lookups": (lookups, "count"),
        "cache.hit_ratio": (_ratio(extras.get("cache.hits", 0.0), lookups), "ratio"),
        "cache.load_s": (get("cache:ResultCache.load", "entry_s"), "s"),
        "cache.stores": (get("cache:ResultCache.store", "calls"), "count"),
        "cache.store_s": (get("cache:ResultCache.store", "entry_s"), "s"),
        "fingerprint.source_hash_s": (
            get("fingerprint:source_tree_hash", "entry_s"), "s"
        ),
        "obs.attribution_s": (
            get("obs:AttributionAccounting.on_exec", "entry_s")
            + get("obs:AttributionAccounting.transition", "entry_s"),
            "s",
        ),
        "obs.ledger.writes": (get("obs:Ledger.record_run", "calls"), "count"),
        "obs.ledger.write_s": (get("obs:Ledger.record_run", "entry_s"), "s"),
    }
    for _, _, policy in SCHEDULER_CLASSES:
        metrics[f"sched.{policy}.self_s"] = (
            layer_sum("sched", "self_s", f"{policy}."), "s"
        )
    return metrics
