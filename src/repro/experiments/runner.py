"""Core experiment runner with the paper's averaging methodology.

One *evaluation point* is (mix, topology, scheduler).  Following Section
5.1, every point is the average of two simulations that differ only in
core enumeration order (big cores first vs little cores first), because
initial round-robin placement -- and hence everything downstream -- depends
on it.

All runs share one :class:`ExperimentContext`, which carries the seed, the
work scale, the trained speedup model (WASH and COLAB share it, as in the
paper where both use the same performance-model machinery), the baseline
cache, and two bounded in-process caches so the figure drivers that
regroup the same 26 x 4 x 3 sweep (Figures 8 and 9) do not re-simulate
it.  A context may additionally carry a persistent on-disk cache
(:class:`repro.parallel.cache.ResultCache`) and a worker count, in which
case :func:`sweep` fans evaluation points out over a process pool with
deterministic merging (:mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import math
import pathlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Generic, TypeVar

from repro.errors import ExperimentError
from repro.metrics.baselines import BaselineCache
from repro.metrics.turnaround import h_antt, h_stp
from repro.model.speedup import OracleSpeedupModel, SpeedupEstimator
from repro.obs.metrics import Counter, MetricsRegistry
from repro.schedulers import make_scheduler
from repro.sim.machine import Machine, MachineConfig, RunResult
from repro.sim.topology import Topology, make_topology, standard_topologies
from repro.workloads.mixes import MIXES, WorkloadMix
from repro.workloads.programs import ProgramEnv

#: Scheduler evaluation order used in every figure.
SCHEDULERS = ("linux", "wash", "colab")

#: The four hardware configurations of Section 5.1.
CONFIGS = ("2B2S", "2B4S", "4B2S", "4B4S")

#: One simulation: (mix index, config, scheduler, big-cores-first order).
RunKey = tuple[str, str, str, bool]
#: One evaluation point: (mix index, config, scheduler), order-averaged.
MetricsKey = tuple[str, str, str]

_K = TypeVar("_K")
_V = TypeVar("_V")


class BoundedCache(Generic[_K, _V]):
    """A small LRU map with hit/miss/eviction counters.

    The context's run and metrics caches used to be unbounded ``dict``s;
    a long-lived context (a bench session, a service) could grow them
    without limit.  The bound is sized so one full 26 x 4 x 3 campaign
    (624 runs, 312 points) still fits entirely -- eviction only kicks in
    beyond that -- and the counters publish into the context's
    :class:`~repro.obs.metrics.MetricsRegistry`.
    """

    def __init__(
        self, maxsize: int, hits: Counter, misses: Counter, evictions: Counter
    ) -> None:
        if maxsize < 1:
            raise ExperimentError(f"cache maxsize {maxsize} < 1")
        self.maxsize = maxsize
        self._data: OrderedDict[_K, _V] = OrderedDict()
        self.hits = hits
        self.misses = misses
        self.evictions = evictions

    def get(self, key: _K) -> _V | None:
        """The cached value (refreshing recency), or ``None`` on miss."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses.inc()
            return None
        self._data.move_to_end(key)
        self.hits.inc()
        return value

    def put(self, key: _K, value: _V) -> None:
        """Insert/refresh ``key``, evicting the least recent beyond bound."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self.evictions.inc()

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: _K) -> bool:
        return key in self._data


@dataclass
class MixMetrics:
    """Metrics of one evaluation point (already order-averaged)."""

    mix_index: str
    config: str
    scheduler: str
    h_antt: float
    h_stp: float
    makespan: float
    #: app label -> order-averaged turnaround.
    turnarounds: dict[str, float]


@dataclass
class ExperimentContext:
    """Shared state of one experimental campaign.

    Args:
        seed: Master seed (workload structure, counter noise, ...).
        work_scale: Uniform shrink factor on all compute.  1.0 is the
            reference scale; the pytest benches use smaller values to keep
            wall time low without changing workload structure.
        estimator: Speedup model for WASH/COLAB.  ``None`` selects the
            paper-faithful trained model (lazily, cached per process);
            pass an :class:`~repro.model.speedup.OracleSpeedupModel` for
            the model ablation or for fast tests.
        jobs: Default worker-process count for :func:`sweep` and the
            figure drivers; 1 means serial execution in this process.
            A ``work_scale`` that is not positive and finite, or ``jobs``
            below 1, raises :class:`~repro.errors.ExperimentError`.
        cache_dir: Directory for the persistent on-disk result cache; the
            default ``None`` disables persistence (pass
            :func:`repro.parallel.cache.default_cache_dir` for the
            conventional location).
        result_cache: An explicit cache backend (anything with the
            :class:`repro.parallel.cache.ResultCache` ``load``/``store``
            surface); overrides ``cache_dir``.
        executor_factory: Pluggable pool constructor
            ``(max_workers, initializer, initargs) -> Executor`` used by
            the parallel sweep; ``None`` selects
            :class:`concurrent.futures.ProcessPoolExecutor`.
    """

    #: In-process cache bounds; one full campaign (624 runs, 312 points)
    #: fits with headroom, so eviction only affects multi-campaign use.
    RUN_CACHE_SIZE = 1024
    METRICS_CACHE_SIZE = 512

    seed: int = 42
    work_scale: float = 1.0
    estimator: SpeedupEstimator | None = None
    use_learned_model: bool = True
    jobs: int = 1
    cache_dir: str | pathlib.Path | None = None
    result_cache: object | None = None
    executor_factory: Callable[..., object] | None = None
    obs_metrics: MetricsRegistry = field(
        default_factory=lambda: MetricsRegistry(enabled=True), repr=False
    )
    #: Host-side span collector (:class:`repro.obs.spans.SpanCollector`)
    #: for sweep telemetry; ``None`` keeps the hot path span-free.  Worker
    #: processes get their own collector (built by the pool initializer),
    #: never the parent's.
    spans: object | None = field(default=None, repr=False)
    #: Optional append-only run ledger (:class:`repro.obs.ledger.Ledger`).
    #: When set, :func:`sweep` (serial and parallel) records every
    #: evaluated point.  Recording happens strictly after results exist
    #: and the field is excluded from cache fingerprints
    #: (``TELEMETRY_EXCLUDED_FIELDS``), so results are bit-identical with
    #: or without a ledger attached.
    ledger: object | None = field(default=None, repr=False)
    _run_cache: "BoundedCache[RunKey, RunResult]" = field(
        init=False, repr=False
    )
    _metrics_cache: "BoundedCache[MetricsKey, MixMetrics]" = field(
        init=False, repr=False
    )
    _baselines: BaselineCache | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.work_scale) and self.work_scale > 0.0):
            raise ExperimentError(
                f"work scale must be positive and finite, got {self.work_scale}"
            )
        if self.jobs < 1:
            raise ExperimentError(f"jobs must be at least 1, got {self.jobs}")
        self._baselines = BaselineCache(seed=self.seed, work_scale=self.work_scale)
        registry = self.obs_metrics
        self._run_cache = BoundedCache(
            self.RUN_CACHE_SIZE,
            registry.counter("ctx.run_cache.hits"),
            registry.counter("ctx.run_cache.misses"),
            registry.counter("ctx.run_cache.evictions"),
        )
        self._metrics_cache = BoundedCache(
            self.METRICS_CACHE_SIZE,
            registry.counter("ctx.metrics_cache.hits"),
            registry.counter("ctx.metrics_cache.misses"),
            registry.counter("ctx.metrics_cache.evictions"),
        )
        if self.result_cache is None and self.cache_dir is not None:
            from repro.parallel.cache import ResultCache

            self.result_cache = ResultCache(self.cache_dir, metrics=registry)

    # ------------------------------------------------------------------
    # Persistent-cache plumbing
    # ------------------------------------------------------------------
    def _point_entry(
        self, mix_index: str, config: str, scheduler: str
    ) -> tuple[str, dict] | None:
        """(fingerprint, key material) of a point, or None if uncacheable."""
        if self.result_cache is None:
            return None
        from repro.parallel.fingerprint import (
            point_fingerprint,
            point_key_material,
        )

        material = point_key_material(self, mix_index, config, scheduler)
        if material is None:
            return None
        return point_fingerprint(material), material

    def peek_metrics(
        self, mix_index: str, config: str, scheduler: str
    ) -> "MixMetrics | None":
        """Cached metrics of one point (in-process, then persistent)."""
        hit = self._metrics_cache.get((mix_index, config, scheduler))
        if hit is not None:
            return hit
        entry = self._point_entry(mix_index, config, scheduler)
        if entry is None:
            return None
        cached = self.result_cache.load(entry[0])
        if cached is not None:
            self._metrics_cache.put((mix_index, config, scheduler), cached)
        return cached

    def store_metrics(self, metrics: "MixMetrics") -> None:
        """Record one computed point in every cache layer it belongs in."""
        key = (metrics.mix_index, metrics.config, metrics.scheduler)
        self._metrics_cache.put(key, metrics)
        entry = self._point_entry(*key)
        if entry is not None:
            self.result_cache.store(entry[0], metrics, entry[1])

    # ------------------------------------------------------------------
    def get_estimator(self) -> SpeedupEstimator:
        """The shared runtime speedup model (train lazily if needed)."""
        if self.estimator is None:
            if self.use_learned_model:
                from repro.model.training import default_speedup_model

                self.estimator = default_speedup_model()
            else:
                self.estimator = OracleSpeedupModel(noise_std=0.1, seed=self.seed)
        return self.estimator

    def make_scheduler(self, name: str):
        """Fresh scheduler instance (schedulers are per-machine objects)."""
        if name in ("wash", "colab"):
            return make_scheduler(name, estimator=self.get_estimator())
        return make_scheduler(name)

    def topology(self, config: str, big_first: bool) -> Topology:
        return lookup_config(config).with_order(big_first)

    def baselines_for(self, mix: WorkloadMix, config: str) -> dict[str, float]:
        """Isolated big-only baselines for every app of ``mix``."""
        n_cores = standard_topologies()[config].n_cores
        return self._baselines.for_mix(mix, n_cores)

    def isolated_big_turnaround(self, benchmark: str, n_threads: int, n_cores: int) -> float:
        return self._baselines.isolated_turnaround(benchmark, n_threads, n_cores)


def lookup_mix(mix_index: str) -> WorkloadMix:
    """The Table 4 mix named ``mix_index`` (e.g. ``Sync-1``)."""
    mix = MIXES.get(mix_index)
    if mix is None:
        raise ExperimentError(
            f"unknown mix {mix_index!r}; expected one of {', '.join(MIXES)}"
        )
    return mix


def lookup_config(config: str) -> Topology:
    """The standard hardware configuration named ``config`` (e.g. ``2B2S``)."""
    topologies = standard_topologies()
    base = topologies.get(config)
    if base is None:
        raise ExperimentError(
            f"unknown config {config!r}; expected one of "
            + ", ".join(sorted(topologies))
        )
    return base


def run_mix_once(
    ctx: ExperimentContext,
    mix: WorkloadMix,
    config: str,
    scheduler_name: str,
    big_first: bool,
    obs=None,
    sanitize: bool = False,
    timeseries: bool = False,
) -> RunResult:
    """One simulation of ``mix`` on ``config`` under ``scheduler_name``.

    ``obs`` (a :class:`repro.obs.context.ObsConfig`, optional) enables
    tracing/metrics/profiling for this run.  ``sanitize`` enables the
    runtime scheduler sanitizer (schedsan); outcomes stay bit-identical
    but invariant violations raise :class:`repro.errors.SanitizerError`.
    ``timeseries`` enables the sim-time timeline sampler
    (:mod:`repro.obs.timeseries`); outcomes stay bit-identical and
    ``RunResult.timeseries`` carries the windowed series.  Observed,
    sanitized, and sampled runs bypass the context's result cache in both
    directions: instrumentation must not leak into the figure pipelines,
    and a cached bare result would lack the requested checking/series.
    """
    key = (mix.index, config, scheduler_name, big_first)
    spans = ctx.spans if ctx.spans is not None and ctx.spans.enabled else None
    cacheable = obs is None and not sanitize and not timeseries
    if cacheable:
        cached = ctx._run_cache.get(key)
        if cached is not None:
            if spans is not None:
                spans.event(
                    "run_cache_hit", mix=mix.index, config=config,
                    scheduler=scheduler_name, big_first=big_first,
                )
            return cached
    topology = ctx.topology(config, big_first)
    machine = Machine(
        topology,
        ctx.make_scheduler(scheduler_name),
        MachineConfig(
            seed=ctx.seed, obs=obs, sanitize=sanitize, timeseries=timeseries
        ),
    )
    env = ProgramEnv.for_machine(machine, work_scale=ctx.work_scale)
    for instance in mix.instantiate(env):
        machine.add_program(instance)
    if spans is not None:
        with spans.span(
            "run", mix=mix.index, config=config, scheduler=scheduler_name,
            big_first=big_first,
        ):
            result = machine.run()
    else:
        result = machine.run()
    registry = ctx.obs_metrics
    if registry.enabled:
        # Fresh computation only -- cache hits above return early, so these
        # counters measure actual simulation work, not cache traffic.
        registry.counter("sim.events_processed").inc(result.events_processed)
        registry.counter("sim.events_discarded").inc(result.events_discarded)
        registry.counter("sim.events_suppressed").inc(result.events_suppressed)
    if cacheable:
        ctx._run_cache.put(key, result)
    return result


def evaluate_mix(
    ctx: ExperimentContext,
    mix_index: str,
    config: str,
    scheduler_name: str,
    sanitize: bool = False,
    lookup: bool = True,
) -> MixMetrics:
    """Order-averaged H_ANTT / H_STP of one evaluation point.

    ``sanitize`` runs both orderings under schedsan and bypasses the
    metrics caches -- in-process and persistent -- in both directions
    (results are bit-identical either way, but a cached entry would skip
    the checking the caller asked for).  ``lookup=False`` skips the cache
    lookup only, for a caller that has just missed it; the computed point
    is still stored.
    """
    if not sanitize and lookup:
        cached = ctx.peek_metrics(mix_index, config, scheduler_name)
        if cached is not None:
            return cached
    mix = lookup_mix(mix_index)

    per_order: list[dict[str, float]] = []
    makespans: list[float] = []
    for big_first in (True, False):
        result = run_mix_once(
            ctx, mix, config, scheduler_name, big_first, sanitize=sanitize
        )
        turnarounds = {
            result.app_names[app_id]: value
            for app_id, value in result.app_turnaround.items()
        }
        per_order.append(turnarounds)
        makespans.append(result.makespan)

    averaged = {
        app: (per_order[0][app] + per_order[1][app]) / 2 for app in per_order[0]
    }
    baselines = ctx.baselines_for(mix, config)
    metrics = MixMetrics(
        mix_index=mix_index,
        config=config,
        scheduler=scheduler_name,
        h_antt=h_antt(averaged, baselines),
        h_stp=h_stp(averaged, baselines),
        makespan=sum(makespans) / len(makespans),
        turnarounds=averaged,
    )
    if not sanitize:
        ctx.store_metrics(metrics)
    return metrics


def sweep(
    ctx: ExperimentContext,
    mix_indices: list[str],
    configs: tuple[str, ...] = CONFIGS,
    schedulers: tuple[str, ...] = SCHEDULERS,
    jobs: int | None = None,
    sanitize: bool = False,
    telemetry=None,
) -> list[MixMetrics]:
    """Evaluate the full cross product (cached, order-averaged).

    ``jobs`` overrides ``ctx.jobs``; any value above 1 routes through
    :func:`repro.parallel.executor.parallel_sweep`, whose output is
    merged in evaluation-point order and is bit-identical to the serial
    path for pure estimators.

    ``telemetry`` (a :class:`repro.obs.dist.DistTelemetry`, optional)
    collects cross-process spans, progress, and the sweep report; when
    set, even ``jobs=1`` routes through the pool executor so the merged
    timeline always has the same parent + worker track structure.
    """
    effective_jobs = ctx.jobs if jobs is None else jobs
    if effective_jobs > 1 or telemetry is not None:
        from repro.parallel.executor import parallel_sweep

        return parallel_sweep(
            ctx,
            mix_indices,
            configs=configs,
            schedulers=schedulers,
            jobs=effective_jobs,
            sanitize=sanitize,
            telemetry=telemetry,
        )
    if ctx.ledger is None:
        return [
            evaluate_mix(ctx, mix_index, config, scheduler, sanitize=sanitize)
            for mix_index in mix_indices
            for config in configs
            for scheduler in schedulers
        ]
    import time as _time

    from repro.obs.ledger import record_point

    results: list[MixMetrics] = []
    for mix_index in mix_indices:
        for config in configs:
            for scheduler in schedulers:
                # One persistent-cache lookup per point: a miss skips
                # evaluate_mix's own lookup; a hit is served from the
                # in-process cache this peek just filled.
                cached = (
                    None
                    if sanitize
                    else ctx.peek_metrics(mix_index, config, scheduler)
                )
                started = _time.perf_counter()
                metrics = evaluate_mix(
                    ctx, mix_index, config, scheduler, sanitize=sanitize,
                    lookup=cached is not None,
                )
                record_point(
                    ctx.ledger,
                    ctx,
                    metrics,
                    wall_s=_time.perf_counter() - started,
                    cache_hit=cached is not None,
                )
                results.append(metrics)
    return results
