"""The two campaign workloads: ``campaign-oracle`` and ``campaign-learned``.

Both evaluate a class-stratified subset of the Table 4 mixes on all four
configs under linux, wash and colab -- the shape of the paper's
312-experiment campaign -- through ``ExperimentContext`` and ``sweep``.
A *pass* is one sweep over the subset from a fresh context; a run makes
passes until the next one would end after ``--seconds`` (at least
:data:`MIN_PASSES`).

Timings are in reference seconds (see ``calibrate``); a point's time is
its median over passes.
"""

from __future__ import annotations

import os
import random
import statistics

import calibrate
from benchlib import (
    WORK_SCALE,
    Checker,
    Metric,
    cross,
    hashes_of,
    label,
    median_probe_s,
    peak_rss_mb,
    percentile,
    repeat_for,
)
from calibrate import Sampler

#: One mix of each class, 4 to 53 threads; Rand-10's 53 threads make
#: runqueues deep.  A pass takes 5-7 s serially on a 2-vCPU host, so a
#: 25 s run makes 3-5 passes.
ORACLE_MIXES = ("Sync-3", "NSync-4", "Comm-3", "Comp-3", "Rand-10")
#: Lighter mixes, because each learned pass sweeps twice (cold and warm).
#: Rand-10 goes first so its long points do not finish last on one worker.
LEARNED_MIXES = ("Rand-10", "Sync-1", "NSync-2", "Comm-1", "Comp-1")
#: Points of a learned run recomputed serially to check the pool.
SERIAL_SAMPLE = 6
MIN_PASSES = 3
#: Re-sweeps of a warm context per pass, timed in batches: one takes
#: tens of µs, too short to time alone.
WARM_BATCHES = 10
WARM_BATCH = 50



def oracle_context(seed: int):
    from repro.experiments.runner import ExperimentContext
    from repro.model.speedup import OracleSpeedupModel

    return ExperimentContext(
        seed=seed, work_scale=WORK_SCALE, estimator=OracleSpeedupModel(noise_std=0.0)
    )


def learned_context(seed: int, cache_dir=None, jobs: int = 1):
    from repro.experiments.runner import ExperimentContext

    return ExperimentContext(
        seed=seed, work_scale=WORK_SCALE, jobs=jobs, cache_dir=cache_dir
    )


def learned_jobs() -> int:
    return max(1, min(2, os.cpu_count() or 1))


def serial_pass(ctx, points, timer=calibrate.wall) -> tuple[dict[str, str], list[float]]:
    """Sweep ``points`` one by one: hashes and each point's seconds.

    ``timer`` is ``calibrate.wall`` (wall seconds) or a ``Sampler``'s
    ``call`` (reference seconds).
    """
    from repro.experiments.runner import sweep

    hashes: dict[str, str] = {}
    per_point: list[float] = []
    for mix, config, scheduler in points:
        results, seconds = timer(sweep, ctx, [mix], (config,), (scheduler,))
        per_point.append(seconds)
        hashes.update(hashes_of(results))
    return hashes, per_point


class WorkerClock:
    """Calibrates the points that pool workers evaluate.

    A pooled sweep keeps both vCPUs busy for seconds, long enough for
    the host's speed to change under it, so samples the parent takes
    before and after cannot stand for it.  The pool forks its workers
    from this process; a wrapper installed here around the executor's
    ``evaluate_mix`` therefore runs in each worker, samples host speed
    through every point on that worker's vCPU (a ``Sampler`` hooked on
    ``Machine.run``), and appends ``label wall reference`` to a file per
    worker.  Under a start method other than fork no file appears and
    :meth:`points` is empty.
    """

    def __init__(self, directory) -> None:
        self.directory = directory
        self._real = None

    def __enter__(self) -> "WorkerClock":
        from repro.parallel import executor

        self.directory.mkdir(parents=True, exist_ok=True)
        real = self._real = executor.evaluate_mix
        directory = self.directory
        worker: list[Sampler] = []  # this worker's sampler, once it has one

        def evaluate_mix(ctx, mix_index, config, scheduler, **kwargs):
            from repro.sim.machine import Machine

            if not worker:
                worker.append(Sampler())
                worker[0].hook(Machine, "run")  # for the worker's life
            sampler = worker[0]
            out, reference = sampler.call(
                lambda: real(ctx, mix_index, config, scheduler, **kwargs)
            )
            point = label((mix_index, config, scheduler))
            wall = reference / sampler.last_factor
            with open(directory / f"{os.getpid()}.txt", "a") as handle:
                handle.write(f"{point} {wall!r} {reference!r}\n")
            return out

        executor.evaluate_mix = evaluate_mix
        return self

    def __exit__(self, *exc) -> None:
        from repro.parallel import executor

        executor.evaluate_mix = self._real

    def points(self) -> dict[str, tuple[float, float]]:
        """``label -> (wall s, reference s)`` since the last call."""
        out = {}
        for path in sorted(self.directory.glob("*.txt")):
            for line in path.read_text().splitlines():
                point, wall, reference = line.split()
                out[point] = (float(wall), float(reference))
            path.unlink()
        return out


def sweep_hashes(ctx, mixes, telemetry=None) -> dict[str, str]:
    from repro.experiments.runner import sweep

    return hashes_of(sweep(ctx, list(mixes), telemetry=telemetry))


def _latency_metrics(per_point: list[float], points_per_s: float) -> dict[str, Metric]:
    n = len(per_point)
    return {
        "points_per_s": Metric(points_per_s, "1/s"),
        "point_p50_ms": Metric(statistics.median(per_point) * 1e3, "ms", f"n={n}"),
        "point_p95_ms": Metric(percentile(per_point, 95) * 1e3, "ms", f"n={n}"),
    }


# ----------------------------------------------------------------------
# campaign-oracle
# ----------------------------------------------------------------------
def oracle_measure(seed: int, seconds: float, private) -> tuple[dict, Checker]:
    from repro.experiments.runner import sweep
    from repro.sim.machine import Machine

    checker = Checker()
    setup_s, n_setup = median_probe_s(11, "setup-oracle", str(seed))
    points = cross(ORACLE_MIXES)
    sampler = Sampler()

    def warm_batch(ctx):
        for _ in range(WARM_BATCH):
            results = sweep(ctx, list(ORACLE_MIXES))
        return results

    def one_pass(_index: int):
        """A cold pass, then re-sweeps served by the context's own caches."""
        ctx = oracle_context(seed)
        hashes, per_point = serial_pass(ctx, points, sampler.call)
        warm_times = []
        for _ in range(WARM_BATCHES):
            warm, batch_s = sampler.call(warm_batch, ctx)
            warm_times.append(batch_s / WARM_BATCH)
        return hashes, per_point, sum(per_point), hashes_of(warm), warm_times

    unhook = sampler.hook(Machine, "run")
    try:
        passes = repeat_for(seconds, MIN_PASSES, one_pass)
    finally:
        unhook()
    first = passes[0][0]
    for index, (hashes, _, _, warm, _) in enumerate(passes):
        checker.attempted += len(hashes) + len(warm)
        checker.compare(f"pass {index} warm vs cold", hashes, warm)
        checker.compare(f"pass {index} vs pass 0", first, hashes)
    checker.reference("oracle", seed, first)

    per_point = [statistics.median(times) for times in zip(*(p[1] for p in passes))]
    pass_times = [p[2] for p in passes]
    warm_times = [s for p in passes for s in p[4]]
    metrics = {"setup_s": Metric(setup_s, "s", f"median of {n_setup} processes")}
    metrics.update(_latency_metrics(per_point, len(per_point) / sum(per_point)))
    metrics["points_per_s"].note = f"point medians over {len(passes)} passes"
    for name in ("point_p50_ms", "point_p95_ms"):
        metrics[name].note += f" point medians over {len(passes)} passes"
    metrics["run_cold_s"] = Metric(
        statistics.median(pass_times), "s",
        f"median of {len(passes)} fresh-context passes",
    )
    metrics["run_warm_s"] = Metric(
        statistics.median(warm_times), "s",
        f"median of {len(warm_times)} batches of {WARM_BATCH} re-sweeps"
        " of a warm context, per re-sweep",
    )
    metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MiB")
    return metrics, checker


def oracle_trace(seed: int, seconds: float, private) -> tuple[list, dict, Checker]:
    """One untraced and one traced pass over the same points."""
    from spantrace import SpanTracer, save_and_summarize

    checker = Checker()
    points = cross(ORACLE_MIXES)
    plain, plain_times = serial_pass(oracle_context(seed), points)
    with SpanTracer() as tracer:
        traced, traced_times = serial_pass(oracle_context(seed), points)
    checker.attempted = len(plain) + len(traced)
    checker.compare("traced vs untraced", plain, traced)
    checker.reference("oracle", seed, plain)
    summary = save_and_summarize(tracer.spans(), "campaign-oracle")
    return [summary], {
        "trace.overhead_frac": (sum(traced_times) / sum(plain_times) - 1.0, "ratio")
    }, checker


# ----------------------------------------------------------------------
# campaign-learned
# ----------------------------------------------------------------------
def _serial_check(checker: Checker, seed: int, expected: dict[str, str]) -> None:
    """Recompute a seeded sample of points serially; must equal the pool."""
    sample = random.Random(seed).sample(cross(LEARNED_MIXES), SERIAL_SAMPLE)
    hashes, _ = serial_pass(learned_context(seed), sample)
    checker.attempted += len(hashes)
    checker.compare(
        "serial vs jobs>1", {label(p): expected[label(p)] for p in sample}, hashes
    )


def learned_measure(seed: int, seconds: float, private) -> tuple[dict, Checker]:
    from repro.model.training import default_speedup_model
    from repro.obs.dist import DistTelemetry

    checker = Checker()
    setup_s, n_setup = median_probe_s(3, "setup-learned", str(seed))
    default_speedup_model()
    jobs = learned_jobs()
    sampler = Sampler()
    workers = WorkerClock(private / "worker-clock")

    def timed(cache_dir):
        """One pooled sweep: hashes, reference seconds, per-point times.

        The sweep's wall time is scaled by the host speed its workers
        measured over its points; without worker samples, by the
        parent's samples around the sweep.
        """
        telemetry = DistTelemetry()
        hashes, parent_s = sampler.call(
            sweep_hashes, learned_context(seed, cache_dir, jobs), LEARNED_MIXES,
            telemetry,
        )
        points = workers.points() or {
            p["point"]: (p["compute_s"], p["compute_s"] * sampler.last_factor)
            for p in telemetry.report()["points"]
        }
        wall = sum(w for w, _ in points.values())
        reference = sum(r for _, r in points.values())
        sweep_s = parent_s / sampler.last_factor * reference / wall
        return hashes, sweep_s, {name: r for name, (_, r) in points.items()}

    def one_pass(index: int):
        cache_dir = private / f"cache-{index}"
        cold, cold_s, compute_s = timed(cache_dir)
        warm, warm_s, _ = timed(cache_dir)
        return cold, cold_s, compute_s, warm, warm_s

    with workers:
        passes = repeat_for(seconds, MIN_PASSES, one_pass)
    first = passes[0][0]
    for index, (cold, _, _, warm, _) in enumerate(passes):
        checker.attempted += len(cold) + len(warm)
        checker.compare(f"pass {index} warm vs cold", cold, warm)
        checker.compare(f"pass {index} vs pass 0", first, cold)
    checker.reference("learned", seed, first)
    _serial_check(checker, seed, first)

    cold_s = statistics.median(p[1] for p in passes)
    per_point = [statistics.median(p[2][name] for p in passes) for name in first]
    metrics = {"setup_s": Metric(setup_s, "s", f"median of {n_setup} processes")}
    metrics.update(_latency_metrics(per_point, len(first) / cold_s))
    metrics["points_per_s"].note = f"median of {len(passes)} cold sweeps"
    for name in ("point_p50_ms", "point_p95_ms"):
        metrics[name].note += f" worker compute, point medians over {len(passes)} passes"
    metrics["run_cold_s"] = Metric(
        cold_s, "s", f"median of {len(passes)} cold sweeps"
    )
    metrics["run_warm_s"] = Metric(
        statistics.median(p[4] for p in passes), "s",
        f"median of {len(passes)} warm sweeps",
    )
    metrics["peak_rss_mb"] = Metric(peak_rss_mb(), "MiB")
    return metrics, checker


def learned_trace(seed: int, seconds: float, private) -> tuple[list, dict, Checker]:
    """Pool numbers from the real jobs>1 sweep; layers from a serial pass.

    Worker counters reach the parent only through telemetry bundles, so
    with ``jobs > 1`` the parent's ``sim.events_processed`` stays 0; the
    sim, kernel, policy and model layers therefore come from a traced
    serial pass over the same points, compared against an untraced one.
    """
    from repro.model.training import default_speedup_model
    from repro.obs.dist import DistTelemetry
    from spantrace import SpanTracer, layer_metrics, save_and_summarize, summarize

    checker = Checker()
    with SpanTracer() as setup_tracer:
        default_speedup_model()
    training = layer_metrics(summarize(setup_tracer.spans()))
    telemetry = DistTelemetry()
    pooled = sweep_hashes(
        learned_context(seed, private / "cache-pool", learned_jobs()),
        LEARNED_MIXES,
        telemetry,
    )
    points = cross(LEARNED_MIXES)
    plain, plain_times = serial_pass(
        learned_context(seed, private / "cache-plain"), points
    )
    with SpanTracer() as tracer:
        traced, traced_times = serial_pass(
            learned_context(seed, private / "cache-traced"), points
        )
    checker.attempted = len(pooled) + len(plain) + len(traced)
    checker.compare("serial vs jobs>1", pooled, plain)
    checker.compare("traced vs untraced", plain, traced)
    checker.reference("learned", seed, plain)

    report = telemetry.report()
    workers = report["workers"]
    extra = {
        "trace.overhead_frac": (sum(traced_times) / sum(plain_times) - 1.0, "ratio"),
        "pool.points": (float(report["points_executed"]), "count"),
        "pool.queue_wait_s": (report["queue_wait_total_s"], "s"),
        "pool.compute_s": (report["compute_total_s"], "s"),
        "pool.utilization": (
            statistics.fmean(w["utilization"] for w in workers), "ratio"
        ),
        # Training happens once, in set-up, before the traced pass.
        "model.trainings": training["model.trainings"],
        "model.train_s": training["model.train_s"],
    }
    return [save_and_summarize(tracer.spans(), "campaign-learned")], extra, checker
