"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign-oracle --seed 42 \\
        --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` and ``perfbench/layers.json``):

* ``campaign-oracle`` -- serial sweeps with a pure oracle model;
* ``campaign-learned`` -- pooled sweeps with the trained default model
  and a private persistent result cache, cold then warm;
* ``cli-point`` -- fresh ``python -m repro run`` processes, cold then warm.

With ``--trace 0`` the run prints the end-to-end metrics; with
``--trace 1`` it runs the workload once untraced and once with span
wrappers installed, and prints the per-layer metrics.  Every run checks
its results (see ``Checker``); the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 only
when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import traceback

import benchlib
from benchlib import BenchError, Checker

WORKLOADS = ("campaign-oracle", "campaign-learned", "cli-point")


def _workload(name: str):
    """``(measure, trace)`` functions of workload ``name``."""
    import campaign
    import clipoint

    return {
        "campaign-oracle": (campaign.oracle_measure, campaign.oracle_trace),
        "campaign-learned": (campaign.learned_measure, campaign.learned_trace),
        "cli-point": (clipoint.measure, clipoint.trace),
    }[name]


#: Per-layer metrics that only some workloads produce.
ABSENT = {
    "pool.points": (0.0, "count"),
    "pool.queue_wait_s": (0.0, "s"),
    "pool.compute_s": (0.0, "s"),
    "pool.utilization": (0.0, "ratio"),
    "cache.warm_hit_ratio": (0.0, "ratio"),
}


def _trace(workload: str, seed: int, seconds: float, private):
    """Per-layer metrics of one traced run, plus its checker."""
    from spantrace import layer_metrics, merge

    summaries, extra, checker = _workload(workload)[1](seed, seconds, private)
    values = {**ABSENT, **layer_metrics(merge(summaries)), **extra}
    values["cli.import_s"] = (benchlib.median_probe_s(3, "import-cli")[0], "s")
    return {name: benchlib.Metric(v, u) for name, (v, u) in values.items()}, checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=benchlib.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        benchlib.import_repro()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"host: {json.dumps(benchlib.host_info())}")
    private = benchlib.private_dir(args.workload)
    try:
        if args.trace:
            metrics, checker = _trace(args.workload, args.seed, args.seconds, private)
        else:
            metrics, checker = _workload(args.workload)[0](
                args.seed, args.seconds, private
            )
    except Exception:  # noqa: BLE001 - any failure is a failed operation
        traceback.print_exc()
        metrics, checker = {}, Checker(attempted=1)
        checker.fail("run raised")
    finally:
        shutil.rmtree(private, ignore_errors=True)

    for message in checker.messages:
        print(f"FAILED {message}")
    for name, metric in metrics.items():
        note = f"  ({metric.note})" if metric.note else ""
        print(f"{args.workload} {name} = {metric.value:.6g} {metric.unit}{note}")
    failed_frac = checker.failed / max(1, checker.attempted)
    print(f"{args.workload} failed_frac = {failed_frac:.6g} ratio "
          f"({checker.failed}/{checker.attempted} operations)")
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, checker.attempted),
        "failed": checker.failed,
        "metrics": {
            name: {"value": m.value, "unit": m.unit} for name, m in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
