"""The ``cli-point`` workload: fresh ``repro run`` processes.

A *round* runs every point of :data:`POINTS` once cold and then once
warm, against a fresh private ``--cache-dir`` and ``--ledger-dir``; a
run makes rounds until the next one would end after ``--seconds`` (at
least two).  Each invocation evaluates linux, wash and colab with the
default learned model, as ``repro run`` does by default.

A timed invocation is ``child.py calibrated-cli``: a fresh interpreter
that calls ``repro.cli.main(argv)``, as ``python -m repro`` does, while
it samples host speed.  Its time is in reference seconds (see
``calibrate``); each point's time in a phase is its median over rounds.
The traced run compares ``python -m repro`` itself with the traced
bootstrap.
"""

from __future__ import annotations

import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

import calibrate

from benchlib import (
    CHILD,
    ROOT,
    SCHEDULERS,
    WORK,
    WORK_SCALE,
    BenchError,
    Checker,
    Metric,
    child_env,
    hashes_of,
    label,
    median_probe_s,
    peak_rss_mb,
    percentile,
    repeat_for,
    result_hash,
    sampled_seconds,
)

#: (mix, config) points: a small 4-thread mix and the 53-thread Rand-10.
POINTS = (("Sync-1", "2B2S"), ("Rand-10", "4B2S"))
MIN_ROUNDS = 2
LINE = re.compile(
    r"^(?P<sched>\S+)\s+H_ANTT=(?P<antt>\S+) H_STP=(?P<stp>\S+) "
    r"fairness=(?P<fair>\S+)\s+(?P<apps>.*)$"
)


def _argv(seed: int, round_dir, mix: str, config: str) -> list[str]:
    return [
        "--seed", str(seed), "--scale", str(WORK_SCALE),
        "--cache-dir", str(round_dir / "cache"),
        "--ledger-dir", str(round_dir / "ledger"),
        "run", "--mix", mix, "--config", config,
        "--json", str(round_dir / f"{mix}-{config}.json"),
    ]


def _invoke(
    argv: list[str], mode: str = "plain", out=None
) -> tuple[float, list[str], dict[str, str]]:
    """One invocation: its seconds, result lines, ``label -> hash``.

    ``mode`` is ``plain`` (``python -m repro``, wall seconds),
    ``calibrated-cli`` (reference seconds by the child's samples, which
    it writes to ``out``) or ``traced-cli`` (spans written to ``out``).
    """
    if mode == "plain":
        command = [sys.executable, "-m", "repro", *argv]
    else:
        command = [sys.executable, str(CHILD), mode, str(out), *argv]
    proc, seconds = calibrate.wall(
        lambda: subprocess.run(
            command, capture_output=True, text=True, env=child_env(), cwd=ROOT
        )
    )
    if mode == "calibrated-cli" and proc.returncode == 0:
        seconds = sampled_seconds(seconds, json.loads(Path(out).read_text()))
    if proc.returncode != 0:
        raise BenchError(
            f"repro run exited {proc.returncode}: {proc.stderr.strip()[-400:]}"
        )
    lines = [line for line in proc.stdout.splitlines() if LINE.match(line)]
    json_path = argv[argv.index("--json") + 1]
    with open(json_path) as handle:
        records = json.load(handle)["points"]
    hashes = {
        label((r["mix"], r["config"], r["scheduler"])): result_hash(
            r["h_antt"], r["h_stp"], r["makespan_ms"], r["turnarounds_ms"]
        )
        for r in records
    }
    return seconds, lines, hashes


def _round(seed: int, round_dir, mode: str = "plain", trace_dir=None) -> dict[str, list]:
    """Cold then warm pass over :data:`POINTS` with fresh directories."""
    round_dir.mkdir(parents=True)
    out: dict[str, list] = {"cold": [], "warm": []}
    for phase in ("cold", "warm"):
        for index, (mix, config) in enumerate(POINTS):
            if mode == "traced-cli":
                to = trace_dir / f"spans-{phase}-{index}.npz"
            else:
                to = round_dir / f"samples-{phase}-{index}.json"
            out[phase].append(_invoke(_argv(seed, round_dir, mix, config), mode, to))
    return out


def _in_process(seed: int) -> tuple[dict[str, str], dict[str, dict]]:
    """The same points through ``sweep``: hashes and expected printed values."""
    from campaign import learned_context
    from repro.analysis.fairness import fairness_index
    from repro.experiments.runner import sweep
    from repro.workloads.mixes import MIXES

    ctx = learned_context(seed)
    hashes: dict[str, str] = {}
    expected: dict[str, dict] = {}
    for mix, config in POINTS:
        baselines = ctx.baselines_for(MIXES[mix], config)
        results = sweep(ctx, [mix], (config,), SCHEDULERS)
        hashes.update(hashes_of(results))
        for m in results:
            expected[label((mix, config, m.scheduler))] = {
                "antt": f"{m.h_antt:.3f}",
                "stp": f"{m.h_stp:.3f}",
                "fair": f"{fairness_index(m.turnarounds, baselines):.3f}",
                "apps": "  ".join(
                    f"{app}={value:.0f}ms" for app, value in m.turnarounds.items()
                ),
            }
    return hashes, expected


def _line_problems(mix: str, config: str, lines, expected) -> list[str]:
    """Each printed result line must show its in-process point's values."""
    problems = []
    if len(lines) != len(SCHEDULERS):
        problems.append(f"{mix}/{config}: {len(lines)} result lines")
    for line in lines:
        fields = LINE.match(line).groupdict()
        name = label((mix, config, fields.pop("sched")))
        if expected.get(name) != fields:
            problems.append(f"printed {name}: {fields} != {expected.get(name)}")
    return problems


def measure(seed: int, seconds: float, private) -> tuple[dict, Checker]:
    checker = Checker()
    setup_s, n_setup = median_probe_s(11, "import-cli")
    rounds = repeat_for(
        seconds,
        MIN_ROUNDS,
        lambda index: _round(seed, private / f"round-{index}", "calibrated-cli"),
    )

    hashes, expected = _in_process(seed)
    checker.reference("learned", seed, hashes)
    for index, outcome in enumerate(rounds):
        for phase in ("cold", "warm"):
            for (mix, config), (_, lines, got) in zip(POINTS, outcome[phase]):
                checker.attempted += 1
                want = {k: v for k, v in hashes.items() if k.startswith(f"{mix}/{config}/")}
                problems = checker.mismatches(
                    f"round {index} {phase} vs sweep", want, got
                ) + _line_problems(mix, config, lines, expected)
                # One invocation is one operation, however many points differ.
                if problems:
                    checker.fail("; ".join(problems[:3]))

    # typical[phase][i]: point i's median invocation in that phase.
    typical = {
        phase: [
            statistics.median(r[phase][i][0] for r in rounds)
            for i in range(len(POINTS))
        ]
        for phase in ("cold", "warm")
    }
    per_point = [s / len(SCHEDULERS) for s in typical["cold"] + typical["warm"]]
    n = len(per_point)
    note = f"invocation/3, n={n}, each a median over {len(rounds)} rounds"
    metrics = {
        "setup_s": Metric(setup_s, "s", f"median of {n_setup} imports"),
        "points_per_s": Metric(1.0 / statistics.fmean(per_point), "1/s", note),
        "point_p50_ms": Metric(statistics.median(per_point) * 1e3, "ms", note),
        "point_p95_ms": Metric(percentile(per_point, 95) * 1e3, "ms", note),
        "run_cold_s": Metric(
            statistics.fmean(typical["cold"]), "s",
            f"mean over {len(POINTS)} points of each one's median of"
            f" {len(rounds)} cold invocations",
        ),
        "run_warm_s": Metric(
            statistics.fmean(typical["warm"]), "s",
            f"mean over {len(POINTS)} points of each one's median of"
            f" {len(rounds)} warm invocations",
        ),
        "peak_rss_mb": Metric(peak_rss_mb(), "MiB"),
    }
    return metrics, checker


def trace(seed: int, seconds: float, private) -> tuple[list, dict, Checker]:
    """One untraced round and one traced round through the bootstrap."""
    from spantrace import Spans, layer_metrics, merge, summarize

    checker = Checker()
    span_dir = WORK / "spans-cli-point"
    span_dir.mkdir(parents=True, exist_ok=True)
    for stale in span_dir.glob("*.npz"):
        stale.unlink()
    plain = _round(seed, private / "plain")
    traced = _round(seed, private / "traced", "traced-cli", span_dir)
    plain_wall = traced_wall = 0.0
    summaries = {}
    for phase in ("cold", "warm"):
        for index, ((w0, lines0, h0), (w1, lines1, h1)) in enumerate(
            zip(plain[phase], traced[phase])
        ):
            checker.attempted += 2
            checker.reference("learned", seed, h0)
            checker.compare(f"traced vs untraced {phase} {index}", h0, h1)
            if lines0 != lines1:
                checker.fail(f"traced output differs: {lines1} != {lines0}")
            plain_wall += w0
            traced_wall += w1
            spans = Spans.load(span_dir / f"spans-{phase}-{index}.npz")
            summaries[phase, index] = summarize(spans)
    warm = merge([s for (phase, _), s in summaries.items() if phase == "warm"])
    extra = {
        "trace.overhead_frac": (traced_wall / plain_wall - 1.0, "ratio"),
        "cache.warm_hit_ratio": layer_metrics(warm)["cache.hit_ratio"],
    }
    return list(summaries.values()), extra, checker
