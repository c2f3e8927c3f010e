"""Shared plumbing of the repro benchmark.

Locating the checkout's own ``src/`` tree, private cache and ledger
directories, per-point result hashes, the committed reference table,
fresh-process probes, and the small statistics the workloads report.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (ignored by git): private cache and
#: ledger directories live here while a run lasts, span files after it.
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
CHILD = BENCH_DIR / "child.py"

#: The seed whose per-point hashes ``reference.json`` records.
DEFAULT_SEED = 42
#: Uniform work scale of every run.  Event counts do not shrink below it
#: (0.02 and 0.04 simulate the same events), so it only trims compute.
WORK_SCALE = 0.04
CONFIGS = ("2B2S", "2B4S", "4B2S", "4B4S")
SCHEDULERS = ("linux", "wash", "colab")

Point = tuple[str, str, str]


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, a child failed)."""


def import_repro() -> None:
    """Make the checkout's ``src/repro`` importable, and only that copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise BenchError(f"imported repro from {repro.__file__}, not {SRC}")


def private_dir(tag: str) -> Path:
    """A fresh directory for one run's caches, ledgers and scratch files.

    The repro CLI defaults its cache and ledger to ``~/.cache/repro``; a
    user's stale cache would turn a cold pass warm, and benchmark rows
    would land in the user's ledger.  Pointing both environment variables
    here covers this process and every child it starts.
    """
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=WORK))
    os.environ["REPRO_CACHE_DIR"] = str(path / "default-cache")
    os.environ["REPRO_LEDGER_DIR"] = str(path / "default-ledger")
    return path


def child_env() -> dict[str, str]:
    """Environment of a child process: this checkout's source first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


# ----------------------------------------------------------------------
# Result identity
# ----------------------------------------------------------------------
def label(point: Point) -> str:
    return "/".join(point)


def result_hash(
    h_antt: float, h_stp: float, makespan: float, turnarounds: dict[str, float]
) -> str:
    """Hash of what the result cache stores for one point.

    JSON writes floats with ``repr``, so equal hashes mean bit-equal
    metrics.
    """
    material = json.dumps([h_antt, h_stp, makespan, sorted(turnarounds.items())])
    return hashlib.sha256(material.encode()).hexdigest()[:20]


def hashes_of(results) -> dict[str, str]:
    """``label -> hash`` for a list of ``MixMetrics``."""
    return {
        label((m.mix_index, m.config, m.scheduler)): result_hash(
            m.h_antt, m.h_stp, m.makespan, m.turnarounds
        )
        for m in results
    }


def cross(mixes: tuple[str, ...]) -> list[Point]:
    """Evaluation points of ``mixes`` in the order ``sweep`` returns them."""
    return [(m, c, s) for m in mixes for c in CONFIGS for s in SCHEDULERS]


@dataclass
class Checker:
    """Counts operations and failures; keeps the first few messages."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    @staticmethod
    def mismatches(what: str, expected: dict[str, str], actual: dict[str, str]) -> list[str]:
        """One message per label whose hash differs or is missing."""
        return [
            f"{what}: {name} {expected.get(name)} != {actual.get(name)}"
            for name in sorted(set(expected) | set(actual))
            if expected.get(name) != actual.get(name)
        ]

    def compare(self, what: str, expected: dict[str, str], actual: dict[str, str]) -> None:
        """Fail once per mismatched label (one label is one point)."""
        for message in self.mismatches(what, expected, actual):
            self.fail(message)

    def reference(self, kind: str, seed: int, actual: dict[str, str]) -> None:
        """Check ``actual`` against the committed table at the default seed."""
        if seed != DEFAULT_SEED:
            return
        table = json.loads(REFERENCE.read_text())["points"][kind]
        expected = {name: table.get(name) for name in actual}
        self.compare(f"reference[{kind}]", expected, actual)


# ----------------------------------------------------------------------
# Fresh-process probes
# ----------------------------------------------------------------------
def probe_ready_s(mode: str, *args: str) -> float:
    """Reference seconds from spawning ``child.py <mode>`` until it
    reports ready, less the child's own sampling time."""
    started = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(CHILD), mode, *args],
        stdout=subprocess.PIPE,
        env=child_env(),
        cwd=ROOT,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait()
    word, _, samples = line.partition(" ")
    if word != "ready" or code != 0:
        raise BenchError(f"probe {mode} failed (exit {code}, said {line!r})")
    return sampled_seconds(ready, json.loads(samples))


def sampled_seconds(wall_s: float, samples: dict[str, float]) -> float:
    """A child's wall time in reference seconds, by its own samples."""
    return (wall_s - samples["sampling_s"]) * samples["factor"]


def median_probe_s(samples: int, mode: str, *args: str) -> tuple[float, int]:
    """Median of ``samples`` probes, with the sample count."""
    values = [probe_ready_s(mode, *args) for _ in range(samples)]
    return statistics.median(values), len(values)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (linear interpolation between samples)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeat_for(seconds: float, minimum: int, one) -> list:
    """``[one(0), one(1), ...]``: at least ``minimum`` calls, then more
    while the next one, if as long as the last, ends within ``seconds``."""
    results = []
    last = 0.0
    started = time.perf_counter()
    while len(results) < minimum or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        results.append(one(len(results)))
        last = time.perf_counter() - t0
    return results


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def host_info() -> dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
    }


@dataclass
class Metric:
    value: float
    unit: str
    note: str = ""
