"""Tests of the benchmark itself (slow: each runs a workload).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import benchlib
import run

RUN = benchlib.BENCH_DIR / "run.py"


def _run(*args: str, cwd=benchlib.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(RUN), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_results_equal_untraced(workload):
    """A traced run fails unless every traced point hash equals the untraced one."""
    proc = _run("--workload", workload, "--seconds", "1", "--trace", "1")
    result = json.loads(proc.stdout.splitlines()[-1])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["experiments.points"]["value"] > 0
    assert result["metrics"]["sim.events"]["value"] > 0


def test_injected_mismatch_exits_nonzero(monkeypatch, capsys):
    """A result that differs from the reference table fails the run."""
    for name in ("REPRO_CACHE_DIR", "REPRO_LEDGER_DIR"):
        monkeypatch.delenv(name, raising=False)  # restored after the test
    benchlib.import_repro()
    from repro.experiments import runner

    real = runner.h_antt
    monkeypatch.setattr(runner, "h_antt", lambda *a: real(*a) + 1e-9)
    code = run.main(["--workload", "campaign-oracle", "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert not result["correct"] and result["failed"] > 0


def test_refuses_to_run_without_source(tmp_path):
    shutil.copytree(benchlib.BENCH_DIR, tmp_path / "perfbench")
    shutil.copy(benchlib.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-point",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
