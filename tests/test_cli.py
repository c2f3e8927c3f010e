"""CLI tests (parser wiring + one end-to-end run command)."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        for command in (
            "train", "tables", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "summary", "run", "trace", "all", "sweep", "dash",
        ):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.func)
        # Subcommands with required positionals.
        for argv in (
            ["sweep-report", "report.json"],
            ["diff", "a.jsonl", "b.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]
            assert callable(args.func)

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "sweep", "--mixes", "Sync-1", "--configs",
             "2B2S", "--schedulers", "linux,colab",
             "--timeline", "/tmp/t.json", "--report", "/tmp/r.json",
             "--no-progress", "--sanitize"]
        )
        assert args.jobs == 4
        assert args.mixes == "Sync-1"
        assert args.configs == "2B2S"
        assert args.schedulers == "linux,colab"
        assert args.timeline == "/tmp/t.json"
        assert args.report == "/tmp/r.json"
        assert args.no_progress
        assert args.sanitize

    def test_global_options(self):
        parser = build_parser()
        args = parser.parse_args(["--seed", "7", "--scale", "0.2", "fig4"])
        assert args.seed == 7
        assert args.scale == 0.2
        assert not args.oracle

    def test_oracle_flag(self):
        args = build_parser().parse_args(["--oracle", "summary"])
        assert args.oracle

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--mix", "Rand-5", "--config", "4B2S",
             "--schedulers", "linux,gts", "--json", "/tmp/x.json"]
        )
        assert args.mix == "Rand-5"
        assert args.config == "4B2S"
        assert args.schedulers == "linux,gts"
        assert args.json == "/tmp/x.json"

    def test_verbose_flag_counts(self):
        parser = build_parser()
        assert parser.parse_args(["summary"]).verbose == 0
        assert parser.parse_args(["-v", "summary"]).verbose == 1
        assert parser.parse_args(["-vv", "summary"]).verbose == 2

    def test_trace_options(self):
        args = build_parser().parse_args(
            ["trace", "--mix", "Comm-1", "--scheduler", "wash",
             "--out", "/tmp/t.json", "--jsonl", "/tmp/t.jsonl",
             "--metrics", "/tmp/m.json", "--profile"]
        )
        assert args.mix == "Comm-1"
        assert args.scheduler == "wash"
        assert args.out == "/tmp/t.json"
        assert args.jsonl == "/tmp/t.jsonl"
        assert args.metrics == "/tmp/m.json"
        assert args.profile

    def test_trace_timeseries_flag(self):
        parser = build_parser()
        assert not parser.parse_args(["trace"]).timeseries
        assert parser.parse_args(["trace", "--timeseries"]).timeseries

    def test_dash_options(self):
        args = build_parser().parse_args(
            ["dash", "--mix", "Sync-2", "--scheduler", "colab",
             "--out", "/tmp/d.html", "--sweep-report", "/tmp/r.json",
             "--bench-dir", "/tmp", "--ledger-limit", "9"]
        )
        assert args.command == "dash"
        assert args.mix == "Sync-2"
        assert args.scheduler == "colab"
        assert args.out == "/tmp/d.html"
        assert args.sweep_report == "/tmp/r.json"
        assert args.bench_dir == "/tmp"
        assert args.ledger_limit == 9

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_sanitize_flags(self):
        parser = build_parser()
        assert not parser.parse_args(["run"]).sanitize
        assert parser.parse_args(["run", "--sanitize"]).sanitize
        assert not parser.parse_args(["trace"]).sanitize
        assert parser.parse_args(["trace", "--sanitize"]).sanitize

    def test_lint_options(self):
        parser = build_parser()
        args = parser.parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == ["src/repro"]
        assert args.format == "text"
        assert not args.list_rules

        args = parser.parse_args(
            ["lint", "a.py", "b/", "--format", "json", "--list-rules"]
        )
        assert args.paths == ["a.py", "b/"]
        assert args.format == "json"
        assert args.list_rules


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "repro" / "sim" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "DET001"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DET001", "DET002", "OBS001", "OBS002", "KERN001", "ERR001",
        ):
            assert code in out

    def test_repo_source_is_clean(self, capsys):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        assert main(["lint", str(src)]) == 0


class TestAnalyzeCommand:
    def test_parser_options(self):
        parser = build_parser()
        args = parser.parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.paths == ["src/repro"]
        assert args.format == "text"
        assert args.baseline is None
        assert not args.write_baseline
        args = parser.parse_args(
            ["analyze", "src/repro", "--format", "sarif",
             "--baseline", "b.json", "--sarif", "out.sarif"]
        )
        assert args.format == "sarif"
        assert args.baseline == "b.json"
        assert args.sarif == "out.sarif"

    def tainted_tree(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "digest.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n"
            "def run_digest(result):\n"
            "    return time.time()\n"
        )
        return tmp_path

    def test_findings_exit_nonzero_with_chain(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        assert main(["analyze", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "ANA001" in out
        assert "via run_digest" in out

    def test_json_format_shares_lint_schema(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        assert main(["analyze", str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "analyze"
        assert payload["schema"] == 1
        assert payload["violations"][0]["code"] == "ANA001"
        assert payload["violations"][0]["suppressed"] is False

    def test_baseline_round_trip(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(
            ["analyze", str(tree), "--baseline", str(baseline),
             "--write-baseline"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["analyze", str(tree), "--baseline", str(baseline)]
        ) == 0
        assert "no violations" in capsys.readouterr().out

    def test_sarif_artifact_written(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        artifact = tmp_path / "out.sarif"
        assert main(["analyze", str(tree), "--sarif", str(artifact)]) == 1
        document = json.loads(artifact.read_text())
        assert document["version"] == "2.1.0"

    def test_list_rules_includes_ana_family(self, capsys):
        assert main(["analyze", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("ANA001", "ANA002", "ANA003", "ANA004"):
            assert code in out

    def test_repo_source_is_clean_modulo_baseline(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        assert main(
            ["analyze", str(root / "src" / "repro"),
             "--baseline", str(root / ".sanitize-baseline.json")]
        ) == 0


class TestRunCommand:
    def test_run_point_and_json_export(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        code = main(
            [
                "--scale", "0.05", "--oracle",
                "run", "--mix", "Sync-1", "--config", "2B2S",
                "--schedulers", "linux,colab", "--json", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "H_ANTT" in stdout
        assert "fairness" in stdout
        payload = json.loads(out.read_text())
        assert payload["count"] == 2
        schedulers = {p["scheduler"] for p in payload["points"]}
        assert schedulers == {"linux", "colab"}


class TestCleanErrors:
    """Bad input ends in one ``error:`` line and exit status 2."""

    BASE = ["--scale", "0.05", "--oracle", "--no-cache", "--no-ledger"]

    def test_mix_index_instead_of_name(self, capsys):
        assert main(self.BASE + ["run", "--mix", "1", "--config", "2B2S"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown mix '1'")
        assert "Traceback" not in captured.err
        # The valid names are listed.
        assert "Sync-1" in captured.err and "Rand-10" in captured.err

    def test_unknown_config(self, capsys):
        code = main(self.BASE + ["run", "--mix", "Sync-1", "--config", "9B9S"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: unknown config '9B9S'")
        assert "Traceback" not in captured.err
        for config in ("2B2S", "2B4S", "4B2S", "4B4S"):
            assert config in captured.err

    def test_unknown_scheduler_fails_before_training(self, monkeypatch, capsys):
        import repro.model.training as training

        def no_training():
            raise AssertionError("model trained before the names were checked")

        monkeypatch.setattr(training, "default_speedup_model", no_training)
        base = [arg for arg in self.BASE if arg != "--oracle"]
        code = main(base + ["run", "--mix", "Sync-1", "--schedulers", "linux,bogus"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown scheduler 'bogus'")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err
        for name in ("linux", "wash", "colab", "gts"):
            assert name in captured.err

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--scale", "0"], "error: work scale must be positive and finite"),
            (["--scale", "-1"], "error: work scale must be positive and finite"),
            (["--scale", "nan"], "error: work scale must be positive and finite"),
            (["--jobs", "0"], "error: jobs must be at least 1, got 0"),
            (["--jobs", "-3"], "error: jobs must be at least 1, got -3"),
        ],
    )
    def test_bad_scale_or_jobs_fails_before_work(
        self, monkeypatch, capsys, flags, message
    ):
        import repro.experiments.runner as runner

        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the options were checked")

        monkeypatch.setattr(runner, "evaluate_mix", no_simulation)
        code = main(self.BASE + flags + ["run", "--mix", "Sync-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--mixes", "Sync-1,Bogus"], "error: unknown mix 'Bogus'"),
            (["--configs", "2B2S,9B9S"], "error: unknown config '9B9S'"),
        ],
    )
    def test_sweep_checks_names_before_progress(
        self, tmp_path, capsys, flags, message
    ):
        code = main(
            self.BASE
            + ["sweep", "--schedulers", "linux"]
            + flags
            + [
                "--timeline", str(tmp_path / "t.json"),
                "--report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        # No progress line precedes the error on the same line.
        assert captured.err.startswith(message)
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "t.json").exists()

    def test_trace_unknown_mix(self, tmp_path, capsys):
        code = main(
            self.BASE
            + ["trace", "--mix", "Sync-99", "--out", str(tmp_path / "t.json")]
        )
        assert code == 2
        assert "unknown mix 'Sync-99'" in capsys.readouterr().err

    def test_mix_help_names_the_expected_form(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        help_text = capsys.readouterr().out
        assert "Sync-1" in help_text
        assert "mix index" not in help_text


class TestSanitizedRunCommand:
    def test_run_with_sanitizer_matches_plain_run(self, tmp_path, capsys):
        """End-to-end --sanitize run: completes and is bit-identical."""
        plain = tmp_path / "plain.json"
        checked = tmp_path / "checked.json"
        base = [
            "--scale", "0.05", "--oracle",
            "run", "--mix", "Sync-1", "--config", "2B2S",
            "--schedulers", "linux,colab",
        ]
        assert main(base + ["--json", str(plain)]) == 0
        assert main(base + ["--sanitize", "--json", str(checked)]) == 0
        capsys.readouterr()
        assert json.loads(plain.read_text()) == json.loads(checked.read_text())


class TestSweepCommand:
    def test_sweep_writes_timeline_and_report(self, tmp_path, capsys):
        timeline = tmp_path / "timeline.json"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "--scale", "0.04", "--oracle", "--jobs", "2",
                "sweep", "--mixes", "Sync-1", "--configs", "2B2S",
                "--schedulers", "linux,colab",
                "--timeline", str(timeline), "--report", str(report_path),
                "--no-progress",
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "H_ANTT" in stdout
        assert "sweep report" in stdout

        document = json.loads(timeline.read_text())
        names = {
            record["args"]["name"]
            for record in document["traceEvents"]
            if record["ph"] == "M" and record["name"] == "process_name"
        }
        assert "sweep parent [orchestration]" in names
        assert any(name.startswith("worker 0") for name in names)

        report = json.loads(report_path.read_text())
        assert report["points_total"] == 2
        assert report["points_executed"] + report["points_from_cache"] == 2
        assert report["histograms"]["point_wall_s"]["count"] >= 0

    def test_sweep_report_reads_back(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        main(
            [
                "--scale", "0.04", "--oracle",
                "sweep", "--mixes", "Sync-1", "--configs", "2B2S",
                "--schedulers", "linux",
                "--timeline", str(tmp_path / "t.json"),
                "--report", str(report_path), "--no-progress",
            ]
        )
        capsys.readouterr()
        assert main(["sweep-report", str(report_path)]) == 0
        assert "sweep report" in capsys.readouterr().out
        assert main(["sweep-report", str(report_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["points_total"] == 1


class TestDiffCommand:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        trace = tmp_path / "a.jsonl"
        trace.write_text('{"t": 1.0, "kind": "dispatch"}\n')
        assert main(["diff", str(trace), str(trace)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_nonzero(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"t": 1.0, "kind": "dispatch"}\n')
        b.write_text('{"t": 2.0, "kind": "dispatch"}\n')
        assert main(["diff", str(a), str(b)]) == 1
        assert "diverge at record 0" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_writes_chrome_trace_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            [
                "--scale", "0.05", "--oracle",
                "trace", "--mix", "Sync-1", "--config", "2B2S",
                "--scheduler", "colab", "--out", str(out),
                "--jsonl", str(jsonl), "--metrics", str(metrics),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "perfetto" in stdout.lower()
        assert "makespan" in stdout

        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"M", "X"} <= phases  # per-core tracks + duration slices

        lines = jsonl.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

        snapshot = json.loads(metrics.read_text())
        assert "sched.migrations" in snapshot["counters"]
        assert "core.0.utilization" in snapshot["gauges"]
        assert "rq.mean_depth" in snapshot["gauges"]
        assert "futex.total_wait_ms" in snapshot["gauges"]

    def test_trace_timeseries_adds_counter_tracks(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "--scale", "0.05", "--oracle", "--no-cache",
                "trace", "--mix", "Sync-1", "--config", "2B2S",
                "--scheduler", "colab", "--out", str(out),
                "--timeseries",
            ]
        )
        assert code == 0
        assert "timeline" in capsys.readouterr().out
        document = json.loads(out.read_text())
        counters = [
            e for e in document["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters
        assert {e["pid"] for e in counters} == {2}
        assert any(e["name"] == "rq.depth.mean" for e in counters)


class TestDashCommand:
    ARGS = [
        "--scale", "0.05", "--oracle", "--no-cache", "--no-ledger",
        "dash", "--mix", "Sync-1", "--config", "2B2S",
        "--scheduler", "colab",
    ]

    def test_dash_writes_self_contained_html(self, tmp_path, capsys):
        out = tmp_path / "dashboard.html"
        code = main(self.ARGS + ["--out", str(out), "--bench-dir", str(tmp_path)])
        assert code == 0
        assert "self-contained" in capsys.readouterr().out
        document = out.read_text()
        assert document.startswith("<!DOCTYPE html>")
        assert "<script" not in document.lower()
        assert "<svg" in document
        for heading in (
            "Run timeline (sim-time)", "Sweep report",
            "Ledger trends", "Benchmarks",
        ):
            assert f"<h2>{heading}</h2>" in document

    def test_dash_reruns_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "a.html"
        second = tmp_path / "b.html"
        assert main(self.ARGS + ["--out", str(first), "--bench-dir", str(tmp_path)]) == 0
        assert main(self.ARGS + ["--out", str(second), "--bench-dir", str(tmp_path)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_dash_includes_bench_artifacts(self, tmp_path, capsys):
        bench = tmp_path / "BENCH_demo.json"
        bench.write_text(json.dumps({
            "name": "demo",
            "timings": {"run_s": 0.5},
            "asserts": {
                "bound": {"measured": 0.1, "bound": 1.0, "op": "<", "ok": True}
            },
        }))
        out = tmp_path / "dashboard.html"
        code = main(self.ARGS + ["--out", str(out), "--bench-dir", str(tmp_path)])
        assert code == 0
        assert "1 bench artifact(s)" in capsys.readouterr().out
        document = out.read_text()
        assert "demo" in document
        assert '<span class="ok">ok</span>' in document


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory, never the real one."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


class TestReportCommand:
    BASE = ["--scale", "0.05", "--oracle", "--no-cache"]
    POINT = ["--mix", "Sync-1", "--config", "2B2S", "--scheduler", "colab"]

    def test_fresh_report_renders_attribution_and_quality(self, capsys):
        code = main(self.BASE + ["report"] + self.POINT)
        assert code == 0
        out = capsys.readouterr().out
        assert "running_big" in out
        assert "decisions linked" in out
        assert "colab_pick" in out

    def test_json_report_states_sum_to_turnaround(self, capsys):
        code = main(self.BASE + ["report"] + self.POINT + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "colab"
        assert payload["attribution"]["tasks"]
        for row in payload["attribution"]["tasks"]:
            total = sum(row["state_ms"].values())
            assert total == pytest.approx(row["turnaround_ms"], abs=1e-6)
        assert payload["decision_quality"]

    def test_report_by_recorded_ledger_id(self, capsys):
        assert main(self.BASE + ["report"] + self.POINT) == 0
        capsys.readouterr()
        assert main(["report", "1"]) == 0
        out = capsys.readouterr().out
        assert "ledger run 1" in out
        assert "running_big" in out


class TestLedgerCommands:
    RUN = [
        "--scale", "0.05", "--oracle", "--no-cache",
        "run", "--mix", "Sync-1", "--config", "2B2S",
        "--schedulers", "colab",
    ]
    TREND = [
        "ledger", "trend", "--mix", "Sync-1", "--config", "2B2S",
        "--scheduler", "colab",
    ]

    def test_runs_record_and_trend_judges(self, capsys):
        for _ in range(3):
            assert main(self.RUN) == 0
        capsys.readouterr()
        assert main(["ledger", "list"]) == 0
        assert "sweep-point" in capsys.readouterr().out
        assert main(self.TREND) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "REGRESSED" not in out

    def test_trend_exits_nonzero_on_injected_regression(
        self, tmp_path, capsys
    ):
        from repro.obs.ledger import Ledger

        with Ledger(tmp_path / "ledger" / "ledger.db") as ledger:
            for makespan in (10.0, 10.1, 9.9, 13.5):
                ledger.record_run(
                    mix="Sync-1", config="2B2S", scheduler="colab",
                    metrics={"makespan": makespan},
                )
        assert main(self.TREND) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_show_and_compare(self, capsys):
        for _ in range(2):
            assert main(self.RUN) == 0
        capsys.readouterr()
        assert main(["ledger", "show", "1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scheduler"] == "colab"
        assert main(["ledger", "compare", "1", "2"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_no_ledger_flag_disables_recording(self, capsys):
        assert main(["--no-ledger"] + self.RUN[:4] + self.RUN[4:]) == 0
        capsys.readouterr()
        assert main(["ledger", "list"]) == 0
        assert "empty" in capsys.readouterr().out


class TestTraceTaskTracks:
    def test_trace_emits_task_state_process(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            [
                "--scale", "0.05", "--oracle", "--no-cache",
                "trace", "--mix", "Sync-1", "--config", "2B2S",
                "--scheduler", "colab", "--out", str(out), "--task-tracks",
            ]
        )
        assert code == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        task_records = [
            r for r in document["traceEvents"] if r.get("pid") == 1
        ]
        assert any(r["ph"] == "X" for r in task_records)
