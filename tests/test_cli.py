"""CLI (`python -m repro`) behaviour via the in-process entry point."""

import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import GOLDEN_RECIPES, build_parser, main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "results" / "golden"


def moved_golden(dest, by=-1.0):
    """Copy the own256 golden sweep to ``dest`` with its first point's mean
    latency moved ``by`` cycles: lower reads as a regression on a re-run,
    higher as a gain that leaves the golden stale."""
    text = (GOLDEN / "own256-sweep.jsonl").read_text()
    records = [json.loads(line) for line in text.splitlines()]
    records[0]["summary"]["latency_mean"] += by
    dest.write_text("".join(json.dumps(r) + "\n" for r in records))


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_topology_choices(self):
        for name in ("own256", "own1024"):
            assert build_parser().parse_args(["info", name]).topology == name
        with pytest.raises(SystemExit):
            build_parser().parse_args(["info", "nonsense"])


class TestInfo:
    @pytest.mark.parametrize("topo", ["own256", "cmesh256", "optxb256"])
    def test_info_runs(self, capsys, topo):
        assert main(["info", topo]) == 0
        out = capsys.readouterr().out
        assert "routers" in out
        assert "bisection" in out

    def test_own256_structure_in_output(self, capsys):
        main(["info", "own256"])
        out = capsys.readouterr().out
        assert "wireless 12" in out
        assert "photonic rings" in out

    def test_prints_the_model(self, capsys):
        from repro.analysis import predict
        from repro.runtime import NAMED_TOPOLOGIES, build_ref

        assert main(["info", "pclos256"]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines() if "model (UN)" in l]
        model = predict(build_ref(NAMED_TOPOLOGIES["pclos256"]))
        assert f"zero-load latency {model.zero_load_latency:.1f} cycles" in line
        assert f"saturation bound {model.saturation_rate:.4f}" in line
        assert f"(binding: {model.binding_resource})" in line


class TestChannels:
    def test_prints_all_four_tables(self, capsys):
        assert main(["channels"]) == 0
        out = capsys.readouterr().out
        for title in ("Table I", "Table II", "Table III", "Table IV"):
            assert title in out


class TestExperiments:
    def test_unknown_experiment_rejected(self, capsys):
        assert main(["experiments", "--only", "bogus"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_static_experiment_runs(self, capsys):
        assert main(["experiments", "--only", "table1"]) == 0
        assert "OWN-256 wireless connections" in capsys.readouterr().out


class TestReportCommand:
    def test_writes_markdown(self, tmp_path, capsys):
        out_file = tmp_path / "r.md"
        rc = main(["report", "-o", str(out_file), "--only", "table1,table4"])
        assert rc == 0
        text = out_file.read_text()
        assert "Table I" in text and "Table IV" in text

    def test_unknown_id(self, tmp_path, capsys):
        rc = main(["report", "-o", str(tmp_path / "r.md"), "--only", "nope"])
        assert rc == 2


class TestSweep:
    def test_small_sweep(self, capsys):
        rc = main([
            "sweep", "cmesh256", "--rates", "0.01", "--cycles", "200",
            "--warmup", "50",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "saturation offered load" in out

    def test_point_without_packets_prints_nan(self, capsys):
        # The first rate measures no packet in a 50-cycle window: its
        # latency reads NaN and the sweep goes on.
        rc = main([
            "sweep", "own256", "--rates", "0.00005,0.01", "--cycles", "200",
            "--warmup", "150",
        ])
        assert rc == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[3].split("|")[1].strip() == "nan"
        assert rows[4].split("|")[1].strip() != "nan"

    def test_warmup_past_cycles_is_a_usage_error(self, capsys):
        # The default --warmup 400 measured nothing in 200 cycles, and the
        # saturation check then crashed on a missing zero-load latency.
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "own256", "--rates", "0.01", "--cycles", "200"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith("repro sweep: error: --warmup/--cycles: need 0 <= warmup")
        assert sum("error" in line for line in err) == 1


class TestFlagValues:
    """Engine and observability flags are checked as they are parsed: a bad
    value is a usage error (exit 2), never a traceback from the engine or a
    silent default."""

    @pytest.mark.parametrize("command", [
        "sweep own256 --jobs 0",
        "experiments --jobs -2",
        "scenarios list --jobs 0",
        "sweep own256 --heartbeat-cycles 0",
        "sweep own256 --heartbeat-cycles -5",
        "scenarios run --heartbeat-cycles 0",
        "sweep own256 --stall-after -1",
        "sweep own256 --stall-after nan",
        "diff a.jsonl b.jsonl --threshold nan",
        "diff a.jsonl b.jsonl --threshold -0.1",
    ])
    def test_bad_value_is_a_usage_error(self, command, capsys):
        argv = command.split()
        flag = next(arg for arg in argv if arg.startswith("--"))
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        "sweep own256 --rates 0.01,abc",
        "sweep own256 --rates -0.01",
        "sweep own256 --rates 1.5",
        "sweep own256 --rates nan",
        "sweep own256 --pattern XYZ",
        "report --rates 0.01,abc --analyze own256",
        "report --rates -0.01 --analyze own256",
        "report --rates 1.5 --analyze own256",
        "report --pattern XYZ --analyze own256",
    ])
    def test_bad_rate_or_pattern_is_a_usage_error(self, command, capsys):
        self.test_bad_value_is_a_usage_error(command, capsys)

    @pytest.mark.parametrize("command", [
        "scenarios run --warmup 200 --cycles 100",
        "scenarios run --quick --warmup 200 --cycles 100",  # after the clamp
        "report --analyze own256 --warmup 200 --cycles 100",
    ])
    def test_empty_window_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        assert exc.value.code == 2
        assert "error: --warmup/--cycles: need 0 <= warmup" in capsys.readouterr().err

    def test_rates_and_pattern_parse(self):
        args = build_parser().parse_args([
            "sweep", "own256", "--rates", "0,0.05,1", "--pattern", "hot",
        ])
        assert (args.rates, args.pattern) == ([0.0, 0.05, 1.0], "hot")

    def test_boundary_values_parse(self):
        args = build_parser().parse_args([
            "sweep", "own256", "--jobs", "1", "--heartbeat-cycles", "1",
            "--stall-after", "0",
        ])
        assert (args.jobs, args.heartbeat_cycles, args.stall_after) == (1, 1, 0.0)


class TestEngineFlags:
    ARGS = [
        "sweep", "cmesh256", "--rates", "0.01,0.02", "--cycles", "200",
        "--warmup", "50",
    ]

    def test_parallel_matches_serial(self, capsys):
        assert main(self.ARGS) == 0
        serial = capsys.readouterr().out
        assert main(self.ARGS + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_cache_round_trip(self, tmp_path, capsys):
        args = self.ARGS + ["--cache", str(tmp_path / "cache")]
        assert main(args) == 0
        first = capsys.readouterr()
        assert "engine: 2 simulated, 0 from cache" in first.err

        assert main(args) == 0
        second = capsys.readouterr()
        assert "engine: 0 simulated, 2 from cache (hit rate 100%)" in second.err
        assert second.out == first.out

    def test_runlog_written(self, tmp_path, capsys):
        from repro.runtime import read_runlog

        log = tmp_path / "runs.jsonl"
        assert main(self.ARGS + ["--runlog", str(log)]) == 0
        capsys.readouterr()
        records = read_runlog(log)
        assert [r["rate"] for r in records] == [0.01, 0.02]
        assert all(r["topology"] == "cmesh" for r in records)

    def test_experiments_accept_engine_flags(self, tmp_path, capsys):
        rc = main([
            "experiments", "--only", "fig5", "--quick",
            "--cache", str(tmp_path / "cache"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "[fig5]" in captured.out
        assert "engine: 1 simulated, 0 from cache" in captured.err


class TestTelemetryFlags:
    OWN_ARGS = [
        "sweep", "own256", "--rates", "0.03", "--cycles", "200",
        "--warmup", "50",
    ]

    def test_metrics_flag_records_channel_classes(self, tmp_path, capsys):
        log = tmp_path / "runs.jsonl"
        rc = main(self.OWN_ARGS + ["--metrics", "--runlog", str(log)])
        assert rc == 0
        capsys.readouterr()
        from repro.runtime import read_runlog

        (record,) = read_runlog(log)
        metrics = record["metrics"]
        for cls in ("C2C", "E2E", "SR"):
            assert metrics[f"wireless_occupancy[{cls}]"] > 0

    def test_trace_flag_writes_chrome_trace(self, tmp_path, capsys):
        import json

        trace_dir = tmp_path / "traces"
        rc = main(self.OWN_ARGS + ["--trace", "--trace-out", str(trace_dir)])
        assert rc == 0
        capsys.readouterr()
        files = list(trace_dir.glob("*.json"))
        assert len(files) == 1
        doc = json.loads(files[0].read_text())
        assert doc["traceEvents"]

    def test_metrics_do_not_change_sweep_output(self, capsys):
        assert main(self.OWN_ARGS) == 0
        plain = capsys.readouterr().out
        assert main(self.OWN_ARGS + ["--metrics"]) == 0
        metered = capsys.readouterr().out
        assert metered == plain


class TestObservabilityFlags:
    ARGS = [
        "sweep", "cmesh256", "--rates", "0.01", "--cycles", "300",
        "--warmup", "100",
    ]

    def test_live_plain_summary_on_captured_stderr(self, capsys):
        assert main(self.ARGS + ["--live", "--heartbeat-cycles", "50"]) == 0
        captured = capsys.readouterr()
        assert "live:" in captured.err
        assert "saturation offered load" in captured.out

    def test_log_json_emits_json_lines(self, capsys):
        import json

        assert main(self.ARGS + ["--log-json", "--jobs", "1",
                                 "--heartbeat-cycles", "50"]) == 0
        err = capsys.readouterr().err
        engine_lines = [l for l in err.splitlines() if "engine" in l]
        assert engine_lines
        doc = json.loads(engine_lines[-1])
        assert doc["msg"].startswith("engine: 1 simulated")
        assert doc["runs_executed"] == 1

    def test_status_and_openmetrics_artifacts(self, tmp_path, capsys):
        import json

        status = tmp_path / "status.json"
        prom = tmp_path / "metrics.prom"
        assert main(self.ARGS + [
            "--heartbeat-cycles", "50",
            "--status-json", str(status), "--openmetrics", str(prom),
        ]) == 0
        capsys.readouterr()
        doc = json.loads(status.read_text())
        assert doc["done"] == 1 and doc["total"] == 1
        assert doc["heartbeats"] >= 3
        (state,) = doc["runs"].values()
        assert state["phase"] == "finished"
        text = prom.read_text()
        assert text.endswith("# EOF\n")
        assert "repro_runs_done 1" in text
        assert "repro_run_cycle{" in text

    def test_observed_sweep_output_identical(self, capsys):
        assert main(self.ARGS) == 0
        plain = capsys.readouterr().out
        assert main(self.ARGS + ["--live", "--heartbeat-cycles", "50"]) == 0
        observed = capsys.readouterr().out
        assert observed == plain

    def test_scenarios_accept_obs_flags(self, tmp_path, capsys):
        import json

        status = tmp_path / "status.json"
        rc = main([
            "scenarios", "run", "--only", "coherence,own256,clean,ideal",
            "--cycles", "200", "--warmup", "50",
            "--heartbeat-cycles", "50", "--status-json", str(status),
        ])
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(status.read_text())
        assert doc["done"] == 1 and doc["heartbeats"] >= 1


class TestDiffCommand:
    SWEEP = [
        "sweep", "cmesh256", "--rates", "0.01,0.02", "--cycles", "200",
        "--warmup", "50",
    ]

    def make_log(self, path, capsys):
        assert main(self.SWEEP + ["--metrics", "--runlog", str(path)]) == 0
        capsys.readouterr()

    def test_identical_seed_logs_diff_clean(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.make_log(a, capsys)
        self.make_log(b, capsys)
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "digests match" in out
        assert "clean" in out
        assert "+0.0000" in out and "REGRESSION" not in out

    def test_regression_exits_nonzero(self, tmp_path, capsys):
        import json

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.make_log(a, capsys)
        records = [json.loads(l) for l in a.read_text().splitlines()]
        for r in records:
            r["summary"]["latency_mean"] *= 1.5
        b.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["diff", str(a), str(b)]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # A generous threshold lets the same delta through.
        assert main(["diff", str(a), str(b), "--threshold", "0.6"]) == 0
        capsys.readouterr()

    def test_json_dump(self, tmp_path, capsys):
        import json

        a = tmp_path / "a.jsonl"
        self.make_log(a, capsys)
        out = tmp_path / "diff.json"
        assert main(["diff", str(a), str(a), "--json", str(out)]) == 0
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert payload["clean"] is True
        assert len(payload["matched"]) == 2

    def test_missing_file_is_error(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        self.make_log(a, capsys)
        assert main(["diff", str(a), str(tmp_path / "nope.jsonl")]) == 2
        capsys.readouterr()

    def test_disjoint_logs_error_unless_allowed(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        self.make_log(a, capsys)
        b.write_text("")
        assert main(["diff", str(a), str(b)]) == 2
        capsys.readouterr()
        assert main(["diff", str(a), str(b), "--allow-unmatched"]) == 0
        capsys.readouterr()

    def test_zero_threshold_gates_a_moved_latency(self, tmp_path, capsys):
        moved = tmp_path / "moved.jsonl"
        moved_golden(moved)
        golden = str(GOLDEN / "own256-sweep.jsonl")
        assert main(["diff", str(moved), golden, "--threshold", "0"]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestGolden:
    """`repro golden NAME` runs the golden's recipe through its own command
    and gates the fresh log against results/golden/NAME.jsonl at 0 %."""

    def test_recipes_name_every_golden(self):
        assert set(GOLDEN_RECIPES) == {p.stem for p in GOLDEN.glob("*.jsonl")}

    def test_committed_golden_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(ROOT)
        runlog = tmp_path / "fresh.jsonl"
        assert main(["golden", "own256-sweep", "--runlog", str(runlog)]) == 0
        assert "clean" in capsys.readouterr().out
        assert len(runlog.read_text().splitlines()) == 2

    def test_moved_golden_fails_and_write_rewrites_only_it(
        self, tmp_path, monkeypatch, capsys
    ):
        golden = tmp_path / "results" / "golden"
        golden.mkdir(parents=True)
        moved_golden(golden / "own256-sweep.jsonl")
        shutil.copy(GOLDEN / "own1024-sweep.jsonl", golden)
        kept = (golden / "own1024-sweep.jsonl").read_text()
        monkeypatch.chdir(tmp_path)
        assert main(["golden", "own256-sweep"]) == 1
        capsys.readouterr()
        assert main(["golden", "own256-sweep", "own1024-sweep", "--write"]) == 0
        out = capsys.readouterr().out
        assert "REWRITTEN  results/golden/own256-sweep.jsonl" in out
        assert "unchanged  results/golden/own1024-sweep.jsonl" in out
        assert (golden / "own1024-sweep.jsonl").read_text() == kept
        assert main(["golden", "own256-sweep"]) == 0
        capsys.readouterr()

    def test_golden_the_code_beats_fails(self, tmp_path, monkeypatch, capsys):
        # The 0 % gate is two-sided: a golden a fresh run beats is stale.
        golden = tmp_path / "results" / "golden"
        golden.mkdir(parents=True)
        moved_golden(golden / "own256-sweep.jsonl", by=+1.0)
        monkeypatch.chdir(tmp_path)
        assert main(["golden", "own256-sweep"]) == 1
        assert "IMPROVED (stale baseline)" in capsys.readouterr().out

    def test_observing_flags_parse(self):
        build_parser().parse_args(
            "golden workloads-smoke --jobs 2 --cache d --runlog r.jsonl "
            "--report a.json --live --log-json --heartbeat-cycles 50 "
            "--status-json s.json --openmetrics m.prom --stall-after 5".split()
        )

    @pytest.mark.parametrize("flags", [
        "--rates 0.01", "--cycles 100", "--warmup 50", "--metrics", "--trace",
        "--quick", "--only own256", "--seed 3",
    ])
    def test_spec_changing_flag_is_a_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["golden", "own256-sweep", *flags.split()])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["own512-sweep"], ["own256-sweep", "own1024-sweep", "--json", "d.json"],
    ])
    def test_unknown_name_or_json_over_two_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["golden", *argv])
        assert exc.value.code == 2
        assert "repro golden: error:" in capsys.readouterr().err


class TestReportAnalyze:
    def test_analyze_writes_html_and_json(self, tmp_path, capsys):
        import json

        html_out = tmp_path / "diag.html"
        json_out = tmp_path / "diag.json"
        rc = main([
            "report", "--analyze", "cmesh256", "--rates", "0.01,0.04",
            "--cycles", "200", "--warmup", "50",
            "-o", str(html_out), "--json", str(json_out),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "verdict" in captured.err
        html = html_out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        payload = json.loads(json_out.read_text())
        assert [p["rate"] for p in payload["points"]] == [0.01, 0.04]
        assert payload["points"][0]["attribution"]["overall"]["exact"] is True

    def test_point_without_packets_flips_no_verdict(self, tmp_path, capsys):
        # Rate 0 measures no packet, so it has no verdict: the knee at 0.01
        # is reported without a flip from it.
        rc = main([
            "report", "--analyze", "own256", "--rates", "0,0.01",
            "--cycles", "200", "--warmup", "150",
            "-o", str(tmp_path / "diag.html"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "no-data ->" not in out
        assert "saturation knee at rate 0.01\n" in out

    def test_explicit_output_named_report_md(self, tmp_path, monkeypatch, capsys):
        # report.md is the markdown report's default name: an explicit
        # `-o report.md` must still receive the diagnosis.
        monkeypatch.chdir(tmp_path)
        assert main([
            "report", "--analyze", "own256", "--rates", "0.01",
            "--cycles", "100", "--warmup", "50", "-o", "report.md",
        ]) == 0
        assert (tmp_path / "report.md").read_text().startswith("<!DOCTYPE html>")
        assert not (tmp_path / "diagnosis.html").exists()


class TestCacheCounters:
    def test_hits_and_misses_surface_in_engine_line(self, tmp_path, capsys):
        args = [
            "sweep", "cmesh256", "--rates", "0.01,0.02", "--cycles", "200",
            "--warmup", "50", "--cache", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().err
        assert "[0 hits / 2 misses]" in first
        assert main(args) == 0
        second = capsys.readouterr().err
        assert "[2 hits / 0 misses]" in second


class TestScenariosCommand:
    def test_list_prints_cells_and_digests(self, capsys):
        assert main(["scenarios", "list", "--only", "coherence,own256"]) == 0
        captured = capsys.readouterr()
        lines = [l for l in captured.out.splitlines() if l.strip()]
        assert len(lines) == 4  # {clean,bursts} x {ideal,conservative}
        assert all(l.startswith("coherence/own256/") for l in lines)
        assert "4 cells" in captured.err

    def test_bad_filter_is_error(self, capsys):
        assert main(["scenarios", "list", "--only", "sorting-network"]) == 2
        assert "no scenario cells match" in capsys.readouterr().err

    def test_run_writes_records_and_report(self, tmp_path, capsys):
        import json

        runlog = tmp_path / "scn.jsonl"
        report = tmp_path / "report.json"
        rc = main([
            "scenarios", "run", "--only", "coherence,own256,clean",
            "--cycles", "200", "--warmup", "50",
            "--runlog", str(runlog), "--report", str(report),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Scenario matrix (2 cells)" in out
        records = [json.loads(l) for l in runlog.read_text().splitlines()]
        assert len(records) == 2
        for record in records:
            assert record["scenario"]["workload"] == "coherence"
            assert record["verdict"]
            assert "summary" in record
        payload = json.loads(report.read_text())
        assert payload["n_cells"] == 2
        assert sum(payload["verdict_histogram"].values()) == 2

    def test_replay_renders_runlog(self, tmp_path, capsys):
        runlog = tmp_path / "scn.jsonl"
        assert main([
            "scenarios", "run", "--only", "coherence,own256,clean,ideal",
            "--cycles", "200", "--warmup", "50", "--runlog", str(runlog),
        ]) == 0
        capsys.readouterr()
        assert main(["scenarios", "replay", str(runlog)]) == 0
        out = capsys.readouterr().out
        assert "Scenario run log (1 cells)" in out
        assert "coherence" in out

    def test_replay_needs_path(self, capsys):
        assert main(["scenarios", "replay"]) == 2
        assert "needs a run-log path" in capsys.readouterr().err
