"""Executor determinism: serial == parallel == cached, run isolation."""

import pytest

from repro.runtime import Executor, RunSpec, execute_inline, run_spec


def spec(rate: float = 0.02, **over) -> RunSpec:
    kwargs = dict(
        pattern="UN", rate=rate, cycles=300, warmup=100, seed=5,
        topology_kwargs={"n_cores": 64},
    )
    kwargs.update(over)
    return RunSpec.create("cmesh", **kwargs)


SPECS = [spec(0.01), spec(0.02), spec(0.03)]


class TestDeterminism:
    def test_serial_rerun_bit_identical(self):
        assert run_spec(SPECS[1]).summary == run_spec(SPECS[1]).summary

    def test_parallel_matches_serial(self):
        serial = Executor(jobs=1).run(SPECS)
        parallel = Executor(jobs=4).run(SPECS)
        assert [r.summary for r in parallel] == [r.summary for r in serial]
        assert [r.digest for r in parallel] == [r.digest for r in serial]

    def test_cached_matches_fresh(self, tmp_path):
        fresh = Executor(jobs=1).run(SPECS)
        warm = Executor(jobs=1, cache=str(tmp_path / "c"))
        first = warm.run(SPECS)
        second = warm.run(SPECS)
        assert [r.summary for r in first] == [r.summary for r in fresh]
        assert [r.summary for r in second] == [r.summary for r in fresh]
        assert not any(r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        assert warm.runs_executed == 3 and warm.runs_from_cache == 3

    def test_interleaving_does_not_perturb_results(self):
        # A run's result is a pure function of its spec: simulating other
        # specs in between must not shift packet ids or RNG state.
        alone = run_spec(SPECS[2]).summary
        ex = Executor(jobs=1)
        ex.run([SPECS[0], SPECS[2], SPECS[1], SPECS[2]])
        assert ex.run_one(SPECS[2]).summary == alone


class TestExecutorMechanics:
    def test_order_preserved(self):
        runs = Executor(jobs=1).run(SPECS)
        assert [r.spec.traffic.rate for r in runs] == [0.01, 0.02, 0.03]

    def test_duplicate_specs_simulated_once(self):
        ex = Executor(jobs=1)
        a, b = ex.run([SPECS[0], SPECS[0]])
        assert a.summary == b.summary
        # Both results count, but the second is served from the first.
        assert b.wall_s == 0.0

    def test_runs_executed_counts_simulations(self):
        ex = Executor(jobs=1)
        ex.run([SPECS[0], SPECS[1], SPECS[0]])
        assert ex.runs_executed == 2 and ex.runs_from_cache == 0

    def test_jobs_validated(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)

    def test_progress_and_runlog(self, tmp_path):
        from repro.runtime import read_runlog

        seen = []
        ex = Executor(
            jobs=1,
            runlog=str(tmp_path / "runs.jsonl"),
            progress=lambda done, total, r: seen.append((done, total)),
        )
        ex.run(SPECS)
        assert seen == [(1, 3), (2, 3), (3, 3)]
        records = read_runlog(tmp_path / "runs.jsonl")
        assert [r["rate"] for r in records] == [0.01, 0.02, 0.03]
        assert all(not r["cache_hit"] for r in records)

    def test_power_pairs_measured(self):
        run = Executor(jobs=1).run_one(
            RunSpec.create(
                "own256", rate=0.02, cycles=300, warmup=100, seed=5,
                power=((4, 1), (1, 2)),
            )
        )
        for key in ("cfg4_s1", "cfg1_s2"):
            assert run.power[key]["total_w"] > 0
            assert "avg_wireless_link_mw" in run.power[key]
        assert run.power_for(4, 1) is run.power["cfg4_s1"]

    def test_unknown_topology_key(self):
        with pytest.raises(KeyError):
            run_spec(RunSpec.create("eschernet", cycles=10))


class TestTelemetry:
    def test_spec_telemetry_fills_metrics(self):
        result = run_spec(spec(telemetry=True))
        assert result.metrics
        assert any(k.startswith("pkt_total[") for k in result.metrics)

    def test_no_telemetry_no_metrics(self):
        assert run_spec(spec()).metrics == {}

    def test_telemetry_does_not_perturb_summary(self):
        plain = run_spec(spec())
        traced = run_spec(spec(telemetry=True))
        assert traced.summary == plain.summary

    def test_executor_flag_rewrites_specs(self):
        result = Executor(jobs=1, telemetry=True).run_one(spec())
        assert result.spec.telemetry is True
        assert result.metrics

    def test_metrics_survive_cache_round_trip(self, tmp_path):
        ex = Executor(jobs=1, telemetry=True, cache=str(tmp_path / "c"))
        first = ex.run_one(spec())
        second = ex.run_one(spec())
        assert second.cache_hit
        assert second.metrics == first.metrics != {}

    def test_metrics_cross_process_boundary(self):
        results = Executor(jobs=2, telemetry=True).run([spec(0.01), spec(0.02)])
        assert all(r.metrics for r in results)

    def test_trace_dir_writes_chrome_traces(self, tmp_path):
        import json

        ex = Executor(trace_dir=str(tmp_path / "traces"))
        result = ex.run_one(spec())
        path = result.meta["trace_path"]
        assert path.endswith(f"{result.digest[:8]}.json")
        doc = json.loads(open(path).read())
        assert doc["traceEvents"]
        assert result.metrics  # trace_dir implies telemetry

    def test_inline_with_caller_tracer(self):
        from repro.telemetry import Tracer

        tracer = Tracer()
        _, sim, result = execute_inline(spec(), tracer=tracer)
        assert tracer.events
        assert result.metrics  # finalized caller tracer feeds the result


class TestRunIsolation:
    def test_simulators_get_private_packet_ids(self):
        # Two simulators in one process each number their packets from 0
        # (there is no process-global counter for the second to continue).
        from repro.telemetry import FLIT_SEND, Tracer

        for seed in (5, 9):
            tracer = Tracer()
            _, sim, _ = execute_inline(spec(0.02, seed=seed), tracer=tracer)
            sent = {ev.args["pid"] for ev in tracer.events if ev.etype == FLIT_SEND}
            assert 0 in sent
            assert sent <= set(range(sim.stats.packets_created))

    def test_inline_matches_engine(self):
        _, _, inline_result = execute_inline(SPECS[1])
        assert inline_result.summary == run_spec(SPECS[1]).summary
