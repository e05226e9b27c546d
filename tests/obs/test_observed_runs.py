"""Observation-only guarantee + executor integration (serial and pool).

The load-bearing invariant of the whole observability layer: attaching
an observer changes *nothing* about the simulation -- summaries, power,
telemetry metrics are bit-identical with and without it, serial or
parallel. CI additionally locks this via a golden ``repro diff`` at 0%.
"""

import logging

import pytest

from repro.core.reconfig import ReconfigurationController
from repro.faults import HealthMonitor
from repro.obs import (
    HEARTBEAT,
    RUN_FINISHED,
    RUN_STARTED,
    ObservationHub,
    RunObserver,
    clear_worker_bus,
)
from repro.obs.log import configure_logging
from repro.runtime import Executor, RunSpec
from repro.runtime.executor import execute_inline, run_spec
from repro.runtime.spec import ControlSpec, FaultSpec
from repro.telemetry import Tracer
from repro.telemetry.events import BUFFER_SAMPLE, CONTROL, FAILOVER

SPEC = RunSpec.create(
    "cmesh", rate=0.02, cycles=300, warmup=100, seed=3,
    topology_kwargs={"n_cores": 64},
)
SPECS = [
    RunSpec.create(
        "cmesh", rate=r, cycles=300, warmup=100, seed=3,
        topology_kwargs={"n_cores": 64},
    )
    for r in (0.01, 0.02, 0.03)
]


@pytest.fixture(autouse=True)
def _clean_state():
    configure_logging(json_mode=False, level=logging.INFO, force=True)
    clear_worker_bus()
    yield
    clear_worker_bus()


def make_hub(**kwargs):
    kwargs.setdefault("sample_every", 50)
    kwargs.setdefault("stall_after_s", 0)
    return ObservationHub(**kwargs)


class TestObservationOnly:
    def test_observed_serial_run_bit_identical(self):
        baseline = run_spec(SPEC)
        observed = Executor(jobs=1, observe=make_hub()).run_one(SPEC)
        assert observed.summary == baseline.summary
        assert observed.power == baseline.power
        assert observed.digest == baseline.digest

    def test_observed_pool_run_bit_identical(self):
        baselines = [run_spec(s) for s in SPECS]
        observed = Executor(jobs=2, observe=make_hub()).run(SPECS)
        for base, obs in zip(baselines, observed):
            assert obs.summary == base.summary

    def test_observed_telemetry_metrics_identical(self):
        spec = SPEC.with_(telemetry=True)
        baseline = run_spec(spec)
        observed = Executor(jobs=1, observe=make_hub()).run_one(spec)
        assert observed.metrics == baseline.metrics
        assert observed.summary == baseline.summary

    def test_fine_stride_still_identical(self):
        baseline = run_spec(SPEC)
        observed = Executor(
            jobs=1, observe=make_hub(sample_every=1)
        ).run_one(SPEC)
        assert observed.summary == baseline.summary


class TestSerialEvents:
    def test_lifecycle_event_stream(self):
        hub = make_hub()
        events = []
        hub.subscribe(events.append)
        Executor(jobs=1, observe=hub).run_one(SPEC)
        kinds = [e["event"] for e in events]
        assert kinds[0] == RUN_STARTED
        assert kinds[-1] == RUN_FINISHED
        beats = [e for e in events if e["event"] == HEARTBEAT]
        # 300 measured + drain budget at stride 50 -> several beats.
        assert len(beats) >= 3
        cycles = [e["cycle"] for e in beats]
        assert cycles == sorted(cycles)
        for beat in beats:
            assert beat["injected"] >= beat["ejected"] >= 0
            assert beat["target_cycles"] > 0
            assert beat["phase"] in ("run", "drain")

    def test_hub_final_state(self):
        hub = make_hub()
        Executor(jobs=1, observe=hub).run_one(SPEC)
        snap = hub.snapshot()
        assert snap["done"] == 1 and snap["total"] == 1
        assert snap["inflight"] == 0
        (state,) = snap["runs"].values()
        assert state["phase"] == "finished"
        assert state["latency_mean"] is not None

    def test_batch_duplicates_are_one_run(self):
        # One simulation answers both: the fleet counts it once.
        hub = make_hub()
        Executor(jobs=1, observe=hub).run([SPEC, SPEC])
        snap = hub.snapshot()
        assert snap["done"] == 1 and snap["total"] == 1

    def test_windows_ride_heartbeats_when_traced(self):
        hub = make_hub()
        events = []
        hub.subscribe(events.append)
        Executor(jobs=1, observe=hub).run_one(SPEC.with_(telemetry=True))
        beats = [e for e in events if e["event"] == HEARTBEAT]
        with_windows = [b for b in beats if b.get("windows")]
        assert with_windows, "traced observed run carried no window snapshots"
        last = with_windows[-1]["windows"]
        assert last["events"] > 0 and "link_busy" in last["kinds"]

    def test_untraced_run_has_no_window_payload(self):
        hub = make_hub()
        events = []
        hub.subscribe(events.append)
        Executor(jobs=1, observe=hub).run_one(SPEC)
        beats = [e for e in events if e["event"] == HEARTBEAT]
        assert beats and all(b.get("windows") is None for b in beats)


class TestPoolEvents:
    def test_worker_events_cross_the_queue(self):
        hub = make_hub()
        events = []
        hub.subscribe(events.append)
        Executor(jobs=2, observe=hub).run(SPECS)
        kinds = [e["event"] for e in events]
        assert kinds.count(RUN_STARTED) == 3
        assert kinds.count(RUN_FINISHED) == 3
        assert kinds.count(HEARTBEAT) >= 9
        workers = {e["worker"] for e in events if e["event"] == HEARTBEAT}
        assert len(workers) >= 2, "expected heartbeats from multiple workers"
        assert hub.snapshot()["done"] == 3


class TestCacheHits:
    def test_cache_hit_noted_finished(self, tmp_path):
        hub = make_hub()
        ex = Executor(jobs=1, cache=str(tmp_path / "cache"), observe=hub)
        ex.run_one(SPEC)
        events = []
        hub.subscribe(events.append)
        result = ex.run_one(SPEC)
        assert result.cache_hit
        fins = [e for e in events if e["event"] == RUN_FINISHED]
        assert len(fins) == 1 and fins[0]["cache_hit"] is True
        assert hub.snapshot()["done"] == 1  # same digest: one run state

    def test_cache_hit_finish_has_the_executed_payload_keys(self, tmp_path):
        hub = make_hub()
        events = []
        hub.subscribe(events.append)
        ex = Executor(jobs=1, cache=str(tmp_path / "cache"), observe=hub)
        ex.run_one(SPEC)
        ex.run_one(SPEC)
        executed, served = [e for e in events if e["event"] == RUN_FINISHED]
        assert served["cache_hit"] and not executed["cache_hit"]
        assert set(served) == set(executed)
        assert served["heartbeats"] == 0 < executed["heartbeats"]

    def test_cache_hit_wall_s_well_defined(self, tmp_path):
        ex = Executor(jobs=1, cache=str(tmp_path / "cache"))
        ex.run_one(SPEC)
        hit = ex.run_one(SPEC)
        assert hit.cache_hit and hit.wall_s >= 0.0

    def test_cache_hit_record_has_no_cycles_per_sec(self, tmp_path):
        from repro.runtime import read_runlog

        log_path = tmp_path / "runs.jsonl"
        ex = Executor(
            jobs=1, cache=str(tmp_path / "cache"), runlog=str(log_path)
        )
        ex.run_one(SPEC)
        ex.run_one(SPEC)
        miss, hit = read_runlog(log_path)
        assert miss["cycles_per_sec"] is not None
        assert hit["cache_hit"] is True
        assert hit["cycles_per_sec"] is None

    def test_empty_batch_short_circuits(self):
        hub = make_hub()
        assert Executor(jobs=1, observe=hub).run([]) == []
        assert hub.snapshot()["total"] == 0


class TestProgressPhases:
    def test_legacy_callback_sees_only_completions(self):
        seen = []
        ex = Executor(
            jobs=1,
            observe=make_hub(),
            progress=lambda done, total, r: seen.append((done, total)),
        )
        ex.run(SPECS)
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_hub_subscriber_sees_inflight(self):
        # In-flight events have one route -- ObservationHub.subscribe --
        # while ``progress`` fires once, on completion, with the result.
        hub = make_hub()
        events, completions = [], []
        hub.subscribe(lambda ev: events.append(ev["event"]))
        ex = Executor(
            jobs=1, observe=hub,
            progress=lambda done, total, r: completions.append(r),
        )
        result = ex.run_one(SPEC)
        assert events[0] == RUN_STARTED
        assert HEARTBEAT in events
        assert events[-1] == RUN_FINISHED
        assert completions == [result]


class TestRunObserverUnit:
    def test_rejects_bad_stride(self):
        with pytest.raises(ValueError):
            RunObserver(lambda e: None, digest="ab" * 32, label="x", every=0)


class TestHookOrder:
    """Plant hooks, then the tracer's sampler, then the heartbeat."""

    def test_recovering_run_hooks_run_plant_sampler_heartbeat(self):
        spec = RunSpec.create(
            "own256_ft", topology_kwargs={"with_reconfiguration": True},
            pattern="HOT", rate=0.03, hotspot_fraction=0.6,
            hotspots=tuple(range(128, 192)), cycles=800, warmup=100, seed=3,
            faults=FaultSpec(
                kind="bursty", seed=9, burst_rate=0.002, burst_duration=300,
                snr_penalty_db=14.0, max_channel=4, reconfig_epoch=250,
            ),
            control=ControlSpec(epoch_cycles=250),
        )  # fmt: skip
        events = []
        tracer = Tracer(sample_every=10)
        _, sim, _ = execute_inline(
            spec, tracer=tracer, publish=events.append, sample_every=50
        )
        hooks = sim._hooks
        assert [type(h) for h in hooks] == [
            ReconfigurationController, HealthMonitor, Tracer, RunObserver,
        ]
        # Within a cycle the plant's decisions precede the occupancy sample.
        plant_cycles, sampled = set(), {}
        for ev in tracer.events:
            if ev.etype in (FAILOVER, CONTROL):
                plant_cycles.add(ev.cycle)
                assert ev.cycle not in sampled, ev
            elif ev.etype == BUFFER_SAMPLE:
                sampled[ev.cycle] = len(ev.args["occupancy"])
        assert plant_cycles & set(sampled), "no cycle with both plant and sample"
        # A heartbeat on a sampling cycle carries that cycle's buffer_occ.
        beats = [
            e for e in events if e["event"] == HEARTBEAT and e["cycle"] in sampled
        ]
        assert any(sampled[b["cycle"]] for b in beats)
        for beat in beats:
            expected = sum(n for c, n in sampled.items() if c <= beat["cycle"])
            got = beat["windows"]["kinds"].get("buffer_occ", {}).get("samples", 0)
            assert got == expected, beat["cycle"]
