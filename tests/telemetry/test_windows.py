"""Streaming sinks, buffer sampling, and windowed aggregation."""

import pytest

from repro.noc import Simulator
from repro.runtime.registry import build_topology
from repro.telemetry import (
    BUFFER_SAMPLE,
    EVENT_TYPES,
    FLIT_SEND,
    TOKEN_GRANT,
    VC_STALL,
    WINDOW_KINDS,
    Tracer,
    WindowedAggregator,
)
from repro.telemetry.events import TraceEvent
from repro.topologies import build_cmesh
from repro.traffic import SyntheticTraffic


def run_cmesh(tracer, cycles=300, rate=0.05, seed=11, built=None):
    built = built or build_cmesh(64)
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(
            built.n_cores, "UN", rate, 4, seed=seed, stop_cycle=cycles
        ),
        tracer=tracer,
    )
    sim.run(cycles)
    sim.drain()
    return sim


class _Recorder:
    """Minimal sink: keeps every event it is handed."""

    def __init__(self):
        self.events = []
        self.finalized = 0

    def on_event(self, ev):
        self.events.append(ev)

    def on_finalize(self, tracer, sim):
        self.finalized += 1


class TestSinks:
    def test_sink_sees_stream_without_buffering(self):
        sink = _Recorder()
        tracer = Tracer(record_events=False, sinks=[sink])
        run_cmesh(tracer)
        assert tracer.events == []  # metrics-only mode still buffers nothing
        assert len(sink.events) > 0
        assert {ev.etype for ev in sink.events} <= set(EVENT_TYPES)

    def test_sink_not_capped_by_max_events(self):
        sink = _Recorder()
        tracer = Tracer(max_events=10, sinks=[sink])
        run_cmesh(tracer)
        assert len(tracer.events) == 10
        assert tracer.events_dropped > 0
        # The sink saw the buffered events AND every dropped one.
        assert len(sink.events) == 10 + tracer.events_dropped

    def test_sink_matches_buffered_events(self):
        sink = _Recorder()
        tracer = Tracer(sinks=[sink])
        run_cmesh(tracer)
        assert sink.events == tracer.events

    def test_on_finalize_called_once(self):
        sink = _Recorder()
        tracer = Tracer(record_events=False, sinks=[sink])
        sim = run_cmesh(tracer)
        tracer.finalize(sim)
        tracer.finalize(sim)  # idempotent
        assert sink.finalized == 1

    def test_sinkless_metrics_only_emits_no_events(self):
        tracer = Tracer(record_events=False)
        run_cmesh(tracer)
        assert tracer.events == [] and tracer.events_dropped == 0


class TestBufferSampling:
    def test_sampling_emits_buffer_samples(self):
        for built in (build_cmesh(64), build_topology("own256")):
            tracer = Tracer(sample_every=16)
            routers = built.network.routers
            expected = {}
            sample = tracer.on_cycle_sample

            def snapshot_then_sample(now):
                # Only non-empty routers are recorded.
                expected[now] = {
                    f"r{r.rid}": r.occupancy() for r in routers if r.occupancy()
                }
                sample(now)

            tracer.on_cycle_sample = snapshot_then_sample
            run_cmesh(tracer, built=built)
            samples = [ev for ev in tracer.events if ev.etype == BUFFER_SAMPLE]
            assert samples, "sample_every produced no buffer_sample events"
            assert any(ev.args["occupancy"] for ev in samples)
            for ev in samples:
                assert ev.cycle % 16 == 0
                assert ev.args["occupancy"] == expected[ev.cycle]

    def test_sampling_off_by_default(self):
        tracer = Tracer()
        run_cmesh(tracer)
        assert not any(ev.etype == BUFFER_SAMPLE for ev in tracer.events)

    def test_sampling_does_not_change_results(self):
        plain = run_cmesh(None)
        sampled = run_cmesh(Tracer(sample_every=8))
        assert plain.stats.summary(300) == sampled.stats.summary(300)


class TestWindowedAggregatorUnit:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedAggregator(window_cycles=0)

    def test_link_busy_and_token_wait_cells(self):
        agg = WindowedAggregator(window_cycles=10)
        agg.on_event(TraceEvent(3, FLIT_SEND, "wg0", dur=4))
        agg.on_event(TraceEvent(7, FLIT_SEND, "wg0", dur=0))  # min busy 1
        agg.on_event(TraceEvent(12, FLIT_SEND, "wg0", dur=2))
        agg.on_event(TraceEvent(5, TOKEN_GRANT, "wg0", args={"wait": 9}))
        assert agg.series("link_busy", "wg0") == [5.0, 2.0]
        assert agg.series("token_wait", "wg0") == [9.0, 0.0]

    def test_vc_stall_counts(self):
        agg = WindowedAggregator(window_cycles=4)
        for cycle in (0, 1, 2, 9):
            agg.on_event(TraceEvent(cycle, VC_STALL, "r3"))
        assert agg.series("vc_stall", "r3") == [3.0, 0.0, 1.0]

    def test_buffer_occ_mean_per_window(self):
        agg = WindowedAggregator(window_cycles=8)
        agg.on_event(TraceEvent(0, BUFFER_SAMPLE, "sim",
                                args={"occupancy": {"r0": 2, "r1": 6}}))
        agg.on_event(TraceEvent(4, BUFFER_SAMPLE, "sim",
                                args={"occupancy": {"r0": 4}}))
        assert agg.series("buffer_occ", "r0", mean=True) == [3.0]
        assert agg.series("buffer_occ", "r1", mean=True) == [6.0]

    def test_unknown_event_types_ignored(self):
        agg = WindowedAggregator()
        agg.on_event(TraceEvent(1, "packet_done", "sim"))
        assert agg.kinds() == []
        assert agg.events_seen == 1

    def test_matrix_dense_and_ordered(self):
        agg = WindowedAggregator(window_cycles=10)
        agg.on_event(TraceEvent(25, FLIT_SEND, "b", dur=1))
        agg.on_event(TraceEvent(3, FLIT_SEND, "a", dur=2))
        names, rows = agg.matrix("link_busy")
        assert names == ["a", "b"]
        assert rows == [[2.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert agg.n_windows() == 3


class TestSnapshot:
    def test_empty_aggregator_snapshot(self):
        snap = WindowedAggregator(window_cycles=32).snapshot()
        assert snap == {
            "window_cycles": 32,
            "n_windows": 0,
            "events": 0,
            "kinds": {},
        }

    def test_only_unknown_events_keeps_kinds_empty(self):
        agg = WindowedAggregator()
        agg.on_event(TraceEvent(10, "packet_done", "sim"))
        snap = agg.snapshot()
        assert snap["events"] == 1
        assert snap["kinds"] == {} and snap["n_windows"] == 0

    def test_partial_final_window_counted(self):
        agg = WindowedAggregator(window_cycles=10)
        agg.on_event(TraceEvent(0, FLIT_SEND, "a", dur=2))
        agg.on_event(TraceEvent(23, FLIT_SEND, "a", dur=3))  # window 2, 4/10 full
        snap = agg.snapshot()
        assert snap["n_windows"] == 3  # the partial third window counts
        busy = snap["kinds"]["link_busy"]
        assert busy == {
            "components": 1,
            "total": 5.0,
            "samples": 2,
            "peak_component": "a",
            "peak_total": 5.0,
        }

    def test_peak_component_and_tie_break(self):
        agg = WindowedAggregator(window_cycles=10)
        agg.on_event(TraceEvent(1, FLIT_SEND, "b", dur=4))
        agg.on_event(TraceEvent(2, FLIT_SEND, "a", dur=4))  # tie -> "a" wins
        assert agg.snapshot()["kinds"]["link_busy"]["peak_component"] == "a"
        agg.on_event(TraceEvent(3, FLIT_SEND, "b", dur=1))
        assert agg.snapshot()["kinds"]["link_busy"]["peak_component"] == "b"

    def test_midrun_snapshot_matches_posthoc_aggregation(self):
        """Streaming invariant: a snapshot over the first N events equals
        a fresh aggregator fed those same N events after the fact."""
        events = [
            TraceEvent(c, FLIT_SEND, f"l{c % 3}", dur=1 + c % 4)
            for c in range(0, 200, 7)
        ] + [
            TraceEvent(c, VC_STALL, "r1") for c in range(0, 100, 13)
        ]
        live = WindowedAggregator(window_cycles=16)
        for i, ev in enumerate(events):
            live.on_event(ev)
            if i == len(events) // 2:
                posthoc = WindowedAggregator(window_cycles=16)
                for past in events[: i + 1]:
                    posthoc.on_event(past)
                assert live.snapshot() == posthoc.snapshot()
        posthoc = WindowedAggregator(window_cycles=16)
        for ev in events:
            posthoc.on_event(ev)
        assert live.snapshot() == posthoc.snapshot()

    def test_snapshot_is_strict_json(self):
        import json

        agg = WindowedAggregator(window_cycles=8)
        agg.on_event(TraceEvent(0, BUFFER_SAMPLE, "sim",
                                args={"occupancy": {"r0": 2}}))
        json.dumps(agg.snapshot(), allow_nan=False)


class TestWindowedAggregatorIntegration:
    def test_streams_a_real_run(self):
        agg = WindowedAggregator(window_cycles=32)
        tracer = Tracer(record_events=False, sample_every=16, sinks=[agg])
        sim = run_cmesh(tracer)
        kinds = agg.kinds()
        assert set(kinds) <= set(WINDOW_KINDS)
        assert "link_busy" in kinds and "buffer_occ" in kinds
        # Busy cycles are non-negative; pipelined multi-cycle flits may
        # overlap, so sums can exceed the window width (the heatmap layer
        # clamps the occupancy fraction).
        for comp in agg.components("link_busy"):
            assert all(v >= 0 for v in agg.series("link_busy", comp))
        assert agg.last_cycle <= sim.now
