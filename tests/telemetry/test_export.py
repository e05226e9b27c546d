"""Chrome trace_event export: structure, strict JSON, file round-trip."""

import json

import pytest

from repro.noc import Simulator
from repro.telemetry import (
    FLIT_SEND,
    SPAN_EVENTS,
    Tracer,
    chrome_trace,
    write_chrome_trace,
)
from repro.topologies import build_cmesh
from repro.traffic import SyntheticTraffic


@pytest.fixture(scope="module")
def traced():
    built = build_cmesh(64)
    tracer = Tracer()
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=3, stop_cycle=200),
        tracer=tracer,
    )
    sim.run(200)
    sim.drain()
    return tracer


class TestChromeTrace:
    def test_top_level_shape(self, traced):
        doc = chrome_trace(traced)
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        assert doc["metadata"]["events_dropped"] == 0

    def test_metadata_names_processes_and_threads(self, traced):
        doc = chrome_trace(traced)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert "process_name" in names
        assert "thread_name" in names
        # Thread ids are unique per component track.
        tids = [e["tid"] for e in meta if e["name"] == "thread_name"]
        assert len(tids) == len(set(tids))

    def test_span_vs_instant_phases(self, traced):
        doc = chrome_trace(traced)
        for e in doc["traceEvents"]:
            if e["ph"] == "M":
                continue
            if e["name"] in SPAN_EVENTS:
                assert e["ph"] == "X"
                assert e["dur"] >= 1
            else:
                assert e["ph"] == "i"
                assert e["s"] == "t"

    def test_flit_send_exported_as_duration(self, traced):
        doc = chrome_trace(traced)
        spans = [e for e in doc["traceEvents"] if e["name"] == FLIT_SEND]
        n_sends = sum(1 for ev in traced.events if ev.etype == FLIT_SEND)
        assert len(spans) == n_sends > 0
        assert all("pid" in e["args"] for e in spans)

    def test_timestamps_numeric_and_sorted_per_event_order(self, traced):
        doc = chrome_trace(traced)
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert all(isinstance(t, int) for t in ts)
        assert ts == sorted(ts)

    def test_write_round_trip_strict_json(self, traced, tmp_path):
        path = write_chrome_trace(traced, tmp_path / "sub" / "trace.json")
        assert path.exists()
        data = json.loads(path.read_text(), parse_constant=lambda _: 1 / 0)
        assert len(data["traceEvents"]) == len(chrome_trace(traced)["traceEvents"])

    def test_empty_tracer_exports_valid_doc(self):
        doc = chrome_trace(Tracer())
        assert [e["name"] for e in doc["traceEvents"]] == ["process_name"]
        json.dumps(doc, allow_nan=False)
