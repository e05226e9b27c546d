"""Integration: per-channel-class telemetry on a traced OWN-256 run.

These tests lock the paper-facing claims the telemetry subsystem exists to
measure: under uniform-random load every one of the 16-per-cluster MWSR
home waveguides sees token contention, and the wireless channel plan's
three distance classes (C2C/E2E/SR) all carry traffic.
"""

import pytest

from repro.core.own256 import build_own256
from repro.noc import Simulator
from repro.telemetry import TOKEN_GRANT, WIRELESS_CLASSES, Tracer
from repro.traffic import SyntheticTraffic


@pytest.fixture(scope="module")
def traced_own():
    built = build_own256()
    tracer = Tracer()
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(
            built.n_cores, "UN", 0.05, 4, seed=7, stop_cycle=400
        ),
        warmup_cycles=100,
        tracer=tracer,
    )
    sim.run(400)
    assert sim.drain()
    tracer.finalize(sim)
    return built, sim, tracer


class TestHomeWaveguideTokenWait:
    def test_all_home_waveguides_see_token_wait(self, traced_own):
        built, _, tracer = traced_own
        media = [m for m in built.network.mediums if m.kind == "photonic"]
        assert len(media) == 64  # 4 clusters x 16 home waveguides
        waits = tracer.metrics.counters("token_wait_cycles")
        grants = tracer.metrics.counters("token_grants")
        for medium in media:
            assert grants.get(medium.name, 0) > 0, medium.name
            assert waits.get(medium.name, 0) > 0, medium.name

    def test_token_grant_events_name_waveguides(self, traced_own):
        built, _, tracer = traced_own
        granted = {
            ev.component for ev in tracer.events if ev.etype == TOKEN_GRANT
        }
        photonic = {m.name for m in built.network.mediums if m.kind == "photonic"}
        assert photonic <= granted

    def test_token_wait_histogram_reflects_arb_latency(self, traced_own):
        _, _, tracer = traced_own
        hist = tracer.metrics.histogram("token_wait", "photonic")
        assert hist.count > 0
        # Every grant costs at least the token flight (arb_latency >= 1).
        assert hist.min >= 1


class TestWirelessChannelClasses:
    def test_occupancy_splits_across_all_classes(self, traced_own):
        _, _, tracer = traced_own
        flat = tracer.metrics.as_flat_dict()
        for cls in WIRELESS_CLASSES:
            occ = flat.get(f"wireless_occupancy[{cls}]")
            assert occ is not None, f"no occupancy for {cls}"
            assert 0.0 < occ <= 1.0, (cls, occ)

    def test_busy_cycles_and_flits_per_class(self, traced_own):
        _, sim, tracer = traced_own
        busy = tracer.metrics.counters("wireless_busy_cycles")
        flits = tracer.metrics.counters("wireless_flits")
        assert set(busy) == set(WIRELESS_CLASSES)
        for cls in WIRELESS_CLASSES:
            assert 0 < busy[cls] <= sim.now * 4  # 4 channels per class
            assert flits[cls] > 0

    def test_per_channel_busy_consistent_with_class_totals(self, traced_own):
        built, _, tracer = traced_own
        per_channel = tracer.metrics.counters("channel_busy_cycles")
        per_class = tracer.metrics.counters("wireless_busy_cycles")
        assert sum(per_channel.values()) == sum(per_class.values())
        # Each distance class has 4 channels in the OWN-256 plan (Table I).
        from repro.telemetry import link_class, own_channel_classes

        classes = own_channel_classes(built.n_cores)
        by_class = {}
        for link in built.network.links:
            if link.name in per_channel:
                by_class.setdefault(link_class(link, classes), []).append(link.name)
        for cls in WIRELESS_CLASSES:
            assert per_class[cls] == sum(per_channel[n] for n in by_class[cls])

    def test_packet_breakdown_histograms_present_per_class(self, traced_own):
        _, _, tracer = traced_own
        for cls in WIRELESS_CLASSES:
            hist = tracer.metrics.histogram("pkt_total", cls)
            assert hist.count > 0, cls
            token = tracer.metrics.histogram("pkt_token_wait", cls)
            assert token.count == hist.count
            # MWSR token arbitration must show up in wireless-class packets
            # (first hop is always a photonic home waveguide).
            assert token.total > 0, cls


class TestRunRecordsCarryMetrics:
    def test_executor_record_has_class_metrics(self, tmp_path):
        import json

        from repro.runtime import Executor, RunSpec

        log = tmp_path / "run.jsonl"
        ex = Executor(runlog=str(log), telemetry=True)
        result = ex.run_one(
            RunSpec.create("own256", rate=0.05, cycles=300, warmup=100, seed=7)
        )
        record = json.loads(log.read_text().splitlines()[-1])
        assert record["metrics"] == result.metrics
        for cls in WIRELESS_CLASSES:
            assert record["metrics"][f"wireless_occupancy[{cls}]"] > 0
            assert record["metrics"][f"pkt_token_wait[{cls}].count"] > 0
        waits = {
            k: v
            for k, v in record["metrics"].items()
            if k.startswith("token_wait_cycles[")
        }
        assert len(waits) == 64
        assert all(v > 0 for v in waits.values())
