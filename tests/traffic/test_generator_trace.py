"""Open-loop generator statistics and trace record/replay round-trips."""

import numpy as np
import pytest

from repro.traffic import ScriptedTraffic, SyntheticTraffic, TraceTraffic, TrafficTrace


class TestSyntheticTraffic:
    def test_offered_load_statistics(self):
        """Mean generated flit rate matches the configured injection rate."""
        rate, size, cores, cycles = 0.2, 4, 64, 4000
        traffic = SyntheticTraffic(cores, "UN", rate, size, seed=3)
        flits = sum(
            sum(p.size_flits for p in traffic.tick(t)) for t in range(cycles)
        )
        measured = flits / (cores * cycles)
        # Self-draws are filtered, so allow a small downward bias.
        assert measured == pytest.approx(rate, rel=0.08)

    def test_zero_rate_generates_nothing(self):
        traffic = SyntheticTraffic(64, "UN", 0.0, 4, seed=1)
        assert all(traffic.tick(t) == [] for t in range(100))

    def test_stop_cycle(self):
        traffic = SyntheticTraffic(64, "UN", 0.5, 4, seed=1, stop_cycle=10)
        for t in range(10):
            traffic.tick(t)
        assert traffic.tick(10) == []
        assert traffic.tick(500) == []

    def test_determinism(self):
        def draws(seed):
            tr = SyntheticTraffic(64, "UN", 0.3, 4, seed=seed)
            return [(p.src_core, p.dst_core) for t in range(50) for p in tr.tick(t)]

        assert draws(9) == draws(9)
        assert draws(9) != draws(10)

    def test_permutation_respects_pattern(self):
        from repro.traffic.patterns import bit_reversal

        traffic = SyntheticTraffic(64, "BR", 0.5, 4, seed=2)
        for t in range(50):
            for p in traffic.tick(t):
                assert p.dst_core == bit_reversal(p.src_core, 64)

    def test_no_self_addressed_packets(self):
        traffic = SyntheticTraffic(64, "UN", 0.5, 4, seed=2)
        for t in range(100):
            for p in traffic.tick(t):
                assert p.src_core != p.dst_core

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraffic(64, "UN", 1.5, 4)
        with pytest.raises(ValueError):
            SyntheticTraffic(64, "UN", 0.1, 0)


class TestScriptedTraffic:
    def test_exact_schedule(self):
        tr = ScriptedTraffic([(5, 0, 1, 4), (5, 2, 3, 2), (9, 1, 0, 1)])
        assert tr.tick(0) == []
        five = tr.tick(5)
        assert [(p.src_core, p.dst_core, p.size_flits) for p in five] == [
            (0, 1, 4), (2, 3, 2)
        ]
        assert len(tr.tick(9)) == 1
        assert tr.exhausted


class TestTrace:
    def test_record_replay_identical(self):
        source = SyntheticTraffic(64, "UN", 0.2, 4, seed=5)
        trace = TrafficTrace.record(source, cycles=200)
        assert len(trace) > 0

        replay = trace.replayer()
        packets = [(t, p.src_core, p.dst_core, p.size_flits)
                   for t in range(200) for p in replay.tick(t)]
        assert len(packets) == len(trace)
        assert replay.exhausted
        # Replay matches the recorded arrays exactly.
        assert [p[0] for p in packets] == trace.cycles.tolist()
        assert [p[1] for p in packets] == trace.srcs.tolist()

    def test_save_load_roundtrip(self, tmp_path):
        source = SyntheticTraffic(64, "BR", 0.2, 4, seed=5)
        trace = TrafficTrace.record(source, cycles=100)
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = TrafficTrace.load(path)
        assert np.array_equal(loaded.cycles, trace.cycles)
        assert np.array_equal(loaded.srcs, trace.srcs)
        assert np.array_equal(loaded.dsts, trace.dsts)
        assert np.array_equal(loaded.sizes, trace.sizes)

    def test_trace_sorted_by_cycle(self):
        trace = TrafficTrace(
            np.array([5, 1, 3]), np.array([0, 1, 2]),
            np.array([1, 2, 3]), np.array([4, 4, 4]),
        )
        assert trace.cycles.tolist() == [1, 3, 5]
        assert trace.srcs.tolist() == [1, 2, 0]

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ValueError):
            TrafficTrace(np.array([1]), np.array([0, 1]), np.array([1]), np.array([4]))

    def test_trace_drives_simulator(self):
        from repro.noc import Simulator
        from repro.topologies import build_cmesh

        source = SyntheticTraffic(64, "UN", 0.05, 4, seed=5, stop_cycle=150)
        trace = TrafficTrace.record(source, cycles=150)

        built = build_cmesh(64)
        sim = Simulator(built.network, traffic=trace.replayer())
        sim.run(150)
        assert sim.drain()
        assert sim.stats.packets_ejected == len(trace)
