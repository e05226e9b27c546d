"""Packet / flit segmentation invariants."""

import pytest
from hypothesis import given, strategies as st

from repro.noc import Simulator
from repro.noc.packet import Flit, FlitKind, Packet
from repro.topologies import build_cmesh
from repro.traffic import ScriptedTraffic


class TestFlitKind:
    def test_head_flags(self):
        assert FlitKind.HEAD.is_head and not FlitKind.HEAD.is_tail
        assert FlitKind.TAIL.is_tail and not FlitKind.TAIL.is_head
        assert FlitKind.HEAD_TAIL.is_head and FlitKind.HEAD_TAIL.is_tail
        assert not FlitKind.BODY.is_head and not FlitKind.BODY.is_tail


class TestPacket:
    def test_ids_monotone(self):
        # Born unnumbered; the simulator that accepts them from
        # ``traffic.tick`` counts 0, 1, 2, ... in tick order.
        assert Packet(0, 1, 4, 0).pid is None
        assert Packet(0, 1, 4, 0, pid=7).pid == 7
        born = []

        class Recording(ScriptedTraffic):
            def tick(self, now):
                packets = super().tick(now)
                born.extend(packets)
                return packets

        schedule = [(0, 0, 1, 4), (0, 2, 3, 1), (2, 1, 0, 2)]
        Simulator(build_cmesh(64).network, traffic=Recording(schedule)).run(5)
        assert [p.pid for p in born] == [0, 1, 2]

    def test_rejects_self_addressed(self):
        with pytest.raises(ValueError):
            Packet(3, 3, 4, 0)

    def test_rejects_empty_packet(self):
        with pytest.raises(ValueError):
            Packet(0, 1, 0, 0)

    def test_latency_requires_ejection(self):
        p = Packet(0, 1, 4, 10)
        with pytest.raises(RuntimeError):
            _ = p.latency
        p.t_eject = 35
        assert p.latency == 25

    def test_single_flit_packet(self):
        flits = Packet(0, 1, 1, 0).make_flits()
        assert len(flits) == 1
        assert flits[0].kind is FlitKind.HEAD_TAIL

    def test_two_flit_packet(self):
        flits = Packet(0, 1, 2, 0).make_flits()
        assert [f.kind for f in flits] == [FlitKind.HEAD, FlitKind.TAIL]

    @given(st.integers(min_value=1, max_value=64))
    def test_segmentation_invariants(self, size):
        p = Packet(0, 1, size, 0)
        flits = p.make_flits()
        assert len(flits) == size
        assert flits[0].is_head
        assert flits[-1].is_tail
        # Exactly one head and one tail among all flits.
        assert sum(1 for f in flits if f.is_head) == 1
        assert sum(1 for f in flits if f.is_tail) == 1
        # Sequence numbers dense and ordered; all share the parent.
        assert [f.seq for f in flits] == list(range(size))
        assert all(f.packet is p for f in flits)

    def test_iter_flits_matches_make_flits(self):
        p = Packet(0, 1, 5, 0)
        assert [f.kind for f in p.iter_flits()] == [f.kind for f in p.make_flits()]

    def test_hop_counters_start_zero(self):
        p = Packet(0, 1, 4, 0)
        assert (p.hops, p.wireless_hops, p.photonic_hops, p.electrical_hops) == (0, 0, 0, 0)
