"""Packet / flit segmentation invariants.

A flit is its packet plus its position: a buffer holds one reference to the
packet per flit and counts the front packet's flits already gone, so
segmentation is what passing a packet through a buffer yields.
"""

import pytest
from hypothesis import given, strategies as st

from repro.noc import Simulator
from repro.noc.packet import Packet
from repro.topologies import build_cmesh
from repro.traffic import ScriptedTraffic
from tests.noc.test_buffers import one_router, pop, push


def segment(*packets):
    """(packet, position) of every flit, streamed through one router VC in
    order (in by ``Router.deliver_flit``, out by ``Router._transmit``)."""
    sim, router = one_router(depth=sum(p.size_flits for p in packets))
    vc = router.input_ports[0].vcs[0]
    for p in packets:
        for _ in range(p.size_flits):
            push(router, p)
    out = [pop(sim, router) for _ in range(len(vc.queue))]
    assert vc.sent == 0  # the last tail reset the front counter
    return out


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

    def test_single_flit_packet(self):
        # Head and tail at once: position 0 is also size_flits - 1.
        p = Packet(0, 1, 1, 0)
        assert segment(p) == [(p, 0)]

    def test_two_flit_packet(self):
        p = Packet(0, 1, 2, 0)
        assert segment(p) == [(p, 0), (p, 1)]

    @given(st.lists(st.integers(min_value=1, max_value=16), min_size=1, max_size=4))
    def test_segmentation_invariants(self, sizes):
        packets = [Packet(0, 1, n, 0, pid=i) for i, n in enumerate(sizes)]
        flits = segment(*packets)
        assert len(flits) == sum(sizes)
        # Per packet: positions dense and ordered from the head (0) to the
        # tail (size_flits - 1), one head and one tail, in arrival order.
        expected = [(p, seq) for p in packets for seq in range(p.size_flits)]
        assert flits == expected

    def test_hop_counters_start_zero(self):
        p = Packet(0, 1, 4, 0)
        assert (p.hops, p.wireless_hops, p.photonic_hops, p.electrical_hops) == (0, 0, 0, 0)
