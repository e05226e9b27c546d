"""Virtual-channel buffer and input-port behaviour."""

import pytest

from repro.noc.buffers import InputPort, VCState, VirtualChannel
from repro.noc.packet import Packet


def flits(n=4):
    """The ``n`` flits of one packet, as a buffer holds them: one reference
    to the packet each."""
    return [Packet(0, 1, n, 0)] * n


class TestVirtualChannel:
    def test_initial_state(self):
        vc = VirtualChannel(2, 4)
        assert vc.state is VCState.IDLE
        assert not vc.occupied
        assert vc.free_slots == 4

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            VirtualChannel(0, 0)

    def test_fifo_order(self):
        vc = VirtualChannel(0, 4)
        a, b = Packet(0, 1, 3, 0, pid=0), Packet(0, 1, 1, 0, pid=1)
        for p in (a, a, a, b):
            vc.push(p)
        assert vc.front() == (a, 0)
        # The front counter walks the front packet head to tail, then
        # resets for the next packet's head.
        assert [vc.pop() for _ in range(2)] == [(a, 0), (a, 1)]
        assert vc.front() == (a, 2) and vc.sent == 2
        assert [vc.pop() for _ in range(2)] == [(a, 2), (b, 0)]
        assert vc.sent == 0 and not vc.occupied

    def test_overflow_is_a_hard_error(self):
        vc = VirtualChannel(0, 2)
        fs = flits(3)
        vc.push(fs[0])
        vc.push(fs[1])
        with pytest.raises(RuntimeError, match="overflow"):
            vc.push(fs[2])

    def test_release_resets_route_state(self):
        vc = VirtualChannel(0, 4)
        vc.state = VCState.ACTIVE
        vc.out_port = 3
        vc.out_vc = 1
        vc.sent = 2
        vc.release()
        assert vc.state is VCState.IDLE
        assert vc.out_port is None and vc.out_vc is None and vc.endpoint is None
        assert vc.sent == 0

    def test_free_slots_tracks_occupancy(self):
        vc = VirtualChannel(0, 4)
        fs = flits(2)
        vc.push(fs[0])
        assert vc.free_slots == 3
        vc.push(fs[1])
        assert vc.free_slots == 2
        vc.pop()
        assert vc.free_slots == 3


class TestInputPort:
    def test_geometry(self):
        port = InputPort(1, num_vcs=4, vc_depth=8, kind="photonic")
        assert port.num_vcs == 4
        assert all(vc.depth == 8 for vc in port.vcs)
        assert port.kind == "photonic"

    def test_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            InputPort(0, num_vcs=0, vc_depth=4)

    def test_occupied_vcs(self):
        port = InputPort(0, num_vcs=3, vc_depth=4)
        assert port.occupied_vcs() == []
        port.vcs[1].push(flits(1)[0])
        occ = port.occupied_vcs()
        assert len(occ) == 1 and occ[0].index == 1

    def test_total_occupancy(self):
        port = InputPort(0, num_vcs=2, vc_depth=4)
        fs = flits(3)
        port.vcs[0].push(fs[0])
        port.vcs[0].push(fs[1])
        port.vcs[1].push(fs[2])
        assert port.total_occupancy() == 3
