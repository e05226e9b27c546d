"""Virtual-channel buffer and input-port behaviour.

A flit enters a VC only through ``Router.deliver_flit`` and leaves it only
through ``Router._transmit``; the buffer tests drive those two.
"""

import pytest

from repro.noc import Network, RoutingFunction, Simulator
from repro.noc.buffers import InputPort, VCState, VirtualChannel
from repro.noc.packet import Packet


def one_router(depth=4):
    """A router with cores 0 and 1 attached, bound to a simulator: flits
    enter core 0's input port as the NI delivers them and leave toward
    core 1's ejection sink."""
    net = Network("one", n_cores=2, num_vcs=2, vc_depth=depth)
    router = net.add_router()
    net.attach_core(0, 0)
    net.attach_core(1, 0)
    net.set_routing(RoutingFunction())
    return Simulator(net), router


def push(router, packet, vc=0):
    router.deliver_flit(0, vc, packet)


def pop(sim, router, vc=0):
    """Send the front flit of input VC ``vc`` on; return it as
    ``(packet, position)``."""
    v = router.input_ports[0].vcs[vc]
    if v.state is not VCState.ACTIVE:
        # A head at the front: route and allocate it, as RC and VCA would.
        v.state = VCState.ACTIVE
        v.out_port = sim.network.core_eject_port[1]
        v.endpoint = router.out_links[v.out_port].resolve_endpoint(v.queue[0])
        v.out_vc = 0
    flit = v.queue[0], v.sent
    router._transmit(sim.now, v, sim)
    return flit


def flits(n=4):
    """The ``n`` flits of one packet, as a buffer holds them: one reference
    to the packet each."""
    return [Packet(0, 1, n, 0)] * n


class TestVirtualChannel:
    def test_initial_state(self):
        vc = VirtualChannel(2, 4)
        assert vc.state is VCState.IDLE
        assert vc.queue == [] and vc.depth == 4 and vc.sent == 0

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            VirtualChannel(0, 0)

    def test_fifo_order(self):
        sim, router = one_router()
        vc = router.input_ports[0].vcs[0]
        a, b = Packet(0, 1, 3, 0, pid=0), Packet(0, 1, 1, 0, pid=1)
        for p in (a, a, a, b):
            push(router, p)
        assert (vc.queue[0], vc.sent) == (a, 0)
        # The front counter walks the front packet head to tail, then
        # resets for the next packet's head.
        assert [pop(sim, router) for _ in range(2)] == [(a, 0), (a, 1)]
        assert vc.queue[0] is a and vc.sent == 2
        assert [pop(sim, router) for _ in range(2)] == [(a, 2), (b, 0)]
        assert vc.sent == 0 and not vc.queue and vc.state is VCState.IDLE
        assert router.buffer_writes == router.buffer_reads == 4

    def test_overflow_is_a_hard_error(self):
        sim, router = one_router(depth=2)
        fs = flits(3)
        push(router, fs[0])
        push(router, fs[1])
        with pytest.raises(RuntimeError, match="overflow"):
            push(router, fs[2])
        assert len(router.input_ports[0].vcs[0].queue) == 2

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


class TestInputPort:
    def test_geometry(self):
        port = InputPort(1, num_vcs=4, vc_depth=8, kind="photonic")
        assert port.num_vcs == 4
        assert all(vc.depth == 8 for vc in port.vcs)
        assert port.kind == "photonic"

    def test_rejects_zero_vcs(self):
        with pytest.raises(ValueError):
            InputPort(0, num_vcs=0, vc_depth=4)

    def test_total_occupancy(self):
        sim, router = one_router()
        fs = flits(3)
        push(router, fs[0], vc=0)
        push(router, fs[1], vc=0)
        push(router, fs[2], vc=1)
        assert router.input_ports[0].total_occupancy() == 3
        pop(sim, router, vc=1)
        assert router.input_ports[0].total_occupancy() == router.occupancy() == 2
