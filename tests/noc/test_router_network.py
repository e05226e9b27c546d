"""Router pipeline and Network construction unit tests."""

import pytest

from repro.noc import (
    Network,
    Packet,
    RoutingFunction,
    SharedMedium,
    Simulator,
    VCState,
)
from repro.traffic import ScriptedTraffic


class DirectRouting(RoutingFunction):
    """Eject locally, else forward on the single inter-router port."""

    def __init__(self, net, fwd):
        self.net = net
        self.fwd = fwd

    def compute(self, router, packet):
        dst = self.net.core_router[packet.dst_core]
        if dst == router.rid:
            return self.net.core_eject_port[packet.dst_core]
        return self.fwd[router.rid]


def two_router_net(num_vcs=2, vc_depth=4):
    net = Network("t", n_cores=2, num_vcs=num_vcs, vc_depth=vc_depth)
    net.add_router()
    net.add_router()
    net.attach_core(0, 0)
    net.attach_core(1, 1)
    p01, _ = net.connect(0, 1)
    p10, _ = net.connect(1, 0)
    net.set_routing(DirectRouting(net, {0: p01, 1: p10}))
    net.finalize()
    return net


class TestNetworkConstruction:
    def test_core_attachment_maps(self):
        net = two_router_net()
        assert net.core_router == [0, 1]
        assert all(p is not None for p in net.core_eject_port)
        assert all(ni is not None for ni in net.interfaces)

    def test_double_attach_rejected(self):
        net = Network("t", n_cores=2)
        net.add_router()
        net.attach_core(0, 0)
        with pytest.raises(ValueError, match="already attached"):
            net.attach_core(0, 0)

    def test_finalize_requires_all_cores(self):
        net = Network("t", n_cores=2)
        net.add_router()
        net.attach_core(0, 0)
        with pytest.raises(ValueError, match="core 1"):
            net.finalize()

    def test_finalize_requires_routing(self):
        net = Network("t", n_cores=2)
        net.add_router()
        net.attach_core(0, 0)
        net.attach_core(1, 0)
        with pytest.raises(ValueError, match="routing"):
            net.finalize()

    def test_tiny_network_rejected(self):
        with pytest.raises(ValueError):
            Network("t", n_cores=1)

    def test_radix_histogram(self):
        net = two_router_net()
        hist = net.radix_histogram()
        assert sum(hist.values()) == 2

    def test_links_by_kind(self):
        net = two_router_net()
        # 2 eject links + 2 inter-router links, all electrical.
        assert len(net.links_by_kind("electrical")) == 4
        assert net.links_by_kind("wireless") == []

    def test_connect_bus_multicast_degree_check(self):
        net = Network("t", n_cores=2)
        net.add_router()
        net.add_router()
        medium = SharedMedium("m", kind="wireless", multicast_degree=3)
        with pytest.raises(ValueError, match="multicast_degree"):
            net.connect_multicast(
                [0], [1], resolver=lambda p: 0, reader_keys=[0],
                kind="wireless", medium=medium,
            )

    def test_connect_bus_requires_writers(self):
        net = Network("t", n_cores=2)
        net.add_router()
        medium = SharedMedium("m", kind="photonic")
        with pytest.raises(ValueError, match="writer"):
            net.connect_bus([], 0, "photonic", medium)

    def test_euclid_link_length(self):
        net = Network("t", n_cores=2)
        net.add_router(position_mm=(0.0, 0.0))
        net.add_router(position_mm=(3.0, 4.0))
        net.attach_core(0, 0)
        net.attach_core(1, 1)
        net.connect(0, 1)
        link = [l for l in net.links if not l.name.startswith("eject")][0]
        assert link.length_mm == pytest.approx(5.0)


class TestRouterPipeline:
    def test_rc_then_vca_then_active(self):
        net = two_router_net()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 1, 2)]))
        # After injection (cycle 0) the head sits in an IDLE VC; RC runs the
        # same cycle; VCA the next; ACTIVE after that.
        sim.step()  # cycle 0: inject (after RC phase -> still raw)
        sim.step()  # cycle 1: RC marks WAITING_VC -> VCA may run next
        router = net.routers[0]
        states = {vc.state for port in router.input_ports for vc in port.vcs if vc.queue}
        assert states <= {VCState.WAITING_VC, VCState.ACTIVE}
        sim.run(30)
        assert sim.stats.packets_ejected == 1

    def test_paper_radix_attr_used(self):
        net = Network("t", n_cores=2)
        r = net.add_router(attrs={"paper_radix": 42})
        assert r.attrs["paper_radix"] == 42

    def test_event_counters_progress(self):
        net = two_router_net()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 1, 4)]))
        sim.run(40)
        r0 = net.routers[0]
        assert r0.buffer_writes == 4  # 4 flits injected
        assert r0.buffer_reads == 4
        assert r0.xbar_traversals == 4
        assert r0.sa_grants == 4
        assert r0.vca_grants == 1  # one packet, one allocation

    def test_missing_output_link_rejected_at_finalize(self):
        net = Network("t", n_cores=2)
        r = net.add_router()
        net.attach_core(0, 0)
        net.attach_core(1, 0)
        r.add_output_port()  # dangling port

        class Dummy(RoutingFunction):
            def compute(self, router, packet):
                return 0

        net.set_routing(Dummy())
        with pytest.raises(ValueError, match="no link"):
            net.finalize()


class TestNetworkInterface:
    def test_backlog_drains(self):
        net = two_router_net()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 1, 4), (0, 0, 1, 4)]))
        sim.step()
        ni = net.interfaces[0]
        assert ni.backlog > 0
        sim.run(60)
        assert ni.backlog == 0
        assert ni.flits_injected == 8

    def test_backlog_counts_flits_not_packets(self):
        # The queue holds packets; the front one's pumped flits are gone.
        # One flit leaves per cycle, mid-packet too: the front packet stays
        # queued until its tail is pumped, and ``sent`` counts its flits
        # already gone.
        net = two_router_net()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 1, 4), (0, 0, 1, 3)]))
        ni = net.interfaces[0]
        for backlog, sent, queued in [
            (6, 1, 2), (5, 2, 2), (4, 3, 2), (3, 0, 1), (2, 1, 1), (1, 2, 1), (0, 0, 0),
        ]:
            sim.step()
            assert (ni.backlog, ni.sent, len(ni.queue)) == (backlog, sent, queued)
            assert (ni.current_vc is None) == (sent == 0)

    def test_packets_inject_in_fifo_order_across_a_mixed_backlog(self):
        # The queue is a list that loses its front packet with the tail:
        # packets of mixed sizes leave in arrival order, back to back.
        net = two_router_net(vc_depth=4)
        sizes = [4, 1, 3, 2, 4, 1]
        packets = [Packet(0, 1, size, 0, pid=pid) for pid, size in enumerate(sizes)]
        for packet in packets:
            net.inject_packet(packet)
        sim = Simulator(net)
        assert sim.drain(200)
        starts = [packet.t_inject for packet in packets]
        assert starts == sorted(starts)
        for before, after in zip(packets, packets[1:]):
            assert after.t_inject >= before.t_inject + before.size_flits
        assert sim.stats.packets_ejected == len(sizes)

    def test_link_layer_reentry_mid_injection_lands_at_the_back(self):
        net = two_router_net(vc_depth=4)
        ni = net.interfaces[0]
        first, second, again = (Packet(0, 1, 4, 0, pid=pid) for pid in range(3))
        net.inject_packet(first)
        net.inject_packet(second)
        sim = Simulator(net)
        sim.step()
        assert ni.sent == 1 and ni.queue[0] is first
        # A packet the link layer gives up on re-enters through the same
        # call as new traffic, while ``first`` is still being pumped.
        ni.enqueue_packet(again)
        assert ni.queue == [first, second, again] and ni.sent == 1
        assert sim.drain(200)
        assert first.t_inject < second.t_inject < again.t_inject

    def test_drain_is_true_only_once_every_ni_queue_is_empty(self):
        net = two_router_net(vc_depth=4)
        for pid in range(3):
            net.inject_packet(Packet(0, 1, 4, 0, pid=pid))
        net.inject_packet(Packet(1, 0, 2, 0, pid=3))
        sim = Simulator(net)
        refused_with_backlog = 0
        while not sim.drain(1):
            refused_with_backlog += any(ni.queue for ni in net.interfaces)
            assert sim.now < 200
        assert refused_with_backlog >= 10
        assert not any(ni.queue for ni in net.interfaces)
        assert sim.stats.packets_ejected == 4

    def test_swmr_resolver_with_unknown_key_raises(self):
        net = Network("t", n_cores=2, num_vcs=2, vc_depth=4)
        net.add_router()
        net.add_router()
        medium = SharedMedium("m", kind="wireless", multicast_degree=1)
        ports = net.connect_multicast(
            [0], [1], resolver=lambda p: p.dst_core, reader_keys=[0],
            kind="wireless", medium=medium,
        )  # fmt: skip
        link = net.routers[0].out_links[ports[0]]
        assert link.resolve_endpoint(Packet(1, 0, 1, 0)) is net.routers[1].input_endpoints[0]
        with pytest.raises(RuntimeError, match="resolver produced unknown endpoint key 1"):
            link.resolve_endpoint(Packet(0, 1, 1, 0))

    @pytest.mark.parametrize("src, dst", [(-1, 5), (3, -2), (256, 5), (3, 256)])
    def test_rejects_core_ids_outside_the_network(self, src, dst):
        # A negative id used to index a core from the end of the list
        # (-1 -> core 255 on CMESH-256) and deliver there.
        from repro.topologies import build_cmesh

        net = build_cmesh(256).network
        bad = src if not 0 <= src < 256 else dst
        with pytest.raises(ValueError, match=rf"{bad}.*\[0, 256\)"):
            net.inject_packet(Packet(src, dst, 4, 0))
        assert not any(ni.queue for ni in net.interfaces)

    def test_one_flit_per_cycle(self):
        net = two_router_net()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 1, 4)]))
        sim.step()
        assert net.interfaces[0].flits_injected == 1
        sim.step()
        assert net.interfaces[0].flits_injected == 2

    def test_vct_admission_at_injection(self):
        # vc_depth 4 with 4-flit packets: the NI may only start a packet
        # into a VC with all 4 credits free.
        net = two_router_net(num_vcs=1, vc_depth=4)
        sched = [(0, 0, 1, 4), (0, 0, 1, 4)]
        sim = Simulator(net, traffic=ScriptedTraffic(sched))
        sim.run(100)
        assert sim.stats.packets_ejected == 2
