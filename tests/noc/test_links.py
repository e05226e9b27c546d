"""Endpoint, Link and SharedMedium unit behaviour."""

import pytest

from repro.noc import Network, RoutingFunction, Simulator
from repro.noc.links import Endpoint, Link, SharedMedium
from repro.noc.packet import Packet
from repro.power.accounting import record_of
from repro.topologies.base import BuiltTopology


class TestEndpoint:
    def test_credit_lifecycle(self):
        ep = Endpoint(None, 0, num_vcs=2, vc_depth=3)
        assert ep.credits == [3, 3]
        ep.take_credit(0)
        ep.take_credit(0)
        ep.take_credit(0)
        assert ep.credits == [0, 3]
        ep.return_credit(0)
        assert ep.credits == [1, 3]

    def test_credit_underflow_detected(self):
        ep = Endpoint(None, 0, num_vcs=1, vc_depth=1)
        ep.take_credit(0)
        with pytest.raises(RuntimeError, match="underflow"):
            ep.take_credit(0)

    def test_vc_busy_lifecycle(self):
        ep = Endpoint(None, 0, num_vcs=2, vc_depth=4)
        assert ep.admit([1], 4) == 1
        assert ep.vc_busy == [False, True]
        assert ep.admit([1], 1) is None  # a busy VC is never handed out twice
        ep.release_vc(1)
        assert ep.admit([1], 4) == 1

    def test_sink_is_unconstrained(self):
        # A sink keeps no credit, busy or request state at all: every path
        # that could touch one returns on ``is_sink`` first.
        sink = Endpoint(None, 0, num_vcs=1, vc_depth=1, is_sink=True)
        assert sink.credits == sink.vc_busy == sink.requests == ()
        for _ in range(100):
            sink.take_credit(0)
            sink.return_credit(0)
        sink.release_vc(0)

    def test_vct_admission(self):
        # Virtual cut-through: a VC is admitted only with credits for the
        # whole packet.
        ep = Endpoint(None, 0, num_vcs=1, vc_depth=4)
        ep.take_credit(0)
        assert ep.admit((0,), 4) is None
        assert ep.admit((0,), 3) == 0

    def test_vct_oversized_packet_is_an_error(self):
        # Endpoint.admit just refuses a packet larger than a VC; the NI
        # raises for it where it enters, since waiting would hang the run.
        ep = Endpoint(None, 0, num_vcs=1, vc_depth=4)
        assert ep.admit((0,), 5) is None
        sim, _ = _sim_and_link()
        sim.network.inject_packet(Packet(0, 1, 5, 0, pid=0))
        with pytest.raises(ValueError, match="5 flits can never fit VC depth 4 at r0.in0"):
            sim.step()

    def test_admit_takes_the_first_free_funded_candidate_in_order(self):
        ep = Endpoint(None, 0, num_vcs=4, vc_depth=4)
        ep.credits[:] = [4, 2, 4, 4]
        ep.vc_busy[2] = True
        # Candidate order, not VC index order, decides: VC 1 lacks credits
        # for a whole 4-flit packet and VC 2 is busy, so VC 3 wins over 0.
        assert ep.admit((1, 2, 3, 0), 4) == 3
        assert ep.vc_busy == [False, False, True, True]
        assert ep.admit((1, 0), 2) == 1
        assert ep.vc_busy == [False, True, True, True]

    def test_admit_refuses_when_no_candidate_fits(self):
        ep = Endpoint(None, 0, num_vcs=2, vc_depth=4)
        ep.credits[:] = [3, 4]
        ep.vc_busy[1] = True
        busy = ep.vc_busy[:]
        assert ep.admit((0, 1), 4) is None
        assert ep.admit((), 1) is None
        assert ep.vc_busy == busy  # a refusal claims nothing


def _sim_and_link(cycles_per_flit=1, flit_width_bits=128):
    """A simulator over two routers and its router 0 -> 1 link: every flit
    send is booked by ``Simulator._send_fn``."""
    net = Network("pair", n_cores=2, num_vcs=2, vc_depth=4, flit_width_bits=flit_width_bits)
    net.add_router()
    net.add_router()
    net.attach_core(0, 0)
    net.attach_core(1, 1)
    out, _ = net.connect(0, 1, cycles_per_flit=cycles_per_flit)
    net.set_routing(RoutingFunction())
    return Simulator(net), net.routers[0].out_links[out]


class TestWiringErrors:
    def test_out_port_links_once(self):
        sim, link = _sim_and_link()
        with pytest.raises(ValueError, match="out port 0 already linked"):
            link.src_router.attach_link(0, link)

    def test_packet_from_a_core_without_an_interface_is_rejected(self):
        net = Network("one", n_cores=2, num_vcs=2, vc_depth=4)
        net.add_router()
        net.attach_core(0, 0)
        with pytest.raises(RuntimeError, match="core 1 has no network interface"):
            net.inject_packet(Packet(1, 0, 1, 0, pid=0))


def make_link(**kw):
    ep = kw.pop("endpoint", Endpoint(None, 0, num_vcs=2, vc_depth=4))
    defaults = dict(name="l", src_router=None, out_port=0, endpoint=ep)
    defaults.update(kw)
    return Link(**defaults), ep


class TestLink:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            make_link(kind="copper")
        with pytest.raises(ValueError, match="latency"):
            make_link(latency=0)
        with pytest.raises(ValueError, match="cycles_per_flit"):
            make_link(cycles_per_flit=0)
        with pytest.raises(ValueError, match="endpoint"):
            Link("l", None, 0, None)

    def test_serialization_busy_window(self):
        sim, link = _sim_and_link(cycles_per_flit=3)
        packet = Packet(0, 1, 2, 0, pid=0)
        assert link.ready(0)
        sim._send_fn(link, link.resolve_endpoint(packet), packet, 0, False, 0, 0)
        assert link.busy_until == 3
        assert not link.ready(1) and not link.ready(2)
        assert link.ready(3)

    def test_bit_accounting(self):
        sim, link = _sim_and_link(flit_width_bits=64)
        packet = Packet(0, 1, 3, 0, pid=0)
        endpoint = link.resolve_endpoint(packet)
        for t in range(3):
            sim._send_fn(link, endpoint, packet, t, t == 2, 0, t)
        assert link.flits_carried == 3
        # Power prices the link's bits: its flits at the network's width.
        record = record_of(BuiltTopology(sim.network, "cmesh"), sim)
        assert [row[4] for row in record.links] == [3 * 64]
        assert link.busy_until == 3

    def test_resolver_endpoints(self):
        eps = {
            0: Endpoint(None, 0, 2, 4, name="a"),
            1: Endpoint(None, 1, 2, 4, name="b"),
        }
        link = Link(
            "mc", None, 0, None, endpoints=eps,
            resolver=lambda pkt: pkt.dst_core % 2,
        )
        assert link.resolve_endpoint(Packet(0, 2, 1, 0)) is eps[0]
        assert link.resolve_endpoint(Packet(0, 3, 1, 0)) is eps[1]
        assert set(link.all_endpoints()) == set(eps.values())

    def test_resolver_unknown_key(self):
        eps = {0: Endpoint(None, 0, 2, 4)}
        link = Link("mc", None, 0, None, endpoints=eps, resolver=lambda pkt: 9)
        with pytest.raises(RuntimeError, match="unknown endpoint key"):
            link.resolve_endpoint(Packet(0, 1, 1, 0))

    def test_multi_endpoint_requires_resolver(self):
        eps = {0: Endpoint(None, 0, 2, 4)}
        with pytest.raises(ValueError, match="resolver"):
            Link("mc", None, 0, None, endpoints=eps)


class TestSharedMedium:
    def test_validation(self):
        with pytest.raises(ValueError):
            SharedMedium("m", kind="copper")
        with pytest.raises(ValueError):
            SharedMedium("m", kind="wireless", arb_latency=-1)
        with pytest.raises(ValueError):
            SharedMedium("m", kind="wireless", multicast_degree=0)

    def test_grant_round_robin_over_requesters(self):
        medium = SharedMedium("m", kind="photonic", arb_latency=0)
        links = []
        for i in range(3):
            link, _ = make_link(medium=medium, name=f"w{i}", out_port=i)
            links.append(link)
        medium.note_request(links[0])
        medium.note_request(links[2])
        medium.try_grant(0)
        assert medium.holder is links[0]
        medium.holder = None
        medium.try_grant(1)
        assert medium.holder is links[2]  # rotation passed link 1 (no request)

    def test_arb_latency_delays_transmission(self):
        medium = SharedMedium("m", kind="photonic", arb_latency=3)
        link, _ = make_link(medium=medium)
        medium.note_request(link)
        medium.try_grant(10)
        assert medium.holder is link
        assert not medium.can_transmit(link, 11)
        assert medium.can_transmit(link, 13)

    def test_holder_released_on_tail(self):
        medium = SharedMedium("m", kind="photonic", arb_latency=0)
        link, _ = make_link(medium=medium)
        medium.note_request(link)
        medium.try_grant(0)
        medium.on_flit_sent(0, 1, False)  # head of a 2-flit packet
        assert medium.holder is link
        medium.on_flit_sent(1, 1, True)  # its tail
        assert medium.holder is None

    def test_serialization_shared_across_writers(self):
        medium = SharedMedium("m", kind="photonic", arb_latency=0)
        l1, _ = make_link(medium=medium, name="w1")
        l2, _ = make_link(medium=medium, name="w2", out_port=1)
        medium.note_request(l1)
        medium.try_grant(0)
        medium.on_flit_sent(0, 4, True)  # busy until cycle 4
        medium.note_request(l2)
        medium.try_grant(1)
        assert medium.holder is l2
        assert not medium.can_transmit(l2, 2)
        assert medium.can_transmit(l2, 4)

    def test_drop_request(self):
        medium = SharedMedium("m", kind="wireless", arb_latency=0, multicast_degree=2)
        link, _ = make_link(medium=medium)
        medium.note_request(link)
        medium.drop_request(link)
        medium.try_grant(0)
        assert medium.holder is None
