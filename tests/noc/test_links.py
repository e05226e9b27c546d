"""Endpoint, Link and SharedMedium unit behaviour."""

import pytest

from repro.noc.links import Endpoint, Link, SharedMedium
from repro.noc.packet import Packet


class TestEndpoint:
    def test_credit_lifecycle(self):
        ep = Endpoint(None, 0, num_vcs=2, vc_depth=3)
        assert ep.credits == [3, 3]
        assert ep.has_credit(0)
        ep.take_credit(0)
        ep.take_credit(0)
        ep.take_credit(0)
        assert not ep.has_credit(0)
        assert ep.has_credit(1)
        ep.return_credit(0)
        assert ep.has_credit(0)

    def test_credit_underflow_detected(self):
        ep = Endpoint(None, 0, num_vcs=1, vc_depth=1)
        ep.take_credit(0)
        with pytest.raises(RuntimeError, match="underflow"):
            ep.take_credit(0)

    def test_vc_busy_lifecycle(self):
        ep = Endpoint(None, 0, num_vcs=2, vc_depth=4)
        ep.acquire_vc(1)
        assert ep.vc_busy[1]
        with pytest.raises(RuntimeError, match="double"):
            ep.acquire_vc(1)
        ep.release_vc(1)
        ep.acquire_vc(1)

    def test_sink_is_unconstrained(self):
        sink = Endpoint(None, 0, num_vcs=1, vc_depth=1, is_sink=True)
        for _ in range(100):
            assert sink.has_credit(0)
            sink.take_credit(0)
        sink.acquire_vc(0)
        sink.acquire_vc(0)  # no double-allocation error for sinks
        assert sink.can_accept_packet(0, 10_000)

    def test_vct_admission(self):
        ep = Endpoint(None, 0, num_vcs=1, vc_depth=4)
        assert ep.can_accept_packet(0, 4)
        ep.take_credit(0)
        assert not ep.can_accept_packet(0, 4)
        assert ep.can_accept_packet(0, 3)

    def test_vct_oversized_packet_is_an_error(self):
        ep = Endpoint(None, 0, num_vcs=1, vc_depth=4)
        with pytest.raises(ValueError, match="never fit"):
            ep.can_accept_packet(0, 5)


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
        link, _ = make_link(cycles_per_flit=3)
        assert link.ready(0)
        link.on_flit_sent(0, False, 128)
        assert not link.ready(1) and not link.ready(2)
        assert link.ready(3)

    def test_bit_accounting(self):
        link, _ = make_link()
        for t in range(3):
            link.on_flit_sent(t, t == 2, 128)
        assert link.flits_carried == 3
        assert link.bits_carried == 3 * 128

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
