"""Conservation-law audits over live simulations of every architecture."""

import re

import pytest

from repro.core import build_own256, build_own1024
from repro.noc import Simulator
from repro.noc.buffers import VCState
from repro.noc.invariants import (
    InvariantViolation,
    audit_network,
    check_credit_consistency,
    check_flit_conservation,
    check_kernel_coherence,
    check_medium_coherence,
    check_vc_state_coherence,
)
from repro.topologies import build_cmesh, build_optxb, build_pclos, build_wcmesh
from repro.traffic import ScriptedTraffic, SyntheticTraffic


BUILDERS = {
    "cmesh": lambda: build_cmesh(64),
    "wcmesh": lambda: build_wcmesh(64),
    "optxb": lambda: build_optxb(64),
    "pclos": lambda: build_pclos(64),
    "own256": build_own256,
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_invariants_hold_throughout_a_run(name):
    built = BUILDERS[name]()
    n = built.n_cores
    sim = Simulator(
        built.network, traffic=SyntheticTraffic(n, "UN", 0.04, 4, seed=9)
    )
    for _ in range(8):
        sim.run(50)
        summary = audit_network(sim)
        assert summary["cycle"] == sim.now


def test_invariants_hold_at_saturation():
    built = build_own256()
    sim = Simulator(
        built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
    )
    sim.run(400)
    summary = audit_network(sim)
    assert summary["buffered_flits"] > 0  # genuinely stressed


def test_invariants_hold_after_drain():
    built = build_own256()
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(256, "UN", 0.03, 4, seed=9, stop_cycle=200),
    )
    sim.run(200)
    assert sim.drain(30_000)
    summary = audit_network(sim)
    assert summary["buffered_flits"] == 0
    assert summary["in_flight"] == 0
    assert summary["media_held"] == 0


def test_invariants_own1024_short():
    built = build_own1024()
    sim = Simulator(
        built.network, traffic=SyntheticTraffic(1024, "UN", 0.01, 4, seed=9)
    )
    sim.run(150)
    audit_network(sim)


class TestViolationDetection:
    """The checks must actually catch corrupted state."""

    def _running_sim(self):
        built = build_cmesh(64)
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=9)
        )
        sim.run(100)
        return built.network, sim

    def test_detects_leaked_credit(self):
        net, sim = self._running_sim()
        # Steal a credit from a busy endpoint.
        for router in net.routers:
            for ep in router.input_endpoints:
                if ep.credits[0] > 0:
                    ep.credits[0] -= 1
                    with pytest.raises(InvariantViolation, match="credit consistency"):
                        check_credit_consistency(sim)
                    return
        pytest.fail("no endpoint with credits found")

    def test_detects_stale_route_state(self):
        net, sim = self._running_sim()
        vc = net.routers[0].input_ports[0].vcs[0]
        if vc.state.name != "IDLE":
            vc.release()
        vc.out_port = 3  # stale
        with pytest.raises(InvariantViolation, match="retains route state"):
            check_vc_state_coherence(net)

    def test_detects_duplicated_flit(self):
        net, sim = self._running_sim()
        # Conjure a flit out of thin air into some buffer.
        from repro.noc.packet import Packet

        ghost = Packet(0, 1, 1, 0)
        net.routers[0].input_ports[0].vcs[0].queue.append(ghost)
        created = sim.stats.flits_created
        buffered = net.total_occupancy()
        if buffered <= created:
            # Inflate until the conservation check must trip.
            for _ in range(created - buffered + 1):
                net.routers[0].input_ports[0].vcs[0].queue.append(ghost)
        with pytest.raises(InvariantViolation, match="flit conservation"):
            check_flit_conservation(sim)

    def test_detects_link_into_an_injection_endpoint(self):
        # Endpoint.return_credit / release_vc do not re-arm a parked NI: no
        # link may feed the endpoint an NI injects through.
        net, sim = self._running_sim()
        link = net.routers[0].out_links[0]
        link._endpoint = net.interfaces[5].endpoint
        with pytest.raises(InvariantViolation, match="injection endpoint"):
            audit_network(sim)

    def test_detects_foreign_medium_holder(self):
        built = build_optxb(64)
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=9)
        )
        sim.run(60)
        net = built.network
        # Make medium 0 hold a link that belongs to medium 1.
        net.mediums[0].holder = net.mediums[1].members[0]
        with pytest.raises(InvariantViolation, match="not a member"):
            check_medium_coherence(net)


class TestLostWakeupDetection:
    """VC allocation is event-driven: a waiting head nobody will examine
    again is stranded for good, so the audit must see it coming."""

    def _waiting_heads(self):
        """A saturated OWN-256 and its examined, still-refused requests."""
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
        )
        sim.run(400)
        check_kernel_coherence(sim)
        fresh = set(sim.kernels.vca_fresh)
        heads = [
            vc
            for vc in sim.kernels.slot_vc
            if vc.state is VCState.WAITING_VC
            and vc.gslot not in fresh
            and not vc.cand_endpoint.woken
        ]
        assert heads, "saturation left no head waiting for a VC"
        return sim, heads

    def test_detects_request_dropped_from_its_endpoint(self):
        sim, heads = self._waiting_heads()
        vc = heads[0]
        vc.cand_endpoint.requests.remove(vc.gslot)
        with pytest.raises(InvariantViolation, match="heads waiting for it are"):
            check_kernel_coherence(sim)
        with pytest.raises(InvariantViolation, match="heads waiting for it are"):
            audit_network(sim)

    def test_detects_request_queued_out_of_order(self):
        sim, heads = self._waiting_heads()
        ep = next(
            vc.cand_endpoint for vc in heads if len(vc.cand_endpoint.requests) > 1
        )
        ep.requests.reverse()
        with pytest.raises(InvariantViolation, match="heads waiting for it are"):
            check_kernel_coherence(sim)

    def test_detects_vc_freed_behind_the_endpoints_back(self):
        sim, heads = self._waiting_heads()
        # A candidate VC that is busy but fully funded (its owner has not
        # sent a flit yet): clearing the flag without release_vc makes the
        # head grantable while nothing will ever look at it again.
        for vc in heads:
            ep = vc.cand_endpoint
            size = vc.queue[0].size_flits
            for v in vc.cand_vcs:
                if ep.vc_busy[v] and ep.credits[v] >= size:
                    ep.vc_busy[v] = False
                    with pytest.raises(InvariantViolation, match="lost wake-up"):
                        check_kernel_coherence(sim)
                    ep.vc_busy[v] = True
                    ep.release_vc(v)  # the honest way wakes the endpoint
                    check_kernel_coherence(sim)
                    return
        pytest.fail("no waiting head has a busy, fully funded candidate VC")

    def test_detects_sink_grant_dropped_from_vca_fresh(self):
        # A sink queues no request: vca_fresh is the only thing that will
        # ever grant a head waiting on one.
        sim = Simulator(
            build_cmesh(64).network, traffic=ScriptedTraffic([(0, 0, 63, 4)])
        )
        fresh = sim.kernels.vca_fresh
        while not any(sim.kernels.slot_vc[s].cand_endpoint.is_sink for s in fresh):
            assert sim.now < 100, "the head never waited on its sink"
            sim.step()
        check_kernel_coherence(sim)
        fresh.clear()
        with pytest.raises(InvariantViolation, match=r"core63\.sink but is not in vca_fresh"):
            check_kernel_coherence(sim)


class TestSAWorkSet:
    """``sa_slots`` is derived state: exactly the ACTIVE VCs holding a flit,
    minus those parked on a link until its medium token arrives."""

    def _saturated(self):
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
        )
        return built.network, sim

    def test_detects_slot_dropped_behind_the_kernels_back(self):
        net, sim = self._saturated()
        sim.run(300)
        check_kernel_coherence(sim)
        slot = min(sim.kernels.sa_slots)
        sim.kernels.sa_slots.discard(slot)
        with pytest.raises(InvariantViolation, match=rf"missing=\[{slot}\]"):
            check_kernel_coherence(sim)
        with pytest.raises(InvariantViolation, match="sa_slots"):
            audit_network(sim)

    def test_detects_slot_added_behind_the_kernels_back(self):
        net, sim = self._saturated()
        sim.run(300)
        # Neither an idle VC nor a parked one belongs in the work set.
        parked = next(
            link.sa_token_waiters[0] for link in net.links if link.sa_token_waiters
        )
        idle = next(
            vc.gslot for vc in sim.kernels.slot_vc if vc.state is VCState.IDLE
        )
        for slot in (parked, idle):
            sim.kernels.sa_slots.add(slot)
            with pytest.raises(InvariantViolation, match=rf"extra=\[{slot}\]"):
                check_kernel_coherence(sim)
            sim.kernels.sa_slots.discard(slot)
        check_kernel_coherence(sim)

    def test_detects_flit_count_drift(self):
        net, sim = self._saturated()
        sim.run(100)
        router = next(r for r in net.routers if r._nflits)
        router._nflits += 1
        with pytest.raises(InvariantViolation, match="counts"):
            check_kernel_coherence(sim)

    def test_a_vc_parks_behind_a_token_once(self):
        # A body flit landing behind a parked head must not re-arm it: it
        # would be examined, find the token still elsewhere and park again.
        net, sim = self._saturated()
        parked_ever = 0
        for _ in range(300):
            sim.step()
            for link in net.links:
                waiters = link.sa_token_waiters
                assert len(set(waiters)) == len(waiters), (sim.now, link.name)
                parked_ever += len(waiters)
        assert parked_ever, "saturation parked no VC behind a token"


class TestRCWorkSet:
    """Every ``rc_slots`` entry is an IDLE VC with a head to route, so
    ``rc_sweep`` takes each one as it comes."""

    def test_detects_stale_entry(self):
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
        )
        sim.run(300)
        check_kernel_coherence(sim)
        k = sim.kernels
        drained = next(
            vc.gslot for vc in k.slot_vc if vc.state is VCState.IDLE and not vc.queue
        )
        advanced = next(vc.gslot for vc in k.slot_vc if vc.state is VCState.ACTIVE)
        for slot in (drained, advanced):
            k.rc_slots.add(slot)
            with pytest.raises(InvariantViolation, match=rf"rc_slots holds slot {slot},"):
                check_kernel_coherence(sim)
            with pytest.raises(InvariantViolation, match="rc_slots"):
                audit_network(sim)
            k.rc_slots.discard(slot)
        check_kernel_coherence(sim)


class TestRoundRobinState:
    """The switch allocator's one round-robin state stays in range: a port's
    pointer below its VC count, a link's below its requester count."""

    def _run(self):
        built = build_cmesh(64)
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(64, "UN", 0.1, 4, seed=9)
        )
        sim.run(100)
        check_kernel_coherence(sim)
        assert any(sim.kernels.in_ptr) and any(sim.kernels.out_ptr)
        return built.network, sim

    def test_detects_input_pointer_out_of_range(self):
        net, sim = self._run()
        router = net.routers[5]
        pb = router.input_ports[1].vcs[0].gslot
        sim.kernels.in_ptr[pb] = len(router.input_ports[1].vcs)
        with pytest.raises(InvariantViolation, match=r"r5\.in1 round-robin pointer 4"):
            check_kernel_coherence(sim)
        sim.kernels.in_ptr[pb] = -1
        with pytest.raises(InvariantViolation, match="round-robin pointer -1"):
            audit_network(sim)

    def test_detects_output_pointer_out_of_range(self):
        net, sim = self._run()
        link = net.links[7]
        sim.kernels.out_ptr[link.index] = sim.kernels.out_n[link.index]
        with pytest.raises(InvariantViolation, match=re.escape(f"{link.name} round-robin pointer")):
            check_kernel_coherence(sim)


def _steal_credit(net, sim):
    ep = next(ep for r in net.routers for ep in r.input_endpoints if ep.credits[0])
    ep.credits[0] -= 1
    return check_credit_consistency, sim


def _stale_route(net, sim):
    vc = next(vc for vc in sim.kernels.slot_vc if vc.state is VCState.IDLE)
    vc.out_port = 3
    return check_vc_state_coherence, net


def _count_drift(net, sim):
    next(r for r in net.routers if r._nflits)._nflits += 1
    return check_kernel_coherence, sim


def _foreign_holder(net, sim):
    net.mediums[0].holder = net.mediums[1].members[0]
    return check_medium_coherence, net


def _stale_front_counter(net, sim):
    vc = next(vc for vc in sim.kernels.slot_vc if vc.state is VCState.IDLE)
    vc.sent = 1  # an IDLE VC's front flit is always a head
    return check_vc_state_coherence, net


def _lost_ni_flit(net, sim):
    # Count one more flit of the front packet as pumped than was.
    next(ni for ni in net.interfaces if ni is not None and ni.queue).sent += 1
    return check_flit_conservation, sim


def _withhold(sim, endpoint, v):
    # Move every credit of (endpoint, v) onto the credit-return ring: the
    # accounting still balances, but the sender holding v has none left.
    for _ in range(endpoint.credits[v]):
        sim._credits_due.append((endpoint, v))
    endpoint.credits[v] = 0


def _starve_active_vc(net, sim):
    vc = next(
        vc for vc in sim.kernels.slot_vc
        if vc.state is VCState.ACTIVE and not vc.endpoint.is_sink
    )
    _withhold(sim, vc.endpoint, vc.out_vc)
    return check_credit_consistency, sim


def _starve_ni(net, sim):
    ni = next(ni for ni in net.interfaces if ni is not None and ni.current_vc is not None)
    _withhold(sim, ni.endpoint, ni.current_vc)
    return check_credit_consistency, sim


class TestCreditUnderflow:
    """``Endpoint.admit`` funds a whole packet, so a sender mid-packet
    always holds a credit on its VC; neither SA nor the NI tests it, and
    the audit is where a broken admission shows."""

    @pytest.mark.parametrize("inject", [_starve_active_vc, _starve_ni])
    def test_planted_underflow_fails_the_audit(self, inject):
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
        )
        sim.run(150)
        audit_network(sim)
        inject(built.network, sim)
        with pytest.raises(InvariantViolation, match="credit underflow"):
            audit_network(sim)

    def test_wormhole_admission_is_caught(self, monkeypatch):
        # Admit on one credit instead of the whole packet: the first VC that
        # drains its credits mid-packet fails the audit.
        from repro.noc.links import Endpoint

        def admit_on_one_credit(self, cands, size):
            for v in cands:
                if not self.vc_busy[v] and self.credits[v] > 0:
                    self.vc_busy[v] = True
                    return v
            return None

        monkeypatch.setattr(Endpoint, "admit", admit_on_one_credit)
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
        )
        with pytest.raises(InvariantViolation, match="credit underflow"):
            for _ in range(300):
                sim.run(1)
                audit_network(sim)


class TestOneWalk:
    """``audit_network`` evaluates every per-VC condition in one walk and
    each ``check_*`` in the same walk for its own: one violation of each
    kind is reported by both, with the same message."""

    def _saturated(self):
        built = build_own256()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9),
            warmup_cycles=50,
        )
        sim.run(150)
        assert audit_network(sim)["ni_queued"] > 0
        return built.network, sim

    @pytest.mark.parametrize(
        "inject",
        [
            _steal_credit,
            _stale_route,
            _stale_front_counter,
            _count_drift,
            _foreign_holder,
            _lost_ni_flit,
            _starve_active_vc,
        ],
    )
    def test_audit_reports_what_the_check_reports(self, inject):
        net, sim = self._saturated()
        check, arg = inject(net, sim)
        with pytest.raises(InvariantViolation) as by_check:
            check(arg)
        with pytest.raises(InvariantViolation) as by_audit:
            audit_network(sim)
        assert str(by_audit.value) == str(by_check.value)

    def test_conservation_is_exact_with_a_warmup(self):
        # The recorded ejections the balance closes on count the warm-up
        # epoch too; the windowed count (all a run with warm-up used to be
        # compared against, so only present <= available was checked)
        # would not close it.
        net, sim = self._saturated()
        stats = sim.stats
        assert stats.warmup_cycles and stats.flits_ejected < stats.flits_ejected_total
        _lost_ni_flit(net, sim)
        present = (
            net.total_occupancy()
            + sum(ni.backlog for ni in net.interfaces if ni is not None)
            + sum(len(due) for due in sim._flit_ring)
        )
        available = stats.flits_created + stats.flits_retransmitted - stats.flits_dropped
        assert present < available  # the one-sided test passes
        with pytest.raises(InvariantViolation, match="flit conservation"):
            check_flit_conservation(sim)
