"""Simulator-level behaviour: determinism, drain, stats windows, multicast."""

from contextlib import nullcontext

import pytest

from repro.core import build_own256
from repro.noc import (
    Network,
    RoutingFunction,
    SharedMedium,
    Simulator,
)
from repro.noc.invariants import audit_network
from repro.noc.simulator import SimulationDeadlock
from repro.noc.stats import LatencyStats, StatsCollector
from repro.noc.packet import Packet
from repro.telemetry import (
    DEADLOCK,
    DRAIN_END,
    DRAIN_START,
    FLIT_RECV,
    TRAFFIC_RESUMED,
    Tracer,
)
from repro.traffic import ScriptedTraffic, SyntheticTraffic
from repro.topologies import build_cmesh
from tests.reference import naive_schedule


class TestDeterminism:
    def test_same_seed_same_results(self):
        def run():
            built = build_cmesh(64)
            sim = Simulator(
                built.network,
                traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=17, stop_cycle=300),
            )
            sim.run(300)
            sim.drain()
            return (
                sim.stats.packets_ejected,
                sim.stats.flits_ejected,
                tuple(sim.stats.latencies),
            )

        assert run() == run()

    def test_different_seed_different_results(self):
        def run(seed):
            built = build_cmesh(64)
            sim = Simulator(
                built.network,
                traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=seed, stop_cycle=300),
            )
            sim.run(300)
            sim.drain()
            return tuple(sim.stats.latencies)

        assert run(1) != run(2)


class TestDrain:
    def test_drain_empties_network(self):
        built = build_cmesh(64)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=1, stop_cycle=200),
        )
        sim.run(200)
        assert sim.drain()
        assert built.network.total_occupancy() == 0
        assert not sim._pending_work()

    def test_drain_budget_respected(self):
        # Both packets are on the latency-40 link by cycle 12, so the drain
        # idles until they land at 43. A drain that runs out of budget has
        # spent exactly that budget, skipped cycles included, and a later
        # drain() ends where one uninterrupted drain() does.
        def drain(budgets):
            traffic = ScriptedTraffic([(0, 0, 1, 4), (3, 0, 1, 2)])
            sim = Simulator(_slow_line(), traffic=traffic)
            log, steps = [], []
            eject, step = sim.stats.on_packet_ejected, sim.step
            sim.stats.on_packet_ejected = lambda packet, now: (
                log.append((now, packet.pid)), eject(packet, now)
            )
            sim.step = lambda: (steps.append(sim.now), step())[1]
            sim.run(12)
            for budget in budgets:
                start = sim.now
                assert sim.drain(budget) is False
                assert sim.now == start + budget
            assert sim.drain()
            return log, sim.now, len(steps)

        ends = []
        for schedule in (nullcontext, naive_schedule):
            with schedule():
                log, now, steps = drain([])
                assert len(log) == 2
                for budgets in ([1], [12], [1, 12, 9], [33]):
                    assert drain(budgets)[:2] == (log, now)
            skipped = now - steps
            assert skipped > 0 if schedule is nullcontext else skipped == 0
            ends.append((log, now))
        assert ends[0] == ends[1]

    def test_credit_latency_validated(self):
        built = build_cmesh(64)
        with pytest.raises(ValueError):
            Simulator(built.network, credit_latency=0)

    def test_resume_traffic_restores_injection(self):
        built = build_cmesh(64)
        traffic = SyntheticTraffic(64, "UN", 0.05, 4, seed=1)
        sim = Simulator(built.network, traffic=traffic)
        sim.run(100)
        assert sim.drain()
        assert sim.traffic is None
        created = sim.stats.packets_created
        assert sim.resume_traffic() is traffic
        sim.run(100)
        assert sim.stats.packets_created > created

    def test_resume_traffic_prefers_manual_override(self):
        built = build_cmesh(64)
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=1)
        )
        sim.run(50)
        sim.drain()
        override = SyntheticTraffic(64, "UN", 0.01, 4, seed=2)
        sim.traffic = override
        assert sim.resume_traffic() is override
        assert sim._paused_traffic is None

    def test_packet_ids_unique_when_traffic_replaced_after_drain(self):
        # The simulator, not the traffic object, numbers packets: a source
        # installed after construction continues the same 0, 1, 2, ...
        # sequence (Tracer, link layer and drain accounting key on pid).
        class Recording(SyntheticTraffic):
            def tick(self, now):
                packets = super().tick(now)
                born.extend(packets)
                return packets

        born = []
        built = build_cmesh(64)
        sim = Simulator(built.network, traffic=Recording(64, "UN", 0.05, 4, seed=1))
        sim.run(100)
        assert sim.drain()
        n_first = len(born)
        sim.traffic = Recording(64, "UN", 0.05, 4, seed=2)
        sim.resume_traffic()
        sim.run(100)
        assert len(born) > n_first > 0
        assert [p.pid for p in born] == list(range(len(born)))

    def test_resume_traffic_without_drain_is_noop(self):
        built = build_cmesh(64)
        sim = Simulator(built.network)
        assert sim.resume_traffic() is None


class TestHooks:
    def test_add_hook_rejects_a_hook_without_next_wake(self):
        sim = Simulator(build_cmesh(16).network)

        def every_cycle_observer(sim):
            pass

        with pytest.raises(TypeError, match="every_cycle_observer"):
            sim.add_hook(every_cycle_observer)

        class NotSchedulable:
            next_wake = None

            def __call__(self, sim):
                pass

        with pytest.raises(TypeError, match="NotSchedulable"):
            sim.add_hook(NotSchedulable())
        assert sim._hooks == []

    @pytest.mark.parametrize("schedule", [nullcontext, naive_schedule])
    def test_one_step_per_stepped_cycle(self, schedule, monkeypatch):
        # A stepped cycle is one Simulator.step call, which runs the hooks
        # once: the reference patches step, and the benchmark counts its
        # calls as the stepped cycles.
        steps, hooked = [], []
        step = Simulator.step

        def counted(sim):
            steps.append(sim.now)
            return step(sim)

        class Observer:
            def __call__(self, sim):
                hooked.append(sim.now)

            def next_wake(self, now):
                return None

        monkeypatch.setattr(Simulator, "step", counted)
        sim = Simulator(
            build_own256().network,
            traffic=SyntheticTraffic(256, "UN", 0.0002, 4, seed=3),
            hooks=[Observer()],
        )
        with schedule():
            sim.run(4000)
        assert hooked == steps
        assert sim.stats.packets_ejected > 0
        if schedule is naive_schedule:
            assert len(steps) == sim.now == 4000
        else:
            assert 0 < len(steps) < sim.now // 2


class TestStatsWindows:
    def test_warmup_excludes_early_packets(self):
        built = build_cmesh(64)
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(64, "UN", 0.05, 4, seed=1, stop_cycle=400),
            warmup_cycles=200,
        )
        sim.run(400)
        sim.drain()
        assert sim.stats.measured_packets < sim.stats.packets_ejected
        assert sim.stats.measured_packets > 0

    def test_warmup_epoch_split_latency_vs_throughput(self):
        # Latency samples admit only packets *created* inside the window;
        # throughput counts every flit *delivered* inside it. A warmup-era
        # packet ejected post-warmup loads the delivery rate but must not
        # skew the latency distribution.
        c = StatsCollector(4, warmup_cycles=100)
        pre = Packet(0, 1, 1, 10)     # created and ejected pre-warmup
        early = Packet(0, 1, 4, 50)   # created pre-warmup, ejected in window
        late = Packet(0, 1, 4, 120)   # created in window
        for p in (pre, early, late):
            c.on_packet_created(p)
        c.on_flit_ejected(90, pre)
        c.on_packet_ejected(pre, 90)
        for _ in range(4):
            c.on_flit_ejected(110, early)
        c.on_packet_ejected(early, 110)
        for _ in range(4):
            c.on_flit_ejected(140, late)
        c.on_packet_ejected(late, 140)

        assert c.flits_ejected_total == 9  # power accounting sees all
        assert c.flits_ejected == 8        # both in-window ejections count
        assert c.measured_packets == 1     # only the post-warmup creation
        assert c.latencies == [140 - 120]
        s = c.summary(end_cycle=200)
        assert s["latency_samples"] == 1.0
        assert s["throughput"] == 8 / (4 * 100)

    def test_untagged_packet_falls_back_to_creation_epoch(self):
        # Manually injected packets bypass on_packet_created, so their
        # measured tag is still None: ejection must fall back to the
        # t_create >= warmup test instead of treating None as False.
        c = StatsCollector(4, warmup_cycles=100)
        p = Packet(0, 1, 4, 120)
        assert p.measured is None
        c.on_packet_ejected(p, 150)
        assert c.measured_packets == 1
        assert c.latencies == [30]

    def test_throughput_nan_before_window(self):
        collector = StatsCollector(4, warmup_cycles=100)
        assert collector.throughput_flits_per_core_cycle(50) != collector.throughput_flits_per_core_cycle(50)  # NaN

    def test_latency_stats_empty(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        assert stats.mean != stats.mean  # NaN

    def test_latency_stats_values(self):
        stats = LatencyStats.from_samples([10, 20, 30, 40])
        assert stats.count == 4
        assert stats.mean == 25.0
        assert stats.median == 25.0
        assert stats.max == 40.0

    def test_hops_tracked(self):
        collector = StatsCollector(4)
        p = Packet(0, 1, 4, 0)
        p.hops = 3
        p.wireless_hops = 1
        p.photonic_hops = 2
        collector.on_packet_ejected(p, 50)
        assert collector.avg_hops() == 3.0
        assert collector.avg_wireless_hops() == 1.0


class TestRunPhaseTraceMarkers:
    """Regression locks on drain / resume / deadlock via trace events."""

    def _traced(self, rate=0.05, cycles=200):
        built = build_cmesh(64)
        tracer = Tracer()
        sim = Simulator(
            built.network,
            traffic=SyntheticTraffic(64, "UN", rate, 4, seed=1, stop_cycle=cycles),
            tracer=tracer,
        )
        sim.run(cycles)
        return sim, tracer

    def test_drain_markers_bracket_the_drain(self):
        sim, tracer = self._traced()
        assert sim.drain()
        starts = [ev for ev in tracer.events if ev.etype == DRAIN_START]
        ends = [ev for ev in tracer.events if ev.etype == DRAIN_END]
        assert len(starts) == len(ends) == 1
        start, end = starts[0], ends[0]
        assert start.cycle <= end.cycle
        assert end.args["drained"] is True
        assert start.args["occupancy"] >= 0
        assert start.args["backlog"] >= 0

    def test_drained_flit_count_matches_sink_deliveries(self):
        sim, tracer = self._traced()
        ejected_before = sim.stats.flits_ejected
        packets_before = sim.stats.packets_ejected
        assert sim.drain()
        start = next(ev for ev in tracer.events if ev.etype == DRAIN_START)
        end = next(ev for ev in tracer.events if ev.etype == DRAIN_END)
        # Every flit ejected during the drain window shows up as exactly
        # one FLIT_RECV at a core sink.
        sink_recvs = [
            ev
            for ev in tracer.events
            if ev.etype == FLIT_RECV
            and ev.component.endswith(".sink")
            and start.cycle <= ev.cycle <= end.cycle
        ]
        assert len(sink_recvs) == sim.stats.flits_ejected - ejected_before > 0
        assert end.args["ejected"] == sim.stats.packets_ejected - packets_before
        assert end.args["moved"] >= len(sink_recvs)

    def test_incomplete_drain_marked_not_drained(self):
        sim, tracer = self._traced(rate=0.2, cycles=60)
        if sim.drain(max_cycles=1):
            pytest.skip("network emptied in one cycle")
        end = next(ev for ev in tracer.events if ev.etype == DRAIN_END)
        assert end.args["drained"] is False

    def test_resume_traffic_marker(self):
        sim, tracer = self._traced()
        sim.drain()
        sim.resume_traffic()
        resumed = [ev for ev in tracer.events if ev.etype == TRAFFIC_RESUMED]
        assert len(resumed) == 1
        assert resumed[0].args["restored"] is True

    def test_resume_without_traffic_marks_unrestored(self):
        built = build_cmesh(64)
        tracer = Tracer()
        sim = Simulator(built.network, tracer=tracer)
        sim.resume_traffic()
        resumed = [ev for ev in tracer.events if ev.etype == TRAFFIC_RESUMED]
        assert len(resumed) == 1
        assert resumed[0].args["restored"] is False


class LineRouting(RoutingFunction):
    """0 -> 1 forwarding for the two-router deadlock fixture."""

    def __init__(self, net, fwd_port):
        self.net = net
        self.fwd_port = fwd_port

    def compute(self, router, packet):
        dst = self.net.core_router[packet.dst_core]
        if dst == router.rid:
            return self.net.core_eject_port[packet.dst_core]
        return self.fwd_port


class TestDeadlockReport:
    def _stuck_sim(self, tracer=None, pairs=1):
        """``pairs`` disjoint lines of two routers; router ``2j`` holds a
        packet for router ``2j + 1``'s core that can never leave."""
        net = Network("line", n_cores=2 * pairs, num_vcs=2, vc_depth=4)
        for r in range(2 * pairs):
            net.add_router()
            net.attach_core(r, r)
        for r in range(0, 2 * pairs, 2):
            fwd_port, _ = net.connect(r, r + 1)
        net.set_routing(LineRouting(net, fwd_port))
        net.finalize()
        sim = Simulator(net, watchdog=10, tracer=tracer)
        # Artificially exhaust the downstream VCs: VCA can never succeed,
        # so each injected packet is provably stuck.
        for r in range(0, 2 * pairs, 2):
            endpoint = net.routers[r].out_links[fwd_port].resolve_endpoint(
                Packet(r, r + 1, 4, 0)
            )
            endpoint.vc_busy = [True] * len(endpoint.vc_busy)
            net.inject_packet(Packet(r, r + 1, 4, 0, pid=r // 2))
        return sim

    def test_watchdog_raises_with_diagnostics(self):
        sim = self._stuck_sim(pairs=22)
        # Pair 1 is granted its VC instead, but its link never frees: an
        # ACTIVE head that is parked on no token waits on nothing nameable.
        link = sim.network.routers[2].out_links[1]
        link.resolve_endpoint(Packet(2, 3, 4, 0)).vc_busy = [False, False]
        link.busy_until = 10**9
        with pytest.raises(SimulationDeadlock) as excinfo:
            sim.run(100)
        msg = str(excinfo.value)
        assert "no progress" in msg
        assert "audit" in msg
        assert "stuck flits by router (22 routers):" in msg
        assert "r0" in msg
        # The wait-for edge: which endpoint the head queues on, where in
        # that queue, and why the endpoint has nothing to give.
        endpoint = sim.network.routers[1].input_endpoints[1]
        assert f"request 1 of 1 at {endpoint.name}" in msg
        assert f"vc_busy={endpoint.vc_busy} credits={endpoint.credits}" in msg
        lines = msg.splitlines()
        assert "  r2 (4 flits): in0.vc0[4 flits, ACTIVE, pid=1->out1]" in lines
        # 20 routers are listed, router 0 to router 38; 40 and 42 are not.
        assert sum(line.startswith("  r") for line in lines) == 20
        assert lines[-1] == "  ... and 2 more routers"

    def test_wait_for_edge_of_a_token_parked_vc_names_medium_and_holder(self):
        built = build_own256()
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.15, 4, seed=9)
        )
        sim.run(300)
        kern = sim.kernels
        for link in built.network.links:
            for slot in link.sa_token_waiters:
                router, vc = kern.slot_router[slot], kern.slot_vc[slot]
                edge = sim._waits_on(router, router.input_ports[vc.in_port], vc)
                assert f"token of {link.medium.name}" in edge
                assert f"held by {link.medium.holder.name}" in edge
                return
        pytest.fail("saturation parked no VC behind a token")

    def test_wait_for_edge_of_a_head_bound_for_its_sink(self):
        sim = Simulator(
            build_cmesh(64).network, traffic=ScriptedTraffic([(0, 0, 63, 4)])
        )
        kern = sim.kernels
        while sim.now < 100:
            sim.step()
            for slot in kern.vca_fresh:
                router, vc = kern.slot_router[slot], kern.slot_vc[slot]
                if vc.cand_endpoint.is_sink:
                    edge = sim._waits_on(router, router.input_ports[vc.in_port], vc)
                    assert edge == ", granted by the next VC allocation at core63.sink"
                    return
        pytest.fail("the head never waited on its sink")

    def test_slow_link_with_pending_events_is_not_deadlock(self):
        # Regression: a link whose latency exceeds the watchdog budget
        # leaves the second packet buffered upstream (sole downstream VC
        # held by the first) with zero movement for longer than the
        # no-progress window -- but the first packet's in-flight flits and
        # the returning VC release/credits are scheduled events, i.e.
        # guaranteed future progress. The watchdog must consult the
        # pending event queue before declaring deadlock.
        net = Network("line", n_cores=2, num_vcs=1, vc_depth=4)
        net.add_router()
        net.add_router()
        net.attach_core(0, 0)
        net.attach_core(1, 1)
        fwd_port, _ = net.connect(0, 1, latency=40)
        net.set_routing(LineRouting(net, fwd_port))
        net.finalize()
        sim = Simulator(net, watchdog=10)
        net.inject_packet(Packet(0, 1, 4, 0, pid=0))
        net.inject_packet(Packet(0, 1, 4, 0, pid=1))
        sim.run(600)  # several credit round trips at latency 40
        sim.drain()
        assert sim.stats.packets_ejected == 2

    def test_deadlock_trace_event_carries_occupancy(self):
        tracer = Tracer()
        sim = self._stuck_sim(tracer=tracer)
        with pytest.raises(SimulationDeadlock):
            sim.run(100)
        deadlocks = [ev for ev in tracer.events if ev.etype == DEADLOCK]
        assert len(deadlocks) == 1
        assert deadlocks[0].args["occupancy"] == sim.network.total_occupancy() > 0


def _slow_line(num_vcs=2):
    """Two routers, a latency-40 link one way and a latency-2 link back."""
    net = Network("slow-line", n_cores=2, num_vcs=num_vcs, vc_depth=4)
    net.add_router()
    net.add_router()
    net.attach_core(0, 0)
    net.attach_core(1, 1)
    fwd_port, _ = net.connect(0, 1, latency=40)
    back_port, _ = net.connect(1, 0, latency=2)
    net.set_routing(SWMRRouting(net, {0: fwd_port, 1: back_port}))
    net.finalize()
    return net


class TestEventRings:
    """Flit deliveries and credit returns live in two calendar rings
    indexed ``cycle & mask``; only link-layer ACKs use ``_schedule``."""

    SCHEDULE = [(t, t % 2, 1 - t % 2, 1 + t % 4) for t in range(0, 400, 7)]

    def _run(self, chunks, **kw):
        sim = Simulator(
            _slow_line(), traffic=ScriptedTraffic(self.SCHEDULE),
            credit_latency=3, **kw,
        )
        log = []
        ejected = sim.stats.on_packet_ejected
        sim.stats.on_packet_ejected = lambda packet, now: (
            log.append((now, packet.pid)), ejected(packet, now)
        )
        for cycles in chunks:
            sim.run(cycles)
            audit_network(sim)
        assert sim.drain()
        audit_network(sim)
        return sim, log

    def test_ring_is_the_power_of_two_above_the_longest_delay(self):
        sim = Simulator(_slow_line(), credit_latency=3)
        assert len(sim._flit_ring) == len(sim._credit_ring) == 64
        assert sim._ring_mask == 63
        built = build_cmesh(64)  # latency 1 links, credit_latency 3
        assert len(Simulator(built.network, credit_latency=3)._flit_ring) == 4

    def test_split_runs_and_dense_agree_across_ring_revolutions(self):
        # 450 cycles is seven revolutions of the 64-slot rings.
        whole, log = self._run([450])
        assert len(log) == len(self.SCHEDULE)
        assert max(now for now, _ in log) > 6 * 64
        split, split_log = self._run([63, 1, 64, 129, 193])
        with naive_schedule():
            naive, naive_log = self._run([450])
        assert log == split_log == naive_log
        assert whole.now == split.now == naive.now
        assert (
            tuple(whole.stats.latencies)
            == tuple(split.stats.latencies)
            == tuple(naive.stats.latencies)
        )

    def test_next_event_cycle_reads_both_rings_and_the_heap(self):
        net = _slow_line()
        sim = Simulator(net, credit_latency=3)
        sim.run(70)  # past one revolution, so slots are indexed modulo
        assert sim.now == 70
        assert sim._next_event_cycle() is None and not sim._events_pending()
        link = net.routers[0].out_links[-1]
        endpoint = link.resolve_endpoint(None)
        packet = Packet(0, 1, 1, 0, pid=0)

        def cleared():
            for ring in (sim._flit_ring, sim._credit_ring):
                for due in ring:
                    due.clear()
            sim._events.clear()
            del sim._event_cycles[:]

        sim._send_fn(link, endpoint, packet, 0, True, 0, sim.now)  # lands at 70 + 40
        assert sim._next_event_cycle() == 110 and sim._events_pending()
        cleared()
        sim._credit_ring[(sim.now + 3) & sim._ring_mask].append((endpoint, 0))
        assert sim._next_event_cycle() == 73 and sim._events_pending()
        cleared()
        sim._schedule(500, ("llack", link, 0, True))  # beyond any ring
        assert sim._next_event_cycle() == 500 and sim._events_pending()
        sim._send_fn(link, endpoint, packet, 0, True, 0, sim.now)
        assert sim._next_event_cycle() == 110
        sim._credit_ring[(sim.now + 3) & sim._ring_mask].append((endpoint, 0))
        assert sim._next_event_cycle() == 73
        sim._schedule(71, ("llack", link, 1, True))
        assert sim._next_event_cycle() == 71
        cleared()
        assert sim._next_event_cycle() is None and not sim._events_pending()

    def test_flit_in_flight_is_neither_drained_nor_deadlocked(self):
        # One VC: the second packet sits buffered at router 0 until the
        # credit of the first (a single flit, 40 cycles in flight) is
        # back. Nothing moves for longer than the watchdog, and the only
        # pending event is that flit in the ring.
        net = _slow_line(num_vcs=1)
        sim = Simulator(net, watchdog=10, credit_latency=3)
        net.inject_packet(Packet(0, 1, 1, 0, pid=0))
        net.inject_packet(Packet(0, 1, 4, 0, pid=1))
        sim.run(15)
        assert net.total_occupancy() == 4
        assert [len(due) for due in sim._flit_ring if due] == [1]
        assert not sim._events and not any(sim._credit_ring)
        sim.run(20)  # motionless for > watchdog cycles: not a deadlock
        assert sim.stats.packets_ejected == 0
        assert sim._pending_work()
        assert sim.drain(max_cycles=3) is False
        assert sim.drain()
        assert sim.stats.packets_ejected == 2


class SWMRRouting(RoutingFunction):
    def __init__(self, net, ports):
        self.net = net
        self.ports = ports

    def compute(self, router, packet):
        dst = self.net.core_router[packet.dst_core]
        if dst == router.rid:
            return self.net.core_eject_port[packet.dst_core]
        return self.ports[router.rid]


class TestSWMRMulticast:
    def build(self):
        # Routers 0,1 are writers; routers 2,3 are readers of one SWMR
        # channel; resolver picks the reader by destination core.
        net = Network("swmr", n_cores=4, num_vcs=2, vc_depth=4)
        for _ in range(4):
            net.add_router()
        for core, rid in enumerate([0, 1, 2, 3]):
            net.attach_core(core, rid)
        medium = SharedMedium("air", kind="wireless", arb_latency=1, multicast_degree=2)
        ports = net.connect_multicast(
            [0, 1], [2, 3],
            resolver=lambda p: net.core_router[p.dst_core],
            reader_keys=[2, 3],
            kind="wireless",
            medium=medium,
        )
        net.set_routing(SWMRRouting(net, ports))
        net.finalize()
        return net, medium

    def test_delivery_to_intended_receiver_only(self):
        net, medium = self.build()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 2, 4), (0, 1, 3, 4)]))
        sim.run(200)
        assert sim.stats.packets_ejected == 2
        assert medium.flits_carried == 8
        assert medium.multicast_degree == 2  # power model charges 2 receivers

    def test_token_serialises_writers(self):
        net, medium = self.build()
        sim = Simulator(net, traffic=ScriptedTraffic([(0, 0, 2, 4), (0, 1, 2, 4)]))
        sim.run(300)
        assert sim.stats.packets_ejected == 2
        assert medium.grants == 2

    def test_writers_to_same_reader_distinct_vcs(self):
        """Two writers to one reader must not interleave into one VC."""
        net, medium = self.build()
        sched = [(0, 0, 2, 4), (0, 1, 2, 4), (1, 0, 2, 4), (1, 1, 2, 4)]
        sim = Simulator(net, traffic=ScriptedTraffic(sched))
        sim.run(400)
        assert sim.stats.packets_ejected == 4
