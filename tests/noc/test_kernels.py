"""Flat slot sweep: binding, work-set coherence, and bit-identity.

The scheduler property suites (``tests/runtime/test_fastforward_property.py``
and ``tests/faults/test_recovery_property.py``) already prove the slot
sweep end-to-end -- fast untraced runs drive it by default. The tests here
pin the pieces those properties cannot localise: the slot layout binding,
the work lists agreeing with the object state mid-run (``sa_slots`` is
exactly the ACTIVE, occupied, unparked VCs), a link latency that does not
fit the simulator's event rings, a network of mixed VC counts (rejected:
the slot arithmetic needs one), the last hop's grant at an ejection sink
(no request queued there), and sweep == traced ``stage_sa`` == the naive
schedule (which still runs the sweep).
"""

import pytest

from repro.noc import Simulator
from repro.noc.buffers import VCState
from repro.noc.invariants import audit_network, check_kernel_coherence
from repro.noc.kernels import KernelState
from repro.noc.stats import StatsCollector
from repro.runtime.registry import build_topology
from repro.telemetry import Tracer
from repro.topologies import build_cmesh
from repro.traffic import ScriptedTraffic, SyntheticTraffic
from tests.reference import naive_schedule


def _delivery_log(sim):
    """Patch the collector to record (cycle, pid) ejections in order."""
    events = []
    orig = sim.stats.on_packet_ejected

    def patched(packet, now):
        events.append((now, packet.pid))
        return orig(packet, now)

    sim.stats.on_packet_ejected = patched
    return events


def _own256_sim(**kw):
    built = build_topology("own256")
    traffic = SyntheticTraffic(built.n_cores, "UN", 0.05, 4, seed=7, stop_cycle=300)
    return Simulator(built.network, traffic=traffic, **kw)


class TestBinding:
    def test_layout_and_views(self):
        built = build_cmesh(64)
        net = built.network
        k = KernelState.build(net)
        V = k.num_vcs
        for router in net.routers:
            base = k.vslot_base[router.rid]
            for ip, port in enumerate(router.input_ports):
                for iv, vc in enumerate(port.vcs):
                    s = base + ip * V + iv
                    assert vc.gslot == s
                    assert k.slot_router[s] is router
                    assert vc.in_port == ip
                    assert k.slot_vc[s] is vc

    def test_links_and_mediums_indexed(self):
        built = build_topology("own256")
        net = built.network
        k = KernelState.build(net)
        for li, link in enumerate(net.links):
            assert link.index == li
        assert len(net.mediums) > 0
        for mi, medium in enumerate(net.mediums):
            assert medium.index == mi

    def test_link_latency_must_fit_the_event_rings(self):
        built = build_cmesh(64)
        net = built.network
        KernelState.build(net, ring_size=2)  # latency 1 everywhere: fits
        net.links[5].latency = 2
        with pytest.raises(ValueError, match="does not fit"):
            KernelState.build(net, ring_size=2)
        # A simulator sizes its rings from the links it binds ...
        sim = Simulator(
            net, traffic=SyntheticTraffic(64, "UN", 0.02, 4, seed=1, stop_cycle=50)
        )
        assert len(sim._flit_ring) == len(sim._credit_ring) == 4
        sim.run(30)
        # ... so a latency raised behind its back is caught by a mid-life
        # re-layout instead of wrapping onto an earlier cycle.
        net.links[5].latency = 4
        with pytest.raises(ValueError, match=net.links[5].name):
            KernelState.build(net, len(sim._flit_ring))

    def test_mixed_vc_network_rejected(self):
        # Both forms of SA take a port's width from the network's num_vcs.
        net = build_cmesh(64).network
        net.routers[5].num_vcs = net.num_vcs + 1
        with pytest.raises(ValueError, match=r"router 5 has 5 VCs .* network 4"):
            KernelState.build(net)
        with pytest.raises(ValueError, match="router 5"):
            Simulator(net)


class TestCoherence:
    def test_work_lists_stay_coherent_mid_run(self):
        sim = _own256_sim()
        assert sim._sa_kernel
        for chunk in range(6):
            sim.run(50)
            audit_network(sim)  # includes check_kernel_coherence
        assert sim.stats.packets_ejected > 0

    def test_midlife_layout_rederives_the_work_lists(self):
        sim = _own256_sim()
        sim.run(120)
        old = sim.kernels
        assert old.sa_slots and any(
            link.sa_token_waiters for link in sim.network.links
        ), "scenario has no SA work / no parked VC to re-derive"
        new = KernelState.build(sim.network, len(sim._flit_ring))
        assert new.sa_slots == old.sa_slots
        assert new.rc_slots == old.rc_slots
        # The round-robin pointers are not derivable: they carry over.
        assert any(old.in_ptr) and any(old.out_ptr)
        assert new.in_ptr == old.in_ptr and new.in_ptr is not old.in_ptr
        assert new.out_ptr == old.out_ptr and new.out_ptr is not old.out_ptr
        assert sorted(new.vca_fresh) == sorted(
            s for s, vc in enumerate(new.slot_vc) if vc.state.name == "WAITING_VC"
        )

    def test_coherent_under_faults_and_drain(self):
        from repro.runtime.executor import execute_inline
        from repro.runtime.spec import FaultSpec, RunSpec

        spec = RunSpec.create(
            topology="own256",
            pattern="UN",
            rate=0.05,
            cycles=250,
            warmup=50,
            seed=7,
            drain=2000,
            faults=FaultSpec(kind="bursty", burst_rate=0.02, burst_duration=20),
        )
        _, sim, _ = execute_inline(spec)
        assert sim._sa_kernel
        audit_network(sim)


    def test_last_hop_queues_no_request_at_its_sink(self):
        # A sink refuses no head: RC queues no request there, and the next
        # VCA phase grants the head from vca_fresh. Heads bound for a router
        # still queue on its endpoint.
        sim = Simulator(
            build_cmesh(64).network, traffic=ScriptedTraffic([(0, 0, 63, 4)])
        )
        k = sim.kernels
        waited = {True: 0, False: 0}
        while not sim.stats.packets_ejected:
            assert sim.now < 100
            sim.step()
            for vc in k.slot_vc:
                if vc.state is VCState.WAITING_VC:
                    ep = vc.cand_endpoint
                    waited[ep.is_sink] += 1
                    if ep.is_sink:
                        assert ep.requests == () and vc.gslot in k.vca_fresh
                    else:
                        assert ep.requests == [vc.gslot]
            check_kernel_coherence(sim)
        assert waited[True] == 1 and waited[False] >= 1


class TestBitIdentity:
    def _run(self, **kw):
        sim = _own256_sim(**kw)
        events = _delivery_log(sim)
        sim.run(300)
        sim.drain()
        return events, sim

    def test_kernel_object_and_dense_paths_identical(self):
        kernel_events, ksim = self._run()
        assert ksim._sa_kernel
        with naive_schedule():
            naive_events, nsim = self._run()
        assert nsim._sa_kernel  # stepping every cycle changes no SA path
        # A metrics-only tracer keeps active-set scheduling and idle
        # fast-forward but drives SA through Router.stage_sa.
        object_events, osim = self._run(tracer=Tracer(record_events=False))
        assert not osim._sa_kernel
        assert kernel_events, "scenario delivered no packets"
        assert kernel_events == naive_events == object_events
        assert (
            tuple(ksim.stats.latencies)
            == tuple(nsim.stats.latencies)
            == tuple(osim.stats.latencies)
        )

    def test_both_sa_paths_advance_one_round_robin_state(self, monkeypatch):
        from repro.runtime.executor import execute_inline
        from repro.runtime.spec import RunSpec

        log = []
        on_packet_ejected = StatsCollector.on_packet_ejected

        def logged(stats, packet, now):
            log.append((now, packet.pid))
            return on_packet_ejected(stats, packet, now)

        monkeypatch.setattr(StatsCollector, "on_packet_ejected", logged)
        spec = RunSpec.create("own256", pattern="UN", rate=0.05, cycles=300, seed=7)
        _, sweep_sim, _ = execute_inline(spec)
        sweep_log, log[:] = log[:], []
        _, object_sim, _ = execute_inline(spec, tracer=Tracer(record_events=False))
        assert sweep_sim._sa_kernel and not object_sim._sa_kernel
        assert sweep_log and sweep_log == log
        sweep, obj = sweep_sim.kernels, object_sim.kernels
        assert any(sweep.in_ptr) and any(sweep.out_ptr)
        assert obj.in_ptr == sweep.in_ptr
        assert obj.out_ptr == sweep.out_ptr


class TestFootprint:
    def test_own1024_build_and_bind_fit_in_8_mib(self):
        """A bound OWN-1024 (5 376 input VCs) holds no per-VC container
        beyond a short list, and no arbiter objects."""
        import tracemalloc

        Simulator(build_topology("own1024").network)  # first-use imports
        tracemalloc.start()
        try:
            sim = Simulator(build_topology("own1024").network)
            allocated, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(sim.kernels.slot_vc) == 5376
        assert allocated <= 8 * 2**20, f"{allocated / 1024:.0f} KiB"
