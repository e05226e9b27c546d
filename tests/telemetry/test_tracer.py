"""Tracer behaviour: event ordering, zero-overhead-off, latency breakdown."""

from repro.noc import Simulator
from repro.telemetry import (
    BREAKDOWN_STAGES,
    EVENT_TYPES,
    FLIT_RECV,
    FLIT_SEND,
    PACKET_DONE,
    VC_STALL,
    Tracer,
)
from repro.topologies import build_cmesh
from repro.traffic import SyntheticTraffic


def run_cmesh(tracer, cycles=300, rate=0.05, seed=11):
    built = build_cmesh(64)
    sim = Simulator(
        built.network,
        traffic=SyntheticTraffic(64, "UN", rate, 4, seed=seed, stop_cycle=cycles),
        tracer=tracer,
    )
    sim.run(cycles)
    sim.drain()
    return sim


class TestEventStream:
    def test_cycles_monotonic(self):
        tracer = Tracer()
        run_cmesh(tracer)
        cycles = [ev.cycle for ev in tracer.events]
        assert cycles, "traced run produced no events"
        assert all(a <= b for a, b in zip(cycles, cycles[1:]))

    def test_event_types_are_known(self):
        tracer = Tracer()
        run_cmesh(tracer)
        assert {ev.etype for ev in tracer.events} <= set(EVENT_TYPES)

    def test_send_and_recv_balanced(self):
        tracer = Tracer()
        sim = run_cmesh(tracer)
        sends = sum(1 for ev in tracer.events if ev.etype == FLIT_SEND)
        recvs = sum(1 for ev in tracer.events if ev.etype == FLIT_RECV)
        # Fully drained, fault-free: every sent flit is delivered.
        assert sim.network.total_occupancy() == 0
        assert sends == recvs > 0

    def test_max_events_cap(self):
        tracer = Tracer(max_events=100)
        run_cmesh(tracer)
        assert len(tracer.events) == 100
        assert tracer.events_dropped > 0

    def test_metrics_only_mode_buffers_nothing(self):
        tracer = Tracer(record_events=False)
        run_cmesh(tracer)
        assert tracer.events == []
        assert tracer.emits > 0
        assert tracer.metrics.as_flat_dict()


class TestFlitPositions:
    def test_every_attempt_sends_one_complete_seq_run(self):
        # ``flit_send.seq`` is the flit's position in its packet, read from
        # the sender's front counter (a VC's, or the retransmit engine's).
        # On each link a packet's flits go out as whole attempts -- first
        # sends, link-layer retransmissions and re-routed recoveries alike
        # -- so its seqs are runs 0, 1, ..., size_flits - 1, in cycle order.
        from collections import defaultdict

        from repro.runtime.executor import execute_inline
        from repro.runtime.spec import FaultSpec, RunSpec

        spec = RunSpec.create(
            "own256_ft", topology_kwargs={"with_reconfiguration": True},
            pattern="UN", rate=0.03, cycles=800, warmup=100, drain=5000, seed=5,
            faults=FaultSpec(kind="bursty", seed=11, burst_rate=0.004,
                             burst_duration=150, snr_penalty_db=14.0, max_channel=4),
        )  # fmt: skip
        tracer = Tracer()
        _, sim, _ = execute_inline(spec, tracer=tracer)
        # Drained, so no attempt is cut short by the end of the run.
        assert sim.stats.packets_ejected == sim.stats.packets_created
        assert sim.stats.packets_retransmitted > 0 and sim.stats.flits_dropped > 0
        sends = defaultdict(list)
        for ev in tracer.events:
            if ev.etype == FLIT_SEND:
                sends[ev.component, ev.args["pid"]].append((ev.cycle, ev.args["seq"]))
        size = spec.traffic.packet_size
        retried = 0
        for key, flits in sends.items():
            cycles = [cycle for cycle, _ in flits]
            assert cycles == sorted(cycles) and len(set(cycles)) == len(cycles), key
            seqs = [seq for _, seq in flits]
            attempts, rest = divmod(len(seqs), size)
            assert not rest and seqs == list(range(size)) * attempts, (key, seqs)
            retried += attempts > 1
        assert retried, "no link carried a packet twice"


class TestDisabledTracer:
    """Off is ``tracer=None``; compared against a ``Tracer()`` run."""

    def test_disabled_tracer_results_bit_identical(self):
        sim_off = run_cmesh(None)
        tracer = Tracer()
        sim_on = run_cmesh(tracer)
        assert tracer.emits > 0
        base = (
            sim_off.stats.packets_ejected,
            tuple(sim_off.stats.latencies),
        )
        # Tracing must observe, never perturb, the simulation.
        assert (sim_on.stats.packets_ejected, tuple(sim_on.stats.latencies)) == base

    def test_disabled_tracer_not_bound_to_routers(self):
        # The tracer binds to the simulator alone; routers hold no
        # reference, and traced SA (Router.stage_sa) reads sim._tracer.
        sim = run_cmesh(None)
        assert sim._tracer is None and sim._sa_kernel
        tracer = Tracer()
        traced = run_cmesh(tracer)
        assert traced._tracer is tracer and not traced._sa_kernel
        assert not any(hasattr(r, "tracer") for r in traced.network.routers)
        assert any(ev.etype == VC_STALL for ev in tracer.events)


class TestLatencyBreakdown:
    def test_breakdown_sums_to_total(self):
        tracer = Tracer()
        run_cmesh(tracer)
        done = [ev for ev in tracer.events if ev.etype == PACKET_DONE]
        assert done, "no packets completed"
        for ev in done:
            parts = sum(ev.args[stage] for stage in BREAKDOWN_STAGES)
            assert parts == ev.args["total"], ev.args

    def test_breakdown_histograms_cover_all_packets(self):
        tracer = Tracer()
        sim = run_cmesh(tracer)
        flat = tracer.metrics.as_flat_dict()
        counts = [
            v for k, v in flat.items() if k.startswith("pkt_total[") and k.endswith(".count")
        ]
        assert sum(counts) == sim.stats.packets_ejected

    def test_stages_nonnegative(self):
        tracer = Tracer()
        run_cmesh(tracer)
        for ev in tracer.events:
            if ev.etype == PACKET_DONE:
                assert all(ev.args[s] >= 0 for s in BREAKDOWN_STAGES)
