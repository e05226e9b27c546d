"""The lone-packet express books exactly what stepping every cycle would.

``Simulator._express`` books a packet that is alone in the network in one
step. Production must then agree with ``tests.reference.naive_schedule()``
(which never fast-forwards, so never takes the express) on the delivery
log, the latencies and the summary, and on the state the packet leaves
behind: every router's grant counters and SA pointers, every link's timer
and flit count, every medium's token state, every endpoint's credits and
busy flags, the VCs and the buffered-flit count. The networks are the five
256-core ones and OWN-1024, at rates where most packets travel alone.
"""

from contextlib import nullcontext

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.core import build_fault_tolerant_own256
from repro.noc.simulator import Simulator
from repro.runtime.registry import NAMED_TOPOLOGIES, build_ref
from repro.telemetry import Tracer
from repro.traffic import SyntheticTraffic
from tests.reference import naive_schedule

#: Network -> UN rates (flits/core/cycle) at which a packet arrives every
#: ~30-80 cycles: a packet is often alone for its whole life.
NETWORKS = {
    "own256": (0.0002, 0.0005, 0.001),
    "cmesh256": (0.0002, 0.0005),
    "optxb256": (0.0002, 0.0005),
    "pclos256": (0.0002, 0.0005, 0.001),
    "wcmesh256": (0.0002, 0.0005, 0.001),
    "own1024": (0.0001, 0.0002),
}
CYCLES = 1500


def _sim(name, rate, seed, **kwargs):
    built = build_ref(NAMED_TOPOLOGIES[name])
    traffic = SyntheticTraffic(built.n_cores, "UN", rate, 4, seed=seed)
    sim = Simulator(built.network, traffic=traffic, warmup_cycles=200, **kwargs)
    log = []
    eject = sim.stats.on_packet_ejected

    def recording(packet, now):
        log.append((now, packet.pid, packet.t_inject, packet.hops,
                    packet.wireless_hops, packet.photonic_hops, packet.electrical_hops))
        return eject(packet, now)

    sim.stats.on_packet_ejected = recording
    return sim, log


def _state(sim):
    """Everything a packet's life writes that outlives it."""
    net, kern = sim.network, sim.kernels
    return {
        "routers": [(r.sa_grants, r.vca_grants) for r in net.routers],
        "in_ptr": list(kern.in_ptr),
        "out_ptr": list(kern.out_ptr),
        "links": [(l.busy_until, l.flits_carried) for l in net.links],
        "media": [
            (m.holder and m.holder.name, m._rr_next, m.grants, m.grant_at,
             m.busy_until, m.token_wait_cycles, len(m.requesters))
            for m in net.mediums
        ],
        "endpoints": [
            (tuple(ep.credits), tuple(ep.vc_busy), tuple(ep.requests), ep.min_size)
            for r in net.routers for ep in r.input_endpoints
        ],
        "vcs": [(vc.state, vc.sent, len(vc.queue), vc.cand_mask) for vc in kern.slot_vc],
        "nis": [(ni.flits_injected, len(ni.queue)) for ni in net.interfaces],
        "buffered": kern.buffered,
        "clock": (sim.now, sim._last_progress, sim.stats.last_cycle),
    }


def _outcome(sim, log):
    return log, tuple(sim.stats.latencies), sim.summary(), _state(sim)


@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=2, deadline=None)
@given(data=st.data(), seed=st.integers(min_value=0, max_value=2**16 - 1))
def test_express_equals_stepping_every_cycle(name, data, seed):
    rate = data.draw(st.sampled_from(NETWORKS[name]), label="rate")
    fast, fast_log = _sim(name, rate, seed)
    fast.run(CYCLES)
    assert fast.express_packets > 0
    assert fast_log, "scenario delivered no packets"
    naive, naive_log = _sim(name, rate, seed)
    with naive_schedule():
        naive.run(CYCLES)
    assert naive.express_packets == 0
    assert _outcome(fast, fast_log) == _outcome(naive, naive_log)


def test_a_run_boundary_inside_a_lone_life_keeps_the_flit_path():
    # Find a packet the express books whole, then end a run halfway
    # through its life: that run cannot book it (its life ends after the
    # run does), and run(a); run(b) must still equal run(a + b).
    booked = []
    express = Simulator._express

    def recording(sim, now):
        moved = express(sim, now)
        if moved:
            booked.append((now, sim.now))
        return moved

    probe, _ = _sim("own256", 0.001, 5)
    Simulator._express = recording
    try:
        probe.run(CYCLES)
    finally:
        Simulator._express = express
    start, after = booked[len(booked) // 2]
    assert after - start > 2
    a = (start + after) // 2

    whole, whole_log = _sim("own256", 0.001, 5)
    whole.run(CYCLES)
    split, split_log = _sim("own256", 0.001, 5)
    split.run(a)
    split.run(CYCLES - a)
    assert split.express_packets == whole.express_packets - 1
    assert _outcome(split, split_log) == _outcome(whole, whole_log)


class _Observer:
    def __call__(self, sim):
        pass

    def next_wake(self, now):
        return None


@pytest.mark.parametrize(
    "extra", [{"tracer": Tracer(record_events=False)}, {"hooks": (_Observer(),)}],
    ids=["traced", "hooked"],
)
def test_traced_and_hooked_runs_keep_the_flit_path(extra):
    sim, log = _sim("own256", 0.0005, 3, **extra)
    sim.run(CYCLES)
    assert log and sim.express_packets == 0
    plain, plain_log = _sim("own256", 0.0005, 3)
    plain.run(CYCLES)
    assert plain.express_packets > 0
    assert (log, sim.summary()) == (plain_log, plain.summary())


def test_a_relaying_network_keeps_the_flit_path():
    # A routing with failed channels counts each relayed packet in
    # ``compute``; the express leaves such a network alone, so the count
    # and every delivery equal stepping every cycle.
    outcomes = []
    for schedule in (nullcontext, naive_schedule):
        built = build_fault_tolerant_own256()
        routing = built.notes["routing"]
        routing.fail_channel(0, 2)
        sim = Simulator(
            built.network, traffic=SyntheticTraffic(256, "UN", 0.0005, 4, seed=7)
        )
        with schedule():
            sim.run(CYCLES)
        assert sim.express_packets == 0
        outcomes.append((routing.relayed_packets, sim.stats.latencies, sim.summary()))
    assert outcomes[0] == outcomes[1] and outcomes[0][0] > 0
