"""Property test: dense stepping and fast-forward scheduling are bit-identical.

The active-set scheduler (``Simulator.dense=False``, the default) may only
change wall-clock behaviour: every packet must be delivered at exactly the
same cycle as under dense per-cycle polling. This is the load-bearing
guarantee behind the committed golden baselines, so it is checked as a
hypothesis property across random seeds, injection rates, topologies and
fault campaigns rather than at a handful of hand-picked points.

``dense`` only switches the clock skip off -- it implies no per-cycle
polling of anything: both of those arms drive SA through the flat slot
sweep and allocate VCs at the endpoints, event-driven -- so two more arms
run the same scenarios: a metrics-only tracer, which selects the per-router
``stage_sa`` (sweep == object path), and ``tests.reference.poll_every_cycle``,
which re-examines every waiting head every cycle as VC allocation did before
it moved to the endpoint (no wake-up is ever missed).
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.stats import StatsCollector
from repro.runtime.executor import execute_inline
from repro.runtime.spec import FaultSpec, RunSpec
from repro.telemetry import Tracer
from tests.reference import poll_every_cycle


@contextmanager
def delivery_log():
    """Record every (cycle, packet id) ejection, in delivery order."""
    events = []
    orig = StatsCollector.on_packet_ejected

    def patched(self, packet, now):
        events.append((now, packet.pid))
        return orig(self, packet, now)

    StatsCollector.on_packet_ejected = patched
    try:
        yield events
    finally:
        StatsCollector.on_packet_ejected = orig


def _run(topology, rate, seed, faults, dense, tracer=None, cycles=300):
    key, kwargs = topology
    spec = RunSpec.create(
        topology=key,
        topology_kwargs=kwargs,
        pattern="UN",
        rate=rate,
        cycles=cycles,
        warmup=100,
        seed=seed,
        faults=faults,
        dense=dense,
    )
    with delivery_log() as events:
        _, sim, result = execute_inline(spec, tracer=tracer)
    assert sim._sa_kernel == (tracer is None)
    return events, tuple(sim.stats.latencies), result.summary


FAULTS = st.sampled_from(
    [
        None,
        FaultSpec(kind="bursty", burst_rate=0.02, burst_duration=20),
        FaultSpec(kind="death", at=120),
    ]
)


@settings(max_examples=12, deadline=None)
@given(
    topology=st.sampled_from([("own256", None), ("cmesh", {"n_cores": 256})]),
    rate=st.sampled_from([0.02, 0.05, 0.08]),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
    faults=FAULTS,
)
def test_dense_and_fast_deliver_identically(topology, rate, seed, faults):
    if topology[0] != "own256":
        faults = None  # fault campaigns target wireless channels
    fast = _run(topology, rate, seed, faults, dense=False)
    assert fast[0], "scenario delivered no packets; raise rate/cycles"
    assert fast == _run(topology, rate, seed, faults, dense=True)
    assert fast == _run(
        topology, rate, seed, faults, dense=False,
        tracer=Tracer(record_events=False),
    )
    with poll_every_cycle():
        assert fast == _run(topology, rate, seed, faults, dense=False)


def test_saturated_own1024_matches_polling_every_cycle():
    # Deep saturation at kilo-core scale, where nine in ten polls of the
    # requester-side VCA failed: the regime event-driven allocation is for.
    fast = _run(("own1024", None), 0.05, 3, None, dense=False, cycles=200)
    assert fast[0], "scenario delivered no packets"
    with poll_every_cycle():
        assert fast == _run(("own1024", None), 0.05, 3, None, dense=False, cycles=200)
