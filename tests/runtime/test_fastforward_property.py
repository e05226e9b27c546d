"""Property test: the production scheduler and the naive one are bit-identical.

The active-set scheduler (idle fast-forward, event-driven VC allocation)
may only change wall-clock behaviour: every packet must be delivered at
exactly the same cycle as under ``tests.reference.naive_schedule()``, which
steps every cycle and re-examines every waiting head every cycle (no
wake-up is ever missed). This is the load-bearing guarantee behind the
committed golden baselines, so it is checked as a hypothesis property
across random seeds, injection rates, topologies and fault campaigns rather
than at a handful of hand-picked points -- and by replaying the golden
own256 sweep itself under the naive schedule.

A third arm attaches a metrics-only tracer, which selects the per-router
``stage_sa`` instead of the flat slot sweep (sweep == object path).
"""

from contextlib import contextmanager
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.diffing import diff_runlogs
from repro.analysis.sweep import point_spec
from repro.noc.stats import StatsCollector
from repro.runtime.executor import Executor, execute_inline
from repro.runtime.spec import FaultSpec, RunSpec
from repro.telemetry import Tracer
from tests.reference import naive_schedule

GOLDEN_SWEEP = Path(__file__).resolve().parents[2] / "results/golden/own256-sweep.jsonl"


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


def _run(topology, rate, seed, faults, tracer=None, cycles=300):
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
def test_production_and_naive_schedule_deliver_identically(topology, rate, seed, faults):
    if topology[0] != "own256":
        faults = None  # fault campaigns target wireless channels
    fast = _run(topology, rate, seed, faults)
    assert fast[0], "scenario delivered no packets; raise rate/cycles"
    assert fast == _run(topology, rate, seed, faults, tracer=Tracer(record_events=False))
    with naive_schedule():
        assert fast == _run(topology, rate, seed, faults)


def test_saturated_own1024_matches_polling_every_cycle():
    # Deep saturation at kilo-core scale, where nine in ten polls of the
    # requester-side VCA failed: the regime event-driven allocation is for.
    fast = _run(("own1024", None), 0.05, 3, None, cycles=200)
    assert fast[0], "scenario delivered no packets"
    with naive_schedule():
        assert fast == _run(("own1024", None), 0.05, 3, None, cycles=200)


def test_naive_schedule_replays_the_golden_sweep(tmp_path):
    # The golden log was written by the production scheduler; stepping
    # every cycle must reproduce each of its gated metrics at 0 %.
    runlog = tmp_path / "naive.jsonl"
    specs = [point_spec("own256", "UN", rate, 300, 100) for rate in (0.01, 0.03)]
    with naive_schedule():
        Executor(runlog=runlog).run(specs)
    diff = diff_runlogs(GOLDEN_SWEEP, runlog, 0.0)
    assert len(diff.matched) == 2
    assert not diff.only_a and not diff.only_b
    assert diff.clean, diff.breaches()
