"""Property tests: probe recovery preserves the engine's determinism.

Two load-bearing guarantees from the "Recovery" section of
``docs/fault-tolerance.md``:

1. a recovering run delivers bit-identically under active-set
   fast-forward, ``tests.reference.naive_schedule()`` and the traced
   ``Router.stage_sa`` path (recovery epochs are scheduled wake sources,
   never "missed" by a clock skip);
2. the decision log is byte-stable -- same spec, same canonical bytes,
   same CRC -- which is what lets CI pin ``control_log_crc`` exactly.
"""

from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.noc.stats import StatsCollector
from repro.runtime.executor import execute_inline
from repro.runtime.spec import ControlSpec, FaultSpec, RunSpec
from repro.telemetry import Tracer
from tests.reference import naive_schedule


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


def _run(rate, seed, faults, tracer=None):
    spec = RunSpec.create(
        topology="own256_ft",
        topology_kwargs={"with_reconfiguration": True},
        pattern="UN",
        rate=rate,
        cycles=600,
        warmup=100,
        seed=seed,
        faults=faults,
        control=ControlSpec(epoch_cycles=150),
    )
    with delivery_log() as events:
        _, sim, result = execute_inline(spec, tracer=tracer)
    assert sim._sa_kernel == (tracer is None)
    return events, result


FAULTS = st.sampled_from(
    [
        FaultSpec(kind="bursty", burst_rate=0.0),  # calm: the plant, no fault
        FaultSpec(kind="bursty", burst_rate=0.002, burst_duration=150,
                  snr_penalty_db=14.0, max_channel=4),
        FaultSpec(kind="death", at=150),
    ]
)


@settings(max_examples=6, deadline=None)
@given(
    rate=st.sampled_from([0.02, 0.05]),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
    faults=FAULTS,
)
def test_recovery_runs_deliver_identically_naive_fast_and_traced(rate, seed, faults):
    fast_events, fast = _run(rate, seed, faults)
    with naive_schedule():
        naive_events, naive = _run(rate, seed, faults)
    # Both of the above run the flat slot sweep; a metrics-only tracer
    # selects Router.stage_sa.
    object_events, objects = _run(
        rate, seed, faults, tracer=Tracer(record_events=False)
    )

    assert fast_events, "scenario delivered no packets; raise rate/cycles"
    assert fast_events == naive_events == object_events
    # Summaries include control_log_crc.
    assert fast.summary == naive.summary == objects.summary
    assert fast.meta["control"] == naive.meta["control"] == objects.meta["control"]


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16 - 1),
    kind=st.sampled_from(["death", "calm"]),
)
def test_without_a_recovery_the_run_is_the_open_loop_plant(seed, kind):
    """Spares have one placement policy, the controller's re-pointer, with
    or without recovery: where no channel recovers (a dead channel never
    probes clean; a calm campaign fails nothing) the monitor only logs."""

    def faults(failover):
        if kind == "death":
            return FaultSpec(kind="death", at=150, failover=failover,
                             reconfig_epoch=150)
        return FaultSpec(kind="bursty", burst_rate=0.0, failover=failover,
                         reconfig_epoch=150)

    spec = RunSpec.create(
        topology="own256_ft", topology_kwargs={"with_reconfiguration": True},
        pattern="UN", rate=0.05, cycles=600, warmup=100, seed=seed,
    )
    with delivery_log() as open_events:
        _, _, open_loop = execute_inline(spec.with_(faults=faults(True)))
    with delivery_log() as control_events:
        _, _, control = execute_inline(spec.with_(
            faults=faults(False), control=ControlSpec(epoch_cycles=150)))

    assert open_events and control_events == open_events
    assert control.summary["channels_recovered_ctl"] == 0
    shared = {k: v for k, v in control.summary.items() if k in open_loop.summary}
    assert shared == open_loop.summary
    assert control.meta["reconfig"] == open_loop.meta["reconfig"]


def test_recovery_runs_identical_serial_and_parallel():
    from repro.runtime import Executor

    faults = FaultSpec(kind="bursty", burst_rate=0.002, burst_duration=150,
                       snr_penalty_db=14.0, max_channel=4)
    specs = [
        RunSpec.create(
            topology="own256_ft",
            topology_kwargs={"with_reconfiguration": True},
            pattern="UN", rate=rate, cycles=600, warmup=100, seed=5,
            faults=faults, control=ControlSpec(epoch_cycles=150),
        )
        for rate in (0.02, 0.05)
    ]
    serial = Executor(jobs=1).run(specs)
    parallel = Executor(jobs=2).run(specs)
    assert [r.summary for r in parallel] == [r.summary for r in serial]
    assert [r.meta["control"] for r in parallel] == [
        r.meta["control"] for r in serial
    ]


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16 - 1))
def test_decision_log_is_byte_stable_across_reruns(seed):
    faults = FaultSpec(kind="bursty", burst_rate=0.002, burst_duration=150,
                       snr_penalty_db=14.0, max_channel=4)
    _, first = _run(0.05, seed, faults)
    _, second = _run(0.05, seed, faults)

    assert first.meta["control"]["decisions"] == second.meta["control"]["decisions"]
    assert first.summary["control_log_crc"] == second.summary["control_log_crc"]
    assert first.meta["control"]["log"] == second.meta["control"]["log"]
