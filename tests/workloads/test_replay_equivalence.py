"""Workload replay is bit-identical across every engine execution path.

A ``kind="workload"`` run compiles its trace inside the worker, so the
engine's equivalence guarantees must be re-checked on this path: the
active-set scheduler's fast-forward peeks at the static schedule (no RNG
draws), so it matches ``tests.reference.naive_schedule()``, and parallel
workers regenerate the identical trace from the frozen spec.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.executor import Executor, execute_inline
from repro.runtime.spec import RunSpec
from repro.telemetry import Tracer
from repro.workloads import workload_names
from tests.reference import naive_schedule


def _spec(name: str, seed: int) -> RunSpec:
    return RunSpec.create(
        "cmesh",
        topology_kwargs={"n_cores": 64},
        pattern=f"wl-{name}",
        rate=0.0,
        cycles=300,
        warmup=100,
        seed=seed,
        traffic_kind="workload",
        workload=name,
    )


def _summary(spec: RunSpec, tracer=None):
    _, sim, result = execute_inline(spec, tracer=tracer)
    assert sim._sa_kernel == (tracer is None)
    return result.summary


@settings(max_examples=10, deadline=None)
@given(
    name=st.sampled_from(sorted(workload_names())),
    seed=st.integers(min_value=0, max_value=2**16 - 1),
)
def test_dense_and_fast_forward_identical(name, seed):
    fast = _summary(_spec(name, seed))
    with naive_schedule():
        naive = _summary(_spec(name, seed))
    # Both of the above run the flat slot sweep; a metrics-only tracer
    # selects Router.stage_sa.
    objects = _summary(_spec(name, seed), tracer=Tracer(record_events=False))
    assert fast["packets_measured"] > 0
    assert fast == naive == objects


def test_serial_and_parallel_identical():
    specs = [_spec(name, seed=3) for name in sorted(workload_names())]
    serial = Executor(jobs=1).run(specs)
    parallel = Executor(jobs=4).run(specs)
    assert [r.summary for r in serial] == [r.summary for r in parallel]
    assert [r.digest for r in serial] == [r.digest for r in parallel]
    assert all(r.summary["packets_measured"] > 0 for r in serial)
