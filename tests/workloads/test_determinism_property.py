"""Property tests: the workload-generator determinism contract.

Every generator must be a pure function of (params, n_cores, seed): the
same inputs produce byte-identical arrays (and an identical ``.npz`` on
one numpy version), different seeds produce different schedules, and the
compiled trace replays bit-identically through every execution path the
engine offers (fast-forward vs the naive schedule, serial vs parallel
executor). These are the guarantees the golden-trace CI gate leans on.
"""

import io

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import workload_names, workload_trace

NAMES = st.sampled_from(sorted(workload_names()))
SEEDS = st.integers(min_value=0, max_value=2**16 - 1)


def _npz_bytes(trace) -> bytes:
    buf = io.BytesIO()
    trace.save(buf)
    return buf.getvalue()


@settings(max_examples=25, deadline=None)
@given(name=NAMES, seed=SEEDS, n_cores=st.sampled_from([16, 64, 100]))
def test_same_inputs_byte_identical(name, seed, n_cores):
    a = workload_trace(name, n_cores, duration=300, seed=seed)
    b = workload_trace(name, n_cores, duration=300, seed=seed)
    assert a.content_crc() == b.content_crc()
    assert a.schema() == b.schema()
    assert _npz_bytes(a) == _npz_bytes(b)


@settings(max_examples=15, deadline=None)
@given(name=NAMES, seed=st.integers(min_value=0, max_value=2**15 - 1))
def test_different_seeds_differ(name, seed):
    a = workload_trace(name, 64, duration=300, seed=seed)
    b = workload_trace(name, 64, duration=300, seed=seed + 1)
    # A 32-bit CRC collision across an entire schedule is astronomically
    # unlikely; a *match* here means a generator ignored its seed.
    assert a.content_crc() != b.content_crc()


@settings(max_examples=10, deadline=None)
@given(name=NAMES, seed=SEEDS)
def test_generation_does_not_depend_on_call_order(name, seed):
    # Interleaving other generators between two identical calls must not
    # perturb the result: RNG streams are namespaced per workload.
    a = workload_trace(name, 64, duration=250, seed=seed)
    for other in sorted(workload_names()):
        workload_trace(other, 64, duration=250, seed=seed + 7)
    b = workload_trace(name, 64, duration=250, seed=seed)
    assert a.content_crc() == b.content_crc()
