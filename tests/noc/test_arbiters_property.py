"""Property tests pinning down the round-robin grant semantics.

The switch allocator -- the flat slot sweep (:mod:`repro.noc.kernels`) and
``Router.stage_sa``, over the same ``KernelState.in_ptr`` / ``out_ptr`` --
has no arbiter objects: it computes the grant as ``argmin((idx - ptr) %
n)`` over the candidate set, with the pointer advancing to ``winner + 1``.
The scan arbiter in ``tests/reference.py`` is the definition; these
properties are the contract both forms must satisfy, and the equivalence
tests at the bottom drive random request traces through the scan and the
closed-form rule side by side, so any semantic drift between the two fails
here before it can surface as a golden-log diff.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.reference import RoundRobinArbiter


def _kernel_grant(ptr: int, requests, n: int):
    """The closed-form grant used by the slot sweep.

    Winner is the requester at minimal cyclic distance from the priority
    pointer; the pointer moves to the slot after the winner.
    """
    cands = [i for i in range(n) if requests[i]]
    if not cands:
        return None, ptr
    win = min(cands, key=lambda i: (i - ptr) % n)
    return win, (win + 1) % n


REQUEST_TRACES = st.lists(
    st.lists(st.booleans(), min_size=1, max_size=8),
    min_size=1,
    max_size=40,
).filter(lambda trace: len({len(req) for req in trace}) == 1)


@settings(max_examples=200, deadline=None)
@given(trace=REQUEST_TRACES)
def test_grant_is_requesting_and_unique(trace):
    """Every grant goes to a requester; no-request rounds grant None and
    leave the priority pointer untouched."""
    n = len(trace[0])
    arb = RoundRobinArbiter(n)
    for requests in trace:
        before = arb._next
        winner = arb.grant(requests)
        if not any(requests):
            assert winner is None
            assert arb._next == before
        else:
            assert winner is not None and requests[winner]
            assert arb._next == (winner + 1) % n


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=8),
    start=st.integers(min_value=0, max_value=7),
    rounds=st.integers(min_value=1, max_value=24),
)
def test_rotation_fairness_under_full_load(n, start, rounds):
    """With all inputs requesting, grants walk 0,1,...,n-1 cyclically from
    the pointer -- any window of n grants serves every input exactly once."""
    arb = RoundRobinArbiter(n)
    arb._next = start % n
    grants = [arb.grant([True] * n) for _ in range(rounds)]
    expected = [(start + i) % n for i in range(rounds)]
    assert grants == expected


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=8),
    ptr=st.integers(min_value=0, max_value=7),
    req=st.integers(min_value=0, max_value=7),
)
def test_single_requester_always_wins_regardless_of_pointer(n, ptr, req):
    req %= n
    arb = RoundRobinArbiter(n)
    arb._next = ptr % n
    requests = [False] * n
    requests[req] = True
    assert arb.grant(requests) == req
    assert arb._next == (req + 1) % n


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=2, max_value=8))
def test_wraparound_past_end_of_vector(n):
    """A pointer past every requester wraps to the lowest index."""
    arb = RoundRobinArbiter(n)
    arb._next = n - 1
    requests = [True] + [False] * (n - 1)
    assert arb.grant(requests) == 0
    assert arb._next == 1


@settings(max_examples=300, deadline=None)
@given(trace=REQUEST_TRACES)
def test_kernel_grant_formula_matches_object_arbiter(trace):
    """The sweep's (idx - ptr) % n argmin is the round-robin scan."""
    n = len(trace[0])
    arb = RoundRobinArbiter(n)
    ptr = 0
    for requests in trace:
        expect = arb.grant(requests)
        got, ptr = _kernel_grant(ptr, requests, n)
        assert got == expect
        assert ptr == arb._next


@settings(max_examples=100, deadline=None)
@given(trace=REQUEST_TRACES)
def test_lexsort_winner_matches_scan(trace):
    """A stable sort by cyclic distance picks the same winner as the
    distance scan (ties cannot occur: distances are distinct mod n)."""
    n = len(trace[0])
    arb = RoundRobinArbiter(n)
    ptr = 0
    for requests in trace:
        expect = arb.grant(requests)
        cands = np.flatnonzero(np.asarray(requests, dtype=bool))
        if cands.size == 0:
            assert expect is None
            continue
        dist = (cands - ptr) % n
        order = np.lexsort((dist,))
        got = int(cands[order[0]])
        assert got == expect
        ptr = (got + 1) % n
