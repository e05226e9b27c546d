"""Round-robin arbiter correctness and fairness, including a property check.

The arbiter is the reference definition in ``tests/reference.py``; the
switch allocator inlines it (see ``test_arbiters_property.py``).
"""

import pytest
from hypothesis import given, strategies as st

from tests.reference import RoundRobinArbiter


class TestRoundRobin:
    def test_no_request_no_grant(self):
        assert RoundRobinArbiter(4).grant([False] * 4) is None

    def test_single_requester_wins(self):
        arb = RoundRobinArbiter(4)
        assert arb.grant([False, False, True, False]) == 2

    def test_rotation_after_grant(self):
        arb = RoundRobinArbiter(3)
        all_req = [True, True, True]
        assert arb.grant(all_req) == 0
        assert arb.grant(all_req) == 1
        assert arb.grant(all_req) == 2
        assert arb.grant(all_req) == 0

    def test_strong_fairness(self):
        """Every continuously-requesting input is served within n grants."""
        n = 5
        arb = RoundRobinArbiter(n)
        served = set()
        for _ in range(n):
            served.add(arb.grant([True] * n))
        assert served == set(range(n))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(4).grant([True] * 3)

    def test_zero_requesters_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinArbiter(0)

    @given(st.lists(st.booleans(), min_size=1, max_size=12))
    def test_grant_is_always_a_requester(self, requests):
        arb = RoundRobinArbiter(len(requests))
        winner = arb.grant(requests)
        if any(requests):
            assert winner is not None and requests[winner]
        else:
            assert winner is None

