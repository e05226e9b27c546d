"""The rotating-priority arbiter of the router's switch allocator.

The paper assumes a regular 5-stage virtual-channel router (RC, VCA, SA, ST,
LT) whose SA stage needs fair arbiters. :class:`RoundRobinArbiter` is the
one this simulator uses, per input port and per output port: strong
fairness, O(n) per grant.
"""

from __future__ import annotations

from typing import Optional, Sequence


class RoundRobinArbiter:
    """Rotating-priority arbiter over ``n`` requesters.

    After a grant, priority moves to the requester *after* the winner, which
    yields strong fairness (every continuously-requesting input is served
    within ``n`` grants).
    """

    __slots__ = ("n", "_next")

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"arbiter needs >= 1 requesters, got {n}")
        self.n = n
        self._next = 0

    def grant(self, requests: Sequence[bool]) -> Optional[int]:
        """Return the granted requester index, or ``None`` if none request.

        ``requests`` must have length ``n``; entry ``i`` is truthy when
        requester ``i`` wants the resource this cycle.
        """
        if len(requests) != self.n:
            raise ValueError(f"expected {self.n} request lines, got {len(requests)}")
        for offset in range(self.n):
            idx = (self._next + offset) % self.n
            if requests[idx]:
                self._next = (idx + 1) % self.n
                return idx
        return None
