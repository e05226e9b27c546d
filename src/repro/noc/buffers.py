"""Virtual-channel input buffers and their per-packet control state.

Each router input port owns ``num_vcs`` virtual channels; each VC is a FIFO
of flits plus the classic VC state machine:

``IDLE`` -> (RC routes the head flit at the front) -> ``WAITING_VC`` (queued
on the downstream endpoint for VC allocation) -> ``ACTIVE`` (competing in SA)
-> back to ``IDLE`` once the tail flit leaves.

These are plain state holders: a flit enters a VC in
``Router.deliver_flit`` and leaves it in ``Router._transmit``, and the
stage sweeps of :mod:`repro.noc.kernels` visit only the VCs with work.

A buffered flit is not an object: the FIFO holds one reference to the
flit's packet per buffered flit, and ``sent`` counts the flits of the front
packet that have already left. The front flit is therefore the head while
``sent == 0`` and the tail at ``sent == size_flits - 1``; the count resets
when the tail leaves. Flits of a packet arrive in order and a VC's packets
never interleave, so the count is all the position a flit needs.
"""

from __future__ import annotations

import enum
from typing import List, Optional, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.noc.packet import Packet


class VCState(enum.IntEnum):
    """Virtual-channel allocation state machine."""

    IDLE = 0
    WAITING_VC = 1
    ACTIVE = 2


#: The states by name. ``EnumType`` defines ``__getattr__``, so CPython 3.11
#: never specializes a ``VCState.X`` load; code inside functions loads these.
IDLE, WAITING_VC, ACTIVE = VCState.IDLE, VCState.WAITING_VC, VCState.ACTIVE


class VirtualChannel:
    """One VC FIFO and its control state.

    Parameters
    ----------
    depth:
        Buffer depth in flits. Credit-based flow control guarantees the
        upstream router never overruns this; ``Router.deliver_flit`` still
        asserts it as a simulator-invariant check.
    """

    __slots__ = (
        "index",
        "depth",
        "queue",
        "sent",
        "state",
        "out_port",
        "out_vc",
        "endpoint",
        "cand_endpoint",
        "cand_vcs",
        "cand_mask",
        "gslot",
        "in_port",
        "upstream",
    )

    def __init__(self, index: int, depth: int) -> None:
        if depth < 1:
            raise ValueError(f"VC depth must be >= 1, got {depth}")
        self.index = index
        self.depth = depth
        # One packet reference per buffered flit. A plain list, not a
        # deque: credit flow control caps it at ``depth`` flits, so taking
        # the front (``del queue[0]``) shifts at most a few pointers, and an
        # empty list is ~56 B against an empty deque's ~760 B -- at
        # kilo-core scale, most of a network's buffers.
        self.queue: List["Packet"] = []
        # Flits of the packet passing through that have already left: the
        # front flit's position. Nonzero only mid-packet (ACTIVE), also
        # while the queue has run dry waiting for the rest of the packet.
        self.sent = 0
        self.state: VCState = IDLE
        # Bound by repro.noc.kernels.KernelState: this VC's slot id in the
        # network-wide flat slot space (-1 until then), the index of the
        # input port it belongs to, and that port's Endpoint -- where the
        # credit for a departing flit returns.
        self.gslot: int = -1
        self.in_port: int = -1
        self.upstream = None
        # Route decision for the packet currently occupying this VC:
        self.out_port: Optional[int] = None  # output port index at this router
        self.out_vc: Optional[int] = None  # allocated VC at the downstream input
        self.endpoint = None  # repro.noc.links.Endpoint resolved for this packet
        # VCA candidates cached at RC time: both the downstream endpoint and
        # the admissible VC set are static per (router, out_port, packet), so
        # VC allocation never re-runs the routing function. ``cand_mask`` is
        # ``cand_vcs`` as a bitmask: one AND tells a woken endpoint whether
        # this head can use any of the VCs that are free.
        self.cand_endpoint = None
        self.cand_vcs: Optional[tuple] = None
        self.cand_mask = 0

    def release(self) -> None:
        """Return to IDLE after the tail flit departs."""
        self.state = IDLE
        self.sent = 0
        self.out_port = None
        self.out_vc = None
        self.endpoint = None
        self.cand_endpoint = None
        self.cand_vcs = None


class InputPort:
    """A router input port: a bank of virtual channels."""

    __slots__ = ("index", "vcs", "kind")

    def __init__(self, index: int, num_vcs: int, vc_depth: int, kind: str = "electrical") -> None:
        if num_vcs < 1:
            raise ValueError(f"num_vcs must be >= 1, got {num_vcs}")
        self.index = index
        self.kind = kind
        self.vcs: List[VirtualChannel] = [VirtualChannel(v, vc_depth) for v in range(num_vcs)]

    @property
    def num_vcs(self) -> int:
        return len(self.vcs)

    def total_occupancy(self) -> int:
        return sum(len(vc.queue) for vc in self.vcs)
