"""The packet data type of the flit-level cycle simulator.

A *packet* is the unit of end-to-end communication between two cores; it is
segmented into *flits* (flow-control digits), the unit of buffer allocation
and link traversal. The paper simulates a standard 5-stage virtual-channel
router, so packets carry the metadata needed by routing (destination core,
the drain protocol's escape latch) and statistics (timestamps, hop counts).
A packet has no id of its own making: the simulator that accepts it from
``traffic.tick`` numbers it, so ids count from 0 in every simulator and no
counter outlives a run.

A flit is not an object: it is its packet plus its position in that packet
(0 is the head, ``size_flits - 1`` the tail). A buffer holds one reference
to the packet per buffered flit and counts how many flits of its front
packet have already left (``VirtualChannel.sent``,
``NetworkInterface.sent``); a flit in flight on a link is a ring entry
carrying the packet and whether the flit is the tail. Hop counters and
timestamps live once, on the packet, so ``Packet`` uses ``__slots__``.
"""

from __future__ import annotations

from typing import Optional


class Packet:
    """A multi-flit message from ``src_core`` to ``dst_core``.

    Parameters
    ----------
    src_core, dst_core:
        Flat core indices (0 .. n_cores-1). Topologies translate these to
        router/port coordinates via their own addressing schemes.
    size_flits:
        Number of flits the packet serialises into (>= 1).
    t_create:
        Cycle at which the traffic generator created the packet (queueing at
        the source NI counts towards latency, as usual for open-loop sims).
    pid:
        Packet id. Traffic sources leave it ``None``: the
        :class:`~repro.noc.simulator.Simulator` numbers each packet as it
        accepts it from ``traffic.tick``, so ids count from 0 per simulator.
        Pass one only when injecting by hand
        (:meth:`~repro.noc.network.Network.inject_packet`) into a run whose
        tracer or fault layer keys on it.
    """

    __slots__ = (
        "pid",
        "src_core",
        "dst_core",
        "size_flits",
        "t_create",
        "t_inject",
        "t_eject",
        "hops",
        "wireless_hops",
        "photonic_hops",
        "electrical_hops",
        "measured",
        "escaped",
    )

    def __init__(
        self,
        src_core: int,
        dst_core: int,
        size_flits: int,
        t_create: int,
        pid: Optional[int] = None,
    ) -> None:
        if size_flits < 1:
            raise ValueError(f"size_flits must be >= 1, got {size_flits}")
        if src_core == dst_core:
            raise ValueError("packet source and destination cores must differ")
        self.pid = pid
        self.src_core = src_core
        self.dst_core = dst_core
        self.size_flits = size_flits
        self.t_create = t_create
        self.t_inject: Optional[int] = None  # first flit enters the network
        self.t_eject: Optional[int] = None  # tail flit reaches the sink
        self.hops = 0
        self.wireless_hops = 0
        self.photonic_hops = 0
        self.electrical_hops = 0
        # Injection-epoch tag: set by the stats collector at creation time.
        # ``True`` once the packet was created at/after ``warmup_cycles``;
        # packets born during warmup stay ``False`` even when they complete
        # after it, so the measured window never mixes epochs. ``None`` for
        # packets created outside any collector (manual injection in tests).
        self.measured: Optional[bool] = None
        # One-way latch set by the routing layer when a mid-flight
        # reconfiguration (spare revocation / relay-leg failure) forces the
        # packet off its committed path. Escaped packets are never steered
        # onto spare channels again and restart each remaining ascent
        # store-and-forward (see FaultTolerantOwn256Routing.hold_for_full).
        self.escaped = False

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(pid={self.pid}, {self.src_core}->{self.dst_core}, "
            f"size={self.size_flits}, t_create={self.t_create})"
        )
