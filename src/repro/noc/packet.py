"""Packet and flit data types for the flit-level cycle simulator.

A *packet* is the unit of end-to-end communication between two cores; it is
segmented into *flits* (flow-control digits), the unit of buffer allocation
and link traversal. The paper simulates a standard 5-stage virtual-channel
router, so packets carry the metadata needed by routing (destination core,
the drain protocol's escape latch) and statistics (timestamps, hop counts).
A packet has no id of its own making: the simulator that accepts it from
``traffic.tick`` numbers it, so ids count from 0 in every simulator and no
counter outlives a run.

Performance note (per the hpc-parallel guides): these objects live on the
simulator's hottest paths, so both classes use ``__slots__`` and flits hold a
direct reference to their parent packet instead of duplicating fields.
"""

from __future__ import annotations

import enum
from typing import Iterator, List, Optional


class FlitKind(enum.IntEnum):
    """Position of a flit within its packet.

    ``HEAD`` carries routing information, ``TAIL`` releases the virtual
    channel; a single-flit packet is ``HEAD_TAIL`` and does both.
    """

    HEAD = 0
    BODY = 1
    TAIL = 2
    HEAD_TAIL = 3

    @property
    def is_head(self) -> bool:
        return self in (FlitKind.HEAD, FlitKind.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitKind.TAIL, FlitKind.HEAD_TAIL)


#: Flag tables indexed by ``FlitKind`` value. ``Flit.__init__`` runs once per
#: flit ever created; the enum properties above allocate a tuple and run two
#: enum comparisons per call, which is measurable at millions of flits.
_KIND_IS_HEAD = (True, False, False, True)
_KIND_IS_TAIL = (False, False, True, True)


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

    @property
    def latency(self) -> int:
        """End-to-end latency in cycles (creation to tail ejection).

        Raises
        ------
        RuntimeError
            If the packet has not been ejected yet.
        """
        if self.t_eject is None:
            raise RuntimeError(f"packet {self.pid} not ejected yet")
        return self.t_eject - self.t_create

    def make_flits(self) -> List["Flit"]:
        """Segment the packet into its flit sequence."""
        n = self.size_flits
        if n == 1:
            return [Flit(self, FlitKind.HEAD_TAIL, 0)]
        flits = [Flit(self, FlitKind.HEAD, 0)]
        flits.extend(Flit(self, FlitKind.BODY, i) for i in range(1, n - 1))
        flits.append(Flit(self, FlitKind.TAIL, n - 1))
        return flits

    def iter_flits(self) -> Iterator["Flit"]:
        """Lazily iterate the flit sequence (used by injection queues)."""
        return iter(self.make_flits())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(pid={self.pid}, {self.src_core}->{self.dst_core}, "
            f"size={self.size_flits}, t_create={self.t_create})"
        )


class Flit:
    """A single flow-control digit of a packet.

    Routing state (``out_port``) is written by the head flit's route
    computation and inherited by body/tail flits through the shared input-VC
    state, so flits themselves only need identity fields.

    ``fate`` is written by the fault-injection layer
    (:mod:`repro.faults`) while the flit traverses a faulty link:
    ``None`` (intact), ``"corrupt"`` (CRC fails at the receiver, which
    discards the packet and NACKs) or ``"lost"`` (a dead transceiver --
    the receiver hears nothing, so the sender must time out).
    """

    __slots__ = ("packet", "kind", "seq", "fate", "is_head", "is_tail")

    def __init__(self, packet: Packet, kind: FlitKind, seq: int) -> None:
        self.packet = packet
        self.kind = kind
        self.seq = seq
        self.fate: Optional[str] = None
        # Plain booleans (not properties): these flags are consulted several
        # times per flit per cycle on the switch-allocation hot path. The
        # table lookup avoids the enum-property cost on every construction.
        self.is_head: bool = _KIND_IS_HEAD[kind]
        self.is_tail: bool = _KIND_IS_TAIL[kind]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flit(pid={self.packet.pid}, {self.kind.name}, seq={self.seq})"
