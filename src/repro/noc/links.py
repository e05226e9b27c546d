"""Link-layer models: endpoints, point-to-point links and shared media.

The paper's three interconnect technologies map onto two link abstractions:

* :class:`Link` -- a unidirectional conduit from one router output port to a
  downstream :class:`Endpoint` (an input port's credit/VC-state view). Plain
  electrical mesh links are exactly this.
* :class:`SharedMedium` -- an arbitration domain shared by several links:

  - a **photonic MWSR waveguide** (multiple-writer-single-reader): all writer
    links share one medium and one destination endpoint; a circulating token
    (Sec. III-A of the paper) admits one writer at a time;
  - a **wireless channel**: in OWN-256 channels are dedicated writer->reader
    pairs (a degenerate medium); in OWN-1024 a channel is SWMR -- one of four
    cluster transmitters holds the intra-group token and the transmission is
    *multicast* to the four receivers of the destination group, only one of
    which forwards it (Sec. III-B). Multicast receive energy is accounted by
    ``rx_multicast_flits``.

Credits and output-VC busy flags live on the :class:`Endpoint` so that
multiple upstream writers of a bus share one consistent view of the reader's
buffer state.
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, Iterable, List, Optional, Sequence, TYPE_CHECKING

from repro.noc.buffers import ACTIVE

if TYPE_CHECKING:  # pragma: no cover
    from repro.noc.packet import Packet
    from repro.noc.router import Router

#: Link technology kinds; power accounting keys off these strings.
ELECTRICAL = "electrical"
PHOTONIC = "photonic"
WIRELESS = "wireless"

LINK_KINDS = (ELECTRICAL, PHOTONIC, WIRELESS)


class Endpoint:
    """Downstream-side state of a link: credits and VC ownership.

    Parameters
    ----------
    router:
        Downstream router (``None`` for ejection sinks).
    in_port:
        Input-port index at the downstream router.
    num_vcs, vc_depth:
        Mirror of the downstream input port geometry; credits start at
        ``vc_depth`` per VC.
    is_sink:
        Ejection endpoints accept flits unconditionally (infinite buffer at
        the core interface, the standard open-loop sink assumption).
    """

    __slots__ = (
        "router",
        "in_port",
        "num_vcs",
        "vc_depth",
        "credits",
        "vc_busy",
        "is_sink",
        "name",
        "requests",
        "min_size",
        "woken",
        "ni",
        "vcs",
    )

    def __init__(
        self,
        router: Optional["Router"],
        in_port: int,
        num_vcs: int,
        vc_depth: int,
        is_sink: bool = False,
        name: str = "",
    ) -> None:
        self.router = router
        self.in_port = in_port
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        # Every sink path returns on ``is_sink`` before it reaches a credit
        # or a busy flag, so a sink holds the shared empty tuple for both.
        self.credits: List[int] = () if is_sink else [vc_depth] * num_vcs
        self.vc_busy: List[bool] = () if is_sink else [False] * num_vcs
        self.is_sink = is_sink
        self.name = name
        #: VC allocation is decided here, at the resource: the slot ids
        #: (``vc.gslot``) of every upstream head in WAITING_VC whose route
        #: resolved to this endpoint, ascending -- which is grant priority
        #: order. ``min_size`` is the smallest packet among them
        #: (``vc_depth + 1`` while there is none, so no credit count reaches
        #: it): a VC that is busy, or free but funded below it, changes no
        #: request's answer. ``woken`` is set while the endpoint sits in
        #: ``KernelState.vca_woken`` awaiting the next VCA phase. A sink
        #: refuses no head, so RC queues none there: it holds ``()``.
        self.requests: List[int] = () if is_sink else []
        self.min_size = vc_depth + 1
        self.woken = False
        #: The network interface injecting through this endpoint, if any
        #: (bound by NetworkInterface.__init__). No link delivers here
        #: (``invariants.check_injection_endpoints``): the NI releases its
        #: own VCs, so a parked NI re-arms only on a credit return, from
        #: the simulator's credit ring.
        self.ni = None
        #: The input port's VCs (bound by ``KernelState.build``; a sink has none).
        self.vcs: Sequence = ()

    def admit(self, cands: Iterable[int], size: int) -> Optional[int]:
        """Virtual cut-through VC admission, the one copy of the rule: claim
        the first VC of ``cands`` that is free and holds credits for all
        ``size`` flits of a packet, and return it (``None`` if none fits).

        Admitting only whole packets guarantees that a writer holding a
        photonic / wireless token never stalls mid-packet on credits -- the
        property that keeps token arbitration out of the deadlock cycle
        (DESIGN.md, "Deadlock freedom"). Router VCA, NI injection and
        link-layer retransmission all admit here. A packet that can never
        fit (``size > vc_depth``) is refused like any other; RC and the NI
        raise for it where it enters, since waiting would hang the run. A
        sink is never asked: it takes every packet on VC 0.
        """
        vc_busy = self.vc_busy
        credits = self.credits
        for v in cands:
            if not vc_busy[v] and credits[v] >= size:
                vc_busy[v] = True
                return v
        return None

    def take_credit(self, vc: int) -> None:
        if self.is_sink:
            return
        if self.credits[vc] <= 0:
            raise RuntimeError(f"credit underflow at {self.name or 'endpoint'} vc={vc}")
        self.credits[vc] -= 1

    def return_credit(self, vc: int) -> None:
        if self.is_sink:
            return
        self.credits[vc] += 1
        if self.credits[vc] >= self.min_size and not self.vc_busy[vc]:
            self.wake()

    def release_vc(self, vc: int) -> None:
        if self.is_sink:
            return
        self.vc_busy[vc] = False
        if self.credits[vc] >= self.min_size:
            self.wake()

    def request(self, slot: int, size_flits: int) -> None:
        """Queue the head in input-VC slot ``slot`` for VC allocation."""
        insort(self.requests, slot)
        if size_flits < self.min_size:
            self.min_size = size_flits

    def withdraw(self, slot: int) -> None:
        """Drop ``slot``'s request (granted, or sent back to RC)."""
        self.requests.remove(slot)
        if not self.requests:
            self.min_size = self.vc_depth + 1

    def wake(self) -> None:
        """Have the next VCA phase examine every request queued here.

        Called for the only events that can turn a refused request into a
        grant: one of this endpoint's VCs is now both free and funded for
        the smallest queued packet (a release, or a credit landing on a
        free VC). Everything else leaves every answer as it was, so a
        waiting head costs nothing until then.
        """
        if not self.woken:
            self.woken = True
            self.router._kern.vca_woken.append(self)


class SharedMedium:
    """A transmission medium arbitrated among several writer links.

    Token arbitration is modelled as request/grant round-robin with a
    configurable ``arb_latency`` (cycles for the token to reach the granted
    writer). The holder keeps the medium until its packet's tail flit has
    been serialised, matching the paper's per-packet token hold.

    Parameters
    ----------
    name:
        Diagnostic / stats key.
    kind:
        ``"photonic"`` or ``"wireless"``.
    arb_latency:
        Grant-to-first-flit delay in cycles; Corona-style optical token rings
        cost "a few extra cycles" (Sec. V-B) which this parameter captures.
    multicast_degree:
        Number of receivers that physically demodulate each flit (1 for MWSR
        photonic buses and OWN-256 wireless pairs; 4 for OWN-1024 SWMR
        wireless channels). Feeds receiver-side power accounting.
    """

    __slots__ = (
        "name",
        "kind",
        "arb_latency",
        "multicast_degree",
        "members",
        "holder",
        "grant_at",
        "busy_until",
        "_rr_next",
        "requesters",
        "grants",
        "token_wait_cycles",
        "blocked_until",
        "token_losses",
        "index",
        "_active",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        arb_latency: int = 1,
        multicast_degree: int = 1,
    ) -> None:
        if kind not in LINK_KINDS:
            raise ValueError(f"unknown medium kind {kind!r}")
        if arb_latency < 0:
            raise ValueError(f"arb_latency must be >= 0, got {arb_latency}")
        if multicast_degree < 1:
            raise ValueError(f"multicast_degree must be >= 1, got {multicast_degree}")
        self.name = name
        self.kind = kind
        self.arb_latency = arb_latency
        self.multicast_degree = multicast_degree
        self.members: List["Link"] = []
        self.holder: Optional["Link"] = None
        self.grant_at: int = 0  # cycle at which the holder may start transmitting
        self.busy_until: int = 0  # serialization: next flit may start at this cycle
        self._rr_next = 0  # rotating-priority pointer over member indices
        # Links with at least one VC-allocated packet waiting to transmit.
        # Request registration is event-driven (updated at VCA / tail send)
        # so kilo-core crossbars with tens of thousands of writer links do
        # not pay a per-cycle member scan.
        self.requesters: set = set()
        # Token blackout (fault injection): while ``now < blocked_until`` the
        # token is lost -- no grants are issued and the current holder pauses
        # mid-packet until the token is regenerated.
        self.blocked_until = 0
        self.token_losses = 0
        # Stats
        self.grants = 0
        self.token_wait_cycles = 0
        # Deterministic arbitration-phase ordering: assigned by the owning
        # Network at registration time (-1 until then).
        self.index = -1
        self._active: Optional[set] = None  # the simulator's active media

    def register(self, link: "Link") -> None:
        link.member_index = len(self.members)
        self.members.append(link)

    def note_request(self, link: "Link") -> None:
        """A packet on ``link`` finished VCA and now wants the token."""
        if not self.requesters and self._active is not None:
            self._active.add(self)
        self.requesters.add(link)

    def drop_request(self, link: "Link") -> None:
        """``link`` no longer has packets waiting (its last tail departed)."""
        self.requesters.discard(link)

    def try_grant(self, now: int) -> Optional["Link"]:
        """Hand the free token to the next requesting member (round-robin).

        Called once per cycle by the simulator *before* switch allocation.
        The grant is made on buffered-and-VC-allocated packets; a holder that
        is momentarily out of downstream credits simply transmits when
        credits return (it keeps the token, exactly like a real token hold).
        Returns the granted link (telemetry consumes it), ``None`` when no
        grant was issued.
        """
        if self.holder is not None or not self.requesters:
            return None
        if now < self.blocked_until:
            return None  # token lost; awaiting regeneration
        n = len(self.members)
        best_link = None
        best_dist = n
        for link in self.requesters:
            dist = (link.member_index - self._rr_next) % n
            if dist < best_dist:
                best_dist = dist
                best_link = link
        self.holder = best_link
        self._rr_next = (best_link.member_index + 1) % n
        self.grant_at = now + self.arb_latency
        self.grants += 1
        self.token_wait_cycles += self.arb_latency
        waiters = best_link.sa_token_waiters
        if waiters:
            # Re-arm VCs that parked while the token was elsewhere. Grants
            # run before switch allocation, so a re-armed VC is polled the
            # same cycle it could first transmit -- bit-identical to
            # polling every cycle. The state/queue guard drops entries made
            # stale by fault handling (drops / re-routes).
            kern = best_link.src_router._kern
            slot_vc = kern.slot_vc
            for s in waiters:
                vc = slot_vc[s]
                if vc.state is ACTIVE and vc.queue:
                    kern.sa_slots.add(s)
            best_link.sa_token_waiters = ()
        return best_link

    def can_transmit(self, link: "Link", now: int) -> bool:
        return (
            self.holder is link
            and now >= self.grant_at
            and now >= self.busy_until
            and now >= self.blocked_until
        )

    def lose_token(self, now: int, recovery_cycles: int) -> None:
        """Token-loss fault: freeze the medium until regeneration completes.

        The holder (if any) keeps its logical hold so packet atomicity is
        preserved; it simply cannot transmit until ``now + recovery_cycles``.
        """
        if recovery_cycles < 1:
            raise ValueError(f"recovery_cycles must be >= 1, got {recovery_cycles}")
        self.blocked_until = max(self.blocked_until, now + recovery_cycles)
        self.token_losses += 1

    @property
    def flits_carried(self) -> int:
        """Flits sent on the medium: every one was sent on a member link."""
        return sum(link.flits_carried for link in self.members)

    def on_flit_sent(self, now: int, cycles_per_flit: int, is_tail: bool) -> None:
        self.busy_until = now + cycles_per_flit
        if is_tail:
            self.holder = None


class Link:
    """A unidirectional link from a router output port to endpoint(s).

    Parameters
    ----------
    src_router, out_port:
        Upstream attachment (``src_router`` may be ``None`` in unit tests).
    endpoint:
        The single downstream endpoint, *or* ``None`` when ``endpoints`` +
        ``resolver`` provide per-packet endpoint resolution (SWMR multicast
        channels resolve the intended receiver from the packet destination).
    kind:
        One of :data:`LINK_KINDS`; selects the power model.
    latency:
        Propagation latency in cycles (flit sent at ``t`` arrives at
        ``t + latency``; must be >= 1 to keep the cycle loop causal).
    cycles_per_flit:
        Serialization interval: minimum spacing between consecutive flits.
        Used to equalise bisection bandwidth across architectures and to
        model the 16 GHz conservative wireless scenario (2 cycles/flit).
    length_mm:
        Physical length, consumed by the electrical/wireless power models.
    medium:
        Optional :class:`SharedMedium` this link transmits on.
    """

    __slots__ = (
        "name",
        "src_router",
        "out_port",
        "kind",
        "latency",
        "cycles_per_flit",
        "length_mm",
        "medium",
        "busy_until",
        "_endpoint",
        "endpoints",
        "resolver",
        "flits_carried",
        "bits_retransmitted",
        "control_msgs",
        "fault",
        "channel_id",
        "pending_requests",
        "sa_token_waiters",
        "index",
        "member_index",
    )

    def __init__(
        self,
        name: str,
        src_router: Optional["Router"],
        out_port: int,
        endpoint: Optional[Endpoint],
        kind: str = ELECTRICAL,
        latency: int = 1,
        cycles_per_flit: int = 1,
        length_mm: float = 1.0,
        medium: Optional[SharedMedium] = None,
        endpoints: Optional[Dict[object, Endpoint]] = None,
        resolver: Optional[Callable[["Packet"], object]] = None,
        channel_id: Optional[int] = None,
    ) -> None:
        if kind not in LINK_KINDS:
            raise ValueError(f"unknown link kind {kind!r}")
        if latency < 1:
            raise ValueError(f"link latency must be >= 1 cycle, got {latency}")
        if cycles_per_flit < 1:
            raise ValueError(f"cycles_per_flit must be >= 1, got {cycles_per_flit}")
        if endpoint is None and not endpoints:
            raise ValueError("link needs an endpoint or an endpoints map")
        if endpoints and resolver is None:
            raise ValueError("multi-endpoint link needs a resolver")
        self.name = name
        self.src_router = src_router
        self.out_port = out_port
        self.kind = kind
        self.latency = latency
        self.cycles_per_flit = cycles_per_flit
        self.length_mm = length_mm
        self.medium = medium
        self.busy_until = 0
        self._endpoint = endpoint
        self.endpoints = endpoints
        self.resolver = resolver
        self.flits_carried = 0
        # Link-layer protocol accounting (populated by repro.faults):
        # bits spent on retransmitted flits and ACK/NACK control messages
        # returned over the reverse channel. Both feed power accounting.
        self.bits_retransmitted = 0
        self.control_msgs = 0
        # Per-link fault state (repro.faults.models.LinkFaultState) when a
        # fault layer protects this link; None on fault-free runs.
        self.fault = None
        self.channel_id = channel_id
        # Count of VC-allocated packets currently waiting to use this link;
        # maintained by the router (VCA / tail transmit) to drive the shared
        # medium's request set.
        self.pending_requests = 0
        # Slot ids of ACTIVE VCs parked here by switch allocation while
        # another link holds the medium token; flushed back into
        # ``KernelState.sa_slots`` when this link is granted (see
        # SharedMedium.try_grant). Only the untraced SA sweep parks here;
        # the traced ``Router.stage_sa`` keeps polling so the per-cycle
        # stall record stream is preserved. A list exists only while VCs
        # are parked here (a park extends it, a grant drops it); otherwise
        # the link holds the shared empty tuple.
        self.sa_token_waiters: Sequence[int] = ()
        # Position of this link in ``network.links`` (-1 until a
        # repro.noc.kernels.KernelState binds the owning network); the slot
        # sweep keys its per-link output round-robin pointers on it.
        self.index = -1
        # Position among ``medium.members`` (the token's round-robin order).
        self.member_index = -1
        if medium is not None:
            medium.register(self)

    def resolve_endpoint(self, packet: "Packet") -> Endpoint:
        """Endpoint the given packet will be delivered to."""
        if self._endpoint is not None:
            return self._endpoint
        resolver = self.resolver  # 3.11 cannot specialize self.resolver(...)
        key = resolver(packet)
        try:
            return self.endpoints[key]
        except KeyError:
            raise RuntimeError(
                f"link {self.name}: resolver produced unknown endpoint key {key!r}"
            ) from None

    def all_endpoints(self) -> List[Endpoint]:
        if self._endpoint is not None:
            return [self._endpoint]
        return list(self.endpoints.values())

    def ready(self, now: int) -> bool:
        """Can a flit start transmission this cycle (serialization + medium)?"""
        if now < self.busy_until:
            return False
        if self.medium is not None:
            return self.medium.can_transmit(self, now)
        return True

    @property
    def multicast_degree(self) -> int:
        return self.medium.multicast_degree if self.medium is not None else 1
